"""Block-stored matrices for collective, field, and photon-dressed operators.

Collective transitions act on the symmetric subspace through the
three-mode boson construction: S_ij moves one excitation from level j to
level i with amplitude sqrt((n_i + 1) n_j), and S_ii counts the level-i
population.  The photon-dressed transitions X_ij pair an atomic transition
with absorption of one photon, X_ij = a S_ij for the pairs (3,1), (2,1),
(3,2), and with emission for the conjugate pairs, X_ij = X_ji^dag.

Operators are written from the (row, column, value) of their nonzeros, with
no dense factor: S_ij from the occupation labels, a, a^dag and n from the
photon number, and every product-space operator as a short sum of
c (atomic (x) field) terms by tensor_sum.  Results that need only those
elements (the weight diagram, the dark-state check of verify) read them as
written and store no operator.  An OperatorMatrix holds one
BlockPartition, the one its writer stored it in (see OperatorMatrix), and one
(m, b, b) stack per block size b; for a Hamiltonian the blocks are the
decoupled sectors of a conserved excitation count.  Every kernel makes one
numpy call per stored stack: hermitian_blocks hands them to eigh, and
conjugation_residual compares W H W^dag with a reference in the sectors of a conserved
label, applying each unitary from its own stacks and storing no product.  ``mat``
builds a dense copy, ``@`` multiplies two.

verify_algebra re-derives the operator identities numerically.  The
first-order commutators are exact on the (untruncated) atomic space.  The
second-order identities contain a a^dag, which the hard photon cutoff
corrupts in the top slab, so they are asserted on a guarded subspace
(photon number at most n_max - guard); guard=0 is allowed precisely to
expose that boundary artifact.  Every factor in these identities has at most
one nonzero per column, so the checks hold each as one row and one value per
column and multiply by gathers, with no OperatorMatrix; that form stays
private to them, since nothing else multiplies elementary operators.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .hilbert import SpaceSpec, index_map

ATOMIC = "atomic"
FIELD = "field"
PRODUCT = "product"

LAMBDA = "lambda"
VEE = "vee"

LEVELS = (1, 2, 3)
DEFORMED_PAIRS = ((3, 1), (2, 1), (3, 2))

TOL_ALGEBRA = 1e-12
TOL_UNITARY = 1e-12
CHUNK_ENTRIES = 2**14  # elements per slice: Hermiticity check, trajectory chunks, sector runs


@dataclass(frozen=True)
class Layout:
    """What tells the layouts apart: the coupled (upper, lower) ``pairs``, (3, 1) first;
    the same pairs in the small rotations' (outer, inner) ``rotation_order``; the
    ``degenerate`` pair; the level both pairs share; the sign of the mode rotation."""

    pairs: tuple[tuple[int, int], tuple[int, int]]
    rotation_order: tuple[tuple[int, int], tuple[int, int]]
    degenerate: tuple[int, int]
    shared: int
    sign: int

    @property
    def shared_is_upper(self) -> bool:  # lambda: level 3 absorbs through both pairs
        return self.shared == self.pairs[0][0]


LAYOUTS = {
    LAMBDA: Layout(((3, 1), (3, 2)), ((3, 2), (3, 1)), (1, 2), shared=3, sign=1),
    VEE: Layout(((3, 1), (2, 1)), ((3, 1), (2, 1)), (2, 3), shared=1, sign=-1),
}
SCHEMES = tuple(LAYOUTS)


def layout(scheme: str) -> Layout:
    """The LAYOUTS record of ``scheme``; ValueError for any other name."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return LAYOUTS[scheme]


class SpaceMismatchError(ValueError):
    """Raised when operators living on different spaces are combined."""


def _component_labels(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Smallest member of the connected component of every index, for the
    undirected graph with edges rows[k] -- cols[k].

    Min-label propagation with pointer jumping; labels only decrease and
    stay inside their component, so the fixed point labels each component
    by its smallest index.
    """
    labels = np.arange(dim)
    while True:
        low = np.minimum(labels[rows], labels[cols])
        new = labels.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if (new == labels).all():
            return labels
        labels = new


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Blocks (components of a nonzero pattern, or conserved sectors), grouped by size.

    ``labels[k]`` is the smallest index of the block holding k; each
    entry of ``groups`` is an (m, b) index array listing the m blocks
    of size b, members in ascending order.  ``stacks`` lays out storage.
    """

    labels: np.ndarray
    groups: tuple[np.ndarray, ...]

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> "BlockPartition":
        """The partition with these labels, which it keeps read-only."""
        labels.setflags(write=False)
        order = np.argsort(labels, kind="stable")
        ordered = labels[order]
        starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
        sizes = np.concatenate([starts[1:], [len(labels)]]) - starts
        groups = tuple(order[starts[sizes == b][:, None] + np.arange(b)]
                       for b in sorted(set(sizes.tolist())))
        return cls(labels, groups)

    @cached_property
    def stacks(self) -> list[tuple[np.ndarray, slice, tuple[int, int, int]]]:
        """(idx, where, shape) per group: ``data[where].reshape(shape)`` is
        the (m, b, b) stack of the blocks listed by idx in flat storage."""
        out, start = [], 0
        for idx in self.groups:
            m, b = idx.shape
            out.append((idx, slice(start, start + m * b * b), (m, b, b)))
            start += m * b * b
        return out

    @cached_property
    def slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) offsets per index: element (r, c) of a block is stored
        at row[r] + col[c]."""
        row, col = np.empty((2, len(self.labels)), dtype=np.intp)
        for idx, where, (m, b, _) in self.stacks:
            col[idx] = np.arange(b)
            row[idx] = where.start + np.arange(m * b).reshape(m, b) * b
        return row, col


@lru_cache(maxsize=64)
def _one_block(dim: int) -> BlockPartition:
    return BlockPartition.from_labels(np.zeros(dim, dtype=np.intp))


def _views(layout: BlockPartition, data: np.ndarray) -> list:
    """(idx, stack) per size group, views of the flat storage ``data`` of ``layout``."""
    return [(idx, data[where].reshape(shape)) for idx, where, shape in layout.stacks]


def _write(layout: BlockPartition, rows: np.ndarray, cols: np.ndarray,
           values: np.ndarray) -> np.ndarray:
    """Flat storage in ``layout`` of the elements (rows, cols, values).  The one code that
    places element values in flat storage; dag and unitary_exp store whole stacks.

    Repeated elements add up in their order onto +0.0 (-0.0 is stored as +0.0), and
    elements that lie in no block must be zero and are dropped."""
    row, col = layout.slots
    inside = layout.labels[rows] == layout.labels[cols]
    data = np.zeros(layout.stacks[-1][1].stop, dtype=np.complex128)
    np.add.at(data, row[rows[inside]] + col[cols[inside]], values[inside])
    return data


class OperatorMatrix:
    """Complex square matrix tagged with the space it acts on, stored as its blocks.

    ``data`` is the flat complex storage in the partition ``layout`` (one block is
    ``_one_block(dim)``), read-only, so values can be shared freely between workers;
    ``mat`` reads back a read-only dense matrix, its ``elements`` written (_write) in one
    block on each access, for the tests and the benchmark's byte count.  The layout is
    the only partition: kernels read its stacks, or write the elements into another
    partition by _write.  Each writer sets it: ``element_sum`` to the components of its
    written nonzero values, ``unitary_exp`` to the generator's partition, and ``@`` to
    one block.
    """

    def __init__(self, space: str, spec: SpaceSpec, data: np.ndarray,
                 layout: BlockPartition) -> None:
        self.space, self.spec, self._layout, self._data = space, spec, layout, data
        self.__post_init__()

    def __post_init__(self) -> None:
        self._data.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self._layout.labels)

    @property
    def mat(self) -> np.ndarray:
        return _dense(self)

    def elements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and value of every nonzero element."""
        rows, cols, values = [], [], []
        for idx, stack in _views(self._layout, self._data):
            k, r, c = np.nonzero(stack)
            rows.append(idx[k, r])
            cols.append(idx[k, c])
            values.append(stack[k, r, c])
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)

    def dag(self) -> "OperatorMatrix":
        data = [s.swapaxes(1, 2).conj().ravel() for _, s in _views(self._layout, self._data)]
        return OperatorMatrix(self.space, self.spec, np.concatenate(data), self._layout)

    def is_hermitian(self) -> bool:
        """Whether |s - s^H| <= 1e-12 everywhere; NaN fails."""
        return self._hermitian_defect <= 1e-12

    @cached_property
    def _hermitian_defect(self) -> float:
        """Largest |s - s^H| (NaN if any), in CHUNK_ENTRIES slices: blocks, or rows of one."""
        defect = 0.0
        for _, s in _views(self._layout, self._data):
            m, b, _ = s.shape
            rows = max(1, min(b, CHUNK_ENTRIES // b))
            count = max(1, CHUNK_ENTRIES // (rows * b))
            for k, r in itertools.product(range(0, m, count), range(0, b, rows)):
                part, mirror = s[k:k + count, r:r + rows], s[k:k + count, :, r:r + rows]
                defect = np.maximum(defect, np.max(np.abs(part - mirror.conj().swapaxes(1, 2))))
        return float(defect)

    @cached_property
    def eigenblocks(self) -> list:
        """hermitian_blocks(self), made once: unitary_exp forms every time from it."""
        return list(hermitian_blocks(self))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Matrix product of the dense copies, stored as one block."""
        if (self.space, self.spec) != (other.space, other.spec):
            raise SpaceMismatchError(
                f"cannot multiply {self.space} {self.spec} by {other.space} {other.spec}")
        return OperatorMatrix(self.space, self.spec, (_dense(self) @ _dense(other)).ravel(),
                              _one_block(self.dim))


def _dense(op: OperatorMatrix) -> np.ndarray:
    """Read-only dense matrix of ``op``: its elements written in one block."""
    mat = _write(_one_block(op.dim), *op.elements()).reshape(op.dim, op.dim)
    mat.setflags(write=False)
    return mat


def transition_elements(spec: SpaceSpec, i: int, j: int, c: complex = 1) -> tuple:
    """Row, column and complex value of every nonzero of c S_ij, the collective
    transition: S_ii counts the level-i population; for i != j the one nonzero per
    column moves an excitation from level j to level i with amplitude sqrt((n_i + 1) n_j)."""
    if i not in LEVELS or j not in LEVELS:
        raise ValueError(f"levels must be in {LEVELS}, got ({i}, {j})")
    imap = index_map(spec)
    occ = imap.atomic_occupations
    if i == j:
        cols = np.flatnonzero(occ[:, i - 1])
        return cols, cols, c * occ[cols, i - 1].astype(np.complex128)
    cols = np.flatnonzero(occ[:, j - 1])
    n1, n2 = (occ[cols, k] + (i == k + 1) - (j == k + 1) for k in (0, 1))  # after j -> i
    values = np.sqrt((occ[cols, i - 1] + 1) * occ[cols, j - 1])
    return imap.atomic_table[n1, n2], cols, c * values.astype(np.complex128)


def identity_elements(dim: int) -> tuple:
    """Row, column and value of the elements of the dim x dim identity."""
    every = np.arange(dim)
    return every, every, np.ones(dim)


def element_sum(space: str, spec: SpaceSpec, parts: list[tuple]) -> OperatorMatrix:
    """Operator on ``space`` summing the ``(rows, cols, values)`` parts in part order, stored in
    the components of the nonzero values."""
    rows, cols, values = (np.concatenate(x) for x in zip(*parts))
    written = values != 0
    dim = {ATOMIC: spec.atomic_dim, FIELD: spec.field_dim, PRODUCT: spec.product_dim}[space]
    layout = BlockPartition.from_labels(_component_labels(dim, rows[written], cols[written]))
    return OperatorMatrix(space, spec, _write(layout, rows, cols, values), layout)


def field_elements(spec: SpaceSpec, kind: str) -> tuple:
    """Row, column and complex value of every nonzero of the truncated ladder
    operator "annihilate" (a), "create" (a^dag) or "number" (n), row-major, from
    n = 1..n_max: a is (n - 1, n, sqrt n), a^dag (n, n - 1, sqrt n), n (n, n, n)."""
    n = np.arange(1, spec.field_dim)
    if kind == "annihilate":
        return n - 1, n, np.sqrt(n).astype(np.complex128)
    if kind == "create":
        return n, n - 1, np.sqrt(n).astype(np.complex128)
    if kind == "number":
        return n, n, n.astype(np.complex128)
    raise ValueError(f"unknown field operator kind {kind!r}")


def tensor_sum(spec: SpaceSpec, terms: list[tuple]) -> OperatorMatrix:
    """Sum of c (atomic (x) field) over the ``(c, atomic, field)`` terms on the
    product space (photon index fastest), each factor the ``(rows, cols, values)``
    of its nonzeros; terms that share an entry add up in term order."""
    return element_sum(PRODUCT, spec, [term_elements(spec, term) for term in terms])


def term_elements(spec: SpaceSpec, term: tuple) -> tuple:
    """Row, column and value on the product space of the elements of one term."""
    f = spec.field_dim
    c, (ar, ac, av), (fr, fc, fv) = term
    return ((ar[:, None] * f + fr).ravel(), (ac[:, None] * f + fc).ravel(),
            (c * (av[:, None] * fv)).ravel())


def lift(spec: SpaceSpec, op: OperatorMatrix) -> OperatorMatrix:
    """Embed an atomic or field operator into the product space.

    The identity fills the complementary factor; the tensor order matches
    the canonical flat index (photon index fastest).
    """
    if op.spec != spec:
        raise SpaceMismatchError(f"operator spec {op.spec} does not match {spec}")
    if op.space == ATOMIC:
        return tensor_sum(spec, [(1, op.elements(), identity_elements(spec.field_dim))])
    if op.space == FIELD:
        return tensor_sum(spec, [(1, identity_elements(spec.atomic_dim), op.elements())])
    raise SpaceMismatchError("lift expects an atomic or field operator")


def atomic_term(spec: SpaceSpec, i: int, j: int, c: complex = 1) -> tuple:
    """The tensor_sum term c (S_ij (x) 1)."""
    return c, transition_elements(spec, i, j), identity_elements(spec.field_dim)


def conserved_product(spec: SpaceSpec, i: int, j: int, f) -> tuple:
    """Row, column and value on the product space of diag(f) S_ij for a label function
    f(occupations, photons) that S_ij conserves: each (r, c, v) becomes (r, c, v f(c))."""
    table = index_map(spec)
    rows, cols, values = term_elements(spec, atomic_term(spec, i, j))
    return rows, cols, values * f(table.occupations[cols], table.photons[cols])


def dressed_term(spec: SpaceSpec, i: int, j: int, c: complex = 1) -> tuple:
    """The tensor_sum term c X_ij: c (S_ij (x) a) for (i, j) in
    {(3,1), (2,1), (3,2)}, c (S_ij (x) a^dag) for the transposed pairs."""
    if (i, j) in DEFORMED_PAIRS:
        kind = "annihilate"
    elif (j, i) in DEFORMED_PAIRS:
        kind = "create"
    else:
        raise ValueError(f"no dressed transition for level pair ({i}, {j})")
    return c, transition_elements(spec, i, j), field_elements(spec, kind)


def deformed_operator(spec: SpaceSpec, i: int, j: int) -> OperatorMatrix:
    """Photon-dressed transition X_ij on the product space.

    X_ij = a S_ij for (i, j) in {(3,1), (2,1), (3,2)} (photon absorbed,
    excitation raised); the transposed pairs are the conjugates,
    X_ij = X_ji^dag = a^dag S_ij.
    """
    return tensor_sum(spec, [dressed_term(spec, i, j)])


def stored_stacks(op: OperatorMatrix, support: np.ndarray | None = None):
    """(idx, stack) per group of the stored blocks of ``op``; with a boolean
    ``support`` mask, only the blocks holding a supported index."""
    for idx, stack in _views(op._layout, op._data):
        if support is not None:
            keep = support[idx].any(axis=1)
            if not keep.any():
                continue
            idx, stack = idx[keep], stack[keep]
        yield idx, stack


def hermitian_blocks(op: OperatorMatrix, support: np.ndarray | None = None):
    """Eigendecomposition of a Hermitian operator, one eigh call per block size.

    Yields (idx, w, v) per group of equal-size blocks: idx is the (m, b)
    index array of the blocks, w their (m, b) eigenvalues and v the
    (m, b, b) eigenvector columns.  With a boolean ``support`` mask only
    blocks holding a supported index are diagonalized.
    """
    for idx, blocks in stored_stacks(op, support):
        yield idx, *np.linalg.eigh(blocks)


def unitary_exp(h: OperatorMatrix, t: float) -> OperatorMatrix:
    """exp(-i t H) for Hermitian H from its kept ``eigenblocks`` (further times cost one
    product per block, elements between blocks are 0), checked unitary to TOL_UNITARY."""
    data = [((v * np.exp(-1j * t * w)[:, None, :]) @ v.conj().swapaxes(1, 2)).ravel()
            for _, w, v in h.eigenblocks]
    out = OperatorMatrix(h.space, h.spec, np.concatenate(data), h._layout)
    defect = max(float(np.max(np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(u.shape[1]))))
                 for _, u in _views(out._layout, out._data))
    if defect > TOL_UNITARY:
        raise RuntimeError(f"rotation is not unitary (defect {defect:.2e})")
    return out


def eigenvalues(h: OperatorMatrix) -> np.ndarray:
    """Ascending spectrum of a Hermitian operator, collected block by block."""
    return np.sort(np.concatenate([w.ravel() for _, w, _ in hermitian_blocks(h)]))


Sectors = namedtuple("Sectors", "sector run at layouts masks")  # made by sector_runs


def sector_runs(conserved: np.ndarray, where=None) -> Sectors:
    """The sectors of ``conserved`` (a label per state), smallest first, cut into runs of at
    most CHUNK_ENTRIES entries once padded (a larger sector runs alone), built once per
    call site.  Run k holds its m sectors, each padded to the run's largest size L, as the
    (m, L, L) stack of the partition ``layouts[k]`` (m blocks of L padded indices): state s
    is padded index ``at[s]`` of run ``run[s]``, in sector ``sector[s]``.  ``masks[k]``
    lists the entries of run k's flat storage where ``where(rows, cols)`` holds on index
    arrays broadcast over the stack (every entry of a sector if None)."""
    _, sector, sizes = np.unique(conserved, return_inverse=True, return_counts=True)
    members = np.split(np.argsort(sector, kind="stable"), np.cumsum(sizes)[:-1])
    runs: list[list] = [[]]
    for k in np.argsort(sizes, kind="stable"):
        if runs[-1] and (len(runs[-1]) + 1) * sizes[k] ** 2 > CHUNK_ENTRIES:
            runs.append([])
        runs[-1].append(members[k])
    run, at, layouts, masks = np.empty_like(sector), np.empty_like(sector), [], []
    for k, states in enumerate(runs):
        m, size = len(states), len(states[-1])
        table = np.full((m, size), -1)  # the state at each padded index, -1 for padding
        for i, s in enumerate(states):
            table[i, :len(s)], run[s], at[s] = s, k, i * size + np.arange(len(s))
        layouts.append(BlockPartition.from_labels(np.repeat(np.arange(m) * size, size)))
        keep = (table >= 0)[:, :, None] & (table >= 0)[:, None, :]
        if where is not None:
            keep &= where(table[:, :, None], table[:, None, :])
        masks.append(np.flatnonzero(keep))
    return Sectors(sector, run, at, tuple(layouts), tuple(masks))


def conjugation_residual(h: OperatorMatrix, unitaries: list[OperatorMatrix],
                         reference: OperatorMatrix, sectors: Sectors) -> float:
    """Largest |W H W^dag - reference| (0.0 if none) over the masked entries of
    ``sectors``, W the product of ``unitaries``, one run of sectors at a time: H and the
    reference written (_write) from their elements into the run's padded stack, then each
    unitary, the last first, applied from its own stored stacks, U to the rows and U^dag
    to the columns of its blocks, one batched matmul per size group.  ValueError on a
    stored block across two sectors."""
    for op in (h, *unitaries, reference):
        if (sectors.sector[op._layout.labels] != sectors.sector).any():
            raise ValueError("an operand has a stored block across sectors of the conserved label")
    out, elements = 0.0, [(sectors.run[rows], sectors.at[rows], sectors.at[cols], values)
                          for rows, cols, values in (h.elements(), reference.elements())]
    for k, (layout, mask) in enumerate(zip(sectors.layouts, sectors.masks)):
        ham, ref = (_write(layout, *(x[run == k] for x in e)) for run, *e in elements)
        m, size = layout.groups[0].shape
        stack, lines = ham.reshape(m, size, size), ham.reshape(m * size, size)
        for u in reversed(unitaries):
            for idx, blocks in _views(u._layout, u._data):
                i = np.flatnonzero(sectors.run[idx[:, 0]] == k)
                at, blocks = sectors.at[idx[i]], blocks[i]  # (n, b) padded indices of n blocks
                lines[at] = blocks @ lines[at]
                sector, slot = at[:, :1] // size, at % size
                stack[sector, :, slot] = blocks.conj() @ stack[sector, :, slot]
        out = max(out, float(np.max(np.abs(ham[mask] - ref[mask]), initial=0.0)))
    return out


def guarded_states(spec: SpaceSpec, guard: int) -> np.ndarray:
    """Per product index, whether its photon number is at most n_max - guard."""
    if not 0 <= guard <= spec.n_max:
        raise ValueError(f"guard must be in [0, {spec.n_max}], got {guard}")
    return index_map(spec).photons <= spec.n_max - guard


def enhancement_factor(scheme: str, occupations: np.ndarray | tuple[int, int, int],
                       photons: np.ndarray | float) -> np.ndarray | float:
    """S33 - n (lambda) or S11 + n + 1 (vee) from the labels of basis states,
    ``occupations[..., k]`` the level-(k + 1) population: the shared level's
    population, less n where it absorbs the photon, plus n + 1 where it emits it.
    Linear in the labels, so the mean labels of a state give its expectation value."""
    lay = layout(scheme)
    shared = np.asarray(occupations)[..., lay.shared - 1]
    return shared - photons if lay.shared_is_upper else shared + photons + 1


def _columns(dim: int, elements: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(row, value) per column of an operator with at most one nonzero per column,
    from the (rows, cols, values) of its nonzeros; row -1 and value 0 mark a zero column."""
    rows, cols, values = elements
    row, value = np.full(dim, -1), np.zeros(dim, dtype=np.complex128)
    row[cols], value[cols] = rows, values
    return row, value


def _gather(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The product a b of two (row, value) forms, stacked alike over any leading axes."""
    (a_row, a_value), (b_row, b_value) = a, b
    row = np.take_along_axis(a_row, b_row, -1)  # a zero column of b reads a's last column
    return np.where(b_row < 0, -1, row), np.take_along_axis(a_value, b_row, -1) * b_value


def _residual(terms: list[tuple], combine, where=None) -> np.ndarray:
    """Largest |combine(*values)| per leading index over the (row, column) pairs that any
    of the aligned (row, value) ``terms`` touches and ``where(rows, cols)`` allows, a term
    being 0 where it does not touch: the dense masked max, as every other pair is 0."""
    out = 0.0
    for rows, _ in terms:  # the candidate rows of one term, then the next
        values = [np.where(row == rows, value, 0) for row, value in terms]
        keep = rows >= 0
        if where is not None:
            keep &= where(rows, np.arange(rows.shape[-1]))
        out = np.maximum(out, np.max(np.abs(combine(*values)), axis=-1, where=keep, initial=0.0))
    return out


def verify_algebra(spec: SpaceSpec, mode: str, guard: int = 1) -> list[tuple[str, float]]:
    """Check the operator identities numerically: (name, residual) per identity.

    mode "u3": all 81 first-order commutators
    [S_ij, S_kl] = d_jk S_il - d_il S_kj on the atomic space (guard is
    ignored; no truncation is involved).

    mode "second_order": the two ordered products and two commutators of
    dressed transitions, compared entry-wise on the guarded subspace
    (photon number <= n_max - guard on both sides).  With guard = 0 the
    identities containing a a^dag fail at the cutoff boundary; that run is
    the standard demonstration that the guard does real work.

    Each factor is held as one row and one value per column and products are
    gathers; every residual takes the float expression of the dense difference,
    (P - Q) - (d_jk S_il - d_il S_kj) or lhs - diag S, at each pair a term
    touches, so it is bit for bit the block products' one.

    No residual raises, so callers can always print the full table; the caller
    compares each with TOL_ALGEBRA.
    """
    if mode == "u3":
        d = spec.atomic_dim
        row, value = (np.array(x) for x in zip(*(
            _columns(d, transition_elements(spec, i, j))
            for i, j in itertools.product(LEVELS, repeat=2))))  # S_ij at 3 (i - 1) + j - 1
        i, j, k, l = np.array(list(itertools.product(range(3), repeat=4))).T  # l fastest

        def s(a, b):  # S_ab for every identity, as (81, d) arrays
            return row[3 * a + b], value[3 * a + b]

        d_jk, d_il = (j == k)[:, None], (i == l)[:, None]
        resid = _residual([_gather(s(i, j), s(k, l)), _gather(s(k, l), s(i, j)), s(i, l), s(k, j)],
                          lambda p, q, s_il, s_kj: (p - q) - (s_il * d_jk - s_kj * d_il))
        names = (f"[S{i}{j}, S{k}{l}]" for i, j, k, l in itertools.product(LEVELS, repeat=4))
        return list(zip(names, resid.tolist()))

    if mode == "second_order":
        keep = guarded_states(spec, guard)
        x31, x23, x12 = (_columns(spec.product_dim, term_elements(spec, dressed_term(spec, i, j)))
                         for i, j in ((3, 1), (2, 3), (1, 2)))
        x23_x31, x31_x23 = _gather(x23, x31), _gather(x31, x23)

        def check(name, lhs, i, j, factor):  # lhs: [P] or [P, Q] for P - Q
            rhs = _columns(spec.product_dim, conserved_product(spec, i, j, factor))
            resid = _residual([*lhs, rhs], lambda *v: functools.reduce(np.subtract, v),
                              lambda r, c: keep[r] & keep[c])  # P - T or (P - Q) - T
            return name, float(resid)

        return [
            check("X23 X31 = n (S33 + 1) S21", [x23_x31], 2, 1, lambda o, n: n * (o[:, 2] + 1)),
            check("X31 X23 = (n + 1) S33 S21", [x31_x23], 2, 1, lambda o, n: (n + 1) * o[:, 2]),
            check("[X31, X23] = (S33 - n) S21", [x31_x23, x23_x31], 2, 1,
                  functools.partial(enhancement_factor, LAMBDA)),
            check("[X31, X12] = (S11 + n + 1) S32", [_gather(x31, x12), _gather(x12, x31)], 3, 2,
                  functools.partial(enhancement_factor, VEE)),
        ]

    raise ValueError(f"unknown verification mode {mode!r}")
