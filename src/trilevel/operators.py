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
c (atomic (x) field) terms by tensor_sum, stored in the connected components
of what is written; for a Hamiltonian these are the decoupled blocks of a
conserved excitation count.  An OperatorMatrix holds a BlockPartition with
every nonzero and one (m, b, b) stack per block size b, and makes one numpy
call per stack: sums and products scatter both operands into the joined
partition by slot arithmetic, and hermitian_blocks gathers the exact blocks
(found from the stored elements, no tolerance) into stacks, one eigh call
each.  ``mat`` builds a dense copy.

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
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .hilbert import SpaceSpec, basis_table, index_map

ATOMIC = "atomic"
FIELD = "field"
PRODUCT = "product"

LAMBDA = "lambda"
VEE = "vee"

LEVELS = (1, 2, 3)
DEFORMED_PAIRS = ((3, 1), (2, 1), (3, 2))

TOL_ALGEBRA = 1e-12
TOL_UNITARY = 1e-12
CHUNK_ENTRIES = 2**14  # elements per array of one slice: Hermiticity check, trajectory chunks


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


def _space_dim(spec: SpaceSpec, space: str) -> int:
    if space == ATOMIC:
        return spec.atomic_dim
    if space == FIELD:
        return spec.field_dim
    if space == PRODUCT:
        return spec.product_dim
    raise ValueError(f"unknown space tag {space!r}")


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
    """Connected components of a nonzero pattern, grouped by size.

    ``labels[k]`` is the smallest index of the component holding k; each
    entry of ``groups`` is an (m, b) index array listing the m components
    of size b, members in ascending order.  ``stacks`` lays out storage.
    """

    labels: np.ndarray
    groups: tuple[np.ndarray, ...]

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> "BlockPartition":
        order = np.argsort(labels, kind="stable")
        ordered = labels[order]
        starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
        sizes = np.concatenate([starts[1:], [len(labels)]]) - starts
        groups = tuple(order[starts[sizes == b][:, None] + np.arange(b)]
                       for b in sorted(set(sizes.tolist())))
        return cls(labels, groups)

    @property
    def count(self) -> int:
        return sum(idx.shape[0] for idx in self.groups)

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

    @property
    def size(self) -> int:
        return self.stacks[-1][1].stop

    @cached_property
    def slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) offsets per index: element (r, c) of a block is stored
        at row[r] + col[c]."""
        row, col = np.empty((2, len(self.labels)), dtype=np.intp)
        for idx, where, (m, b, _) in self.stacks:
            col[idx] = np.arange(b)
            row[idx] = where.start + np.arange(m * b).reshape(m, b) * b
        return row, col

    def join(self, other: "BlockPartition") -> "BlockPartition":
        """Finest partition that both partitions refine."""
        if other is self:
            return self
        for a, b in ((self, other), (other, self)):
            if (b.labels[a.labels] == b.labels).all():
                return b  # every block of a lies inside one block of b
        dim = len(self.labels)
        every = np.arange(dim)
        rows = np.concatenate([every, every])
        cols = np.concatenate([self.labels, other.labels])
        return BlockPartition.from_labels(_component_labels(dim, rows, cols))


@lru_cache(maxsize=64)
def _one_block(dim: int) -> BlockPartition:
    return BlockPartition(np.zeros(dim, dtype=np.intp), (np.arange(dim)[None, :],))


@lru_cache(maxsize=64)
def _singletons(dim: int) -> BlockPartition:
    return BlockPartition.from_labels(np.arange(dim))


def _views(layout: BlockPartition, data: np.ndarray) -> list:
    """(idx, stack) per group of ``layout``, each stack a view of ``data``."""
    return [(idx, data[where].reshape(shape)) for idx, where, shape in layout.stacks]


def _write(layout: BlockPartition, rows: np.ndarray, cols: np.ndarray,
           values: np.ndarray) -> np.ndarray:
    """Flat storage in ``layout`` of the elements (rows, cols, values).

    Repeated elements add up in their order; elements that lie in no block
    must be zero and are dropped."""
    inside = layout.labels[rows] == layout.labels[cols]
    row, col = layout.slots
    data = np.zeros(layout.size, dtype=np.complex128)
    np.add.at(data, row[rows[inside]] + col[cols[inside]], values[inside])
    return data


class OperatorMatrix:
    """Complex square matrix tagged with the space it acts on, stored as its blocks.

    ``OperatorMatrix(space, spec, mat)`` copies a dense array into one block;
    with a ``layout``, ``mat`` is instead the flat storage in that partition.
    The storage is read-only, so values can be shared freely between workers;
    ``mat`` reads back a read-only dense matrix, built on each access.
    """

    def __init__(self, space: str, spec: SpaceSpec, mat: np.ndarray,
                 layout: BlockPartition | None = None) -> None:
        if layout is None:
            dim = _space_dim(spec, space)
            mat = np.array(mat, dtype=np.complex128)
            if mat.shape != (dim, dim):
                raise ValueError(
                    f"expected shape {(dim, dim)} on the {space} space, got {mat.shape}"
                )
            layout, mat = _one_block(dim), mat.ravel()
        self.space, self.spec, self._layout, self._data = space, spec, layout, mat
        self.__post_init__()

    def __post_init__(self) -> None:
        self._data.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self._layout.labels)

    @property
    def mat(self) -> np.ndarray:
        return _dense(self)

    @cached_property
    def blocks(self) -> BlockPartition:
        """Exact connected components of the nonzero pattern, from the stored elements."""
        rows, cols, _ = self.elements()
        labels = _component_labels(self.dim, rows, cols)
        if (labels == self._layout.labels).all():
            return self._layout
        return BlockPartition.from_labels(labels)

    def elements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and value of every nonzero element."""
        rows, cols, values = [], [], []
        for idx, stack in _views(self._layout, self._data):
            k, r, c = np.nonzero(stack)
            rows.append(idx[k, r])
            cols.append(idx[k, c])
            values.append(stack[k, r, c])
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)

    def _in(self, layout: BlockPartition) -> np.ndarray:
        """Flat storage in ``layout``, nested with the stored partition: scattered into
        a coarser one, or gathered into a finer one holding every nonzero; zeros are +0.0."""
        if layout is self._layout:
            return self._data
        if layout.count <= self._layout.count:  # nested, so coarser or the same
            row, col = layout.slots
            data = np.zeros(layout.size, dtype=np.complex128)
            for idx, stack in _views(self._layout, self._data):
                data[row[idx][:, :, None] + col[idx][:, None, :]] = stack + 0.0
            return data
        row, col = self._layout.slots
        return np.concatenate([self._data[row[idx][:, :, None] + col[idx][:, None, :]].ravel()
                               for idx in layout.groups]) + 0.0

    def dag(self) -> "OperatorMatrix":
        data = [s.swapaxes(1, 2).conj().ravel() for _, s in _views(self._layout, self._data)]
        return OperatorMatrix(self.space, self.spec, np.concatenate(data), self._layout)

    def max_abs(self, where=None) -> float:
        """Largest |element| where ``where(rows, cols)`` holds (everywhere if None),
        0.0 where it holds nowhere; the predicate gets index arrays broadcast
        over each stored (m, b, b) stack and returns a boolean mask."""
        return max(float(np.max(np.abs(stack), initial=0.0, where=True if where is None
                                else where(idx[:, :, None], idx[:, None, :])))
                   for idx, stack in _views(self._layout, self._data))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Whether |s - s^H| <= tol everywhere, checked in slices of at most
        CHUNK_ENTRIES elements: whole blocks, or rows of one block."""
        for _, s in _views(self._layout, self._data):
            m, b, _ = s.shape
            rows = max(1, min(b, CHUNK_ENTRIES // b))
            count = max(1, CHUNK_ENTRIES // (rows * b))
            for k, r in itertools.product(range(0, m, count), range(0, b, rows)):
                part, mirror = s[k:k + count, r:r + rows], s[k:k + count, :, r:r + rows]
                if not np.max(np.abs(part - mirror.conj().swapaxes(1, 2))) <= tol:
                    return False  # NaN fails too
        return True

    @cached_property
    def eigenblocks(self) -> list:
        """hermitian_blocks(self), made once: exp_hermitian forms every time from it."""
        return list(hermitian_blocks(self))

    def _joined(self, other: "OperatorMatrix") -> BlockPartition:
        if not isinstance(other, OperatorMatrix):
            raise TypeError(f"expected OperatorMatrix, got {type(other).__name__}")
        if self.space != other.space:
            raise SpaceMismatchError(f"cannot combine {self.space} and {other.space} operators")
        a, b = self.spec, other.spec
        if ((self.space != FIELD and a.atoms != b.atoms)
                or (self.space != ATOMIC and a.n_max != b.n_max)):
            raise SpaceMismatchError(
                f"operators live on different {self.space} spaces: {a} vs {b}")
        return self._layout.join(other._layout)  # both act on the same space

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        layout = self._joined(other)
        return OperatorMatrix(self.space, self.spec, self._in(layout) + other._in(layout), layout)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":  # the bits of self + (-other)
        layout = self._joined(other)
        return OperatorMatrix(self.space, self.spec, self._in(layout) - other._in(layout), layout)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.spec, -self._data, self._layout)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.spec, self._data * complex(scalar), self._layout)

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Matrix product, one block of the joined partitions at a time."""
        joined = self._joined(other)
        a, b = self._in(joined), other._in(joined)
        data = np.empty(joined.size, dtype=np.complex128)
        for _, where, shape in joined.stacks:
            np.matmul(a[where].reshape(shape), b[where].reshape(shape),
                      out=data[where].reshape(shape))
        return OperatorMatrix(self.space, self.spec, data, joined)


def _dense(op: OperatorMatrix) -> np.ndarray:
    """Read-only dense matrix of ``op``: its storage in one block."""
    mat = op._in(_one_block(op.dim)).reshape(op.dim, op.dim)
    mat.setflags(write=False)
    return mat


def identity(spec: SpaceSpec, space: str) -> OperatorMatrix:
    dim = _space_dim(spec, space)
    return OperatorMatrix(space, spec, np.ones(dim, dtype=np.complex128), _singletons(dim))


def diagonal(spec: SpaceSpec, values: np.ndarray) -> OperatorMatrix:
    """Product-space operator with ``values`` on the diagonal, one block per state."""
    return OperatorMatrix(PRODUCT, spec, np.array(values, dtype=np.complex128),
                          _singletons(spec.product_dim))


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
    """Operator on ``space`` summing the ``(rows, cols, values)`` parts in part order,
    stored in the connected components of the nonzero values (a zero writes a zero)."""
    rows, cols, values = (np.concatenate(x) for x in zip(*parts))
    written = values != 0
    layout = BlockPartition.from_labels(
        _component_labels(_space_dim(spec, space), rows[written], cols[written]))
    return OperatorMatrix(space, spec, _write(layout, rows, cols, values), layout)


def atomic_operator(spec: SpaceSpec, i: int, j: int) -> OperatorMatrix:
    """Collective transition S_ij (see transition_elements), stored in its blocks."""
    return element_sum(ATOMIC, spec, [transition_elements(spec, i, j)])


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


def field_operator(spec: SpaceSpec, kind: str) -> OperatorMatrix:
    """Truncated ladder operator (see field_elements), stored in its blocks."""
    return element_sum(FIELD, spec, [field_elements(spec, kind)])


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
    table = basis_table(spec)
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


def commutator(m: OperatorMatrix, n: OperatorMatrix) -> OperatorMatrix:
    return (m @ n) - (n @ m)


def exact_stacks(op: OperatorMatrix, support: np.ndarray | None = None):
    """(idx, stack) per group of the exact blocks of ``op``; with a boolean
    ``support`` mask, only the blocks holding a supported index."""
    for idx, stack in _views(op.blocks, op._in(op.blocks)):
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
    for idx, blocks in exact_stacks(op, support):
        yield idx, *np.linalg.eigh(blocks)


def apply(op: OperatorMatrix, states: np.ndarray, support: np.ndarray | None = None):
    """Yield (idx, block @ states[idx]) per group of equal-size blocks of ``op``
    (idx as in ``hermitian_blocks``), for states of shape (dim,) or (dim, T); the
    rows of op @ states outside every idx are zero.  A boolean ``support`` mask keeps
    the blocks holding a supported index."""
    for idx, stack in exact_stacks(op, support):
        x = states[idx]
        x = stack @ x if x.ndim == 3 else (stack @ x[..., None])[..., 0]  # frees the gathered rows
        yield idx, x


def exp_hermitian(h: OperatorMatrix, t: float) -> OperatorMatrix:
    """exp(-i t H) for Hermitian H, from its kept ``eigenblocks``, so further
    times cost one product per block; elements between blocks are exactly zero."""
    data = [((v * np.exp(-1j * t * w)[:, None, :]) @ v.conj().swapaxes(1, 2)).ravel()
            for _, w, v in h.eigenblocks]
    return OperatorMatrix(h.space, h.spec, np.concatenate(data), h.blocks)


def unitary_exp(h: OperatorMatrix, t: float) -> OperatorMatrix:
    """exp(-i t H) for Hermitian H, checked to be unitary to TOL_UNITARY."""
    out = exp_hermitian(h, t)
    defect = max(float(np.max(np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(u.shape[1]))))
                 for _, u in _views(out._layout, out._data))
    if defect > TOL_UNITARY:
        raise RuntimeError(f"rotation is not unitary (defect {defect:.2e})")
    return out


def exp_antihermitian(gen: OperatorMatrix, theta: float) -> OperatorMatrix:
    """exp(theta G) for anti-Hermitian G, checked to be unitary to TOL_UNITARY."""
    return unitary_exp(1j * gen, theta)  # exp(theta G) = exp(-i theta (i G))


def eigenvalues(h: OperatorMatrix) -> np.ndarray:
    """Ascending spectrum of a Hermitian operator, collected block by block."""
    return np.sort(np.concatenate([w.ravel() for _, w, _ in hermitian_blocks(h)]))


def guarded_states(spec: SpaceSpec, guard: int) -> np.ndarray:
    """Per product index, whether its photon number is at most n_max - guard."""
    if not 0 <= guard <= spec.n_max:
        raise ValueError(f"guard must be in [0, {spec.n_max}], got {guard}")
    return basis_table(spec).photons <= spec.n_max - guard


def guarded_projector(spec: SpaceSpec, guard: int) -> OperatorMatrix:
    """Orthogonal projector onto product states with photon number <= n_max - guard."""
    return diagonal(spec, guarded_states(spec, guard))


def enhancement_factor(scheme: str, occupations: np.ndarray | tuple[int, int, int],
                       photons: np.ndarray | float) -> np.ndarray | float:
    """S33 - n (lambda) or S11 + n + 1 (vee) from the labels of basis states,
    ``occupations[..., k]`` the level-(k + 1) population: the shared level's
    population, less n where it absorbs the photon, plus n + 1 where it emits it.
    Linear in the labels, so the mean labels of a state give its expectation value."""
    lay = layout(scheme)
    shared = np.asarray(occupations)[..., lay.shared - 1]
    return shared - photons if lay.shared_is_upper else shared + photons + 1


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one numeric identity check."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    guard: int


def _report(name: str, residual: float, guard: int) -> IdentityReport:
    return IdentityReport(name, residual, TOL_ALGEBRA, residual <= TOL_ALGEBRA, guard)


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


def verify_algebra(spec: SpaceSpec, mode: str, guard: int = 1) -> list[IdentityReport]:
    """Check the operator identities numerically and report residuals.

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

    A residual above tolerance yields a failing report, not an exception,
    so callers can always print the full table.
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
        return [_report(name, r, 0) for name, r in zip(names, resid.tolist())]

    if mode == "second_order":
        keep = guarded_states(spec, guard)
        x31, x23, x12 = (_columns(spec.product_dim, term_elements(spec, dressed_term(spec, i, j)))
                         for i, j in ((3, 1), (2, 3), (1, 2)))
        x23_x31, x31_x23 = _gather(x23, x31), _gather(x31, x23)

        def check(name, lhs, i, j, factor):  # lhs: [P] or [P, Q] for P - Q
            rhs = _columns(spec.product_dim, conserved_product(spec, i, j, factor))
            resid = _residual([*lhs, rhs], lambda *v: functools.reduce(np.subtract, v),
                              lambda r, c: keep[r] & keep[c])  # P - T or (P - Q) - T
            return _report(name, float(resid), guard)

        return [
            check("X23 X31 = n (S33 + 1) S21", [x23_x31], 2, 1, lambda o, n: n * (o[:, 2] + 1)),
            check("X31 X23 = (n + 1) S33 S21", [x31_x23], 2, 1, lambda o, n: (n + 1) * o[:, 2]),
            check("[X31, X23] = (S33 - n) S21", [x31_x23, x23_x31], 2, 1,
                  functools.partial(enhancement_factor, LAMBDA)),
            check("[X31, X12] = (S11 + n + 1) S32", [_gather(x31, x12), _gather(x12, x31)], 3, 2,
                  functools.partial(enhancement_factor, VEE)),
        ]

    raise ValueError(f"unknown verification mode {mode!r}")
