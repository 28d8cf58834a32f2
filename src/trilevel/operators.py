"""Dense matrices for collective, field, and photon-dressed operators.

Collective transitions act on the symmetric subspace through the
three-mode boson construction: S_ij moves one excitation from level j to
level i with amplitude sqrt((n_i + 1) n_j), and S_ii counts the level-i
population.  The photon-dressed transitions X_ij pair an atomic transition
with absorption of one photon, X_ij = a S_ij for the pairs (3,1), (2,1),
(3,2), and with emission for the conjugate pairs, X_ij = X_ji^dag.

Every product-space operator the package builds is a short sum of
c (atomic (x) field) terms, written entry by entry by tensor_sum.  These
operators conserve an excitation count, so their matrices split into
exactly decoupled blocks.  Each product-space OperatorMatrix
finds the connected components of its own nonzero pattern on first use
(exactly, with no tolerance) and multiplies, diagonalizes and
exponentiates one block at a time; atomic and field operators stay plain
dense.

verify_algebra re-derives the operator identities numerically.  The
first-order commutators are exact on the (untruncated) atomic space.  The
second-order identities contain a a^dag, which the hard photon cutoff
corrupts in the top slab, so they are asserted on a guarded subspace
(photon number at most n_max - guard); guard=0 is allowed precisely to
expose that boundary artifact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hilbert import SpaceSpec, basis_table, index_map

ATOMIC = "atomic"
FIELD = "field"
PRODUCT = "product"
SPACES = (ATOMIC, FIELD, PRODUCT)

LAMBDA = "lambda"
VEE = "vee"
SCHEMES = (LAMBDA, VEE)

LEVELS = (1, 2, 3)
DEFORMED_PAIRS = ((3, 1), (2, 1), (3, 2))

TOL_ALGEBRA = 1e-12
TOL_UNITARY = 1e-12


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
        if np.array_equal(new, labels):
            return labels
        labels = new


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Connected components of a nonzero pattern, grouped by size.

    ``labels[k]`` is the smallest index of the component holding k; each
    entry of ``groups`` is an (m, b) index array listing the m components
    of size b, members in ascending order.
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

    def join(self, other: "BlockPartition") -> "BlockPartition":
        """Finest partition that both partitions refine."""
        for a, b in ((self, other), (other, self)):
            if np.array_equal(b.labels[a.labels], b.labels):
                return b  # every block of a lies inside one block of b
        dim = len(self.labels)
        every = np.arange(dim)
        rows = np.concatenate([every, every])
        cols = np.concatenate([self.labels, other.labels])
        return BlockPartition.from_labels(_component_labels(dim, rows, cols))

    def nonzeros(self, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the nonzeros of ``mat``, which must
        vanish outside these blocks; only the blocks are read."""
        rows, cols = [], []
        for idx in self.groups:
            k, r, c = np.nonzero(_gather(mat, idx))
            rows.append(idx[k, r])
            cols.append(idx[k, c])
        return np.concatenate(rows), np.concatenate(cols)


def _gather(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (m, b, b) stack of diagonal blocks of ``mat`` listed by ``idx``."""
    return mat[idx[:, :, None], idx[:, None, :]]


def _scatter(out: np.ndarray, idx: np.ndarray, blocks: np.ndarray) -> None:
    out[idx[:, :, None], idx[:, None, :]] = blocks


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Complex square matrix tagged with the space it acts on.

    Instances are immutable; the wrapped array is copied on construction
    and marked read-only, so values can be shared freely between workers.
    A read-only complex array that owns its data cannot change and is
    taken as it is.
    """

    space: str
    spec: SpaceSpec
    mat: np.ndarray

    def __post_init__(self) -> None:
        dim = _space_dim(self.spec, self.space)
        mat = self.mat
        frozen = (isinstance(mat, np.ndarray) and mat.dtype == np.complex128
                  and mat.flags.owndata and not mat.flags.writeable)
        if not frozen:
            mat = np.array(mat, dtype=np.complex128)
            mat.setflags(write=False)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"expected shape {(dim, dim)} on the {self.space} space, got {mat.shape}"
            )
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def blocks(self) -> BlockPartition:
        """Connected components of ``mat != 0`` (one block off the product space)."""
        if self.space != PRODUCT:
            return BlockPartition.from_labels(np.zeros(self.dim, dtype=np.intp))
        coarse = self.__dict__.get("_coarse")
        rows, cols = np.nonzero(self.mat) if coarse is None else coarse.nonzeros(self.mat)
        return BlockPartition.from_labels(_component_labels(self.dim, rows, cols))

    def _known_blocks(self) -> BlockPartition | None:
        """The partition, or a coarsening of it, if one is already at hand."""
        return self.__dict__.get("blocks") or self.__dict__.get("_coarse")

    def _joined_known(self, other: "OperatorMatrix") -> BlockPartition | None:
        mine, theirs = self._known_blocks(), other._known_blocks()
        return None if mine is None or theirs is None else mine.join(theirs)

    def dag(self) -> "OperatorMatrix":
        return _wrap(self.space, self.spec, self.mat.T.conj(), self._known_blocks())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.mat)))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return float(np.max(np.abs(self.mat - self.mat.conj().T))) <= tol

    def _compatible(self, other: "OperatorMatrix") -> None:
        if not isinstance(other, OperatorMatrix):
            raise TypeError(f"expected OperatorMatrix, got {type(other).__name__}")
        if self.space != other.space:
            raise SpaceMismatchError(
                f"cannot combine {self.space} and {other.space} operators"
            )
        same_atoms = self.spec.atoms == other.spec.atoms
        same_field = self.spec.n_max == other.spec.n_max
        ok = {
            ATOMIC: same_atoms,
            FIELD: same_field,
            PRODUCT: same_atoms and same_field,
        }[self.space]
        if not ok:
            raise SpaceMismatchError(
                f"operators live on different {self.space} spaces: "
                f"{self.spec} vs {other.spec}"
            )

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._compatible(other)
        return _wrap(self.space, self.spec, self.mat + other.mat, self._joined_known(other))

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._compatible(other)
        return _wrap(self.space, self.spec, self.mat - other.mat, self._joined_known(other))

    def __neg__(self) -> "OperatorMatrix":
        return _wrap(self.space, self.spec, -self.mat, self._known_blocks())

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return _wrap(self.space, self.spec, self.mat * complex(scalar), self._known_blocks())

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Matrix product, one block of the joined nonzero pattern at a time."""
        self._compatible(other)
        if self.space != PRODUCT:
            return _wrap(self.space, self.spec, self.mat @ other.mat)
        joined = self.blocks.join(other.blocks)
        out = np.zeros_like(self.mat)
        for idx in joined.groups:
            _scatter(out, idx, _gather(self.mat, idx) @ _gather(other.mat, idx))
        return _wrap(self.space, self.spec, out, joined)


def _wrap(space: str, spec: SpaceSpec, mat: np.ndarray,
          coarse: BlockPartition | None = None) -> OperatorMatrix:
    """Operator around a freshly computed complex array, frozen instead of
    copied.  ``coarse``, if given, is a partition outside whose blocks
    ``mat`` vanishes; finding ``blocks`` then reads only those blocks."""
    mat.setflags(write=False)
    out = OperatorMatrix(space, spec, mat)
    if coarse is not None:
        out.__dict__["_coarse"] = coarse
    return out


def identity(spec: SpaceSpec, space: str) -> OperatorMatrix:
    dim = _space_dim(spec, space)
    return _wrap(space, spec, np.eye(dim, dtype=np.complex128),
                 BlockPartition.from_labels(np.arange(dim)))


def diagonal(spec: SpaceSpec, values: np.ndarray) -> OperatorMatrix:
    """Product-space operator with ``values`` on the diagonal, one block per state."""
    dim = spec.product_dim
    mat = np.zeros((dim, dim), dtype=np.complex128)
    np.fill_diagonal(mat, values)
    return _wrap(PRODUCT, spec, mat, BlockPartition.from_labels(np.arange(dim)))


def atomic_operator(spec: SpaceSpec, i: int, j: int) -> OperatorMatrix:
    """Collective transition S_ij on the symmetric space.

    S_ii is diagonal and counts the level-i population; for i != j the only
    nonzero element per column moves one excitation from level j to level i
    with the boson ladder amplitude sqrt((n_i + 1) n_j).
    """
    if i not in LEVELS or j not in LEVELS:
        raise ValueError(f"levels must be in {LEVELS}, got ({i}, {j})")
    imap = index_map(spec)
    mat = np.zeros((spec.atomic_dim, spec.atomic_dim), dtype=np.complex128)
    for col, occ in enumerate(imap.states):
        if i == j:
            mat[col, col] = occ[i - 1]
            continue
        if occ[j - 1] == 0:
            continue
        target = list(occ)
        target[j - 1] -= 1
        target[i - 1] += 1
        mat[imap.atomic_index(target), col] = np.sqrt((occ[i - 1] + 1) * occ[j - 1])
    return OperatorMatrix(ATOMIC, spec, mat)


def field_operator(spec: SpaceSpec, kind: str) -> OperatorMatrix:
    """Truncated ladder matrices: "annihilate", "create", or "number"."""
    n = np.arange(1, spec.field_dim)
    if kind == "annihilate":
        mat = np.diag(np.sqrt(n.astype(float)), k=1)
    elif kind == "create":
        mat = np.diag(np.sqrt(n.astype(float)), k=-1)
    elif kind == "number":
        mat = np.diag(np.arange(spec.field_dim, dtype=float))
    else:
        raise ValueError(f"unknown field operator kind {kind!r}")
    return OperatorMatrix(FIELD, spec, mat)


def tensor_sum(spec: SpaceSpec, terms: list[tuple]) -> OperatorMatrix:
    """Sum of c (atomic (x) field) over the ``(c, atomic, field)`` terms on
    the product space (photon index fastest).

    Entries are written from the nonzeros of both factors, in term order,
    into one fresh array, so terms that share an entry add up in that
    order.  The blocks are the connected components of the written entries
    that are nonzero, so they are found without scanning the matrix."""
    f = spec.field_dim
    rows, cols, values = [], [], []
    for c, atomic, field in terms:
        ar, ac = np.nonzero(atomic)
        fr, fc = np.nonzero(field)
        rows.append((ar[:, None] * f + fr).ravel())
        cols.append((ac[:, None] * f + fc).ravel())
        values.append((c * (atomic[ar, ac][:, None] * field[fr, fc])).ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    dim = spec.product_dim
    mat = np.zeros((dim, dim), dtype=np.complex128)
    np.add.at(mat, (rows, cols), np.concatenate(values))
    nonzero = mat[rows, cols] != 0  # a zero c or cancelling terms write zeros
    out = _wrap(PRODUCT, spec, mat)
    out.__dict__["blocks"] = BlockPartition.from_labels(
        _component_labels(dim, rows[nonzero], cols[nonzero]))
    return out


def lift(spec: SpaceSpec, op: OperatorMatrix) -> OperatorMatrix:
    """Embed an atomic or field operator into the product space.

    The identity fills the complementary factor; the tensor order matches
    the canonical flat index (photon index fastest).
    """
    if op.spec != spec:
        raise SpaceMismatchError(f"operator spec {op.spec} does not match {spec}")
    if op.space == ATOMIC:
        return tensor_sum(spec, [(1, op.mat, np.eye(spec.field_dim))])
    if op.space == FIELD:
        return tensor_sum(spec, [(1, np.eye(spec.atomic_dim), op.mat)])
    raise SpaceMismatchError("lift expects an atomic or field operator")


def dressed_term(spec: SpaceSpec, i: int, j: int, c: complex = 1) -> tuple:
    """The tensor_sum term c X_ij: c (S_ij (x) a) for (i, j) in
    {(3,1), (2,1), (3,2)}, c (S_ij (x) a^dag) for the transposed pairs."""
    if (i, j) in DEFORMED_PAIRS:
        kind = "annihilate"
    elif (j, i) in DEFORMED_PAIRS:
        kind = "create"
    else:
        raise ValueError(f"no dressed transition for level pair ({i}, {j})")
    return c, atomic_operator(spec, i, j).mat, field_operator(spec, kind).mat


def deformed_operator(spec: SpaceSpec, i: int, j: int) -> OperatorMatrix:
    """Photon-dressed transition X_ij on the product space.

    X_ij = a S_ij for (i, j) in {(3,1), (2,1), (3,2)} (photon absorbed,
    excitation raised); the transposed pairs are the conjugates,
    X_ij = X_ji^dag = a^dag S_ij.
    """
    return tensor_sum(spec, [dressed_term(spec, i, j)])


def commutator(m: OperatorMatrix, n: OperatorMatrix) -> OperatorMatrix:
    return (m @ n) - (n @ m)


def hermitian_blocks(op: OperatorMatrix, support: np.ndarray | None = None):
    """Eigendecomposition of a Hermitian operator, one block at a time.

    Yields (idx, w, v) per group of equal-size blocks: idx is the (m, b)
    index array of the blocks, w their (m, b) eigenvalues and v the
    (m, b, b) eigenvector columns.  With a boolean ``support`` mask only
    blocks holding a supported index are diagonalized.  One-state blocks
    need no solver: the eigenvalue is the real diagonal entry.
    """
    for idx in op.blocks.groups:
        if support is not None:
            idx = idx[support[idx].any(axis=1)]
            if not len(idx):
                continue
        blocks = _gather(op.mat, idx)
        if idx.shape[1] == 1:
            yield idx, blocks[:, :, 0].real, np.ones_like(blocks)
            continue
        pairs = [np.linalg.eigh(block) for block in blocks]
        yield idx, np.array([w for w, _ in pairs]), np.array([v for _, v in pairs])


def exp_hermitian(h: OperatorMatrix, t: float) -> OperatorMatrix:
    """exp(-i t H) for Hermitian H; elements between blocks are exactly zero."""
    out = np.zeros_like(h.mat)
    for idx, w, v in hermitian_blocks(h):
        _scatter(out, idx, (v * np.exp(-1j * t * w)[:, None, :]) @ v.conj().swapaxes(1, 2))
    return _wrap(h.space, h.spec, out, h.blocks)


def exp_antihermitian(gen: OperatorMatrix, theta: float) -> OperatorMatrix:
    """exp(theta G) for anti-Hermitian G, checked to be unitary to TOL_UNITARY."""
    out = exp_hermitian(1j * gen, theta)  # exp(theta G) = exp(-i theta (i G))
    defect = (out @ out.dag() - identity(gen.spec, gen.space)).max_abs()
    if defect > TOL_UNITARY:
        raise RuntimeError(f"rotation is not unitary (defect {defect:.2e})")
    return out


def eigenvalues(h: OperatorMatrix) -> np.ndarray:
    """Ascending spectrum of a Hermitian operator, collected block by block."""
    return np.sort(np.concatenate([w.ravel() for _, w, _ in hermitian_blocks(h)]))


def guarded_projector(spec: SpaceSpec, guard: int) -> OperatorMatrix:
    """Orthogonal projector onto product states with photon number <= n_max - guard."""
    if not 0 <= guard <= spec.n_max:
        raise ValueError(f"guard must be in [0, {spec.n_max}], got {guard}")
    return diagonal(spec, basis_table(spec).photons <= spec.n_max - guard)


def enhancement_factor(scheme: str, occupations: np.ndarray | tuple[int, int, int],
                       photons: np.ndarray | float) -> np.ndarray | float:
    """S33 - n (lambda) or S11 + n + 1 (vee) from the labels of basis states,
    ``occupations[..., k]`` the level-(k + 1) population.  Linear in the
    labels, so the mean labels of a state give its expectation value."""
    occupations = np.asarray(occupations)
    if scheme == LAMBDA:
        return occupations[..., 2] - photons
    return occupations[..., 0] + photons + 1


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one numeric identity check."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    guard: int


def _report(name: str, residual: float, guard: int,
            tolerance: float = TOL_ALGEBRA) -> IdentityReport:
    return IdentityReport(name, residual, tolerance, residual <= tolerance, guard)


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

    A residual above tolerance yields a failing report, not an exception,
    so callers can always print the full table.
    """
    if mode == "u3":
        s = {(i, j): atomic_operator(spec, i, j) for i in LEVELS for j in LEVELS}
        reports = []
        for i, j, k, l in itertools.product(LEVELS, repeat=4):
            rhs = (j == k) * s[(i, l)].mat - (i == l) * s[(k, j)].mat
            resid = float(np.max(np.abs(commutator(s[(i, j)], s[(k, l)]).mat - rhs)))
            reports.append(_report(f"[S{i}{j}, S{k}{l}]", resid, 0))
        return reports

    if mode == "second_order":
        if not 0 <= guard <= spec.n_max:
            raise ValueError(f"guard must be in [0, {spec.n_max}], got {guard}")
        table = basis_table(spec)
        occ, num = table.occupations, table.photons
        keep = num <= spec.n_max - guard
        s21, s32 = (lift(spec, atomic_operator(spec, i, j)) for i, j in ((2, 1), (3, 2)))
        x31, x23, x12 = (deformed_operator(spec, i, j) for i, j in ((3, 1), (2, 3), (1, 2)))

        def check(name, lhs, factor, transition):
            sub = (lhs - diagonal(spec, factor) @ transition).mat[np.ix_(keep, keep)]
            return _report(name, float(np.max(np.abs(sub))) if sub.size else 0.0, guard)

        # right-hand sides: a label diagonal times S21 or S32; one check alive at a time
        return [
            check("X23 X31 = n (S33 + 1) S21", x23 @ x31, num * (occ[:, 2] + 1), s21),
            check("X31 X23 = (n + 1) S33 S21", x31 @ x23, (num + 1) * occ[:, 2], s21),
            check("[X31, X23] = (S33 - n) S21", commutator(x31, x23),
                  enhancement_factor(LAMBDA, occ, num), s21),
            check("[X31, X12] = (S11 + n + 1) S32", commutator(x31, x12),
                  enhancement_factor(VEE, occ, num), s32),
        ]

    raise ValueError(f"unknown verification mode {mode!r}")
