"""Hamiltonians for the two coupled-level layouts and their decoupling rotations.

Two layouts are supported.  "lambda" couples both lower levels (1, 2) to
the top level 3; "vee" couples the ground level 1 to both upper levels
(2, 3); operators.LAYOUTS holds every fact that tells them apart.  When
the paired levels are degenerate, rotating the two collective modes splits
the interaction into one bright mode, coupled to the field with the
root-sum-square of the couplings, and one dark mode that the interaction
annihilates.  The rotation convention used throughout maps the
dark mode onto occupation slot 2, so "dark quanta" are counted by S22 in
the rotated frame, where H splits into ladders of at most A + 1 states;
``spectrum`` diagonalizes it there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import SpaceSpec, index_map
from .operators import (  # LAMBDA and VEE are re-exported
    ATOMIC,
    LAMBDA,
    PRODUCT,
    VEE,
    OperatorMatrix,
    atomic_term,
    dressed_term,
    eigenvalues,
    element_sum,
    field_elements,
    identity_elements,
    layout,
    stored_stacks,
    tensor_sum,
    term_elements,
    transition_elements,
    unitary_exp,
)

TOL_DARK_BLOCK = 1e-10


@dataclass(frozen=True)
class HamiltonianSpec:
    """Level energies, field frequency, and couplings for one scheme.

    Couplings are real and symmetric in their indices (g_ij = g_ji); only
    those of the scheme's coupled pairs (operators.LAYOUTS) are read.  Zero
    couplings are accepted (they give the free Hamiltonian); negative ones
    are rejected.
    """

    scheme: str
    energies: tuple[float, float, float]
    omega: float
    g31: float = 0.0
    g32: float = 0.0
    g21: float = 0.0

    def __post_init__(self) -> None:
        layout(self.scheme)  # raises on an unknown scheme
        e1, e2, e3 = self.energies
        if not (e1 <= e2 <= e3):
            raise ValueError(
                f"energies must be ordered E1 <= E2 <= E3, got {self.energies}"
            )
        for (i, j) in self.coupled_pairs():
            if self.coupling(i, j) < 0:
                raise ValueError(f"coupling g{i}{j} must be >= 0")

    def coupled_pairs(self) -> tuple[tuple[int, int], ...]:
        return layout(self.scheme).pairs

    def coupling(self, i: int, j: int) -> float:
        table = {(3, 1): self.g31, (3, 2): self.g32, (2, 1): self.g21}
        if (i, j) not in table:
            raise ValueError(f"no coupling constant for level pair ({i}, {j})")
        return table[(i, j)]

    @property
    def degenerate_pair(self) -> tuple[int, int]:
        """The level pair that must be degenerate for exact dark-state decoupling."""
        return layout(self.scheme).degenerate


@dataclass(frozen=True)
class RotationResult:
    """Mode-rotation angle, bright coupling, and dark-mode composition.

    dark_composition holds the amplitudes of the dark single-atom state on the
    degenerate pair, unit norm and orthogonal to the bright combination.
    """

    angle: float
    effective_coupling: float
    dark_composition: tuple[float, float]


def _free_terms(spec: SpaceSpec, h: HamiltonianSpec) -> list:
    """tensor_sum terms of omega n + sum_i E_i S_ii."""
    return [(h.omega, identity_elements(spec.atomic_dim), field_elements(spec, "number"))] + [
        atomic_term(spec, i, i, e) for i, e in enumerate(h.energies, start=1)
    ]


def _interaction_terms(spec: SpaceSpec, h: HamiltonianSpec) -> list:
    """tensor_sum terms of g_ij (X_ij + X_ji) over the coupled pairs."""
    return [dressed_term(spec, a, b, h.coupling(i, j))
            for (i, j) in h.coupled_pairs() for a, b in ((i, j), (j, i))]


def build_hamiltonian(spec: SpaceSpec, h: HamiltonianSpec) -> OperatorMatrix:
    out = tensor_sum(spec, _free_terms(spec, h) + _interaction_terms(spec, h))
    if not out.is_hermitian():
        raise RuntimeError("constructed Hamiltonian is not Hermitian")
    return out


def rotation_parameters(h: HamiltonianSpec) -> RotationResult:
    """Angle and bright/dark split of the degenerate-pair mode rotation, from the
    couplings of the coupled pairs (operators.LAYOUTS), g31 first: angle =
    atan(g32 / g31) for lambda, dark state -sin(angle) |1> + cos(angle) |2>;
    atan(g21 / g31) for vee, dark state cos(angle) |2> - sin(angle) |3>.
    The bright coupling equals sqrt of the sum of squared couplings.
    """
    ga, gb = (h.coupling(i, j) for i, j in h.coupled_pairs())
    if ga == 0.0 and gb == 0.0:
        raise ValueError("rotation undefined with both couplings zero")
    angle = math.atan2(gb, ga)
    effective = math.hypot(ga, gb)
    composition = _on_degenerate_pair(h, (-math.sin(angle), math.cos(angle)))
    return RotationResult(angle, effective, composition)


def reduced_hamiltonian(h: HamiltonianSpec) -> HamiltonianSpec | None:
    """``h`` in the frame of the mode rotation, where the bright mode takes the
    root-sum-square coupling on the first coupled pair and the dark mode, on
    occupation slot 2, none on the second; None unless the paired energies are
    exactly equal (any split adds bright-dark terms) and a coupling is nonzero.
    Its H splits into Tavis-Cummings ladders of one excitation and dark count,
    each of at most A + 1 states (ladder_storage_bytes)."""
    a, b = h.degenerate_pair
    couplings = [h.coupling(i, j) for i, j in h.coupled_pairs()]
    if h.energies[a - 1] != h.energies[b - 1] or not any(couplings):
        return None
    bright, dark = (f"g{i}{j}" for i, j in h.coupled_pairs())
    return replace(h, **{bright: rotation_parameters(h).effective_coupling, dark: 0.0})


def ladder_storage_bytes(spec: SpaceSpec) -> int:
    """Upper bound on the block storage of a reduced_hamiltonian H: its blocks hold
    at most A + 1 states, so their sizes b sum to dim and sum(b**2) <= (A + 1) dim."""
    return 16 * spec.product_dim * (spec.atoms + 1)


def spectrum(spec: SpaceSpec, h: HamiltonianSpec) -> np.ndarray:
    """Ascending eigenvalues of H, diagonalized on the ladders of reduced_hamiltonian
    where that applies (the same spectrum but for the last bits), else on H itself."""
    return eigenvalues(build_hamiltonian(spec, reduced_hamiltonian(h) or h))


def _on_degenerate_pair(h: HamiltonianSpec, amplitudes: tuple[float, float]) -> tuple:
    """``amplitudes`` given on the levels that the coupled pairs join to the shared
    level, in pair order, reordered onto the degenerate pair."""
    lay = layout(h.scheme)
    on = {i + j - lay.shared: c for (i, j), c in zip(lay.pairs, amplitudes)}
    return tuple(on[level] for level in lay.degenerate)


def _mode_pair_vector(atoms: int, levels: tuple[int, int],
                      amplitudes: tuple[float, float]) -> np.ndarray:
    """All atoms in one superposition mode of two levels (binomial state)."""
    la, lb = levels
    ca, cb = amplitudes
    imap = index_map(SpaceSpec(atoms, 1))  # the field cutoff plays no part
    vec = np.zeros(len(imap.states), dtype=np.complex128)
    for k in range(atoms + 1):
        occ = [0, 0, 0]
        occ[la - 1] = k
        occ[lb - 1] = atoms - k
        vec[imap.atomic_index(occ)] = math.sqrt(math.comb(atoms, k)) * ca**k * cb**(atoms - k)
    return vec


def dark_atomic_vector(h: HamiltonianSpec, atoms: int) -> np.ndarray:
    """Atomic-space vector with every atom in the dark mode."""
    r = rotation_parameters(h)
    return _mode_pair_vector(atoms, h.degenerate_pair, r.dark_composition)


def bright_atomic_vector(h: HamiltonianSpec, atoms: int) -> np.ndarray:
    """Atomic-space vector with every atom in the bright (coupled) mode."""
    r = rotation_parameters(h)
    amplitudes = _on_degenerate_pair(h, (math.cos(r.angle), math.sin(r.angle)))
    return _mode_pair_vector(atoms, h.degenerate_pair, amplitudes)


def dark_state_residual(spec: SpaceSpec, h: HamiltonianSpec) -> float:
    """Largest norm over n < n_max of H_int |dark, n>, every atom in the dark mode and n
    photons, which H_int annihilates: the elements of the interaction terms that
    build_hamiltonian writes, applied to the A + 1 nonzeros of each of these states."""
    dark = dark_atomic_vector(h, spec.atoms)
    rows, cols, values = (np.concatenate(x) for x in zip(
        *(term_elements(spec, term) for term in _interaction_terms(spec, h))))
    atom, photons = np.divmod(cols, spec.field_dim)
    keep = (dark[atom] != 0) & (photons < spec.n_max)
    keys, at = np.unique(photons[keep] * spec.product_dim + rows[keep], return_inverse=True)
    applied = np.zeros(len(keys), dtype=np.complex128)  # by (state, row), in key order
    np.add.at(applied, at, values[keep] * dark[atom[keep]])
    squares = np.bincount(keys // spec.product_dim, np.abs(applied) ** 2, minlength=spec.n_max)
    return float(np.sqrt(squares.max()))


def mode_rotation_unitary(spec: SpaceSpec, h: HamiltonianSpec) -> OperatorMatrix:
    """U_a = exp(theta (S_ab - S_ba)) on the atomic space, theta = the layout's sign times
    the rotation angle, which takes the dark mode of the degenerate pair (a, b) to
    occupation slot 2; the mode rotation is U_a (x) 1.  Its blocks, of one population of
    the shared level, hold at most A + 1 states."""
    la, lb = h.degenerate_pair
    generator = element_sum(ATOMIC, spec, [transition_elements(spec, la, lb, 1j),
                                           transition_elements(spec, lb, la, -1j)])
    return unitary_exp(generator, layout(h.scheme).sign * rotation_parameters(h).angle)


def rotation_report(spec: SpaceSpec, h: HamiltonianSpec) -> float:
    """The largest element of U H U^dag - H_red, U = U_a (x) 1 the mode rotation and H_red
    the Hamiltonian of reduced_hamiltonian, which ``spectrum`` diagonalizes; ``trilevel
    verify`` holds it to its tolerance.  With F the atomic free part and K = sum g_ij S_ij
    over the coupled pairs, U H U^dag - H_red = D (x) a + D^dag (x) a^dag + (U_a F U_a^dag
    - F) (x) 1, D = U_a K U_a^dag - K_red: disjoint supports, and a's largest element is
    sqrt(n_max).  So the residual is the largest |U_a X U_a^dag - X_red| for X = F +
    sqrt(n_max) K, computed one pair of U_a's stored blocks at a time, for the pairs that
    X or X_red touches.  Raises ValueError where there is no reduction."""
    reduced = reduced_hamiltonian(h)
    if reduced is None:
        raise ValueError("no reduced Hamiltonian: the paired energies differ "
                         "or every coupling is zero")
    u, n = mode_rotation_unitary(spec, h), math.sqrt(spec.n_max)
    x = []  # the (rows, cols, values) of X, then of X_red
    for s in (h, reduced):
        parts = [transition_elements(spec, i, i, e) for i, e in enumerate(s.energies, start=1)]
        parts += [transition_elements(spec, i, j, n * s.coupling(i, j))
                  for i, j in s.coupled_pairs()]
        x.append(tuple(np.concatenate(z) for z in zip(*parts)))
    block, at, blocks = np.empty(u.dim, dtype=np.intp), np.empty(u.dim, dtype=np.intp), {}
    for idx, stack in stored_stacks(u):  # each state's block (its first state), place in it
        block[idx], at[idx] = idx[:, :1], np.arange(idx.shape[1])
        blocks.update(zip(idx[:, 0].tolist(), stack))
    keys = [block[rows] * u.dim + block[cols] for rows, cols, _ in x]
    out = 0.0
    for key in sorted(set(np.concatenate(keys).tolist())):  # the block pairs X, X_red touch
        left, right = blocks[key // u.dim], blocks[key % u.dim]
        placed = np.zeros((2, len(left), len(right)), dtype=np.complex128)  # X's, X_red's
        for part, (rows, cols, values), k in zip(placed, x, keys):
            np.add.at(part, (at[rows[k == key]], at[cols[k == key]]), values[k == key])
        out = max(out, float(np.max(np.abs(left @ placed[0] @ right.conj().T - placed[1]))))
    return out


def classical_hamiltonian(h: HamiltonianSpec, alpha: complex,
                          atoms: int) -> OperatorMatrix:
    """Atomic-space Hamiltonian with the field replaced by the amplitude alpha.

    H = sum_i E_i S_ii + sum_pairs g_ij (alpha S_ij + conj(alpha) S_ji).
    """
    spec = SpaceSpec(atoms, 1)  # field cutoff is irrelevant on the atomic space
    alpha = complex(alpha)
    terms = [(e, i, i) for i, e in enumerate(h.energies, start=1)]
    for (i, j) in h.coupled_pairs():
        terms += [(alpha * h.coupling(i, j), i, j), (alpha.conjugate() * h.coupling(i, j), j, i)]
    return element_sum(ATOMIC, spec, [transition_elements(spec, i, j, c) for c, i, j in terms])


def excitation_count(spec: SpaceSpec, scheme: str) -> np.ndarray:
    """Conserved excitation count per product index: photon number plus the populations
    of the upper levels of the coupled pairs (operators.LAYOUTS), n + S33 for lambda and
    n + S22 + S33 for vee, as each absorption promotes one atom to one of them."""
    upper = {i for i, _ in layout(scheme).pairs}
    table = index_map(spec)
    return table.photons + sum(table.occupations[:, i - 1] for i in upper)


def excitation_operator(spec: SpaceSpec, scheme: str) -> OperatorMatrix:
    """The diagonal operator of excitation_count, one block per state; no command builds it."""
    every = np.arange(spec.product_dim)
    return element_sum(PRODUCT, spec, [(every, every, excitation_count(spec, scheme))])
