"""Dispersive-regime machinery: small rotations and effective Hamiltonians.

When every coupled transition is far detuned, conjugating the Hamiltonian
by the small unitaries exp[eps_ij (X_ij - X_ij^dag)], eps_ij = g_ij /
Delta_ij, removes the first-order atom-field exchange and leaves an
effective transfer between the degenerate levels.  The closed-form
leading-order transfer operators are

  lambda: eps31 g32 (S12 + S21)(S33 - n)      -- vanishes whenever the
          level-3 population equals the photon number;
  vee:    eps21 g31 (S32 + S23)(S11 + n + 1)  -- never vanishes on states
          with population in the (2, 3) pair.

Diagonal (Stark-shift) terms of the same order are never reconstructed
here; comparisons against the numeric conjugation are restricted to the
degenerate-transfer block, where the closed forms are complete at first
order in eps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import SpaceSpec, basis_table
from .operators import (
    PRODUCT,
    OperatorMatrix,
    conserved_product,
    dressed_term,
    element_sum,
    enhancement_factor,
    exp_antihermitian,
    guarded_states,
    layout,
    tensor_sum,
    unitary_exp,
)
from .hamiltonian import HamiltonianSpec, build_hamiltonian

DEFAULT_GUARD = 3


class ZeroDetuningError(ValueError):
    """A coupled pair sits exactly on resonance; no dispersive expansion."""


@dataclass(frozen=True)
class DispersiveParams:
    """Detunings, small parameters, and the regime-validity margin."""

    scheme: str
    n_bar: float
    detunings: dict[tuple[int, int], float]
    small_params: dict[tuple[int, int], float]
    validity_margin: float


def dispersive_params(h: HamiltonianSpec, n_bar: float, atoms: int) -> DispersiveParams:
    """Compute Delta_ij = E_i - E_j - omega and eps_ij = g_ij / Delta_ij.

    The validity margin is min over coupled pairs of
    |Delta_ij| / (A g_ij sqrt(n_bar + 1)); values well above 1 mark the
    dispersive regime.  Raises on a resonant pair or on |eps| >= 1.
    """
    if n_bar < 0:
        raise ValueError(f"mean photon number must be >= 0, got {n_bar}")
    detunings: dict[tuple[int, int], float] = {}
    small: dict[tuple[int, int], float] = {}
    margin = math.inf
    for (i, j) in h.coupled_pairs():
        delta = h.energies[i - 1] - h.energies[j - 1] - h.omega
        if delta == 0.0:
            raise ZeroDetuningError(f"pair ({i}, {j}) is resonant (zero detuning)")
        g = h.coupling(i, j)
        eps = g / delta
        if not abs(eps) < 1.0:
            raise ValueError(f"eps{i}{j} = {eps:.3g} is not a small parameter")
        detunings[(i, j)] = delta
        small[(i, j)] = eps
        if g > 0:
            margin = min(margin, abs(delta) / (atoms * g * math.sqrt(n_bar + 1.0)))
    return DispersiveParams(h.scheme, n_bar, detunings, small, margin)


def _generator(spec: SpaceSpec, i: int, j: int) -> OperatorMatrix:
    """X_ij - X_ij^dag, the anti-Hermitian generator of the (i, j) small rotation."""
    return tensor_sum(spec, [dressed_term(spec, i, j), dressed_term(spec, j, i, -1)])


def small_rotation(spec: SpaceSpec, i: int, j: int, eps: float) -> OperatorMatrix:
    """exp[eps (X_ij - X_ij^dag)], computed by Hermitian eigendecomposition."""
    return exp_antihermitian(_generator(spec, i, j), eps)


def _hermitian_generators(spec: SpaceSpec, scheme: str) -> dict:
    """i (X_ij - X_ij^dag) per rotation pair, (outer, inner) in application order
    (the layout's rotation_order in operators.LAYOUTS); each keeps its
    eigendecomposition (exp_hermitian), so rotations by several eps share one."""
    return {pair: 1j * _generator(spec, *pair) for pair in layout(scheme).rotation_order}


def _conjugated(spec: SpaceSpec, h: HamiltonianSpec, p: DispersiveParams,
                generators: dict) -> tuple[OperatorMatrix, OperatorMatrix]:
    """H and U_outer U_inner H U_inner^dag U_outer^dag, U = exp(-i eps G) for the
    ``generators`` G in their (outer, inner) order (see _hermitian_generators),
    which is normative for reproducibility: (3,1) is innermost for lambda, (2,1) for vee."""
    if p.scheme != h.scheme:
        raise ValueError(f"params are for scheme {p.scheme!r}, Hamiltonian is {h.scheme!r}")
    outer, inner = (unitary_exp(gen, p.small_params[pair])  # the bits of exp_antihermitian
                    for pair, gen in generators.items())
    ham = build_hamiltonian(spec, h)
    return ham, outer @ inner @ ham @ inner.dag() @ outer.dag()


def effective_transform(spec: SpaceSpec, h: HamiltonianSpec,
                        p: DispersiveParams) -> OperatorMatrix:
    """Numerically conjugated Hamiltonian (see _conjugated for the order)."""
    return _conjugated(spec, h, p, _hermitian_generators(spec, h.scheme))[1]


@dataclass(frozen=True)
class EffectiveModel:
    """Closed-form leading-order transfer term, prefactor kept separate."""

    scheme: str
    transfer_operator: OperatorMatrix
    prefactor: float

    def matrix(self) -> OperatorMatrix:
        return self.prefactor * self.transfer_operator


def transfer_prefactor(h: HamiltonianSpec, p: DispersiveParams) -> float:
    """eps_inner g_outer of the rotation order (operators.LAYOUTS): eps31 g32
    (lambda) or eps21 g31 (vee), the prefactor of the closed form."""
    if p.scheme != h.scheme:
        raise ValueError(f"params are for scheme {p.scheme!r}, Hamiltonian is {h.scheme!r}")
    outer, inner = layout(h.scheme).rotation_order
    return p.small_params[inner] * h.coupling(*outer)


def analytic_effective(spec: SpaceSpec, h: HamiltonianSpec,
                       p: DispersiveParams) -> EffectiveModel:
    """Closed-form transfer operator on the product space, with a prefactor: f (S_ab + S_ba)
    for the degenerate pair (a, b) and the enhancement factor f, which the swap conserves, each
    direction written by operators.conserved_product; Hermitian by construction."""
    prefactor = transfer_prefactor(h, p)
    la, lb = h.degenerate_pair
    f = functools.partial(enhancement_factor, h.scheme)
    op = element_sum(PRODUCT, spec, [conserved_product(spec, a, b, f)
                                     for a, b in ((la, lb), (lb, la))])
    if not op.is_hermitian():
        raise RuntimeError("analytic transfer operator is not Hermitian")
    return EffectiveModel(h.scheme, op, prefactor)


def _transfer_block(spec: SpaceSpec, scheme: str, guard: int):
    """Predicate (rows, cols) -> bool of the matrix elements moving one excitation
    within the degenerate pair at equal photon number, inside the guarded subspace;
    the shared level of the coupled pairs spectates (operators.LAYOUTS)."""
    inside = guarded_states(spec, guard)
    table = basis_table(spec)
    lay = layout(scheme)
    moved = table.occupations[:, lay.degenerate[0] - 1]
    spectator = table.occupations[:, lay.shared - 1]
    n = table.photons
    return lambda r, c: (inside[r] & inside[c] & (n[r] == n[c])
                         & (spectator[r] == spectator[c]) & (np.abs(moved[r] - moved[c]) == 1))


def transfer_block_mask(spec: SpaceSpec, scheme: str, guard: int) -> np.ndarray:
    """The transfer block as a dense (dim, dim) boolean mask."""
    every = np.arange(spec.product_dim)
    return _transfer_block(spec, scheme, guard)(every[:, None], every[None, :])


def _residual(spec: SpaceSpec, h: HamiltonianSpec, p: DispersiveParams, block,
              transfer: OperatorMatrix, generators: dict) -> tuple[OperatorMatrix, float]:
    """H and the largest difference of its conjugation from the closed form on ``block``."""
    ham, conjugated = _conjugated(spec, h, p, generators)
    return ham, (conjugated - transfer_prefactor(h, p) * transfer).max_abs(block)


def block_residual(spec: SpaceSpec, h: HamiltonianSpec, p: DispersiveParams,
                   guard: int) -> float:
    """Max difference between the numeric conjugation and the closed form,
    restricted to the guarded degenerate-transfer block."""
    transfer = analytic_effective(spec, h, p).transfer_operator
    return _residual(spec, h, p, _transfer_block(spec, h.scheme, guard), transfer,
                     _hermitian_generators(spec, h.scheme))[1]


def compare(spec: SpaceSpec, h: HamiltonianSpec, p: DispersiveParams,
            guard: int = DEFAULT_GUARD) -> tuple[OperatorMatrix, EffectiveModel, float, float]:
    """H, the closed-form model, their transfer-block residual and its order
    log2(residual(eps) / residual(eps/2)): the closed form is the first-order
    off-diagonal term, so the order should be about 2.  The block and model
    serve both detunings, and each rotation generator is built and diagonalized
    once for both; the eps/2 probe's own H and rotations are released before the
    returned H is built."""
    if guard < 2:
        raise ValueError(f"guard must be >= 2 for dispersive comparisons, got {guard}")
    if any(abs(e) > 0.1 for e in p.small_params.values()):
        raise ValueError("order probe expects |eps| <= 0.1")
    # omega -> omega - Delta doubles both detunings, halving every eps if they are equal
    deltas = list(p.detunings.values())
    if abs(deltas[0] - deltas[1]) > 1e-9 * max(1.0, abs(deltas[0])):
        raise ValueError("order probe requires equal detunings on the two coupled pairs; "
                         f"got {deltas[0]:.6g} and {deltas[1]:.6g}")
    model = analytic_effective(spec, h, p)
    h_half = replace(h, omega=h.omega - deltas[0])
    p_half = dispersive_params(h_half, p.n_bar, spec.atoms)
    block = _transfer_block(spec, h.scheme, guard)
    generators = _hermitian_generators(spec, h.scheme)
    r2 = _residual(spec, h_half, p_half, block, model.transfer_operator, generators)[1]
    ham, r1 = _residual(spec, h, p, block, model.transfer_operator, generators)
    return ham, model, r1, math.inf if r1 < 1e-14 or r2 < 1e-14 else math.log2(r1 / r2)


def residual_and_order(spec: SpaceSpec, h: HamiltonianSpec, p: DispersiveParams,
                       guard: int = DEFAULT_GUARD) -> tuple[float, float]:
    """Transfer-block residual plus its convergence order (see compare)."""
    return compare(spec, h, p, guard)[2:]
