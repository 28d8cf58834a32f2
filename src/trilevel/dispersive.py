"""Dispersive-regime machinery: small rotations and the effective Hamiltonian.

When every coupled transition is far detuned, conjugating the Hamiltonian
by the small unitaries exp[eps_ij (X_ij - X_ij^dag)], eps_ij = g_ij /
Delta_ij, removes the first-order atom-field exchange and leaves an
effective transfer between the degenerate levels.  Every such quantity is a
function of the HamiltonianSpec alone: small_params is the one place eps is
computed, and each function here reads it from the spec it is given.  The closed-form
leading-order transfer terms are

  lambda: eps31 g32 (S12 + S21)(S33 - n)      -- vanishes whenever the
          level-3 population equals the photon number;
  vee:    eps21 g31 (S32 + S23)(S11 + n + 1)  -- never vanishes on states
          with population in the (2, 3) pair.

analytic_effective writes them once, with the free Hamiltonian: the one operator
that ``compare`` probes and ``trilevel dispersive-compare`` evolves.  Diagonal
(Stark-shift) terms of the same order are never reconstructed; comparisons against
the numeric conjugation are restricted to the degenerate-transfer block, which holds
no diagonal element and where the closed forms are complete at first order in eps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from .hilbert import SpaceSpec, index_map
from .operators import (
    PRODUCT,
    OperatorMatrix,
    conjugation_residual,
    conserved_product,
    dressed_term,
    element_sum,
    enhancement_factor,
    guarded_states,
    layout,
    tensor_sum,
    term_elements,
    unitary_exp,
)
from .hamiltonian import HamiltonianSpec, _free_terms, build_hamiltonian, excitation_count

DEFAULT_GUARD = 3


class ZeroDetuningError(ValueError):
    """A coupled pair sits exactly on resonance; no dispersive expansion."""


def _detuning(h: HamiltonianSpec, i: int, j: int) -> float:
    """Delta_ij = E_i - E_j - omega."""
    return h.energies[i - 1] - h.energies[j - 1] - h.omega


def small_params(h: HamiltonianSpec) -> dict[tuple[int, int], float]:
    """eps_ij = g_ij / Delta_ij per coupled pair; raises on a resonant pair or on |eps| >= 1."""
    small: dict[tuple[int, int], float] = {}
    for (i, j) in h.coupled_pairs():
        delta = _detuning(h, i, j)
        if delta == 0.0:
            raise ZeroDetuningError(f"pair ({i}, {j}) is resonant (zero detuning)")
        eps = h.coupling(i, j) / delta
        if not abs(eps) < 1.0:
            raise ValueError(f"eps{i}{j} = {eps:.3g} is not a small parameter")
        small[(i, j)] = eps
    return small


def validity_margin(h: HamiltonianSpec, n_bar: float, atoms: int) -> float:
    """min over coupled pairs with g_ij > 0 of |Delta_ij| / (A g_ij sqrt(n_bar + 1)), inf if
    none; values well above 1 mark the dispersive regime.  Raises on n_bar < 0."""
    if n_bar < 0:
        raise ValueError(f"mean photon number must be >= 0, got {n_bar}")
    return min((abs(_detuning(h, i, j)) / (atoms * h.coupling(i, j) * math.sqrt(n_bar + 1.0))
                for (i, j) in h.coupled_pairs() if h.coupling(i, j) > 0), default=math.inf)


def _generator(spec: SpaceSpec, i: int, j: int) -> OperatorMatrix:
    """i (X_ij - X_ij^dag), the Hermitian generator of the (i, j) small rotation."""
    return tensor_sum(spec, [dressed_term(spec, i, j, 1j), dressed_term(spec, j, i, -1j)])


def small_rotation(spec: SpaceSpec, i: int, j: int, eps: float) -> OperatorMatrix:
    """exp[eps (X_ij - X_ij^dag)], computed by Hermitian eigendecomposition."""
    return unitary_exp(_generator(spec, i, j), eps)


def _generators(spec: SpaceSpec, scheme: str) -> dict:
    """_generator per pair of the layout's rotation_order (operators.LAYOUTS), (outer,
    inner); each keeps its eigendecomposition, so unitary_exp by several eps shares one."""
    return {pair: _generator(spec, *pair) for pair in layout(scheme).rotation_order}


def _rotations(h: HamiltonianSpec, generators: dict) -> list:
    """[U_outer, U_inner], U = exp(-i eps G) for the ``generators`` G in their (outer, inner)
    order (_generators), normative for reproducibility: (3,1) innermost for lambda, (2,1) vee."""
    eps = small_params(h)
    return [unitary_exp(gen, eps[pair]) for pair, gen in generators.items()]


def effective_transform(spec: SpaceSpec, h: HamiltonianSpec) -> OperatorMatrix:
    """U_outer U_inner H U_inner^dag U_outer^dag (_rotations), one dense block, for the tests."""
    outer, inner = _rotations(h, _generators(spec, h.scheme))
    return outer @ inner @ build_hamiltonian(spec, h) @ inner.dag() @ outer.dag()


def transfer_prefactor(h: HamiltonianSpec) -> float:
    """eps_inner g_outer of the rotation order (operators.LAYOUTS): eps31 g32
    (lambda) or eps21 g31 (vee), the prefactor of the closed form."""
    outer, inner = layout(h.scheme).rotation_order
    return small_params(h)[inner] * h.coupling(*outer)


def analytic_effective(spec: SpaceSpec, h: HamiltonianSpec) -> OperatorMatrix:
    """The closed-form effective Hamiltonian: the free terms, then transfer_prefactor times
    f (S_ab + S_ba), by one element_sum; the degenerate pair's swap times the enhancement
    factor f it conserves, by conserved_product."""
    la, lb = h.degenerate_pair
    f = functools.partial(enhancement_factor, h.scheme)
    prefactor = complex(transfer_prefactor(h))
    free = [term_elements(spec, term) for term in _free_terms(spec, h)]
    op = element_sum(PRODUCT, spec, free + [
        (rows, cols, values * prefactor) for rows, cols, values in
        (conserved_product(spec, a, b, f) for a, b in ((la, lb), (lb, la)))])
    if not op.is_hermitian():
        raise RuntimeError("analytic effective Hamiltonian is not Hermitian")
    return op


def _transfer_block(spec: SpaceSpec, scheme: str, guard: int):
    """Predicate (rows, cols) -> bool of the matrix elements moving one excitation
    within the degenerate pair at equal photon number, inside the guarded subspace;
    the shared level of the coupled pairs spectates (operators.LAYOUTS)."""
    inside = guarded_states(spec, guard)
    table = index_map(spec)
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


def _residual(spec: SpaceSpec, h: HamiltonianSpec, block,
              generators: dict) -> tuple[OperatorMatrix, OperatorMatrix, float]:
    """H, the analytic_effective H_eff and the largest |U H U^dag - H_eff| on ``block``, U the
    small rotations; the free part of H_eff is diagonal, off the block's pairs."""
    ham, effective = build_hamiltonian(spec, h), analytic_effective(spec, h)
    return ham, effective, conjugation_residual(ham, _rotations(h, generators), effective,
                                                excitation_count(spec, h.scheme), block)


def compare(spec: SpaceSpec, h: HamiltonianSpec,
            guard: int = DEFAULT_GUARD) -> tuple[OperatorMatrix, OperatorMatrix, float, float]:
    """H, the closed-form effective Hamiltonian (analytic_effective), their transfer-block
    residual and its order log2(residual(eps) / residual(eps/2)), 2 or more (measured 2.98
    to 4.27 at A <= 8), as the closed form is the whole first-order off-diagonal term.  The
    eps/2 probe is ``h`` with omega lowered by the common detuning, which doubles both
    detunings; every eps is read from the spec (small_params), so the probe cannot disagree
    with ``h``.  The block serves both detunings, and each rotation generator is built and
    diagonalized once for both; the eps/2 probe's own H, H_eff and rotations are released
    before the returned ones are built."""
    eps = small_params(h)
    if guard < 2:
        raise ValueError(f"guard must be >= 2 for dispersive comparisons, got {guard}")
    if any(abs(e) > 0.1 for e in eps.values()):
        raise ValueError("order probe expects |eps| <= 0.1")
    deltas = [_detuning(h, i, j) for i, j in h.coupled_pairs()]
    if abs(deltas[0] - deltas[1]) > 1e-9 * max(1.0, abs(deltas[0])):
        raise ValueError("order probe requires equal detunings on the two coupled pairs; "
                         f"got {deltas[0]:.6g} and {deltas[1]:.6g}")
    h_half = replace(h, omega=h.omega - deltas[0])
    block = _transfer_block(spec, h.scheme, guard)
    generators = _generators(spec, h.scheme)
    r2 = _residual(spec, h_half, block, generators)[2]
    ham, effective, r1 = _residual(spec, h, block, generators)
    return ham, effective, r1, math.inf if r1 < 1e-14 or r2 < 1e-14 else math.log2(r1 / r2)


def residual_and_order(spec: SpaceSpec, h: HamiltonianSpec,
                       guard: int = DEFAULT_GUARD) -> tuple[float, float]:
    """Transfer-block residual plus its convergence order (see compare)."""
    return compare(spec, h, guard)[2:]
