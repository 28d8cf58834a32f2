import math

import numpy as np
import pytest

import dense_reference as dr
from trilevel.hilbert import SpaceSpec, index_map
from trilevel.hamiltonian import (
    LAMBDA,
    VEE,
    HamiltonianSpec,
    build_hamiltonian,
    excitation_count,
    rotation_parameters,
)
from trilevel.operators import PRODUCT, element_sum
from trilevel.dynamics import (
    InitialState,
    TimeGrid,
    TruncationError,
    coherent_amplitudes,
    evolve,
    prepare_initial,
    propagate,
    required_fock_cutoff,
    semiclassical_sweep,
)


def poisson_tail_oracle(alpha, n_max):
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 0.0
    total = sum(
        math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
        for k in range(n_max + 1)
    )
    return max(0.0, 1.0 - total)


def lambda_spec(g=0.1, eps=0.05):
    delta = g / eps
    return HamiltonianSpec(LAMBDA, (0.0, 0.0, 1.0 + delta), 1.0, g31=g, g32=g)


def vee_spec(g=0.1, eps=0.05):
    delta = g / eps
    return HamiltonianSpec(VEE, (0.0, 1.0 + delta, 1.0 + delta), 1.0, g31=g, g21=g)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)


def test_fock_initial_state_is_basis_vector():
    spec = SpaceSpec(1, 3)
    psi = prepare_initial(spec, InitialState((1, 0, 0), ("fock", 0)), lambda_spec())
    expected = np.zeros(spec.product_dim)
    expected[index_map(spec).flat((1, 0, 0), 0)] = 1.0
    assert np.max(np.abs(psi - expected)) == 0.0


def test_coherent_tail_matches_oracle():
    for alpha, n_max in [(2.0, 32), (1.0, 6), (0.5, 3)]:
        _, tail = coherent_amplitudes(alpha, n_max)
        assert tail == pytest.approx(poisson_tail_oracle(alpha, n_max), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.5, -2.0 + 0.5j, 3j, 26.5, 37.6 - 1.0j])
def test_coherent_amplitudes_keep_the_recurrence_from_zero(alpha):
    """Up to |alpha|^2 of about 1416, exp(-|alpha|^2 / 2) is a normal float and the
    amplitudes keep the bits of the recurrence started there."""
    expected = np.zeros(1601, dtype=np.complex128)
    expected[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, len(expected)):
        expected[n] = expected[n - 1] * alpha / math.sqrt(n)
    amps, _ = coherent_amplitudes(alpha, len(expected) - 1)
    assert np.array_equal(amps.view(np.uint64), expected.view(np.uint64))


def test_coherent_amplitudes_start_at_the_first_normal_one():
    """At |alpha|^2 = 1521 exp(-|alpha|^2 / 2) underflows to 0; the amplitudes below the
    normal range are 0, the rest keep the phase of alpha^n and the tail is below 1e-10."""
    amps, tail = coherent_amplitudes(39.0 * np.exp(0.3j), required_fock_cutoff(39.0) + 20)
    first = np.flatnonzero(amps)[0]
    assert abs(amps[first]) >= np.finfo(float).smallest_normal > abs(amps[first - 1])
    assert tail <= 1e-10
    n = np.arange(len(amps))
    assert abs(np.angle(amps[first]) - math.remainder(0.3 * first, 2 * math.pi)) <= 1e-9
    assert abs(np.abs(amps) ** 2 @ n - 1521.0) <= 1e-7


def test_coherent_state_accepted_with_wide_cutoff():
    spec = SpaceSpec(1, 32)
    psi = prepare_initial(spec, InitialState((1, 0, 0), ("coherent", 2.0)), lambda_spec())
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert poisson_tail_oracle(2.0, 32) < 1e-10
    # mean photon number close to |alpha|^2
    imap = index_map(spec)
    weights = np.abs(psi) ** 2
    photons = sum(weights[k] * imap.split(k)[1] for k in range(spec.product_dim))
    assert photons == pytest.approx(4.0, abs=1e-9)


def test_coherent_state_rejected_with_tight_cutoff():
    spec = SpaceSpec(1, 6)
    with pytest.raises(TruncationError) as err:
        prepare_initial(spec, InitialState((1, 0, 0), ("coherent", 2.0)), lambda_spec())
    assert err.value.required_n_max is not None
    assert err.value.required_n_max == required_fock_cutoff(2.0)
    assert poisson_tail_oracle(2.0, err.value.required_n_max) < 1e-10


def test_dark_initial_state_is_interaction_free():
    spec = SpaceSpec(2, 3)
    h = lambda_spec()
    psi = prepare_initial(spec, InitialState("dark", ("fock", 2)), h)
    assert np.linalg.norm(dr.interaction(spec, h) @ psi) <= 1e-12


def test_prepare_initial_validation():
    spec = SpaceSpec(1, 3)
    h = lambda_spec()
    with pytest.raises(ValueError):
        prepare_initial(spec, InitialState((2, 0, 0), ("fock", 0)), h)
    with pytest.raises(ValueError):
        prepare_initial(spec, InitialState((1, 0, 0), ("fock", 9)), h)
    with pytest.raises(ValueError):
        prepare_initial(spec, InitialState("ground", ("fock", 0)), h)
    with pytest.raises(ValueError):
        prepare_initial(spec, InitialState((1, 0, 0), ("squeezed", 1.0)), h)


def test_diagonal_hamiltonian_freezes_populations():
    spec = SpaceSpec(1, 2)
    h = HamiltonianSpec(LAMBDA, (0.0, 0.2, 1.0), 0.7)  # no couplings
    psi0 = prepare_initial(spec, InitialState((0, 1, 0), ("fock", 1)), lambda_spec())
    rec = evolve(build_hamiltonian(spec, h), psi0, TimeGrid(5.0, 50),
                 excitation_count(spec, LAMBDA))
    assert np.max(np.abs(rec.pop2 - 1.0)) <= 1e-12
    assert np.max(np.abs(rec.n_photon - 1.0)) <= 1e-12


def test_dark_trajectory_is_stationary():
    spec = SpaceSpec(2, 3)
    h = lambda_spec()
    psi0 = prepare_initial(spec, InitialState("dark", ("fock", 1)), h)
    rec = evolve(build_hamiltonian(spec, h), psi0, TimeGrid(50.0, 200),
                 excitation_count(spec, LAMBDA))
    for series in (rec.pop1, rec.pop2, rec.pop3, rec.n_photon, rec.energy):
        assert np.max(np.abs(series - series[0])) <= 1e-10


def test_two_level_rabi_oracle():
    # bright state on resonance: closed two-level formula pop3 = sin^2(g_eff sqrt(n) t)
    spec = SpaceSpec(1, 8)
    h = HamiltonianSpec(LAMBDA, (0.0, 0.0, 1.0), 1.0, g31=0.3, g32=0.4)
    n = 4
    psi0 = prepare_initial(spec, InitialState("bright", ("fock", n)), h)
    grid = TimeGrid(20.0, 801)
    rec = evolve(build_hamiltonian(spec, h), psi0, grid,
                 excitation_count(spec, LAMBDA))
    g_eff = rotation_parameters(h).effective_coupling
    oracle = np.sin(g_eff * math.sqrt(n) * rec.times) ** 2
    assert np.max(np.abs(rec.pop3 - oracle)) <= 1e-10


def test_conservation_and_time_reversal():
    spec = SpaceSpec(2, 6)
    h = vee_spec()
    psi0 = prepare_initial(spec, InitialState((0, 1, 1), ("fock", 2)), h)
    ham = build_hamiltonian(spec, h)
    grid = TimeGrid(200.0, 400)
    rec = evolve(ham, psi0, grid, excitation_count(spec, VEE))
    assert np.max(np.abs(rec.norm - 1.0)) <= 1e-10
    assert np.max(np.abs(rec.excitation - rec.excitation[0])) <= 1e-10
    assert np.max(np.abs(rec.energy - rec.energy[0])) <= 1e-10
    total = rec.pop1 + rec.pop2 + rec.pop3
    assert np.max(np.abs(total - spec.atoms)) <= 1e-10
    # forward then backward propagation returns the initial state
    times = np.array([0.0, grid.t_max])
    psi_t = propagate(ham, psi0, times)[:, 1]
    rows, cols, values = ham.elements()
    psi_back = propagate(element_sum(PRODUCT, spec, [(rows, cols, -values)]), psi_t, times)[:, 1]
    fidelity = abs(np.vdot(psi0, psi_back)) ** 2
    assert fidelity >= 1.0 - 1e-9


def test_evolve_rejects_non_hermitian():
    spec = SpaceSpec(1, 2)
    rows, cols, values = build_hamiltonian(spec, lambda_spec()).elements()
    bad = element_sum(PRODUCT, spec, [(rows, cols, 1j * values)])
    psi0 = prepare_initial(spec, InitialState((1, 0, 0), ("fock", 0)), lambda_spec())
    with pytest.raises(ValueError):
        evolve(bad, psi0, TimeGrid(1.0, 10), excitation_count(spec, LAMBDA))


def test_leakage_flags_boundary_population():
    spec = SpaceSpec(1, 2)
    h = lambda_spec()
    psi0 = prepare_initial(spec, InitialState((1, 0, 0), ("fock", spec.n_max)), h)
    rec = evolve(build_hamiltonian(spec, h), psi0, TimeGrid(5.0, 20),
                 excitation_count(spec, LAMBDA))
    assert not rec.truncation_safe
    safe = evolve(build_hamiltonian(spec, h),
                  prepare_initial(spec, InitialState((1, 0, 0), ("fock", 0)), h),
                  TimeGrid(5.0, 20), excitation_count(spec, LAMBDA))
    assert safe.truncation_safe


@pytest.mark.parametrize("field,n_bar", [(("fock", 3), 3.0), (("fock", 2 + 0j), 2.0),
                                         (("coherent", 0.6 + 0.8j), 1.0)])
def test_mean_photon_number_reads_the_field(field, n_bar):
    assert InitialState((1, 0, 0), field).mean_photon_number() == n_bar


@pytest.mark.parametrize("n_bar,error", [(-1.0, "n_bar must be >= 0"),
                                          (2e5, "too large for a sensible cutoff")])
def test_sweep_rejects_an_n_bar_outside_the_sized_range(n_bar, error):
    with pytest.raises(ValueError, match=error):
        semiclassical_sweep(1, [4.0, n_bar])


def test_sweep_quantum_endpoint():
    result = semiclassical_sweep(1, [0.0])
    row = result.rows[0]
    assert row.rel_difference is None
    assert row.factor_lambda == pytest.approx(0.0, abs=1e-12)
    assert row.factor_vee >= 1.0 - 1e-12
    assert result.slope is None


def test_sweep_factors_and_slope():
    n_bars = [4.0, 8.0, 16.0]
    result = semiclassical_sweep(1, n_bars)
    for row in result.rows:
        assert row.factor_lambda == pytest.approx(-row.n_bar, abs=1e-8)
        assert row.factor_vee == pytest.approx(row.n_bar + 1.0, abs=1e-8)
        assert row.rel_difference == pytest.approx(1.0 / row.n_bar, rel=1e-6)
    assert result.slope == pytest.approx(-1.0, abs=0.01)
    # couplings rescaled so g sqrt(n_bar) is constant
    consts = [row.coupling_scale * math.sqrt(row.n_bar) for row in result.rows]
    assert max(consts) - min(consts) <= 1e-12
