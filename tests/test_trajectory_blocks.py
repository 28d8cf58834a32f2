"""Trajectories kept on the blocks of their initial state, against dense formulas.

``evolve`` holds psi(t) only on the Hamiltonian blocks psi0 occupies.  Every
series of its record must equal the dense formula evaluated on the full
(dim, T) states of ``propagate``; starts that occupy several blocks (a
random vector, a coherent field, the dark mode) are drawn beside basis
states, and the dense states are checked against a dense eigendecomposition.
The dense formulas live here, not in the package.  A Fock start
must never make ``evolve`` hold one dense (dim, T) state matrix.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trilevel.dynamics as dynamics
from trilevel.dynamics import (
    InitialState,
    TimeGrid,
    evolve,
    prepare_initial,
    propagate,
    required_fock_cutoff,
)
from trilevel.hamiltonian import (
    LAMBDA,
    VEE,
    HamiltonianSpec,
    build_hamiltonian,
    excitation_operator,
)
from trilevel.hilbert import SpaceSpec, basis_table
from trilevel.operators import field_operator, lift

TOL = 1e-12


def dense_record(ham, excitation, psi0, times) -> dict:
    """Every record series from the full (dim, T) states."""
    states = propagate(ham, psi0, times)
    w, v = np.linalg.eigh(ham.mat)
    expected = v @ (np.exp(-1j * np.outer(w, times)) * (v.conj().T @ psi0)[:, None])
    assert np.max(np.abs(states - expected)) <= TOL * max(1.0, times[-1] * ham.max_abs())
    weights = np.abs(states) ** 2
    table = basis_table(ham.spec)
    occ, photons = table.occupations.astype(float), table.photons.astype(float)

    def expect(mat):
        return np.real(np.sum(states.conj() * (mat @ states), axis=0))

    return {
        "pop1": occ[:, 0] @ weights,
        "pop2": occ[:, 1] @ weights,
        "pop3": occ[:, 2] @ weights,
        "n_photon": photons @ weights,
        "norm": np.sqrt(np.sum(weights, axis=0)),
        "excitation": expect(excitation.mat),
        "energy": expect(ham.mat),
        "leakage": (table.photons == ham.spec.n_max).astype(float) @ weights,
    }


@st.composite
def trajectories(draw):
    """A model of either layout (A <= 4) and one start of each kind."""
    scheme = draw(st.sampled_from([LAMBDA, VEE]))
    spec = SpaceSpec(draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    low, gap = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 3.0))
    energies = (low, low, low + gap) if scheme == LAMBDA else (low, low + gap, low + gap)
    coupling = st.floats(0.01, 0.5)
    h = HamiltonianSpec(scheme, energies, draw(st.floats(0.5, 2.0)), g31=draw(coupling),
                        g32=draw(coupling), g21=draw(coupling))
    kind = draw(st.sampled_from(["basis", "random", "coherent", "dark"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "basis":
        psi0 = np.zeros(spec.product_dim, dtype=np.complex128)
        psi0[rng.integers(spec.product_dim)] = 1.0
    elif kind == "random":
        psi0 = rng.normal(size=spec.product_dim) + 1j * rng.normal(size=spec.product_dim)
        psi0 /= np.linalg.norm(psi0)
    else:
        # an imaginary alpha gives exactly imaginary odd-photon amplitudes
        alpha = draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([1, 1j, np.exp(0.7j)]))
        assume(required_fock_cutoff(alpha) <= spec.n_max)
        atomic = "dark" if kind == "dark" else (0, 0, spec.atoms)
        psi0 = prepare_initial(spec, InitialState(atomic, ("coherent", alpha)), h)
    grid = TimeGrid(draw(st.floats(1.0, 50.0)), draw(st.integers(2, 30)))
    return spec, h, psi0, grid


@settings(max_examples=60, deadline=None)
@given(trajectories())
def test_record_matches_dense_formulas(model):
    spec, h, psi0, grid = model
    ham, excitation = build_hamiltonian(spec, h), excitation_operator(spec, h.scheme)
    record = evolve(ham, psi0, grid, excitation)
    dense = dense_record(ham, excitation, psi0, grid.times)
    size = max(1.0, ham.max_abs(), spec.atoms + spec.n_max)
    for name, series in dense.items():
        assert np.max(np.abs(getattr(record, name) - series)) <= TOL * size, name
    assert record.truncation_safe == bool(np.max(dense["leakage"]) <= 1e-6)

    # a field quadrature couples the occupied blocks to unoccupied ones
    a = lift(spec, field_operator(spec, "annihilate"))
    quadrature = a + a.dag()
    dense_quadrature = dense_record(ham, quadrature, psi0, grid.times)["excitation"]
    series = evolve(ham, psi0, grid, quadrature).excitation
    assert np.max(np.abs(series - dense_quadrature)) <= TOL * size


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_zero_state_gives_the_zero_record(scheme):
    spec = SpaceSpec(2, 3)
    h = HamiltonianSpec(scheme, (0.0, 0.0, 3.0) if scheme == LAMBDA else (0.0, 3.0, 3.0),
                        1.0, g31=0.1, g32=0.1, g21=0.1)
    ham, psi0 = build_hamiltonian(spec, h), np.zeros(spec.product_dim, dtype=np.complex128)
    grid = TimeGrid(10.0, 7)
    record = evolve(ham, psi0, grid, excitation_operator(spec, scheme))
    for name in ("pop1", "pop2", "pop3", "n_photon", "norm", "excitation", "energy",
                 "leakage"):
        assert np.array_equal(getattr(record, name), np.zeros(7)), name
    assert record.truncation_safe
    assert np.array_equal(propagate(ham, psi0, grid.times),
                          np.zeros((spec.product_dim, 7), dtype=np.complex128))


@pytest.mark.parametrize("scheme, atomic", [(VEE, (0, 0, 6)), (LAMBDA, (6, 0, 0))])
def test_fock_start_holds_no_dense_state_matrix(scheme, atomic, monkeypatch):
    spec = SpaceSpec(6, 12)
    h = HamiltonianSpec(scheme, (0.0, 0.0, 3.0) if scheme == LAMBDA else (0.0, 3.0, 3.0),
                        1.0, g31=0.1, g32=0.1, g21=0.1)
    ham, excitation = build_hamiltonian(spec, h), excitation_operator(spec, scheme)
    psi0 = prepare_initial(spec, InitialState(atomic, ("fock", 0)), h)
    grid = TimeGrid(1000.0, 2001)

    def refuse(*args):
        raise AssertionError("evolve called propagate")

    calls, hermitian_blocks = [], dynamics.hermitian_blocks

    def counted(*args, **kwargs):
        calls.append(1)
        return hermitian_blocks(*args, **kwargs)

    monkeypatch.setattr(dynamics, "propagate", refuse)
    monkeypatch.setattr(dynamics, "hermitian_blocks", counted)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        record = evolve(ham, psi0, grid, excitation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [1]  # one eigendecomposition pass per evolve
    assert peak < 16 * spec.product_dim * grid.n_samples  # one complex (dim, T) matrix
    assert math.isclose(record.norm[-1], 1.0, abs_tol=1e-10)
