"""Trajectories kept on the blocks of their initial state, against dense formulas.

``evolve`` holds psi(t) only on the Hamiltonian blocks psi0 occupies.  Every
series of its record must equal the dense formula evaluated on the full
(dim, T) states of ``propagate``; starts that occupy several blocks (a
random vector, a coherent field, the dark mode) are drawn beside basis
states, and the dense states are checked against the propagator of
``dense_reference``.  The dense formulas live here, not in the package.  A Fock start
must never make ``evolve`` hold one dense (dim, T) state matrix, and time
chunks of any length must give the one-chunk trajectory; ``evolve`` and the
Hermiticity check must stay within their chunk budgets.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference as dr
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
    excitation_count,
)
from trilevel.hilbert import SpaceSpec, index_map
from trilevel.operators import CHUNK_ENTRIES, OperatorMatrix

TOL = 1e-12


def dense_record(ham, excitation, psi0, times) -> dict:
    """Every record series from the full (dim, T) states, ``excitation`` a dense matrix."""
    states = propagate(ham, psi0, times)
    expected = dr.propagate(ham.mat, psi0, times)
    size = max(1.0, times[-1] * float(np.max(np.abs(ham.mat))))
    assert np.max(np.abs(states - expected)) <= TOL * size
    weights = np.abs(states) ** 2
    table = index_map(ham.spec)
    occ, photons = table.occupations.astype(float), table.photons.astype(float)

    def expect(mat):
        return np.real(np.sum(states.conj() * (mat @ states), axis=0))

    return {
        "pop1": occ[:, 0] @ weights,
        "pop2": occ[:, 1] @ weights,
        "pop3": occ[:, 2] @ weights,
        "n_photon": photons @ weights,
        "norm": np.sqrt(np.sum(weights, axis=0)),
        "excitation": expect(excitation),
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
    """The excitation series, read from the labels, against the dense <psi| N |psi>."""
    spec, h, psi0, grid = model
    ham = build_hamiltonian(spec, h)
    record = evolve(ham, psi0, grid, excitation_count(spec, h.scheme))
    dense = dense_record(ham, dr.excitation(spec, h.scheme), psi0, grid.times)
    size = max(1.0, float(np.max(np.abs(ham.mat))), spec.atoms + spec.n_max)
    for name, series in dense.items():
        assert np.max(np.abs(getattr(record, name) - series)) <= TOL * size, name
    assert record.truncation_safe == bool(np.max(dense["leakage"]) <= 1e-6)


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_zero_state_gives_the_zero_record(scheme):
    spec = SpaceSpec(2, 3)
    h = HamiltonianSpec(scheme, (0.0, 0.0, 3.0) if scheme == LAMBDA else (0.0, 3.0, 3.0),
                        1.0, g31=0.1, g32=0.1, g21=0.1)
    ham, psi0 = build_hamiltonian(spec, h), np.zeros(spec.product_dim, dtype=np.complex128)
    grid = TimeGrid(10.0, 7)
    record = evolve(ham, psi0, grid, excitation_count(spec, scheme))
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
    ham, excitation = build_hamiltonian(spec, h), excitation_count(spec, scheme)
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


def occupied_rows(ham, psi0) -> int:
    """Rows of the Hamiltonian blocks psi0 occupies."""
    labels = ham._layout.labels
    return int(np.isin(labels, labels[psi0 != 0]).sum())


def chunked(ham, psi0, grid, count, samples):
    """evolve and propagate with CHUNK_ENTRIES set for ``samples`` per time chunk."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(dynamics, "CHUNK_ENTRIES", samples * max(1, occupied_rows(ham, psi0)))
        return evolve(ham, psi0, grid, count), propagate(ham, psi0, grid.times)


SERIES = ("pop1", "pop2", "pop3", "n_photon", "norm", "excitation", "energy", "leakage")


@settings(max_examples=80, deadline=None)
@given(trajectories(), st.booleans(), st.sampled_from([1, 7, 8]))
def test_time_chunks_do_not_change_the_trajectory(model, zero, samples):
    """Chunks of 1, 7 or 8 samples against one chunk of >= T samples, to 1e-13 of
    the scale: a BLAS product takes another kernel for a single column, for the
    columns left over from its groups of 2, 4 or 8, and for some small sizes, so
    the last bits may move (the bitwise case is the next test)."""
    spec, h, psi0, grid = model
    if zero:
        psi0 = np.zeros_like(psi0)
    ham, count = build_hamiltonian(spec, h), excitation_count(spec, h.scheme)
    record, states = chunked(ham, psi0, grid, count, samples)
    whole_record, whole_states = chunked(ham, psi0, grid, count, 8 * grid.n_samples)
    size = max(1.0, float(np.max(np.abs(ham.mat))), spec.atoms + spec.n_max)
    for name in SERIES:
        assert np.max(np.abs(getattr(record, name) - getattr(whole_record, name))) \
            <= 1e-13 * size, name
    assert np.max(np.abs(states - whole_states)) <= 1e-13
    assert record.truncation_safe == whole_record.truncation_safe
    if zero:
        assert all(np.array_equal(getattr(record, name), np.zeros(grid.n_samples))
                   for name in SERIES)


@pytest.mark.parametrize("scheme, energies, atomic, photons", [
    (VEE, (0.0, 3.0, 3.0), (0, 0, 8), 0),
    (VEE, (0.0, 3.0, 3.0), (0, 2, 6), 7),
    (LAMBDA, (0.0, 0.0, 3.0), (1, 5, 2), 4),
])
def test_aligned_chunks_give_the_one_chunk_bits(scheme, energies, atomic, photons):
    """Fock starts at A=8, n_max=16 over 2001 samples: budgets for 8, 96 and the
    default number of samples (which the kernel rounds down to a multiple of 8,
    joining a one-sample tail) give the one-chunk record and states bit for bit."""
    spec = SpaceSpec(8, 16)
    h = HamiltonianSpec(scheme, energies, 1.0, g31=0.1, g32=0.07, g21=0.13)
    ham, count = build_hamiltonian(spec, h), excitation_count(spec, scheme)
    psi0 = prepare_initial(spec, InitialState(atomic, ("fock", photons)), h)
    grid = TimeGrid(1000.0, 2001)
    whole_record, whole_states = chunked(ham, psi0, grid, count, 8 * grid.n_samples)
    default = CHUNK_ENTRIES // occupied_rows(ham, psi0)
    assert 8 < default < grid.n_samples  # the default walks several chunks
    for samples in (8, 96, default):
        record, states = chunked(ham, psi0, grid, count, samples)
        for name in SERIES:
            assert np.array_equal(getattr(record, name), getattr(whole_record, name)), name
        assert np.array_equal(states, whole_states)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


VEE_H = HamiltonianSpec(VEE, (0.0, 3.0, 3.0), 1.0, g31=0.1, g21=0.1)


def test_evolve_memory_grows_only_with_the_record():
    """Ten times the samples cost the record's nine float series and no more than
    a small slack: no (rows, T) array."""
    spec = SpaceSpec(8, 16)
    ham, excitation = build_hamiltonian(spec, VEE_H), excitation_count(spec, VEE)
    psi0 = prepare_initial(spec, InitialState((0, 0, 8), ("fock", 0)), VEE_H)
    short, long = (traced_peak(lambda: evolve(ham, psi0, TimeGrid(1000.0, n), excitation))
                   for n in (2001, 20001))
    record_growth = 9 * 8 * (20001 - 2001)
    assert long - short <= record_growth + 64 * 1024


def test_hermiticity_check_peaks_below_one_size_group():
    spec = SpaceSpec(12, 20)
    ham = build_hamiltonian(spec, VEE_H)
    largest = max(m * b * b * 16 for m, b in (idx.shape for idx in ham._layout.groups))
    assert largest > 16 * 2 * CHUNK_ENTRIES  # the gate can tell the two apart
    unchecked = OperatorMatrix(ham.space, ham.spec, ham._data, ham._layout)  # H's is kept
    assert traced_peak(lambda: unchecked.is_hermitian()) < largest
