"""The spectrum on the bright/dark ladders against H itself.

With the paired energies exactly equal, ``hamiltonian.spectrum`` diagonalizes H in
the frame of the mode rotation, ``reduced_hamiltonian``: the bright mode carries the
root-sum-square coupling on the first coupled pair, the dark mode (occupation slot
2) none, and the blocks are ladders of at most A + 1 states.  Its eigenvalues must
match the dense H of ``dense_reference``; the rotation must map H onto the reduced
H; and every other Hamiltonian, one ulp off degenerate or uncoupled, takes the
direct path bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_reference as dr
from trilevel.hamiltonian import (
    LAMBDA,
    VEE,
    HamiltonianSpec,
    build_hamiltonian,
    ladder_storage_bytes,
    mode_rotation_unitary,
    reduced_hamiltonian,
    spectrum,
)
from trilevel.hilbert import SpaceSpec
from trilevel.operators import LAYOUTS, eigenvalues

TOL = 1e-12


PAIRED = {LAMBDA: lambda low, high: (low, low, high), VEE: lambda low, high: (low, high, high)}


def degenerate(scheme: str, low: float, high: float, omega: float, ga: float,
               gb: float) -> HamiltonianSpec:
    """A spec whose paired levels share one energy exactly, couplings in pair order."""
    (i, j), (k, l) = LAYOUTS[scheme].pairs
    return HamiltonianSpec(scheme, PAIRED[scheme](low, high), omega,
                           **{f"g{i}{j}": ga, f"g{k}{l}": gb})


coupling = st.floats(0.0, 0.5)


@st.composite
def degenerate_models(draw):
    scheme = draw(st.sampled_from([LAMBDA, VEE]))
    spec = SpaceSpec(draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    low, high = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2)))
    h = degenerate(scheme, low, high, draw(st.floats(0.5, 2.0)), draw(coupling), draw(coupling))
    return spec, h


@given(degenerate_models())
def test_reduced_spectrum_matches_the_dense_hamiltonian(model):
    spec, h = model
    dense = np.linalg.eigvalsh(dr.hamiltonian(spec, h))
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(spectrum(spec, h) - dense)) <= TOL * scale


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_mode_rotation_maps_h_onto_the_reduced_hamiltonian(scheme, atoms):
    """U H U^dag = H_red: the bright mode on the first pair, the dark one on slot 2."""
    spec, h = SpaceSpec(atoms, 4), degenerate(scheme, 0.0, 3.0, 1.0, 0.1, 0.13)
    u = dr.lift_atomic(spec, mode_rotation_unitary(spec, h).mat)  # U_a (x) 1
    rotated = u @ build_hamiltonian(spec, h).mat @ u.conj().T
    assert np.max(np.abs(rotated - build_hamiltonian(spec, reduced_hamiltonian(h)).mat)) <= TOL


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_one_ulp_split_takes_the_direct_path(scheme):
    spec = SpaceSpec(3, 4)
    h = degenerate(scheme, 0.0, 3.0, 1.0, 0.1, 0.13)
    _, b = LAYOUTS[scheme].degenerate
    energies = list(h.energies)
    energies[b - 1] = float(np.nextafter(energies[b - 1], np.inf))
    split = HamiltonianSpec(scheme, tuple(energies), h.omega, g31=h.g31, g32=h.g32, g21=h.g21)
    assert reduced_hamiltonian(split) is None
    direct = eigenvalues(build_hamiltonian(spec, split))
    assert np.array_equal(spectrum(spec, split).view(np.uint64), direct.view(np.uint64))


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_uncoupled_hamiltonian_takes_the_direct_path(scheme):
    spec, h = SpaceSpec(2, 3), degenerate(scheme, 0.0, 3.0, 1.0, 0.0, 0.0)
    assert reduced_hamiltonian(h) is None
    values = spectrum(spec, h)
    assert np.array_equal(values, eigenvalues(build_hamiltonian(spec, h)))
    assert np.max(np.abs(values - np.sort(np.diag(dr.hamiltonian(spec, h)).real))) <= TOL


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
@pytest.mark.parametrize("atoms,n_max", [(8, 16), (30, 40)])
def test_spectrum_diagonalizes_blocks_of_at_most_a_plus_one_states(scheme, atoms, n_max,
                                                                  monkeypatch):
    spec, h = SpaceSpec(atoms, n_max), degenerate(scheme, 0.0, 3.0, 1.0, 0.1, 0.13)
    shapes = []
    real_eigh = np.linalg.eigh

    def eigh(stack):
        shapes.append(stack.shape)
        return real_eigh(stack)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert len(spectrum(spec, h)) == spec.product_dim
    assert max(b for *_, b in shapes) == atoms + 1
    assert sum(m * b * b for m, b, _ in shapes) * 16 <= ladder_storage_bytes(spec)
