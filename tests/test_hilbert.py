import pytest
from hypothesis import given, strategies as st

from trilevel.dynamics import InitialState, prepare_initial
from trilevel.hamiltonian import VEE, HamiltonianSpec
from trilevel.hilbert import SpaceSpec, enumerate_atomic_basis, index_map


def cube_scan_triples(atoms):
    # oracle: scan the full occupation cube instead of generating directly
    return {
        (n1, n2, n3)
        for n1 in range(atoms + 1)
        for n2 in range(atoms + 1)
        for n3 in range(atoms + 1)
        if n1 + n2 + n3 == atoms
    }


def test_single_atom_is_bare_levels():
    assert enumerate_atomic_basis(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_two_atoms_has_six_states():
    assert len(enumerate_atomic_basis(2)) == 6


def test_four_atoms_exhaustive():
    states = enumerate_atomic_basis(4)
    assert len(states) == 15
    assert all(sum(s) == 4 for s in states)
    assert set(states) == cube_scan_triples(4)
    assert len(set(states)) == len(states)


def test_ordering_is_descending_lexicographic_and_deterministic():
    states = enumerate_atomic_basis(3)
    assert states == sorted(states, reverse=True)
    assert states == enumerate_atomic_basis(3)


@pytest.mark.parametrize("atoms", range(1, 11))
def test_dimension_formula(atoms):
    assert len(enumerate_atomic_basis(atoms)) == (atoms + 1) * (atoms + 2) // 2


def test_spacespec_dimensions():
    spec = SpaceSpec(atoms=2, n_max=3)
    assert spec.atomic_dim == 6
    assert spec.field_dim == 4
    assert spec.product_dim == 24


@pytest.mark.parametrize("atoms,n_max", [(0, 2), (1, 0), (-3, 4)])
def test_spacespec_rejects_bad_sizes(atoms, n_max):
    with pytest.raises(ValueError):
        SpaceSpec(atoms, n_max)


def test_flat_index_first_and_last():
    imap = index_map(SpaceSpec(1, 1))
    assert imap.spec.product_dim == 6
    assert imap.flat((1, 0, 0), 0) == 0
    assert imap.flat((0, 0, 1), 1) == 5


def test_round_trip_two_atoms():
    imap = index_map(SpaceSpec(2, 3))
    for flat in range(24):
        occ, n = imap.split(flat)
        assert imap.flat(occ, n) == flat


def test_fock_out_of_range():
    imap = index_map(SpaceSpec(1, 2))
    with pytest.raises(ValueError):
        imap.flat((1, 0, 0), 3)
    with pytest.raises(ValueError):
        imap.split(9)


@pytest.mark.parametrize("n", [-1, 4])
def test_every_entry_point_raises_the_one_photon_range_text(n):
    spec = SpaceSpec(1, 3)
    h = HamiltonianSpec(VEE, (0.0, 3.0, 3.0), 1.0, g31=0.1, g21=0.1)
    text = rf"^photon number {n} outside \[0, 3\]$"
    with pytest.raises(ValueError, match=text):
        index_map(spec).flat((1, 0, 0), n)
    with pytest.raises(ValueError, match=text):
        prepare_initial(spec, InitialState((1, 0, 0), ("fock", complex(n))), h)


def test_unknown_occupation_rejected():
    imap = index_map(SpaceSpec(2, 2))
    with pytest.raises(ValueError):
        imap.atomic_index((1, 0, 0))


@given(atoms=st.integers(1, 6), n_max=st.integers(1, 8))
def test_round_trip_identity(atoms, n_max):
    imap = index_map(SpaceSpec(atoms, n_max))
    for flat in range(imap.spec.product_dim):
        occ, n = imap.split(flat)
        assert sum(occ) == atoms
        assert imap.flat(occ, n) == flat
