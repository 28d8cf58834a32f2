import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import dense_reference as dr
import trilevel.hamiltonian as hamiltonian
import trilevel.operators as operators
from trilevel.hilbert import SpaceSpec, fock_vector, index_map
from trilevel.operators import ATOMIC, OperatorMatrix, element_sum, identity_elements, unitary_exp
from trilevel.hamiltonian import (
    LAMBDA,
    TOL_DARK_BLOCK,
    VEE,
    HamiltonianSpec,
    bright_atomic_vector,
    build_hamiltonian,
    classical_hamiltonian,
    dark_state_residual,
    excitation_count,
    mode_rotation_unitary,
    reduced_hamiltonian,
    rotation_parameters,
    rotation_report,
)


def dark_state(spec, h, n):
    """Every atom in the dark mode and n photons, as a dense product-space vector."""
    return np.kron(hamiltonian.dark_atomic_vector(h, spec.atoms), fock_vector(spec, n))


def lambda_spec(g31=0.3, g32=0.4, e3=3.0, omega=1.0):
    return HamiltonianSpec(LAMBDA, (0.0, 0.0, e3), omega, g31=g31, g32=g32)


def vee_spec(g31=0.3, g21=0.4, e_plus=3.0, omega=1.0):
    return HamiltonianSpec(VEE, (0.0, e_plus, e_plus), omega, g31=g31, g21=g21)


def scheme_strategy():
    return st.sampled_from([LAMBDA, VEE])


def hamiltonian_strategy():
    finite = dict(allow_nan=False, allow_infinity=False)
    return st.builds(
        lambda scheme, e_low, gap, omega, ga, gb: HamiltonianSpec(
            scheme,
            (e_low, e_low, e_low + gap) if scheme == LAMBDA
            else (e_low, e_low + gap, e_low + gap),
            omega,
            g31=ga,
            g32=gb if scheme == LAMBDA else 0.0,
            g21=gb if scheme == VEE else 0.0,
        ),
        scheme_strategy(),
        st.floats(-1.0, 1.0, **finite),
        st.floats(0.5, 3.0, **finite),
        st.floats(0.2, 3.0, **finite),
        st.floats(0.01, 1.5, **finite),
        st.floats(0.01, 1.5, **finite),
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec(LAMBDA, (1.0, 0.0, 2.0), 1.0, g31=0.1, g32=0.1)
    with pytest.raises(ValueError):
        HamiltonianSpec(LAMBDA, (0.0, 0.0, 1.0), 1.0, g31=-0.1, g32=0.1)
    with pytest.raises(ValueError):
        HamiltonianSpec("xi", (0.0, 0.0, 1.0), 1.0)
    assert reduced_hamiltonian(lambda_spec()) is not None
    assert reduced_hamiltonian(HamiltonianSpec(LAMBDA, (0.0, 0.5, 1.0), 1.0,
                                               g31=0.1, g32=0.1)) is None


def test_free_hamiltonian_is_diagonal():
    spec = SpaceSpec(2, 2)
    h = HamiltonianSpec(LAMBDA, (0.1, 0.4, 2.0), 0.7)  # zero couplings
    ham = build_hamiltonian(spec, h)
    imap = index_map(spec)
    assert np.max(np.abs(ham.mat - np.diag(np.diag(ham.mat)))) == 0.0
    for flat in range(spec.product_dim):
        (n1, n2, n3), n = imap.split(flat)
        expected = 0.1 * n1 + 0.4 * n2 + 2.0 * n3 + 0.7 * n
        assert ham.mat[flat, flat].real == pytest.approx(expected, abs=1e-13)


def test_single_coupling_matrix_element():
    spec = SpaceSpec(1, 1)
    h = HamiltonianSpec(LAMBDA, (0.0, 0.0, 1.0), 1.0, g31=0.37, g32=0.11)
    ham = build_hamiltonian(spec, h)
    imap = index_map(spec)
    row = imap.flat((0, 0, 1), 0)
    col = imap.flat((1, 0, 0), 1)
    assert ham.mat[row, col] == pytest.approx(0.37, abs=1e-15)


@given(h=hamiltonian_strategy())
def test_hamiltonian_hermitian_and_conserves_excitation(h):
    spec = SpaceSpec(2, 3)
    ham = build_hamiltonian(spec, h)
    assert ham.is_hermitian()
    count = excitation_count(spec, h.scheme)
    rows, cols, _ = ham.elements()
    assert np.array_equal(count[rows], count[cols])
    dense = dr.commutator(dr.hamiltonian(spec, h), dr.excitation(spec, h.scheme))
    assert np.max(np.abs(dense)) <= 1e-12


def test_rotation_parameters_lambda():
    r = rotation_parameters(lambda_spec(g31=3.0, g32=4.0))
    assert r.effective_coupling == pytest.approx(5.0, abs=1e-12)
    assert r.angle == pytest.approx(math.atan2(4.0, 3.0), abs=1e-15)
    # bright-combination formula agrees with the root sum of squares
    assert 3.0 * math.cos(r.angle) + 4.0 * math.sin(r.angle) == pytest.approx(
        5.0, abs=1e-12
    )
    c1, c2 = r.dark_composition
    assert c1**2 + c2**2 == pytest.approx(1.0, abs=1e-12)


def test_rotation_parameters_decoupled_limit():
    r = rotation_parameters(lambda_spec(g31=0.8, g32=0.0))
    assert r.angle == 0.0
    assert r.effective_coupling == pytest.approx(0.8)
    assert r.dark_composition == (0.0, 1.0)  # bare level 2


def test_rotation_parameters_vee_symmetric():
    r = rotation_parameters(vee_spec(g31=0.2, g21=0.2))
    assert r.angle == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert r.effective_coupling == pytest.approx(0.2 * math.sqrt(2.0), abs=1e-12)


def test_rotation_requires_some_coupling():
    with pytest.raises(ValueError):
        rotation_parameters(HamiltonianSpec(LAMBDA, (0.0, 0.0, 1.0), 1.0))


def test_mode_rotation_zero_angle_is_identity():
    spec = SpaceSpec(1, 2)
    h = lambda_spec(g31=0.5, g32=0.0)
    u = mode_rotation_unitary(spec, h)
    assert u.space == ATOMIC
    assert np.max(np.abs(u.mat - np.eye(spec.atomic_dim))) <= 1e-12


@pytest.mark.parametrize("h", [lambda_spec(0.2, 0.2), vee_spec(0.3, 0.5)])
def test_mode_rotation_unitary_and_decoupling(h):
    """U_a (x) 1, lifted densely, maps H onto the reduced H."""
    spec = SpaceSpec(1, 2)
    u = dr.lift_atomic(spec, mode_rotation_unitary(spec, h).mat)
    assert np.max(np.abs(u @ u.conj().T - np.eye(spec.product_dim))) <= 1e-12
    transformed = u @ build_hamiltonian(spec, h).mat @ u.conj().T
    reduced = build_hamiltonian(spec, reduced_hamiltonian(h))
    assert np.max(np.abs(transformed - reduced.mat)) <= 1e-10


@given(st.sampled_from([LAMBDA, VEE]), st.integers(1, 4), st.integers(1, 4),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-2.0, 2.0), st.floats(0.5, 2.0))
def test_rotation_row_equals_the_dense_off_diagonal_residual(scheme, atoms, n_max, ga, gb,
                                                             e_low, gap):
    """The atomic rotation row equals the largest off-diagonal element of U H U^dag - H_red,
    written densely with U = U_a (x) 1, within 1e-13, for random couplings."""
    assume(ga > 0.0 or gb > 0.0)
    energies = ((e_low, e_low, e_low + gap) if scheme == LAMBDA
                else (e_low, e_low + gap, e_low + gap))
    h = HamiltonianSpec(scheme, energies, 1.0, g31=ga,
                        **{"g32" if scheme == LAMBDA else "g21": gb})
    spec = SpaceSpec(atoms, n_max)
    u = dr.lift_atomic(spec, mode_rotation_unitary(spec, h).mat)
    difference = (u @ dr.hamiltonian(spec, h) @ u.conj().T
                  - dr.hamiltonian(spec, reduced_hamiltonian(h)))
    off = np.max(np.abs(difference - np.diag(np.diag(difference))))
    assert abs(rotation_report(spec, h) - off) <= 1e-13


@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_rotation_report_scales_with_atoms(atoms):
    spec = SpaceSpec(atoms, 2)
    h = lambda_spec(0.3, 0.4)
    assert rotation_report(spec, h) <= 1e-10
    assert reduced_hamiltonian(h) == lambda_spec(0.5, 0.0)


@pytest.mark.parametrize("atoms", [1, 3])
@pytest.mark.parametrize("h", [lambda_spec(0.3, 0.4), lambda_spec(0.0, 0.4),
                               lambda_spec(0.4, 0.0), vee_spec(0.3, 0.4), vee_spec(0.0, 0.4),
                               vee_spec(0.4, 0.0)])
def test_rotation_takes_the_known_sign_once(atoms, h, monkeypatch):
    """theta = +angle (lambda) or -angle (vee): one exponential per report, and
    U^dag (mode_rotation_unitary, as the report rotates by) maps every atom in slot 2
    onto the dark state."""
    spec = SpaceSpec(atoms, 2)
    calls = []

    def counted(gen, theta):
        calls.append(theta)
        return unitary_exp(gen, theta)

    monkeypatch.setattr(hamiltonian, "unitary_exp", counted)
    rotation_report(spec, h)
    assert len(calls) == 1
    u = dr.lift_atomic(spec, mode_rotation_unitary(spec, h).mat)
    slot2 = np.zeros(spec.product_dim, dtype=complex)
    slot2[index_map(spec).flat((0, atoms, 0), 1)] = 1.0
    assert np.max(np.abs(u.conj().T @ slot2 - dark_state(spec, h, 1))) <= 1e-12


def test_rotation_that_leaves_the_dark_mode_coupled_is_an_error(monkeypatch):
    """The report returns the failed residual; verify compares it with the tolerance."""
    spec = SpaceSpec(1, 2)
    monkeypatch.setattr(hamiltonian, "unitary_exp",
                        lambda gen, theta: element_sum(ATOMIC, spec,
                                                       [identity_elements(spec.atomic_dim)]))
    assert rotation_report(spec, vee_spec(0.3, 0.4)) > TOL_DARK_BLOCK


@pytest.mark.parametrize("h", [lambda_spec(0.3, 0.4), vee_spec(0.3, 0.4)])
def test_flipped_layout_sign_leaves_the_dark_mode_coupled(h, monkeypatch):
    """The report's residual catches a rotation by the wrong sign."""
    lay = operators.LAYOUTS[h.scheme]
    monkeypatch.setitem(operators.LAYOUTS, h.scheme, replace(lay, sign=-lay.sign))
    assert rotation_report(SpaceSpec(2, 2), h) > TOL_DARK_BLOCK


@pytest.mark.parametrize("h", [lambda_spec(0.3, 0.4), vee_spec(0.3, 0.4)])
def test_wrong_reduced_coupling_is_caught_by_the_report(h, monkeypatch):
    """The residual compares every element with the reduced H, the bright coupling too."""
    real = hamiltonian.reduced_hamiltonian
    bright = "g{}{}".format(*h.coupled_pairs()[0])
    monkeypatch.setattr(hamiltonian, "reduced_hamiltonian",
                        lambda x: replace(real(x), **{bright: 0.51}))
    assert rotation_report(SpaceSpec(2, 2), h) > TOL_DARK_BLOCK


@pytest.mark.parametrize("h", [HamiltonianSpec(LAMBDA, (0.0, 0.3, 2.0), 1.0, g31=0.3, g32=0.4),
                               HamiltonianSpec(VEE, (0.0, 2.7, 3.0), 1.0, g31=0.3, g21=0.4),
                               HamiltonianSpec(VEE, (0.0, 3.0, float(np.nextafter(3.0, 4.0))),
                                               1.0, g31=0.3, g21=0.4),
                               HamiltonianSpec(LAMBDA, (0.0, 0.0, 2.0), 1.0)])
def test_rotation_report_without_a_reduced_hamiltonian_raises(h):
    """Split paired energies (one ulp is enough) or no coupling: nothing to compare with."""
    assert reduced_hamiltonian(h) is None
    with pytest.raises(ValueError, match="no reduced Hamiltonian"):
        rotation_report(SpaceSpec(2, 3), h)


def test_dark_state_symmetric_lambda():
    spec = SpaceSpec(1, 4)
    h = lambda_spec(g31=0.25, g32=0.25)
    psi = dark_state(spec, h, 3)
    imap = index_map(spec)
    expected = np.zeros(spec.product_dim, dtype=complex)
    expected[imap.flat((1, 0, 0), 3)] = -1.0 / math.sqrt(2.0)
    expected[imap.flat((0, 1, 0), 3)] = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(psi - expected)) <= 1e-14
    assert np.linalg.norm(dr.interaction(spec, h) @ psi) <= 1e-14


def test_dark_state_decoupled_limit_is_level2():
    spec = SpaceSpec(1, 2)
    psi = dark_state(spec, lambda_spec(g31=0.5, g32=0.0), 1)
    imap = index_map(spec)
    assert abs(psi[imap.flat((0, 1, 0), 1)]) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("atoms", [1, 2, 3])
@pytest.mark.parametrize("h", [lambda_spec(0.3, 0.4), vee_spec(0.3, 0.3),
                               vee_spec(0.7, 0.2)])
def test_dark_state_annihilated_for_all_fock(atoms, h):
    spec = SpaceSpec(atoms, 3)
    psis = np.column_stack([dark_state(spec, h, n) for n in range(spec.n_max + 1)])
    assert np.max(np.abs(np.linalg.norm(psis, axis=0) - 1.0)) <= 1e-12
    assert np.max(np.linalg.norm(dr.interaction(spec, h) @ psis, axis=0)) <= 1e-12


def dense_residual(spec, h):
    """Largest norm of the dense interaction on the dark states below the cutoff."""
    states = np.column_stack([dark_state(spec, h, n) for n in range(spec.n_max)])
    return float(np.linalg.norm(dr.interaction(spec, h) @ states, axis=0).max())


UNEQUAL = [HamiltonianSpec(LAMBDA, (0.0, 0.0, 3.0), 1.0, g31=0.07, g32=0.11),
           HamiltonianSpec(LAMBDA, (0.0, 0.4, 3.0), 1.0, g31=0.3, g32=0.05),
           HamiltonianSpec(VEE, (0.0, 3.0, 3.0), 1.0, g31=0.07, g21=0.11),
           HamiltonianSpec(VEE, (0.0, 2.5, 3.0), 1.0, g31=0.6, g21=0.2)]


@pytest.mark.parametrize("n_max", [2, 4])
@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("h", UNEQUAL)
def test_dark_state_residual_equals_the_dense_interaction_on_the_dark_states(h, atoms, n_max,
                                                                            monkeypatch):
    """Also with the bright vector in place of the dark one, where the norms are O(g)."""
    spec = SpaceSpec(atoms, n_max)
    residual = dark_state_residual(spec, h)
    assert abs(residual - dense_residual(spec, h)) <= 1e-14
    assert residual <= 1e-14
    monkeypatch.setattr(hamiltonian, "dark_atomic_vector", bright_atomic_vector)
    bright = dark_state_residual(spec, h)
    assert abs(bright - dense_residual(spec, h)) <= 1e-14
    assert bright > 0.01


@pytest.mark.parametrize("h", UNEQUAL)
def test_dark_state_residual_builds_no_operator(h, monkeypatch):
    def refuse(self, *args):
        raise AssertionError("dark_state_residual built an OperatorMatrix")

    monkeypatch.setattr(OperatorMatrix, "__init__", refuse)
    assert dark_state_residual(SpaceSpec(3, 4), h) <= 1e-14


def test_classical_free_limit():
    h = lambda_spec(g31=0.3, g32=0.4, e3=2.0)
    ham = classical_hamiltonian(h, 0.0, atoms=2)
    assert np.max(np.abs(ham.mat - np.diag(np.diag(ham.mat)))) == 0.0


def test_classical_commutators_close_to_single_transition():
    # [alpha S31, conj(alpha) S23] = -|alpha|^2 S21 (lambda route)
    # [alpha S31, conj(alpha) S12] = +|alpha|^2 S32 (vee route)
    spec = SpaceSpec(2, 1)
    alpha = 0.8 + 0.6j
    s = lambda i, j: dr.atomic(spec, i, j)
    lam = dr.commutator(alpha * s(3, 1), np.conj(alpha) * s(2, 3))
    assert np.max(np.abs(lam + abs(alpha) ** 2 * s(2, 1))) <= 1e-12
    vee = dr.commutator(alpha * s(3, 1), np.conj(alpha) * s(1, 2))
    assert np.max(np.abs(vee - abs(alpha) ** 2 * s(3, 2))) <= 1e-12


@pytest.mark.parametrize("h", [lambda_spec(0.5, 1.2), vee_spec(0.9, 0.4)])
def test_classical_first_order_set_closes_linearly(h):
    # every pairwise commutator of the classical first-order set is a fixed
    # linear combination of the nine S_ij matrices
    spec = SpaceSpec(2, 1)
    alpha = 0.3 - 0.9j
    firsts = []
    for (i, j) in h.coupled_pairs():
        op = (alpha * h.coupling(i, j)) * dr.atomic(spec, i, j)
        firsts += [op, op.conj().T]
    basis = np.column_stack([
        dr.atomic(spec, i, j).ravel()
        for i in (1, 2, 3) for j in (1, 2, 3)
    ])
    for m in firsts:
        for n in firsts:
            target = dr.commutator(m, n).ravel()
            coeffs, *_ = np.linalg.lstsq(basis, target, rcond=None)
            assert np.max(np.abs(basis @ coeffs - target)) <= 1e-10


def test_classical_hamiltonian_matches_alpha_substitution():
    spec = SpaceSpec(2, 1)
    h = vee_spec(0.4, 0.7)
    alpha = 1.1 + 0.2j
    ham = classical_hamiltonian(h, alpha, atoms=2)
    s = lambda i, j: dr.atomic(spec, i, j)
    expected = 3.0 * (s(2, 2) + s(3, 3))
    for (i, j) in h.coupled_pairs():
        term = (alpha * h.coupling(i, j)) * s(i, j)
        expected = expected + term + term.conj().T
    assert np.max(np.abs(ham.mat - expected)) <= 1e-12
    assert ham.is_hermitian()


def test_excitation_eigenvalues():
    spec = SpaceSpec(1, 3)
    imap = index_map(spec)
    n_lam = excitation_count(spec, LAMBDA)
    assert n_lam[imap.flat((0, 0, 1), 2)] == 3  # photon count + level-3 population
    n_vee = excitation_count(spec, VEE)
    assert n_vee[imap.flat((1, 0, 0), 0)] == 0
    assert n_vee[imap.flat((0, 1, 0), 1)] == 2
