import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dense_reference as dr
from test_batched_kernels import same_bits
from trilevel.hilbert import SpaceSpec, enumerate_atomic_basis, index_map
from trilevel.operators import (
    ATOMIC,
    FIELD,
    LEVELS,
    PRODUCT,
    OperatorMatrix,
    SpaceMismatchError,
    _one_block,
    deformed_operator,
    element_sum,
    field_elements,
    guarded_states,
    identity_elements,
    lift,
    transition_elements,
    verify_algebra,
)


def transition(spec, i, j):
    """S_ij stored in its blocks."""
    return element_sum(ATOMIC, spec, [transition_elements(spec, i, j)])


def ladder(spec, kind):
    return element_sum(FIELD, spec, [field_elements(spec, kind)])


def three_mode_boson_oracle(atoms, i, j):
    """S_ij from scratch: independent single-mode ladders on the full
    three-mode Fock space, restricted to total occupation = atoms."""
    cut = atoms + 1
    ladder = np.diag(np.sqrt(np.arange(1.0, cut)), k=1)
    eye = np.eye(cut)
    modes = [
        np.kron(np.kron(ladder, eye), eye),
        np.kron(np.kron(eye, ladder), eye),
        np.kron(np.kron(eye, eye), ladder),
    ]
    full = modes[i - 1].conj().T @ modes[j - 1]
    select = [
        (n1 * cut + n2) * cut + n3 for (n1, n2, n3) in enumerate_atomic_basis(atoms)
    ]
    return full[np.ix_(select, select)]


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_dense_reference_matches_boson_oracle(atoms):
    for i, j in itertools.product(LEVELS, repeat=2):
        oracle = three_mode_boson_oracle(atoms, i, j)
        assert np.max(np.abs(dr.atomic(SpaceSpec(atoms, 1), i, j) - oracle)) <= 1e-13


def test_dense_reference_imports_only_the_labels_and_sizes():
    """dense_reference takes nothing from the package but hilbert, so it shares no
    code path with element_sum, tensor_sum or transition_elements."""
    imported = set()
    for node in ast.walk(ast.parse(Path(dr.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"numpy", "trilevel.hilbert"}


@pytest.mark.parametrize("atoms", [1, 2, 3, 4, 5, 8])
def test_transitions_equal_the_dense_reference(atoms):
    spec = SpaceSpec(atoms, 1)
    for i, j in itertools.product(LEVELS, repeat=2):
        assert same_bits(transition(spec, i, j).mat, dr.atomic(spec, i, j))


def test_single_atom_transition_is_matrix_unit():
    op = transition(SpaceSpec(1, 1), 3, 1)
    # (1,0,0) is index 0, (0,0,1) is index 2
    expected = np.zeros((3, 3))
    expected[2, 0] = 1.0
    assert np.array_equal(op.mat, expected)


def test_population_eigenvalue():
    spec = SpaceSpec(3, 1)
    imap = index_map(spec)
    op = transition(spec, 1, 1)
    k = imap.atomic_index((2, 0, 1))
    assert op.mat[k, k] == 2.0


def test_ladder_amplitude_sqrt2():
    spec = SpaceSpec(2, 1)
    imap = index_map(spec)
    op = transition(spec, 3, 2)
    row = imap.atomic_index((0, 1, 1))
    col = imap.atomic_index((0, 2, 0))
    assert op.mat[row, col] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_dagger_symmetry_exact():
    spec = SpaceSpec(3, 1)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert np.array_equal(
                transition(spec, i, j).mat,
                transition(spec, j, i).mat.conj().T,
            )


@pytest.mark.parametrize("atoms", [1, 2, 4])
def test_total_population_is_atom_count(atoms):
    spec = SpaceSpec(atoms, 1)
    total = element_sum(ATOMIC, spec, [transition_elements(spec, i, i) for i in (1, 2, 3)])
    assert np.array_equal(total.mat, atoms * np.eye(spec.atomic_dim))


def test_vacuum_annihilation_and_ladder():
    spec = SpaceSpec(1, 3)
    a = ladder(spec, "annihilate")
    assert np.all(a.mat[:, 0] == 0.0)
    assert a.mat[1, 2] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert np.array_equal(ladder(spec, "create").mat, a.mat.conj().T)
    num = ladder(spec, "number")
    assert np.array_equal(num.mat, np.diag(np.arange(4.0)))


def test_field_commutator_truncation_artifact():
    spec = SpaceSpec(1, 5)
    a, a_dag = ladder(spec, "annihilate"), ladder(spec, "create")
    comm = (a @ a_dag).mat - (a_dag @ a).mat
    # canonical on n < n_max, single corrupted diagonal entry at the cutoff
    assert np.max(np.abs(comm[:5, :5] - np.eye(5))) <= 1e-14
    assert comm[5, 5] == pytest.approx(-5.0)
    off = comm.copy()
    off[5, 5] = 0.0
    assert np.max(np.abs(off - np.diag(np.diag(off)))) == 0.0


@pytest.mark.parametrize("atoms,n_max", [(1, 2), (2, 3), (3, 1), (4, 2)])
def test_lift_equals_the_dense_reference(atoms, n_max):
    spec = SpaceSpec(atoms, n_max)
    identity = element_sum(ATOMIC, spec, [identity_elements(spec.atomic_dim)])
    assert np.array_equal(lift(spec, identity).mat, np.eye(spec.product_dim))
    for i, j in itertools.product(LEVELS, repeat=2):
        assert np.array_equal(lift(spec, transition(spec, i, j)).mat,
                              dr.lift_atomic(spec, dr.atomic(spec, i, j)))
    for kind in ("annihilate", "create", "number"):
        assert np.array_equal(lift(spec, ladder(spec, kind)).mat,
                              dr.lift_field(spec, dr.field(spec, kind)))


def test_lift_rejects_bad_input():
    spec = SpaceSpec(2, 3)
    other = SpaceSpec(2, 4)
    with pytest.raises(SpaceMismatchError):
        lift(spec, transition(other, 1, 1))
    with pytest.raises(SpaceMismatchError):
        lift(spec, lift(spec, transition(spec, 1, 1)))


def test_deformed_absorbs_photon():
    spec = SpaceSpec(1, 2)
    imap = index_map(spec)
    x31 = deformed_operator(spec, 3, 1)
    col = imap.flat((1, 0, 0), 1)
    row = imap.flat((0, 0, 1), 0)
    assert x31.mat[row, col] == pytest.approx(1.0, abs=1e-15)
    # vacuum column is annihilated
    assert np.all(x31.mat[:, imap.flat((1, 0, 0), 0)] == 0.0)


def test_deformed_conjugate_pair_and_bad_pair():
    spec = SpaceSpec(1, 2)
    x31 = deformed_operator(spec, 3, 1)
    x13 = deformed_operator(spec, 1, 3)
    assert np.array_equal(x13.mat, x31.mat.conj().T)
    with pytest.raises(ValueError):
        deformed_operator(spec, 1, 1)
    with pytest.raises(ValueError):
        deformed_operator(spec, 3, 4)


def test_commutator_examples():
    spec = SpaceSpec(2, 1)
    s = lambda i, j: transition(spec, i, j).mat
    assert np.max(np.abs((s(1, 2) @ s(2, 1) - s(2, 1) @ s(1, 2)) - (s(1, 1) - s(2, 2)))) <= 1e-14
    assert np.max(np.abs(s(1, 1) @ s(2, 2) - s(2, 2) @ s(1, 1))) == 0.0
    spec3 = SpaceSpec(3, 1)
    s3 = lambda i, j: transition(spec3, i, j).mat
    assert np.max(np.abs((s3(3, 1) @ s3(1, 2) - s3(1, 2) @ s3(3, 1)) - s3(3, 2))) <= 1e-14


def test_product_rejects_mismatched_spaces():
    spec = SpaceSpec(2, 2)
    with pytest.raises(SpaceMismatchError):
        transition(spec, 1, 2) @ ladder(spec, "number")


@given(
    atoms=st.integers(1, 4),
    i=st.integers(1, 3), j=st.integers(1, 3),
    k=st.integers(1, 3), l=st.integers(1, 3),
)
def test_first_order_commutator_property(atoms, i, j, k, l):
    spec = SpaceSpec(atoms, 1)
    m, n = transition(spec, i, j), transition(spec, k, l)
    lhs = (m @ n).mat - (n @ m).mat
    rhs = (j == k) * dr.atomic(spec, i, l) - (i == l) * dr.atomic(spec, k, j)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    assert np.max(np.abs(lhs - dr.commutator(m.mat, n.mat))) <= 1e-12


@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_verify_algebra_u3_all_pass(atoms):
    reports = verify_algebra(SpaceSpec(atoms, 6), "u3")
    assert len(reports) == 81
    assert all(r.passed for r in reports)
    assert max(r.residual for r in reports) <= 1e-12


def test_verify_algebra_second_order_guarded():
    reports = verify_algebra(SpaceSpec(1, 4), "second_order", guard=2)
    assert len(reports) == 4
    assert all(r.passed for r in reports)


def test_verify_algebra_second_order_fails_at_boundary():
    # the a adag identities break in the top photon slab when unguarded
    reports = verify_algebra(SpaceSpec(2, 4), "second_order", guard=0)
    failing = {r.name for r in reports if not r.passed}
    assert "X31 X23 = (n + 1) S33 S21" in failing
    assert "[X31, X23] = (S33 - n) S21" in failing
    assert "[X31, X12] = (S11 + n + 1) S32" in failing


def test_verify_algebra_reports_not_exceptions():
    reports = verify_algebra(SpaceSpec(2, 4), "second_order", guard=0)
    assert len(reports) == 4  # failures are reported, never raised


def test_verify_algebra_guard_validation():
    with pytest.raises(ValueError):
        verify_algebra(SpaceSpec(1, 3), "second_order", guard=7)
    with pytest.raises(ValueError):
        verify_algebra(SpaceSpec(1, 3), "no_such_mode")


def test_second_order_commutator_matrix_element():
    # acting on |level 1> x |n=1>, (S33 - n) S21 gives -1 |level 2> x |n=1>
    spec = SpaceSpec(1, 4)
    imap = index_map(spec)
    rhs = (dr.lift_atomic(spec, dr.atomic(spec, 3, 3)) - dr.number(spec)) @ dr.lift_atomic(
        spec, dr.atomic(spec, 2, 1))
    col = rhs[:, imap.flat((1, 0, 0), 1)]
    expected = np.zeros(spec.product_dim, dtype=complex)
    expected[imap.flat((0, 1, 0), 1)] = -1.0
    assert np.max(np.abs(col - expected)) <= 1e-14
    # the dressed block commutator agrees inside the guarded zone
    x31, x23 = deformed_operator(spec, 3, 1), deformed_operator(spec, 2, 3)
    comm = (x31 @ x23).mat - (x23 @ x31).mat
    assert np.max(np.abs(comm[:, imap.flat((1, 0, 0), 1)] - expected)) <= 1e-14


def test_second_order_kernel_scan():
    # kernel of (S33 - n) S21 contains every state with n3 == n; the vee
    # operator (S11 + n + 1) S32 never annihilates a state with n2 >= 1
    spec = SpaceSpec(2, 4)
    imap = index_map(spec)
    s = lambda i, j: dr.lift_atomic(spec, dr.atomic(spec, i, j))
    num, one = dr.number(spec), np.eye(spec.product_dim)
    lam = (s(3, 3) - num) @ s(2, 1)
    vee = (s(1, 1) + num + one) @ s(3, 2)
    for flat in range(spec.product_dim):
        (n1, n2, n3), n = imap.split(flat)
        if n3 == n:
            assert np.linalg.norm(lam[:, flat]) <= 1e-12
        if n2 >= 1:
            assert np.linalg.norm(vee[:, flat]) > 0.5


def test_guarded_states_equal_the_dense_projector():
    spec = SpaceSpec(2, 4)
    for guard in range(spec.n_max + 1):
        every = np.arange(spec.product_dim)
        p = element_sum(PRODUCT, spec, [(every, every, guarded_states(spec, guard))])
        assert np.array_equal(p.mat, dr.guarded_projector(spec, guard))
        assert np.trace(p.mat).real == spec.atomic_dim * (spec.n_max - guard + 1)
        assert np.array_equal((p @ p).mat, p.mat)
    with pytest.raises(ValueError):
        guarded_states(spec, -1)


def test_operator_storage_is_read_only():
    spec = SpaceSpec(1, 2)
    op = transition(spec, 1, 2)
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0
    with pytest.raises(ValueError):
        op._data[0] = 5.0
    dense = OperatorMatrix(ATOMIC, spec, op.mat.ravel() + 0.0, _one_block(spec.atomic_dim))
    assert np.array_equal(dense.mat, op.mat)


def test_hermiticity_helper():
    spec = SpaceSpec(1, 2)
    s12 = transition(spec, 1, 2)
    assert not s12.is_hermitian()
    assert element_sum(ATOMIC, spec, [s12.elements(), s12.dag().elements()]).is_hermitian()
