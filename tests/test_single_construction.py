"""Each quantity is built once, and the shared constructions agree with the
operator products they replace.

The references rebuild the enhancement factors, the transfer operators and
the excitation count from the lifted collective and field operators of
``dense_reference``.
"""

import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dense_reference as dr
import trilevel.hamiltonian as hamiltonian
import trilevel.operators as operators
from trilevel.dispersive import analytic_effective, small_rotation, transfer_prefactor
from trilevel.dynamics import (
    InitialState,
    prepare_initial,
    required_fock_cutoff,
    semiclassical_sweep,
)
from trilevel.hamiltonian import (
    LAMBDA,
    VEE,
    HamiltonianSpec,
    excitation_operator,
    mode_rotation_unitary,
    rotation_report,
)
from trilevel.hilbert import SpaceSpec
from trilevel.operators import OperatorMatrix, atomic_term, tensor_sum, unitary_exp

LAMBDA_H = HamiltonianSpec(LAMBDA, (0.0, 0.0, 3.0), 1.0, g31=0.1, g32=0.15)
VEE_H = HamiltonianSpec(VEE, (0.0, 3.0, 3.0), 1.0, g31=0.12, g21=0.1)


def s(spec, i, j):
    return dr.lift_atomic(spec, dr.atomic(spec, i, j))


def factor_reference(spec, scheme):
    """(S33 - n) for lambda, (S11 + n + 1) for vee, from lifted dense operators."""
    if scheme == LAMBDA:
        return s(spec, 3, 3) - dr.number(spec)
    return s(spec, 1, 1) + dr.number(spec) + np.eye(spec.product_dim)


@pytest.mark.parametrize("h", [LAMBDA_H, VEE_H])
@pytest.mark.parametrize("atoms", [1, 2])
def test_rotation_report_builds_each_hamiltonian_once(h, atoms, monkeypatch):
    calls = []
    real = hamiltonian.build_hamiltonian

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hamiltonian, "build_hamiltonian", counting)
    residual = rotation_report(SpaceSpec(atoms, 3), h)
    assert [args[1] for args in calls] == [h, hamiltonian.reduced_hamiltonian(h)]  # one per spec
    assert residual <= hamiltonian.TOL_DARK_BLOCK


def test_semiclassical_sweep_builds_no_operator(monkeypatch):
    def refuse(op):
        raise AssertionError("semiclassical_sweep built an OperatorMatrix")

    monkeypatch.setattr(OperatorMatrix, "__post_init__", refuse)
    assert len(semiclassical_sweep(2, [0.0, 4.0, 9.0]).rows) == 3


@pytest.mark.parametrize("atoms", [1, 2])
def test_sweep_factors_match_dense_expectation(atoms):
    n_bars = [0.0, 2.5, 4.0, 9.0]
    rows = semiclassical_sweep(atoms, n_bars).rows
    for n_bar, row in zip(n_bars, rows):
        assert row.n_max == max(1, required_fock_cutoff(math.sqrt(n_bar)))
        spec = SpaceSpec(atoms, row.n_max)  # the cutoff of both computations
        field = ("coherent", complex(math.sqrt(n_bar)))
        for scheme, occ, value in ((LAMBDA, (atoms, 0, 0), row.factor_lambda),
                                   (VEE, (0, 0, atoms), row.factor_vee)):
            psi = prepare_initial(spec, InitialState(occ, field), LAMBDA_H)
            expected = np.real(psi.conj() @ (factor_reference(spec, scheme) @ psi))
            assert abs(value - expected) <= 1e-12


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
@pytest.mark.parametrize("atoms,n_max", [(1, 3), (3, 4)])
def test_excitation_operator_equals_the_lift_sum(scheme, atoms, n_max):
    spec = SpaceSpec(atoms, n_max)
    ref = dr.number(spec) + s(spec, 3, 3)
    if scheme == VEE:
        ref = ref + s(spec, 2, 2)
    assert np.array_equal(excitation_operator(spec, scheme).mat, ref)
    assert np.array_equal(excitation_operator(spec, scheme).mat, dr.excitation(spec, scheme))


@pytest.mark.parametrize("h", [LAMBDA_H, VEE_H])
@pytest.mark.parametrize("atoms,n_max", [(1, 4), (2, 5), (3, 3)])
def test_analytic_effective_matches_the_lift_product(h, atoms, n_max):
    """The free H on the diagonal, prefactor (S_ab + S_ba) f off it."""
    spec = SpaceSpec(atoms, n_max)
    la, lb = h.degenerate_pair
    transfer = (s(spec, la, lb) + s(spec, lb, la)) @ factor_reference(spec, h.scheme)
    effective = analytic_effective(spec, h).mat
    free = np.diag(dr.hamiltonian(spec, replace(h, g31=0.0, g32=0.0, g21=0.0)))
    assert np.max(np.abs(np.diag(effective) - free)) <= 1e-14
    off = effective - np.diag(np.diag(effective))
    assert np.max(np.abs(off - transfer_prefactor(h) * transfer)) <= 1e-15


def test_shared_rotation_checks_unitarity(monkeypatch):
    spec = SpaceSpec(1, 2)
    gen = tensor_sum(spec, [atomic_term(spec, 1, 2, 1j), atomic_term(spec, 2, 1, -1j)])
    unitary_exp(gen, 0.3)  # a true rotation passes
    monkeypatch.setattr(operators, "TOL_UNITARY", -1.0)
    with pytest.raises(RuntimeError, match="not unitary"):
        unitary_exp(gen, 0.3)


@pytest.mark.parametrize("build", [
    lambda spec: small_rotation(spec, 3, 1, 0.05),
    lambda spec: mode_rotation_unitary(spec, LAMBDA_H),
], ids=["small_rotation", "mode_rotation_unitary"])
def test_both_rotations_go_through_the_check(build, monkeypatch):
    monkeypatch.setattr(operators, "TOL_UNITARY", -1.0)
    with pytest.raises(RuntimeError, match="not unitary"):
        build(SpaceSpec(1, 2))


def test_one_exponential_and_one_eigendecomposition():
    """No function is named exp_* (unitary_exp is the one exponential), and only
    operators.hermitian_blocks refers to an eigh or eigvalsh."""
    package = Path(operators.__file__).parent
    exp_functions, eigen_users = [], []

    def visit(node, scope):  # scope: "module.function[.nested]"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("exp_"):
                exp_functions.append(f"{scope}.{node.name}")
            scope = f"{scope}.{node.name}"
        names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                 else [node.id] if isinstance(node, ast.Name)
                 else [node.attr] if isinstance(node, ast.Attribute) else [])
        if {"eigh", "eigvalsh"} & set(names):
            eigen_users.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert len(list(package.glob("*.py"))) >= 8
    assert exp_functions == []
    assert eigen_users == ["operators.hermitian_blocks"]
