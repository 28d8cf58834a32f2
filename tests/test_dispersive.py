import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trilevel.hilbert import SpaceSpec, index_map
from trilevel.operators import deformed_operator
from trilevel.hamiltonian import LAMBDA, VEE, HamiltonianSpec, build_hamiltonian
from trilevel.dispersive import (
    DispersiveParams,
    ZeroDetuningError,
    analytic_effective,
    compare,
    dispersive_params,
    effective_transform,
    residual_and_order,
    small_rotation,
    transfer_block_mask,
    transfer_prefactor,
)


def detuned_lambda(g=0.1, eps=0.05, omega=1.0):
    delta = g / eps
    return HamiltonianSpec(LAMBDA, (0.0, 0.0, omega + delta), omega, g31=g, g32=g)


def detuned_vee(g=0.1, eps=0.05, omega=1.0):
    delta = g / eps
    return HamiltonianSpec(VEE, (0.0, omega + delta, omega + delta), omega,
                           g31=g, g21=g)


def zero_eps_params(scheme):
    pairs = ((3, 1), (3, 2)) if scheme == LAMBDA else ((3, 1), (2, 1))
    return DispersiveParams(
        scheme, 0.0,
        {p: 1.0 for p in pairs},
        {p: 0.0 for p in pairs},
        math.inf,
    )


def test_params_arithmetic():
    h = HamiltonianSpec(LAMBDA, (0.0, 0.0, 2.0), 1.0, g31=0.01, g32=0.01)
    p = dispersive_params(h, 0.0, atoms=1)
    assert p.detunings[(3, 1)] == pytest.approx(1.0)
    assert p.detunings[(3, 2)] == pytest.approx(1.0)
    assert p.small_params[(3, 1)] == pytest.approx(0.01)
    assert p.validity_margin == pytest.approx(100.0)


def test_params_margin_uses_photon_number_and_atoms():
    h = HamiltonianSpec(LAMBDA, (0.0, 0.0, 2.0), 1.0, g31=0.01, g32=0.01)
    p = dispersive_params(h, 3.0, atoms=2)
    assert p.validity_margin == pytest.approx(1.0 / (2 * 0.01 * 2.0))


def test_params_zero_detuning_raises():
    h = HamiltonianSpec(LAMBDA, (0.0, 0.0, 1.0), 1.0, g31=0.1, g32=0.1)
    with pytest.raises(ZeroDetuningError):
        dispersive_params(h, 0.0, atoms=1)


def test_params_large_eps_rejected():
    h = HamiltonianSpec(LAMBDA, (0.0, 0.0, 1.5), 1.0, g31=0.9, g32=0.9)
    with pytest.raises(ValueError):
        dispersive_params(h, 0.0, atoms=1)


def test_small_rotation_identity_at_zero():
    spec = SpaceSpec(1, 3)
    u = small_rotation(spec, 3, 1, 0.0)
    assert np.max(np.abs(u.mat - np.eye(spec.product_dim))) <= 1e-13


@given(eps=st.floats(-0.1, 0.1, allow_nan=False))
def test_small_rotation_unitary_and_inverse(eps):
    spec = SpaceSpec(1, 3)
    u = small_rotation(spec, 3, 1, eps)
    assert np.max(np.abs((u @ u.dag()).mat - np.eye(spec.product_dim))) <= 1e-12
    v = small_rotation(spec, 3, 1, -eps)
    assert np.max(np.abs((u @ v).mat - np.eye(spec.product_dim))) <= 1e-12


def test_small_rotation_taylor_order():
    spec = SpaceSpec(1, 4)
    x = deformed_operator(spec, 3, 1).mat
    gen = x - x.conj().T

    def defect(eps):
        u = small_rotation(spec, 3, 1, eps)
        return np.max(np.abs(u.mat - (np.eye(spec.product_dim) + eps * gen)))

    d1, d2 = defect(0.08), defect(0.04)
    assert d1 / d2 == pytest.approx(4.0, rel=0.1)  # halving eps quarters the defect


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_effective_transform_zero_eps_returns_h(scheme):
    spec = SpaceSpec(1, 4)
    h = detuned_lambda() if scheme == LAMBDA else detuned_vee()
    t = effective_transform(spec, h, zero_eps_params(scheme))
    assert np.max(np.abs(t.mat - build_hamiltonian(spec, h).mat)) <= 1e-12


def test_effective_transform_preserves_spectrum():
    spec = SpaceSpec(1, 6)
    h = detuned_lambda()
    p = dispersive_params(h, 0.0, atoms=1)
    t = effective_transform(spec, h, p)
    assert t.is_hermitian()
    drift = np.max(np.abs(
        np.linalg.eigvalsh(t.mat) - np.linalg.eigvalsh(build_hamiltonian(spec, h).mat)
    ))
    assert drift <= 1e-10


def test_transform_rejects_mismatched_scheme():
    spec = SpaceSpec(1, 4)
    with pytest.raises(ValueError):
        effective_transform(spec, detuned_vee(), zero_eps_params(LAMBDA))


def test_transfer_block_scales_linearly_in_one_coupling():
    # the leading block is eps31 g32 x fixed operator: doubling g31 alone
    # doubles it (doubling both couplings would quadruple it)
    spec = SpaceSpec(1, 8)
    omega, delta, g = 1.0, 2.0, 0.02
    mask = transfer_block_mask(spec, LAMBDA, guard=3)

    def block_norm(g31):
        h = HamiltonianSpec(LAMBDA, (0.0, 0.0, omega + delta), omega, g31=g31, g32=g)
        p = dispersive_params(h, 0.0, atoms=1)
        t = effective_transform(spec, h, p)
        return float(np.max(np.abs(t.mat[mask])))

    ratio = block_norm(2 * g) / block_norm(g)
    assert ratio == pytest.approx(2.0, rel=0.05)


def transfer(spec, h, p):
    """The dense transfer term of the closed form: the off-diagonal part of the
    analytic_effective Hamiltonian, the free part being diagonal."""
    effective = analytic_effective(spec, h, p).mat
    return effective - np.diag(np.diag(effective))


def test_analytic_lambda_vanishes_on_vacuum_ground():
    # no transfer out of |level 1> x |0>: level 3 empty, field in vacuum
    spec = SpaceSpec(1, 4)
    h = detuned_lambda()
    imap = index_map(spec)
    col = transfer(spec, h, dispersive_params(h, 0.0, atoms=1))[:, imap.flat((1, 0, 0), 0)]
    assert np.max(np.abs(col)) == 0.0


def test_analytic_vee_vacuum_triggered_element():
    # acting on |level 3> x |0> gives prefactor * (0 + 0 + 1) |level 2> x |0>
    spec = SpaceSpec(1, 4)
    h = detuned_vee()
    p = dispersive_params(h, 0.0, atoms=1)
    imap = index_map(spec)
    col = transfer(spec, h, p)[:, imap.flat((0, 0, 1), 0)]
    expected = np.zeros(spec.product_dim, dtype=complex)
    expected[imap.flat((0, 1, 0), 0)] = transfer_prefactor(h, p)
    assert np.max(np.abs(col - expected)) <= 1e-15
    assert transfer_prefactor(h, p) == pytest.approx(p.small_params[(2, 1)] * h.g31)


def test_analytic_lambda_kernel_scan():
    spec = SpaceSpec(2, 4)
    h = detuned_lambda()
    t = transfer(spec, h, dispersive_params(h, 0.0, atoms=2))
    imap = index_map(spec)
    for flat in range(spec.product_dim):
        (n1, n2, n3), n = imap.split(flat)
        if n3 == n:
            assert np.linalg.norm(t[:, flat]) <= 1e-12


def test_analytic_vee_never_annihilates_pair_population():
    spec = SpaceSpec(2, 4)
    h = detuned_vee()
    t = transfer(spec, h, dispersive_params(h, 0.0, atoms=2))
    imap = index_map(spec)
    for flat in range(spec.product_dim):
        (n1, n2, n3), n = imap.split(flat)
        if n2 + n3 >= 1:
            assert np.linalg.norm(t[:, flat]) > 0.0


def test_residual_zero_at_zero_eps():
    spec = SpaceSpec(1, 4)
    h = detuned_lambda()
    assert compare(spec, h, zero_eps_params(LAMBDA), guard=2)[2] <= 1e-15


@pytest.mark.parametrize("make", [detuned_lambda, detuned_vee])
def test_residual_shrinks_at_second_order_or_better(make):
    spec = SpaceSpec(1, 8)
    h = make(g=0.1, eps=0.05)
    p = dispersive_params(h, 0.0, atoms=1)
    residual, order = residual_and_order(spec, h, p, guard=3)
    assert residual > 0.0
    assert order >= 2.0
    assert 2.0 ** order >= 3.5  # halving eps shrinks the residual this much


def test_residual_and_order_guard_validation():
    spec = SpaceSpec(1, 8)
    h = detuned_lambda()
    p = dispersive_params(h, 0.0, atoms=1)
    with pytest.raises(ValueError):
        residual_and_order(spec, h, p, guard=1)


def test_order_probe_requires_equal_detunings():
    spec = SpaceSpec(1, 8)
    h = HamiltonianSpec(LAMBDA, (0.0, 0.5, 3.0), 1.0, g31=0.05, g32=0.05)
    p = dispersive_params(h, 0.0, atoms=1)
    with pytest.raises(ValueError):
        residual_and_order(spec, h, p, guard=3)
