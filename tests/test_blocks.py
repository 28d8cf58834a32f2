"""Block kernels against dense numpy references.

Every product-space operator is stored in the blocks its writer found; the
spectra, exponentials, products, propagation and dispersive residuals
computed block by block must agree with the plain dense computation on ``dense_reference``: the Hamiltonian, the lifted
ladder operator, the dressed transitions and the excitation count are
written there from the labels, and so are the exponential and the
propagator.  The loop versions of the basis-table masks are kept here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dense_reference as dr
from test_block_storage import rotation_generator
import trilevel.dynamics as dynamics
import trilevel.hamiltonian as hamiltonian
import trilevel.operators as operators
from trilevel.cli import main
from trilevel.dispersive import (
    _generator,
    _generators,
    _residual,
    _transfer_block,
    analytic_effective,
    effective_transform,
    small_params,
    small_rotation,
    transfer_block_mask,
)
from trilevel.dynamics import TimeGrid, evolve, propagate
from trilevel.hamiltonian import (
    LAMBDA,
    VEE,
    HamiltonianSpec,
    build_hamiltonian,
    excitation_count,
    excitation_operator,
    mode_rotation_unitary,
    reduced_hamiltonian,
    rotation_report,
)
from trilevel.hilbert import SpaceSpec, index_map
from trilevel.operators import (
    FIELD,
    PRODUCT,
    deformed_operator,
    eigenvalues,
    element_sum,
    field_elements,
    identity_elements,
    lift,
    sector_runs,
    unitary_exp,
)

TOL = 1e-12


# --- dense references -------------------------------------------------------

def dense_block_residual(spec, h, guard) -> float:
    pairs = ((3, 2), (3, 1)) if h.scheme == LAMBDA else ((3, 1), (2, 1))  # (outer, inner)
    eps = small_params(h)
    outer, inner = (small_rotation(spec, i, j, eps[(i, j)]) for i, j in pairs)
    u = outer.mat @ inner.mat
    transformed = u @ dr.hamiltonian(spec, h) @ u.conj().T
    diff = transformed - analytic_effective(spec, h).mat  # the block holds no diagonal
    mask = transfer_block_mask(spec, h.scheme, guard)
    return float(np.max(np.abs(diff[mask]))) if mask.any() else 0.0


def scale(*mats: np.ndarray) -> float:
    return max(1.0, math.prod(float(np.max(np.abs(m))) for m in mats))


def cross_block_mask(op) -> np.ndarray:
    labels = op._layout.labels
    return labels[:, None] != labels[None, :]


# --- strategies ---------------------------------------------------------------

coupling = st.floats(0.01, 0.5)


@st.composite
def models(draw):
    scheme = draw(st.sampled_from([LAMBDA, VEE]))
    spec = SpaceSpec(draw(st.integers(1, 3)), draw(st.integers(1, 5)))
    energies = tuple(sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))))
    h = HamiltonianSpec(scheme, energies, draw(st.floats(0.5, 2.0)),
                        g31=draw(coupling), g32=draw(coupling), g21=draw(coupling))
    return spec, h


# --- differential tests -------------------------------------------------------

@given(models())
def test_block_spectrum_matches_dense(model):
    spec, h = model
    ham = build_hamiltonian(spec, h)
    assert np.array_equal(ham.mat, dr.hamiltonian(spec, h))
    dense = np.linalg.eigvalsh(dr.hamiltonian(spec, h))
    assert np.max(np.abs(eigenvalues(ham) - dense)) <= TOL * scale(ham.mat)


@given(models(), st.floats(-3.0, 3.0))
def test_block_exponential_matches_dense(model, t):
    spec, h = model
    ham = build_hamiltonian(spec, h)
    u = unitary_exp(ham, t)
    expected = dr.dense_exp(dr.hamiltonian(spec, h), t)
    assert np.max(np.abs(u.mat - expected)) <= TOL * scale(t * ham.mat)
    assert np.all(u.mat[cross_block_mask(ham)] == 0.0)


@given(models(), st.floats(-0.5, 0.5))
def test_rotation_exponentials_match_dense(model, theta):
    spec, h = model
    la, lb = h.degenerate_pair
    gens = [(rotation_generator(spec, h),
             1j * dr.lift_atomic(spec, dr.atomic(spec, la, lb) - dr.atomic(spec, lb, la)))]
    for (i, j) in h.coupled_pairs():
        gens.append((_generator(spec, i, j),
                     1j * (dr.dressed(spec, i, j) - dr.dressed(spec, j, i))))
    for g, dense in gens:
        assert np.array_equal(g.mat, dense)
        u = unitary_exp(g, theta)
        expected = dr.dense_exp(dense, theta)
        assert np.max(np.abs(u.mat - expected)) <= TOL * scale(theta * g.mat)
        assert np.all(u.mat[cross_block_mask(g)] == 0.0)
    rot = small_rotation(spec, *h.coupled_pairs()[0], theta)
    assert np.all(rot.mat[cross_block_mask(_generator(spec, *h.coupled_pairs()[0]))] == 0.0)


@given(models())
def test_block_products_match_dense(model):
    spec, h = model
    ham = build_hamiltonian(spec, h)
    a = lift(spec, element_sum(FIELD, spec, [field_elements(spec, "annihilate")]))
    n_exc = excitation_operator(spec, h.scheme)
    x = deformed_operator(spec, *h.coupled_pairs()[0])
    u = unitary_exp(ham, 0.7)
    one = element_sum(PRODUCT, spec, [identity_elements(spec.product_dim)])
    dense = {"a": dr.lift_field(spec, dr.field(spec, "annihilate")), "H": dr.hamiltonian(spec, h),
             "x": dr.dressed(spec, *h.coupled_pairs()[0]), "n": dr.excitation(spec, h.scheme)}
    for op, name in ((a, "a"), (ham, "H"), (x, "x"), (n_exc, "n")):
        assert np.array_equal(op.mat, dense[name]), name
    pairs = [(a, ham), (ham, x), (x, x.dag()), (u, ham), (ham, u.dag()), (one, x), (n_exc, ham)]
    for m, n in pairs:
        assert np.max(np.abs((m @ n).mat - m.mat @ n.mat)) <= TOL * scale(m.mat, n.mat)
    comm = (ham @ n_exc).mat - (n_exc @ ham).mat
    expected = dr.commutator(dense["H"], dense["n"])
    assert np.max(np.abs(comm - expected)) <= TOL * scale(dense["H"], dense["n"])


# --- the stored partition is the exact one where a kernel reads it ------------

PAIR_ENERGIES = {(LAMBDA, False): (0.0, 0.0, 3.0), (LAMBDA, True): (0.0, 0.5, 3.0),
                 (VEE, False): (0.0, 3.0, 3.0), (VEE, True): (0.0, 2.5, 3.0)}


@pytest.mark.parametrize("atoms", [1, 2, 3])
@pytest.mark.parametrize("split", [False, True], ids=["degenerate", "split"])
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_every_operator_a_command_hands_to_a_kernel_is_stored_exactly(scheme, split, atoms,
                                                                     tmp_path, monkeypatch):
    """The stored labels equal a dense component search: for H, the reduced H, the
    generators, U and the closed-form effective H, and for every operator that verify,
    evolve, spectrum and dispersive-compare read."""
    spec, second = SpaceSpec(atoms, atoms + 2), "g32" if scheme == LAMBDA else "g21"
    h = HamiltonianSpec(scheme, PAIR_ENERGIES[scheme, split], 1.0, g31=0.1, **{second: 0.07})
    generators = [rotation_generator(spec, h), *_generators(spec, scheme).values()]
    seen = [build_hamiltonian(spec, h), *generators, mode_rotation_unitary(spec, h),
            *(unitary_exp(g, 0.05) for g in generators), analytic_effective(spec, h)]
    if not split:
        seen.append(build_hamiltonian(spec, reduced_hamiltonian(h)))
    real = operators.stored_stacks

    def recording(op, support=None):
        seen.append(op)
        return real(op, support)

    monkeypatch.setattr(operators, "stored_stacks", recording)
    monkeypatch.setattr(dynamics, "stored_stacks", recording)
    monkeypatch.setattr(hamiltonian, "stored_stacks", recording)  # verify's U_a
    start = f"{atoms},0,0" if scheme == LAMBDA else f"0,0,{atoms}"
    conf = tmp_path / "run.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in (
        ("scheme", scheme), ("atoms", atoms), ("n_max", spec.n_max), ("omega", h.omega),
        *((f"E{i}", e) for i, e in enumerate(h.energies, start=1)), ("g31", h.g31),
        (second, h.coupling(*h.coupled_pairs()[1])), ("guard", 2), ("t_max", 10.0),
        ("n_samples", 11), ("initial.atom", start), ("initial.field", "fock:0"))))
    built = len(seen)
    commands = ["verify", "evolve", "spectrum"] + ([] if split else ["dispersive-compare"])
    for command in commands:
        assert main([command, "--config", str(conf), "--out", str(tmp_path / command)]) == 0
    assert len(seen) >= built + 3  # evolve: H, and H again for the energy; spectrum: H
    for op in seen:
        assert np.array_equal(op._layout.labels, dr.component_labels(op.mat))


@given(models(), st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.5, 10.0))
def test_propagate_matches_dense(model, seed, basis_state, t_max):
    spec, h = model
    ham = build_hamiltonian(spec, h)
    rng = np.random.default_rng(seed)
    if basis_state:
        psi0 = np.zeros(spec.product_dim, dtype=np.complex128)
        psi0[rng.integers(spec.product_dim)] = 1.0
    else:
        psi0 = rng.normal(size=spec.product_dim) + 1j * rng.normal(size=spec.product_dim)
        psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, t_max, 9)
    states = propagate(ham, psi0, times)
    dense_h = dr.hamiltonian(spec, h)
    expected = dr.propagate(dense_h, psi0, times)
    assert np.max(np.abs(states - expected)) <= TOL * scale(t_max * dense_h)

    record = evolve(ham, psi0, TimeGrid(t_max, 9), excitation_count(spec, h.scheme))
    n_exc = dr.excitation(spec, h.scheme)
    for series, op in ((record.energy, dense_h), (record.excitation, n_exc)):
        dense = np.real(np.sum(expected.conj() * (op @ expected), axis=0))
        assert np.max(np.abs(series - dense)) <= TOL * scale(t_max * dense_h, op)


@st.composite
def dispersive_models(draw):
    scheme = draw(st.sampled_from([LAMBDA, VEE]))
    spec = SpaceSpec(draw(st.integers(1, 3)), draw(st.integers(3, 5)))
    gap = draw(st.floats(2.5, 4.0))
    energies = (0.0, 0.0, gap) if scheme == LAMBDA else (0.0, gap, gap)
    h = HamiltonianSpec(scheme, energies, 1.0,
                        g31=draw(st.floats(0.01, 0.15)), g32=draw(st.floats(0.01, 0.15)),
                        g21=draw(st.floats(0.01, 0.15)))
    return spec, h


@given(dispersive_models(), st.integers(2, 3))
def test_dispersive_residual_matches_dense(model, guard):
    spec, h = model
    try:
        small_params(h)
    except ValueError:
        assume(False)
    assume(guard <= spec.n_max)
    sectors = sector_runs(excitation_count(spec, h.scheme), _transfer_block(spec, h.scheme, guard))
    block = _residual(spec, h, sectors, _generators(spec, h.scheme))[-1]
    dense = dense_block_residual(spec, h, guard)
    assert abs(block - dense) <= TOL * scale(dr.hamiltonian(spec, h))
    transformed = effective_transform(spec, h).mat
    assert np.max(np.abs(transformed - transformed.conj().T)) <= TOL * scale(transformed)


# --- eigh size guard ----------------------------------------------------------

def largest_sector(spec: SpaceSpec, scheme: str) -> int:
    table = index_map(spec)
    count = table.photons + table.occupations[:, 2]
    if scheme == VEE:
        count = count + table.occupations[:, 1]
    return int(np.bincount(count).max())


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_no_eigh_beyond_largest_excitation_sector(scheme, monkeypatch):
    spec = SpaceSpec(3, 6)
    if scheme == LAMBDA:
        h = HamiltonianSpec(LAMBDA, (0.0, 0.0, 3.0), 1.0, g31=0.1, g32=0.07)
    else:
        h = HamiltonianSpec(VEE, (0.0, 3.0, 3.0), 1.0, g31=0.1, g21=0.07)
    dims = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        dims.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    rotation_report(spec, h)
    effective_transform(spec, h)
    ham = build_hamiltonian(spec, h)
    psi0 = np.zeros(spec.product_dim, dtype=np.complex128)
    psi0[index_map(spec).flat((3, 0, 0), 2)] = 1.0
    evolve(ham, psi0, TimeGrid(10.0, 11), excitation_count(spec, scheme))
    assert dims, "no eigendecomposition was recorded"
    assert max(dims) <= largest_sector(spec, scheme) < spec.product_dim


# --- basis table against the per-index loops ----------------------------------

@pytest.mark.parametrize("atoms,n_max", [(1, 3), (2, 4), (3, 2)])
def test_basis_table_matches_split(atoms, n_max):
    spec = SpaceSpec(atoms, n_max)
    imap = index_map(spec)
    for k in range(spec.product_dim):
        occ, n = imap.split(k)
        assert tuple(imap.occupations[k]) == occ
        assert imap.photons[k] == n


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
@pytest.mark.parametrize("guard", [0, 1, 2])
def test_transfer_block_mask_matches_loop(scheme, guard):
    spec = SpaceSpec(2, 3)
    imap = index_map(spec)
    dim = spec.product_dim
    expected = np.zeros((dim, dim), dtype=bool)
    limit = spec.n_max - guard
    for r in range(dim):
        occ_r, n_r = imap.split(r)
        for c in range(dim):
            occ_c, n_c = imap.split(c)
            if n_r > limit or n_c != n_r:
                continue
            if scheme == LAMBDA:
                expected[r, c] = occ_r[2] == occ_c[2] and abs(occ_r[0] - occ_c[0]) == 1
            else:
                expected[r, c] = occ_r[0] == occ_c[0] and abs(occ_r[1] - occ_c[1]) == 1
    assert np.array_equal(transfer_block_mask(spec, scheme, guard), expected)


@pytest.mark.parametrize("flip", [1, -1])
@pytest.mark.parametrize("h", [HamiltonianSpec(LAMBDA, (0.0, 0.0, 3.0), 1.0, g31=0.1, g32=0.05),
                               HamiltonianSpec(VEE, (0.0, 3.0, 3.0), 1.0, g31=0.1, g21=0.05)])
def test_rotation_residual_matches_dense(h, flip, monkeypatch):
    """max |U H U^dag - H_red| over every element, with the layout's sign and with the
    wrong one, against the dense product of the same U."""
    lay = operators.LAYOUTS[h.scheme]
    monkeypatch.setitem(operators.LAYOUTS, h.scheme, replace(lay, sign=flip * lay.sign))
    spec = SpaceSpec(2, 4)
    residual = rotation_report(spec, h)
    u = dr.lift_atomic(spec, mode_rotation_unitary(spec, h).mat)
    dense = np.max(np.abs(u @ dr.hamiltonian(spec, h) @ u.conj().T
                          - dr.hamiltonian(spec, reduced_hamiltonian(h))))
    assert abs(residual - dense) <= TOL * scale(dr.hamiltonian(spec, h))
    assert (residual <= TOL) == (flip == 1)
