"""``operators.conjugation_residual`` against the dense formula.

The kernel returns the largest |W H W^dag - reference| over a predicate, W the
ordered product of the unitaries, one run of sectors of a conserved label at a time,
each unitary applied from its own blocks.  The reference here is the same expression on
the read-back ``mat`` arrays, with H from ``dense_reference``, and, up to A = 8, the
same expression with W formed densely in each whole sector.  An operand with a stored
block across two sectors is refused, the runs of sectors change no bit, and no product
operator is stored.  The dispersive probe's residual against the closed-form effective
H is the one against its transfer term alone, bit for bit: the free part is diagonal,
and the block holds none.  The mode rotation, atomic since it acts on the atoms only,
enters as a product-space unitary through ``lift``.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

import dense_reference as dr
import trilevel.operators as operators
from trilevel.dispersive import (
    _generators,
    _residual,
    _rotations,
    _transfer_block,
    analytic_effective,
    transfer_prefactor,
)
from trilevel.hamiltonian import (
    LAMBDA,
    VEE,
    HamiltonianSpec,
    build_hamiltonian,
    excitation_count,
    mode_rotation_unitary,
    reduced_hamiltonian,
)
from trilevel.hilbert import SpaceSpec
from trilevel.operators import (
    FIELD,
    PRODUCT,
    OperatorMatrix,
    conjugation_residual,
    conserved_product,
    element_sum,
    enhancement_factor,
    field_elements,
    lift,
    sector_runs,
)

PAIR_ENERGIES = {(LAMBDA, False): (0.0, 0.0, 3.0), (LAMBDA, True): (0.0, 0.4, 3.0),
                 (VEE, False): (0.0, 3.0, 3.0), (VEE, True): (0.0, 2.6, 3.0)}


def model(scheme, split, atoms):
    second = "g32" if scheme == LAMBDA else "g21"
    spec = SpaceSpec(atoms, atoms + 2)
    return spec, HamiltonianSpec(scheme, PAIR_ENERGIES[scheme, split], 1.0, g31=0.1,
                                 **{second: 0.07})


def dense_residual(spec, h, unitaries, reference, where=None) -> tuple[float, float]:
    """The largest masked |W H W^dag - reference| on dense arrays, and the scale of
    the compared terms."""
    w = np.eye(spec.product_dim)
    for u in unitaries:
        w = w @ u.mat
    rotated = w @ dr.hamiltonian(spec, h) @ w.conj().T
    every = np.arange(spec.product_dim)
    mask = True if where is None else where(every[:, None], every[None, :])
    difference = np.abs(rotated - reference.mat)
    scale = max(1.0, float(np.max(np.abs(rotated))), float(np.max(np.abs(reference.mat))))
    return float(np.max(difference, where=mask, initial=0.0)), scale


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("split", [False, True], ids=["equal", "split"])
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_one_unitary_equals_the_dense_formula(scheme, split, atoms):
    spec, h = model(scheme, split, atoms)
    u = lift(spec, mode_rotation_unitary(spec, h))
    # the reduced H where the pair is degenerate, else H itself
    reference = build_hamiltonian(spec, reduced_hamiltonian(h) or h)
    count = excitation_count(spec, scheme)
    block = _transfer_block(spec, scheme, 1)
    for where in (None, block):
        expected, scale = dense_residual(spec, h, [u], reference, where)
        got = conjugation_residual(build_hamiltonian(spec, h), [u], reference,
                                   sector_runs(count, where))
        assert abs(got - expected) <= 1e-12 * scale
    if not split:
        assert conjugation_residual(build_hamiltonian(spec, h), [u], reference,
                                    sector_runs(count)) <= 1e-10


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("split", [False, True], ids=["equal", "split"])
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_two_unitaries_equal_the_dense_formula(scheme, split, atoms):
    spec, h = model(scheme, split, atoms)
    rotations = _rotations(h, _generators(spec, scheme))
    reference = analytic_effective(spec, h)
    count = excitation_count(spec, scheme)
    for where in (None, _transfer_block(spec, scheme, 2)):
        expected, scale = dense_residual(spec, h, rotations, reference, where)
        got = conjugation_residual(build_hamiltonian(spec, h), rotations, reference,
                                   sector_runs(count, where))
        assert abs(got - expected) <= 1e-12 * scale
        assert got > 0.0


def whole_sector_residual(ham, unitaries, reference, count, where) -> tuple[float, float]:
    """The largest masked |W H W^dag - reference| with W formed densely in each whole
    sector of ``count``, (((W1 W2) H) W2^dag) W1^dag, and the scale of the compared terms."""
    out, scale = 0.0, 1.0
    mats = [op.mat for op in (ham, *unitaries, reference)]
    for value in np.unique(count):
        s = np.flatnonzero(count == value)
        h, *w, ref = (m[np.ix_(s, s)] for m in mats)
        product = functools.reduce(np.matmul, w) @ h
        for u in reversed(w):
            product = product @ u.conj().T
        mask = where(s[:, None], s[None, :])
        out = max(out, float(np.max(np.abs(product - ref), where=mask, initial=0.0)))
        scale = max(scale, float(np.max(np.abs(product))), float(np.max(np.abs(ref))))
    return out, scale


@pytest.mark.parametrize("atoms", range(1, 9))
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_the_probe_equals_the_whole_sector_products(scheme, atoms):
    """At eps and at eps/2, as compare probes them: the rotations applied from their own
    blocks give the residual of W formed in each whole sector, within 1e-12 x the scale."""
    spec, h = model(scheme, False, atoms)
    h_half = replace(h, omega=h.omega - (h.energies[2] - h.energies[0] - h.omega))  # Delta31
    block, generators = _transfer_block(spec, scheme, 2), _generators(spec, scheme)
    count = excitation_count(spec, scheme)
    sectors = sector_runs(count, block)
    for hh in (h, h_half):
        ham, effective, got = _residual(spec, hh, sectors, generators)
        expected, scale = whole_sector_residual(ham, _rotations(hh, generators), effective,
                                                count, block)
        assert abs(got - expected) <= 1e-12 * scale


def prefactor_times_transfer(spec, h) -> OperatorMatrix:
    """transfer_prefactor times f (S_ab + S_ba) of the degenerate pair (a, b), with no free
    terms: the transfer term of the closed form alone."""
    a, b = h.degenerate_pair
    f = functools.partial(enhancement_factor, h.scheme)
    c = complex(transfer_prefactor(h))
    parts = (conserved_product(spec, i, j, f) for i, j in ((a, b), (b, a)))
    return element_sum(PRODUCT, spec, [(rows, cols, values * c) for rows, cols, values in parts])


@pytest.mark.parametrize("atoms", range(1, 9))
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_the_probe_residual_is_the_transfer_term_residual(scheme, atoms):
    """At eps and at eps/2, as compare probes them: the residual against the effective H
    that the probe builds equals the one against prefactor x T, every bit."""
    spec, h = model(scheme, False, atoms)  # equal detunings, as compare's order probe needs
    h_half = replace(h, omega=h.omega - (h.energies[2] - h.energies[0] - h.omega))  # Delta31
    block, generators = _transfer_block(spec, scheme, 2), _generators(spec, scheme)
    sectors = sector_runs(excitation_count(spec, scheme), block)
    for hh in (h, h_half):
        ham, _, got = _residual(spec, hh, sectors, generators)
        expected = conjugation_residual(ham, _rotations(hh, generators),
                                        prefactor_times_transfer(spec, hh), sectors)
        assert got == expected
        assert got > 0.0


@pytest.mark.parametrize("slot", ["h", "unitary", "reference"])
def test_an_operand_that_breaks_the_count_is_refused(slot):
    spec, h = model(VEE, False, 2)
    ham, u = build_hamiltonian(spec, h), lift(spec, mode_rotation_unitary(spec, h))
    a = lift(spec, element_sum(FIELD, spec, [field_elements(spec, "annihilate")]))
    operands = {"h": ham, "unitary": u, "reference": ham, slot: a}
    with pytest.raises(ValueError, match="across sectors"):
        conjugation_residual(operands["h"], [operands["unitary"]], operands["reference"],
                             sector_runs(excitation_count(spec, VEE)))


@pytest.mark.parametrize("chunk", [1, 50, 2**30])
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_runs_of_sectors_change_no_bit(scheme, chunk, monkeypatch):
    """One sector per run, a few sectors per run, or every sector in one run."""
    spec, h = model(scheme, False, 4)
    rotations = _rotations(h, _generators(spec, scheme))
    reference = analytic_effective(spec, h)
    count = excitation_count(spec, scheme)
    ham = build_hamiltonian(spec, h)
    block = _transfer_block(spec, scheme, 2)
    default = conjugation_residual(ham, rotations, reference, sector_runs(count, block))
    monkeypatch.setattr(operators, "CHUNK_ENTRIES", chunk)
    assert conjugation_residual(ham, rotations, reference, sector_runs(count, block)) == default


def test_runs_hold_at_most_chunk_entries_unless_one_sector():
    """Every state lies in one run, at a padded index of its sector's block, in ascending
    order; a run's padded stack holds at most CHUNK_ENTRIES entries or one sector."""
    count = excitation_count(SpaceSpec(8, 16), VEE)
    sectors = sector_runs(count)
    assert len(sectors.layouts) > 1
    for k, layout in enumerate(sectors.layouts):
        (m, size), states = layout.groups[0].shape, np.flatnonzero(sectors.run == k)
        assert m * size ** 2 <= operators.CHUNK_ENTRIES or m == 1
        block, slot = np.divmod(sectors.at[states], size)
        for i in range(m):
            inside = states[block == i]
            assert len(np.unique(count[inside])) == 1
            assert np.array_equal(slot[block == i], np.arange(len(inside)))


def test_the_kernel_stores_no_operator(monkeypatch):
    spec, h = model(LAMBDA, False, 3)
    ham, u = build_hamiltonian(spec, h), lift(spec, mode_rotation_unitary(spec, h))
    reference = build_hamiltonian(spec, reduced_hamiltonian(h))
    sectors = sector_runs(excitation_count(spec, LAMBDA))

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel built an operator")

    monkeypatch.setattr(OperatorMatrix, "__init__", refuse)
    assert conjugation_residual(ham, [u], reference, sectors) <= 1e-10
