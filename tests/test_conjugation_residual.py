"""``operators.conjugation_residual`` against the dense formula.

The kernel returns the largest |W H W^dag - reference| over a predicate, W the
ordered product of the unitaries, one sector of a conserved label at a time.  The
reference here is the same expression on the read-back ``mat`` arrays, with H from
``dense_reference``.  An operand with a stored block across two sectors is refused,
the runs of sectors change no bit, and no product operator is stored.  The dispersive
probe's residual against the closed-form effective H is the one against its transfer
term alone, bit for bit: the free part is diagonal, and the block holds none.
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
    _runs,
    conjugation_residual,
    conserved_product,
    element_sum,
    enhancement_factor,
    field_elements,
    lift,
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
    u = mode_rotation_unitary(spec, h)
    # the reduced H where the pair is degenerate, else H itself
    reference = build_hamiltonian(spec, reduced_hamiltonian(h) or h)
    count = excitation_count(spec, scheme)
    block = _transfer_block(spec, scheme, 1)
    for where in (None, block):
        expected, scale = dense_residual(spec, h, [u], reference, where)
        got = conjugation_residual(build_hamiltonian(spec, h), [u], reference, count, where)
        assert abs(got - expected) <= 1e-12 * scale
    if not split:
        assert conjugation_residual(build_hamiltonian(spec, h), [u], reference, count) <= 1e-10


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
        got = conjugation_residual(build_hamiltonian(spec, h), rotations, reference, count,
                                   where)
        assert abs(got - expected) <= 1e-12 * scale
        assert got > 0.0


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
    count = excitation_count(spec, scheme)
    for hh in (h, h_half):
        ham, _, got = _residual(spec, hh, block, generators)
        expected = conjugation_residual(ham, _rotations(hh, generators),
                                        prefactor_times_transfer(spec, hh), count, block)
        assert got == expected
        assert got > 0.0


@pytest.mark.parametrize("slot", ["h", "unitary", "reference"])
def test_an_operand_that_breaks_the_count_is_refused(slot):
    spec, h = model(VEE, False, 2)
    ham, u = build_hamiltonian(spec, h), mode_rotation_unitary(spec, h)
    a = lift(spec, element_sum(FIELD, spec, [field_elements(spec, "annihilate")]))
    operands = {"h": ham, "unitary": u, "reference": ham, slot: a}
    with pytest.raises(ValueError, match="across sectors"):
        conjugation_residual(operands["h"], [operands["unitary"]], operands["reference"],
                             excitation_count(spec, VEE))


@pytest.mark.parametrize("chunk", [1, 50, 2**30])
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_runs_of_sectors_change_no_bit(scheme, chunk, monkeypatch):
    """One run per size group, a few groups per run, or every group in one run."""
    spec, h = model(scheme, False, 4)
    rotations = _rotations(h, _generators(spec, scheme))
    reference = analytic_effective(spec, h)
    count = excitation_count(spec, scheme)
    ham = build_hamiltonian(spec, h)
    block = _transfer_block(spec, scheme, 2)
    default = conjugation_residual(ham, rotations, reference, count, block)
    monkeypatch.setattr(operators, "CHUNK_ENTRIES", chunk)
    assert conjugation_residual(ham, rotations, reference, count, block) == default


def test_runs_hold_at_most_chunk_entries_unless_one_group():
    spec = SpaceSpec(8, 16)
    layout = build_hamiltonian(spec, model(VEE, False, 8)[1])._layout
    runs = list(_runs(layout))
    assert [k for run in runs for k in range(len(layout.stacks))[run]] == list(
        range(len(layout.stacks)))
    for run in runs:
        entries = sum(where.stop - where.start for _, where, _ in layout.stacks[run])
        assert entries <= operators.CHUNK_ENTRIES or run.stop - run.start == 1
    assert len(runs) > 1


def test_the_kernel_stores_no_operator(monkeypatch):
    spec, h = model(LAMBDA, False, 3)
    ham, u = build_hamiltonian(spec, h), mode_rotation_unitary(spec, h)
    reference = build_hamiltonian(spec, reduced_hamiltonian(h))

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel built an operator")

    monkeypatch.setattr(OperatorMatrix, "__init__", refuse)
    assert conjugation_residual(ham, [u], reference, excitation_count(spec, LAMBDA)) <= 1e-10
