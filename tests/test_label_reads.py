"""Operators and weights read off the basis labels, against the matrix round trips
they replace.

The references: the ladder operators of ``dense_reference`` read back with
``np.nonzero``, the weights as the least-squares fit of ``<M, [h, M]> / <M, M>``
on dense arrays with its proportionality residual, the transfer term of the
effective Hamiltonian as the dense product of the swap with the diagonal of f, and
the atomic index as a dict over ``enumerate_atomic_basis``.
"""

import itertools
import re

import numpy as np
import pytest

import dense_reference as dr
from test_batched_kernels import same_bits
from trilevel.dispersive import DispersiveParams, analytic_effective, transfer_prefactor
from trilevel.hamiltonian import LAMBDA, VEE, HamiltonianSpec, build_hamiltonian
from trilevel.hilbert import IndexMap, SpaceSpec, enumerate_atomic_basis, index_map
from trilevel.operators import (
    ATOMIC,
    DEFORMED_PAIRS,
    FIELD,
    LEVELS,
    PRODUCT,
    OperatorMatrix,
    _one_block,
    atomic_term,
    deformed_operator,
    element_sum,
    enhancement_factor,
    field_elements,
    identity_elements,
    tensor_sum,
    transition_elements,
)
from trilevel.weights import (
    TOL_WEIGHT,
    NotAWeightVectorError,
    _scheme_operators,
    _snap_rational,
    cartan_choice,
    weight_of,
)

KINDS = ("annihilate", "create", "number")


# --- ladder operators ---------------------------------------------------------------

@pytest.mark.parametrize("n_max", [1, 2, 5, 16, 40])
@pytest.mark.parametrize("kind", KINDS)
def test_field_elements_are_the_nonzeros_of_the_dense_reference(kind, n_max):
    spec = SpaceSpec(1, n_max)
    dense = dr.field(spec, kind)
    rows, cols = np.nonzero(dense)
    stored = element_sum(FIELD, spec, [field_elements(spec, kind)])
    for got in (field_elements(spec, kind), stored.elements()):
        assert np.array_equal(got[0], rows) and np.array_equal(got[1], cols)
        assert same_bits(got[2], dense[rows, cols])
    assert same_bits(stored.mat, dense)


def test_unknown_field_kind_rejected():
    with pytest.raises(ValueError, match="unknown field operator kind"):
        field_elements(SpaceSpec(1, 2), "squeeze")


# --- weights ------------------------------------------------------------------------

def fitted_weight(op, cartan):
    """(kappa1, kappa2) by the least-squares proportionality fit on dense matrices."""
    m = op.mat
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        raise NotAWeightVectorError("zero operator has no weight")
    kappas = []
    for h in (cartan.h1, cartan.h2):
        comm = dr.commutator(np.diag(h), m)
        fit = np.vdot(m, comm) / np.vdot(m, m)
        if abs(fit.imag) > TOL_WEIGHT:
            raise NotAWeightVectorError(f"complex eigenvalue {fit!r}")
        if np.max(np.abs(comm - fit.real * m)) / scale > TOL_WEIGHT:
            raise NotAWeightVectorError("commutator is not proportional")
        kappas.append(_snap_rational(float(fit.real)))
    return tuple(kappas)


def candidate_operators(scheme, classical, spec, alpha):
    """The diagram's operators, every (dressed) transition, the identity, every
    nonzero commutator of two transitions, and mixtures and zeros."""
    space = ATOMIC if classical else PRODUCT
    ops = [element_sum(space, spec, [elements])
           for _, elements, _ in _scheme_operators(scheme, classical, spec, alpha)]
    if classical:
        singles = [element_sum(ATOMIC, spec, [transition_elements(spec, i, j)])
                   for i, j in itertools.product(LEVELS, repeat=2)]
        ops += singles + [element_sum(ATOMIC, spec, [identity_elements(spec.atomic_dim)])]
    else:
        singles = [deformed_operator(spec, i, j) for i, j in DEFORMED_PAIRS]
        singles += [op.dag() for op in singles]
        ops += singles + [tensor_sum(spec, [atomic_term(spec, 2, 2)]),
                          element_sum(PRODUCT, spec, [identity_elements(spec.product_dim)])]

    def dense(mat):
        return OperatorMatrix(space, spec, mat.ravel(), _one_block(len(mat)))

    ops += [dense(m.mat @ n.mat - n.mat @ m.mat) for m, n in itertools.combinations(singles, 2)]
    first, second, last = (singles[k].mat for k in (0, 1, -1))
    ops += [dense(first + second), dense(first - 2.0 * last), dense(0.0 * first),
            dense(first - first)]
    return ops


@pytest.mark.parametrize("spec", [SpaceSpec(1, 3), SpaceSpec(2, 2), SpaceSpec(3, 4)])
@pytest.mark.parametrize("classical,alpha", [(False, 1.0), (True, 1.0), (True, 0.3 - 1.2j)])
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_label_gap_weights_equal_the_least_squares_fit(scheme, classical, alpha, spec):
    cartan = cartan_choice(scheme, spec, ATOMIC if classical else PRODUCT)
    rejected = 0
    for k, op in enumerate(candidate_operators(scheme, classical, spec, alpha)):
        try:
            expected = fitted_weight(op, cartan)
        except NotAWeightVectorError:
            with pytest.raises(NotAWeightVectorError):
                weight_of(op.elements(), cartan)
            rejected += 1
            continue
        assert weight_of(op.elements(), cartan).kappa == expected, k
    assert rejected >= 4  # two mixtures, two zeros


# --- effective Hamiltonian ----------------------------------------------------------

@pytest.mark.parametrize("spec", [SpaceSpec(1, 3), SpaceSpec(2, 5), SpaceSpec(4, 6)])
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_effective_hamiltonian_is_the_free_diagonal_and_the_swap_times_f(scheme, spec):
    """Off the diagonal, the prefactor times the swap times diag(f); on it, the bits of
    H's diagonal, as both write the free terms alone there, in the same order."""
    h = HamiltonianSpec(scheme, (0.0, 3.0, 3.0) if scheme == VEE else (0.0, 0.0, 3.0), 1.0,
                        g31=0.1, g32=0.1, g21=0.1)
    p = DispersiveParams(scheme, 0.0, {}, {(3, 1): -0.05, (2, 1): -0.05}, 1.0)
    la, lb = h.degenerate_pair
    table = index_map(spec)
    swap = tensor_sum(spec, [atomic_term(spec, la, lb), atomic_term(spec, lb, la)])
    reference = swap.mat @ np.diag(enhancement_factor(scheme, table.occupations,
                                                      table.photons)).astype(complex)
    op = analytic_effective(spec, h, p)
    assert np.array_equal(op._layout.labels, dr.component_labels(reference))
    off = op.mat - np.diag(np.diag(op.mat))
    assert same_bits(off, complex(transfer_prefactor(h, p)) * reference + 0.0)
    assert same_bits(np.diag(op.mat), np.diag(build_hamiltonian(spec, h).mat))


# --- atomic index table -------------------------------------------------------------

@pytest.mark.parametrize("atoms", range(1, 13))
def test_atomic_table_matches_the_enumerated_basis(atoms):
    states = enumerate_atomic_basis(atoms)
    imap = IndexMap(SpaceSpec(atoms, 1))
    assert imap.atomic_occupations.tolist() == [list(s) for s in states]
    expected = np.full((atoms + 1, atoms + 1), -1)
    for k, (n1, n2, _) in enumerate(states):
        expected[n1, n2] = k
    assert np.array_equal(imap.atomic_table, expected)
    assert not imap.atomic_table.flags.writeable
    assert not imap.atomic_occupations.flags.writeable
    index = {occ: k for k, occ in enumerate(states)}
    for occ in states:
        assert imap.atomic_index(occ) == index[occ]
        assert imap.atomic_index(list(occ)) == index[occ]
    for bad in [(atoms, 0), (atoms, 0, 0, 0), (atoms + 1, 0, 0), (0, 0, atoms - 1),
                (atoms + 1, -1, 0), (-1, 0, atoms + 1), (0, atoms + 1, -1)]:
        with pytest.raises(ValueError, match=re.escape(
                f"{bad} is not an occupation triple summing to {atoms}")):
            imap.atomic_index(bad)
