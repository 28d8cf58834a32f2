"""Every product-space operator is written from its atomic (x) field terms.

The references below are the dense constructions the package used before
tensor_sum: entries of one tensor product written from the nonzeros of both
factors, conjugate pairs through ``dag()``, sums through ``+``/``-`` and
scalar ``*`` starting from a zero operator.  The terms must reproduce them
exactly (``np.array_equal``), and the partition hint must give the exact
connected components.
"""

from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

import trilevel.dispersive as dispersive
from trilevel.dispersive import small_rotation
from trilevel.hamiltonian import (
    LAMBDA,
    VEE,
    HamiltonianSpec,
    _rotation_generator,
    build_hamiltonian,
    free_hamiltonian,
    interaction_hamiltonian,
)
from trilevel.hilbert import SpaceSpec, basis_table
from trilevel.operators import (
    DEFORMED_PAIRS,
    PRODUCT,
    OperatorMatrix,
    _wrap,
    atomic_operator,
    deformed_operator,
    diagonal,
    exp_antihermitian,
    field_operator,
)

ALL_PAIRS = DEFORMED_PAIRS + tuple((j, i) for i, j in DEFORMED_PAIRS)


# --- the old dense constructions -------------------------------------------

def old_product_operator(spec, atomic, field):
    ar, ac = np.nonzero(atomic)
    fr, fc = np.nonzero(field)
    f = spec.field_dim
    mat = np.zeros((spec.product_dim,) * 2, dtype=np.complex128)
    mat[ar[:, None] * f + fr, ac[:, None] * f + fc] = atomic[ar, ac][:, None] * field[fr, fc]
    return _wrap(PRODUCT, spec, mat)


def old_lift_atomic(spec, op):
    return old_product_operator(spec, op.mat, np.eye(spec.field_dim))


def old_deformed(spec, i, j):
    if (i, j) in DEFORMED_PAIRS:
        return old_product_operator(spec, atomic_operator(spec, i, j).mat,
                                    field_operator(spec, "annihilate").mat)
    return old_deformed(spec, j, i).dag()


def old_free(spec, h):
    table = basis_table(spec)
    diag = h.omega * table.photons
    for level, e in enumerate(h.energies):
        diag = diag + e * table.occupations[:, level]
    return diagonal(spec, diag)


def old_interaction(spec, h):
    out = OperatorMatrix(PRODUCT, spec, np.zeros((spec.product_dim,) * 2))
    for (i, j) in h.coupled_pairs():
        x = old_deformed(spec, i, j)
        out = out + h.coupling(i, j) * (x + x.dag())
    return out


def old_build(spec, h):
    return old_free(spec, h) + old_interaction(spec, h)


def old_rotation_generator(spec, h):
    la, lb = h.degenerate_pair
    return old_lift_atomic(spec, atomic_operator(spec, la, lb) - atomic_operator(spec, lb, la))


def old_small_rotation(spec, i, j, eps):
    x = old_deformed(spec, i, j)
    return exp_antihermitian(x - x.dag(), eps)


def search_labels(mat):
    """Smallest member of each connected component of mat != 0, by search."""
    adjacent = (mat != 0) | (mat != 0).T
    labels = np.full(len(mat), -1)
    for start in range(len(mat)):
        if labels[start] >= 0:
            continue
        labels[start] = start
        queue = deque([start])
        while queue:
            k = queue.popleft()
            for m in np.flatnonzero(adjacent[k]):
                if labels[m] < 0:
                    labels[m] = start
                    queue.append(m)
    return labels


# --- strategies --------------------------------------------------------------

sizes = st.tuples(st.integers(1, 3), st.integers(1, 4)).map(lambda t: SpaceSpec(*t))
couplings = st.one_of(st.just(0.0), st.floats(0.01, 2.0))


@st.composite
def hamiltonians(draw):
    scheme = draw(st.sampled_from((LAMBDA, VEE)))
    energies = tuple(sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))))
    return HamiltonianSpec(scheme, energies, draw(st.floats(0.1, 3.0)), g31=draw(couplings),
                           g32=draw(couplings), g21=draw(couplings))


def assert_same(new, old):
    assert np.array_equal(new.mat, old.mat)
    assert np.array_equal(new.blocks.labels, search_labels(new.mat))


# --- the operators equal the old constructions exactly -----------------------

@given(spec=sizes, h=hamiltonians())
def test_hamiltonians_equal_the_dense_sums(spec, h):
    assert_same(free_hamiltonian(spec, h), old_free(spec, h))
    assert_same(interaction_hamiltonian(spec, h), old_interaction(spec, h))
    assert_same(build_hamiltonian(spec, h), old_build(spec, h))


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_zero_coupling_writes_no_nonzero(scheme):
    spec = SpaceSpec(2, 3)
    h = HamiltonianSpec(scheme, (0.0, 1.0, 2.0), 1.0, g31=0.3)  # the second coupling is 0
    assert_same(build_hamiltonian(spec, h), old_build(spec, h))
    assert_same(interaction_hamiltonian(spec, h), old_interaction(spec, h))


@pytest.mark.parametrize("atoms,n_max", [(1, 3), (2, 4), (3, 2)])
@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_dressed_transitions_equal_the_old_ones(atoms, n_max, pair):
    spec = SpaceSpec(atoms, n_max)
    assert_same(deformed_operator(spec, *pair), old_deformed(spec, *pair))


@given(spec=sizes, h=hamiltonians())
def test_rotation_generator_equals_the_lifted_difference(spec, h):
    assert_same(_rotation_generator(spec, h), old_rotation_generator(spec, h))


@given(spec=sizes, pair=st.sampled_from(DEFORMED_PAIRS), eps=st.floats(-0.1, 0.1))
def test_small_rotation_equals_the_old_one(spec, pair, eps):
    assert_same(small_rotation(spec, *pair, eps), old_small_rotation(spec, *pair, eps))


# --- no dense operator arithmetic while building ------------------------------

@pytest.fixture
def arithmetic_calls(monkeypatch):
    calls = Counter()
    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "dag"):
        original = getattr(OperatorMatrix, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(OperatorMatrix, name, counted)
    return calls


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_building_operators_uses_no_dense_arithmetic(scheme, arithmetic_calls, monkeypatch):
    spec = SpaceSpec(2, 3)
    h = HamiltonianSpec(scheme, (0.0, 2.0, 2.0) if scheme == VEE else (0.0, 0.0, 2.0), 1.0,
                        g31=0.1, g32=0.2, g21=0.3)
    build_hamiltonian(spec, h)
    for pair in ALL_PAIRS:
        deformed_operator(spec, *pair)
    assert not arithmetic_calls

    # the rotation's generator is built before the checked exponential runs
    seen = []

    def recording(gen, theta):
        seen.append(dict(arithmetic_calls))
        return exp_antihermitian(gen, theta)

    monkeypatch.setattr(dispersive, "exp_antihermitian", recording)
    small_rotation(spec, 3, 1, 0.05)
    assert seen == [{}]
