"""Every product-space operator is written from its atomic (x) field terms.

The first reference is ``dense_reference``: the Hamiltonian, its free and
interaction parts, the dressed transitions and the rotation generators as
dense arrays written from the labels.  The terms must reproduce them exactly
(``np.array_equal``), and the stored partition must be the connected
components that the dense search finds.

The second reference reads the dense factors of ``dense_reference`` with
``np.nonzero``, identity factors from ``np.eye``, and writes their tensor
products in term order.  Writing the elements straight from the labels must
store the same partition and the same bits, zero signs included.  A last test
runs 60 atoms in a fresh process, where one dense S_ij alone is 57 MB.
"""

import itertools
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import dense_reference as dr
import trilevel.dispersive as dispersive
from test_batched_kernels import same_bits
from trilevel.dispersive import (analytic_effective, small_params, small_rotation,
                                 transfer_prefactor)
from trilevel.hamiltonian import (
    LAMBDA,
    VEE,
    HamiltonianSpec,
    _free_terms,
    _rotation_generator,
    build_hamiltonian,
)
from trilevel.hilbert import SpaceSpec, index_map
from trilevel.operators import (
    ATOMIC,
    DEFORMED_PAIRS,
    FIELD,
    LEVELS,
    BlockPartition,
    OperatorMatrix,
    _component_labels,
    _write,
    deformed_operator,
    element_sum,
    enhancement_factor,
    field_elements,
    lift,
    tensor_sum,
    transition_elements,
    unitary_exp,
)

ALL_PAIRS = DEFORMED_PAIRS + tuple((j, i) for i, j in DEFORMED_PAIRS)


# --- strategies --------------------------------------------------------------

sizes = st.tuples(st.integers(1, 3), st.integers(1, 4)).map(lambda t: SpaceSpec(*t))
couplings = st.one_of(st.just(0.0), st.floats(0.01, 2.0))


@st.composite
def hamiltonians(draw):
    scheme = draw(st.sampled_from((LAMBDA, VEE)))
    energies = tuple(sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))))
    return HamiltonianSpec(scheme, energies, draw(st.floats(0.1, 3.0)), g31=draw(couplings),
                           g32=draw(couplings), g21=draw(couplings))


def assert_same(new, dense):
    assert np.array_equal(new.mat, dense)
    assert np.array_equal(new._layout.labels, dr.component_labels(dense))


def uncoupled(h):
    return replace(h, g31=0.0, g32=0.0, g21=0.0)


def generator(spec, i, j):
    """The dense i (X_ij - X_ji)."""
    return 1j * (dr.dressed(spec, i, j) - dr.dressed(spec, j, i))


# --- the operators equal the dense reference exactly -----------------------------

@given(spec=sizes, h=hamiltonians())
def test_hamiltonians_equal_the_dense_sums(spec, h):
    free = dr.hamiltonian(spec, uncoupled(h))
    assert_same(tensor_sum(spec, _free_terms(spec, h)), free)
    assert_same(build_hamiltonian(spec, h), dr.hamiltonian(spec, h))


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_zero_coupling_writes_no_nonzero(scheme):
    spec = SpaceSpec(2, 3)
    h = HamiltonianSpec(scheme, (0.0, 1.0, 2.0), 1.0, g31=0.3)  # the second coupling is 0
    assert_same(build_hamiltonian(spec, h), dr.hamiltonian(spec, h))


@pytest.mark.parametrize("atoms,n_max", [(1, 3), (2, 4), (3, 2), (4, 2)])
@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_dressed_transitions_equal_the_dense_reference(atoms, n_max, pair):
    spec = SpaceSpec(atoms, n_max)
    assert_same(deformed_operator(spec, *pair), dr.dressed(spec, *pair))


@given(spec=sizes, h=hamiltonians())
def test_rotation_generator_equals_the_lifted_difference(spec, h):
    la, lb = h.degenerate_pair
    dense = 1j * (dr.lift_atomic(spec, dr.atomic(spec, la, lb) - dr.atomic(spec, lb, la)))
    assert_same(_rotation_generator(spec, h), dense)


@given(spec=sizes, pair=st.sampled_from(DEFORMED_PAIRS), eps=st.floats(-0.1, 0.1))
def test_small_rotation_equals_the_dense_exponential(spec, pair, eps):
    u = small_rotation(spec, *pair, eps)
    assert np.max(np.abs(u.mat - dr.dense_exp(generator(spec, *pair), eps))) <= 1e-13
    assert np.array_equal(u._layout.labels, dr.component_labels(generator(spec, *pair)))


# --- no dense operator arithmetic while building ------------------------------

@pytest.fixture
def arithmetic_calls(monkeypatch):
    calls = Counter()
    for name in ("__matmul__", "dag"):  # the operator arithmetic there is
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
        return unitary_exp(gen, theta)

    monkeypatch.setattr(dispersive, "unitary_exp", recording)
    small_rotation(spec, 3, 1, 0.05)
    assert seen == [{}]


# --- bit for bit against the dense factors ----------------------------------------

def dense_factor_sum(spec, terms, dense=None):
    """(labels, flat storage) of the sum of c (atomic (x) field) over dense factors,
    each read with np.nonzero and written in term order, then of the product-space
    matrix ``dense``, if given, read with np.nonzero."""
    f = spec.field_dim
    rows, cols, values = [], [], []
    for c, atomic, field in terms:
        ar, ac = np.nonzero(atomic)
        fr, fc = np.nonzero(field)
        rows.append((ar[:, None] * f + fr).ravel())
        cols.append((ac[:, None] * f + fc).ravel())
        values.append((c * (atomic[ar, ac][:, None] * field[fr, fc])).ravel())
    if dense is not None:
        r, c = np.nonzero(dense)
        rows.append(r)
        cols.append(c)
        values.append(dense[r, c])
    rows, cols, values = (np.concatenate(x) for x in (rows, cols, values))
    written = values != 0
    layout = BlockPartition.from_labels(
        _component_labels(spec.product_dim, rows[written], cols[written]))
    return layout.labels, _write(layout, rows, cols, values)


def dense_dressed(spec, i, j, c=1):
    kind = "annihilate" if (i, j) in DEFORMED_PAIRS else "create"
    return c, dr.atomic(spec, i, j), dr.field(spec, kind)


def dense_terms(spec, h):
    """Name -> dense-factor terms of every operator written from terms, and the
    operator under that name as the package builds it now."""
    eye_atomic, eye_field = np.eye(spec.atomic_dim), np.eye(spec.field_dim)
    la, lb = h.degenerate_pair
    free = [(h.omega, eye_atomic, dr.field(spec, "number"))] + [
        (e, dr.atomic(spec, i, i), eye_field) for i, e in enumerate(h.energies, start=1)]
    interaction = [dense_dressed(spec, a, b, h.coupling(i, j))
                   for (i, j) in h.coupled_pairs() for a, b in ((i, j), (j, i))]
    terms = {
        "free": (free, tensor_sum(spec, _free_terms(spec, h))),
        "H": (free + interaction, build_hamiltonian(spec, h)),
        "rotation generator": ([(1j, dr.atomic(spec, la, lb), eye_field),
                                (-1j, dr.atomic(spec, lb, la), eye_field)],
                               _rotation_generator(spec, h)),
    }
    for i, j in ALL_PAIRS:
        terms[f"X{i}{j}"] = ([dense_dressed(spec, i, j)], deformed_operator(spec, i, j))
    for i, j in itertools.product(LEVELS, repeat=2):
        terms[f"lift S{i}{j}"] = ([(1, dr.atomic(spec, i, j), eye_field)], lift(
            spec, element_sum(ATOMIC, spec, [transition_elements(spec, i, j)])))
    for kind in ("annihilate", "create", "number"):
        terms[f"lift {kind}"] = ([(1, eye_atomic, dr.field(spec, kind))], lift(
            spec, element_sum(FIELD, spec, [field_elements(spec, kind)])))
    return terms


def recording(written):
    """tensor_sum that also appends each operator it writes to ``written``."""
    def tensor_sum_and_record(spec, terms):
        written.append(tensor_sum(spec, terms))
        return written[-1]
    return tensor_sum_and_record


def assert_same_storage(op, reference, name):
    labels, data = reference
    assert np.array_equal(op._layout.labels, labels), name
    assert same_bits(op._data, data), name


small_sizes = st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda t: SpaceSpec(*t))


@given(spec=small_sizes, h=hamiltonians())
def test_written_operators_store_the_bits_of_the_dense_factor_sum(spec, h):
    for name, (terms, op) in dense_terms(spec, h).items():
        assert_same_storage(op, dense_factor_sum(spec, terms), name)


@given(spec=small_sizes, h=hamiltonians(), eps=st.floats(-0.1, 0.1))
def test_dispersive_operators_store_the_bits_of_the_dense_factor_sum(spec, h, eps):
    try:
        small_params(h)
    except ValueError:  # a resonant pair or |eps| >= 1: h has no closed form
        assume(False)
    written = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(dispersive, "tensor_sum", recording(written))
        for i, j in DEFORMED_PAIRS:
            small_rotation(spec, i, j, eps)
        effective = analytic_effective(spec, h)
    references = [[dense_dressed(spec, i, j, 1j), dense_dressed(spec, j, i, -1j)]
                  for i, j in DEFORMED_PAIRS]  # the small-rotation generators
    assert len(written) == len(references)
    for k, (op, terms) in enumerate(zip(written, references)):
        assert_same_storage(op, dense_factor_sum(spec, terms), k)

    # the effective H: the free terms, then the prefactor times the dense swap of the
    # degenerate pair times diag(f)
    la, lb = h.degenerate_pair
    table = index_map(spec)
    swap = dr.lift_atomic(spec, dr.atomic(spec, la, lb) + dr.atomic(spec, lb, la))
    f = enhancement_factor(h.scheme, table.occupations, table.photons)
    transfer = complex(transfer_prefactor(h)) * (swap @ np.diag(f.astype(np.complex128)))
    free = dense_terms(spec, h)["free"][0]
    assert_same_storage(effective, dense_factor_sum(spec, free, transfer), "effective H")


# --- memory at 60 atoms -------------------------------------------------------------

STAGE_AT_SIXTY_ATOMS = """
from trilevel.hamiltonian import VEE, HamiltonianSpec, build_hamiltonian, rotation_report
from trilevel.hilbert import SpaceSpec
{stage}(SpaceSpec(60, 2), HamiltonianSpec(VEE, (0.0, 3.0, 3.0), 1.0, g31=0.1, g21=0.1))
# the child's own peak: ru_maxrss keeps the peak of the process that started it
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


@pytest.mark.parametrize("stage,limit_mb", [("build_hamiltonian", 100),
                                            ("rotation_report", 150)])
def test_sixty_atoms_are_built_without_dense_atomic_matrices(stage, limit_mb):
    """At A=60, n_max=2 (atomic dimension 1,891) the dense-factor build peaked at
    518 MB for either stage; a fresh process on one BLAS thread must stay below
    ``limit_mb``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", STAGE_AT_SIXTY_ATOMS.format(stage=stage)],
                         env=env, capture_output=True, text=True, check=True)
    assert int(run.stdout) / 1024 <= limit_mb  # VmHWM is in kB
