"""Batched kernels against the one-call-per-item code they replace.

Writing one run of size groups must store the same bits as that run's slice
of writing every group (zero signs included), a batched ``eigh`` the same
bits as one call per block, the stacked u3 check the same residuals as one
dense commutator per identity (``dense_reference``), and the column-wise CSV
writers the same bytes as the per-element ``repr`` writer.  Each reference
is kept in the tests, not in the package.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dr
import trilevel.cli as cli
import trilevel.hamiltonian as hamiltonian
import trilevel.operators as operators
from test_block_storage import cancelled, conserves, operator_pools, sectors
from trilevel.cli import main, write_trajectory_csv
from trilevel.dynamics import TrajectoryRecord
from trilevel.hamiltonian import HamiltonianSpec, build_hamiltonian, excitation_count
from trilevel.hilbert import SpaceSpec
from trilevel.operators import (
    LEVELS,
    BlockPartition,
    TOL_ALGEBRA,
    OperatorMatrix,
    _one_block,
    _runs,
    _write,
    conjugation_residual,
    element_sum,
    hermitian_blocks,
    unitary_exp,
    verify_algebra,
)

SPECIAL = (0.0, -0.0, 1e-05, 1e16, 5e-324, math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0)
HEADER = "t,pop1,pop2,pop3,n_photon,norm,excitation,leakage"


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


def reblocked_operators(pool, first, second):
    m, n = pool[first], pool[second]
    negated_zeros = OperatorMatrix(m.space, m.spec, -(0 * m._data), m._layout)
    return [m, n, negated_zeros, cancelled(m), m @ n, pool["exp(H)"], pool["dense"]]


@settings(max_examples=60, deadline=None)
@given(operator_pools())
def test_reblocking_equals_writing_the_elements(model):
    """A run of size groups written alone is that run's slice of the whole write, and the
    whole write in the stored partition is the stored storage with zeros as +0.0."""
    _, pool, first, second = model
    count = np.rint(pool["excitation"].mat.diagonal().real)
    for op in reblocked_operators(pool, first, second):
        elements = op.elements()
        for layout in (sectors(count), _one_block(op.dim), op._layout):
            if not conserves(op, layout):
                continue  # a stored block across two blocks of the layout
            written = _write(layout, *elements)
            if layout is op._layout:
                assert same_bits(written, op._data + 0.0)
            every_group = [slice(k, k + 1) for k in range(len(layout.stacks))]
            for run in list(_runs(layout)) + every_group:  # a run of size groups at a time
                stacks = layout.stacks[run]
                assert same_bits(_write(layout, *elements, run),
                                 written[stacks[0][1].start:stacks[-1][1].stop])


def test_zero_elements_between_blocks_are_dropped():
    """Zero elements off the blocks (element_sum writes them for zero coefficients) leave
    every run's storage as it is, also where their slot would lie past the run's end."""
    layout = BlockPartition.from_labels(np.array([0, 1, 1]))  # blocks {0} and {1, 2}
    rows, cols = np.array([0, 1, 0, 2]), np.array([0, 2, 2, 0])
    values = np.array([1.0, 2.0, -0.0, 0.0], dtype=np.complex128)
    stored = np.array([1.0, 0.0, 2.0, 0.0, 0.0], dtype=np.complex128)  # [1], [[0, 2], [0, 0]]
    for run, part in ((slice(0, 1), slice(0, 1)), (slice(1, 2), slice(1, 5)),
                      (slice(None), slice(None))):
        assert same_bits(_write(layout, rows, cols, values, run), stored[part])


@settings(max_examples=40, deadline=None)
@given(operator_pools(), st.integers(0, 2**32 - 1))
def test_batched_eigh_equals_one_call_per_block(model, seed):
    spec, pool, _, _ = model
    support = np.random.default_rng(seed).random(spec.product_dim) < 0.3
    dense = pool["dense"]
    rows, cols, values = pool["generator"].elements()
    for op in (pool["H"], pool["x + x^dag"], pool["excitation"], pool["diagonal"],
               element_sum(operators.PRODUCT, spec, [(rows, cols, 1j * values)]),
               OperatorMatrix(operators.PRODUCT, spec, (dense.mat + dense.mat.conj().T).ravel(),
                              _one_block(spec.product_dim))):
        for mask in (None, support):
            stacks = list(operators.stored_stacks(op, mask))
            batched = list(hermitian_blocks(op, mask))
            assert len(batched) == len(stacks)
            for (idx, stack), (idx_b, w, v) in zip(stacks, batched):
                assert np.array_equal(idx, idx_b)
                for k, block in enumerate(stack):
                    w_ref, v_ref = np.linalg.eigh(block)
                    assert same_bits(w[k], w_ref) and same_bits(v[k], v_ref)


def reference_u3(spec: SpaceSpec) -> list[tuple[str, float]]:
    """One dense commutator and right-hand side per identity."""
    s = {(i, j): dr.atomic(spec, i, j) for i in LEVELS for j in LEVELS}
    out = []
    for i, j, k, l in itertools.product(LEVELS, repeat=4):
        rhs = (j == k) * s[(i, l)] - (i == l) * s[(k, j)]
        resid = float(np.max(np.abs(dr.commutator(s[(i, j)], s[(k, l)]) - rhs)))
        out.append((f"[S{i}{j}, S{k}{l}]", resid))
    return out


@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_stacked_u3_residuals_equal_the_per_identity_ones(atoms):
    spec = SpaceSpec(atoms, 2)
    reports = verify_algebra(spec, "u3")
    reference = reference_u3(spec)
    assert reports == reference
    assert all(r <= TOL_ALGEBRA for _, r in reports)
    if atoms > 1:
        assert any(resid > 0.0 for _, resid in reference)  # rounding shows, so equality bites


def test_u3_check_holds_a_few_atomic_stacks_at_once():
    spec = SpaceSpec(12, 1)
    matrix_bytes = spec.atomic_dim ** 2 * 16
    tracemalloc.start()
    try:
        verify_algebra(spec, "u3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27 * matrix_bytes  # the nine S_ij and three-matrix temporaries, not 81 products


def reference_csv(record: TrajectoryRecord) -> str:
    """The per-element writer: repr(float(x)) of every sample, row by row."""
    lines = [HEADER]
    for k in range(len(record.times)):
        lines.append(",".join(repr(float(series[k])) for series in (
            record.times, record.pop1, record.pop2, record.pop3, record.n_photon,
            record.norm, record.excitation, record.leakage)))
    return "\n".join(lines) + "\n"


def record_of(columns: list[np.ndarray]) -> TrajectoryRecord:
    times, pop1, pop2, pop3, n_photon, norm, excitation, leakage = columns
    return TrajectoryRecord(times, pop1, pop2, pop3, n_photon, norm, excitation,
                            np.zeros_like(times), leakage, True)


@pytest.mark.parametrize("chunk", [cli.CSV_ROWS, 7, 1])
def test_trajectory_csv_matches_the_per_element_writer(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cli, "CSV_ROWS", chunk)
    rng = np.random.default_rng(3)
    distinct = rng.normal(size=40) * 10.0 ** rng.integers(-20, 20, size=40)
    repeated = np.resize(np.array(SPECIAL), 40)
    columns = [np.concatenate([repeated, distinct])[rng.permutation(80)] for _ in range(8)]
    columns[0] = np.concatenate([repeated, repeated])  # one column of repeats only
    columns[1] = np.concatenate([distinct, -distinct])  # every value distinct
    for record in (record_of(columns), record_of([c[:0] for c in columns])):
        write_trajectory_csv(tmp_path / "t.csv", record)
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(record).encode()
    assert "-0.0," in reference_csv(record_of(columns))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(width=64)), max_size=30),
       st.integers(0, 2**32 - 1))
def test_trajectory_csv_matches_the_per_element_writer_on_any_floats(tmp_path_factory,
                                                                       values, seed):
    rng = np.random.default_rng(seed)
    base = np.array(values, dtype=np.float64)
    record = record_of([base[rng.permutation(len(base))] for _ in range(8)])
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_trajectory_csv(path, record)
    assert path.read_bytes() == reference_csv(record).encode()


@pytest.mark.parametrize("chunk", [cli.CSV_ROWS, 5])
def test_spectrum_csv_matches_the_per_element_writer(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cli, "CSV_ROWS", chunk)
    conf = tmp_path / "vee.conf"
    conf.write_text("scheme = vee\natoms = 2\nn_max = 4\nE1 = 0.0\nE2 = 3.0\nE3 = 3.0\n"
                    "omega = 1.0\ng31 = 0.1\ng21 = 0.1\n")
    assert main(["spectrum", "--config", str(conf), "--out", str(tmp_path)]) == 0
    spectrum = hamiltonian.spectrum(
        SpaceSpec(2, 4), HamiltonianSpec("vee", (0.0, 3.0, 3.0), 1.0, g31=0.1, g21=0.1))
    lines = ["index,eigenvalue", *(f"{k},{repr(float(v))}" for k, v in enumerate(spectrum))]
    assert (tmp_path / "spectrum.csv").read_text() == "\n".join(lines) + "\n"


def test_reblocking_reads_no_elements():
    """Products, the sector residual and the batched eigh on operators of three partitions."""
    spec = SpaceSpec(3, 4)
    ham = build_hamiltonian(spec, HamiltonianSpec("vee", (0.0, 3.0, 3.0), 1.0,
                                                  g31=0.1, g21=0.1))
    x = operators.deformed_operator(spec, 3, 1)
    dense = OperatorMatrix(operators.PRODUCT, spec, (ham.mat + x.mat).ravel(),
                           _one_block(spec.product_dim))

    u = unitary_exp(ham, 0.3)
    for op in (ham @ x, x @ dense, dense @ ham):
        assert op.mat.shape == (spec.product_dim,) * 2
    assert conjugation_residual(ham, [u], ham, excitation_count(spec, "vee")) <= 1e-12
    assert len(list(hermitian_blocks(ham))) == len(ham._layout.groups)
