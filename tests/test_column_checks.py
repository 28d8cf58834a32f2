"""The identity checks of ``verify_algebra`` on one-nonzero-per-column arrays.

Every factor of the checked identities is held as one row and one value per
column, products are gathers, and one residual helper evaluates an identity at
every (row, column) pair that any of its terms touches.  The kernel must give
the dense masked maximum bit for bit, and both modes must report exactly what
the block path reported, with no block product, no re-blocking and no dense
read.  The block-path check is kept here as the reference, not in the package:
dense products of the dressed transitions against the label diagonals times
S21 or S32, and for u3 the dense commutators of ``dense_reference``.
A last test runs the checks at 30 and 60 atoms in a fresh process.
"""

import functools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trilevel.operators as operators
from test_batched_kernels import reference_u3, same_bits
from trilevel.hilbert import SpaceSpec, index_map
from trilevel.operators import (
    LAMBDA,
    TOL_ALGEBRA,
    VEE,
    OperatorMatrix,
    _gather,
    _residual,
    atomic_term,
    deformed_operator,
    enhancement_factor,
    guarded_states,
    tensor_sum,
    verify_algebra,
)


def block_path_reports(spec: SpaceSpec, mode: str, guard: int = 1) -> list[tuple[str, float]]:
    """The check on the stored operators: their dense products, differences and masked
    maxima, with the right-hand sides as label diagonals times S21 or S32."""
    if mode == "u3":
        return reference_u3(spec)
    keep = guarded_states(spec, guard)
    table = index_map(spec)
    occ, num = table.occupations, table.photons
    s21, s32 = (tensor_sum(spec, [atomic_term(spec, i, j)]) for i, j in ((2, 1), (3, 2)))
    x31, x23, x12 = (deformed_operator(spec, i, j) for i, j in ((3, 1), (2, 3), (1, 2)))
    checks = [
        ("X23 X31 = n (S33 + 1) S21", (x23 @ x31).mat, num * (occ[:, 2] + 1), s21),
        ("X31 X23 = (n + 1) S33 S21", (x31 @ x23).mat, (num + 1) * occ[:, 2], s21),
        ("[X31, X23] = (S33 - n) S21", (x31 @ x23).mat - (x23 @ x31).mat,
         enhancement_factor(LAMBDA, occ, num), s21),
        ("[X31, X12] = (S11 + n + 1) S32", (x31 @ x12).mat - (x12 @ x31).mat,
         enhancement_factor(VEE, occ, num), s32),
    ]
    mask = keep[:, None] & keep[None, :]
    residuals = [float(np.max(np.abs(lhs - factor[:, None] * s.mat), where=mask, initial=0.0))
                 for _, lhs, factor, s in checks]
    return [(name, r) for (name, *_), r in zip(checks, residuals)]


# --- the checks build no block product and read no dense matrix --------------------

SMALL = [SpaceSpec(a, n) for a in (1, 2, 3) for n in (1, 2, 4)]


def test_both_modes_need_no_block_product_and_no_dense_read(monkeypatch):
    calls = [(spec, mode, guard) for spec in SMALL for mode in ("u3", "second_order")
             for guard in range(spec.n_max + 1)]
    expected = [block_path_reports(*call) for call in calls]

    def refuse(*args, **kwargs):
        raise AssertionError("the identity checks went through the block path")

    monkeypatch.setattr(OperatorMatrix, "__matmul__", refuse)
    monkeypatch.setattr(operators, "_write", refuse)
    monkeypatch.setattr(operators, "_dense", refuse)
    assert [verify_algebra(*call) for call in calls] == expected


# --- reports equal the block path ----------------------------------------------------

@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_reports_equal_the_block_path(atoms):
    nonzero = 0
    for n_max in range(1, 7):
        spec = SpaceSpec(atoms, n_max)
        for guard in range(n_max + 1):
            reports = verify_algebra(spec, "second_order", guard)
            assert reports == block_path_reports(spec, "second_order", guard)
            nonzero += sum(r > 0.0 for _, r in reports)
    assert nonzero > 0  # rounding shows, so equality bites
    spec = SpaceSpec(atoms, 1)
    assert verify_algebra(spec, "u3") == block_path_reports(spec, "u3")


# --- the kernel against dense numpy -------------------------------------------------

def column_forms(rng: np.random.Generator, dim: int, count: int):
    """Two stacked examples of ``count`` dim x dim matrices with at most one nonzero per
    column, some columns zero and some parts +-0.0, as (row, value) forms and dense
    arrays.  Parts are m 2**e with |m| <= 2**20: every real product is exact, so a complex
    product rounds once however it is evaluated, while sums of such values still round."""
    shape = (count, 2, dim)
    row = rng.integers(-1, dim, shape)
    parts = rng.integers(-2 ** 20, 2 ** 20, (2, *shape)) * 2.0 ** rng.integers(-24, 25, (2, *shape))
    parts[rng.random(parts.shape) < 0.15] = 0.0
    parts[rng.random(parts.shape) < 0.1] *= -1.0  # a sign flip: some zeros become -0.0
    value = parts[0] + 1j * parts[1]
    value[row < 0] = 0
    dense = np.zeros((count, 2, dim, dim), dtype=np.complex128)
    m, e, c = np.nonzero(row >= 0)
    dense[m, e, row[m, e, c], c] = value[m, e, c]
    return list(zip(row, value)), dense


def combination(ops, right):
    """values[0] op values[1] op ..., folded from the left or nested from the right."""
    def combine(*values):
        used = ops[:len(values) - 1]
        if right:
            return functools.reduce(lambda acc, vo: vo[1](vo[0], acc),
                                    zip(values[-2::-1], used[::-1]), values[-1])
        return functools.reduce(lambda acc, vo: vo[1](acc, vo[0]), zip(values[1:], used),
                                values[0])
    return combine


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.data())
def test_residual_is_the_dense_masked_max(dim, count, seed, data):
    rng = np.random.default_rng(seed)
    forms, dense = column_forms(rng, dim, count)
    terms, dense_terms = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        a, b = data.draw(st.tuples(st.integers(0, count - 1), st.integers(-1, count - 1)))
        if b < 0:
            terms.append(forms[a])
            dense_terms.append(dense[a])
        else:
            terms.append(_gather(forms[a], forms[b]))
            dense_terms.append(dense[a] @ dense[b])
    ops = data.draw(st.lists(st.sampled_from([np.add, np.subtract]), min_size=3, max_size=3))
    combine = combination(ops, data.draw(st.booleans()))
    mask = rng.random((dim, dim)) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    got = _residual(terms, combine, lambda r, c: mask[r, c])
    expected = np.max(np.abs(combine(*dense_terms)), axis=(-2, -1), where=mask, initial=0.0)
    assert same_bits(np.asarray(got, dtype=float), expected)
    unmasked = np.max(np.abs(combine(*dense_terms)), axis=(-2, -1), initial=0.0)
    assert same_bits(np.asarray(_residual(terms, combine), dtype=float), unmasked)


# --- memory at 30 and 60 atoms ------------------------------------------------------

CHECK_IN_A_FRESH_PROCESS = """
from trilevel.hilbert import SpaceSpec
from trilevel.operators import verify_algebra
verify_algebra({call})
# the child's own peak: ru_maxrss keeps the peak of the process that started it
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


@pytest.mark.parametrize("call", ['SpaceSpec(30, 40), "second_order", guard=2',
                                  'SpaceSpec(60, 1), "u3"'])
def test_large_checks_stay_small(call):
    """Joining partitions for the block products peaked near 720 MB for the second-order
    check at A=30, n_max=40, and the dense u3 stacks need 18 d^2 16 B (about 1 GB) at
    A=60; a fresh process on one BLAS thread must stay at or below 100 MB."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", CHECK_IN_A_FRESH_PROCESS.format(call=call)],
                         env=env, capture_output=True, text=True, check=True)
    assert int(run.stdout) / 1024 <= 100  # VmHWM is in kB
