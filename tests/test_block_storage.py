"""Block storage against dense numpy on the read-back ``mat``.

Every OperatorMatrix stores only its blocks.  ``dag`` and the masked maximum of
``conjugation_residual`` must equal the dense results exactly; products and
exponentials agree with dense numpy to rounding.  The exponential is that of
``dense_reference``.
No command reads a dense product-space matrix.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dr
import trilevel.dispersive as dispersive
import trilevel.operators as operators
from trilevel.cli import main
from trilevel.dispersive import transfer_block_mask
from trilevel.hamiltonian import (
    LAMBDA,
    VEE,
    HamiltonianSpec,
    build_hamiltonian,
    excitation_operator,
)
from trilevel.hilbert import SpaceSpec, index_map
from trilevel.operators import (
    PRODUCT,
    BlockPartition,
    OperatorMatrix,
    FIELD,
    _one_block,
    atomic_term,
    conjugation_residual,
    deformed_operator,
    element_sum,
    field_elements,
    guarded_states,
    identity_elements,
    lift,
    sector_runs,
    tensor_sum,
    unitary_exp,
)

TOL = 1e-12
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def scale(*mats: np.ndarray) -> float:
    return max(1.0, math.prod(float(np.max(np.abs(m))) for m in mats))


def rotation_generator(spec: SpaceSpec, h: HamiltonianSpec) -> OperatorMatrix:
    """i (S_ab - S_ba) (x) 1 of the degenerate pair (a, b): the generator of the mode
    rotation lifted to the product space, an operator of product-space blocks."""
    la, lb = h.degenerate_pair
    return tensor_sum(spec, [atomic_term(spec, la, lb, 1j), atomic_term(spec, lb, la, -1j)])


@st.composite
def operator_pools(draw, max_atoms=4):
    """Operators of one model with different partitions, both layouts, A <= max_atoms."""
    scheme = draw(st.sampled_from([LAMBDA, VEE]))
    spec = SpaceSpec(draw(st.integers(1, max_atoms)), draw(st.integers(1, 4)))
    energies = tuple(sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))))
    coupling = st.one_of(st.just(0.0), st.floats(0.01, 0.5))
    h = HamiltonianSpec(scheme, energies, draw(st.floats(0.5, 2.0)), g31=draw(coupling),
                        g32=draw(coupling), g21=draw(coupling))
    ham = build_hamiltonian(spec, h)
    x = deformed_operator(spec, *h.coupled_pairs()[0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sparse = rng.normal(size=(spec.product_dim,) * 2) * (rng.random((spec.product_dim,) * 2) < 0.05)
    every = np.arange(spec.product_dim)
    pool = {
        "H": ham,
        "x": x,
        "x + x^dag": element_sum(PRODUCT, spec, [x.elements(), x.dag().elements()]),
        "a": lift(spec, element_sum(FIELD, spec, [field_elements(spec, "annihilate")])),
        "excitation": excitation_operator(spec, scheme),
        "generator": rotation_generator(spec, h),
        "exp(H)": unitary_exp(ham, draw(st.floats(-2.0, 2.0))),
        "diagonal": element_sum(PRODUCT, spec,
                                [(every, every, rng.integers(-1, 2, size=len(every)))]),
        "dense": OperatorMatrix(PRODUCT, spec, (sparse + 1j * sparse.T).ravel(),
                                _one_block(spec.product_dim)),
    }
    names = sorted(pool)
    return spec, pool, draw(st.sampled_from(names)), draw(st.sampled_from(names))


def sectors(count: np.ndarray) -> BlockPartition:
    """The partition of the states by the value of ``count``."""
    _, first, inverse = np.unique(count, return_index=True, return_inverse=True)
    return BlockPartition.from_labels(first[inverse])


def conserves(op: OperatorMatrix, layout: BlockPartition) -> bool:
    """Whether every stored block of ``op`` lies inside one block of ``layout``."""
    return bool((layout.labels[op._layout.labels] == layout.labels).all())


def cancelled(m: OperatorMatrix) -> OperatorMatrix:
    """m - m, stored in m's blocks: zeros where m has its nonzeros."""
    return OperatorMatrix(m.space, m.spec, m._data - m._data, m._layout)


@settings(max_examples=60, deadline=None)
@given(operator_pools())
def test_elementwise_operations_equal_the_dense_ones(model):
    _, pool, first, _ = model
    m = pool[first]
    assert np.array_equal(m.dag().mat, m.mat.conj().T)
    assert m.is_hermitian() == (float(np.max(np.abs(m.mat - m.mat.conj().T))) <= 1e-12)
    rows, cols, values = m.elements()
    assert sorted(zip(rows.tolist(), cols.tolist())) == list(zip(*map(list, np.nonzero(m.mat))))
    assert np.array_equal(values, m.mat[rows, cols])


@settings(max_examples=60, deadline=None)
@given(operator_pools(max_atoms=3), st.integers(0, 2**32 - 1))
def test_masked_residual_equals_the_dense_masked_max(model, seed):
    """conjugation_residual by the identity is the masked maximum of op - reference over
    the sectors of the excitation count, exactly the dense masked max."""
    spec, pool, first, second = model
    count = np.rint(pool["excitation"].mat.diagonal().real)
    layout = sectors(count)
    rng = np.random.default_rng(seed)
    guard = int(rng.integers(0, spec.n_max + 1))
    keep = guarded_states(spec, guard)
    n2 = index_map(spec).occupations[:, 1]
    every = np.arange(spec.product_dim)
    one = element_sum(PRODUCT, spec, [identity_elements(spec.product_dim)])
    reference = pool[second] if conserves(pool[second], layout) else cancelled(pool["H"])
    # stored layouts that are not the sectors: cancelled values, the exponential's copy
    # of H's blocks, H's own components and the excitation count's singletons
    for op in (pool[first], cancelled(pool[first]), pool["exp(H)"], pool["H"],
               pool["excitation"]):
        if not conserves(op, layout):
            with pytest.raises(ValueError, match="across sectors"):
                conjugation_residual(op, [one], reference, sector_runs(count))
            continue
        labels = layout.labels
        inside = rng.choice(np.flatnonzero(labels == labels[rng.integers(len(labels))]), 2)
        predicates = [
            lambda r, c: n2[r] != n2[c],
            lambda r, c: keep[r] & keep[c],
            dispersive._transfer_block(spec, LAMBDA, guard),
            dispersive._transfer_block(spec, VEE, guard),
            lambda r, c: (r == inside[0]) & (c == inside[1]),
            lambda r, c: r < 0,
        ]
        outside = np.argwhere(labels[:, None] != labels[None, :])
        if len(outside):
            row, col = outside[rng.integers(len(outside))]
            predicates.append(lambda r, c: (r == row) & (c == col))
        difference = op.mat - reference.mat
        for where in predicates:
            mask = np.broadcast_to(where(every[:, None], every[None, :]), op.mat.shape)
            assert conjugation_residual(op, [one], reference, sector_runs(count, where)) == float(
                np.max(np.abs(difference[mask]), initial=0.0))


@settings(max_examples=60, deadline=None)
@given(operator_pools())
def test_products_match_dense(model):
    _, pool, first, second = model
    m, n = pool[first], pool[second]
    product = m @ n
    assert np.max(np.abs(product.mat - m.mat @ n.mat)) <= TOL * scale(m.mat, n.mat)


@settings(max_examples=40, deadline=None)
@given(operator_pools(), st.floats(-2.0, 2.0))
def test_exponentials_match_dense(model, t):
    _, pool, _, _ = model
    for h in (pool["H"], pool["x + x^dag"], pool["generator"], pool["diagonal"]):
        u = unitary_exp(h, t)
        assert np.max(np.abs(u.mat - dr.dense_exp(h.mat, t))) <= TOL * scale(t * h.mat)
        labels = h._layout.labels
        assert np.all(u.mat[labels[:, None] != labels[None, :]] == 0.0)


# --- the guard band of the transfer block --------------------------------------

@pytest.mark.parametrize("guard", [-1, 5, 20])
def test_transfer_block_mask_rejects_a_guard_outside_the_cutoff(guard):
    with pytest.raises(ValueError, match=r"guard must be in \[0, 4\]"):
        transfer_block_mask(SpaceSpec(2, 4), VEE, guard)


def test_dispersive_compare_rejects_a_guard_above_the_cutoff(tmp_path, capsys):
    out = tmp_path / "o"
    status = main(["dispersive-compare", "--config", str(CONFIGS / "vee.conf"),
                   "--out", str(out), "--guard", "20"])
    assert status == 2
    err = capsys.readouterr().err
    assert err == "config error: guard must be in [0, 8], got 20\n"


# --- no command builds a dense product-space matrix -----------------------------

SMALL = {
    LAMBDA: "scheme = lambda\nE1 = 0.0\nE2 = 0.0\nE3 = 3.0\ng32 = 0.1\ninitial.atom = 2,0,0\n",
    VEE: "scheme = vee\nE1 = 0.0\nE2 = 3.0\nE3 = 3.0\ng21 = 0.1\ninitial.atom = 0,0,2\n",
}
COMMON = ("atoms = 2\nn_max = 4\nomega = 1.0\ng31 = 0.1\nguard = 2\nt_max = 1000.0\n"
          "n_samples = 201\ninitial.field = fock:0\n")


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
@pytest.mark.parametrize("command,extra,status", [
    ("verify", (), 0),
    ("verify", ("--guard", "0"), 1),
    ("evolve", (), 0),
    ("dispersive-compare", (), 0),
    ("spectrum", (), 0),
    ("weights", (), 0),
])
def test_commands_build_no_dense_product_matrix(scheme, command, extra, status, tmp_path,
                                               monkeypatch):
    dense = operators._dense

    def refuse_product(op):
        if op.space == PRODUCT:
            raise AssertionError(f"{command} built a dense product-space matrix")
        return dense(op)

    monkeypatch.setattr(operators, "_dense", refuse_product)
    conf = tmp_path / "run.conf"
    conf.write_text(SMALL[scheme] + COMMON)
    assert main([command, "--config", str(conf), "--out", str(tmp_path / "o"), *extra]) == status


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_dispersive_compare_builds_no_dense_transfer_mask(scheme, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("dispersive-compare built the dense transfer mask")

    monkeypatch.setattr(dispersive, "transfer_block_mask", refuse)
    conf = tmp_path / "run.conf"
    conf.write_text(SMALL[scheme] + COMMON)
    assert main(["dispersive-compare", "--config", str(conf), "--out", str(tmp_path / "o")]) == 0


def test_a_product_mat_read_goes_through_the_patched_dense(monkeypatch):
    """Positive control for the test above: reading ``.mat`` of a product-space
    operator calls the function it patches, and building the operator calls it
    for no dense factor."""
    built = []
    dense = operators._dense

    def counting(op):
        built.append(op.space)
        return dense(op)

    monkeypatch.setattr(operators, "_dense", counting)
    deformed_operator(SpaceSpec(2, 4), 3, 1).mat
    assert built == [PRODUCT]
