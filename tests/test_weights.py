import math
from fractions import Fraction

import numpy as np
import pytest

import dense_reference as dr
from trilevel.hilbert import SpaceSpec
from trilevel.operators import (
    ATOMIC,
    PRODUCT,
    deformed_operator,
    element_sum,
    identity_elements,
    transition_elements,
)
from trilevel.hamiltonian import LAMBDA, VEE
from trilevel.weights import (
    BASIS_E1,
    BASIS_E2,
    NotAWeightVectorError,
    cartan_choice,
    diagram_layout,
    find_reflection,
    render_svg,
    weight_of,
    weight_table,
    weyl_candidates,
)


def test_basis_vectors_are_120_degrees_apart():
    dot = BASIS_E1[0] * BASIS_E2[0] + BASIS_E1[1] * BASIS_E2[1]
    angle = math.degrees(math.acos(dot))
    assert angle == pytest.approx(120.0, abs=0.1)


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
@pytest.mark.parametrize("space", [ATOMIC, PRODUCT])
def test_cartan_elements_are_the_dense_inversions(scheme, space):
    spec = SpaceSpec(2, 3)
    cartan = cartan_choice(scheme, spec, space)
    sign = 1 if scheme == LAMBDA else -1
    s = {i: dr.atomic(spec, i, i) for i in (1, 2, 3)}
    lifted = (lambda m: m) if space == ATOMIC else (lambda m: dr.lift_atomic(spec, m))
    for h, (i, j) in zip((cartan.h1, cartan.h2), ((1, 2), (2, 3))):
        assert np.array_equal(np.diag(h), sign * lifted(s[i] - s[j]))
    assert not dr.commutator(np.diag(cartan.h1), np.diag(cartan.h2)).any()


def test_identity_operator_has_zero_weight():
    spec = SpaceSpec(1, 3)
    cartan = cartan_choice(LAMBDA, spec, ATOMIC)
    identity = element_sum(ATOMIC, spec, [identity_elements(spec.atomic_dim)])
    w = weight_of(identity.elements(), cartan, label="1")
    assert w.kappa == (Fraction(0), Fraction(0))
    assert w.coords == (0.0, 0.0)


def test_dressed_lowering_weight_matches_eigen_equation():
    # numeric fit cross-checked against the raw eigen-equation
    spec = SpaceSpec(1, 3)
    cartan = cartan_choice(LAMBDA, spec, PRODUCT)
    x31 = deformed_operator(spec, 3, 1)
    w = weight_of(x31.elements(), cartan, label="aS31")
    assert w.kappa == (Fraction(-1), Fraction(-1))
    for h, kappa in zip((cartan.h1, cartan.h2), w.kappa):
        dense = dr.commutator(np.diag(h), x31.mat) - float(kappa) * dr.dressed(spec, 3, 1)
        assert np.max(np.abs(dense)) <= 1e-12


def test_conjugate_operator_has_opposite_weight():
    spec = SpaceSpec(1, 3)
    cartan = cartan_choice(LAMBDA, spec, PRODUCT)
    x32 = deformed_operator(spec, 3, 2)
    w = weight_of(x32.elements(), cartan)
    w_dag = weight_of(x32.dag().elements(), cartan)
    assert w_dag.kappa == (-w.kappa[0], -w.kappa[1])
    assert w_dag.coords == (-w.coords[0], -w.coords[1])


def commutator_elements(m, n):
    """Row, column and value of the nonzeros of the dense commutator [m, n]."""
    comm = (m @ n).mat - (n @ m).mat
    rows, cols = np.nonzero(comm)
    return rows, cols, comm[rows, cols]


def test_second_order_weight_is_sum_of_parents():
    spec = SpaceSpec(1, 3)
    cartan = cartan_choice(LAMBDA, spec, PRODUCT)
    x31 = deformed_operator(spec, 3, 1)
    x23 = deformed_operator(spec, 2, 3)
    w31 = weight_of(x31.elements(), cartan)
    w23 = weight_of(x23.elements(), cartan)
    w_comm = weight_of(commutator_elements(x31, x23), cartan, order="second")
    assert w_comm.kappa == (w31.kappa[0] + w23.kappa[0], w31.kappa[1] + w23.kappa[1])


def test_weight_additivity_exhaustive_over_scheme_set():
    # kappa([M, N]) = kappa(M) + kappa(N) whenever the commutator is nonzero
    spec = SpaceSpec(1, 3)
    for scheme in (LAMBDA, VEE):
        cartan = cartan_choice(scheme, spec, PRODUCT)
        pairs = ((3, 1), (3, 2)) if scheme == LAMBDA else ((3, 1), (2, 1))
        ops = []
        for (i, j) in pairs:
            ops.append(deformed_operator(spec, i, j))
            ops.append(deformed_operator(spec, j, i))
        for m in ops:
            for n in ops:
                comm = commutator_elements(m, n)
                if np.max(np.abs(comm[2]), initial=0.0) <= 1e-14:
                    continue
                wm, wn = weight_of(m.elements(), cartan), weight_of(n.elements(), cartan)
                wc = weight_of(comm, cartan)
                assert wc.kappa == (
                    wm.kappa[0] + wn.kappa[0], wm.kappa[1] + wn.kappa[1]
                )


def test_non_weight_vector_rejected():
    spec = SpaceSpec(1, 3)
    cartan = cartan_choice(LAMBDA, spec, ATOMIC)
    mixed = element_sum(ATOMIC, spec, [transition_elements(spec, 3, 1),
                                       transition_elements(spec, 2, 1)])
    with pytest.raises(NotAWeightVectorError):
        weight_of(mixed.elements(), cartan)
    zero = element_sum(ATOMIC, spec, [transition_elements(spec, 3, 1, 0.0)])
    with pytest.raises(NotAWeightVectorError):
        weight_of(zero.elements(), cartan)


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_quantum_layout_counts_and_pairing(scheme):
    layout = diagram_layout(scheme, classical=False, spec=SpaceSpec(1, 3))
    assert len(layout.vectors) == 6
    firsts = [v for v in layout.vectors if v.order == "first"]
    seconds = [v for v in layout.vectors if v.order == "second"]
    assert len(firsts) == 4 and len(seconds) == 2
    coords = {(round(v.coords[0], 9), round(v.coords[1], 9)) for v in firsts}
    for (x, y) in list(coords):
        assert (-x, -y) in coords  # conjugates appear as opposite vectors


def test_classical_layout_weights_do_not_depend_on_alpha():
    spec = SpaceSpec(2, 3)
    a = diagram_layout(LAMBDA, classical=True, spec=spec, alpha=1.0)
    b = diagram_layout(LAMBDA, classical=True, spec=spec, alpha=0.3 - 1.2j)
    assert [v.kappa for v in a.vectors] == [v.kappa for v in b.vectors]


def test_classical_reflection_between_schemes():
    spec = SpaceSpec(2, 3)
    lam = diagram_layout(LAMBDA, classical=True, spec=spec)
    vee = diagram_layout(VEE, classical=True, spec=spec)
    firsts = lambda layout: [v.coords for v in layout.vectors if v.order == "first"]
    mat, residual = find_reflection(firsts(lam), firsts(vee))
    assert residual <= 1e-12
    assert np.linalg.det(mat) < 0


def test_weyl_candidate_set():
    mats = weyl_candidates()
    assert len(mats) == 12
    dets = sorted(round(float(np.linalg.det(m))) for m in mats)
    assert dets == [-1] * 6 + [1] * 6


def test_reflection_search_failure_raises():
    square = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    stretched = [(2.0, 0.0), (0.0, 1.0), (-2.0, 0.0), (0.0, -1.0)]
    with pytest.raises(ValueError):
        find_reflection(square, stretched)


def test_weight_table_format():
    layout = diagram_layout(LAMBDA, classical=False, spec=SpaceSpec(1, 3))
    table = weight_table(layout)
    lines = table.splitlines()
    assert lines[0] == "operator,order,kappa1,kappa2,x,y"
    assert len(lines) == 7  # header + 6 vectors
    assert table.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "aS31" and first[1] == "first"
    assert float(first[4]) == pytest.approx(-0.5)


def test_render_svg_deterministic_and_styled():
    layout = diagram_layout(LAMBDA, classical=False, spec=SpaceSpec(1, 3))
    doc1 = render_svg(layout)
    doc2 = render_svg(layout)
    assert doc1 == doc2
    text = doc1.decode("utf-8")
    assert text.count("<line") == 6
    assert text.count("stroke-dasharray") == 2  # the two second-order vectors
    assert text.count('stroke-width="2.00"') == 4


def test_render_svg_rejects_empty_layout():
    layout = diagram_layout(LAMBDA, classical=False, spec=SpaceSpec(1, 3))
    empty = type(layout)(layout.scheme, layout.classical, ())
    with pytest.raises(ValueError):
        render_svg(empty)
