"""The one writer of the second-order operators, diag(f) S_ij from the labels.

operators.conserved_product writes f S_ij for a label function f that S_ij
conserves; dispersive.analytic_effective, verify_algebra and the weight diagram
all call it.  The diagram used to form its second-order operators as the block
product commutator [X, Y^dag] of its first-order transitions; that construction
is kept here as the reference the labels must reproduce.
"""

import ast
import functools
from pathlib import Path

import numpy as np
import pytest

from trilevel.hilbert import SpaceSpec, basis_table
from trilevel.operators import (
    PRODUCT,
    OperatorMatrix,
    atomic_operator,
    commutator,
    conserved_product,
    deformed_operator,
    element_sum,
    enhancement_factor,
    layout,
)
from trilevel.hamiltonian import LAMBDA, VEE
from trilevel.weights import (
    SECOND,
    DiagramLayout,
    _scheme_operators,
    cartan_choice,
    diagram_layout,
    render_svg,
    weight_of,
    weight_table,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trilevel"
SPECS = [SpaceSpec(1, 3), SpaceSpec(1, 6), SpaceSpec(2, 4), SpaceSpec(3, 5), SpaceSpec(4, 6)]
ALPHAS = [None, 1.0, 0.3 - 1.2j]  # None: the quantum diagram


def commutator_second_order(scheme, spec, alpha):
    """The former diagram operator: [first, second^dag] of the first-order transitions."""
    pairs = layout(scheme).pairs
    if alpha is None:
        ops = [deformed_operator(spec, i, j) for i, j in pairs]
    else:
        ops = [complex(alpha) * atomic_operator(spec, i, j) for i, j in pairs]
    return commutator(ops[0], ops[1].dag())


def written_second_order(scheme, spec):
    la, lb = layout(scheme).degenerate
    f = functools.partial(enhancement_factor, scheme)
    return element_sum(PRODUCT, spec, [conserved_product(spec, lb, la, f)])


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_writer_equals_the_truncated_commutator_below_the_top_slab(scheme, spec):
    reference = commutator_second_order(scheme, spec, None).mat
    written = written_second_order(scheme, spec).mat
    below = basis_table(spec).photons < spec.n_max
    difference = np.abs(reference - written)
    assert difference[np.ix_(below, below)].max() <= 1e-12
    assert difference[:, below][~below].max() == 0 and difference[below][:, ~below].max() == 0
    # a a^dag != n + 1 only in the top slab, where f = S33 - n or S11 + n + 1 differs
    top = difference[np.ix_(~below, ~below)].max()
    if spec.atoms >= 2 or scheme == VEE:
        assert top > 0.5
    else:  # one atom, lambda: X31 X23 vanishes where S21 acts, X23 X31 holds a^dag a only
        assert top <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_diagram_bytes_equal_those_of_the_commutator_operators(scheme, spec, alpha):
    classical = alpha is not None
    cartan = cartan_choice(scheme, spec, "atomic" if classical else PRODUCT)
    ops = _scheme_operators(scheme, classical, spec, alpha or 1.0)
    assert [order for _, _, order in ops[4:]] == [SECOND, SECOND]
    second = commutator_second_order(scheme, spec, alpha)
    reference_ops = ops[:4] + [(ops[4][0], second, SECOND), (ops[5][0], second.dag(), SECOND)]
    reference = DiagramLayout(scheme, classical, tuple(
        weight_of(op, cartan, label=label, order=order) for label, op, order in reference_ops))
    new = diagram_layout(scheme, classical, spec, alpha=alpha or 1.0)
    assert weight_table(new) == weight_table(reference)
    assert render_svg(new) == render_svg(reference)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("atoms", range(1, 5))
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_diagram_makes_no_operator_product(scheme, atoms, alpha, monkeypatch):
    def refuse(self, other):
        raise AssertionError("diagram_layout multiplied two operators")

    monkeypatch.setattr(OperatorMatrix, "__matmul__", refuse)
    layout_ = diagram_layout(scheme, alpha is not None, SpaceSpec(atoms, 3), alpha=alpha or 1.0)
    assert len(layout_.vectors) == 6


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_classical_diagram_takes_an_amplitude_whose_square_overflows(scheme):
    """|alpha|^2 = inf still marks every S_ba move (inf times the zero imaginary part of
    each value is nan, with a warning), so the weights are those of alpha = 1."""
    spec = SpaceSpec(2, 1)
    huge, one = (diagram_layout(scheme, True, spec, alpha=a) for a in (1e200, 1.0))
    assert weight_table(huge) == weight_table(one)


def test_only_operators_refers_to_commutator():
    """commutator stays public (and the test reference) but no library module uses it."""
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("operators.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            if "commutator" in names:
                users.append(path.name)
    assert len(list(PACKAGE.glob("*.py"))) >= 8
    assert users == []
