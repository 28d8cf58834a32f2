"""The one writer of the second-order operators, diag(f) S_ij from the labels.

operators.conserved_product writes f S_ij for a label function f that S_ij
conserves; dispersive.analytic_effective, verify_algebra and the weight diagram
all call it.  The diagram used to form its second-order operators as the
commutator [X, Y^dag] of its first-order transitions; that commutator, of the
dense transitions of ``dense_reference``, is the reference the labels must
reproduce.  A last test keeps the library free of names that only the tests use.
"""

import ast
import functools
from pathlib import Path

import numpy as np
import pytest

import dense_reference as dr
from trilevel.hilbert import SpaceSpec, index_map
from trilevel.operators import (
    ATOMIC,
    PRODUCT,
    OperatorMatrix,
    _one_block,
    conserved_product,
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
    """The former diagram operator: [first, second^dag] of the dense first-order
    transitions, stored as one block."""
    pairs = layout(scheme).pairs
    if alpha is None:
        ops = [dr.dressed(spec, i, j) for i, j in pairs]
    else:
        ops = [complex(alpha) * dr.atomic(spec, i, j) for i, j in pairs]
    mat = dr.commutator(ops[0], ops[1].conj().T)
    space = PRODUCT if alpha is None else ATOMIC
    return OperatorMatrix(space, spec, mat.ravel(), _one_block(len(mat)))


def written_second_order(scheme, spec):
    la, lb = layout(scheme).degenerate
    f = functools.partial(enhancement_factor, scheme)
    return element_sum(PRODUCT, spec, [conserved_product(spec, lb, la, f)])


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_writer_equals_the_truncated_commutator_below_the_top_slab(scheme, spec):
    reference = commutator_second_order(scheme, spec, None).mat
    written = written_second_order(scheme, spec).mat
    below = index_map(spec).photons < spec.n_max
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
    ops = _scheme_operators(scheme, classical, spec)
    assert [order for _, _, order in ops[4:]] == [SECOND, SECOND]
    second = commutator_second_order(scheme, spec, alpha)
    reference_ops = ops[:4] + [(ops[4][0], second.elements(), SECOND),
                               (ops[5][0], second.dag().elements(), SECOND)]
    reference = DiagramLayout(scheme, classical, tuple(
        weight_of(op, cartan, label=label, order=order) for label, op, order in reference_ops))
    new = diagram_layout(scheme, classical, spec)
    assert weight_table(new) == weight_table(reference)
    assert render_svg(new) == render_svg(reference)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("atoms", range(1, 5))
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_diagram_builds_no_operator(scheme, atoms, alpha, monkeypatch):
    """The weights are read from the writers' elements: no OperatorMatrix, so no product."""
    def refuse(self, *args):
        raise AssertionError("diagram_layout built an OperatorMatrix")

    monkeypatch.setattr(OperatorMatrix, "__init__", refuse)
    layout_ = diagram_layout(scheme, alpha is not None, SpaceSpec(atoms, 3))
    assert len(layout_.vectors) == 6


# the public names nothing outside the tests refers to, each with its reason
UNREFERENCED = {
    "hamiltonian.classical_hamiltonian": "the classical-field limit, which the "
                                         "semiclassical sweep is to evolve",
    "weights.find_reflection": "the acceptance check that the classical weight sets "
                               "reflect onto each other",
    "hilbert.IndexMap.flat": "the inverse of split, through which the tests address basis "
                             "states by their labels",
}


def referred(tree, strings: bool = False) -> set[str]:
    """Names, attributes, imported names and, with ``strings``, string constants
    (perfbench names what it wraps; a JSON key in the package is no caller)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def attributes(node) -> set[str]:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def library_definitions(outside: set[str]) -> list[tuple[str, ast.AST, set[str]]]:
    """(dotted name, node, names referred to elsewhere) per module-level function and class
    in src/trilevel and per method of those classes.  Elsewhere is ``outside`` and the
    names of the other module-level statements; for a method, the attributes they and the
    class's other members read."""
    statements = [(stem, node) for stem, tree in (
        (path.stem, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py")))
        for node in tree.body]
    names = [referred(node) for _, node in statements]
    defined = [(f"{stem}.{node.name}", node, outside.union(*names[:k], *names[k + 1:]))
               for k, (stem, node) in enumerate(statements)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    read = [attributes(node) for _, node in statements]
    defined += [(f"{stem}.{node.name}.{member.name}", member, outside.union(
                    *read[:k], *read[k + 1:], *(attributes(m) for m in node.body if m is not member)))
                for k, (stem, node) in enumerate(statements) if isinstance(node, ast.ClassDef)
                for member in node.body if isinstance(member, ast.FunctionDef)]
    return defined


def test_every_public_library_name_has_a_caller_outside_the_tests():
    """Each public module-level function and class in src/trilevel is referred to
    outside its own definition, and each public method and property of those classes
    is read as an attribute outside its own definition: by the package, by scripts/
    or by perfbench/."""
    root = PACKAGE.parents[1]
    outside = set().union(*(referred(ast.parse(path.read_text()), strings=True) for folder in
                            ("scripts", "perfbench") for path in (root / folder).glob("*.py")))
    defined = library_definitions(outside)
    unreferenced = [name for name, node, elsewhere in defined
                    if not node.name.startswith("_") and node.name not in elsewhere]
    assert len(defined) > 100 and "lift" in outside
    assert "operators.OperatorMatrix.dag" in {name for name, _, _ in defined}
    assert sorted(unreferenced) == sorted(UNREFERENCED)


def test_every_private_library_name_has_a_caller_in_the_package():
    """Each private module-level function and class in src/trilevel, and each private
    method of those classes but the dunder ones, is referred to by the package outside
    its own definition; the tests, scripts/ and perfbench/ do not count."""
    defined = library_definitions(set())
    private = [(name, node, elsewhere) for name, node, elsewhere in defined
               if node.name.startswith("_") and not node.name.endswith("__")]
    assert {"operators._write", "operators.OperatorMatrix._hermitian_defect"} <= {
        name for name, _, _ in private}
    assert [name for name, node, elsewhere in private if node.name not in elsewhere] == []
