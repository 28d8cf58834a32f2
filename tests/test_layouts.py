"""The one table of what tells the lambda layout from the vee layout.

Every layout-dependent value the package reads is pinned against literals of
the per-layout formulas, so a change to ``operators.LAYOUTS`` or to a read of
it shows; an unknown scheme name fails with the same error everywhere; and no
module but ``operators`` compares against a scheme name.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from trilevel.dispersive import small_params, transfer_block_mask, transfer_prefactor
from trilevel.hamiltonian import (HamiltonianSpec, bright_atomic_vector, excitation_count,
                                  excitation_operator, rotation_parameters)
from trilevel.hilbert import SpaceSpec, index_map
from trilevel.operators import (ATOMIC, LAMBDA, LAYOUTS, PRODUCT, SCHEMES, VEE,
                                enhancement_factor, layout)
from trilevel.weights import cartan_choice, diagram_layout

SRC = Path(__file__).resolve().parents[1] / "src" / "trilevel"

# the per-layout values of the code before the table, written out
FACTS = {
    LAMBDA: {"pairs": ((3, 1), (3, 2)), "rotation_order": ((3, 2), (3, 1)),
             "degenerate": (1, 2), "shared": 3, "sign": 1},
    VEE: {"pairs": ((3, 1), (2, 1)), "rotation_order": ((3, 1), (2, 1)),
          "degenerate": (2, 3), "shared": 1, "sign": -1},
}
LABELS = {
    (LAMBDA, False): ["aS31", "aS32", "a+S13", "a+S23", "(S33-n)S21", "(S33-n)S12"],
    (LAMBDA, True): ["alphaS31", "alphaS32", "alpha*S13", "alpha*S23",
                     "-|alpha|^2 S21", "-|alpha|^2 S12"],
    (VEE, False): ["aS31", "aS21", "a+S13", "a+S12", "(S11+n+1)S32", "(S11+n+1)S23"],
    (VEE, True): ["alphaS31", "alphaS21", "alpha*S13", "alpha*S12",
                  "+|alpha|^2 S32", "+|alpha|^2 S23"],
}


def spec_of(scheme, g31=0.07, g_second=0.11):
    """Degenerate pair, both detunings 2, distinct couplings (the unused one 0.13)."""
    if scheme == LAMBDA:
        return HamiltonianSpec(LAMBDA, (0.0, 0.0, 3.0), 1.0, g31=g31, g32=g_second, g21=0.13)
    return HamiltonianSpec(VEE, (0.0, 3.0, 3.0), 1.0, g31=g31, g32=0.13, g21=g_second)


def test_the_table_lists_exactly_the_two_layouts():
    assert SCHEMES == (LAMBDA, VEE) == tuple(LAYOUTS)


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_table_facts_and_their_spec_reads(scheme):
    lay, facts = layout(scheme), FACTS[scheme]
    assert lay is LAYOUTS[scheme]
    for name, value in facts.items():
        assert getattr(lay, name) == value
    h = spec_of(scheme)
    assert h.coupled_pairs() == facts["pairs"]
    assert h.degenerate_pair == facts["degenerate"]


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_mode_rotation_reads(scheme):
    h = spec_of(scheme)
    r = rotation_parameters(h)
    g_second = h.g32 if scheme == LAMBDA else h.g21
    assert r.angle == math.atan2(g_second, h.g31)
    assert r.effective_coupling == math.hypot(h.g31, g_second)
    s, c = math.sin(r.angle), math.cos(r.angle)
    assert r.dark_composition == ((-s, c) if scheme == LAMBDA else (c, -s))
    # bright amplitudes on the degenerate pair: (cos, sin) for lambda, (sin, cos) for vee
    bright = bright_atomic_vector(h, 1)
    la, lb = h.degenerate_pair
    assert (bright[la - 1], bright[lb - 1]) == ((c, s) if scheme == LAMBDA else (s, c))


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_prefactor_reads_eps_inner_times_g_outer(scheme):
    h = spec_of(scheme)
    eps = small_params(h)
    expected = eps[(3, 1)] * h.g32 if scheme == LAMBDA else eps[(2, 1)] * h.g31
    assert transfer_prefactor(h) == expected


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_transfer_block_slots(scheme):
    spec, guard = SpaceSpec(3, 4), 2
    imap = index_map(spec)
    occ, n = imap.occupations, imap.photons
    moved, spectator = (0, 2) if scheme == LAMBDA else (1, 0)  # slots, level - 1

    def same(x):
        return x[:, None] == x[None, :]

    inside = n <= spec.n_max - guard
    expected = (inside[:, None] & inside[None, :] & same(n) & same(occ[:, spectator])
                & (np.abs(occ[:, moved][:, None] - occ[:, moved][None, :]) == 1))
    assert expected.any()
    assert np.array_equal(transfer_block_mask(spec, scheme, guard), expected)


@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_excitation_and_enhancement_formulas(scheme):
    spec = SpaceSpec(3, 4)
    imap = index_map(spec)
    occ, n = imap.occupations, imap.photons
    count = n + occ[:, 2] + (occ[:, 1] if scheme == VEE else 0)
    assert np.array_equal(excitation_count(spec, scheme), count)
    factor = occ[:, 2] - n if scheme == LAMBDA else occ[:, 0] + n + 1
    got = enhancement_factor(scheme, occ, n)
    assert got.dtype == factor.dtype and np.array_equal(got, factor)
    mean = 2.718281828459045  # a mean photon number, as the sweep passes it
    one = (3, 0, 0) if scheme == LAMBDA else (0, 0, 3)
    expected = one[2] - mean if scheme == LAMBDA else one[0] + mean + 1
    assert enhancement_factor(scheme, one, mean) == expected


@pytest.mark.parametrize("space", [ATOMIC, PRODUCT])
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_cartan_pair(scheme, space):
    spec = SpaceSpec(3, 2)
    imap = index_map(spec)
    occ = imap.occupations if space == PRODUCT else imap.atomic_occupations
    inversions = [occ[:, 0] - occ[:, 1], occ[:, 1] - occ[:, 2]]  # S11 - S22, S22 - S33
    cartan = cartan_choice(scheme, spec, space)
    assert cartan.scheme == scheme
    for h, inversion in zip((cartan.h1, cartan.h2), inversions):
        expected = inversion if scheme == LAMBDA else -inversion
        assert h.dtype == np.float64 and np.array_equal(h, expected)


@pytest.mark.parametrize("classical", [False, True])
@pytest.mark.parametrize("scheme", [LAMBDA, VEE])
def test_diagram_labels(scheme, classical):
    layout_ = diagram_layout(scheme, classical, SpaceSpec(1, 2))
    assert [v.label for v in layout_.vectors] == LABELS[scheme, classical]


def _unknown_scheme_calls(name):
    spec = SpaceSpec(1, 2)
    return {
        "layout": lambda: layout(name),
        "HamiltonianSpec": lambda: HamiltonianSpec(name, (0.0, 0.0, 3.0), 1.0, g31=0.1, g32=0.1),
        "enhancement_factor": lambda: enhancement_factor(name, (1, 0, 0), 0.0),
        "excitation_operator": lambda: excitation_operator(spec, name),
        "cartan_choice": lambda: cartan_choice(name, spec),
        "diagram_layout": lambda: diagram_layout(name, False, spec),
    }


@pytest.mark.parametrize("call", list(_unknown_scheme_calls("")))
@pytest.mark.parametrize("name", ["lamda", "LAMBDA"])
def test_unknown_scheme_name_is_rejected(name, call):
    message = f"scheme must be one of ('lambda', 'vee'), got {name!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        _unknown_scheme_calls(name)[call]()


SCHEME_NAMES = {"LAMBDA", "VEE", "lambda", "vee"}


def _names_a_scheme(node) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in SCHEME_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in SCHEME_NAMES:
            return True
        if isinstance(sub, ast.Constant) and sub.value in SCHEME_NAMES:
            return True
    return False


def scheme_branches(tree):
    """Enclosing top-level name of every comparison, match case or dict key that
    names a scheme."""
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.match_case):
                operands = [node.pattern]
            elif isinstance(node, ast.Dict):
                operands = [k for k in node.keys if k is not None]
            else:
                continue
            if any(_names_a_scheme(x) for x in operands):
                out.append(getattr(top, "name", None))
    return out


def test_scheme_branches_live_in_the_table():
    found = {path.name: scheme_branches(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py")) if path.name != "operators.py"}
    assert {k: v for k, v in found.items() if v} == {}


def test_the_branch_check_sees_a_branch():
    tree = ast.parse("def f(s):\n    return 1 if s == LAMBDA else {'vee': 2}[s]\n")
    assert scheme_branches(tree) == ["f", "f"]
