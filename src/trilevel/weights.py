"""Weight components of transition operators and the root-like diagram.

Each scheme fixes a commuting pair of population inversions (h1, h2), the
sign of operators.LAYOUTS times (S11 - S22, S22 - S33); an
operator M is a weight vector when [h_k, M] = kappa_k M, read off as the one
label gap h_k[r] - h_k[c] over the nonzeros (r, c) of M (the h_k are diagonal),
from the (rows, cols, values) that the operator writers produce; none is stored.
The pair (kappa1, kappa2) is drawn in a planar basis whose two directions are
angled at 120 degrees.  First-order (photon-dressed or classical) transitions
appear as thick solid vectors, the second-order commutators (written from the
labels) as dashed ones.  Commutation maps to vector addition on the diagram, and
replacing the field by a classical amplitude collapses the two schemes onto
weight sets related by a single reflection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
import csv

import numpy as np

from .hilbert import SpaceSpec, index_map
from .operators import (
    ATOMIC,
    PRODUCT,
    conserved_product,
    dressed_term,
    enhancement_factor,
    layout,
    term_elements,
    transition_elements,
)

TOL_WEIGHT = 1e-10

# planar basis: 120 degrees apart, unit length
BASIS_E1 = (1.0, 0.0)
BASIS_E2 = (math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0))

FIRST = "first"
SECOND = "second"

DEFAULT_STYLES = {
    FIRST: {"stroke_width": 2.0, "dash": None},
    SECOND: {"stroke_width": 1.5, "dash": "6,4"},
}


class NotAWeightVectorError(ValueError):
    """The commutator with a Cartan element is not proportional to the operator."""


@dataclass(frozen=True)
class CartanChoice:
    """Commuting inversion pair defining the weight components for a scheme, each the
    real diagonal of one inversion over the basis states of one space (cartan_choice)."""

    scheme: str
    h1: np.ndarray
    h2: np.ndarray


def cartan_choice(scheme: str, spec: SpaceSpec, space: str = ATOMIC) -> CartanChoice:
    """Inversions (S11 - S22, S22 - S33) for lambda and their negatives for vee
    (the layout's sign), each the diagonal sign (n_i - n_(i+1)) of the occupation
    labels on the atomic space or, for PRODUCT, on the product space."""
    sign = layout(scheme).sign
    imap = index_map(spec)
    occ = imap.occupations if space == PRODUCT else imap.atomic_occupations
    h1, h2 = ((sign * (occ[:, i] - occ[:, i + 1])).astype(float) for i in (0, 1))
    return CartanChoice(scheme, h1, h2)


@dataclass(frozen=True)
class WeightVector:
    """Snapped rational weight components and diagram coordinates."""

    label: str
    kappa: tuple[Fraction, Fraction]
    order: str
    coords: tuple[float, float]


def _snap_rational(value: float, max_denominator: int = 4) -> Fraction:
    best = min(
        (Fraction(round(value * q), q) for q in range(1, max_denominator + 1)),
        key=lambda f: abs(value - float(f)),
    )
    if abs(value - float(best)) > TOL_WEIGHT:
        raise NotAWeightVectorError(
            f"eigenvalue {value!r} does not snap to a small rational"
        )
    return best


def weight_of(elements: tuple, cartan: CartanChoice, label: str = "",
              order: str = FIRST) -> WeightVector:
    """Read kappa_k off the label gap h_k[r] - h_k[c] of the nonzeros (r, c) of an operator M,
    as [h_k, M]_rc = (h_k[r] - h_k[c]) M_rc for the diagonal h_k; ``elements`` are the
    (rows, cols, values) of M on the space of the h_k, each position written once.

    Raises NotAWeightVectorError when no value is nonzero, when a gap spreads wider
    than TOL_WEIGHT ([h_k, M] is not proportional to M) or is not a small rational.
    """
    rows, cols, values = elements
    rows, cols = rows[values != 0], cols[values != 0]
    if not len(rows):
        raise NotAWeightVectorError("zero operator has no weight")
    kappas = []
    for h in (cartan.h1, cartan.h2):
        gaps = h[rows] - h[cols]
        spread = np.ptp(gaps)
        if spread > TOL_WEIGHT:
            raise NotAWeightVectorError(
                f"{label or 'operator'}: commutator is not proportional "
                f"(label gaps spread {spread:.2e})"
            )
        kappas.append(_snap_rational(float(gaps[0])))
    k1, k2 = kappas
    coords = (
        float(k1) * BASIS_E1[0] + float(k2) * BASIS_E2[0],
        float(k1) * BASIS_E1[1] + float(k2) * BASIS_E2[1],
    )
    return WeightVector(label, (k1, k2), order, coords)


@dataclass(frozen=True)
class DiagramLayout:
    scheme: str
    classical: bool
    vectors: tuple[WeightVector, ...]


def _scheme_operators(scheme: str, classical: bool,
                      spec: SpaceSpec) -> list[tuple[str, tuple, str]]:
    """The scheme's two first-order transitions (its coupled pairs in operators.LAYOUTS),
    their conjugates, and the second-order operator [first, second^dag] with its conjugate,
    as (label, (rows, cols, values), order), the conjugate (cols, rows, conj(values)).  The
    second-order operator is written from the labels on the degenerate pair (a, b): f S_ba
    (operators.conserved_product) for the enhancement factor f, or -|alpha|^2 S_ba in a
    classical field, + where the shared level emits the photon.  A weight reads only the
    positions of the elements, the same for every nonzero alpha, so the classical ones are
    written at alpha = 1: no |alpha|^2 leaves the float range."""
    lay = layout(scheme)
    pairs, s, absorbs = lay.pairs, lay.shared, lay.shared_is_upper
    la, lb = lay.degenerate
    if classical:
        ops = [transition_elements(spec, *ij) for ij in pairs]
        prefix, conj_prefix = "alpha", "alpha*"
        factor = "-|alpha|^2 " if absorbs else "+|alpha|^2 "
        second = transition_elements(spec, lb, la, -1 if absorbs else 1)
    else:
        ops = [term_elements(spec, dressed_term(spec, i, j)) for i, j in pairs]
        prefix, conj_prefix = "a", "a+"
        factor = f"(S{s}{s}-n)" if absorbs else f"(S{s}{s}+n+1)"
        f = functools.partial(enhancement_factor, scheme)
        second = conserved_product(spec, lb, la, f)
    conjugates = [(cols, rows, values.conj()) for rows, cols, values in ops + [second]]
    return (
        [(f"{prefix}S{i}{j}", op, FIRST) for (i, j), op in zip(pairs, ops)]
        + [(f"{conj_prefix}S{j}{i}", op, FIRST) for (i, j), op in zip(pairs, conjugates)]
        + [(f"{factor}S{lb}{la}", second, SECOND),
           (f"{factor}S{la}{lb}", conjugates[2], SECOND)]
    )


def diagram_layout(scheme: str, classical: bool, spec: SpaceSpec) -> DiagramLayout:
    """Weight vectors of the scheme's first- and second-order operators.

    Quantum mode uses the photon-dressed transitions on the product space;
    classical mode replaces the field by a nonzero amplitude alpha, whose
    value no weight depends on, and works on the atomic space alone.
    """
    space = ATOMIC if classical else PRODUCT
    cartan = cartan_choice(scheme, spec, space)
    vectors = tuple(
        weight_of(elements, cartan, label=label, order=order)
        for label, elements, order in _scheme_operators(scheme, classical, spec)
    )
    return DiagramLayout(scheme, classical, vectors)


def weight_table(layout: DiagramLayout) -> str:
    """CSV table with header operator,order,kappa1,kappa2,x,y."""
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["operator", "order", "kappa1", "kappa2", "x", "y"])
    for v in layout.vectors:
        writer.writerow(
            [v.label, v.order, str(v.kappa[0]), str(v.kappa[1]),
             repr(v.coords[0]), repr(v.coords[1])]
        )
    return out.getvalue()


def render_svg(layout: DiagramLayout) -> bytes:
    """Deterministic SVG 1.1 document: origin-centered vectors with labels.

    Identical layouts give byte-identical documents.
    """
    if not layout.vectors:
        raise ValueError("cannot render an empty layout")
    size = 480.0
    center = size / 2.0
    extent = max(1.0, max(math.hypot(*v.coords) for v in layout.vectors))
    scale = (size / 2.0 - 60.0) / extent

    def pt(x, y):
        return center + scale * x, center - scale * y  # SVG y grows downward

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<title>{"classical" if layout.classical else "quantum"} '
        f'{layout.scheme} weight diagram</title>',
        f'<circle cx="{center:.1f}" cy="{center:.1f}" r="2.5" fill="#000"/>',
    ]
    for v in layout.vectors:
        style = DEFAULT_STYLES[v.order]
        x1, y1 = pt(0.0, 0.0)
        x2, y2 = pt(*v.coords)
        dash = f' stroke-dasharray="{style["dash"]}"' if style["dash"] else ""
        lines.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="#000" stroke-width="{style["stroke_width"]:.2f}"{dash}/>'
        )
        # arrowhead: small triangle at the tip
        angle = math.atan2(y2 - y1, x2 - x1)
        head = 9.0
        spread = 0.45
        ax = x2 - head * math.cos(angle - spread)
        ay = y2 - head * math.sin(angle - spread)
        bx = x2 - head * math.cos(angle + spread)
        by = y2 - head * math.sin(angle + spread)
        lines.append(
            f'<polygon points="{x2:.3f},{y2:.3f} {ax:.3f},{ay:.3f} '
            f'{bx:.3f},{by:.3f}" fill="#000"/>'
        )
        lx = x2 + 14.0 * math.cos(angle)
        ly = y2 + 14.0 * math.sin(angle)
        lines.append(
            f'<text x="{lx:.3f}" y="{ly:.3f}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{v.label}</text>'
        )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def weyl_candidates() -> list[np.ndarray]:
    """Twelve planar symmetry candidates: rotations by multiples of 60
    degrees and reflections across axes at multiples of 30 degrees."""
    mats = []
    for k in range(6):
        t = k * math.pi / 3.0
        mats.append(np.array([[math.cos(t), -math.sin(t)],
                              [math.sin(t), math.cos(t)]]))
    for k in range(6):
        t = k * math.pi / 6.0
        mats.append(np.array([[math.cos(2 * t), math.sin(2 * t)],
                              [math.sin(2 * t), -math.cos(2 * t)]]))
    return mats


def _set_match_residual(points_a: np.ndarray, points_b: np.ndarray) -> float:
    resid = 0.0
    for a in points_a:
        resid = max(resid, float(np.min(np.linalg.norm(points_b - a, axis=1))))
    for b in points_b:
        resid = max(resid, float(np.min(np.linalg.norm(points_a - b, axis=1))))
    return resid


def find_reflection(coords_a: list[tuple[float, float]],
                    coords_b: list[tuple[float, float]],
                    tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """Reflection (det -1) mapping one coordinate set onto the other.

    Searches the twelve planar candidates and returns the best reflection
    with its set-matching residual; raises if none matches within tol.
    """
    pa = np.array(coords_a, dtype=float)
    pb = np.array(coords_b, dtype=float)
    if pa.shape != pb.shape:
        raise ValueError("coordinate sets must have equal size")
    best: tuple[np.ndarray, float] | None = None
    for mat in weyl_candidates():
        if np.linalg.det(mat) > 0:
            continue
        resid = _set_match_residual(pa @ mat.T, pb)
        if best is None or resid < best[1]:
            best = (mat, resid)
    assert best is not None
    if best[1] > tol:
        raise ValueError(
            f"no reflection maps the sets within {tol:g} (best residual {best[1]:.2e})"
        )
    return best
