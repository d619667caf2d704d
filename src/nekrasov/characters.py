"""Torus characters of tautological and tangent spaces, one piece at a time.

A Laurent monomial t1^p t2^q e_1^c_1 .. e_r^c_r is the plain int tuple
(p, q, e), with e the nonzero (alpha, c_alpha) pairs sorted by alpha.
Every exponent is integral: the half shift sqrt(t1*t2) coming from the
matter twist is applied later, on the linear-form side.  A character is
a finite multiset of monomials, held as a ``collections.Counter``.

A fixed point's tautological character is a sum over framing slots alpha,
and its tangent character a sum over slot pairs (alpha, beta).  Each
builder below returns one piece of such a sum, built from only the data
that piece depends on, so a series build can make each distinct piece
once (see ``localization``):

  * char_v_*              -- one slot's tautological fiber: on the plane
                             and the orbifold (degree-s part) it depends on
                             (alpha, Y_alpha); on the resolved surface it
                             is a line-bundle piece (char_v_twist) on
                             (alpha, 2k_alpha) plus one piece per chart
                             (char_v_x1) on (alpha, 2k_alpha, chart,
                             Y^chart_alpha),
  * char_tangent_*        -- one slot pair's tangent character: the
                             arm/leg pair character on the plane, its
                             Z2-invariant (degree-0) part on the orbifold,
                             and on the resolved surface a line-bundle
                             piece (char_tangent_twist) on (alpha, beta,
                             delta), delta = 2(k_beta - k_alpha), plus one
                             piece per chart (char_tangent_x1): the chart
                             image t -> (t1^2, t2/t1) or t -> (t1/t2,
                             t2^2) of the pair weights, shifted by t_i^delta,
                             on (alpha, beta, delta, chart, Y^chart_alpha,
                             Y^chart_beta).

A slot pair's arms and legs are read by index off one transpose of each
diagram (``_pair_weights``).  An orbifold piece keeps its Z2-degree-s
part with one parity test per weight, p + q + c = s mod 2, where c is the
constant color offset of its e-part: color(alpha) for a slot's e_alpha,
color(alpha) + color(beta) for a slot pair's e_beta/e_alpha (t1, t2 and
the color-1 framing characters are odd).  The pieces carry monomials
only; ``localization`` turns each distinct monomial into a linear form
once per series build.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from .diagrams import FrameData, YoungDiagram, boxes, transpose


def _ratio(alpha: int, beta: int) -> tuple:
    """The e-part of e_beta / e_alpha."""
    if alpha == beta:
        return ()
    return ((alpha, -1), (beta, 1)) if alpha < beta else ((beta, 1), (alpha, -1))


def _twist(d: int) -> Iterator[tuple[int, int]]:
    """t-exponents (p, q) of the twist character with doubled index d: for
    d > 1 the monomials t1^(i+1) t2^(j+1) over i, j >= 0 with
    i + j <= d - 2 and i + j = d mod 2; for d < -1 the mirror family
    t1^(-i) t2^(-j) with |d| in place of d; none otherwise."""
    bound = abs(d) - 2
    for i in range(bound + 1):
        for j in range(bound + 1 - i):
            if (i + j - d) % 2 == 0:
                yield (i + 1, j + 1) if d > 0 else (-i, -j)


def _color(frame: FrameData, alpha: int) -> int:
    """Z2-color of slot alpha: 0 for the first w0 slots, 1 after."""
    return 1 if alpha > frame.w0 else 0


def char_v_p2(alpha: int, diagram: YoungDiagram) -> Counter:
    """Tautological fiber of slot alpha on the plane: e_alpha t1^(1-i)
    t2^(1-j) per box."""
    e = ((alpha, 1),)
    return Counter((1 - i, 1 - j, e) for i, j in boxes(diagram))


def char_v_x0(frame: FrameData, alpha: int, diagram: YoungDiagram, s: int) -> Counter:
    """Degree-s part of slot alpha's plane tautological fiber, at an
    orbifold point: the boxes whose monomial t1^p t2^q e_alpha has
    p + q + color(alpha) = s mod 2."""
    e = ((alpha, 1),)
    c = _color(frame, alpha) + s  # p + q = 2 - i - j has the parity of i + j
    return Counter(
        (1 - i, 1 - j, e) for i, j in boxes(diagram) if (i + j + c) % 2 == 0
    )


def char_v_twist(alpha: int, d: int, s: int) -> Counter:
    """Line-bundle piece of slot alpha's tautological fiber on the resolved
    surface, for k_alpha = d/2: e_alpha times the twist character with
    doubled index d + s (the shift by s/2)."""
    e = ((alpha, 1),)
    return Counter((p, q, e) for p, q in _twist(d + s))


def char_v_x1(alpha: int, d: int, chart: int, diagram: YoungDiagram, s: int) -> Counter:
    """Chart piece of slot alpha's tautological fiber on the resolved
    surface, for k_alpha = d/2 and the diagram in that chart: one monomial
    per box, twisted into the chart and shifted by s/2.  The slot's third
    piece is char_v_twist(alpha, d, s)."""
    e = ((alpha, 1),)
    if chart == 1:
        # t1^(2(k - i + 1 + s/2)) * (t2/t1)^(1-j)
        return Counter((d - 2 * i + j + s + 1, 1 - j, e) for i, j in boxes(diagram))
    return Counter((1 - i, d - 2 * j + i + s + 1, e) for i, j in boxes(diagram))


def _pair_weights(ya: YoungDiagram, yb: YoungDiagram) -> list[tuple[int, int]]:
    """t-exponents of the arm/leg pair character, before the framing ratio:
    (-leg_b(s), arm_a(s) + 1) per box s of Y_a, then (leg_a(t) + 1,
    -arm_b(t)) per box t of Y_b, column-major.  Each diagram is transposed
    once; a row or column outside a diagram has length 0.  For Y_a = Y_b
    the second half is (1 - p, 1 - q) for each (p, q) of the first."""
    ta, tb = transpose(ya), transpose(yb)
    la, lb = len(ta), len(tb)
    out = []
    for i, height in enumerate(ya, start=1):
        for j in range(1, height + 1):
            out.append((i - (tb[j - 1] if j <= lb else 0), height - j + 1))
    if ya == yb:
        return out + [(1 - p, 1 - q) for p, q in out]
    for i, height in enumerate(yb, start=1):
        for j in range(1, height + 1):
            out.append(((ta[j - 1] if j <= la else 0) - i + 1, j - height))
    return out


def char_tangent_p2(alpha: int, beta: int, ya: YoungDiagram, yb: YoungDiagram) -> Counter:
    """Arm/leg character of the slot pair (alpha, beta) on the plane:
    e_beta/e_alpha * ( sum over s in Y_a of t1^(-leg_b(s)) t2^(arm_a(s)+1)
    + sum over t in Y_b of t1^(leg_a(t)+1) t2^(-arm_b(t)) ).  Cross-diagram
    arms and legs may be negative; that is intended.  The plane tangent
    character is the sum over all r^2 slot pairs."""
    e = _ratio(alpha, beta)
    return Counter((p, q, e) for p, q in _pair_weights(ya, yb))


def char_tangent_x0(
    frame: FrameData, alpha: int, beta: int, ya: YoungDiagram, yb: YoungDiagram
) -> Counter:
    """Slot pair (alpha, beta) of the orbifold tangent character: the
    Z2-invariant (degree-0) part of the plane pair character, the weights
    with p + q + color(alpha) + color(beta) even."""
    e = _ratio(alpha, beta)
    c = _color(frame, alpha) + _color(frame, beta)
    return Counter((p, q, e) for p, q in _pair_weights(ya, yb) if (p + q + c) % 2 == 0)


def char_tangent_twist(alpha: int, beta: int, delta: int) -> Counter:
    """Line-bundle piece of slot pair (alpha, beta) of the resolved tangent
    character, for 2(k_beta - k_alpha) = delta: e_beta/e_alpha times the
    twist character with doubled index delta."""
    e = _ratio(alpha, beta)
    return Counter((p, q, e) for p, q in _twist(delta))


def char_tangent_x1(
    alpha: int, beta: int, delta: int, chart: int, ya: YoungDiagram, yb: YoungDiagram
) -> Counter:
    """Chart piece of slot pair (alpha, beta) of the resolved tangent
    character, for 2(k_beta - k_alpha) = delta: the arm/leg weights of that
    chart's diagrams, sent t1^p t2^q -> t1^(2p-q) t2^q in the first chart
    and t1^p t2^(2q-p) in the second, and shifted by t_i^delta.  The pair's
    third piece is char_tangent_twist(alpha, beta, delta)."""
    e = _ratio(alpha, beta)
    if chart == 1:
        return Counter((2 * p - q + delta, q, e) for p, q in _pair_weights(ya, yb))
    return Counter((p, 2 * q - p + delta, e) for p, q in _pair_weights(ya, yb))
