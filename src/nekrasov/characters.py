"""Torus characters of tautological and tangent spaces, one piece at a time.

A Laurent monomial t1^p t2^q e_1^c_1 .. e_r^c_r splits into its
t-exponents (p, q) and its e-part, the framing characters.  Within one
piece of a character the e-part is the same for every monomial -- e_alpha
for a slot's tautological piece, the framing ratio e_beta/e_alpha for a
slot pair's tangent piece -- so a piece is held as the list of its
monomials' (p, q) int pairs, in build order and with repeats, and its
e-part is left to the caller (``localization`` passes it once per piece).
Every exponent is integral: the half shift sqrt(t1*t2) coming from the
matter twist is applied later, on the linear-form side.

A fixed point's tautological character is a sum over framing slots alpha,
and its tangent character a sum over slot pairs (alpha, beta).  Each
builder below returns one piece of such a sum, built from only the data
that piece depends on, so a series build can make each distinct piece
once (see ``localization``):

  * char_twist            -- the line-bundle twist character with doubled
                             index d: on the resolved surface a slot's
                             line-bundle piece is d = 2k_alpha, and a
                             slot pair's is d = delta = 2(k_beta - k_alpha),
  * char_v_*              -- one slot's tautological fiber: on the plane
                             and the orbifold (degree-0 part) it depends on
                             Y_alpha (and alpha's color); on the resolved
                             surface one piece per chart (char_v_x1) on
                             (2k_alpha, chart, Y^chart_alpha),
  * char_tangent_*        -- one slot pair's tangent character: the
                             arm/leg pair character on the plane, its
                             Z2-invariant (degree-0) part on the orbifold,
                             and on the resolved surface one piece per chart
                             (char_tangent_x1): the chart image t -> (t1^2,
                             t2/t1) or t -> (t1/t2, t2^2) of the pair
                             weights, shifted by t_i^delta, on (delta,
                             chart, Y^chart_alpha, Y^chart_beta).

A slot pair's arms and legs are read by index off one transpose of each
diagram (``_pair_weights``).  An orbifold piece keeps its Z2-invariant
part, the weights with p + q + c even, where c is the constant color
offset of its e-part: color(alpha) for a slot's e_alpha, color(alpha) +
color(beta) for a slot pair's e_beta/e_alpha (t1, t2 and the color-1
framing characters are odd).  A slot's fiber steps over every other row
of each column; a slot pair tests each weight's parity once, and for
Y_alpha = Y_beta tests only the first half, whose mirror (1 - p, 1 - q)
has the same parity.  ``localization`` merges a piece's repeated pairs
and turns each distinct (e-part, pair) into a linear form once per
series build.
"""

from __future__ import annotations

from .diagrams import FrameData, YoungDiagram, boxes, transpose


def char_twist(d: int) -> list[tuple[int, int]]:
    """The twist character with doubled index d: for d > 1 the monomials
    t1^(i+1) t2^(j+1) over i, j >= 0 with i + j <= d - 2 and i + j = d
    mod 2; for d < -1 the mirror family t1^(-i) t2^(-j) with |d| in place
    of d; none otherwise."""
    bound = abs(d) - 2
    return [
        (i + 1, j + 1) if d > 0 else (-i, -j)
        for i in range(bound + 1)
        for j in range(bound + 1 - i)
        if (i + j - d) % 2 == 0
    ]


def _color(frame: FrameData, alpha: int) -> int:
    """Z2-color of slot alpha: 0 for the first w0 slots, 1 after."""
    return 1 if alpha > frame.w0 else 0


def char_v_p2(diagram: YoungDiagram) -> list[tuple[int, int]]:
    """Tautological fiber of a slot on the plane, before its e_alpha:
    t1^(1-i) t2^(1-j) per box."""
    return [(1 - i, 1 - j) for i, j in boxes(diagram)]


def char_v_x0(frame: FrameData, alpha: int, diagram: YoungDiagram) -> list[tuple[int, int]]:
    """Z2-invariant (degree-0) part of slot alpha's plane tautological
    fiber, at an orbifold point: the boxes whose monomial t1^p t2^q e_alpha
    has p + q + color(alpha) even."""
    # p + q = 2 - i - j has the parity of i + j: row j of column i is kept
    # when j = i + color(alpha) mod 2, every other row from the first such one
    c = _color(frame, alpha)
    return [
        (1 - i, 1 - j)
        for i, height in enumerate(diagram, start=1)
        for j in range(2 - (i + c) % 2, height + 1, 2)
    ]


def char_v_x1(d: int, chart: int, diagram: YoungDiagram) -> list[tuple[int, int]]:
    """Chart piece of a slot's tautological fiber on the resolved surface,
    for k_alpha = d/2 and the slot's diagram in that chart: one monomial
    per box, twisted into the chart.  The slot's third piece is
    char_twist(d)."""
    if chart == 1:
        # t1^(2(k - i + 1)) * (t2/t1)^(1-j)
        return [(d - 2 * i + j + 1, 1 - j) for i, j in boxes(diagram)]
    return [(1 - i, d - 2 * j + i + 1) for i, j in boxes(diagram)]


def _first_half(ya: YoungDiagram, tb: tuple) -> list[tuple[int, int]]:
    """(-leg_b(s), arm_a(s) + 1) per box s of Y_a, column-major, with tb
    the transpose of Y_b (a column outside Y_b has length 0)."""
    lb = len(tb)
    return [
        (i - (tb[j - 1] if j <= lb else 0), height - j + 1)
        for i, height in enumerate(ya, start=1)
        for j in range(1, height + 1)
    ]


def _pair_weights(ya: YoungDiagram, yb: YoungDiagram) -> list[tuple[int, int]]:
    """t-exponents of the arm/leg pair character, before the framing ratio:
    (-leg_b(s), arm_a(s) + 1) per box s of Y_a, then (leg_a(t) + 1,
    -arm_b(t)) per box t of Y_b, column-major.  Each diagram is transposed
    once; a row or column outside a diagram has length 0.  For Y_a = Y_b
    the second half is (1 - p, 1 - q) for each (p, q) of the first."""
    ta = transpose(ya)
    if ya == yb:
        out = _first_half(ya, ta)
        return out + [(1 - p, 1 - q) for p, q in out]
    out = _first_half(ya, transpose(yb))
    la = len(ta)
    for i, height in enumerate(yb, start=1):
        for j in range(1, height + 1):
            out.append(((ta[j - 1] if j <= la else 0) - i + 1, j - height))
    return out


def char_tangent_p2(ya: YoungDiagram, yb: YoungDiagram) -> list[tuple[int, int]]:
    """Arm/leg character of a slot pair (alpha, beta) on the plane, before
    its e_beta/e_alpha: sum over s in Y_a of t1^(-leg_b(s)) t2^(arm_a(s)+1)
    + sum over t in Y_b of t1^(leg_a(t)+1) t2^(-arm_b(t)).  Cross-diagram
    arms and legs may be negative; that is intended.  The plane tangent
    character is the sum over all r^2 slot pairs."""
    return _pair_weights(ya, yb)


def char_tangent_x0(
    frame: FrameData, alpha: int, beta: int, ya: YoungDiagram, yb: YoungDiagram
) -> list[tuple[int, int]]:
    """Slot pair (alpha, beta) of the orbifold tangent character: the
    Z2-invariant (degree-0) part of the plane pair character, the weights
    with p + q + color(alpha) + color(beta) even."""
    c = _color(frame, alpha) + _color(frame, beta)
    if ya == yb:
        # (1 - p, 1 - q) has the parity of (p, q): filter the first half only
        out = [(p, q) for p, q in _first_half(ya, transpose(ya)) if (p + q + c) % 2 == 0]
        return out + [(1 - p, 1 - q) for p, q in out]
    return [(p, q) for p, q in _pair_weights(ya, yb) if (p + q + c) % 2 == 0]


def char_tangent_x1(
    delta: int, chart: int, ya: YoungDiagram, yb: YoungDiagram
) -> list[tuple[int, int]]:
    """Chart piece of a slot pair of the resolved tangent character, for
    2(k_beta - k_alpha) = delta: the arm/leg weights of that chart's
    diagrams, sent t1^p t2^q -> t1^(2p-q) t2^q in the first chart and
    t1^p t2^(2q-p) in the second, and shifted by t_i^delta.  The pair's
    third piece is char_twist(delta)."""
    if chart == 1:
        return [(2 * p - q + delta, q) for p, q in _pair_weights(ya, yb)]
    return [(p, 2 * q - p + delta) for p, q in _pair_weights(ya, yb)]
