"""Whole-fixed-point characters and localization terms, as test references.

The engine builds a fixed point's characters one framing slot or slot
pair at a time (``nekrasov.characters``) and its term as the product of
pieces cached per slot and slot pair (``nekrasov.localization``).  The
helpers here sum a fixed point's pieces into its whole tautological and
tangent characters, and build its term the direct way: one matter Euler
class of the whole tautological character, one Euler class of the whole
tangent character, then num * den^-1, merged into one canonical
``FactoredTerm``.  ``merged`` gives any term, product or not, that
canonical form, so a product term is compared with the reference through
it.  The box-by-box definitions of arms, legs and the Z2-degree, which
the engine's builders inline, are the references for the characters.
The last helpers read quantities only tests need.
"""

from collections import Counter
from fractions import Fraction
from math import prod

from nekrasov.characters import (
    char_tangent_p2,
    char_tangent_twist,
    char_tangent_x0,
    char_tangent_x1,
    char_v_p2,
    char_v_twist,
    char_v_x0,
    char_v_x1,
)
from nekrasov.diagrams import FixedPointX0, boxes, transpose
from nekrasov.exact import factored_term, term_mul, term_pow
from nekrasov.localization import euler_class, matter_euler


def column_height(diagram, i) -> int:
    """Height of the i-th column (0 beyond the diagram's width)."""
    return diagram[i - 1] if 1 <= i <= len(diagram) else 0


def arm_in(diagram, i, j) -> int:
    """lambda_i - j, measured in `diagram`; negative for boxes outside it."""
    return column_height(diagram, i) - j


def leg_in(diagram, i, j) -> int:
    """lambda'_j - i, measured in `diagram`; negative for boxes outside it."""
    return column_height(transpose(diagram), j) - i


def degree_mod2(mono, frame) -> int:
    """Z2-degree: t1, t2 and the color-1 framing characters are odd."""
    p, q, e = mono
    return (p + q + sum(exp for alpha, exp in e if alpha > frame.w0)) % 2


def degree_part(ch, frame, s) -> Counter:
    """The monomials of `ch` of Z2-degree s, with their multiplicities."""
    return Counter({m: n for m, n in ch.items() if degree_mod2(m, frame) == s})


def merged(t):
    """The canonical FactoredTerm of a term: the product of its pieces'
    scalars times all their factors, merged by form."""
    return factored_term(
        prod((piece.scalar for piece in t.pieces), start=Fraction(1)),
        [factor for piece in t.pieces for factor in piece.factors],
    )


def _sum(pieces) -> Counter:
    total = Counter()
    for piece in pieces:
        total.update(piece)
    return total


def _slot_pairs(r):
    return [(a, b) for a in range(1, r + 1) for b in range(1, r + 1)]


def whole_v_p2(diagrams) -> Counter:
    return _sum(char_v_p2(a, y) for a, y in enumerate(diagrams, start=1))


def whole_v_x0(frame, fp, s) -> Counter:
    return _sum(char_v_x0(frame, a, y, s) for a, y in enumerate(fp.diagrams, start=1))


def whole_v_x1(frame, fp, s) -> Counter:
    pieces = []
    for a in range(1, frame.r + 1):
        d = fp.kvec[a - 1].doubled
        pieces.append(char_v_twist(a, d, s))
        pieces.append(char_v_x1(a, d, 1, fp.y1[a - 1], s))
        pieces.append(char_v_x1(a, d, 2, fp.y2[a - 1], s))
    return _sum(pieces)


def whole_tangent_p2(r, diagrams) -> Counter:
    return _sum(
        char_tangent_p2(a, b, diagrams[a - 1], diagrams[b - 1]) for a, b in _slot_pairs(r)
    )


def whole_tangent_x0(frame, fp) -> Counter:
    ys = fp.diagrams
    return _sum(
        char_tangent_x0(frame, a, b, ys[a - 1], ys[b - 1]) for a, b in _slot_pairs(frame.r)
    )


def whole_tangent_x1(frame, fp) -> Counter:
    pieces = []
    for a, b in _slot_pairs(frame.r):
        delta = fp.kvec[b - 1].doubled - fp.kvec[a - 1].doubled
        pieces.append(char_tangent_twist(a, b, delta))
        pieces.append(char_tangent_x1(a, b, delta, 1, fp.y1[a - 1], fp.y1[b - 1]))
        pieces.append(char_tangent_x1(a, b, delta, 2, fp.y2[a - 1], fp.y2[b - 1]))
    return _sum(pieces)


def _quotient(num, den):
    return merged(term_mul(num, term_pow(den, -1)))


def reference_term_p2(r, diagrams):
    num = matter_euler(whole_v_p2(diagrams), r)
    return _quotient(num, euler_class(whole_tangent_p2(r, diagrams)))


def reference_term_x0(frame, fp):
    num = matter_euler(whole_v_x0(frame, fp, 0), frame.r)
    return _quotient(num, euler_class(whole_tangent_x0(frame, fp)))


def reference_term_x1(frame, fp):
    num = matter_euler(whole_v_x1(frame, fp, 0), frame.r)
    return _quotient(num, euler_class(whole_tangent_x1(frame, fp)))


def char_rank(ch) -> int:
    """Number of monomials of a character, counted with multiplicity."""
    return sum(ch.values())


def colored_sizes(diagram, l) -> tuple[int, int]:
    """Counts of boxes with Z2-color 0 and 1 for framing color l, box by
    box."""
    n = [0, 0]
    for i, j in boxes(diagram):
        n[(l + i + j) % 2] += 1
    return n[0], n[1]


def fixed_point_x0(frame, diagrams) -> FixedPointX0:
    """The orbifold fixed point of a diagram tuple, with its colored sizes
    (v0, v1) counted box by box."""
    diagrams = tuple(diagrams)
    v0 = v1 = 0
    for color, diagram in zip(frame.colors, diagrams):
        n0, n1 = colored_sizes(diagram, color)
        v0 += n0
        v1 += n1
    return FixedPointX0(diagrams, v0, v1)


def coefficient(form, v) -> Fraction:
    """The coefficient of variable `v` in a linear form."""
    return dict(form.coeffs).get(v, Fraction(0))
