"""Torus characters of tautological and tangent spaces at fixed points.

A Laurent monomial t1^p t2^q e_1^c_1 .. e_r^c_r is the plain int tuple
(p, q, e), with e the nonzero (alpha, c_alpha) pairs sorted by alpha.
Every exponent is integral: the half shift sqrt(t1*t2) coming from the
matter twist is applied later, on the linear-form side.  A character is
a finite multiset of monomials, held as a ``collections.Counter``.

The building blocks:

  * char_lk(k)            -- cohomology character of the k-th line bundle
                             twist on the resolved surface,
  * char_v_*              -- tautological-bundle fibers at fixed points,
  * char_n(...)           -- the standard arm/leg pair character whose sum
                             over all slot pairs is the tangent space of
                             framed-sheaf moduli on the plane,
  * char_tangent_*        -- tangent characters for the plane, the Z2
                             orbifold (degree-0 part), and the resolved
                             surface (line-bundle twists plus the two
                             chart images t -> (t1^2, t2/t1) and
                             t -> (t1/t2, t2^2) of the plane weights).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from .diagrams import (
    FixedPointX0,
    FixedPointX1,
    FrameData,
    HalfInt,
    YoungDiagram,
    arm_in,
    boxes,
    leg_in,
)


def _ratio(alpha: int, beta: int) -> tuple:
    """The e-part of e_beta / e_alpha."""
    if alpha == beta:
        return ()
    return ((alpha, -1), (beta, 1)) if alpha < beta else ((beta, 1), (alpha, -1))


def char_rank(ch: Counter) -> int:
    return sum(ch.values())


def _twist(d: int) -> Iterator[tuple[int, int]]:
    """t-exponents (p, q) of the twist character with doubled index d."""
    bound = abs(d) - 2
    for i in range(bound + 1):
        for j in range(bound + 1 - i):
            if (i + j - d) % 2 == 0:
                yield (i + 1, j + 1) if d > 0 else (-i, -j)


def char_lk(k: HalfInt) -> Counter:
    """Lattice character of the k-th twist: for k > 1/2 the monomials
    t1^(i+1) t2^(j+1) over i, j >= 0 with i + j <= 2k - 2 and i + j = 2k
    mod 2; for k < -1/2 the mirror family t1^(-i) t2^(-j); empty otherwise."""
    return Counter((p, q, ()) for p, q in _twist(k.doubled))


def degree_mod2(mono: tuple, frame: FrameData) -> int:
    """Z2-degree: t1, t2 and the color-1 framing characters are odd."""
    p, q, e = mono
    return (p + q + sum(exp for alpha, exp in e if alpha > frame.w0)) % 2


def _degree_part(ch: Counter, frame: FrameData, s: int) -> Counter:
    return Counter({m: n for m, n in ch.items() if degree_mod2(m, frame) == s})


def char_v_p2(r: int, diagrams) -> Counter:
    """Tautological fiber on the plane: e_alpha t1^(1-i) t2^(1-j) per box."""
    return Counter(
        (1 - i, 1 - j, ((alpha, 1),))
        for alpha, diagram in enumerate(diagrams, start=1)
        for i, j in boxes(diagram)
    )


def char_v_x0(frame: FrameData, fp: FixedPointX0, s: int) -> Counter:
    """Degree-s part of the plane tautological fiber at an orbifold point."""
    return _degree_part(char_v_p2(frame.r, fp.diagrams), frame, s)


def char_v_x1(frame: FrameData, fp: FixedPointX1, s: int) -> Counter:
    """Tautological fiber at a resolved-surface fixed point: per slot, the
    line-bundle character shifted by s/2 plus one monomial per box of the
    two diagrams, twisted into the two coordinate charts."""
    ch: Counter = Counter()
    for alpha in range(1, frame.r + 1):
        d = fp.kvec[alpha - 1].doubled
        e = ((alpha, 1),)
        ch.update((p, q, e) for p, q in _twist(d + s))
        # t1^(2(k - i + 1 + s/2)) * (t2/t1)^(1-j)
        ch.update((d - 2 * i + j + s + 1, 1 - j, e) for i, j in boxes(fp.y1[alpha - 1]))
        ch.update((1 - i, d - 2 * j + i + s + 1, e) for i, j in boxes(fp.y2[alpha - 1]))
    return ch


def _pair_weights(ya: YoungDiagram, yb: YoungDiagram) -> Iterator[tuple[int, int]]:
    """t-exponents of the arm/leg pair character, before the framing ratio."""
    for i, j in boxes(ya):
        yield -leg_in(yb, i, j), arm_in(ya, i, j) + 1
    for i, j in boxes(yb):
        yield leg_in(ya, i, j) + 1, -arm_in(yb, i, j)


def char_n(ya: YoungDiagram, yb: YoungDiagram, alpha: int, beta: int) -> Counter:
    """Arm/leg pair character e_beta/e_alpha * ( sum over s in Y_a of
    t1^(-leg_b(s)) t2^(arm_a(s)+1)  +  sum over t in Y_b of
    t1^(leg_a(t)+1) t2^(-arm_b(t)) ).  Cross-diagram arms and legs may be
    negative; that is intended."""
    e = _ratio(alpha, beta)
    return Counter((p, q, e) for p, q in _pair_weights(ya, yb))


def char_tangent_p2(r: int, diagrams) -> Counter:
    """Tangent character of plane moduli: sum of all slot-pair characters."""
    ch: Counter = Counter()
    for alpha in range(1, r + 1):
        for beta in range(1, r + 1):
            ch.update(char_n(diagrams[alpha - 1], diagrams[beta - 1], alpha, beta))
    return ch


def char_tangent_x0(frame: FrameData, fp: FixedPointX0) -> Counter:
    """Tangent character on the orbifold side: the Z2-invariant (degree-0)
    part of the plane tangent character."""
    return _degree_part(char_tangent_p2(frame.r, fp.diagrams), frame, 0)


def char_tangent_x1(frame: FrameData, fp: FixedPointX1) -> Counter:
    """Tangent character on the resolved side: per slot pair, the twist
    character of the k-difference plus the arm/leg weights of each chart's
    diagrams, sent t1^p t2^q -> t1^(2p-q) t2^q in the first chart and
    t1^p t2^(2q-p) in the second, and shifted by t_i^(2(k_beta - k_alpha))."""
    ch: Counter = Counter()
    for alpha in range(1, frame.r + 1):
        for beta in range(1, frame.r + 1):
            delta = fp.kvec[beta - 1].doubled - fp.kvec[alpha - 1].doubled
            e = _ratio(alpha, beta)
            ch.update((p, q, e) for p, q in _twist(delta))
            y1a, y1b = fp.y1[alpha - 1], fp.y1[beta - 1]
            ch.update((2 * p - q + delta, q, e) for p, q in _pair_weights(y1a, y1b))
            y2a, y2b = fp.y2[alpha - 1], fp.y2[beta - 1]
            ch.update((p, 2 * q - p + delta, e) for p, q in _pair_weights(y2a, y2b))
    return ch
