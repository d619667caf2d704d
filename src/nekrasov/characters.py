"""Torus characters of tautological and tangent spaces at fixed points.

A character is a finite multiset of Laurent monomials in (t1, t2,
e_1..e_r).  The t-exponents are stored doubled so the double-cover
convention sqrt(t1*t2) never forces fractional storage; every character
built in this module has *even* doubled exponents (integral t-powers),
and the half shift coming from the matter twist is applied later, on the
linear-form side.

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
                             chart substitutions t -> (t1^2, t2/t1) and
                             t -> (t1/t2, t2^2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

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


class HalfDegreeError(ValueError):
    """Z2-degree requested for a monomial with half-integral t-exponent."""


@dataclass(frozen=True)
class Monomial:
    """t1^(t1x2/2) * t2^(t2x2/2) * prod e_alpha^exp, exponents exact."""

    t1x2: int
    t2x2: int
    e: tuple[tuple[int, int], ...] = ()

    def sort_key(self):
        return (self.t1x2, self.t2x2, self.e)

    def __str__(self) -> str:
        parts = []
        for label, doubled in (("t1", self.t1x2), ("t2", self.t2x2)):
            if doubled == 0:
                continue
            if doubled % 2 == 0:
                parts.append(f"{label}^{doubled // 2}")
            else:
                parts.append(f"{label}^{doubled}/2")
        for alpha, exp in self.e:
            parts.append(f"e{alpha}^{exp}")
        return " ".join(parts) if parts else "1"


def monomial(t1x2: int = 0, t2x2: int = 0, e: Mapping[int, int] | None = None) -> Monomial:
    packed = ()
    if e:
        packed = tuple(sorted((a, x) for a, x in e.items() if x != 0))
    return Monomial(t1x2, t2x2, packed)


def mono_t(p: int, q: int, e: Mapping[int, int] | None = None) -> Monomial:
    """Monomial with integral t-exponents t1^p t2^q."""
    return monomial(2 * p, 2 * q, e)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    e: dict[int, int] = dict(a.e)
    for alpha, exp in b.e:
        e[alpha] = e.get(alpha, 0) + exp
    return monomial(a.t1x2 + b.t1x2, a.t2x2 + b.t2x2, e)


# A character is a multiset: monomial -> positive multiplicity.
Character = dict


def char_rank(ch: Character) -> int:
    return sum(ch.values())


def char_items(ch: Character) -> Iterator[tuple[Monomial, int]]:
    """Deterministic iteration order for Euler-class products."""
    return iter(sorted(ch.items(), key=lambda kv: kv[0].sort_key()))


def char_merge(*chars: Character) -> Character:
    out: Character = {}
    for ch in chars:
        for mono, mult in ch.items():
            out[mono] = out.get(mono, 0) + mult
    return out


def char_times(ch: Character, factor: Monomial) -> Character:
    return {mono_mul(factor, mono): mult for mono, mult in ch.items()}


def _char_from_monos(monos) -> Character:
    out: Character = {}
    for mono in monos:
        out[mono] = out.get(mono, 0) + 1
    return out


def char_lk(k: HalfInt) -> Character:
    """Lattice character of the k-th twist: for k > 1/2 the monomials
    t1^(i+1) t2^(j+1) over i, j >= 0 with i + j <= 2k - 2 and i + j = 2k
    mod 2; for k < -1/2 the mirror family t1^(-i) t2^(-j); empty otherwise."""
    d = k.doubled
    if abs(d) <= 1:
        return {}
    monos = []
    bound = abs(d) - 2
    for i in range(bound + 1):
        for j in range(bound + 1 - i):
            if (i + j - d) % 2 != 0:
                continue
            if d > 0:
                monos.append(mono_t(i + 1, j + 1))
            else:
                monos.append(mono_t(-i, -j))
    return _char_from_monos(monos)


def degree_mod2(mono: Monomial, frame: FrameData) -> int:
    """Z2-degree: t1, t2 and the color-1 framing characters are odd."""
    if mono.t1x2 % 2 or mono.t2x2 % 2:
        raise HalfDegreeError(f"half-integral t-exponent in {mono}")
    total = mono.t1x2 // 2 + mono.t2x2 // 2
    total += sum(exp for alpha, exp in mono.e if alpha > frame.w0)
    return total % 2


def _degree_part(ch: Character, frame: FrameData, s: int) -> Character:
    return {m: mult for m, mult in ch.items() if degree_mod2(m, frame) == s}


def char_v_p2(r: int, diagrams) -> Character:
    """Tautological fiber on the plane: e_alpha t1^(1-i) t2^(1-j) per box."""
    monos = []
    for alpha, diagram in enumerate(diagrams, start=1):
        for i, j in boxes(diagram):
            monos.append(mono_t(1 - i, 1 - j, {alpha: 1}))
    return _char_from_monos(monos)


def char_v_x0(frame: FrameData, fp: FixedPointX0, s: int) -> Character:
    """Degree-s part of the plane tautological fiber at an orbifold point."""
    return _degree_part(char_v_p2(frame.r, fp.diagrams), frame, s)


def char_v_x1(frame: FrameData, fp: FixedPointX1, s: int) -> Character:
    """Tautological fiber at a resolved-surface fixed point: per slot, the
    line-bundle character shifted by s/2 plus one monomial per box of the
    two diagrams, twisted into the two coordinate charts."""
    parts = []
    for alpha in range(1, frame.r + 1):
        d = fp.kvec[alpha - 1].doubled
        e_alpha = monomial(e={alpha: 1})
        parts.append(char_times(char_lk(HalfInt(d + s)), e_alpha))
        monos = []
        for i, j in boxes(fp.y1[alpha - 1]):
            # t1^(2(k - i + 1 + s/2)) * (t2/t1)^(1-j)
            monos.append(mono_t(d - 2 * i + j + s + 1, 1 - j, {alpha: 1}))
        for i, j in boxes(fp.y2[alpha - 1]):
            monos.append(mono_t(1 - i, d - 2 * j + i + s + 1, {alpha: 1}))
        parts.append(_char_from_monos(monos))
    return char_merge(*parts)


def char_n(
    ya: YoungDiagram, yb: YoungDiagram, alpha: int, beta: int
) -> Character:
    """Arm/leg pair character e_beta/e_alpha * ( sum over s in Y_a of
    t1^(-leg_b(s)) t2^(arm_a(s)+1)  +  sum over t in Y_b of
    t1^(leg_a(t)+1) t2^(-arm_b(t)) ).  Cross-diagram arms and legs may be
    negative; that is intended."""
    e = {beta: 1, alpha: -1} if alpha != beta else None
    monos = []
    for i, j in boxes(ya):
        monos.append(mono_t(-leg_in(yb, i, j), arm_in(ya, i, j) + 1, e))
    for i, j in boxes(yb):
        monos.append(mono_t(leg_in(ya, i, j) + 1, -arm_in(yb, i, j), e))
    return _char_from_monos(monos)


# Chart substitutions (t1, t2) -> (t1^2, t2/t1) and (t1, t2) -> (t1/t2, t2^2)
# as integer matrices acting on doubled exponent vectors.
ExponentMap = tuple
MAP_CHART1: ExponentMap = ((2, -1), (0, 1))
MAP_CHART2: ExponentMap = ((1, 0), (-1, 2))


def char_substitute(ch: Character, m: ExponentMap) -> Character:
    """Apply an exponent substitution to every monomial; e-parts unchanged."""
    out: Character = {}
    for mono, mult in ch.items():
        new1 = m[0][0] * mono.t1x2 + m[0][1] * mono.t2x2
        new2 = m[1][0] * mono.t1x2 + m[1][1] * mono.t2x2
        image = monomial(new1, new2, dict(mono.e))
        out[image] = out.get(image, 0) + mult
    return out


def char_tangent_p2(r: int, diagrams) -> Character:
    """Tangent character of plane moduli: sum of all slot-pair characters."""
    parts = []
    for alpha in range(1, r + 1):
        for beta in range(1, r + 1):
            parts.append(
                char_n(diagrams[alpha - 1], diagrams[beta - 1], alpha, beta)
            )
    return char_merge(*parts)


def char_tangent_x0(frame: FrameData, fp: FixedPointX0) -> Character:
    """Tangent character on the orbifold side: the Z2-invariant (degree-0)
    part of the plane tangent character."""
    return _degree_part(char_tangent_p2(frame.r, fp.diagrams), frame, 0)


def char_tangent_x1(frame: FrameData, fp: FixedPointX1) -> Character:
    """Tangent character on the resolved side: per slot pair, the twist
    character of the k-difference plus the two chart-substituted arm/leg
    characters shifted by t_i^(2(k_beta - k_alpha))."""
    parts = []
    for alpha in range(1, frame.r + 1):
        for beta in range(1, frame.r + 1):
            delta = fp.kvec[beta - 1].doubled - fp.kvec[alpha - 1].doubled
            e = {beta: 1, alpha: -1} if alpha != beta else None
            parts.append(char_times(char_lk(HalfInt(delta)), monomial(e=e)))
            n1 = char_substitute(
                char_n(fp.y1[alpha - 1], fp.y1[beta - 1], alpha, beta),
                MAP_CHART1,
            )
            parts.append(char_times(n1, monomial(t1x2=2 * delta)))
            n2 = char_substitute(
                char_n(fp.y2[alpha - 1], fp.y2[beta - 1], alpha, beta),
                MAP_CHART2,
            )
            parts.append(char_times(n2, monomial(t2x2=2 * delta)))
    return char_merge(*parts)
