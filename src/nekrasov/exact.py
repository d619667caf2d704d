"""Exact arithmetic layer: rationals, linear forms, factored terms.

Every quantity the engine manipulates is a rational function of the
equivariant variables

    eps1, eps2        weights of the two-torus acting on the surface,
    a_1 .. a_r        framing weights,
    m_1 .. m_2r       fundamental-matter masses,

and every quantity we ever need is a sum of *factored terms*: a rational
scalar times a product of integer powers of linear forms in those
variables.  Coefficients are never expanded into a canonical multivariate
normal form -- with 2 + 3r variables that blows up quickly -- instead all
equality questions are settled by exact evaluation at rational sample
points.

Scalars, form coefficients and sample-point values are
``fractions.Fraction``.  Evaluation does its work in Python ints: the point
is scaled to one common denominator D, each factor's form becomes an
integer dot product (its value times 2D, an int whenever the coefficients
lie in (1/2)Z, as every form the engine builds does), and each term is
accumulated as one integer numerator/denominator pair.  A ``Fraction`` is
made once per term; term values and their sums are ``Fraction``, so the
arithmetic stays arbitrary precision and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterable, Mapping

Rational = Fraction

_KIND_RANK = {"eps": 0, "a": 1, "m": 2}


class PoleError(ArithmeticError):
    """A linear form raised to a negative power evaluated to zero."""


def format_rational(x: Fraction) -> str:
    """Serialize a rational as "p/q" in lowest terms, or "p" when q = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational; a zero q is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


@dataclass(frozen=True)
class Var:
    """One equivariant variable: eps1, eps2, a_alpha, or m_f (1-based)."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.index < 1:
            raise ValueError("variable index is 1-based")

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_RANK[self.kind], self.index)

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"

    def __str__(self) -> str:
        return self.name


EPS1 = Var("eps", 1)
EPS2 = Var("eps", 2)


# One shared Var per index: every form built from these holds the same
# objects instead of a fresh dataclass per call.
@cache
def var_a(alpha: int) -> Var:
    return Var("a", alpha)


@cache
def var_m(f: int) -> Var:
    return Var("m", f)


def scope_vars(r: int) -> list[Var]:
    """All 2 + 3r variables of a rank-r setup, in canonical order."""
    out = [EPS1, EPS2]
    out.extend(var_a(i) for i in range(1, r + 1))
    out.extend(var_m(f) for f in range(1, 2 * r + 1))
    return out


# An evaluation point assigns an exact rational to every variable in scope.
EvalPoint = dict


@dataclass(frozen=True)
class LinearForm:
    """A homogeneous linear form, stored as sorted (variable, coefficient)
    pairs."""

    coeffs: tuple[tuple[Var, Fraction], ...]

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, v: Var) -> Fraction:
        for var, c in self.coeffs:
            if var == v:
                return c
        return Fraction(0)

    def sort_key(self):
        return tuple(
            (v.sort_key(), c.numerator, c.denominator) for v, c in self.coeffs
        )

    def evaluate(self, point: Mapping[Var, Fraction]) -> Fraction:
        total = Fraction(0)
        for v, c in self.coeffs:
            total += c * point[v]
        return total

    def scaled(self, factor: Fraction | int) -> "LinearForm":
        return linear_form({v: c * factor for v, c in self.coeffs})

    def __add__(self, other: "LinearForm") -> "LinearForm":
        acc: dict[Var, Fraction] = dict(self.coeffs)
        for v, c in other.coeffs:
            acc[v] = acc.get(v, Fraction(0)) + c
        return linear_form(acc)

    def __neg__(self) -> "LinearForm":
        return self.scaled(-1)

    def substitute(self, rule: "Mapping[Var, LinearForm] | None") -> "LinearForm":
        """Post-compose with a variable substitution (missing vars are fixed)."""
        if rule is None:
            return self
        acc: dict[Var, Fraction] = {}
        for v, c in self.coeffs:
            image = rule.get(v)
            if image is None:
                acc[v] = acc.get(v, Fraction(0)) + c
            else:
                for v2, c2 in image.coeffs:
                    acc[v2] = acc.get(v2, Fraction(0)) + c * c2
        return linear_form(acc)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for v, c in self.coeffs:
            if c == 1:
                text = v.name
            elif c == -1:
                text = f"-{v.name}"
            else:
                text = f"{format_rational(c)}*{v.name}"
            if parts and not text.startswith("-"):
                parts.append(f"+ {text}")
            elif parts:
                parts.append(f"- {text[1:]}")
            else:
                parts.append(text)
        return " ".join(parts)


def linear_form(coeffs: Mapping[Var, Fraction | int]) -> LinearForm:
    """Build a form from a coefficient mapping, merging and dropping zeros."""
    items = [
        (v, Fraction(c)) for v, c in coeffs.items() if c != 0
    ]
    items.sort(key=lambda vc: vc[0].sort_key())
    return LinearForm(tuple(items))


ZERO_FORM = linear_form({})


@dataclass(frozen=True)
class FactoredTerm:
    """scalar * product of (linear form)^exponent, in canonical storage.

    Invariants: factors are merged by form and sorted, no zero exponents,
    no symbolically-zero forms, and a zero scalar forces an empty factor
    list.  Terms built from any permutation of the same factor multiset
    are therefore identical objects.
    """

    scalar: Fraction
    factors: tuple[tuple[LinearForm, int], ...]

    def is_zero(self) -> bool:
        return self.scalar == 0

    def evaluate(self, point: Mapping[Var, Fraction]) -> Fraction:
        ints, two_d = _scale_point(point)
        return _term_value(self, ints, two_d, point)

    def __str__(self) -> str:
        if not self.factors:
            return format_rational(self.scalar)
        body = " ".join(f"({form})^{exp}" for form, exp in self.factors)
        return f"{format_rational(self.scalar)} * {body}"


def factored_term(
    scalar: Fraction | int,
    factors: Iterable[tuple[LinearForm, int]] = (),
) -> FactoredTerm:
    """Build a term in canonical form from an unordered factor multiset."""
    s = Fraction(scalar)
    if s == 0:
        return FactoredTerm(Fraction(0), ())
    merged: dict[LinearForm, int] = {}
    for form, exp in factors:
        if form.is_zero():
            raise ValueError("symbolically zero form in a factored term")
        merged[form] = merged.get(form, 0) + exp
    kept = [(form, exp) for form, exp in merged.items() if exp != 0]
    kept.sort(key=lambda fe: (fe[0].sort_key(), fe[1]))
    return FactoredTerm(s, tuple(kept))


UNIT_TERM = factored_term(1)


def _scale_point(point: Mapping[Var, Fraction]) -> tuple[dict[Var, int], int]:
    """Write every value of `point` as an int over one common denominator D;
    return those ints and 2D."""
    d = lcm(*(value.denominator for value in point.values()))
    ints = {v: value.numerator * (d // value.denominator) for v, value in point.items()}
    return ints, 2 * d


def _term_value(
    t: FactoredTerm, ints: Mapping[Var, int], two_d: int, point: Mapping[Var, Fraction]
) -> Fraction:
    """Value of `t` at the point that `_scale_point` turned into (ints, two_d).

    Each factor's value times 2D is an int dot product when the form's
    coefficients lie in (1/2)Z; any other rational coefficient makes that
    factor a Fraction, which the same products carry exactly.  A vanishing
    factor with negative exponent is a pole even if an earlier factor
    already vanished; otherwise a vanishing factor makes the term 0."""
    if t.scalar == 0:
        return Fraction(0)
    num, den = t.scalar.numerator, t.scalar.denominator
    degree = 0
    vanished = False
    for form, exp in t.factors:
        value = 0
        for v, c in form.coeffs:
            q = c.denominator
            if q == 1:
                value += 2 * c.numerator * ints[v]
            elif q == 2:
                value += c.numerator * ints[v]
            else:
                value = sum((2 * c * ints[v] for v, c in form.coeffs), Fraction(0))
                break
        if value == 0:
            if exp < 0:
                raise PoleError(f"pole: ({form})^{exp} at {point}")
            vanished = True
        elif exp > 0:
            num *= value**exp
        else:
            den *= value**-exp
        degree += exp
    if vanished:
        return Fraction(0)
    if degree > 0:
        den *= two_d**degree
    else:
        num *= two_d**-degree
    return Fraction(num, den)


def term_mul(a: FactoredTerm, b: FactoredTerm) -> FactoredTerm:
    """Product of two terms; factor exponents add, invariants restored."""
    if a.is_zero() or b.is_zero():
        return factored_term(0)
    return factored_term(a.scalar * b.scalar, a.factors + b.factors)


def term_pow(t: FactoredTerm, n: int) -> FactoredTerm:
    """Integer power of a term (n may be negative; scalar must be nonzero)."""
    if n == 0:
        return UNIT_TERM
    if t.is_zero():
        if n < 0:
            raise ZeroDivisionError("inverse of the zero term")
        return t
    return factored_term(
        t.scalar ** n, tuple((form, exp * n) for form, exp in t.factors)
    )


def term_scale(t: FactoredTerm, c: Fraction | int) -> FactoredTerm:
    return factored_term(t.scalar * Fraction(c), t.factors)


def term_eval(t: FactoredTerm, point: Mapping[Var, Fraction]) -> Fraction:
    return t.evaluate(point)


def term_substitute(
    t: FactoredTerm, rule: "Mapping[Var, LinearForm] | None"
) -> FactoredTerm:
    if rule is None:
        return t
    return factored_term(
        t.scalar, ((form.substitute(rule), exp) for form, exp in t.factors)
    )


# A coefficient (of one q-grade of a series) is a formal sum of terms; its
# meaning is the sum of the term values at every evaluation point, so the
# stored order carries no semantics (but is kept deterministic).
Coefficient = tuple


def coeff_eval(c: Coefficient, point: Mapping[Var, Fraction]) -> Fraction:
    ints, two_d = _scale_point(point)
    total = Fraction(0)
    for t in c:
        total += _term_value(t, ints, two_d, point)
    return total


def coeff_denominator_forms(c: Coefficient) -> list[LinearForm]:
    """Distinct forms appearing with negative exponent, in first-seen order."""
    seen: dict[LinearForm, None] = {}
    for t in c:
        for form, exp in t.factors:
            if exp < 0 and form not in seen:
                seen[form] = None
    return list(seen)
