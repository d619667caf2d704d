"""Equivariant Euler classes and per-fixed-point localization terms.

A monomial (p, q, e) of a character, t1^p t2^q e_1^c1 .. e_r^cr, has
equivariant weight

    p*eps1 + q*eps2 + c1*a_1 + ... + cr*a_r

and the Euler class of a character is the product of the weights of its
monomials, each raised to its multiplicity.  The matter bundle
contributes, for each mass m_f, the product of (weight + m_f -
(eps1 + eps2)/2) over the tautological fiber: the half shift is the
double-cover identification sqrt(t1*t2), injected here as a
half-integral coefficient so characters themselves keep integral
exponents.  Every form is built from doubled coefficients through
``exact.form_from_doubled``, so no ``Fraction`` is made.

A localization term is matter Euler class divided by tangent Euler class.
The line-bundle factor ell(kvec) of a first-Chern vector is the term of
the resolved fixed point (kvec, empty, empty).  A symbolically zero
weight can only come from a transcription bug (every fixed point is
isolated at generic parameters), so it is a hard error.
"""

from __future__ import annotations

from collections import Counter

from .characters import (
    char_tangent_p2,
    char_tangent_x0,
    char_tangent_x1,
    char_v_p2,
    char_v_x0,
    char_v_x1,
)
from .diagrams import FixedPointX0, FixedPointX1, FrameData
from .exact import (
    EPS1,
    EPS2,
    FactoredTerm,
    LinearForm,
    factored_term,
    form_from_doubled,
    term_mul,
    term_pow,
    var_a,
    var_m,
)


class VanishingWeight(ArithmeticError):
    """A monomial with symbolically zero weight entered an Euler class."""


def weight_form(mono: tuple) -> LinearForm:
    """Equivariant weight of a monomial as a linear form."""
    return form_from_doubled(_doubled_weight(mono))


def mass_shifted_weight(mono: tuple, f: int) -> LinearForm:
    """Weight of a matter monomial: weight + m_f - (eps1 + eps2)/2."""
    return form_from_doubled(_doubled_weight(mono, -1) + [(var_m(f).slot, 2)])


def _doubled_weight(mono: tuple, eps_shift: int = 0) -> list[tuple[int, int]]:
    """(slot, 2 * coefficient) pairs of the weight plus eps_shift/2 times
    (eps1 + eps2), sorted by slot."""
    p, q, e = mono
    pairs = [(EPS1.slot, 2 * p + eps_shift), (EPS2.slot, 2 * q + eps_shift)]
    pairs.extend((var_a(alpha).slot, 2 * exp) for alpha, exp in e)
    return pairs


def euler_class(ch: Counter) -> FactoredTerm:
    """Product of the weights of a character; empty character gives 1."""
    factors = []
    for mono, mult in ch.items():
        form = weight_form(mono)
        if form.is_zero():
            raise VanishingWeight(f"zero weight for monomial {mono}")
        factors.append((form, mult))
    return factored_term(1, factors)


def matter_euler(ch_v0: Counter, r: int) -> FactoredTerm:
    """Euler class of the matter bundle: for each of the 2r masses, the
    product of mass-shifted weights over the tautological fiber.  Every
    factor carries m_f with coefficient 1, so none can vanish."""
    factors = []
    for f in range(1, 2 * r + 1):
        for mono, mult in ch_v0.items():
            factors.append((mass_shifted_weight(mono, f), mult))
    return factored_term(1, factors)


def term_p2(r: int, diagrams) -> FactoredTerm:
    """Localization term of one diagram tuple on the plane."""
    num = matter_euler(char_v_p2(r, diagrams), r)
    den = euler_class(char_tangent_p2(r, diagrams))
    return term_mul(num, term_pow(den, -1))


def term_x0(frame: FrameData, fp: FixedPointX0) -> FactoredTerm:
    """Localization term of one orbifold fixed point."""
    num = matter_euler(char_v_x0(frame, fp, 0), frame.r)
    den = euler_class(char_tangent_x0(frame, fp))
    return term_mul(num, term_pow(den, -1))


def term_x1(frame: FrameData, fp: FixedPointX1) -> FactoredTerm:
    """Localization term of one resolved-surface fixed point."""
    num = matter_euler(char_v_x1(frame, fp, 0), frame.r)
    den = euler_class(char_tangent_x1(frame, fp))
    return term_mul(num, term_pow(den, -1))


def ell_factor(frame: FrameData, kvec) -> FactoredTerm:
    """Pure line-bundle contribution of a first-Chern vector: the term of
    the resolved fixed point with that vector and no boxes."""
    empties = ((),) * frame.r
    return term_x1(frame, FixedPointX1(kvec, empties, empties))
