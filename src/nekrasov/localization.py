"""Equivariant Euler classes and per-fixed-point localization terms.

A monomial t1^p t2^q e_1^c1 .. e_r^cr, with t-exponents (p, q) and e-part
e = the nonzero (alpha, c_alpha) pairs sorted by alpha, has equivariant
weight

    p*eps1 + q*eps2 + c1*a_1 + ... + cr*a_r

and the Euler class of a character is the product of the weights of its
monomials, each raised to its multiplicity.  The matter bundle
contributes, for each mass m_f, the product of (weight + m_f -
(eps1 + eps2)/2) over the tautological fiber: the half shift is the
double-cover identification sqrt(t1*t2), injected here as a
half-integral coefficient so characters themselves keep integral
exponents.  Every form is built straight in its doubled ints (see
``exact.LinearForm``): the weight is (2p, 2q, frame) and its mass shift
(2p - 1, 2q - 1, frame + m_f), the frame holding 2c_alpha per a_alpha,
so no ``Fraction`` is made.

A localization term is matter Euler class divided by tangent Euler class.
Both characters are sums of pieces (see ``characters``), each a list of
(p, q) pairs sharing one e-part, so the term is the product of one factor
per piece: the matter Euler class of each slot's tautological piece
(``matter_euler``) and the inverse Euler class of each slot pair's
tangent piece (``euler_class`` to the power -1).  Both take the piece's
pairs and its e-part, passed once: they merge equal pairs once, in a
dict keyed by the pair, in first-seen order, and read each distinct
pair's form off a memo for that e-part.
``term_p2``, ``term_x0`` and ``term_x1`` take a ``FactorTable``, one
series build's memo.  Its `pieces` dict maps a piece's key to that
piece's ``FactoredTerm``; a piece missing from it is built and
stored, and the term is the tuple of the table's objects, unit pieces
dropped (a term is the tuple of its pieces; see ``exact``).  No fixed
point's factors are merged: merged, its pieces give the canonical piece
that one Euler class of each whole character gives.
The keys:

  * plane and orbifold: matter (alpha, Y_alpha), tangent
    (alpha, beta, Y_alpha, Y_beta);
  * resolved surface: matter (alpha, 2k_alpha) for the line-bundle piece
    and (alpha, 2k_alpha, chart, Y^chart_alpha) per chart; tangent
    (alpha, beta, delta) for the line-bundle piece and
    (alpha, beta, delta, chart, Y^chart_alpha, Y^chart_beta) per chart,
    delta = 2(k_beta - k_alpha).

The key shapes differ in length, so they cannot collide within one table.
Beside the pieces the table keeps its forms, in dicts of their own, each
keyed by e-part and then by (p, q): each tangent monomial's weight form
(`weights`) and each tautological monomial's 2r mass-shifted forms
(`masses`) are built once per build, and every piece holding a form
holds that one object.  Each piece is built directly, without the sort
of ``exact.factored_term``: a monomial's weight is a linear form
injective in (p, q, e), and its mass-shifted form injective in
(monomial, f), so once equal pairs are merged a piece's factors have
pairwise distinct forms.  They stay in build order (the first-seen order
of the piece's pairs), which is independent of the hash seed; sorted, a
piece is the canonical piece ``factored_term`` gives.
The caller owns the table: ``series`` makes one per series build, so a
table holds at most the distinct pieces and forms of that series and
dies with the build.  Nothing here keeps state between calls.

The line-bundle factor ell(kvec) of a first-Chern vector is the term of
the resolved fixed point (kvec, empty, empty).  A symbolically zero
weight can only come from a transcription bug (every fixed point is
isolated at generic parameters), so it is a hard error.
"""

from __future__ import annotations

from .characters import (
    char_tangent_p2,
    char_tangent_x0,
    char_tangent_x1,
    char_twist,
    char_v_p2,
    char_v_x0,
    char_v_x1,
)
from .diagrams import FixedPointX0, FixedPointX1, FrameData
from .exact import FactoredTerm, LinearForm, Term, term_pow, var_a, var_m


class VanishingWeight(ArithmeticError):
    """A monomial with symbolically zero weight entered an Euler class."""


def _frame(e: tuple) -> tuple:
    """The frame part of e-part e: (a_alpha's slot, 2 c_alpha) per pair."""
    return tuple([(var_a(alpha).slot, 2 * c) for alpha, c in e])


def weight_form(mono: tuple) -> LinearForm:
    """Equivariant weight of a monomial (p, q, e) as a linear form."""
    p, q, e = mono
    return LinearForm(2 * p, 2 * q, _frame(e))


def mass_shifted_weight(mono: tuple, f: int) -> LinearForm:
    """Weight of a matter monomial: weight + m_f - (eps1 + eps2)/2."""
    p, q, e = mono
    return LinearForm(2 * p - 1, 2 * q - 1, _frame(e) + ((var_m(f).slot, 2),))


def slot_part(alpha: int) -> tuple:
    """The e-part e_alpha of slot alpha's tautological pieces."""
    return ((alpha, 1),)


def ratio_part(alpha: int, beta: int) -> tuple:
    """The e-part e_beta / e_alpha of slot pair (alpha, beta)'s tangent
    pieces."""
    if alpha == beta:
        return ()
    return ((alpha, -1), (beta, 1)) if alpha < beta else ((beta, 1), (alpha, -1))


def _multiplicities(weights: list) -> dict:
    """Each distinct pair of `weights` with its multiplicity, in first-seen
    order."""
    mults = dict.fromkeys(weights, 1)
    if len(mults) < len(weights):
        mults = dict.fromkeys(mults, 0)
        for w in weights:
            mults[w] += 1
    return mults


def euler_class(weights: list, e: tuple, forms: dict | None = None) -> FactoredTerm:
    """The product of the weights of a character piece: its (p, q) pairs, all
    with e-part e; no pairs give 1.  `forms` is a memo from e-part to a
    dict from pair to weight form: a monomial met before reuses its form
    object.  Equal pairs are merged into one factor, whose exponent is
    their count; distinct monomials have distinct weights, so the factors
    need no further merge and stay in first-seen order."""
    memo = {} if forms is None else forms.setdefault(e, {})
    factors = []
    for w, mult in _multiplicities(weights).items():
        form = memo.get(w)
        if form is None:
            mono = (*w, e)
            form = weight_form(mono)
            if form.is_zero():
                raise VanishingWeight(f"zero weight for monomial {mono}")
            memo[w] = form
        factors.append((form, mult))
    return FactoredTerm(tuple(factors))


def matter_euler(weights: list, e: tuple, r: int, forms: dict | None = None) -> FactoredTerm:
    """Euler class of the matter bundle over a tautological piece, its
    (p, q) pairs all with e-part e: for each of the 2r masses, the product
    of mass-shifted weights.  Every factor carries m_f with coefficient 1,
    so none can vanish.  `forms` is a memo from e-part to a dict from pair
    to its 2r mass-shifted forms, for one r.  Equal pairs are merged as in
    ``euler_class``; each (monomial, f) gives a distinct form, so the
    factors need no further merge and stay in build order."""
    memo = {} if forms is None else forms.setdefault(e, {})
    factors = []
    for w, mult in _multiplicities(weights).items():
        shifted = memo.get(w)
        if shifted is None:
            mono = (*w, e)
            shifted = memo[w] = tuple([mass_shifted_weight(mono, f) for f in range(1, 2 * r + 1)])
        for form in shifted:
            factors.append((form, mult))
    return FactoredTerm(tuple(factors))


def _tangent_piece(weights: list, e: tuple, forms: dict | None = None) -> FactoredTerm:
    """Inverse Euler class of a tangent piece."""
    return term_pow(euler_class(weights, e, forms), -1)


class FactorTable:
    """One series build's memo: `pieces` by key, and by e-part then
    (p, q) the weight forms of tangent monomials (`weights`) and the 2r
    mass-shifted forms of tautological monomials (`masses`); see the
    module docstring."""

    __slots__ = ("pieces", "weights", "masses")

    def __init__(self) -> None:
        self.pieces: dict = {}
        self.weights: dict = {}
        self.masses: dict = {}


def _diagram_tuple_term(diagrams, r: int, table: FactorTable, char_v, char_tangent) -> Term:
    """Term of a diagram tuple whose slot alpha has the tautological piece
    char_v(alpha, Y_alpha) and whose slot pair the tangent piece
    char_tangent(alpha, beta, Y_alpha, Y_beta)."""
    cached = table.pieces
    pieces: list = []
    for alpha, ya in enumerate(diagrams, start=1):
        piece = cached.get((alpha, ya))
        if piece is None:
            ch = char_v(alpha, ya)
            piece = cached[alpha, ya] = matter_euler(ch, slot_part(alpha), r, table.masses)
        if piece.factors:
            pieces.append(piece)
        for beta, yb in enumerate(diagrams, start=1):
            key = (alpha, beta, ya, yb)
            piece = cached.get(key)
            if piece is None:
                ch = char_tangent(alpha, beta, ya, yb)
                piece = cached[key] = _tangent_piece(ch, ratio_part(alpha, beta), table.weights)
            if piece.factors:
                pieces.append(piece)
    return tuple(pieces)


def term_p2(r: int, diagrams, table: FactorTable) -> Term:
    """Localization term of one diagram tuple on the plane."""
    return _diagram_tuple_term(
        diagrams,
        r,
        table,
        lambda alpha, y: char_v_p2(y),
        lambda alpha, beta, ya, yb: char_tangent_p2(ya, yb),
    )


def term_x0(frame: FrameData, fp: FixedPointX0, table: FactorTable) -> Term:
    """Localization term of one orbifold fixed point."""
    return _diagram_tuple_term(
        fp.diagrams,
        frame.r,
        table,
        lambda alpha, y: char_v_x0(frame, alpha, y, 0),
        lambda alpha, beta, ya, yb: char_tangent_x0(frame, alpha, beta, ya, yb),
    )


def term_x1(frame: FrameData, fp: FixedPointX1, table: FactorTable) -> Term:
    """Localization term of one resolved-surface fixed point."""
    r = frame.r
    doubled = [k.doubled for k in fp.kvec]
    charts = ((1, fp.y1), (2, fp.y2))
    cached, weights, masses = table.pieces, table.weights, table.masses
    pieces: list = []
    for alpha in range(1, r + 1):
        d = doubled[alpha - 1]
        piece = cached.get((alpha, d))
        if piece is None:
            piece = cached[alpha, d] = matter_euler(char_twist(d), slot_part(alpha), r, masses)
        if piece.factors:
            pieces.append(piece)
        for chart, ys in charts:
            key = (alpha, d, chart, ys[alpha - 1])
            piece = cached.get(key)
            if piece is None:
                ch = char_v_x1(d, chart, ys[alpha - 1], 0)
                piece = cached[key] = matter_euler(ch, slot_part(alpha), r, masses)
            if piece.factors:
                pieces.append(piece)
        for beta in range(1, r + 1):
            delta = doubled[beta - 1] - d
            key = (alpha, beta, delta)
            piece = cached.get(key)
            if piece is None:
                e = ratio_part(alpha, beta)
                piece = cached[key] = _tangent_piece(char_twist(delta), e, weights)
            if piece.factors:
                pieces.append(piece)
            for chart, ys in charts:
                key = (alpha, beta, delta, chart, ys[alpha - 1], ys[beta - 1])
                piece = cached.get(key)
                if piece is None:
                    ch = char_tangent_x1(delta, chart, ys[alpha - 1], ys[beta - 1])
                    e = ratio_part(alpha, beta)
                    piece = cached[key] = _tangent_piece(ch, e, weights)
                if piece.factors:
                    pieces.append(piece)
    return tuple(pieces)


def ell_factor(frame: FrameData, kvec, table: FactorTable) -> Term:
    """Pure line-bundle contribution of a first-Chern vector: the term of
    the resolved fixed point with that vector and no boxes."""
    empties = ((),) * frame.r
    return term_x1(frame, FixedPointX1(kvec, empties, empties), table)
