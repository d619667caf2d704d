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
series build's memos.  Its `pieces` dict maps a piece's key to that
piece's ``FactoredTerm``, built on first use, and a term is the tuple
of the table's objects, unit pieces dropped (see ``exact``); merged, a
term's pieces give the canonical piece one Euler class of each whole
character gives.  The piece keys:

  * plane and orbifold: matter (alpha, Y_alpha), tangent
    (alpha, beta, Y_alpha, Y_beta);
  * resolved surface: matter (alpha, 2k_alpha) for the line-bundle piece
    and (alpha, 2k_alpha, chart, Y^chart_alpha) per chart; tangent
    (alpha, beta, delta) for the line-bundle piece and
    (alpha, beta, delta, chart, Y^chart_alpha, Y^chart_beta) per chart,
    delta = 2(k_beta - k_alpha).

A diagonal tangent piece has e-part () and a character that does not
depend on alpha (color(alpha) + color(alpha) is even, delta is 0), so
every slot shares one, keyed as the slot pair (0, 0).  A piece whose
character is empty by construction is never keyed or built: the tangent
piece of two empty diagrams, the matter piece of an empty diagram, and a
line-bundle piece char_twist(d) with |d| <= 1.  `chars` memoizes a slot
pair's (p, q) list by what it depends on: (Y_alpha, Y_beta) on the
plane, (color(alpha) + color(beta) mod 2, Y_alpha, Y_beta) on the
orbifold, (delta, chart, Y_alpha, Y_beta) on a chart.  A resolved term
has the blow-up shape ell(kvec) + part_1 + part_2: ell holds each slot's
line-bundle matter piece and then its slot pairs' line-bundle tangent
pieces, and part c the same for chart c.  `parts` memoizes ell by the
doubled first-Chern vector and part c by (that vector, c, Y^c).
The forms are memoized by e-part and then by (p, q): each tangent
monomial's weight form (`weights`) and each tautological monomial's 2r
mass-shifted forms (`masses`), so every piece holding a form holds one
object.  A piece is built without the sort of ``exact.factored_term``: a
monomial's weight is a linear form injective in (p, q, e), and its
mass-shifted form injective in (monomial, f), so once equal pairs are
merged a piece's factors have pairwise distinct forms, kept in build
order (the first-seen order of its pairs, independent of the hash seed).
The caller owns the table: ``series`` makes one per series build, and it
dies with the build.  Nothing here keeps state between calls.

The line-bundle factor ell(kvec) is the term of the resolved fixed point
(kvec, empty, empty).  A symbolically zero weight can only come from a
transcription bug (every fixed point is isolated at generic parameters),
so it is a hard error.
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
    """One series build's memos of pieces, slot-pair characters, resolved
    parts, weight forms and mass-shifted forms; see the module docstring."""

    __slots__ = ("pieces", "chars", "parts", "weights", "masses")

    def __init__(self) -> None:
        self.pieces: dict = {}
        self.chars: dict = {}
        self.parts: dict = {}
        self.weights: dict = {}
        self.masses: dict = {}


def _memo(memo: dict, key, build, *args):
    """memo[key], made by build(*args) on first use."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(*args)
    return value


def _diagram_tuple_term(diagrams, r: int, table: FactorTable, char_v, pair_char) -> Term:
    """Term of a diagram tuple whose slot alpha has the tautological piece
    char_v(alpha, Y_alpha) and whose slot pair the tangent piece on
    pair_char(alpha, beta, Y_alpha, Y_beta)."""
    cached = table.pieces
    pieces: list = []
    for alpha, ya in enumerate(diagrams, start=1):
        if ya:
            piece = cached.get((alpha, ya))
            if piece is None:
                ch = char_v(alpha, ya)
                piece = cached[alpha, ya] = matter_euler(ch, slot_part(alpha), r, table.masses)
            if piece.factors:
                pieces.append(piece)
        for beta, yb in enumerate(diagrams, start=1):
            if not (ya or yb):
                continue
            key = (alpha, beta, ya, yb) if alpha != beta else (0, 0, ya, yb)
            piece = cached.get(key)
            if piece is None:
                ch = pair_char(alpha, beta, ya, yb)
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
        lambda alpha, beta, ya, yb: _memo(table.chars, (ya, yb), char_tangent_p2, ya, yb),
    )


def term_x0(frame: FrameData, fp: FixedPointX0, table: FactorTable) -> Term:
    """Localization term of one orbifold fixed point."""
    w0 = frame.w0
    return _diagram_tuple_term(
        fp.diagrams,
        frame.r,
        table,
        lambda alpha, y: char_v_x0(frame, alpha, y, 0),
        # slots past w0 have color 1: the key leads with color(alpha) + color(beta) mod 2
        lambda alpha, beta, ya, yb: _memo(
            table.chars, ((alpha > w0) != (beta > w0), ya, yb), char_tangent_x0, frame, alpha, beta, ya, yb
        ),
    )


def _ell_part(doubled: tuple, r: int, table: FactorTable) -> Term:
    """ell(kvec) for the doubled first-Chern vector: each slot's
    line-bundle matter piece, then its slot pairs' line-bundle tangent
    pieces."""
    cached, pieces = table.pieces, []
    for alpha, d in enumerate(doubled, start=1):
        if abs(d) > 1:
            piece = cached.get((alpha, d))
            if piece is None:
                piece = cached[alpha, d] = matter_euler(char_twist(d), slot_part(alpha), r, table.masses)
            pieces.append(piece)
        for beta, d_beta in enumerate(doubled, start=1):
            delta = d_beta - d
            if abs(delta) > 1:
                key = (alpha, beta, delta)
                piece = cached.get(key)
                if piece is None:
                    e = ratio_part(alpha, beta)
                    piece = cached[key] = _tangent_piece(char_twist(delta), e, table.weights)
                pieces.append(piece)
    return tuple(pieces)


def _chart_part(doubled: tuple, chart: int, ys: tuple, r: int, table: FactorTable) -> Term:
    """Chart `chart`'s part of a resolved term, for the doubled first-Chern
    vector and that chart's diagrams `ys`: each slot's chart matter piece,
    then its slot pairs' chart tangent pieces."""
    cached, pieces = table.pieces, []
    slots = list(zip(doubled, ys))
    for alpha, (d, ya) in enumerate(slots, start=1):
        if ya:
            key = (alpha, d, chart, ya)
            piece = cached.get(key)
            if piece is None:
                ch = char_v_x1(d, chart, ya, 0)
                piece = cached[key] = matter_euler(ch, slot_part(alpha), r, table.masses)
            pieces.append(piece)
        for beta, (d_beta, yb) in enumerate(slots, start=1):
            if not (ya or yb):
                continue
            delta = d_beta - d
            key = (alpha, beta, delta, chart, ya, yb) if alpha != beta else (0, 0, 0, chart, ya, yb)
            piece = cached.get(key)
            if piece is None:
                ch = _memo(table.chars, (delta, chart, ya, yb), char_tangent_x1, delta, chart, ya, yb)
                piece = cached[key] = _tangent_piece(ch, ratio_part(alpha, beta), table.weights)
            pieces.append(piece)
    return tuple(pieces)


def term_x1(frame: FrameData, fp: FixedPointX1, table: FactorTable) -> Term:
    """Localization term of one resolved-surface fixed point, in the
    blow-up shape ell(kvec) + part_1 + part_2, each part made once per
    table."""
    r, parts = frame.r, table.parts
    doubled = tuple([k.doubled for k in fp.kvec])
    return (
        _memo(parts, doubled, _ell_part, doubled, r, table)
        + _memo(parts, (doubled, 1, fp.y1), _chart_part, doubled, 1, fp.y1, r, table)
        + _memo(parts, (doubled, 2, fp.y2), _chart_part, doubled, 2, fp.y2, r, table)
    )


def ell_factor(frame: FrameData, kvec, table: FactorTable) -> Term:
    """Pure line-bundle contribution of a first-Chern vector: the term of
    the resolved fixed point with that vector and no boxes."""
    doubled = tuple([k.doubled for k in kvec])
    return _memo(table.parts, doubled, _ell_part, doubled, frame.r, table)
