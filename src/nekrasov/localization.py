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
character gives.

One slot walk (``_slot_walk``) builds the plane and orbifold terms and
each chart part of a resolved term.  They differ in a class c_alpha per
slot (0 on the plane, the color on the orbifold, 2k_alpha on a chart), a
tag (the chart, else 0) and two character builders.  The walk keys each
slot's matter piece (alpha, c_alpha, tag, Y_alpha), then its slot pairs'
tangent pieces (alpha, beta, d, tag, Y_alpha, Y_beta), d = c_beta -
c_alpha, and visits only the pairs with a box (every beta for a slot
with a diagram, the filled beta otherwise), so n boxes give O(n r)
pieces.  `chars` holds each character once per (c_alpha, tag, Y_alpha)
or (d, tag, Y_alpha, Y_beta), d mod 2 on the orbifold.  A diagonal
tangent piece has e-part () and d = 0, so every slot shares one per tag
and diagram, keyed as the slot pair (0, 0).  No piece whose character is
empty by construction is keyed or built: two empty diagrams' tangent
piece, an empty diagram's matter piece, a line-bundle piece
char_twist(d) with |d| <= 1.  A resolved term is ell(kvec) + part_1 +
part_2: ell holds each slot's line-bundle matter piece (alpha, 2k_alpha)
and then its slot pairs' (alpha, beta, delta), delta = 2(k_beta -
k_alpha), visiting no pair when 2kvec spreads by at most 1; `parts`
memoizes ell by 2kvec and part c by (2kvec, c, Y^c).
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
    """One series build's memos of pieces, characters, resolved parts,
    weight forms and mass-shifted forms; see the module docstring."""

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


def _slot_walk(classes, diagrams, tag, fold: int, r: int, table: FactorTable, v_char, pair_char) -> Term:
    """Term of the slots with classes `classes` and diagrams `diagrams`
    under tag `tag`; a character is v_char(alpha, c_alpha, tag, Y_alpha)
    or pair_char(alpha, beta, d, tag, Y_alpha, Y_beta), d mod `fold` if
    set.  The builders read each ``char_*`` as a module global when they
    run, so a rebinding of one (a test's patch, a tracer) is seen."""
    pieces, chars, out = table.pieces, table.chars, []
    filled = () if all(diagrams) else [(beta, yb) for beta, yb in enumerate(diagrams, start=1) if yb]
    for alpha, ya in enumerate(diagrams, start=1):
        ca = classes[alpha - 1]
        if ya:
            key = (alpha, ca, tag, ya)
            piece = pieces.get(key)
            if piece is None:
                ch = _memo(chars, (ca, tag, ya), v_char, alpha, ca, tag, ya)
                piece = pieces[key] = matter_euler(ch, slot_part(alpha), r, table.masses)
            if piece.factors:
                out.append(piece)
        for beta, yb in enumerate(diagrams, start=1) if ya else filled:
            d = classes[beta - 1] - ca
            key = (alpha, beta, d, tag, ya, yb) if alpha != beta else (0, 0, 0, tag, ya, yb)
            piece = pieces.get(key)
            if piece is None:
                if fold:
                    d %= fold
                ch = _memo(chars, (d, tag, ya, yb), pair_char, alpha, beta, d, tag, ya, yb)
                piece = pieces[key] = _tangent_piece(ch, ratio_part(alpha, beta), table.weights)
            if piece.factors:
                out.append(piece)
    return tuple(out)


# The plane's builders for the slot walk: every slot has class 0 and tag 0.
def _v_p2(alpha: int, c: int, tag: int, y) -> list:
    return char_v_p2(y)


def _pair_p2(alpha: int, beta: int, d: int, tag: int, ya, yb) -> list:
    return char_tangent_p2(ya, yb)


def term_p2(r: int, diagrams, table: FactorTable) -> Term:
    """Localization term of one diagram tuple on the plane."""
    return _slot_walk((0,) * r, diagrams, 0, 0, r, table, _v_p2, _pair_p2)


def term_x0(frame: FrameData, fp: FixedPointX0, table: FactorTable) -> Term:
    """Localization term of one orbifold fixed point: a slot's class is its
    color, and a slot pair's character depends on their difference mod 2."""
    return _slot_walk(
        frame.colors,
        fp.diagrams,
        0,
        2,
        frame.r,
        table,
        lambda alpha, c, tag, y: char_v_x0(frame, alpha, y),
        lambda alpha, beta, d, tag, ya, yb: char_tangent_x0(frame, alpha, beta, ya, yb),
    )


def _ell_part(doubled: tuple, r: int, table: FactorTable) -> Term:
    """ell(kvec) for the doubled first-Chern vector: each slot's
    line-bundle matter piece, then its slot pairs' line-bundle tangent
    pieces.  No slot pair has one when the vector's spread is at most 1."""
    cached, pieces = table.pieces, []
    pairs = doubled if max(doubled) - min(doubled) > 1 else ()
    for alpha, d in enumerate(doubled, start=1):
        if abs(d) > 1:
            piece = cached.get((alpha, d))
            if piece is None:
                piece = cached[alpha, d] = matter_euler(char_twist(d), slot_part(alpha), r, table.masses)
            pieces.append(piece)
        for beta, d_beta in enumerate(pairs, start=1):
            delta = d_beta - d
            if abs(delta) > 1:
                key = (alpha, beta, delta)
                piece = cached.get(key)
                if piece is None:
                    e = ratio_part(alpha, beta)
                    piece = cached[key] = _tangent_piece(char_twist(delta), e, table.weights)
                pieces.append(piece)
    return tuple(pieces)


# A chart's builders for the slot walk: the class is 2k_alpha, the tag the chart.
def _v_x1(alpha: int, d: int, chart: int, y) -> list:
    return char_v_x1(d, chart, y)


def _pair_x1(alpha: int, beta: int, delta: int, chart: int, ya, yb) -> list:
    return char_tangent_x1(delta, chart, ya, yb)


def term_x1(frame: FrameData, fp: FixedPointX1, table: FactorTable) -> Term:
    """Localization term of one resolved-surface fixed point, in the
    blow-up shape ell(kvec) + part_1 + part_2, each part made once per
    table.  Part c walks chart c's diagrams under tag c, a slot's class
    being its doubled k_alpha."""
    r, parts = frame.r, table.parts
    doubled = tuple([k.doubled for k in fp.kvec])
    return (
        _memo(parts, doubled, _ell_part, doubled, r, table)
        + _memo(parts, (doubled, 1, fp.y1), _slot_walk, doubled, fp.y1, 1, 0, r, table, _v_x1, _pair_x1)
        + _memo(parts, (doubled, 2, fp.y2), _slot_walk, doubled, fp.y2, 2, 0, r, table, _v_x1, _pair_x1)
    )


def ell_factor(frame: FrameData, kvec, table: FactorTable) -> Term:
    """Pure line-bundle contribution of a first-Chern vector: the term of
    the resolved fixed point with that vector and no boxes."""
    doubled = tuple([k.doubled for k in kvec])
    return _memo(table.parts, doubled, _ell_part, doubled, frame.r, table)
