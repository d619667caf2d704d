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
``term_p2`` and ``term_x0`` take a fixed point's diagram tuple and
``term_x1`` its (kvec, Y1, Y2); each takes a factor table, one series
build's memos, and the table decides what a piece is: every piece, ell's
too, is made by the table's ``matter`` or ``tangent``, and every term by
its ``term``.  A ``FactorTable`` (zp2, zx1 and zx1-fact's ell pieces)
maps a piece's key in `pieces` to that piece's ``FactoredTerm``, built
on first use (a tangent piece as ``euler_class`` to the power -1), and a
term is the tuple of the table's objects, a resolved term's three parts
each as a one-term sum;
multiplied out and merged, a term's pieces give the canonical piece one
Euler class of each whole character gives.  A ``CompiledTable`` (zx0)
compiles each piece as it makes it, into the build's
``exact.Compile``: a matter piece is (numerator set ref, 0, degree) and
a tangent piece (0, denominator set ref, -degree), with the same
factors as ``matter_euler`` and the inverse of ``euler_class``, and a
term is the compiled term of its pieces, which the kernel reads with no
compile walk; no ``FactoredTerm`` is made.  Neither table is ever
handed an empty character, so neither makes a unit piece.

One slot walk (``_slot_walk``) builds the plane and orbifold terms, each
chart part of a resolved term, and ell(kvec).  They differ in a class
c_alpha per slot (0 on the plane, the color on the orbifold, 2k_alpha on
a chart and for ell), a datum per slot (its diagram, or its 2k_alpha for
ell), a tag (the chart, else 0) and two character builders.  The walk
keys each slot's matter piece (alpha, c_alpha, tag, Y_alpha), then its
slot pairs' tangent pieces (alpha, beta, d, tag, Y_alpha, Y_beta), d =
c_beta - c_alpha, and visits only the pairs with a box (every beta for a
slot with a diagram, the filled beta otherwise), so n boxes give O(n r)
pieces; a slot with no boxes, or with k_alpha = 0 for ell, makes no
piece of its own.  `chars` holds each character once per (c_alpha, tag,
Y_alpha) or (d, tag, Y_alpha, Y_beta), d mod 2 on the orbifold, and a
builder is called with that key as its arguments, so it reads nothing
its key lacks; at rank 1 each class is one piece's, so the walk keeps
no class memo there (it would copy `pieces` one for one).  A diagonal tangent
piece has e-part () and d = 0, so every slot shares one per tag and
diagram, keyed as the slot pair (0, 0).  The walk is the one place
that turns an empty character into no piece: whatever made it empty --
no boxes, the orbifold's parity filter, or a line-bundle twist
char_twist(d) with |d| <= 1 -- its key holds (), the table is not
called, and the term skips it.  A resolved fixed point's kvec is the
tuple of its doubled entries 2k_alpha (``diagrams.FixedPointX1``), and
its term is ell(kvec) * part_1 * part_2.  ell is walked under tag 0,
which no chart uses, each slot's class and datum both its 2k_alpha: it
holds each slot's line-bundle matter piece char_twist(2k_alpha) and
then its slot pairs' char_twist(delta), delta = 2(k_beta - k_alpha), in
that order, made by the table as a chart part's are, so it is the same
ell on either table; `parts` memoizes ell by kvec and part c by (kvec,
c, Y^c), each as a one-term sum (see ``exact.Term``), and ``term_x1``
returns the three sums, so ``series`` can gather the parts of many
fixed points into one sum per chart and size.
The forms are memoized by e-part and then by (p, q): each tangent
monomial's weight form (`weights`) and each tautological monomial's 2r
mass-shifted forms (`masses`), so every piece holding a form holds one
object; a ``CompiledTable`` memoizes each form's kernel ref instead,
given when the form is made, so no form is looked up by value.  A piece
is built without the sort of ``exact.factored_term``: a
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
from .diagrams import FixedPointX1, FrameData
from .exact import Compile, FactoredTerm, LinearForm, Term, compiled_term, side_ref, term_pow, var_a, var_m


class VanishingWeight(ArithmeticError):
    """A monomial with symbolically zero weight entered an Euler class."""


def _frame(e: tuple) -> tuple:
    """The frame part of e-part e: (a_alpha's slot, 2 c_alpha) per pair."""
    return tuple([(var_a(alpha), 2 * c) for alpha, c in e])


def weight_form(mono: tuple) -> LinearForm:
    """Equivariant weight of a monomial (p, q, e) as a linear form."""
    p, q, e = mono
    return LinearForm(2 * p, 2 * q, _frame(e))


def mass_shifted_weight(mono: tuple, f: int) -> LinearForm:
    """Weight of a matter monomial: weight + m_f - (eps1 + eps2)/2."""
    p, q, e = mono
    return LinearForm(2 * p - 1, 2 * q - 1, _frame(e) + ((var_m(f), 2),))


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


class FactorTable:
    """One series build's memos of pieces, characters, resolved parts,
    weight forms and mass-shifted forms, each piece a ``FactoredTerm``
    made by `matter` or `tangent`, ell(kvec)'s as every other; see the
    module docstring.  The slot walk calls neither with an empty
    character, so every piece has factors and none is a unit.  Its terms
    are tuples of pieces, and it has no compile state."""

    __slots__ = ("pieces", "chars", "parts", "weights", "masses")

    compiled = None
    term = tuple

    def __init__(self) -> None:
        self.pieces: dict = {}
        self.chars: dict = {}
        self.parts: dict = {}
        self.weights: dict = {}
        self.masses: dict = {}

    def matter(self, weights: list, e: tuple, r: int) -> FactoredTerm:
        """A tautological piece's matter Euler class; `weights` is never
        empty, so the piece has factors."""
        return matter_euler(weights, e, r, self.masses)

    def tangent(self, weights: list, e: tuple) -> FactoredTerm:
        """A tangent piece's inverse Euler class; `weights` is never empty,
        so the piece has factors."""
        return term_pow(euler_class(weights, e, self.weights), -1)


class CompiledTable:
    """One zx0 build's memos, each piece compiled as it is made into
    `compiled`, the build's ``exact.Compile``, from which
    ``exact.Kernel`` is made with no compile walk.  A piece is
    (numerator ref, denominator ref, degree), and a term the compiled term
    of its pieces (``exact.compiled_term``).  A form gets its ref when it
    is made: `weights` maps an e-part and a (p, q) pair to its weight
    form's ref, `masses` to the refs of its 2r mass-shifted forms, so no
    form is looked up by value.  Pieces are made in the order the compile
    walk would meet them, so the kernel's forms, sets and poles are that
    walk's.  The slot walk calls `matter` and `tangent` with non-empty
    characters only, so each piece holds a real factor set."""

    __slots__ = ("pieces", "chars", "weights", "masses", "compiled")

    def __init__(self) -> None:
        self.pieces: dict = {}
        self.chars: dict = {}
        self.weights: dict = {}
        self.masses: dict = {}
        self.compiled = Compile()

    term = staticmethod(compiled_term)

    def matter(self, weights: list, e: tuple, r: int):
        """A tautological piece's matter Euler class as (set ref, 0,
        degree), `weights` never empty: each pair's 2r mass-shifted refs,
        once per repeat, the factors of ``matter_euler``."""
        memo = self.masses.setdefault(e, {})
        shifted = list(map(memo.get, weights))
        if None in shifted:
            forms = self.compiled.forms
            for i, w in enumerate(weights):
                if shifted[i] is None:
                    refs = memo.get(w)
                    if refs is None:
                        mono = (*w, e)
                        forms += [mass_shifted_weight(mono, f) for f in range(1, 2 * r + 1)]
                        refs = memo[w] = tuple(range(len(forms) - 2 * r + 1, len(forms) + 1))
                    shifted[i] = refs
        refs = [ref for pair in shifted for ref in pair]
        return side_ref(refs, self.compiled), 0, len(refs)

    def tangent(self, weights: list, e: tuple):
        """A tangent piece's inverse Euler class as (0, set ref, -degree),
        `weights` never empty: each pair's weight ref, once per repeat, the
        factors of ``euler_class``.  A weight form is first held by the
        piece that makes it, so its pole exponent, minus its pair's
        multiplicity there, is recorded when it is made."""
        memo = self.weights.setdefault(e, {})
        refs = list(map(memo.get, weights))
        if None in refs:
            forms, poles = self.compiled.forms, self.compiled.poles
            for i, w in enumerate(weights):
                if refs[i] is None:
                    ref = memo.get(w)
                    if ref is None:
                        mono = (*w, e)
                        form = weight_form(mono)
                        if form.is_zero():
                            raise VanishingWeight(f"zero weight for monomial {mono}")
                        forms.append(form)
                        ref = memo[w] = len(forms)
                        poles[ref] = -weights.count(w)
                    refs[i] = ref
        return 0, side_ref(refs, self.compiled), -len(refs)


def _memo(memo: dict, key: tuple, build):
    """memo[key], made by build(*key) on first use."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(*key)
    return value


def _slot_walk(classes, diagrams, tag, fold: int, r: int, table, v_char, pair_char) -> Term:
    """Term of the slots with classes `classes` and data `diagrams` under
    tag `tag`: a slot's datum Y_alpha is its diagram, or its doubled
    k_alpha for ell, and a falsy datum makes no piece of its own.
    `table` makes each piece (`matter` and `tangent`) and the term of them
    (`term`); an empty character is never passed to the table, its key
    holds (), and the term skips it.  A builder's arguments are its
    character's memo key: a slot's is v_char(c_alpha, tag, Y_alpha) and a
    slot pair's pair_char(d, tag, Y_alpha, Y_beta), d = c_beta - c_alpha
    mod `fold` if set.  The builders read each ``char_*`` as a module
    global when they run, so a rebinding of one (a test's patch, a
    tracer) is seen."""
    pieces, chars, out = table.pieces, table.chars if r > 1 else {}, []
    filled = () if all(diagrams) else [(beta, yb) for beta, yb in enumerate(diagrams, start=1) if yb]
    for alpha, ya in enumerate(diagrams, start=1):
        ca = classes[alpha - 1]
        if ya:
            key = (alpha, ca, tag, ya)
            piece = pieces.get(key)
            if piece is None:
                ch = _memo(chars, (ca, tag, ya), v_char)
                piece = pieces[key] = table.matter(ch, slot_part(alpha), r) if ch else ()
            if piece:
                out.append(piece)
        for beta, yb in enumerate(diagrams, start=1) if ya else filled:
            d = classes[beta - 1] - ca
            key = (alpha, beta, d, tag, ya, yb) if alpha != beta else (0, 0, 0, tag, ya, yb)
            piece = pieces.get(key)
            if piece is None:
                if fold:
                    d %= fold
                ch = _memo(chars, (d, tag, ya, yb), pair_char)
                piece = pieces[key] = table.tangent(ch, ratio_part(alpha, beta)) if ch else ()
            if piece:
                out.append(piece)
    return table.term(out)


# The plane's and the orbifold's builders for the slot walk, whose tag is
# always 0: a plane slot's class is 0, an orbifold slot's its color.
def _v_p2(c: int, tag: int, y) -> list:
    return char_v_p2(y)


def _pair_p2(d: int, tag: int, ya, yb) -> list:
    return char_tangent_p2(ya, yb)


def _v_x0(c: int, tag: int, y) -> list:
    return char_v_x0(c, y)


def _pair_x0(d: int, tag: int, ya, yb) -> list:
    return char_tangent_x0(d, ya, yb)


# ell's builders: a slot's class and datum are both its doubled k_alpha,
# and its character depends on the class alone, a pair's on d alone.
def _v_twist(c: int, tag: int, d: int) -> list:
    return char_twist(c)


def _pair_twist(d: int, tag: int, da: int, db: int) -> list:
    return char_twist(d)


def term_p2(r: int, diagrams, table: FactorTable) -> Term:
    """Localization term of one diagram tuple on the plane."""
    return _slot_walk((0,) * r, diagrams, 0, 0, r, table, _v_p2, _pair_p2)


def term_x0(frame: FrameData, diagrams, table) -> Term:
    """Localization term of one orbifold fixed point, a diagram tuple: a
    slot's class is its color, and a slot pair's character depends on
    their difference mod 2.  With a ``CompiledTable``, as zx0's build
    passes, it is the compiled term (num, den, degree, ()); with a
    ``FactorTable``, the tuple of its ``FactoredTerm`` pieces."""
    return _slot_walk(frame.colors, diagrams, 0, 2, frame.r, table, _v_x0, _pair_x0)


def _ell_part(doubled: tuple, r: int, table) -> Term:
    """ell(kvec) for the doubled first-Chern vector, walked as a chart part
    is under tag 0, a slot's class and datum both its doubled k_alpha:
    each slot's line-bundle matter piece char_twist(2k_alpha), then its
    slot pairs' tangent pieces char_twist(delta), delta = 2(k_beta -
    k_alpha).  A slot with k_alpha = 0 makes no piece of its own, as an
    empty diagram makes none, and the walk skips every empty character,
    so ell has a piece for each |2k_alpha| > 1 and each |delta| > 1.  A
    slot pair's piece is keyed by (2k_alpha, 2k_beta), not by delta
    alone, so two first-Chern vectors with one delta at a pair hold two
    equal pieces, not one; the kernel gives equal factor sets one entry,
    so they compile alike."""
    return _slot_walk(doubled, doubled, 0, 0, r, table, _v_twist, _pair_twist)


def _part(parts: dict, key, build, *args) -> tuple:
    """parts[key], the one-term sum (build(*args),), made on first use."""
    value = parts.get(key)
    if value is None:
        value = parts[key] = (build(*args),)
    return value


def term_x1(frame: FrameData, fp: FixedPointX1, table: FactorTable) -> Term:
    """Localization term of one resolved-surface fixed point, in the
    blow-up shape (ell(kvec), part_1, part_2), each a one-term sum made
    once per table.  Part c walks chart c's diagrams under tag c, a slot's
    class being its doubled k_alpha, so chart c's builders take (2k_alpha,
    c, Y^c_alpha) and (delta, c, Y^c_alpha, Y^c_beta), their memo keys."""
    r, parts, kvec = frame.r, table.parts, fp.kvec
    v_char, pair_char = char_v_x1, char_tangent_x1
    return (
        _part(parts, kvec, _ell_part, kvec, r, table),
        _part(parts, (kvec, 1, fp.y1), _slot_walk, kvec, fp.y1, 1, 0, r, table, v_char, pair_char),
        _part(parts, (kvec, 2, fp.y2), _slot_walk, kvec, fp.y2, 2, 0, r, table, v_char, pair_char),
    )


def ell_factor(frame: FrameData, kvec: tuple, table: FactorTable) -> Term:
    """Pure line-bundle contribution of a first-Chern vector, given as its
    doubled entries: the term of the resolved fixed point with that vector
    and no boxes."""
    return _part(table.parts, kvec, _ell_part, kvec, frame.r, table)[0]
