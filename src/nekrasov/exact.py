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

A series term is a `Product` of pieces, each a canonical `FactoredTerm`
(a localization term's pieces are its per-slot matter and per-slot-pair
tangent factors).  Pieces are shared objects and are never merged into
one term: `term_mul` concatenates pieces, `term_substitute` images each
distinct piece once per rule, and a plain `FactoredTerm` counts as a
one-piece product.

A linear form is stored in ints: sorted (slot, numerator) pairs over one
positive common denominator, in lowest terms, where a slot is an int that
orders variables canonically.  Every form the engine builds has its
coefficients in (1/2)Z -- the only halves come from the sqrt(t1 t2) matter
twist -- so that denominator is 1 or 2, but any rational coefficient is
held exactly.  Building, adding, substituting, hashing and comparing forms
is therefore int arithmetic with one gcd reduction per form.

Scalars and sample-point values are ``fractions.Fraction``.  Evaluation
works in ints through a `Kernel`, compiled once from a list of
coefficients: each distinct form gets one slot, each distinct piece
becomes its integer constants (the scalar with the form denominators
folded in), the slots of its numerator and denominator factors, each
repeated by its exponent, and its degree, and each term becomes the
indices of its pieces.  At a point the kernel scales the point to one
common denominator D, takes one integer dot product per slot (the form's
value times D times its denominator), forms one int numerator and
denominator per piece, and each term as the product of its pieces' ints.
Each coefficient's terms are added as int fractions, in pairs over the
lcm of their denominators, and a ``Fraction`` is made once per
coefficient, so the arithmetic stays arbitrary precision and exact.
The compile is the one walk over a series' pieces: it also records the
forms a sample point must avoid and each coefficient's degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from typing import Iterable, Mapping

_KIND_RANK = {"eps": 0, "a": 1, "m": 2}
_KINDS = tuple(_KIND_RANK)
# slot = kind rank * _SLOT_SPAN + index, so slots sort like Var.sort_key.
_SLOT_SPAN = 1 << 30


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
    slot: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if not 1 <= self.index < _SLOT_SPAN:
            raise ValueError(f"variable index must lie in [1, {_SLOT_SPAN})")
        object.__setattr__(self, "slot", _KIND_RANK[self.kind] * _SLOT_SPAN + self.index)

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_RANK[self.kind], self.index)

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"

    def __str__(self) -> str:
        return self.name


EPS1 = Var("eps", 1)
EPS2 = Var("eps", 2)


# One shared Var per index: building a form reads the slot of a cached
# Var instead of making a fresh dataclass per call.
@cache
def var_a(alpha: int) -> Var:
    return Var("a", alpha)


@cache
def var_m(f: int) -> Var:
    return Var("m", f)


@cache
def _var_of_slot(slot: int) -> Var:
    rank, index = divmod(slot, _SLOT_SPAN)
    return Var(_KINDS[rank], index)


def scope_vars(r: int) -> list[Var]:
    """All 2 + 3r variables of a rank-r setup, in canonical order."""
    out = [EPS1, EPS2]
    out.extend(var_a(i) for i in range(1, r + 1))
    out.extend(var_m(f) for f in range(1, 2 * r + 1))
    return out


# An evaluation point assigns an exact rational to every variable in scope.
EvalPoint = dict


class LinearForm:
    """A homogeneous linear form sum_i (numerator_i / den) * var_i.

    `pairs` holds the (slot, numerator) pairs with nonzero numerator,
    sorted by slot; `den` is positive and coprime to the numerators taken
    together.  Every equal form therefore has equal `pairs` and `den`.
    Build forms with `linear_form` or the form arithmetic; treat them as
    immutable."""

    __slots__ = ("pairs", "den")

    def __init__(self, pairs: tuple[tuple[int, int], ...], den: int) -> None:
        self.pairs = pairs
        self.den = den

    @property
    def coeffs(self) -> tuple[tuple[Var, Fraction], ...]:
        """The (variable, coefficient) pairs, in canonical variable order."""
        return tuple((_var_of_slot(s), Fraction(n, self.den)) for s, n in self.pairs)

    def is_zero(self) -> bool:
        return not self.pairs

    def sort_key(self) -> tuple:
        """Canonical order of forms in a factored term."""
        return (self.pairs, self.den)

    def __eq__(self, other: object) -> bool:
        if type(other) is not LinearForm:
            return NotImplemented
        return self.pairs == other.pairs and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.pairs, self.den))

    def evaluate(self, point: Mapping[Var, Fraction]) -> Fraction:
        total = Fraction(0)
        for s, n in self.pairs:
            total += n * point[_var_of_slot(s)]
        return total / self.den if self.den != 1 else total

    def __add__(self, other: "LinearForm") -> "LinearForm":
        d = lcm(self.den, other.den)
        acc: dict[int, int] = {}
        for form in (self, other):
            scale = d // form.den
            for s, n in form.pairs:
                acc[s] = acc.get(s, 0) + n * scale
        return _reduced(acc, d)

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple((s, -n) for s, n in self.pairs), self.den)

    def substitute(self, rule: "Mapping[Var, LinearForm]") -> "LinearForm":
        """Post-compose with a variable substitution (missing vars are fixed)."""
        images = {v.slot: image for v, image in rule.items()}
        hits = [(s, n, images[s]) for s, n in self.pairs if s in images]
        d = lcm(*(image.den for _, _, image in hits))
        acc: dict[int, int] = {s: n * d for s, n in self.pairs if s not in images}
        for _, n, image in hits:
            scale = n * (d // image.den)
            for s2, n2 in image.pairs:
                acc[s2] = acc.get(s2, 0) + scale * n2
        return _reduced(acc, self.den * d)

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

    def __repr__(self) -> str:
        return f"LinearForm({self})"


def _reduced(acc: Mapping[int, int], den: int) -> LinearForm:
    """The form sum acc[slot] / den * var, zeros dropped, in lowest terms."""
    pairs = sorted((s, n) for s, n in acc.items() if n)
    g = gcd(den, *(n for _, n in pairs))
    if g != 1:
        pairs = [(s, n // g) for s, n in pairs]
        den //= g
    return LinearForm(tuple(pairs), den)


def linear_form(coeffs: Mapping[Var, Fraction | int]) -> LinearForm:
    """Build a form from a coefficient mapping, merging and dropping zeros."""
    fracs = [(v.slot, Fraction(c)) for v, c in coeffs.items()]
    d = lcm(*(c.denominator for _, c in fracs))
    return _reduced({s: c.numerator * (d // c.denominator) for s, c in fracs}, d)


def form_from_doubled(pairs: list[tuple[int, int]]) -> LinearForm:
    """The form sum n/2 * var over (slot, n) pairs sorted by slot, with
    each slot once; zero numerators are dropped."""
    pairs = [(s, n) for s, n in pairs if n]
    if all(n % 2 == 0 for _, n in pairs):
        return LinearForm(tuple([(s, n // 2) for s, n in pairs]), 1)
    return LinearForm(tuple(pairs), 2)


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

    @property
    def pieces(self) -> tuple["FactoredTerm", ...]:
        """A factored term is a one-piece `Product`."""
        return (self,)

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
        if not form.pairs:
            raise ValueError("symbolically zero form in a factored term")
        merged[form] = merged.get(form, 0) + exp
    kept = [(form, exp) for form, exp in merged.items() if exp != 0]
    kept.sort(key=lambda fe: fe[0].sort_key())
    return FactoredTerm(s, tuple(kept))


UNIT_TERM = factored_term(1)


@dataclass(frozen=True)
class Product:
    """A term held as the product of its pieces, each a canonical
    `FactoredTerm`; the empty product is 1.

    Pieces are never merged: a piece shared by many terms stays one
    object, so a `Kernel` compiles and evaluates it once.  Merging every
    piece's factors with `factored_term` gives the same term in canonical
    form."""

    pieces: tuple[FactoredTerm, ...]


Term = FactoredTerm | Product


def _scale_point(point: Mapping[Var, Fraction]) -> tuple[dict[int, int], int]:
    """Write every value of `point` as an int over one common denominator D;
    return those ints, keyed by slot, and D."""
    d = lcm(*(value.denominator for value in point.values()))
    ints = {v.slot: value.numerator * (d // value.denominator) for v, value in point.items()}
    return ints, d


def clear_of(forms: Iterable[LinearForm], point: Mapping[Var, Fraction]) -> bool:
    """True when no form in `forms` vanishes at `point`.  A form's value is
    its int dot product with the scaled point over a positive denominator,
    so the dot product alone decides."""
    ints, _ = _scale_point(point)
    for form in forms:
        value = 0
        for s, n in form.pairs:
            value += n * ints[s]
        if value == 0:
            return False
    return True


def term_mul(a: Term, b: Term) -> Product:
    """Product of two terms: the concatenation of their pieces, none
    merged (a `FactoredTerm` is one piece)."""
    return Product(a.pieces + b.pieces)


def term_pow(t: FactoredTerm, n: int) -> FactoredTerm:
    """Integer power of a term (n may be negative; scalar must be nonzero).
    For n != 0 the exponents of a canonical term are scaled in place:
    scaling keeps the forms' order and distinctness and no exponent zero."""
    if n == 0:
        return UNIT_TERM
    if t.is_zero():
        if n < 0:
            raise ZeroDivisionError("inverse of the zero term")
        return t
    return FactoredTerm(t.scalar ** n, tuple([(form, exp * n) for form, exp in t.factors]))


def term_scale(t: FactoredTerm, c: Fraction | int) -> FactoredTerm:
    return factored_term(t.scalar * Fraction(c), t.factors)


def term_eval(t: Term, point: Mapping[Var, Fraction]) -> Fraction:
    return coeff_eval((t,), point)


def term_substitute(t: Term, rule: "Mapping[Var, LinearForm]", images: dict) -> Product:
    """The term with `rule` substituted into every piece, as a product.
    `images` is the rule's memo: it maps each form already substituted by
    this rule to its image, and each piece's id to the piece and its image
    (holding the piece keeps its id from being reused).  New ones are
    added, so a caller substituting one rule into many terms substitutes
    each distinct piece, and each distinct form, once."""
    out = []
    for piece in t.pieces:
        entry = images.get(id(piece))
        if entry is None:
            factors = []
            for form, exp in piece.factors:
                image = images.get(form)
                if image is None:
                    image = images[form] = form.substitute(rule)
                factors.append((image, exp))
            entry = images[id(piece)] = (piece, factored_term(piece.scalar, factors))
        out.append(entry[1])
    return Product(tuple(out))


# A coefficient (of one q-grade of a series) is a formal sum of terms; its
# meaning is the sum of the term values at every evaluation point, so the
# stored order carries no semantics (but is kept deterministic).
Coefficient = tuple


def coeff_eval(c: Coefficient, point: Mapping[Var, Fraction]) -> Fraction:
    return Kernel((c,)).evaluate(point)[0]


class Kernel:
    """Coefficients compiled for integer evaluation.

    A term is the product of its pieces.  `pieces` holds each distinct
    piece once, by identity, and `forms` each distinct form once, by
    value: equal forms share one slot.  A piece compiles to (num0, den0,
    num, den, degree): the int fraction num0/den0 is its scalar with its
    forms' denominators folded in, num and den are the slots of its
    factors with positive and with negative exponent, each repeated by its
    exponent, and degree is the sum of exponents.  A term compiles to the
    indices of its pieces and its degree, the sum of theirs.  A form
    (sum n_i v_i) / q takes the value (sum n_i ints_i) / (q D) at a point
    scaled to (ints, D), so a piece is the int pair num0 * prod(num
    values) over den0 * prod(den values), times D^-degree, and a term is
    the product of its pieces' pairs times D^-degree.  A term with a
    zero-scalar piece is dropped before its pieces are compiled.

    The compile also records `pole_forms`, the distinct forms with a
    negative exponent in some compiled piece in first-seen order (those
    whose zero makes `evaluate` raise PoleError), and `degrees`, one per
    coefficient: the degree its kept terms share, 0 for none, or None
    when they differ.  Forms have no constant part, so a coefficient of
    one degree d takes (-1)^d times its value at p at the point -p."""

    __slots__ = ("forms", "pieces", "pole_forms", "degrees", "_compiled", "_coeffs")

    def __init__(self, coefficients: Iterable[Coefficient]) -> None:
        slots: dict[tuple, int] = {}  # (pairs, den) -> slot: equal forms share one
        index: dict[int, int] = {}  # id(piece) -> its place in self.pieces, which holds it
        poles: dict[int, None] = {}  # denominator slots, in first-seen order
        self.forms: list[LinearForm] = []
        self.pieces: list[FactoredTerm] = []
        self.degrees: list[int | None] = []
        self._compiled: list[tuple] = []
        self._coeffs = []
        for c in coefficients:
            terms = []
            for t in c:
                pieces = t.pieces
                if not all(piece.scalar for piece in pieces):
                    continue
                refs = []
                degree = 0
                for piece in pieces:
                    i = index.get(id(piece))
                    if i is None:
                        i = index[id(piece)] = len(self.pieces)
                        self.pieces.append(piece)
                        self._compiled.append(_compile_piece(piece, slots, self.forms))
                        poles.update(dict.fromkeys(self._compiled[i][3]))
                    refs.append(i)
                    degree += self._compiled[i][4]
                terms.append((tuple(refs), degree))
            degrees = {degree for _, degree in terms} or {0}
            self.degrees.append(degrees.pop() if len(degrees) == 1 else None)
            self._coeffs.append(terms)
        self.pole_forms = [self.forms[slot] for slot in poles]

    def evaluate(self, point: Mapping[Var, Fraction]) -> list[Fraction]:
        """Every coefficient's value at `point`, in compile order.  Each
        distinct piece is evaluated once.  A vanishing denominator factor
        of any piece is a pole, even where a numerator factor vanishes too;
        otherwise a vanishing factor makes its term 0."""
        ints, d = _scale_point(point)
        values = [sum([n * ints[s] for s, n in form.pairs]) for form in self.forms]
        nums, dens = _piece_values(self._compiled, values, self.forms, point)
        num_at, den_at = nums.__getitem__, dens.__getitem__
        powers = {0: 1}
        out = []
        for terms in self._coeffs:
            parts = []
            for refs, degree in terms:
                p = prod(map(num_at, refs))
                if not p:
                    continue
                q = prod(map(den_at, refs))
                scale = powers.get(degree)
                if scale is None:
                    scale = powers[degree] = d ** abs(degree)
                parts.append((p, q * scale) if degree > 0 else (p * scale, q))
            out.append(_sum_fractions(parts))
        return out


def _compile_piece(piece: FactoredTerm, slots: dict, forms: list) -> tuple:
    """A piece as (num0, den0, num, den, degree) (see `Kernel`); a form not
    yet in `slots` gets the next slot and is appended to `forms`."""
    num0, den0 = piece.scalar.numerator, piece.scalar.denominator
    num: list[int] = []
    den: list[int] = []
    for form, exp in piece.factors:
        key = (form.pairs, form.den)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(forms)
            forms.append(form)
        if exp == 1:
            num.append(slot)
        elif exp == -1:
            den.append(slot)
        elif exp > 0:
            num += [slot] * exp
        else:
            den += [slot] * -exp
        if form.den != 1:
            if exp > 0:
                den0 *= form.den**exp
            else:
                num0 *= form.den**-exp
    return (num0, den0, tuple(num), tuple(den), len(num) - len(den))


def _piece_values(compiled: list, values: list, forms: list, point) -> tuple[list, list]:
    """Each compiled piece's int numerator and denominator at the slot
    values `values`; a zero denominator is a PoleError."""
    at = values.__getitem__
    nums, dens = [], []
    for num0, den0, num, den, _ in compiled:
        q = prod(map(at, den), start=den0)
        if not q:
            slot = next(s for s in den if not values[s])
            raise PoleError(f"pole: ({forms[slot]})^{-den.count(slot)} at {point}")
        nums.append(prod(map(at, num), start=num0))
        dens.append(q)
    return nums, dens


def _sum_fractions(parts: list[tuple[int, int]]) -> Fraction:
    """The sum of p/q over `parts` as one Fraction.  Parts are added in
    pairs, level by level, each pair over the lcm of its denominators (one
    gcd each); a running sum would carry the whole lcm into every later
    addition."""
    while len(parts) > 1:
        merged = []
        for (p1, q1), (p2, q2) in zip(parts[::2], parts[1::2]):
            g = gcd(q1, q2)
            merged.append((p1 * (q2 // g) + p2 * (q1 // g), q1 // g * q2))
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return Fraction(*parts[0]) if parts else Fraction(0)
