"""Exact arithmetic layer: rationals, linear forms, factored terms.

Every quantity the engine manipulates is a rational function of the
equivariant variables

    eps1, eps2        weights of the two-torus acting on the surface,
    a_1 .. a_r        framing weights,
    m_1 .. m_2r       fundamental-matter masses,

and every quantity we ever need is a sum of *terms*, each a product of
integer powers of linear forms in those variables with coefficient 1, as
every fixed point's localization contribution is.  Coefficients are never
expanded into a canonical multivariate normal form -- with 2 + 3r
variables that blows up quickly -- instead all equality questions are
settled by exact evaluation at rational sample points.

A term is the tuple of its factors, each a piece or a sum.  A piece is a
`FactoredTerm`: the product of its factors, (form, exponent) pairs (a
localization term's pieces are its per-slot matter and per-slot-pair
tangent factors, each holding its factors in build order).  A sum is a
tuple of terms, so a term may be a product of sums that is never
multiplied out: a resolved term is ell(kvec) times its two chart parts,
each a one-term sum, a zx1 grade holds one term per rectangle of fixed
points, ell times the sum of its chart-1 parts times the sum of its
chart-2 parts, and a Cauchy product one term per pair of grades.
Pieces and sums are shared objects and are never merged into one term:
`term_mul` concatenates two terms' factors, and `term_substitute` images
each distinct piece once per rule.

Every form the engine builds is p eps1 + q eps2 plus a *frame part*:
nothing, a_beta - a_alpha, or the mass shift a_alpha + m_f, with every
coefficient in (1/2)Z -- the only halves come from the sqrt(t1 t2) matter
twist and from the prefactor exponent's numerator (eps1 + eps2)/2.  So a
`LinearForm` is the int triple (p, q, frame) over the fixed denominator
2: the doubled eps1 and eps2 coefficients, and the sorted (slot, doubled
coefficient) pairs of every other variable.  A variable is its slot, an
int that orders variables canonically (eps1 and eps2 are 1 and 2, then
every a_alpha, then every m_f; `var_name` names one), and a sample point
is a dict from slot to value.  `linear_form`, the one constructor from
rationals, refuses any coefficient outside (1/2)Z.  Building, hashing
and comparing forms is int arithmetic with no reduction, and a form's
hash is computed once, when it is made.  A substitution rule (`Rule`, a
chart or the eps flip) is a small int map on (p, q) that keeps the frame,
and `form_image` is the one place a rule meets a form: chart images of
terms (`term_substitute`) and rule-composed pole forms (``verify``) use
it, and ``series.map_point`` reads the same ints to image a point.

Sample-point values are ``fractions.Fraction``.  Evaluation works in
ints through a `Kernel`, compiled once from a list of coefficients by the
one walk over their pieces and sums, which also records the forms a
sample point must avoid, each one's exponent for the pole message, and
each coefficient's degree; the kernel keeps no piece, so the coefficients
may be freed once it is compiled.  zx0 is compiled as it is built: its
build fills a `Compile` as it makes each piece, its coefficients are
sums of compiled terms (`compiled_term`), and its kernel is made from
them and that state with no compile walk.  A coefficient compiles as a
sum does, into one list of sums, each a list of terms of one shape: two
refs, a degree and the indices of the sums the term holds.  A rank-r kernel holds
at most 3r^2 - r + 1 frame parts however many forms it holds, and keeps
one row per form, the form's (p, q) and the index of its frame part.  At
a point it reads eps1 and eps2 once, takes one int dot product per
distinct frame part and reads each form from its row, then one
``math.prod`` per distinct factor set and per term side of more than one
ref, reads every sum as one int fraction in one loop, each term
multiplying in the sums it holds, and makes one ``Fraction`` per
coefficient, so the arithmetic stays arbitrary precision and exact.
Forms have one reader: `_form_rows` lays a list of forms out as rows and
frame parts, and `_form_values` reads them at a scaled point.  A kernel
reads its forms through them, and so does the sampler's pole test,
`clear_of`, with one dot product per distinct frame part of its forms.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from operator import attrgetter

# A variable is its slot, rank * _SLOT_SPAN + index for the ranks 0, 1, 2
# of _KINDS, so slots sort eps, then a, then m.
_KINDS = ("eps", "a", "m")
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


class Record:
    """Base of an immutable record that equals only records of its own
    class (a namedtuple equals any tuple of its values) or that must
    be weakly referenceable (a tuple cannot be).  A subclass lists its
    fields in ``__slots__``, with ``__weakref__`` if it is weakly
    referenceable, and sets each once in ``__init__`` through
    ``object.__setattr__`` or the slot's own setter; assigning or
    deleting a field afterwards raises AttributeError.  Equality, hash
    and repr are read off the fields, the subclass's ``__slots__`` minus
    ``__weakref__``: a record equals a record of its own class with equal
    fields, hashes as the tuple of its fields (a lone field as itself),
    and reprs as ``Class(field=value, ...)``.  Variables are not
    records: a variable is its slot int (see `var_name`), and a point a
    dict keyed by slot."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._names = tuple([name for name in cls.__slots__ if name != "__weakref__"])
        cls._values = attrgetter(*cls._names)  # a tuple, or a lone field's value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._names])
        return f"{self.__class__.__name__}({fields})"


EPS1, EPS2 = 1, 2


def _slot(rank: int, index: int) -> int:
    if not 1 <= index < _SLOT_SPAN:
        raise ValueError(f"variable index must lie in [1, {_SLOT_SPAN})")
    return rank * _SLOT_SPAN + index


# Cached: each form a localization pair builds reads a_alpha's slot.
@cache
def var_a(alpha: int) -> int:
    return _slot(1, alpha)


@cache
def var_m(f: int) -> int:
    return _slot(2, f)


def var_name(slot: int) -> str:
    """The variable's name: eps1, a2, m3."""
    rank, index = divmod(slot, _SLOT_SPAN)
    return f"{_KINDS[rank]}{index}"


def scope_vars(r: int) -> list[int]:
    """All 2 + 3r variables of a rank-r setup, in canonical order."""
    return [EPS1, EPS2, *map(var_a, range(1, r + 1)), *map(var_m, range(1, 2 * r + 1))]


def named_point(point: Mapping[int, Fraction]) -> dict[str, str]:
    """`point` by variable name, in slot order, each value as its
    `format_rational` text: how reports and PoleError name a point."""
    return {var_name(v): format_rational(x) for v, x in sorted(point.items())}


# An evaluation point maps the slot of every variable in scope to an exact rational.
EvalPoint = dict


class LinearForm:
    """A homogeneous linear form (p eps1 + q eps2 + sum_s n_s v_s) / 2.

    `p` and `q` are the doubled eps1 and eps2 coefficients, and `frame`
    the (slot, doubled coefficient) pairs of every other variable with a
    nonzero one, sorted by slot.  The denominator is always 2, so every
    equal form has equal fields, and their hash is computed once, when the
    form is made.  Build forms with `linear_form`, or from their doubled
    ints directly; treat them as immutable."""

    __slots__ = ("p", "q", "frame", "_hash")

    def __init__(self, p: int, q: int, frame: tuple[tuple[int, int], ...]) -> None:
        self.p = p
        self.q = q
        self.frame = frame
        self._hash = hash((p, q, frame))

    def _numerators(self) -> list[tuple[int, int]]:
        """Every (slot, doubled coefficient) pair with a nonzero one, by slot."""
        return [(s, n) for s, n in ((EPS1, self.p), (EPS2, self.q)) if n] + list(self.frame)

    @property
    def coeffs(self) -> tuple[tuple[int, Fraction], ...]:
        """The (slot, coefficient) pairs, in canonical variable order."""
        return tuple((s, Fraction(n, 2)) for s, n in self._numerators())

    def is_zero(self) -> bool:
        return not (self.p or self.q or self.frame)

    def sort_key(self) -> tuple:
        """Canonical order of forms in a factored term."""
        return (self.p, self.q, self.frame)

    def __eq__(self, other: object) -> bool:
        if type(other) is not LinearForm:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.frame == other.frame

    def __hash__(self) -> int:
        return self._hash

    def evaluate(self, point: Mapping[int, Fraction]) -> Fraction:
        total = Fraction(0)
        for s, n in self._numerators():
            total += n * point[s]
        return total / 2

    def __neg__(self) -> "LinearForm":
        return LinearForm(-self.p, -self.q, tuple([(s, -n) for s, n in self.frame]))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for v, c in self.coeffs:
            name = var_name(v)
            if c == 1:
                text = name
            elif c == -1:
                text = f"-{name}"
            else:
                text = f"{format_rational(c)}*{name}"
            if parts and not text.startswith("-"):
                parts.append(f"+ {text}")
            elif parts:
                parts.append(f"- {text[1:]}")
            else:
                parts.append(text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LinearForm({self})"


def linear_form(coeffs: Mapping[int, Fraction | int]) -> LinearForm:
    """Build a form from a coefficient mapping keyed by slot, dropping
    zeros; a coefficient outside (1/2)Z is a ValueError."""
    doubled = {}
    for v, c in coeffs.items():
        n = 2 * Fraction(c)
        if n.denominator != 1:
            raise ValueError(f"coefficient {c} of {var_name(v)} is not in (1/2)Z")
        if n:
            doubled[v] = n.numerator
    p, q = doubled.pop(EPS1, 0), doubled.pop(EPS2, 0)
    return LinearForm(p, q, tuple(sorted(doubled.items())))


# A substitution rule: the linear map R that sends eps_i to x eps1 + y eps2
# for (x, y) = matrix[i - 1], a_alpha to a_alpha + shifts[alpha - 1] times
# the eps form `carrier`, (x, y) too, and fixes every mass and every
# a_alpha past `shifts`.  It is hashable, so it can key a memo.
Rule = namedtuple("Rule", "matrix carrier shifts")


def form_image(form: LinearForm, rule: Rule) -> LinearForm:
    """form o R, whose value at p is form's at R(p): the doubled eps
    numerators (p, q) go to (p, q) times the matrix plus sum n_alpha
    shifts[alpha - 1] times the carrier, n_alpha the doubled a_alpha
    numerator, and the frame is kept as it is."""
    shifts = rule.shifts  # a_alpha's slot is _SLOT_SPAN + alpha
    shift = sum([n * shifts[s - _SLOT_SPAN - 1] for s, n in form.frame if s - _SLOT_SPAN <= len(shifts)])
    ((x1, y1), (x2, y2)), (xc, yc) = rule.matrix, rule.carrier
    p, q = form.p, form.q
    return LinearForm(p * x1 + q * x2 + shift * xc, p * y1 + q * y2 + shift * yc, form.frame)


class FactoredTerm(Record):
    """One piece of a term: the product of its factors, each a (linear
    form, exponent) pair.

    Invariants: the factors' forms are pairwise distinct, no exponent is
    zero, and no form is symbolically zero.  `factored_term` also sorts
    the factors, so the pieces it builds from any permutation of the same
    factor multiset are equal objects: the canonical piece.  The pieces
    ``localization`` builds keep their factors in build order instead (no
    reader needs the sort), so two of them are compared as factor
    multisets, through that merge.

    A piece is weakly referenceable, so a test can see a piece freed.  It
    is built once per piece, so its field is set through its slot's own
    setter, without a ``setattr`` lookup.
    """

    __slots__ = ("factors", "__weakref__")

    def __init__(self, factors: tuple[tuple[LinearForm, int], ...]) -> None:
        _set_factors(self, factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " ".join(f"({form})^{exp}" for form, exp in self.factors)


_set_factors = FactoredTerm.factors.__set__


def factored_term(factors: Iterable[tuple[LinearForm, int]] = ()) -> FactoredTerm:
    """Build a piece in canonical form from an unordered factor multiset."""
    merged: dict[LinearForm, int] = {}
    for form, exp in factors:
        if form.is_zero():
            raise ValueError("symbolically zero form in a factored term")
        merged[form] = merged.get(form, 0) + exp
    kept = [(form, exp) for form, exp in merged.items() if exp != 0]
    kept.sort(key=lambda fe: fe[0].sort_key())
    return FactoredTerm(tuple(kept))


UNIT_TERM = factored_term()

# A term is the tuple of its factors, each a piece, a `FactoredTerm` (in
# canonical form or in build order), or a sum, a tuple of terms; the empty
# term is 1.  Pieces and sums are never merged: one shared by many terms
# stays one object, so a `Kernel` compiles it once and evaluates it once
# per point.  Multiplying every sum out gives flat terms of pieces alone,
# and merging a flat term's pieces' factors with `factored_term` gives its
# canonical piece.
Term = tuple


def _scale_point(point: Mapping[int, Fraction]) -> tuple[dict[int, int], int]:
    """Write every value of `point` as an int over one common denominator D;
    return those ints, keyed by slot, and D."""
    d = lcm(*(value.denominator for value in point.values()))
    ints = {v: value.numerator * (d // value.denominator) for v, value in point.items()}
    return ints, d


def _form_rows(forms: Iterable[LinearForm]) -> tuple[list[tuple[int, int, int]], list[tuple]]:
    """Each form's row, its (p, q) and the index of its frame part, and the
    distinct frame parts, in first-seen order: many forms share a few."""
    frames: dict[tuple, int] = {}
    rows = [(form.p, form.q, frames.setdefault(form.frame, len(frames))) for form in forms]
    return rows, list(frames)


def _form_values(rows: list, frames: list, ints: Mapping[int, int]) -> list[int]:
    """Each row's form read at a point scaled to (ints, D), which holds
    eps1 and eps2: p e1 + q e2 plus its frame part's dot product with
    ints, 2 D times the form's value.  Each frame part is one dot
    product."""
    e1, e2 = ints[EPS1], ints[EPS2]
    parts = [sum([n * ints[s] for s, n in frame]) for frame in frames]
    return [p * e1 + q * e2 + parts[i] for p, q, i in rows]


def clear_of(forms: Iterable[LinearForm], point: Mapping[int, Fraction]) -> bool:
    """True when no form in `forms` vanishes at `point`, which must hold
    eps1 and eps2.  The forms are read as a `Kernel` reads its own, through
    `_form_rows` and `_form_values`: a form vanishes exactly when its int
    at the point scaled to one common denominator does, and a draw's
    forms, a union over series, share a few frame parts among many forms."""
    rows, frames = _form_rows(forms)
    return 0 not in _form_values(rows, frames, _scale_point(point)[0])


def term_mul(a: Term, b: Term) -> Term:
    """The product of two terms: the concatenation of their factors, none
    merged or multiplied out."""
    return a + b


def term_pow(t: FactoredTerm, n: int) -> FactoredTerm:
    """Integer power of a piece (n may be negative).  For n != 0 the
    exponents are scaled in place: scaling keeps the forms' order and
    distinctness and no exponent zero."""
    if n == 0:
        return UNIT_TERM
    return FactoredTerm(tuple([(form, exp * n) for form, exp in t.factors]))


def term_eval(t: Term, point: Mapping[int, Fraction]) -> Fraction:
    """The value of `t` at `point`, from a one-coefficient `Kernel` compiled per call (see `coeff_eval`)."""
    return coeff_eval((t,), point)


def term_substitute(t: Term, rule: Rule, images: dict) -> Term:
    """The term, its factors all pieces, with `rule` substituted into
    every piece, each image made canonical by `factored_term`.  `images`
    is the rule's memo: it maps each form already substituted to its
    `form_image`, and each piece's id to the piece and its image (holding
    the piece keeps its id from being reused), so each distinct piece and
    form is imaged once."""
    out = []
    for piece in t:
        entry = images.get(id(piece))
        if entry is None:
            factors = []
            for form, exp in piece.factors:
                image = images.get(form)
                if image is None:
                    image = images[form] = form_image(form, rule)
                factors.append((image, exp))
            entry = images[id(piece)] = (piece, factored_term(factors))
        out.append(entry[1])
    return tuple(out)


# A coefficient (of one q-grade of a series) is a formal sum of terms, a
# sum as a term's factor is; its meaning is the sum of the term values at
# every evaluation point, so the stored order carries no semantics (but is
# kept deterministic).
Coefficient = tuple


def coeff_eval(c: Coefficient, point: Mapping[int, Fraction]) -> Fraction:
    """The value of `c` at `point`, from a one-coefficient `Kernel`
    compiled per call.  Must's u (``verify._prefactor``) is read here until
    ROADMAP item 8, as `perfbench/tests`' `REACH` needs this and
    `term_eval` called on eval-deep."""
    return Kernel((c,)).evaluate(point)[0]


class Kernel:
    """Coefficients compiled for integer evaluation.

    A coefficient is a sum, a tuple of terms, and a term's factor is a
    piece or a sum (see `Term`).  Each distinct piece, by identity, is
    compiled once, and `forms` holds each distinct form once, by value:
    equal forms share one slot.  Each coefficient, and each distinct sum
    of more than one term that a term holds, by identity, is compiled once
    into one list of sums, and a one-term sum is spliced into its term,
    its term's factors read as the term's own.  A piece or a factor sum is
    known by its id, which is unique only while it is alive, so the
    compile holds every piece and sum it has indexed until it returns: the
    coefficients may come from a generator that frees them, and a freed
    object's id may be reused by a new one.  The kernel keeps no piece.  At
    a point ref 0 reads 1, ref i + 1 the value of forms[i], and ref -(k +
    1) the product of sets[k].  A piece compiles to one ref per side and
    its degree.  A side's factor set is the sorted refs of its forms, each
    repeated by its exponent: an empty set is ref 0, a one-form set that
    form's ref, and any other set an entry of `sets`, shared by every equal
    set across the kernel.  A term compiles to its pieces' nonzero refs
    per side (a plain ref if at most one, 0 for none), its degree, and the
    indices of the sums it holds, none for most terms.

    Given a `Compile` `state`, the coefficients are sums of compiled
    terms written against it: a series that is compiled as it is built
    (zx0, see ``localization.CompiledTable``) fills the state's forms,
    factor sets and poles as it makes its pieces, in the order the walk
    above would meet them, so the kernel is the one the walk compiles
    from the same series built as pieces.  The kernel then only adds up
    each coefficient's sum; the state holds no sum and is not changed.

    A form (p eps1 + q eps2 + frame) / 2 reads 2 D times its value at a
    point scaled to (ints, D), through the one row reader: `frames` holds
    each distinct frame part once, in first-seen order, and the form's
    row is (p, q, its frame part's index) (`_form_rows`).  At a point
    each frame part is one int dot product R, and each form reads
    p e1 + q e2 + R, e1 and e2 being the scaled eps values
    (`_form_values`; every point the engine evaluates at has both).  A
    term is then its numerator product over its denominator product times
    (2 D)^-degree, and a sum adds its terms as int fractions, scaled to
    (2 D)^-d, d its terms' largest degree (a term of degree e < d is first
    scaled by (2 D)^(d - e)).  One loop reads every sum as one int
    fraction, in compile order, so an inner sum is read before the sums
    that hold it, and a term multiplies its sums' numerators and
    denominators into its own, a sum of scale d adding d to its degree;
    then each coefficient's sum takes (2 D)^-d once, into one
    ``Fraction``.

    The compile also records `pole_forms`, the distinct forms with a
    negative exponent in some compiled piece in first-seen order (those
    whose zero makes `evaluate` raise PoleError, which names the form's
    exponent in the first piece that holds it), and `degrees`, one per
    coefficient: the degree its terms share, 0 for none, or None
    when they differ; a term holding a sum of mixed degree has mixed
    degree, as the terms the sum multiplies out to do.  Forms have no
    constant part, so a coefficient of one degree d takes (-1)^d times
    its value at p at the point -p."""

    __slots__ = (
        "forms", "frames", "sets", "pole_forms", "degrees", "_rows", "_poles", "_sums", "_coeffs"
    )

    def __init__(self, coefficients: Iterable[Coefficient], state: Compile | None = None) -> None:
        if state is None:
            state = Compile()
            self._coeffs = [_compile_sum(c, state) for c in coefficients]
            self._sums = state.sums
        else:
            self._sums = []
            self._coeffs = [_add_sum(list(c), self._sums) for c in coefficients]
        self.forms, self.sets = state.forms, state.sets
        self.degrees: list[int | None] = [self._sums[i][2] for i in self._coeffs]
        self._rows, self.frames = _form_rows(self.forms)
        self._poles = state.poles
        self.pole_forms = [self.forms[ref - 1] for ref in state.poles]

    def evaluate(self, point: Mapping[int, Fraction]) -> list[Fraction]:
        """Every coefficient's value at `point`, in compile order.  A
        vanishing denominator form of any piece is a pole, even where a
        numerator form vanishes too; else a vanishing form zeroes its term."""
        ints, d = _scale_point(point)
        values = [1]
        values += _form_values(self._rows, self.frames, ints)
        if 0 in values:
            self._check_poles(values, point)
        at = values.__getitem__
        # set k's product is read at ref -(k + 1), from the end of the list
        values += [prod(map(at, refs)) for refs in reversed(self.sets)]
        base = 2 * d
        sums: list[tuple[int, int]] = []
        for terms, scale, _ in self._sums:
            sums.append(_sum_value(terms, scale, values, sums, base))
        out = []
        for i in self._coeffs:
            (p, q), scale = sums[i], self._sums[i][1]
            power = base ** abs(scale)
            out.append(Fraction(p, q * power) if scale > 0 else Fraction(p * power, q))
        return out

    def _check_poles(self, values: list, point) -> None:
        """Raise PoleError for the first-seen denominator form that
        vanishes, with its exponent in the first piece that holds it."""
        for ref, exp in self._poles.items():
            if not values[ref]:
                at = ", ".join([f"{name}={x}" for name, x in named_point(point).items()])
                raise PoleError(f"pole: ({self.forms[ref - 1]})^{exp} at {at}")


class Compile:
    """One kernel compile's state: `slots` maps forms to refs and
    `set_refs` factor sets to refs, `pieces` maps a piece's id to its
    compiled piece and `sum_ids` a factor sum's id to its index in `sums`,
    the list of every compiled sum and coefficient as (terms, scale,
    degree); `held` keeps every indexed piece and sum alive, so no id is
    reused, and `poles` maps each denominator ref to its exponent in its
    first piece.  A series compiled as it is built fills only `forms`,
    `set_refs`, `sets` and `poles`, giving each form its ref as it makes
    it (see `Kernel`)."""

    __slots__ = ("slots", "set_refs", "pieces", "sum_ids", "held", "poles", "forms", "sets", "sums")

    def __init__(self) -> None:
        self.slots: dict[LinearForm, int] = {}
        self.set_refs: dict[tuple, int] = {}
        self.pieces: dict[int, tuple] = {}
        self.sum_ids: dict[int, int] = {}
        self.held: list = []
        self.poles: dict[int, int] = {}
        self.forms: list[LinearForm] = []
        self.sets: list[tuple[int, ...]] = []
        self.sums: list[tuple] = []


def compiled_term(entries: Iterable[tuple], refs: tuple = (), scale: int = 0) -> tuple:
    """The compiled term (num, den, degree, refs) of the compiled pieces
    `entries`, each (numerator ref, denominator ref, degree), holding the
    sums `refs`, whose scales add `scale` to its degree: a side is its
    pieces' nonzero refs in piece order, a lone ref, or 0 for none."""
    nums, dens, degs = zip((0, 0, 0), *entries)  # (0, 0, 0) for no pieces
    num, den = tuple(filter(None, nums)), tuple(filter(None, dens))
    return (num if len(num) > 1 else sum(num), den if len(den) > 1 else sum(den), sum(degs) + scale, refs)


def _compile_sum(terms: Iterable[Term], state: Compile) -> int:
    """Append a sum of terms, a coefficient or a factor, to `state.sums`
    (see `_add_sum`) and return its index.  A term compiles to (num, den,
    degree, sum indices), its degree counting each sum's scale; the sum's
    degree is None when some term holds a sum of mixed degree."""
    sums = state.sums
    compiled, inner = [], set()
    for t in terms:
        entries = []
        refs: list[int] = []
        _term_entries(t, state, entries, refs)
        compiled.append(compiled_term(entries, tuple(refs), sum([sums[i][1] for i in refs])))
        inner.update([sums[i][2] for i in refs])
    return _add_sum(compiled, sums, None in inner)


def _add_sum(compiled: list, sums: list, mixed: bool = False) -> int:
    """Append the sum of the compiled terms `compiled` to `sums` as
    (terms, scale, degree) and return its index: the scale is the terms'
    largest degree (0 for none), and the degree the one they share, 0 for
    none, or None when they differ or `mixed` is set."""
    degrees = {t[2] for t in compiled}
    scale = max(degrees, default=0)
    sums.append((compiled, scale, None if mixed or len(degrees) > 1 else scale))
    return len(sums) - 1


def _term_entries(t: Term, state: Compile, entries: list, refs: list) -> None:
    """Append each compiled piece of term `t` to `entries` and each sum's
    index to `refs`, compiling what is new; a one-term sum's term is read
    in place."""
    for factor in t:
        if factor.__class__ is tuple:
            if len(factor) == 1:
                _term_entries(factor[0], state, entries, refs)
                continue
            i = state.sum_ids.get(id(factor))
            if i is None:
                i = state.sum_ids[id(factor)] = _compile_sum(factor, state)  # its own sums first
                state.held.append(factor)
            refs.append(i)
        else:
            entry = state.pieces.get(id(factor))
            if entry is None:
                entry = state.pieces[id(factor)] = _compile_piece(factor, state)
                state.held.append(factor)
            entries.append(entry)


def _sum_value(terms: list, scale: int, values: list, sums: list, base: int) -> tuple[int, int]:
    """The value of a compiled sum as one int fraction (p, q), not in
    lowest terms, times base^scale: `values` holds every ref's value and
    `sums` every sum's fraction read so far, which a term holding it
    multiplies in, and a term of degree e < scale is first scaled by
    base^(scale - e)."""
    at = values.__getitem__
    parts = []
    for num, den, e, refs in terms:
        p = values[num] if num.__class__ is int else prod(map(at, num))
        if p:
            q = values[den] if den.__class__ is int else prod(map(at, den))
            for i in refs:
                sp, sq = sums[i]
                p *= sp
                q *= sq
            if p:
                parts.append((p, q) if e == scale else (p * base ** (scale - e), q))
    return _sum_fractions(parts)


def _compile_piece(piece: FactoredTerm, state: Compile) -> tuple:
    """A piece as (numerator ref, denominator ref, degree) (see `Kernel`).
    A new form is appended to `state.forms` and given the next ref in
    `state.slots`.  Each denominator ref new to `state.poles` is added to
    it, in factor order, with its exponent in this piece."""
    slots, forms, poles = state.slots, state.forms, state.poles
    num: list[int] = []
    den: list[int] = []
    for form, exp in piece.factors:
        ref = slots.get(form)
        if ref is None:
            forms.append(form)
            ref = slots[form] = len(forms)
        if exp == 1:
            num.append(ref)
        elif exp == -1:
            den.append(ref)
        elif exp > 0:
            num += [ref] * exp
        else:
            den += [ref] * -exp
    for ref in den:
        if ref not in poles:
            poles[ref] = -den.count(ref)
    return (side_ref(num, state), side_ref(den, state), len(num) - len(den))


def side_ref(refs: list[int], state: Compile) -> int:
    """The ref of one piece side's factor set `refs`: 0 for none, the
    form's own ref for one, else the set's shared negative ref (a new set
    is appended to `state.sets`)."""
    if len(refs) < 2:
        return refs[0] if refs else 0
    key = tuple(sorted(refs))
    ref = state.set_refs.get(key)
    if ref is None:
        state.sets.append(key)
        ref = state.set_refs[key] = -len(state.sets)
    return ref


def _sum_fractions(parts: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of p/q over `parts` as one (p, q), not in lowest terms.
    Parts are added in pairs, level by level, each pair over the lcm of
    its denominators (one gcd and two divisions each); a running sum would
    carry the whole lcm into every later addition."""
    while len(parts) > 1:
        pairs = iter(parts)
        merged = []
        for (p1, q1), (p2, q2) in zip(pairs, pairs):
            g = gcd(q1, q2)
            q1 //= g
            merged.append((p1 * (q2 // g) + p2 * q1, q1 * q2))
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0] if parts else (0, 1)
