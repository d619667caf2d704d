"""Whole-fixed-point characters and localization terms, as test references.

The engine builds a fixed point's characters one framing slot or slot
pair at a time (``nekrasov.characters``), each piece a list of (p, q)
pairs sharing one e-part, and its term as the product of pieces cached
per slot and slot pair (``nekrasov.localization``).  The helpers here
give each engine piece its e-part, sum a fixed point's pieces into its
whole tautological and tangent characters, each a ``Counter`` of
(p, q, e) monomials, and build its term the direct way: one matter Euler
class of the whole tautological character, one Euler class of the whole
tangent character, then num * den^-1, merged into one canonical
``FactoredTerm``.  ``merged`` gives any flat term, a tuple of pieces, that
canonical piece, so a term is compared with the reference through it;
``expanded`` first multiplies out a term whose factors include sums (a
resolved term is ell(kvec) times its two chart parts, each a one-term
sum, and a zx1 grade or a Cauchy product has sums of many terms).
The box-by-box definitions of arms, legs and the Z2-degree, which the
engine's builders inline, are the references for the characters,
and ``char_lk`` is the line-bundle twist character written from its
definition.  The ``ref_`` helpers are the piece builders and Euler
classes the way the engine wrote them while a character was a
``Counter`` of monomials, each carrying its e-part: the characters from
those definitions, the Euler classes monomial by monomial, so a piece's
factors come in its monomials' first-seen order.  The last helpers read quantities only tests need, and read
a coefficient's degree and denominator forms off its pieces directly, as
references for what ``exact.Kernel`` records while it compiles.
zx0 is compiled as it is built, so it holds no pieces; ``factored``
builds it as a series of pieces through the same walk, for those
references and for a kernel compiled from its terms, and
``series_values`` reads any series, compiled or of terms, at a point.
``reference_prefactor`` is (1 - (-1)^r q)^(+-u) built the way the engine
built it before it became a numeric side: each grade a sum of powers of
the exponent-ratio piece u, each power held here beside its binomial
coefficient as a (Fraction, piece) pair, which ``prefactor_value`` reads
at a point.
``substitute`` and ``reference_map_point`` apply a substitution rule
written as a dict from variable to its image form, the way the engine
applied rules before a rule became an int map (``exact.Rule``), and
``reference_chart`` and ``reference_negate_eps`` are its rules as dicts,
written from their definitions.
``added``, ``halved`` and ``cleared_trap`` make forms the engine has no
arithmetic for (a sum, a half, a form scaled to coprime integer
coefficients), through their Fraction coefficients, and
``reduced_pairs`` reads a form in the layout the engine used before a
form became its doubled ints: sorted (slot, numerator) pairs over the
least common denominator.
``closure_fixed_points_x0`` and ``closure_kvectors`` are the orbifold
fixed-point and first-Chern-vector enumerators written as nested
recursive closures, the way the engine wrote them before it moved every
recursive helper to module level, and ``recursive_diagram_tuples`` is
the plane enumerator with one call per slot, the way the engine wrote it
before it walked slots on an explicit stack; they pin the enumeration
order.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm

from nekrasov import series as series_module
from nekrasov.characters import (
    char_tangent_p2,
    char_tangent_x0,
    char_tangent_x1,
    char_twist,
    char_v_p2,
    char_v_x0,
    char_v_x1,
)
from nekrasov.diagrams import HalfInt, boxes, partitions, transpose
from nekrasov.exact import (
    EPS1,
    EPS2,
    FactoredTerm,
    Kernel,
    factored_term,
    linear_form,
    term_eval,
    term_pow,
    var_a,
)
from nekrasov.localization import (
    FactorTable,
    VanishingWeight,
    mass_shifted_weight,
    ratio_part,
    slot_part,
    weight_form,
)
from nekrasov.series import QSeries, _binomial_poly, prefactor_exponent


def char_lk(k: HalfInt) -> Counter:
    """Lattice character of the k-th twist: for k > 1/2 the monomials
    t1^(i+1) t2^(j+1) over i, j >= 0 with i + j <= 2k - 2 and i + j = 2k
    mod 2; for k < -1/2 the mirror family t1^(-i) t2^(-j); empty otherwise."""
    d = k.doubled
    out = Counter()
    for i in range(abs(d) - 1):
        for j in range(abs(d) - 1 - i):
            if (i + j - d) % 2 == 0:
                out[(i + 1, j + 1, ()) if d > 0 else (-i, -j, ())] += 1
    return out


def column_height(diagram, i) -> int:
    """Height of the i-th column (0 beyond the diagram's width)."""
    return diagram[i - 1] if 1 <= i <= len(diagram) else 0


def arm_in(diagram, i, j) -> int:
    """lambda_i - j, measured in `diagram`; negative for boxes outside it."""
    return column_height(diagram, i) - j


def leg_in(diagram, i, j) -> int:
    """lambda'_j - i, measured in `diagram`; negative for boxes outside it."""
    return column_height(transpose(diagram), j) - i


def degree_mod2(mono, frame) -> int:
    """Z2-degree: t1, t2 and the color-1 framing characters are odd."""
    p, q, e = mono
    return (p + q + sum(exp for alpha, exp in e if alpha > frame.w0)) % 2


def degree_part(ch, frame, s) -> Counter:
    """The monomials of `ch` of Z2-degree s, with their multiplicities."""
    return Counter({m: n for m, n in ch.items() if degree_mod2(m, frame) == s})


def merged(t):
    """The canonical FactoredTerm of a flat term (pieces only, see
    `expanded`): all its pieces' factors, merged by form."""
    return factored_term([factor for piece in t for factor in piece.factors])


def expanded(term) -> tuple:
    """The flat terms, each a tuple of pieces, that `term` multiplies out
    to: each factor that is a sum (a tuple of terms, see ``exact.Term``)
    stands for each of its terms' expansions in turn, the first factor
    varying slowest.  A term of pieces alone expands to itself."""
    out = [()]
    for factor in term:
        choices = expanded_terms(factor) if factor.__class__ is tuple else ((factor,),)
        out = [head + tail for head in out for tail in choices]
    return tuple(out)


def expanded_terms(c) -> tuple:
    """Every flat term of a coefficient (or of a sum), each term's
    expansions in turn."""
    return tuple([flat for t in c for flat in expanded(t)])


def walked_pieces(term):
    """Every piece of `term` in factor order, each sum's terms in turn:
    the order in which ``exact.Kernel`` first meets them (a piece may
    recur)."""
    for factor in term:
        if factor.__class__ is tuple:
            for t in factor:
                yield from walked_pieces(t)
        else:
            yield factor


def with_e(pairs, e) -> Counter:
    """An engine piece as a character: each (p, q) pair times the e-part."""
    return Counter((p, q, e) for p, q in pairs)


def _sum(pieces) -> Counter:
    total = Counter()
    for piece in pieces:
        total.update(piece)
    return total


def _slot_pairs(r):
    return [(a, b) for a in range(1, r + 1) for b in range(1, r + 1)]


def whole_v_p2(diagrams) -> Counter:
    return _sum(with_e(char_v_p2(y), slot_part(a)) for a, y in enumerate(diagrams, start=1))


def whole_v_x0(frame, diagrams) -> Counter:
    return _sum(
        with_e(char_v_x0(frame.colors[a - 1], y), slot_part(a)) for a, y in enumerate(diagrams, start=1)
    )


def whole_v_x1(frame, fp) -> Counter:
    pieces = []
    for a in range(1, frame.r + 1):
        d = fp.kvec[a - 1]
        pieces.append(with_e(char_twist(d), slot_part(a)))
        pieces.append(with_e(char_v_x1(d, 1, fp.y1[a - 1]), slot_part(a)))
        pieces.append(with_e(char_v_x1(d, 2, fp.y2[a - 1]), slot_part(a)))
    return _sum(pieces)


def whole_tangent_p2(r, diagrams) -> Counter:
    return _sum(
        with_e(char_tangent_p2(diagrams[a - 1], diagrams[b - 1]), ratio_part(a, b))
        for a, b in _slot_pairs(r)
    )


def whole_tangent_x0(frame, ys) -> Counter:
    colors = frame.colors
    return _sum(
        with_e(char_tangent_x0((colors[b - 1] - colors[a - 1]) % 2, ys[a - 1], ys[b - 1]), ratio_part(a, b))
        for a, b in _slot_pairs(frame.r)
    )


def whole_tangent_x1(frame, fp) -> Counter:
    pieces = []
    for a, b in _slot_pairs(frame.r):
        delta = fp.kvec[b - 1] - fp.kvec[a - 1]
        e = ratio_part(a, b)
        pieces.append(with_e(char_twist(delta), e))
        pieces.append(with_e(char_tangent_x1(delta, 1, fp.y1[a - 1], fp.y1[b - 1]), e))
        pieces.append(with_e(char_tangent_x1(delta, 2, fp.y2[a - 1], fp.y2[b - 1]), e))
    return _sum(pieces)


def _quotient(num, den):
    return merged((num, term_pow(den, -1)))


def reference_term_p2(r, diagrams):
    num = ref_matter_euler(whole_v_p2(diagrams), r)
    return _quotient(num, ref_euler_class(whole_tangent_p2(r, diagrams)))


def reference_term_x0(frame, diagrams):
    num = ref_matter_euler(whole_v_x0(frame, diagrams), frame.r)
    return _quotient(num, ref_euler_class(whole_tangent_x0(frame, diagrams)))


def reference_term_x1(frame, fp):
    num = ref_matter_euler(whole_v_x1(frame, fp), frame.r)
    return _quotient(num, ref_euler_class(whole_tangent_x1(frame, fp)))


def _mono(p, q, e) -> tuple:
    """t1^p t2^q times prod e_alpha^c over e's (alpha, c), zero c dropped."""
    return (p, q, tuple(sorted((alpha, c) for alpha, c in e.items() if c)))


def _ratio(alpha, beta) -> dict:
    return {beta: 1, alpha: -1} if alpha != beta else {}


def ref_char_v_p2(alpha, diagram) -> Counter:
    """Tautological fiber of slot alpha on the plane: e_alpha t1^(1-i)
    t2^(1-j) per box."""
    return Counter(_mono(1 - i, 1 - j, {alpha: 1}) for i, j in boxes(diagram))


def ref_char_v_x0(frame, alpha, diagram, s) -> Counter:
    """The degree-s part of slot alpha's plane fiber."""
    return degree_part(ref_char_v_p2(alpha, diagram), frame, s)


def ref_char_v_twist(alpha, d, s) -> Counter:
    """e_alpha times the twist character with doubled index d + s."""
    return Counter(_mono(p, q, {alpha: 1}) for p, q, _ in char_lk(HalfInt(d + s)).elements())


def ref_char_v_x1(alpha, d, chart, diagram, s) -> Counter:
    """Chart piece of slot alpha's resolved fiber, k_alpha = d/2: per box
    (i, j), t1^(2(k - i + 1 + s/2)) (t2/t1)^(1-j) in the first chart and
    its mirror in the second."""
    if chart == 1:
        return Counter(_mono(d - 2 * i + j + s + 1, 1 - j, {alpha: 1}) for i, j in boxes(diagram))
    return Counter(_mono(1 - i, d - 2 * j + i + s + 1, {alpha: 1}) for i, j in boxes(diagram))


def defined_pair_weights(ya, yb) -> list:
    """The arm/leg pair weights box by box, each arm and leg measured by
    its definition (one transpose per leg)."""
    out = [(-leg_in(yb, i, j), arm_in(ya, i, j) + 1) for i, j in boxes(ya)]
    out += [(leg_in(ya, i, j) + 1, -arm_in(yb, i, j)) for i, j in boxes(yb)]
    return out


def ref_char_tangent_p2(alpha, beta, ya, yb) -> Counter:
    """e_beta/e_alpha times the arm/leg pair character, box by box."""
    e = _ratio(alpha, beta)
    return Counter(_mono(p, q, e) for p, q in defined_pair_weights(ya, yb))


def ref_char_tangent_x0(frame, alpha, beta, ya, yb) -> Counter:
    """The Z2-invariant part of the plane pair character."""
    return degree_part(ref_char_tangent_p2(alpha, beta, ya, yb), frame, 0)


def ref_char_tangent_twist(alpha, beta, delta) -> Counter:
    """e_beta/e_alpha times the twist character with doubled index delta."""
    e = _ratio(alpha, beta)
    return Counter(_mono(p, q, e) for p, q, _ in char_lk(HalfInt(delta)).elements())


CHART_MATRICES = {1: ((2, -1), (0, 1)), 2: ((1, 0), (-1, 2))}


def ref_char_tangent_x1(alpha, beta, delta, chart, ya, yb) -> Counter:
    """The plane pair character with the chart's exponent matrix applied
    and shifted by t_chart^delta."""
    (a, b), (c, d) = CHART_MATRICES[chart]
    shift = (delta, 0) if chart == 1 else (0, delta)
    out = Counter()
    for (p, q, e), n in ref_char_tangent_p2(alpha, beta, ya, yb).items():
        out[(a * p + b * q + shift[0], c * p + d * q + shift[1], e)] += n
    return out


def ref_euler_class(ch) -> FactoredTerm:
    """Product of the weights of a character's monomials, each to its
    multiplicity, in the character's order; a zero multiplicity drops its
    factor."""
    factors = []
    for mono, mult in ch.items():
        form = weight_form(mono)
        if form.is_zero():
            raise VanishingWeight(f"zero weight for monomial {mono}")
        if mult:
            factors.append((form, mult))
    return FactoredTerm(tuple(factors))


def ref_matter_euler(ch, r) -> FactoredTerm:
    """For each monomial in the character's order and each of the 2r
    masses, its mass-shifted weight to the monomial's multiplicity."""
    factors = []
    for mono, mult in ch.items():
        if mult:
            factors.extend((mass_shifted_weight(mono, f), mult) for f in range(1, 2 * r + 1))
    return FactoredTerm(tuple(factors))


def char_rank(ch) -> int:
    """Number of monomials of a character, counted with multiplicity."""
    return sum(ch.values())


def colored_sizes(diagram, l) -> tuple[int, int]:
    """Counts of boxes with Z2-color 0 and 1 for framing color l, box by
    box."""
    n = [0, 0]
    for i, j in boxes(diagram):
        n[(l + i + j) % 2] += 1
    return n[0], n[1]


def colored_counts(frame, diagrams) -> tuple[int, int]:
    """The colored sizes (v0, v1) of an orbifold diagram tuple, counted box
    by box."""
    v0 = v1 = 0
    for color, diagram in zip(frame.colors, diagrams):
        n0, n1 = colored_sizes(diagram, color)
        v0 += n0
        v1 += n1
    return v0, v1


def coefficient(form, v) -> Fraction:
    """The coefficient of variable `v` in a linear form."""
    return dict(form.coeffs).get(v, Fraction(0))


def added(*forms):
    """The sum of linear forms."""
    out = {}
    for form in forms:
        for v, c in form.coeffs:
            out[v] = out.get(v, 0) + c
    return linear_form(out)


def halved(form):
    """The form with every coefficient halved; its coefficients must be
    integers, so the half stays in (1/2)Z."""
    return linear_form({v: c / 2 for v, c in form.coeffs})


def cleared_trap(rest: dict, v, point):
    """The form rest + c v that vanishes at `point`, c = -rest(point) /
    point[v], cleared of denominators: scaled to coprime integer
    coefficients, so it vanishes at `point` too."""
    coeffs = {w: Fraction(c) for w, c in rest.items()}
    coeffs[v] = coeffs.get(v, 0) - sum(c * point[w] for w, c in coeffs.items()) / point[v]
    den = lcm(*(c.denominator for c in coeffs.values()))
    nums = {w: int(c * den) for w, c in coeffs.items()}
    g = gcd(*nums.values())
    return linear_form({w: n // g for w, n in nums.items()})


def reduced_pairs(form) -> tuple:
    """(pairs, den): the form's sorted (slot, numerator) pairs over the
    least positive common denominator of its coefficients."""
    den = lcm(*(c.denominator for _, c in form.coeffs))
    return tuple((v, int(c * den)) for v, c in form.coeffs), den


def factored(build):
    """`build` run with ``series.CompiledTable`` bound to ``FactorTable``:
    zx0 then comes out of the same slot walk as a series of
    ``FactoredTerm`` pieces, with no compile state; every other series is
    built as it is."""

    def run(*args):
        saved = series_module.CompiledTable
        series_module.CompiledTable = FactorTable
        try:
            return build(*args)
        finally:
            series_module.CompiledTable = saved

    return run


def series_values(series, point) -> dict:
    """{grade: value} of `series` at `point`, read by one ``Kernel``: over
    the series' compile state when it has one (zx0), else compiled from
    its terms."""
    grades = series.grades()
    return dict(zip(grades, Kernel(map(series.coefficient, grades), series.compiled).evaluate(point)))


def coeff_degree(c) -> int | None:
    """The total degree (sum of factor exponents) every term of `c` shares,
    0 for the empty coefficient, or None when the terms' degrees differ."""
    degrees = {sum(exp for piece in t for _, exp in piece.factors) for t in expanded_terms(c)}
    if len(degrees) > 1:
        return None
    return degrees.pop() if degrees else 0


def coeff_denominator_forms(c) -> list:
    """Distinct forms appearing with negative exponent in some piece of a
    term of `c`, in first-seen order, each term's pieces walked as the
    kernel meets them (`walked_pieces`)."""
    seen = {}
    for t in c:
        for piece in walked_pieces(t):
            for form, exp in piece.factors:
                if exp < 0:
                    seen.setdefault(form, None)
    return list(seen)


def series_pole_forms(*series_list) -> list:
    """Every distinct denominator form of every coefficient of every
    series, in first-seen order."""
    seen = {}
    for series in series_list:
        for g in series.grades():
            seen.update(dict.fromkeys(coeff_denominator_forms(series.coefficient(g))))
    return list(seen)


def substitute(form, rule):
    """form o R for a rule written as a dict from variable to its image
    form (a variable the dict misses is fixed), summed in Fractions: the
    reference for ``exact.form_image``."""
    out = {}
    for v, c in form.coeffs:
        for v2, c2 in rule[v].coeffs if v in rule else ((v, 1),):
            out[v2] = out.get(v2, 0) + c * c2
    return linear_form(out)


def reference_map_point(point, rule):
    """R(p) for a dict rule: each variable takes its image's value at p."""
    return {v: rule[v].evaluate(point) if v in rule else value for v, value in point.items()}


def reference_negate_eps() -> dict:
    """eps -> -eps as a dict rule."""
    return {EPS1: linear_form({EPS1: -1}), EPS2: linear_form({EPS2: -1})}


def reference_chart(side: int, kvec) -> dict:
    """Blow-up chart `side` of a first-Chern vector, given as its doubled
    entries, as a dict rule, from
    its definition: chart 1 sends (eps1, eps2) to (2 eps1, eps2 - eps1)
    and a to a + 2k eps1, chart 2 sends (eps1, eps2) to (eps1 - eps2,
    2 eps2) and a to a + 2k eps2; masses are fixed."""
    if side == 1:
        rule = {EPS1: linear_form({EPS1: 2}), EPS2: linear_form({EPS1: -1, EPS2: 1})}
    else:
        rule = {EPS1: linear_form({EPS1: 1, EPS2: -1}), EPS2: linear_form({EPS2: 2})}
    carrier = EPS1 if side == 1 else EPS2
    for alpha, d in enumerate(kvec, start=1):  # d = 2k_alpha
        rule[var_a(alpha)] = linear_form({var_a(alpha): 1, carrier: d})
    return rule


def reference_prefactor(r: int, sign: int, max_n: int) -> QSeries:
    """(1 - (-1)^r q)^(sign * u) as a q-series; grade 4j holds the
    degree-j binomial as a polynomial in the single exponent-ratio piece u:
    a (coefficient, u^d) pair per nonzero coefficient."""
    u = prefactor_exponent(r)
    sigma = 1 if r % 2 == 1 else -1  # -(-1)^r
    coeffs = {}
    for j in range(max_n + 1):
        pairs = []
        for d, c in enumerate(_binomial_poly(j)):
            c *= sign ** d * sigma ** j
            if c:
                pairs.append((c, term_pow(u, d)))
        coeffs[4 * j] = tuple(pairs)
    return QSeries(coeffs, 4 * max_n, 0)


def prefactor_value(pairs, point) -> Fraction:
    """The value at `point` of one grade of ``reference_prefactor``: the
    sum of its coefficients times their powers of u."""
    return sum((c * term_eval((power,), point) for c, power in pairs), Fraction(0))


def _closure_bounded_diagrams(size, color, room0, room1):
    """Diagrams of `size` boxes framed with `color` within room0 boxes of
    color 0 and room1 of color 1, in partitions(size) order, each with its
    two colored counts; every column height is tried and checked."""
    prefix = []

    def extend(left, cap, n0, n1):
        if left == 0:
            yield tuple(prefix), n0, n1
            return
        starts_at_0 = (color + len(prefix)) % 2 == 0
        for height in range(min(cap, left), 0, -1):
            major, minor = (height + 1) // 2, height // 2
            if starts_at_0:
                c0, c1 = n0 + major, n1 + minor
            else:
                c0, c1 = n0 + minor, n1 + major
            if c0 <= room0 and c1 <= room1:
                prefix.append(height)
                yield from extend(left - height, height, c0, c1)
                prefix.pop()

    yield from extend(size, size, 0, 0)


def closure_fixed_points_x0(frame, v0, v1) -> list:
    """Every r-tuple of diagrams with colored sizes (v0, v1), each slot
    tried at every size up to the room left."""
    out = []
    colors = frame.colors

    def extend(slot, head, room0, room1):
        color = colors[slot]
        if slot == len(colors) - 1:
            for diagram, _, _ in _closure_bounded_diagrams(room0 + room1, color, room0, room1):
                out.append(head + (diagram,))
            return
        for size in range(room0 + room1 + 1):
            for diagram, n0, n1 in _closure_bounded_diagrams(size, color, room0, room1):
                extend(slot + 1, head + (diagram,), room0 - n0, room1 - n1)

    if v0 >= 0 and v1 >= 0:
        extend(0, (), v0, v1)
    return out


def closure_kvectors(frame, k, max4n) -> list:
    """Every first-Chern vector summing to k with 4 * sum(k_alpha^2) <=
    max4n, each coordinate ranged over 0, 1, -1, 2, -2, ... (doubled);
    none when 2k + w1 is odd."""
    if (k.doubled + frame.w1) % 2 != 0:
        return []
    parities = [0 if c == 0 else 1 for c in frame.colors]
    out = []

    def values(parity, budget4):
        limit = isqrt(budget4) if budget4 >= 0 else -1
        for mag in range(parity % 2, limit + 1, 2):
            yield mag
            if mag > 0:
                yield -mag

    def extend(prefix, used4):
        slot = len(prefix)
        if slot == frame.r - 1:
            last = k.doubled - sum(prefix)
            if last % 2 == parities[slot] and used4 + last * last <= max4n:
                out.append(tuple(prefix + [last]))
            return
        for d in values(parities[slot], max4n - used4):
            extend(prefix + [d], used4 + d * d)

    if frame.r == 1:
        if k.doubled % 2 == parities[0] and k.doubled ** 2 <= max4n:
            out.append((k.doubled,))
    else:
        extend([], 0)
    return out


def recursive_diagram_tuples(slots, total):
    """Every `slots`-tuple of diagrams of `total` boxes: the first slot's
    diagram by size and then in partitions order, each followed by every
    tuple of the other slots."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        for diagram in partitions(total):
            yield (diagram,)
        return
    for head_size in range(total + 1):
        for head in partitions(head_size):
            for rest in recursive_diagram_tuples(slots - 1, total - head_size):
                yield (head,) + rest
