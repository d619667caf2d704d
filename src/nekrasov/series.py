"""q-graded partition-function series and variable substitutions.

All series live on the integer grading g = 4n, where n is the instanton
number; a surface with w1 odd framing slots contributes a universal
quarter offset, carried implicitly by the residue g mod 4 (reported once
per series as its offset), so grade keys stay integers.  A missing grade
at or below the truncation means the coefficient is zero.

Every substitution rule is an exact.Rule, an int map R on the variables,
and a series substituted by R takes at a point p the value the plain
series takes at R(p), map_point(p, R), which reads the rule's ints
straight off: eps_i goes to x eps1 + y eps2 and a_alpha to a_alpha plus
its shift times the carrier.  A form is its doubled ints (p, q, frame)
over the denominator 2 (exact.LinearForm), and a rule maps its (p, q)
and keeps its frame, so a form's image is a few int products.
Every series is built once, in plain variables, by verify.SeriesPair for
both the checks and ``compute``, and a side under the sign flip
rule_negate_eps is read at R(p).  Only the two blow-up chart rules
(rule_chart) are applied to terms: series_zx1_factorized builds one
plain plane series, up to the largest grade any first-Chern vector
needs, and substitutes each chart into the terms of the grades that
vector uses, with one image memo per rule, so each distinct piece and
form is imaged once per rule.  Its Cauchy product (series_mul) is one
term per pair of grades, the two charted coefficients as sums (see
exact.Term), so a kernel reads each charted grade once per point.

series_zp2, series_zx0 and series_zx1 share one grade loop (``_series``),
fed by a fixed-point source, the fixed points of a grade, and a term
builder (``localization.term_p2``, ``term_x0`` or ``term_x1``).  The
loop makes one factor table per build and passes it to every term it
builds, so a slot's or slot pair's piece, each character class and each
monomial's form is built once per build, and every slot shares one
diagonal tangent piece per diagram; series_zx1_factorized keeps one more
for its ell(kvec) pieces.  zx0 is compiled as it is built: its table is a
``localization.CompiledTable``, so each of its coefficients is a tuple
of compiled terms and its series carries the table's compile state
(``QSeries.compiled``), from which verify.SeriesPair makes its kernel
with no compile walk.  zp2 and zx1 use a ``localization.FactorTable``,
their terms tuples of ``FactoredTerm`` pieces and sums, compiled by the
kernel's walk.
series_zx1 builds each fixed point's term in the blow-up shape from its
own chart characters, (ell(kvec), part_1, part_2), each a one-term sum
made once per build, and writes each grade as one term per rectangle:
the fixed points of one kvec and one |Y1| = j are every (Y1, Y2) of
sizes j and n - j, so their terms add up to ell * (sum of part_1) *
(sum of part_2), each side's sum made once per (kvec, chart, size) and
shared by every grade that holds it.  A kernel then reads each side's
sum once per point instead of every product of parts.
series_zx1_factorized still goes through the charted plane series.
A first-Chern vector is the tuple of its doubled entries 2k_alpha, as
``diagrams.enum_kvectors`` yields it: it is a chart rule's shifts and
keys the ell(kvec) memo as it is.  A parity-infeasible k (2k + w1 odd)
has no first-Chern vector, so zx1 and zx1-fact are zero with no guard
here; zx0 is zero there too, its v1 being non-integral.
Every term is the tuple of its factors, pieces and sums (charted plane
terms, their Cauchy products and ell times a term too), so no term's
factors are ever merged.  The tables and the image memos die with the build: nothing is
cached at module level here (``diagrams`` memoizes `partitions` and
`transpose`, which depend on a diagram alone).

Implemented series:

  * series_zx0      -- orbifold side, summed over colored diagram tuples,
  * series_zx1      -- resolved side, summed over (kvec, Y1, Y2) data,
  * series_zp2      -- plane series, summed over diagram tuples,
  * series_prefactor-- (1 - (-1)^r q)^(+-u) over Q[u], each grade the
                       (degree, coefficient) pairs of a binomial in the
                       exponent ratio u = ((eps1+eps2)/2)(2*sum a + sum m)/(eps1 eps2),
  * series_zx1_factorized -- the blow-up factorization: a sum over
    first-Chern vectors of q^(sum k^2) * ell(kvec) times two plane series
    taken at the chart substitutions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .diagrams import (
    FrameData,
    HalfInt,
    diagram_tuples,
    enum_fixed_points_x0,
    enum_fixed_points_x1,
    enum_kvectors,
)
from .exact import (
    EPS1,
    EPS2,
    Coefficient,
    Compile,
    EvalPoint,
    FactoredTerm,
    LinearForm,
    Record,
    Rule,
    factored_term,
    term_mul,
    term_substitute,
    var_a,
    var_m,
)
from .localization import CompiledTable, FactorTable, ell_factor, term_p2, term_x0, term_x1


class QSeries(Record):
    """Truncated series: grade -> coefficient, all grades = offset mod 4.
    `compiled` is None for a series of terms, and for a series compiled as
    it is built (zx0) the ``exact.Compile`` its compiled terms refer to.
    A series is weakly referenceable, so a test can see it freed, and
    unhashable: its coefficients are a dict, so its hash raises TypeError."""

    __slots__ = ("coeffs", "max_grade", "offset", "compiled", "__weakref__")

    def __init__(self, coeffs: dict, max_grade: int, offset: int, compiled: Compile | None = None) -> None:
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "max_grade", max_grade)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "compiled", compiled)

    def grades(self) -> range:
        return range(self.offset, self.max_grade + 1, 4)

    def coefficient(self, grade: int) -> Coefficient:
        return self.coeffs.get(grade, ())


def rule_negate_eps() -> Rule:
    """eps -> -eps."""
    return Rule(((-1, 0), (0, -1)), (0, 0), ())


def rule_chart(side: int, kvec: tuple) -> Rule:
    """Blow-up chart substitution for a first-Chern vector, given as its
    doubled entries 2k_alpha, which are the rule's shifts.

    Chart 1: (eps1, eps2) -> (2 eps1, eps2 - eps1), a -> a + 2 k eps1.
    Chart 2: (eps1, eps2) -> (eps1 - eps2, 2 eps2), a -> a + 2 k eps2.
    Masses are unchanged.
    """
    if side == 1:
        return Rule(((2, 0), (-1, 1)), (1, 0), kvec)
    if side == 2:
        return Rule(((1, -1), (0, 2)), (0, 1), kvec)
    raise ValueError("side must be 1 or 2")


def map_point(point: EvalPoint, rule: Rule | None) -> EvalPoint:
    """R(p), read off the rule's ints: eps_i takes x eps1 + y eps2 at p,
    (x, y) = matrix[i - 1], and a_alpha, for each shift s_alpha,
    a_alpha + s_alpha (xc eps1 + yc eps2), (xc, yc) the carrier; every
    other variable keeps its value.  Each value is that of the variable's
    image v o R (exact.form_image) at p, so a coefficient at R(p) is the
    coefficient substituted by R at p."""
    if rule is None:
        return point
    e1, e2 = point[EPS1], point[EPS2]
    ((x1, y1), (x2, y2)), (xc, yc) = rule.matrix, rule.carrier
    out = dict(point)
    out[EPS1] = x1 * e1 + y1 * e2
    out[EPS2] = x2 * e1 + y2 * e2
    carried = xc * e1 + yc * e2
    for alpha, shift in enumerate(rule.shifts, start=1):
        if shift:
            a = var_a(alpha)
            out[a] = point[a] + shift * carried
    return out


def prefactor_exponent(r: int) -> FactoredTerm:
    """The exponent ratio u = ((eps1+eps2)/2)(2 sum a + sum m)/(eps1 eps2),
    as one piece, each form built from its doubled ints (exact.LinearForm):
    (eps1+eps2)/2 is (1, 1), 2 sum a + sum m holds 4 per a_alpha and 2 per
    m_f, and eps1 and eps2 are (2, 0) and (0, 2)."""
    charge = [(var_a(alpha), 4) for alpha in range(1, r + 1)] + [(var_m(f), 2) for f in range(1, 2 * r + 1)]
    forms = [LinearForm(1, 1, ()), LinearForm(0, 0, tuple(charge)), LinearForm(2, 0, ()), LinearForm(0, 2, ())]
    return factored_term(zip(forms, (1, 1, -1, -1)))


def _binomial_poly(j: int) -> list[Fraction]:
    """Coefficients (in x^d) of binom(x, j) = x(x-1)...(x-j+1)/j!: the
    signed Stirling numbers of the first kind s(j, d), by their int
    recurrence (one factor x - i at a time), each over j! at the end."""
    poly = [1]
    for i in range(j):
        poly = [c - i * b for c, b in zip([0] + poly, poly + [0])]
    whole = factorial(j)
    return [Fraction(c, whole) for c in poly]


def series_prefactor(r: int, sign: int, max_n: int) -> QSeries:
    """(1 - (-1)^r q)^(sign * u) over Q[u]: grade 4j holds binom(sign u, j)
    (-(-1)^r)^j as the (d, c) pairs of its nonzero coefficients c of u^d."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    sigma = 1 if r % 2 == 1 else -1  # -(-1)^r
    coeffs = {
        4 * j: tuple(
            (d, c * sign ** d * sigma ** j) for d, c in enumerate(_binomial_poly(j)) if c
        )
        for j in range(max_n + 1)
    }
    return QSeries(coeffs, 4 * max_n, 0)


def _series(offset: int, max4n: int, fixed_points, term, grade=tuple, table_type=FactorTable) -> QSeries:
    """The series whose grade g, from offset to max4n in steps of 4, is
    grade(the list of term(fp, table) over the fixed points
    fixed_points(g)), by default their tuple, with one factor table, a
    `table_type()`, for the whole build; the series carries the table's
    compile state."""
    table = table_type()
    coeffs = {g: grade([term(fp, table) for fp in fixed_points(g)]) for g in range(offset, max4n + 1, 4)}
    return QSeries(coeffs, max4n, offset, table.compiled)


def series_zp2(r: int, max_n: int) -> QSeries:
    """Plane partition-function series up to q^max_n."""
    return _series(
        0, 4 * max_n, lambda g: diagram_tuples(r, g // 4), lambda tup, table: term_p2(r, tup, table)
    )


def _charted(zp2: QSeries, max_n: int, rule: Rule) -> QSeries:
    """The plane series up to q^max_n with a chart substituted into every
    term; each distinct piece and each distinct form is substituted once."""
    images: dict = {}
    coeffs = {
        4 * n: tuple(term_substitute(t, rule, images) for t in zp2.coefficient(4 * n))
        for n in range(max_n + 1)
    }
    return QSeries(coeffs, 4 * max_n, 0)


def series_zx0(frame: FrameData, k: HalfInt, max4n: int) -> QSeries:
    """Orbifold-side series: grade 4*v0 + w1 sums the colored diagram
    tuples with counts (v0, v1), v1 = v0 + w1/2 + k.  Grades where v0 or
    v1 is negative or v1 is non-integral (parity-infeasible k) hold zero.
    It is compiled as it is built: each term is ``term_x0``'s compiled
    term, and the series carries its build's compile state."""

    def fixed_points(g: int):
        v0 = (g - frame.w1) // 4
        v1_doubled = 2 * v0 + frame.w1 + k.doubled
        if v1_doubled % 2:
            return ()
        return enum_fixed_points_x0(frame, v0, v1_doubled // 2)

    def term(fp, table):
        return term_x0(frame, fp, table)

    return _series(frame.w1 % 4, max4n, fixed_points, term, table_type=CompiledTable)


def series_zx1(frame: FrameData, k: HalfInt, max4n: int) -> QSeries:
    """Resolved-side series: grade 4n sums all (kvec, Y1, Y2) fixed points
    with sum(kvec) = k at that grade, one term per rectangle (see
    `_rectangles`), each side's sum made once per build.  Parity-infeasible
    k gives the zero series (no admissible first-Chern vectors exist)."""
    sums: dict = {}
    return _series(
        frame.w1 % 4,
        max4n,
        lambda g: enum_fixed_points_x1(frame, k, g),
        lambda fp, table: (fp, term_x1(frame, fp, table)),
        lambda built: _rectangles(built, sums),
    )


def _rectangles(built: list, sums: dict) -> Coefficient:
    """One grade of zx1 from its (fixed point, term_x1 term) pairs, one
    term per rectangle: the fixed points of one first-Chern vector kvec
    with |Y1| = j are every (Y1, Y2) of sizes j and n - j, so their terms
    ell * P1(Y1) * P2(Y2) add up to ell * (sum of P1) * (sum of P2).  Each
    side's sum holds its parts' terms in first-seen order and is kept in
    `sums` per (kvec, chart, size), so every grade that holds it holds one
    object.  A rectangle whose fixed points are not every pair of its
    parts, or whose side differs from the one kept, is a ValueError."""
    rectangles: dict = {}
    for fp, (ell, part1, part2) in built:
        key = (fp.kvec, sum(map(sum, fp.y1)))
        rect = rectangles.get(key)
        if rect is None:
            rect = rectangles[key] = [ell, {}, {}, 0, sum(map(sum, fp.y2))]
        rect[1][id(part1)] = part1
        rect[2][id(part2)] = part2
        rect[3] += 1
    out = []
    for (kvec, j), (ell, ones, twos, count, rest) in rectangles.items():
        if count != len(ones) * len(twos):
            raise ValueError(f"incomplete rectangle: kvec {kvec}, |Y1| = {j}")
        out.append((ell, _side_sum(sums, (kvec, 1, j), ones), _side_sum(sums, (kvec, 2, rest), twos)))
    return tuple(out)


def _side_sum(sums: dict, key: tuple, parts: dict) -> Coefficient:
    """The sum of the one-term sums `parts`, kept in sums[key] on first
    use; a later sum for key must hold the same terms."""
    built = tuple([part[0] for part in parts.values()])
    kept = sums.setdefault(key, built)
    if kept != built:
        raise ValueError(f"incomplete rectangle side: kvec {key[0]}, chart {key[1]}, size {key[2]}")
    return kept


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product, one term per pair of non-empty grades: the product
    of their two coefficients, each a sum (exact.Term), so no pair of
    terms is multiplied out.  The product is complete up to the largest
    grade at which both factors still supply every needed coefficient,
    namely min(a.max_grade + b.offset, b.max_grade + a.offset)."""
    offset = (a.offset + b.offset) % 4
    max_grade = min(a.max_grade + b.offset, b.max_grade + a.offset)
    acc: dict[int, list] = {g: [] for g in range(offset, max_grade + 1, 4)}
    for g1 in a.grades():
        c1 = a.coefficient(g1)
        if not c1:
            continue
        for g2 in b.grades():
            g = g1 + g2
            if g > max_grade:
                break
            c2 = b.coefficient(g2)
            if not c2:
                continue
            acc[g].append(term_mul((c1,), (c2,)))
    return QSeries({g: tuple(ts) for g, ts in acc.items()}, max_grade, offset)


def series_zx1_factorized(frame: FrameData, k: HalfInt, max4n: int) -> QSeries:
    """Resolved-side series assembled from the blow-up factorization:
    sum over first-Chern vectors of the shift q^(sum k^2) applied to
    ell(kvec) * Zp2(chart 1) * Zp2(chart 2).  The plane series is built
    once, to the largest q-power any vector needs; each vector's charts
    are substituted into the grades that vector needs."""
    offset = frame.w1 % 4
    acc: dict[int, list] = {g: [] for g in range(offset, max4n + 1, 4)}
    kvecs = enum_kvectors(frame, k, max4n)
    if kvecs:
        bases = [sum([d * d for d in kvec]) for kvec in kvecs]
        zp2 = series_zp2(frame.r, (max4n - min(bases)) // 4)
        table = FactorTable()
        for kvec, base in zip(kvecs, bases):
            max_n = (max4n - base) // 4
            ell = ell_factor(frame, kvec, table)
            prod = series_mul(*(_charted(zp2, max_n, rule_chart(side, kvec)) for side in (1, 2)))
            for g in prod.grades():
                acc[g + base].extend(term_mul(ell, t) for t in prod.coefficient(g))
    return QSeries({g: tuple(ts) for g, ts in acc.items()}, max4n, offset)


def map_to_imo(point: EvalPoint, r: int) -> dict:
    """Express a rank-r evaluation point in the alternate variable
    convention: eps -> -eps, mu_i = m_i - (eps1+eps2)/2 for the first r
    masses and mu_(r+i) = -m_(r+i) + (eps1+eps2)/2 for the rest; a is
    unchanged."""
    half = (point[EPS1] + point[EPS2]) / 2
    out = {"eps1": -point[EPS1], "eps2": -point[EPS2]}
    for alpha in range(1, r + 1):
        out[f"a{alpha}"] = point[var_a(alpha)]
    for i in range(1, r + 1):
        out[f"mu{i}"] = point[var_m(i)] - half
    for i in range(1, r + 1):
        out[f"mu{r + i}"] = -point[var_m(r + i)] + half
    return out
