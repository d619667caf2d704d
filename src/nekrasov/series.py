"""q-graded partition-function series and variable substitutions.

All series live on the integer grading g = 4n, where n is the instanton
number; a surface with w1 odd framing slots contributes a universal
quarter offset, carried implicitly by the residue g mod 4 (reported once
per series as its offset), so grade keys stay integers.  A missing grade
at or below the truncation means the coefficient is zero.

Every substitution rule is an exact.Rule, an int map R on the variables,
and a series substituted by R takes at a point p the value the plain
series takes at R(p), map_point(p, R).  A form is its doubled ints
(p, q, frame) over the denominator 2 (exact.LinearForm), and a rule maps
its (p, q) and keeps its frame, so a form's image is a few int products.
Every series is built once, in plain variables, by verify.SeriesPair for
both the checks and ``compute``, and a side under the sign flip
rule_negate_eps is read at R(p).  Only the two blow-up chart rules
(rule_chart) are applied to terms: series_zx1_factorized builds one
plain plane series, up to the largest grade any first-Chern vector
needs, and substitutes each chart into the terms of the grades that
vector uses, with one image memo per rule, so each distinct piece and
form is imaged once per rule.

series_zp2, series_zx0 and series_zx1 share one grade loop (``_series``),
fed by a fixed-point source, the fixed points of a grade, and a term
builder (``localization.term_p2``, ``term_x0`` or ``term_x1``).  The
loop makes one factor table (``localization.FactorTable``) per build and
passes it to every term it builds, so a slot's or slot pair's piece,
each character class and each monomial's form is built once per build,
and every slot shares one diagonal tangent piece per diagram;
series_zx1_factorized keeps one more for its ell(kvec) pieces.
series_zx1 builds each term in the blow-up shape from its own chart
characters, ell(kvec) + part_1 + part_2, each part made once per build;
series_zx1_factorized still goes through the charted plane series.
Every term is the tuple of its pieces (charted plane terms, their Cauchy
products and ell times a term too), so no term's factors are ever
merged.  The tables and the image memos die with the build: nothing is
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
    EvalPoint,
    FactoredTerm,
    Record,
    Rule,
    Var,
    factored_term,
    form_image,
    linear_form,
    term_mul,
    term_substitute,
    var_a,
    var_m,
)
from .localization import FactorTable, ell_factor, term_p2, term_x0, term_x1


class QSeries(Record):
    """Truncated series: grade -> coefficient, all grades = offset mod 4.
    A series is weakly referenceable, so a test can see it freed."""

    __slots__ = ("coeffs", "max_grade", "offset", "__weakref__")

    def __init__(self, coeffs: dict, max_grade: int, offset: int) -> None:
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "max_grade", max_grade)
        object.__setattr__(self, "offset", offset)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not QSeries:
            return NotImplemented
        return (self.coeffs, self.max_grade, self.offset) == (other.coeffs, other.max_grade, other.offset)

    def __repr__(self) -> str:
        return f"QSeries(coeffs={self.coeffs!r}, max_grade={self.max_grade!r}, offset={self.offset!r})"

    def grades(self) -> range:
        return range(self.offset, self.max_grade + 1, 4)

    def coefficient(self, grade: int) -> Coefficient:
        return self.coeffs.get(grade, ())


def rule_negate_eps() -> Rule:
    """eps -> -eps."""
    return Rule(((-1, 0), (0, -1)), (0, 0), ())


def rule_chart(side: int, kvec) -> Rule:
    """Blow-up chart substitution for a first-Chern vector.

    Chart 1: (eps1, eps2) -> (2 eps1, eps2 - eps1), a -> a + 2 k eps1.
    Chart 2: (eps1, eps2) -> (eps1 - eps2, 2 eps2), a -> a + 2 k eps2.
    Masses are unchanged.
    """
    shifts = tuple([k.doubled for k in kvec])
    if side == 1:
        return Rule(((2, 0), (-1, 1)), (1, 0), shifts)
    if side == 2:
        return Rule(((1, -1), (0, 2)), (0, 1), shifts)
    raise ValueError("side must be 1 or 2")


def map_point(point: EvalPoint, rule: Rule | None) -> EvalPoint:
    """R(p): each variable v the rule moves (eps, and a_alpha up to its
    shifts) takes the value at p of its image v o R (exact.form_image), so
    a coefficient at R(p) is the coefficient substituted by R at p."""
    if rule is None:
        return point
    moved = len(rule.shifts)
    return {
        v: form_image(linear_form({v: 1}), rule).evaluate(point)
        if v.kind == "eps" or v.kind == "a" and v.index <= moved
        else value
        for v, value in point.items()
    }


def prefactor_exponent(r: int) -> FactoredTerm:
    """The exponent ratio u = ((eps1+eps2)/2)(2 sum a + sum m)/(eps1 eps2),
    as one piece: its 1/2 is held by the numerator form (eps1+eps2)/2,
    whose doubled eps numerators are (1, 1)."""
    half_eps_sum = linear_form({EPS1: Fraction(1, 2), EPS2: Fraction(1, 2)})
    charge: dict[Var, int] = {var_a(alpha): 2 for alpha in range(1, r + 1)}
    for f in range(1, 2 * r + 1):
        charge[var_m(f)] = 1
    return factored_term(
        [
            (half_eps_sum, 1),
            (linear_form(charge), 1),
            (linear_form({EPS1: 1}), -1),
            (linear_form({EPS2: 1}), -1),
        ]
    )


def _binomial_poly(j: int) -> list[Fraction]:
    """Coefficients (in x^d) of binom(x, j) = x(x-1)...(x-j+1)/j!."""
    poly = [Fraction(1)]
    for i in range(j):
        shifted = [Fraction(0)] + poly
        poly = [shifted[d] - i * (poly[d] if d < len(poly) else 0) for d in range(len(shifted))]
    inv = Fraction(1, factorial(j))
    return [c * inv for c in poly]


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


def _series(offset: int, max4n: int, fixed_points, term) -> QSeries:
    """The series whose grade g, from offset to max4n in steps of 4, sums
    term(fp, table) over the fixed points fixed_points(g), with one factor
    table for the whole build."""
    table = FactorTable()
    coeffs = {g: tuple([term(fp, table) for fp in fixed_points(g)]) for g in range(offset, max4n + 1, 4)}
    return QSeries(coeffs, max4n, offset)


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
    tuples with counts (v0, v1), v1 = v0 + w1/2 + k.  Grades where v1 is
    negative or non-integral (parity-infeasible k) hold zero."""

    def fixed_points(g: int):
        v0 = (g - frame.w1) // 4
        v1_doubled = 2 * v0 + frame.w1 + k.doubled
        if g < frame.w1 or v1_doubled < 0 or v1_doubled % 2 != 0:
            return ()
        return enum_fixed_points_x0(frame, v0, v1_doubled // 2)

    return _series(frame.w1 % 4, max4n, fixed_points, lambda fp, table: term_x0(frame, fp, table))


def series_zx1(frame: FrameData, k: HalfInt, max4n: int) -> QSeries:
    """Resolved-side series: grade 4n sums all (kvec, Y1, Y2) fixed points
    with sum(kvec) = k at that grade.  Parity-infeasible k gives the zero
    series (no admissible first-Chern vectors exist)."""
    feasible = (k.doubled + frame.w1) % 2 == 0
    return _series(
        frame.w1 % 4,
        max4n,
        lambda g: enum_fixed_points_x1(frame, k, g) if feasible else (),
        lambda fp, table: term_x1(frame, fp, table),
    )


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product.  The product is complete up to the largest grade at
    which both factors still supply every needed coefficient, namely
    min(a.max_grade + b.offset, b.max_grade + a.offset)."""
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
            acc[g].extend(term_mul(t1, t2) for t1 in c1 for t2 in c2)
    return QSeries({g: tuple(ts) for g, ts in acc.items()}, max_grade, offset)


def series_zx1_factorized(frame: FrameData, k: HalfInt, max4n: int) -> QSeries:
    """Resolved-side series assembled from the blow-up factorization:
    sum over first-Chern vectors of the shift q^(sum k^2) applied to
    ell(kvec) * Zp2(chart 1) * Zp2(chart 2).  The plane series is built
    once, to the largest q-power any vector needs; each vector's charts
    are substituted into the grades that vector needs."""
    offset = frame.w1 % 4
    acc: dict[int, list] = {g: [] for g in range(offset, max4n + 1, 4)}
    feasible = (k.doubled + frame.w1) % 2 == 0
    kvecs = enum_kvectors(frame, k, max4n) if feasible else []
    if kvecs:
        bases = [sum(h.doubled ** 2 for h in kvec) for kvec in kvecs]
        zp2 = series_zp2(frame.r, (max4n - min(bases)) // 4)
        table = FactorTable()
        for kvec, base in zip(kvecs, bases):
            max_n = (max4n - base) // 4
            ell = ell_factor(frame, kvec, table)
            prod = series_mul(*(_charted(zp2, max_n, rule_chart(side, kvec)) for side in (1, 2)))
            for g in prod.grades():
                acc[g + base].extend(term_mul(ell, t) for t in prod.coefficient(g))
    return QSeries({g: tuple(ts) for g, ts in acc.items()}, max4n, offset)


def map_to_imo(point: EvalPoint, frame: FrameData) -> dict:
    """Express an evaluation point in the alternate variable convention:
    eps -> -eps, mu_i = m_i - (eps1+eps2)/2 for the first r masses and
    mu_(r+i) = -m_(r+i) + (eps1+eps2)/2 for the rest; a is unchanged."""
    r = frame.r
    half = (point[EPS1] + point[EPS2]) / 2
    out = {"eps1": -point[EPS1], "eps2": -point[EPS2]}
    for alpha in range(1, r + 1):
        out[f"a{alpha}"] = point[var_a(alpha)]
    for i in range(1, r + 1):
        out[f"mu{i}"] = point[var_m(i)] - half
    for i in range(1, r + 1):
        out[f"mu{r + i}"] = -point[var_m(r + i)] + half
    return out
