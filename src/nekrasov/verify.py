"""Identity verification by exact evaluation at pseudo-random points.

Both sides of each functional equation are rational functions of the
equivariant variables.  Rather than expanding them symbolically, every
check evaluates both sides at a handful of pseudo-random rational points
and demands exact equality.  Coordinates are drawn with numerators in
[-999, 999] \\ {0} over denominators in [1, 32], so one coordinate takes
any one value with probability at most 1/1998.  By the Schwartz-Zippel
bound a grade whose cleared difference has degree at most D (the LCD
degree of both sides plus the term degree) passes one trial falsely with
probability at most D/1998, and all `trials` with at most (D/1998)^trials.
D is not yet computed per check.  Measured with F and -F merged, for
main's k <= 0 branch at the top grade, it is 265 at w = (1,2) max-n 4
and 413 to 694 at the ~10 s frontier cells, 4e-4 to 5e-3 per grade over
five trials there.

The point stream is deterministic: trial t's point is a pure function of
(seed, t), generated by a splitmix64 stream, so reports are byte-identical
across runs and platforms.  Every series is built once, in plain
variables; a side that compares a series under a sign flip R is its plain
coefficient evaluated at R(p).  The series of one (frame, k, max4n) are
read through a SeriesPair, which builds and compiles each on first use
and then keeps only its grades and its kernel.  zx0 is compiled as it is
built (series.series_zx0), so its kernel is made from the compile state
its series carries, with no compile walk; zx1, zx1-fact and zp2 are
series of terms that the kernel's compile walk reads.  A check is a
function of a pair and a SampleConfig, check_X(pair, cfg), and reads its
request from pair.key; `nekrasov check all` hands one pair to all of its
checks, so each series is built once per invocation, and `nekrasov
compute` builds, samples and reads its one series through a pair too.
Each side of a check maps a point to {grade: value}: every coefficient
of one series read at R(p), or a numeric Cauchy product of such values,
so no product series is ever built.  main's k >= 0 prefactor and must's
weights are one side, the coefficients of (1 - (-1)^r q)^(+-u): u = n/m
is evaluated at p, and each grade's polynomial in u (series_prefactor)
is summed in ints over L m^j (L its coefficients' common denominator)
into one Fraction.  A Cauchy product writes each factor's values over
their common denominator and sums each grade in ints over the product of
the two, one Fraction per grade.

Each side also carries the linear forms its draws must avoid: a series
read at R(p) carries its plain denominator forms composed with R (form o
R vanishes at p exactly when form vanishes at R(p)), and a product
carries both factors' forms.  A check's draws avoid the union of its
sides' forms, one of each pair F and -F (union_pole_forms); a draw that
zeroes any of them is rejected and the whole point redrawn, so an honest
pole can never masquerade as a mismatch.  Each series' plain denominator
forms are read off its kernel, and composed with each rule R (an
exact.Rule, through exact.form_image) once per pair: main and must both
read zx0 at -eps p, and share one composition; the prefactor's are u's
own denominator forms, eps2 and eps1.  The pole test is exact.clear_of,
which reads the union's forms as a kernel reads its own (main's union at
w = (2,0) k = 0 max-n 3 holds 44 forms over 3 frame parts).

The pair also holds one value table per invocation: a series read at a
point is evaluated once, keyed by (series, each coordinate's numerator
and denominator), so equal points share one entry and no coordinate is
hashed as a Fraction, and every later read of it, by any check, is
served from the table.  That one evaluation is one call of the series'
exact.Kernel, which the pair compiles on first use; exact.Kernel says
how it reads forms, factor sets, terms and sums at a point in ints, into
one Fraction per grade.  Its factor sets are shared by the value-equal
pieces zx1-fact builds anew per chart rule.  A term's factor may be a
sum (exact.Term): zx1 writes each grade as one term per rectangle of
fixed points, ell(kvec) times the sum of its chart-1 parts times the sum
of its chart-2 parts, and zx1-fact one term per first-Chern vector and
pair of plane grades, so each side's sum is read once per point, not
once per fixed point.  The same compile walk records the series' pole
forms and each coefficient's degree (zx0's build records them as it
makes its pieces), so nothing else reads the pieces;
no form cancels between the pieces of a term (every matter form carries
a mass, no tangent form does), so they are those of the merged,
multiplied-out terms.  The kernel holds no piece, so a series is freed
as soon as its kernel is compiled, and kernels and table hold only what
they compute and die with the pair.
Every linear form has no constant part, so a coefficient whose terms
all have one total degree d (the sum of the factor exponents) takes
exactly (-1)^d times its value at p at the point -p, and its forms
vanish at -p exactly when they vanish at p.  symmetry therefore reports
(-1)^d times the plain value as its flipped side, and must reads beta at
-(a, m) p, the full flip of -eps p, as (-1)^d times the orbifold value
at -eps p that main reads.  A
coefficient of mixed degree is evaluated at the flipped point instead,
so a broken term still fails with its real values.  At k = 0 one
`check all` evaluates zx0 and zx1 at two points per trial, p and -eps p,
and zx1-fact at one, p (mult is its only reader).

Checks:

  * check_main           -- resolved series at -eps against the orbifold
                            series, convolved with the prefactor
                            (1 - (-1)^r q)^u on the k >= 0 branch and
                            read at -eps on the k <= 0 branch (both
                            branches when k = 0),
  * check_factorization  -- resolved series against its blow-up
                            factorization through two plane series,
  * check_symmetry       -- invariance under (eps, a, m) -> -(eps, a, m):
                            a degree-parity test, which passes whenever
                            each coefficient has one even degree (it caught
                            none of five one-line engine mutants that main,
                            mult or must catch),
  * check_recursion_must -- the convolution recursion expressing the
                            resolved coefficients through sign-flipped
                            orbifold coefficients, weighted by
                            (1 - (-1)^r q)^(-u).
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from operator import attrgetter

from .diagrams import FrameData, HalfInt
from .exact import (
    EvalPoint,
    Kernel,
    LinearForm,
    Rule,
    clear_of,
    form_image,
    format_rational,
    named_point,
    scale_to_ints,
    scope_vars,
    term_eval,
)
from .series import (
    QSeries,
    map_point,
    prefactor_exponent,
    rule_negate_eps,
    series_prefactor,
    series_zp2,
    series_zx0,
    series_zx1,
    series_zx1_factorized,
)

# A coordinate's key in the value table: its (numerator, denominator) ints.
_RATIO = attrgetter("numerator", "denominator")

# A draw's numerators lie in [-NUMERATOR, NUMERATOR] \ {0}, its
# denominators in [1, DENOMINATOR]; a pole-hitting draw is redrawn at most
# MAX_RESAMPLE times.
NUMERATOR = 999
DENOMINATOR = 32
MAX_RESAMPLE = 100


class ResampleExhausted(RuntimeError):
    """Could not find a pole-free sample point within the resample budget."""


class SampleConfig(namedtuple("SampleConfig", "seed trials")):
    """Deterministic sampling protocol for identity testing."""

    __slots__ = ()

    def __new__(cls, seed: int, trials: int = 5) -> "SampleConfig":
        if not 0 <= seed < 1 << 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if trials < 1:
            raise ValueError("need at least one trial")
        return super().__new__(cls, seed, trials)


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TRIAL_SALT = 0xD1B54A32D192ED03


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _Stream:
    """splitmix64 stream keyed by (seed, trial)."""

    def __init__(self, seed: int, trial: int) -> None:
        self.state = (seed + (trial + 1) * _TRIAL_SALT) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return _mix64(self.state)


def _draw_point(stream: _Stream, r: int) -> EvalPoint:
    point: EvalPoint = {}
    for v in scope_vars(r):
        n = stream.next_u64() % (2 * NUMERATOR) - NUMERATOR  # 0 is skipped below
        if n >= 0:
            n += 1
        point[v] = Fraction(n, 1 + stream.next_u64() % DENOMINATOR)
    return point


def sample_point_with_stats(
    cfg: SampleConfig, trial: int, pole_forms, r: int
) -> tuple[EvalPoint, int]:
    """First pole-free point of trial `trial`'s deterministic stream, and
    how many redraws it needed."""
    stream = _Stream(cfg.seed, trial)
    for redraws in range(MAX_RESAMPLE + 1):
        point = _draw_point(stream, r)
        if clear_of(pole_forms, point):
            return point, redraws
    raise ResampleExhausted(
        f"no pole-free point after {MAX_RESAMPLE} redraws (trial {trial})"
    )


def sample_points(
    cfg: SampleConfig, pole_forms, r: int
) -> tuple[list[EvalPoint], list[int]]:
    """Every trial's point, and the redraws each one needed.  A point equal
    to an earlier trial's is reported on stderr; points are compared by
    their coordinates' (numerator, denominator) ints, one set lookup each."""
    points: list[EvalPoint] = []
    resamples: list[int] = []
    seen: set[tuple] = set()
    for trial in range(cfg.trials):
        point, redraws = sample_point_with_stats(cfg, trial, pole_forms, r)
        key = tuple(map(_RATIO, point.values()))
        if key in seen:
            print(f"sample-point collision between trials (seed {cfg.seed})", file=sys.stderr)
        seen.add(key)
        points.append(point)
        resamples.append(redraws)
    return points, resamples


def union_pole_forms(*form_lists: list[LinearForm]) -> list[LinearForm]:
    """The distinct forms of all `form_lists` up to sign, in first-seen
    order: F and -F vanish together, so of each such pair only the one
    seen first is kept.  A form is keyed by its sign-normal version, the
    one whose first nonzero coefficient (eps1, eps2, then the frame's
    first) is positive."""
    union: dict[LinearForm, LinearForm] = {}
    for form in dict.fromkeys(form for forms in form_lists for form in forms):
        union.setdefault(-form if (form.p or form.q or form.frame[0][1]) < 0 else form, form)
    return list(union.values())


class SeriesPair:
    """Every series of one (frame, k, max4n), each compiled on first use
    and then dropped: per series the pair keeps its grades, its kernel
    (values, denominator forms, degrees) and its forms composed with each
    rule read, so checks sharing a pair share compiles and compositions.
    A series compiled as it is built (zx0) gives its kernel its compile
    state; any other is compiled by the kernel's walk over its terms.

    The pair also keeps one value table: a series read at a point is
    evaluated once, keyed by (series name, each coordinate's numerator
    and denominator), and then served to every check from the table."""

    def __init__(self, frame: FrameData, k: HalfInt, max4n: int) -> None:
        self.key = (frame, k, max4n)
        self._compiled: dict[str, tuple[range, Kernel]] = {}
        self._composed: dict[tuple, list[LinearForm]] = {}
        self._values: dict[tuple, dict] = {}

    def series(self, name: str) -> QSeries:
        """Series `name`, built anew: the orbifold series zx0, the resolved
        series zx1, its blow-up factorization zx1-fact, or the plane
        series zp2 to q^((max4n - w1)/4)."""
        frame, k, max4n = self.key
        if name == "zx0":
            return series_zx0(frame, k, max4n)
        if name == "zx1":
            return series_zx1(frame, k, max4n)
        if name == "zx1-fact":
            return series_zx1_factorized(frame, k, max4n)
        if name == "zp2":
            return series_zp2(frame.r, (max4n - frame.w1) // 4)
        raise ValueError(f"unknown series {name!r}")

    def _compile(self, name: str) -> tuple[range, Kernel]:
        """The grades and the compiled kernel of series `name`, made on
        first use; the series itself is freed once its kernel is built."""
        compiled = self._compiled.get(name)
        if compiled is None:
            series = self.series(name)
            grades = series.grades()
            kernel = Kernel(map(series.coefficient, grades), series.compiled)
            compiled = self._compiled[name] = (grades, kernel)
        return compiled

    def grades(self, name: str) -> range:
        """The grades of series `name`, in increasing order."""
        return self._compile(name)[0]

    def pole_forms(self, name: str, rule: Rule | None = None) -> list[LinearForm]:
        """Every distinct denominator form of series `name`, composed with
        `rule` when one is given (exact.form_image); each series' forms
        are composed with each rule once per pair."""
        if rule is None:
            return self._compile(name)[1].pole_forms
        forms = self._composed.get((name, rule))
        if forms is None:
            forms = self._composed[name, rule] = [form_image(f, rule) for f in self.pole_forms(name)]
        return forms

    def degrees(self, name: str) -> dict:
        """{grade: the degree all terms share, or None} for series `name`."""
        grades, kernel = self._compile(name)
        return dict(zip(grades, kernel.degrees))

    def values(self, name: str, image: EvalPoint) -> dict:
        """{grade: value} of series `name` at `image`, evaluated by its
        kernel once per distinct image."""
        key = (name, tuple(map(_RATIO, image.values())))
        values = self._values.get(key)
        if values is None:
            grades, kernel = self._compile(name)
            values = self._values[key] = dict(zip(grades, kernel.evaluate(image)))
        return values

    def negated(self, name: str, image: EvalPoint) -> dict:
        """{grade: value} of series `name` at -image.  A coefficient whose
        terms share one degree d takes (-1)^d times its value at `image`;
        if any coefficient mixes degrees, the series is read at -image too
        and that coefficient taken from there."""
        plain, degrees = self.values(name, image), self.degrees(name)
        if None in degrees.values():
            flipped = self.values(name, {v: -x for v, x in image.items()})
        out = {}
        for g, d in degrees.items():
            if d is None:
                out[g] = flipped[g]
            else:
                out[g] = -plain[g] if d % 2 else plain[g]
        return out


class GradeRecord(namedtuple("GradeRecord", "grade4n tags values")):
    __slots__ = ()  # values: one (lhs, rhs) Fraction pair per trial

    @property
    def all_equal(self) -> bool:
        return all(lhs == rhs for lhs, rhs in self.values)


class VerificationReport(
    namedtuple("VerificationReport", "check frame k max4n cfg points resamples grades")
):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(record.all_equal for record in self.grades)

    def to_dict(self) -> dict:
        grade_dicts = []
        for record in self.grades:
            entry: dict = {"grade4n": record.grade4n}
            entry.update(record.tags)
            entry["trials"] = [
                {
                    "lhs": format_rational(lhs),
                    "rhs": format_rational(rhs),
                    "equal": lhs == rhs,
                }
                for lhs, rhs in record.values
            ]
            grade_dicts.append(entry)
        return {
            "check": self.check,
            "w": [self.frame.w0, self.frame.w1],
            "k": str(self.k),
            "max_4n": self.max4n,
            "seed": self.cfg.seed,
            "trials": self.cfg.trials,
            "points": [named_point(p) for p in self.points],
            "resamples": self.resamples,
            "grades": grade_dicts,
            "pass": self.passed,
        }


def _side(value, forms: list[LinearForm]):
    """`value`, a map from a point to {grade: value}, as a check side that
    is defined wherever none of `forms` vanishes."""
    value.forms = forms
    return value


def _read(pair: SeriesPair, name: str, rule=None, negated: bool = False):
    """The side reading every coefficient of the pair's series `name` at
    rule(p), through the pair's value table, or at -rule(p) from its
    values at rule(p) when `negated`.  Its forms are the series' forms
    composed with the rule: form o R vanishes at p exactly when form
    vanishes at R(p), and a form vanishes at -q exactly when it vanishes
    at q."""
    read = pair.negated if negated else pair.values
    return _side(lambda point: read(name, map_point(point, rule)), pair.pole_forms(name, rule))


def _prefactor(r: int, sign: int, max_n: int):
    """The side of (1 - (-1)^r q)^(sign u) to q^max_n: grade 4j holds
    sum c u^d over series_prefactor's (d, c) pairs, with u = n/m read at
    p.  Each grade is summed in ints, sum c' n^d m^(j-d) over L m^j with
    c' = c L and L the lcm of the grade's c denominators (d <= j,
    ``exact.scale_to_ints``), into one Fraction."""
    series, u_piece = series_prefactor(r, sign, max_n), prefactor_exponent(r)
    grades = [(g, g // 4, *scale_to_ints(dict(series.coefficient(g)))) for g in series.grades()]

    def values(point: EvalPoint) -> dict:
        u = term_eval((u_piece,), point)
        n_pow, m_pow = [1], [1]
        for _ in range(max_n):
            n_pow.append(n_pow[-1] * u.numerator)
            m_pow.append(m_pow[-1] * u.denominator)
        return {
            g: Fraction(sum([c * n_pow[d] * m_pow[j - d] for d, c in pairs.items()]), den * m_pow[j])
            for g, j, pairs, den in grades
        }

    return _side(values, [form for form, exp in u_piece.factors if exp < 0])


def _cauchy(weights, side):
    """The side whose grade g is sum_j weights(p)[j] * side(p)[g - j], over
    the grades of `side`.  Both factors' values are written over their own
    common denominator (``exact.scale_to_ints``), and each grade is summed
    in ints over the product of the two into one Fraction."""

    def product(point: EvalPoint) -> dict:
        (w_num, w_den), (v_num, v_den) = scale_to_ints(weights(point)), scale_to_ints(side(point))
        den = w_den * v_den
        return {
            g: Fraction(sum([c * v_num[g - j] for j, c in w_num.items() if g - j in v_num]), den)
            for g in v_num
        }

    return _side(product, weights.forms + side.forms)


def _run_check(name: str, pair: SeriesPair, cfg: SampleConfig, rows) -> VerificationReport:
    """Each row is (tags, lhs, rhs), and each grade of lhs becomes one
    record.  Draws avoid the distinct forms of every side, and a side
    shared by several rows is evaluated once per point."""
    frame, k, max4n = pair.key
    sides = dict.fromkeys(side for _, lhs, rhs in rows for side in (lhs, rhs))
    pole_forms = union_pole_forms(*(side.forms for side in sides))
    points, resamples = sample_points(cfg, pole_forms, frame.r)
    values = [{side: side(point) for side in sides} for point in points]
    grades = [
        GradeRecord(g, tags, [(v[lhs][g], v[rhs][g]) for v in values])
        for tags, lhs, rhs in rows
        for g in values[0][lhs]
    ]
    return VerificationReport(name, frame, k, max4n, cfg, points, resamples, grades)


def check_main(pair: SeriesPair, cfg: SampleConfig) -> VerificationReport:
    """Resolved series at -eps against the orbifold series.

    For k >= 0 the right side is the orbifold series convolved with the
    prefactor (1 - (-1)^r q)^u; for k <= 0 it is the orbifold series at
    -eps; k = 0 runs both branches, which share one orbifold series."""
    frame, k, max4n = pair.key
    flip = rule_negate_eps()
    lhs, rows = _read(pair, "zx1", flip), []
    if k.doubled >= 0:
        rhs = _cauchy(_prefactor(frame.r, +1, max4n // 4), _read(pair, "zx0"))
        rows.append(({"branch": "k>=0"}, lhs, rhs))
    if k.doubled <= 0:
        rows.append(({"branch": "k<=0"}, lhs, _read(pair, "zx0", flip)))
    return _run_check("main", pair, cfg, rows)


def check_factorization(pair: SeriesPair, cfg: SampleConfig) -> VerificationReport:
    """Resolved series against its blow-up factorization.  zx1 makes each
    chart part from the chart characters, zx1-fact from the plane
    characters under the chart substitution, and both reach the same
    linear forms: the two compile to field-for-field identical kernels.
    So mult compares the chart characters with the chart images of the
    plane characters at the level of forms, and cannot see a fault that
    both builds share, such as a wrong ell(kvec), Euler class or matter
    twist."""
    rows = [({}, _read(pair, "zx1"), _read(pair, "zx1-fact"))]
    return _run_check("mult", pair, cfg, rows)


def check_symmetry(pair: SeriesPair, cfg: SampleConfig) -> VerificationReport:
    """Both series against themselves under (eps, a, m) -> -(eps, a, m):
    each series at the flipped point against itself at the plain point.
    A coefficient of one degree d is read at the flipped point as (-1)^d
    times its plain value, so it passes exactly when d is even; one of
    mixed degree is evaluated at the flipped point."""
    rows = [
        ({"kappa": kappa}, _read(pair, name, negated=True), _read(pair, name))
        for kappa, name in ((0, "zx0"), (1, "zx1"))
    ]
    return _run_check("symmetry", pair, cfg, rows)


def check_recursion_must(pair: SeriesPair, cfg: SampleConfig) -> VerificationReport:
    """Convolution recursion: with alpha the resolved series (plain
    variables) and beta the orbifold series at (a, m) -> (-a, -m),

        alpha_n = sum_j (-1)^(j r) u(u+1)...(u+j-1)/j! * beta_(n-j),

    the weights being the coefficients of (1 - (-1)^r q)^(-u).

    -(a, m) is the full flip -(eps, a, m) composed with -eps, so beta is
    read at -(-eps p): a coefficient of one degree d is (-1)^d times the
    orbifold value at -eps p, the value main reads, and any other is
    evaluated at the flipped point.  Any failure is reported with full
    values, never suppressed."""
    frame, k, max4n = pair.key
    if k.doubled < 0:
        raise ValueError("recursion check is defined for k >= 0")
    beta = _read(pair, "zx0", rule_negate_eps(), negated=True)
    rhs = _cauchy(_prefactor(frame.r, -1, max4n // 4), beta)
    return _run_check("must", pair, cfg, [({}, _read(pair, "zx1"), rhs)])
