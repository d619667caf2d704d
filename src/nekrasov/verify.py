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
D is not yet computed per check; measured by hand it is at most 80 at
w = (2,0) max-n 3 and at most 446 at w = (1,2) max-n 4, about 6e-4 per
grade over five trials.

The point stream is deterministic: trial t's point is a pure function of
(seed, t), generated by a splitmix64 stream, so reports are byte-identical
across runs and platforms.  Every series is built once, in plain
variables; a side that compares a series under a sign flip R is its plain
coefficient evaluated at R(p).  The series of one (frame, k, max4n) live
in a SeriesPair, which builds each on first use.  A check is a function
of a pair and a SampleConfig, check_X(pair, cfg), and reads its request
from pair.key; `nekrasov check all` hands one pair to all of its checks,
so each series is built once per invocation, and `nekrasov compute`
builds, samples and reads its one series through a pair too.
Each side of a check maps a point to {grade: value}: every coefficient
of one series read at R(p), or a numeric Cauchy product of such values,
so no product series is ever built.

Each side also carries the linear forms its draws must avoid: a series
read at R(p) carries its plain denominator forms composed with R (form o
R vanishes at p exactly when form vanishes at R(p)), and a product
carries both factors' forms.  A check's draws avoid the union of its
sides' forms (union_pole_forms); a draw that zeroes any of them is
rejected and the whole point redrawn, so an honest pole can never
masquerade as a mismatch.  Each series' plain denominator forms are read
off its kernel, once per pair.  The pole test is exact.clear_of, on the
integer kernel: the draw is scaled to one common denominator once, and
each form is one int dot product.

The pair also holds one value table per invocation: a series read at a
point is evaluated once, keyed by (series, the point's values), and every
later read of it, by any check, is served from the table.  That one
evaluation is one call of the series' exact.Kernel, which the pair
compiles on first use: each distinct form of the series is one int dot
product per point, each distinct piece (a slot's matter factor or a slot
pair's tangent factor) one int numerator and denominator, each term the
product of its pieces' ints, and each grade's value one Fraction.  The
same compile walk records the series' pole forms and each coefficient's
degree, so nothing else reads the pieces; no form cancels between the
pieces of a term (every matter form carries a mass, no tangent form
does), so they are those of the merged terms.  Kernels and table hold
only what they compute and die with the pair.  Every linear
form has no constant part, so a coefficient whose terms all have one
total degree d (the sum of the factor exponents) takes exactly (-1)^d
times its value at p at the point -p, and its forms vanish at -p exactly
when they vanish at p.  symmetry therefore reports (-1)^d times the plain value as its
flipped side, and must reads beta at -(a, m) p, the full flip of -eps p,
as (-1)^d times the orbifold value at -eps p that main reads.  A
coefficient of mixed degree is evaluated at the flipped point instead,
so a broken term still fails with its real values.  At k = 0 one
`check all` evaluates each series at two points per trial, p and -eps p.

Checks:

  * check_main           -- resolved series at -eps against the orbifold
                            series, convolved with the prefactor
                            (1 - (-1)^r q)^u on the k >= 0 branch and
                            read at -eps on the k <= 0 branch (both
                            branches when k = 0),
  * check_factorization  -- resolved series against its blow-up
                            factorization through two plane series,
  * check_symmetry       -- invariance under (eps, a, m) -> -(eps, a, m),
  * check_recursion_must -- the convolution recursion expressing the
                            resolved coefficients through sign-flipped
                            orbifold coefficients with rising-factorial
                            weights in the exponent ratio u.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import FrameData, HalfInt
from .exact import (
    EvalPoint,
    Kernel,
    LinearForm,
    clear_of,
    format_rational,
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

logger = logging.getLogger(__name__)

# A draw's numerators lie in [-NUMERATOR, NUMERATOR] \ {0}, its
# denominators in [1, DENOMINATOR]; a pole-hitting draw is redrawn at most
# MAX_RESAMPLE times.
NUMERATOR = 999
DENOMINATOR = 32
MAX_RESAMPLE = 100


class ResampleExhausted(RuntimeError):
    """Could not find a pole-free sample point within the resample budget."""


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling protocol for identity testing."""

    seed: int
    trials: int = 5

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.trials < 1:
            raise ValueError("need at least one trial")


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
    """Every trial's point, and the redraws each one needed."""
    points: list[EvalPoint] = []
    resamples: list[int] = []
    for trial in range(cfg.trials):
        point, redraws = sample_point_with_stats(cfg, trial, pole_forms, r)
        if point in points:
            logger.warning("sample-point collision between trials (seed %d)", cfg.seed)
        points.append(point)
        resamples.append(redraws)
    return points, resamples


def union_pole_forms(*form_lists: list[LinearForm]) -> list[LinearForm]:
    """The distinct forms of all `form_lists`, in first-seen order."""
    return list(dict.fromkeys(form for forms in form_lists for form in forms))


class SeriesPair:
    """Every series of one (frame, k, max4n), each built on first use and
    then kept, so checks that share a pair share the series.

    The pair also keeps, per series, its compiled kernel, made once and
    read for the series' values, plain denominator forms and degrees, and
    one value table: a series read at a point is evaluated once, keyed by
    (series name, the point's values), and then served to every check
    from the table."""

    def __init__(self, frame: FrameData, k: HalfInt, max4n: int) -> None:
        self.key = (frame, k, max4n)
        self._series: dict[str, QSeries] = {}
        self._kernels: dict[str, Kernel] = {}
        self._values: dict[tuple, dict] = {}

    def series(self, name: str) -> QSeries:
        """Series `name`: the orbifold series zx0, the resolved series zx1,
        its blow-up factorization zx1-fact, the plane series zp2 to
        q^((max4n - w1)/4), or main's prefactor (1 - (-1)^r q)^u to
        q^(max4n // 4)."""
        series = self._series.get(name)
        if series is None:
            frame, k, max4n = self.key
            if name == "zx0":
                series = series_zx0(frame, k, max4n)
            elif name == "zx1":
                series = series_zx1(frame, k, max4n)
            elif name == "zx1-fact":
                series = series_zx1_factorized(frame, k, max4n)
            elif name == "zp2":
                series = series_zp2(frame.r, (max4n - frame.w1) // 4)
            elif name == "prefactor":
                series = series_prefactor(frame.r, +1, max4n // 4)
            else:
                raise ValueError(f"unknown series {name!r}")
            self._series[name] = series
        return series

    def _kernel(self, name: str) -> Kernel:
        """The compiled kernel of series `name`, made on first use."""
        kernel = self._kernels.get(name)
        if kernel is None:
            series = self.series(name)
            kernel = self._kernels[name] = Kernel(map(series.coefficient, series.grades()))
        return kernel

    def pole_forms(self, name: str) -> list[LinearForm]:
        """Every distinct denominator form of series `name`."""
        return self._kernel(name).pole_forms

    def degrees(self, name: str) -> dict:
        """{grade: the degree all terms share, or None} for series `name`."""
        return dict(zip(self.series(name).grades(), self._kernel(name).degrees))

    def values(self, name: str, image: EvalPoint) -> dict:
        """{grade: value} of series `name` at `image`, evaluated by its
        kernel once per distinct image."""
        key = (name, tuple(image.values()))
        values = self._values.get(key)
        if values is None:
            grades = self.series(name).grades()
            values = self._values[key] = dict(zip(grades, self._kernel(name).evaluate(image)))
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


@dataclass
class GradeRecord:
    grade4n: int
    tags: dict
    values: list  # one (lhs, rhs) Fraction pair per trial

    @property
    def all_equal(self) -> bool:
        return all(lhs == rhs for lhs, rhs in self.values)


@dataclass
class VerificationReport:
    check: str
    frame: FrameData
    k: HalfInt
    max4n: int
    cfg: SampleConfig
    points: list
    resamples: list
    grades: list

    @property
    def passed(self) -> bool:
        return all(record.all_equal for record in self.grades)

    def to_dict(self) -> dict:
        point_dicts = [
            {v.name: format_rational(p[v]) for v in scope_vars(self.frame.r)}
            for p in self.points
        ]
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
            "points": point_dicts,
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
    read, forms = pair.negated if negated else pair.values, pair.pole_forms(name)
    return _side(
        lambda point: read(name, map_point(point, rule)),
        forms if rule is None else [form.substitute(rule) for form in forms],
    )


def _cauchy(weights, side):
    """The side whose grade g is sum_j weights(p)[j] * side(p)[g - j], over
    the grades of `side`."""

    def product(point: EvalPoint) -> dict:
        w, values = weights(point), side(point)
        return {
            g: sum((c * values[g - j] for j, c in w.items() if g - j in values), Fraction(0))
            for g in values
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
    _, k, _ = pair.key
    flip = rule_negate_eps()
    lhs, rows = _read(pair, "zx1", flip), []
    if k.doubled >= 0:
        rhs = _cauchy(_read(pair, "prefactor"), _read(pair, "zx0"))
        rows.append(({"branch": "k>=0"}, lhs, rhs))
    if k.doubled <= 0:
        rows.append(({"branch": "k<=0"}, lhs, _read(pair, "zx0", flip)))
    return _run_check("main", pair, cfg, rows)


def check_factorization(pair: SeriesPair, cfg: SampleConfig) -> VerificationReport:
    """Resolved series against its blow-up factorization."""
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


def _must_weights(r: int, max_n: int):
    """must's weights as a side: grade 4j holds
    (-1)^(j r) u(u+1)...(u+j-1)/j! at p, for j = 0..max_n."""
    u_term = prefactor_exponent(r)

    def weights(point: EvalPoint) -> dict:
        u, sign = term_eval(u_term, point), (-1) ** r
        out = {0: Fraction(1)}
        for j in range(1, max_n + 1):
            out[4 * j] = out[4 * j - 4] * sign * (u + j - 1) / j
        return out

    return _side(weights, Kernel([(u_term,)]).pole_forms)


def check_recursion_must(pair: SeriesPair, cfg: SampleConfig) -> VerificationReport:
    """Convolution recursion: with alpha the resolved series (plain
    variables) and beta the orbifold series at (a, m) -> (-a, -m),

        alpha_n = sum_j (-1)^(j r) u(u+1)...(u+j-1)/j! * beta_(n-j).

    -(a, m) is the full flip -(eps, a, m) composed with -eps, so beta is
    read at -(-eps p): a coefficient of one degree d is (-1)^d times the
    orbifold value at -eps p, the value main reads, and any other is
    evaluated at the flipped point.  Any failure is reported with full
    values, never suppressed."""
    frame, k, max4n = pair.key
    if k.doubled < 0:
        raise ValueError("recursion check is defined for k >= 0")
    beta = _read(pair, "zx0", rule_negate_eps(), negated=True)
    rhs = _cauchy(_must_weights(frame.r, max4n // 4), beta)
    return _run_check("must", pair, cfg, [({}, _read(pair, "zx1"), rhs)])
