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
coefficient evaluated at R(p).  The orbifold and resolved series of one
(frame, k, max4n) live in a SeriesPair, which builds each on first use;
`nekrasov check all` hands one pair to all of its checks, so each series
is built once per invocation, and a check called without a pair makes its
own.  Before evaluating, the union of all linear forms appearing in any
denominator on either side is collected, a flipped side contributing its
plain denominator forms composed with R (form o R vanishes at p exactly
when form vanishes at R(p)); a draw that zeroes any of them is rejected
and the whole point redrawn, so an honest pole can never masquerade as a
mismatch.  The pole test runs on the integer kernel: the draw is scaled
to one common denominator once, and each form is one int dot product.

Checks:

  * check_main           -- resolved series at -eps against the orbifold
                            series, with the prefactor (1 - (-1)^r q)^u on
                            the k >= 0 branch and a plain sign flip on the
                            k <= 0 branch (both branches when k = 0),
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
from math import factorial

from .diagrams import FrameData, HalfInt
from .exact import (
    EvalPoint,
    LinearForm,
    _scale_point,
    coeff_denominator_forms,
    coeff_eval,
    format_rational,
    scope_vars,
    term_eval,
)
from .series import (
    QSeries,
    map_point,
    prefactor_exponent,
    rule_negate_all,
    rule_negate_am,
    rule_negate_eps,
    series_mul,
    series_prefactor,
    series_zx0,
    series_zx1,
    series_zx1_factorized,
)

logger = logging.getLogger(__name__)


class ResampleExhausted(RuntimeError):
    """Could not find a pole-free sample point within the resample budget."""


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling protocol for identity testing."""

    seed: int
    trials: int = 5
    numerator_low: int = -999
    numerator_high: int = 999
    denominator_low: int = 1
    denominator_high: int = 32
    max_resample: int = 100

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.numerator_low < 0 < self.numerator_high:
            raise ValueError("numerator range must straddle 0 (which is excluded)")


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


def _draw_point(cfg: SampleConfig, stream: _Stream, r: int) -> EvalPoint:
    point: EvalPoint = {}
    num_span = cfg.numerator_high - cfg.numerator_low  # 0 excluded, so span not span+1
    den_span = cfg.denominator_high - cfg.denominator_low + 1
    for v in scope_vars(r):
        n = cfg.numerator_low + stream.next_u64() % num_span
        if n >= 0:
            n += 1
        d = cfg.denominator_low + stream.next_u64() % den_span
        point[v] = Fraction(n, d)
    return point


def sample_point(
    cfg: SampleConfig, trial: int, pole_forms, r: int
) -> EvalPoint:
    """First pole-free point of trial `trial`'s deterministic stream."""
    point, _ = sample_point_with_stats(cfg, trial, pole_forms, r)
    return point


def sample_point_with_stats(
    cfg: SampleConfig, trial: int, pole_forms, r: int
) -> tuple[EvalPoint, int]:
    """Like sample_point, but also reports how many redraws were needed."""
    stream = _Stream(cfg.seed, trial)
    for redraws in range(cfg.max_resample + 1):
        point = _draw_point(cfg, stream, r)
        if _clear_of(pole_forms, point):
            return point, redraws
    raise ResampleExhausted(
        f"no pole-free point after {cfg.max_resample} redraws (trial {trial})"
    )


def _clear_of(forms, point: EvalPoint) -> bool:
    """True when no form vanishes at `point`.  A form's value is its int dot
    product with the scaled point over a positive denominator, so the dot
    product alone decides."""
    ints, _ = _scale_point(point)
    for form in forms:
        value = 0
        for s, n in form.pairs:
            value += n * ints[s]
        if value == 0:
            return False
    return True


def union_pole_forms(*series_list: QSeries, extra=()) -> list[LinearForm]:
    """Every distinct denominator form of every coefficient, plus extras."""
    seen: dict[LinearForm, None] = {}
    for series in series_list:
        for g in series.grades():
            for form in coeff_denominator_forms(series.coefficient(g)):
                seen.setdefault(form, None)
    for term in extra:
        for form, exp in term.factors:
            if exp < 0:
                seen.setdefault(form, None)
    return list(seen)


def _joint_pole_forms(plain: list, flipped: list, rule) -> list[LinearForm]:
    """Pole forms of sides evaluated at p (`plain`) and at rule(p)
    (`flipped`, given as the plain forms of those series), without
    repeats."""
    return list(dict.fromkeys(plain + [form.substitute(rule) for form in flipped]))


class SeriesPair:
    """The orbifold series zx0 and the resolved series zx1 of one
    (frame, k, max4n), each built on first use and then kept, so checks
    that share a pair share the series."""

    def __init__(self, frame: FrameData, k: HalfInt, max4n: int) -> None:
        self.key = (frame, k, max4n)
        self._zx0: QSeries | None = None
        self._zx1: QSeries | None = None

    @property
    def zx0(self) -> QSeries:
        if self._zx0 is None:
            self._zx0 = series_zx0(*self.key)
        return self._zx0

    @property
    def zx1(self) -> QSeries:
        if self._zx1 is None:
            self._zx1 = series_zx1(*self.key)
        return self._zx1


def _pair_for(
    pair: SeriesPair | None, frame: FrameData, k: HalfInt, max4n: int
) -> SeriesPair:
    """`pair`, checked against the request, or a fresh pair when None."""
    if pair is None:
        return SeriesPair(frame, k, max4n)
    if pair.key != (frame, k, max4n):
        raise ValueError(
            f"series pair built for {pair.key}, not for {(frame, k, max4n)}"
        )
    return pair


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


def _run_check(
    name: str,
    frame: FrameData,
    k: HalfInt,
    max4n: int,
    cfg: SampleConfig,
    rows,
    pole_forms,
) -> VerificationReport:
    """Each side of a row is a (coefficient, rule) pair, evaluated at
    rule(p) (rule None: at p), or a callable of the point."""
    points: list[EvalPoint] = []
    resamples: list[int] = []
    for trial in range(cfg.trials):
        point, redraws = sample_point_with_stats(cfg, trial, pole_forms, frame.r)
        if point in points:
            logger.warning("sample-point collision between trials (seed %d)", cfg.seed)
        points.append(point)
        resamples.append(redraws)
    images: dict = {}  # (trial, id(rule)) -> rule(point of that trial)

    def evaluate(side, trial: int) -> Fraction:
        if callable(side):
            return side(points[trial])
        coeff, rule = side
        key = (trial, id(rule))
        if key not in images:
            images[key] = map_point(points[trial], rule)
        return coeff_eval(coeff, images[key])

    grades = []
    for grade, tags, lhs, rhs in rows:
        values = [(evaluate(lhs, t), evaluate(rhs, t)) for t in range(cfg.trials)]
        grades.append(GradeRecord(grade, tags, values))
    return VerificationReport(name, frame, k, max4n, cfg, points, resamples, grades)


def check_main(
    frame: FrameData,
    k: HalfInt,
    max4n: int,
    cfg: SampleConfig,
    pair: SeriesPair | None = None,
) -> VerificationReport:
    """Resolved series at -eps against the orbifold series.

    For k >= 0 the right side carries the prefactor (1 - (-1)^r q)^u; for
    k <= 0 it is the orbifold series at -eps; k = 0 runs both branches,
    which share one orbifold series."""
    pair = _pair_for(pair, frame, k, max4n)
    flip = rule_negate_eps()
    zx1, zx0 = pair.zx1, pair.zx0
    plain, flipped = [], [zx1]
    branches = []  # (label, series, rule its coefficients are read at)
    if k.doubled >= 0:
        rhs = series_mul(series_prefactor(frame.r, +1, max4n // 4), zx0)
        plain.append(rhs)
        branches.append(("k>=0", rhs, None))
    if k.doubled <= 0:
        flipped.append(zx0)
        branches.append(("k<=0", zx0, flip))
    pole_forms = _joint_pole_forms(
        union_pole_forms(*plain), union_pole_forms(*flipped), flip
    )
    rows = [
        (g, {"branch": label}, (zx1.coefficient(g), flip), (rhs.coefficient(g), rule))
        for label, rhs, rule in branches
        for g in zx1.grades()
    ]
    return _run_check("main", frame, k, max4n, cfg, rows, pole_forms)


def check_factorization(
    frame: FrameData,
    k: HalfInt,
    max4n: int,
    cfg: SampleConfig,
    pair: SeriesPair | None = None,
) -> VerificationReport:
    """Resolved series against its blow-up factorization."""
    lhs = _pair_for(pair, frame, k, max4n).zx1
    rhs = series_zx1_factorized(frame, k, max4n)
    pole_forms = union_pole_forms(lhs, rhs)
    rows = [
        (g, {}, (lhs.coefficient(g), None), (rhs.coefficient(g), None))
        for g in lhs.grades()
    ]
    return _run_check("mult", frame, k, max4n, cfg, rows, pole_forms)


def check_symmetry(
    frame: FrameData,
    k: HalfInt,
    max4n: int,
    cfg: SampleConfig,
    pair: SeriesPair | None = None,
) -> VerificationReport:
    """Both series against themselves under (eps, a, m) -> -(eps, a, m):
    each series at the flipped point against itself at the plain point."""
    pair = _pair_for(pair, frame, k, max4n)
    flip = rule_negate_all(frame.r)
    sides = ((0, pair.zx0), (1, pair.zx1))
    forms = union_pole_forms(*(series for _, series in sides))
    pole_forms = _joint_pole_forms(forms, forms, flip)
    rows = [
        (g, {"kappa": kappa}, (series.coefficient(g), flip), (series.coefficient(g), None))
        for kappa, series in sides
        for g in series.grades()
    ]
    return _run_check("symmetry", frame, k, max4n, cfg, rows, pole_forms)


def check_recursion_must(
    frame: FrameData,
    k: HalfInt,
    max4n: int,
    cfg: SampleConfig,
    pair: SeriesPair | None = None,
) -> VerificationReport:
    """Convolution recursion: with alpha the resolved series (plain
    variables) and beta the orbifold series at (a, m) -> (-a, -m),

        alpha_n = sum_j (-1)^(j r) u(u+1)...(u+j-1)/j! * beta_(n-j).

    beta is the plain orbifold series read at the flipped point.  Any
    failure is reported with full values, never suppressed."""
    if k.doubled < 0:
        raise ValueError("recursion check is defined for k >= 0")
    pair = _pair_for(pair, frame, k, max4n)
    r = frame.r
    flip = rule_negate_am(r)
    alpha, beta = pair.zx1, pair.zx0
    u_term = prefactor_exponent(r)
    pole_forms = _joint_pole_forms(
        union_pole_forms(alpha, extra=(u_term,)), union_pole_forms(beta), flip
    )
    # u and each beta coefficient, evaluated once per point: every later
    # grade's convolution re-reads them.  Keyed by (point items, grade),
    # with grade None for u.  beta is read at the flipped point, mapped
    # once per point.
    memo: dict = {}
    images: dict = {}

    def at(point: EvalPoint, grade: int | None) -> Fraction:
        items = tuple(point.items())
        key = (items, grade)
        if key not in memo:
            if grade is None:
                memo[key] = term_eval(u_term, point)
            else:
                if items not in images:
                    images[items] = map_point(point, flip)
                memo[key] = coeff_eval(beta.coefficient(grade), images[items])
        return memo[key]

    def rhs_at(grade: int):
        def value(point: EvalPoint) -> Fraction:
            j_max = (grade - frame.w1) // 4
            if j_max < 0:
                return Fraction(0)
            u = at(point, None)
            total = Fraction(0)
            rising = Fraction(1)
            for j in range(j_max + 1):
                if j > 0:
                    rising *= u + (j - 1)
                weight = Fraction((-1) ** (j * r), factorial(j)) * rising
                total += weight * at(point, grade - 4 * j)
            return total

        return value

    rows = [(g, {}, (alpha.coefficient(g), None), rhs_at(g)) for g in alpha.grades()]
    return _run_check("must", frame, k, max4n, cfg, rows, pole_forms)
