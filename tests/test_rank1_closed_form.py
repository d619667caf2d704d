"""Rank-1 closed forms of the plane and resolved series, as an oracle.

At rank 1 every series has a closed form in one exponent,

    C = (a1 + m1 - h)(a1 + m2 - h) / (eps1 eps2),   h = (eps1 + eps2)/2:

  * the plane series is (1 + q)^C, so its grade 4n holds binom(C, n);
  * the resolved series at first-Chern number k is
    ell(k) q^(k^2) (1 + q)^(C o chart1 + C o chart2): the line-bundle
    factor times the plane exponents at the two blow-up charts, shifted
    by the base grade 4k^2; a k of the wrong parity for w1 gives zero.

  * the orbifold series at k >= 0 is (1 + q)^(-u(p)) Zx1(-eps p), with
    u = h (2 a1 + m1 + m2)/(eps1 eps2) and Zx1 the resolved closed form
    above: main's k >= 0 branch solved for Zx0.  That identity is the
    paper's theorem, not a closed form derived here, so this part is a
    deep regression test of the orbifold enumerator and its terms, not
    independent evidence for the theorem.

The series are read through a `SeriesPair` at points drawn by hypothesis,
each pair built once per module.  The charts and ell(k) are the test
references of ``whole_fixed_point``, written from their definitions.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nekrasov.diagrams import FixedPointX1, FrameData, HalfInt
from nekrasov.exact import EPS1, EPS2, clear_of, scope_vars, term_eval, var_a, var_m
from nekrasov.verify import SeriesPair
from whole_fixed_point import reference_chart, reference_map_point, reference_term_x1

PLANE_MAX_N = 20
RESOLVED_MAX_N = 12
ORBIFOLD_MAX_N = 10


@cache
def _pair(w0: int, w1: int, k: str, max_n: int) -> SeriesPair:
    return SeriesPair(FrameData(w0, w1), HalfInt.parse(k), 4 * max_n + w1)


def binom(x: Fraction, n: int) -> Fraction:
    """x(x - 1)...(x - n + 1)/n!."""
    out = Fraction(1)
    for i in range(n):
        out = out * (x - i) / (i + 1)
    return out


def exponent(point) -> Fraction:
    """C at `point`."""
    h = (point[EPS1] + point[EPS2]) / 2
    a = point[var_a(1)]
    return (a + point[var_m(1)] - h) * (a + point[var_m(2)] - h) / (point[EPS1] * point[EPS2])


_points = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool), min_size=5, max_size=5
).map(lambda values: dict(zip(scope_vars(1), values)))


@settings(max_examples=5, deadline=None)
@given(point=_points)
def test_plane_series_is_one_plus_q_to_the_c(point):
    pair = _pair(1, 0, "0", PLANE_MAX_N)
    assume(clear_of(pair.pole_forms("zp2"), point))
    values, c = pair.values("zp2", point), exponent(point)
    assert values == {4 * n: binom(c, n) for n in range(PLANE_MAX_N + 1)}


@pytest.mark.parametrize("k", ["-1", "-1/2", "0", "1/2", "1"])
@pytest.mark.parametrize("w", [(1, 0), (0, 1)])
@settings(max_examples=4, deadline=None)
@given(point=_points)
def test_resolved_series_is_ell_times_the_charted_plane_exponents(w, k, point):
    frame, kk = FrameData(*w), HalfInt.parse(k)
    pair = _pair(*w, k, RESOLVED_MAX_N)
    assume(clear_of(pair.pole_forms("zx1"), point))
    values = pair.values("zx1", point)
    assert list(values) == list(range(w[1] % 4, 4 * RESOLVED_MAX_N + w[1] + 1, 4))
    if (kk.doubled + frame.w1) % 2:
        assert set(values.values()) == {0}
        return
    expected = resolved_closed_form(frame, kk, point, values)
    assume(expected is not None)
    assert values == expected


def resolved_closed_form(frame: FrameData, k: HalfInt, point, grades) -> dict:
    """{grade: Zx1 at `point`} from the rank-1 closed form, or None when
    a chart image of `point` has a zero eps."""
    images = [reference_map_point(point, reference_chart(side, (k.doubled,))) for side in (1, 2)]
    if not all(image[EPS1] * image[EPS2] for image in images):
        return None
    c = sum(exponent(image) for image in images)
    ell = term_eval((reference_term_x1(frame, FixedPointX1((k.doubled,), ((),), ((),))),), point)
    base = k.doubled**2
    return {g: ell * binom(c, (g - base) // 4) if g >= base else 0 for g in grades}


@pytest.mark.parametrize("w, k", [((1, 0), "0"), ((1, 0), "1"), ((0, 1), "1/2")])
@settings(max_examples=4, deadline=None)
@given(point=_points)
def test_orbifold_series_is_the_resolved_closed_form_at_minus_eps(w, k, point):
    frame, kk = FrameData(*w), HalfInt.parse(k)
    pair = _pair(*w, k, ORBIFOLD_MAX_N)
    assume(clear_of(pair.pole_forms("zx0"), point))
    values = pair.values("zx0", point)
    assert list(values) == list(range(w[1] % 4, 4 * ORBIFOLD_MAX_N + w[1] + 1, 4))
    flipped = {**point, EPS1: -point[EPS1], EPS2: -point[EPS2]}
    resolved = resolved_closed_form(frame, kk, flipped, values)
    assume(resolved is not None)
    h = (point[EPS1] + point[EPS2]) / 2
    u = h * (2 * point[var_a(1)] + point[var_m(1)] + point[var_m(2)]) / (point[EPS1] * point[EPS2])
    # (1 + q)^(-u) times the resolved series, grade by grade
    weights = [binom(-u, j) for j in range(ORBIFOLD_MAX_N + 1)]
    assert values == {
        g: sum(weights[j] * resolved[g - 4 * j] for j in range(len(weights)) if g - 4 * j in resolved)
        for g in values
    }
