"""Series assembly: the three partition functions, prefactor, products."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nekrasov import exact, localization, series, verify
from nekrasov.diagrams import FixedPointX1, FrameData, HalfInt
from nekrasov.exact import (
    EPS1,
    EPS2,
    UNIT_TERM,
    coeff_eval,
    factored_term,
    linear_form,
    term_eval,
    var_a,
    var_m,
)
from nekrasov.series import (
    QSeries,
    map_point,
    map_to_imo,
    prefactor_exponent,
    rule_chart,
    series_mul,
    series_prefactor,
    series_zp2,
    series_zx0,
    series_zx1,
    series_zx1_factorized,
)
from nekrasov.verify import (
    SampleConfig,
    SeriesPair,
    check_factorization,
    check_main,
    check_recursion_must,
    check_symmetry,
)
from whole_fixed_point import (
    merged,
    reference_term_p2,
    reference_term_x0,
    reference_term_x1,
    series_pole_forms,
)


def H(text):
    return HalfInt.parse(str(text))


def point(e1, e2, a, m1, m2):
    return {
        EPS1: Fraction(e1),
        EPS2: Fraction(e2),
        var_a(1): Fraction(a),
        var_m(1): Fraction(m1),
        var_m(2): Fraction(m2),
    }


# eps ratios are chosen so no small-integer combination a*eps1 + b*eps2
# (the only denominator forms at rank 1) can vanish
POINTS = [
    point(97, Fraction(101, 3), Fraction(7, 2), 5, -2),
    point(Fraction(89, 7), -57, 1, 0, 4),
    point(Fraction(1, 3), 9, -2, 1, 1),
]


def matter_values(p, *weights):
    half = (p[EPS1] + p[EPS2]) / 2
    total = Fraction(1)
    for f in (1, 2):
        for w in weights:
            total *= w + p[var_m(f)] - half
    return total


def u_value(p):
    return (
        (p[EPS1] + p[EPS2])
        * (2 * p[var_a(1)] + p[var_m(1)] + p[var_m(2)])
        / (2 * p[EPS1] * p[EPS2])
    )


class TestOrbifoldSeries:
    def test_base_grade_is_one(self):
        series = series_zx0(FrameData(1, 0), H(0), 8)
        for p in POINTS:
            assert coeff_eval(series.coefficient(0), p) == 1

    def test_grade_four_closed_form(self):
        series = series_zx0(FrameData(1, 0), H(0), 8)
        for p in POINTS:
            expected = matter_values(p, p[var_a(1)]) / (2 * p[EPS1] * p[EPS2])
            assert coeff_eval(series.coefficient(4), p) == expected

    def test_no_fixed_points_gives_zero(self):
        series = series_zx0(FrameData(1, 0), H(1), 8)
        assert series.coefficient(0) == ()

    def test_parity_infeasible_k_gives_zero_series(self):
        series = series_zx0(FrameData(1, 1), H(0), 9)
        assert all(series.coefficient(g) == () for g in series.grades())


class TestResolvedSeries:
    def test_base_grade_is_one(self):
        series = series_zx1(FrameData(1, 0), H(0), 8)
        for p in POINTS:
            assert coeff_eval(series.coefficient(0), p) == 1

    def test_pure_twist_grade(self):
        series = series_zx1(FrameData(1, 0), H(1), 8)
        for p in POINTS:
            expected = Fraction(1)
            for f in (1, 2):
                expected *= p[var_a(1)] + p[var_m(f)] + (p[EPS1] + p[EPS2]) / 2
            assert coeff_eval(series.coefficient(4), p) == expected

    def test_one_box_pair_sums(self):
        series = series_zx1(FrameData(1, 0), H(0), 8)
        for p in POINTS:
            expected = matter_values(p, p[var_a(1)]) / (2 * p[EPS1] * p[EPS2])
            assert coeff_eval(series.coefficient(4), p) == expected

    def test_parity_infeasible_k_gives_zero_series(self):
        series = series_zx1(FrameData(1, 1), H(1), 9)
        assert all(series.coefficient(g) == () for g in series.grades())

    def test_grade_support_matches_orbifold(self):
        for w0, w1, k in [(1, 0, "0"), (0, 1, "1/2"), (1, 1, "1/2"), (2, 0, "1")]:
            frame = FrameData(w0, w1)
            zx0 = series_zx0(frame, H(k), 8 + w1)
            zx1 = series_zx1(frame, H(k), 8 + w1)
            assert zx0.offset == zx1.offset == w1 % 4
            assert list(zx0.grades()) == list(zx1.grades())


class TestPlaneSeries:
    def test_base(self):
        series = series_zp2(1, 2)
        for p in POINTS:
            assert coeff_eval(series.coefficient(0), p) == 1

    def test_single_box(self):
        series = series_zp2(1, 2)
        for p in POINTS:
            expected = matter_values(p, p[var_a(1)]) / (p[EPS1] * p[EPS2])
            assert coeff_eval(series.coefficient(4), p) == expected

    def test_single_box_under_chart_substitution(self):
        # the plain series read at the chart-mapped point
        series = series_zp2(1, 1)
        chart = rule_chart(1, (H(0),))
        for p in POINTS:
            expected = matter_values(p, p[var_a(1)]) / (
                2 * p[EPS1] * (p[EPS2] - p[EPS1])
            )
            assert coeff_eval(series.coefficient(4), map_point(p, chart)) == expected


class TestPrefactor:
    def test_grade_zero_is_one(self):
        series = series_prefactor(1, +1, 2)
        for p in POINTS:
            assert coeff_eval(series.coefficient(0), p) == 1

    def test_rank_one_grade_four_is_u(self):
        series = series_prefactor(1, +1, 2)
        for p in POINTS:
            assert coeff_eval(series.coefficient(4), p) == u_value(p)

    def test_rank_two_grade_eight_is_binomial(self):
        series = series_prefactor(2, +1, 2)
        p = dict(POINTS[0])
        p[var_a(2)] = Fraction(11, 3)
        p[var_m(3)] = Fraction(-9, 4)
        p[var_m(4)] = Fraction(13)
        u = (
            (p[EPS1] + p[EPS2])
            * (
                2 * (p[var_a(1)] + p[var_a(2)])
                + p[var_m(1)] + p[var_m(2)] + p[var_m(3)] + p[var_m(4)]
            )
            / (2 * p[EPS1] * p[EPS2])
        )
        assert coeff_eval(series.coefficient(8), p) == u * (u - 1) / 2

    def test_exponent_ratio_term_shape(self):
        u = prefactor_exponent(1)
        assert u.scalar == Fraction(1, 2)
        negatives = sorted(
            str(form) for form, exp in u.factors if exp == -1
        )
        assert negatives == ["eps1", "eps2"]

    def test_opposite_signs_multiply_to_unit(self):
        plus = series_prefactor(1, +1, 3)
        minus = series_prefactor(1, -1, 3)
        prod = series_mul(plus, minus)
        for p in POINTS:
            assert coeff_eval(prod.coefficient(0), p) == 1
            for g in (4, 8, 12):
                assert coeff_eval(prod.coefficient(g), p) == 0


class TestSeriesProduct:
    def unit_series(self, max_grade):
        coeffs = {0: (UNIT_TERM,)}
        for g in range(4, max_grade + 1, 4):
            coeffs[g] = ()
        return QSeries(coeffs, max_grade, 0)

    def test_unit_is_neutral(self):
        series = series_zx1(FrameData(1, 0), H(0), 8)
        prod = series_mul(series, self.unit_series(8))
        for g in series.grades():
            for p in POINTS:
                assert coeff_eval(prod.coefficient(g), p) == coeff_eval(
                    series.coefficient(g), p
                )

    def test_difference_of_squares(self):
        c = factored_term(1, [(linear_form({var_a(1): 1}), 1)])
        plus = QSeries({0: (UNIT_TERM,), 4: (c,), 8: ()}, 8, 0)
        minus = QSeries(
            {0: (UNIT_TERM,), 4: (factored_term(-1, c.factors),), 8: ()}, 8, 0
        )
        prod = series_mul(plus, minus)
        for p in POINTS:
            a = p[var_a(1)]
            assert coeff_eval(prod.coefficient(8), p) == -a * a

    def test_associative_and_commutative_under_evaluation(self):
        a = series_prefactor(1, +1, 2)
        b = series_zx0(FrameData(1, 0), H(0), 8)
        c = series_zp2(1, 2)
        left = series_mul(series_mul(a, b), c)
        right = series_mul(a, series_mul(b, c))
        swapped = series_mul(series_mul(b, a), c)
        for p in POINTS:
            for g in left.grades():
                value = coeff_eval(left.coefficient(g), p)
                assert coeff_eval(right.coefficient(g), p) == value
                assert coeff_eval(swapped.coefficient(g), p) == value

    def test_offset_aware_truncation(self):
        pref = series_prefactor(1, +1, 2)  # grades 0..8
        zx0 = series_zx0(FrameData(0, 1), H("1/2"), 9)  # grades 1, 5, 9
        prod = series_mul(pref, zx0)
        assert prod.offset == 1
        assert prod.max_grade == 9
        assert list(prod.grades()) == [1, 5, 9]


class TestScaleAndShift:
    def test_factorized_slice_rebuilt_from_primitives(self):
        # one first-Chern summand of the factorization, rebuilt by hand at
        # each point: ell * Zp2(chart 1) * Zp2(chart 2), shifted up by
        # 4 sum k^2 = 4 grades
        from nekrasov.localization import ell_factor

        frame = FrameData(1, 0)
        kvec = (H(1),)
        zp2 = series_zp2(1, 1)
        ell = ell_factor(frame, kvec, localization.FactorTable())
        whole = series_zx1_factorized(frame, H(1), 8)
        for p in POINTS:
            p1 = map_point(p, rule_chart(1, kvec))
            p2 = map_point(p, rule_chart(2, kvec))
            for g in (4, 8):
                product = sum(
                    coeff_eval(zp2.coefficient(g1), p1)
                    * coeff_eval(zp2.coefficient(g - 4 - g1), p2)
                    for g1 in range(0, g - 3, 4)
                )
                assert coeff_eval(whole.coefficient(g), p) == term_eval(ell, p) * product


class TestFactorizedSeries:
    def test_lowest_grades_match_direct_sum(self):
        for w0, w1, k in [(1, 0, "0"), (1, 0, "1"), (0, 1, "1/2")]:
            frame = FrameData(w0, w1)
            direct = series_zx1(frame, H(k), 4 + w1)
            factored = series_zx1_factorized(frame, H(k), 4 + w1)
            for g in direct.grades():
                for p in POINTS:
                    assert coeff_eval(direct.coefficient(g), p) == coeff_eval(
                        factored.coefficient(g), p
                    )

    def test_plane_series_built_once(self, monkeypatch):
        # rank 2, k = 0, max4n = 8: first-Chern vectors (0,0), (1,-1) and
        # (-1,1), needing the plane series to q^2, q^0 and q^0
        from nekrasov import series

        sizes = []

        def counting(r, max_n):
            sizes.append(max_n)
            return series_zp2(r, max_n)

        monkeypatch.setattr(series, "series_zp2", counting)
        series_zx1_factorized(FrameData(2, 0), H(0), 8)
        assert sizes == [2]

    def test_base_grade_is_one(self):
        series = series_zx1_factorized(FrameData(1, 0), H(0), 8)
        for p in POINTS:
            assert coeff_eval(series.coefficient(0), p) == 1


class TestConventionMap:
    def test_basic(self):
        frame = FrameData(1, 0)
        p = point(1, 2, 3, 5, 0)
        converted = map_to_imo(p, frame)
        assert converted["eps1"] == -1 and converted["eps2"] == -2
        assert converted["mu1"] == Fraction(7, 2)

    def test_zero_shift(self):
        frame = FrameData(1, 0)
        p = point(0, 0, 3, 5, 4)
        converted = map_to_imo(p, frame)
        assert converted["mu1"] == 5 and converted["mu2"] == -4

    def test_second_block_sign_flip(self):
        frame = FrameData(1, 0)
        p = point(1, 1, 3, 5, 0)
        converted = map_to_imo(p, frame)
        assert converted["mu2"] == 1


FRAMES = [(w0, w1) for w0 in range(4) for w1 in range(4) if 1 <= w0 + w1 <= 3]


def _build_all(frame, k, max4n):
    return {
        "zp2": series_zp2(frame.r, (max4n - frame.w1) // 4),
        "zx0": series_zx0(frame, k, max4n),
        "zx1": series_zx1(frame, k, max4n),
        "zx1-fact": series_zx1_factorized(frame, k, max4n),
    }


def check_all_pass(pair):
    """Every check of `check all` passes on `pair`, at two points."""
    cfg = SampleConfig(seed=161, trials=2)
    checks = (check_main, check_factorization, check_symmetry, check_recursion_must)
    return all(check(pair, cfg).passed for check in checks)


def _reference_ell(frame, kvec, table):
    empties = ((),) * frame.r
    return reference_term_x1(frame, FixedPointX1(kvec, empties, empties))


def _reference_substitute(t, rule, images):
    return factored_term(t.scalar, [(form.substitute(rule), exp) for form, exp in t.factors])


def _merged_coeffs(series):
    return {g: tuple(map(merged, c)) for g, c in series.coeffs.items()}


class TestFactorTables:
    """Series built from per-build factor tables, each term a product of
    cached pieces, equal term for term, once each term is merged, the same
    series with every term built the whole-fixed-point way and every chart
    substituted form by form; their pole forms are the same set; and they
    leave no table behind."""

    @settings(max_examples=25, deadline=None)
    @given(
        w=st.sampled_from(FRAMES),
        doubled=st.integers(-2, 2),
        levels=st.integers(0, 2),
    )
    def test_series_equal_the_reference(self, w, doubled, levels):
        frame = FrameData(*w)
        k, max4n = HalfInt(doubled), 4 * levels + frame.w1
        built = _build_all(frame, k, max4n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "term_p2", lambda r, tup, table: reference_term_p2(r, tup))
            mp.setattr(series, "term_x0", lambda fr, fp, table: reference_term_x0(fr, fp))
            mp.setattr(series, "term_x1", lambda fr, fp, table: reference_term_x1(fr, fp))
            mp.setattr(series, "ell_factor", _reference_ell)
            mp.setattr(series, "term_substitute", _reference_substitute)
            reference = _build_all(frame, k, max4n)
        for name, ref in reference.items():
            merged_ref = dataclasses.replace(ref, coeffs=_merged_coeffs(ref))
            assert _merged_coeffs(built[name]) == merged_ref.coeffs, name
            assert set(series_pole_forms(built[name])) == set(series_pole_forms(merged_ref)), name

    def test_each_form_is_one_object_per_build(self):
        # within one build every piece holding a form holds the same
        # object; a second build shares none, so no memo outlives a build
        frame, k, max4n = FrameData(1, 2), H(0), 4 * 3 + 2
        builds = {
            "zx0": lambda: series_zx0(frame, k, max4n),
            "zx1": lambda: series_zx1(frame, k, max4n),
            "zp2": lambda: series_zp2(frame.r, 3),
        }

        def forms(built):
            pieces = {id(piece): piece for c in built.coeffs.values() for t in c for piece in t.pieces}
            return [form for piece in pieces.values() for form, _ in piece.factors]

        for name, build in builds.items():
            first, second = build(), build()
            held = forms(first)
            assert len({id(form) for form in held}) == len(set(held)), name
            assert not {id(form) for form in held} & {id(form) for form in forms(second)}, name

    def test_no_module_level_table_survives_a_build(self):
        def state(module):
            sizes = {
                name: len(value)
                for name, value in vars(module).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))
            }
            memos = [
                name
                for name, value in vars(module).items()
                if hasattr(value, "cache_info")
                and getattr(value, "__module__", None) == module.__name__
            ]
            return sizes, memos

        # a check compiles and evaluates kernels too; they die with its pair
        before = {m: state(m) for m in (localization, series, exact, verify)}
        _build_all(FrameData(1, 2), H(0), 6)
        assert check_all_pass(SeriesPair(FrameData(1, 2), H(0), 6))
        for module, (sizes, memos) in before.items():
            assert state(module) == (sizes, memos)
            # exact interns one Var per slot and index, and memoizes nothing else
            assert sorted(memos) == (["_var_of_slot", "var_a", "var_m"] if module is exact else [])
