"""Series assembly: the three partition functions, prefactor, products."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nekrasov import exact, localization, series, verify
from nekrasov.diagrams import FixedPointX1, FrameData, HalfInt, enum_fixed_points_x0, enum_fixed_points_x1
from nekrasov.exact import (
    EPS1,
    EPS2,
    FactoredTerm,
    Kernel,
    clear_of,
    coeff_eval,
    factored_term,
    linear_form,
    scope_vars,
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
    rule_negate_eps,
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
    sample_points,
)
from whole_fixed_point import (
    expanded_terms,
    factored,
    merged,
    reference_chart,
    reference_map_point,
    reference_negate_eps,
    reference_term_p2,
    reference_term_x0,
    reference_term_x1,
    series_pole_forms,
    series_values,
    substitute,
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
    # zx0 is compiled as it is built: its values are read by its kernel
    def test_base_grade_is_one(self):
        series = series_zx0(FrameData(1, 0), H(0), 8)
        for p in POINTS:
            assert series_values(series, p)[0] == 1

    def test_grade_four_closed_form(self):
        series = series_zx0(FrameData(1, 0), H(0), 8)
        for p in POINTS:
            expected = matter_values(p, p[var_a(1)]) / (2 * p[EPS1] * p[EPS2])
            assert series_values(series, p)[4] == expected

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
        chart = rule_chart(1, (0,))
        for p in POINTS:
            expected = matter_values(p, p[var_a(1)]) / (
                2 * p[EPS1] * (p[EPS2] - p[EPS1])
            )
            assert coeff_eval(series.coefficient(4), map_point(p, chart)) == expected


class TestPrefactor:
    """main's k >= 0 prefactor and must's weights are one numeric side:
    series_prefactor's polynomials in u, summed at u's value."""

    def test_grades_hold_polynomials_in_u(self):
        # binom(u, j) at r = 1: 1, u, u(u - 1)/2
        half = Fraction(1, 2)
        assert series_prefactor(1, +1, 2).coeffs == {
            0: ((0, 1),), 4: ((1, 1),), 8: ((1, -half), (2, half))
        }
        # binom(-u, j) (-1)^j at r = 2: 1, u, u(u + 1)/2
        assert series_prefactor(2, -1, 2).coeffs == {
            0: ((0, 1),), 4: ((1, 1),), 8: ((1, half), (2, half))
        }
        with pytest.raises(ValueError):
            series_prefactor(1, 0, 2)

    def test_grade_zero_is_one(self):
        side = verify._prefactor(1, +1, 2)
        for p in POINTS:
            assert side(p)[0] == 1

    def test_rank_one_grade_four_is_u(self):
        side = verify._prefactor(1, +1, 2)
        for p in POINTS:
            assert side(p)[4] == u_value(p)

    def test_rank_two_grade_eight_is_binomial(self):
        side = verify._prefactor(2, +1, 2)
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
        assert side(p)[8] == u * (u - 1) / 2

    def test_exponent_ratio_term_shape(self):
        u = prefactor_exponent(1)
        half_sum = linear_form({EPS1: Fraction(1, 2), EPS2: Fraction(1, 2)})
        assert (half_sum, 1) in u.factors
        negatives = sorted(
            str(form) for form, exp in u.factors if exp == -1
        )
        assert negatives == ["eps1", "eps2"]

    def test_opposite_signs_multiply_to_unit(self):
        prod = verify._cauchy(verify._prefactor(1, +1, 3), verify._prefactor(1, -1, 3))
        for p in POINTS:
            assert prod(p) == {0: 1, 4: 0, 8: 0, 12: 0}


class TestSeriesProduct:
    def unit_series(self, max_grade):
        coeffs = {0: ((),)}
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
        a1 = linear_form({var_a(1): 1})
        plus = QSeries({0: ((),), 4: ((factored_term([(a1, 1)]),),), 8: ()}, 8, 0)
        minus = QSeries({0: ((),), 4: ((factored_term([(-a1, 1)]),),), 8: ()}, 8, 0)
        prod = series_mul(plus, minus)
        for p in POINTS:
            a = p[var_a(1)]
            assert coeff_eval(prod.coefficient(8), p) == -a * a

    def test_associative_and_commutative_under_evaluation(self):
        a = series_zx1(FrameData(1, 0), H(0), 8)
        b = factored(series_zx0)(FrameData(1, 0), H(0), 8)  # zx0 as a series of pieces
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
        zp2 = series_zp2(1, 2)  # grades 0..8
        zx0 = series_zx0(FrameData(0, 1), H("1/2"), 9)  # grades 1, 5, 9
        prod = series_mul(zp2, zx0)
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
        kvec = (2,)  # k_1 = 1, doubled
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
        p = point(1, 2, 3, 5, 0)
        converted = map_to_imo(p, 1)
        assert converted["eps1"] == -1 and converted["eps2"] == -2
        assert converted["mu1"] == Fraction(7, 2)

    def test_zero_shift(self):
        p = point(0, 0, 3, 5, 4)
        converted = map_to_imo(p, 1)
        assert converted["mu1"] == 5 and converted["mu2"] == -4

    def test_second_block_sign_flip(self):
        p = point(1, 1, 3, 5, 0)
        converted = map_to_imo(p, 1)
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
    return (reference_term_x1(frame, FixedPointX1(kvec, empties, empties)),)


def _reference_substitute(t, rule, images):
    """term_substitute's reference for a dict rule (see reference_chart):
    every piece imaged anew, form by form."""
    return tuple(
        factored_term([(substitute(form, rule), exp) for form, exp in piece.factors]) for piece in t
    )


def _merged_coeffs(series):
    return {g: tuple((merged(t),) for t in expanded_terms(c)) for g, c in series.coeffs.items()}


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
        built = factored(_build_all)(frame, k, max4n)  # zx0's pieces through the same walk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "term_p2", lambda r, tup, table: (reference_term_p2(r, tup),))
            mp.setattr(series, "term_x0", lambda fr, fp, table: (reference_term_x0(fr, fp),))
            mp.setattr(series, "term_x1", lambda fr, fp, table: (reference_term_x1(fr, fp),))
            mp.setattr(series, "_rectangles", lambda built, sums: tuple(t for _, t in built))
            mp.setattr(series, "ell_factor", _reference_ell)
            mp.setattr(series, "rule_chart", reference_chart)
            mp.setattr(series, "term_substitute", _reference_substitute)
            reference = factored(_build_all)(frame, k, max4n)
        for name, ref in reference.items():
            merged_ref = QSeries(_merged_coeffs(ref), ref.max_grade, ref.offset)
            got, want = _merged_coeffs(built[name]), merged_ref.coeffs
            if name == "zx1":  # one term per rectangle: the same terms, by rectangle
                got, want = ({g: Counter(c) for g, c in d.items()} for d in (got, want))
            assert got == want, name
            assert set(series_pole_forms(built[name])) == set(series_pole_forms(merged_ref)), name

    def test_each_form_is_one_object_per_build(self):
        # within one build every piece holding a form holds the same
        # object; a second build shares none, so no memo outlives a build
        frame, k, max4n = FrameData(1, 2), H(0), 4 * 3 + 2
        builds = {
            "zx0": lambda: series_zx0(frame, k, max4n),
            "zx0 pieces": lambda: factored(series_zx0)(frame, k, max4n),
            "zx1": lambda: series_zx1(frame, k, max4n),
            "zp2": lambda: series_zp2(frame.r, 3),
        }

        def forms(built):
            if built.compiled is not None:  # zx0 holds its forms in its compile state
                return built.compiled.forms
            terms = [t for c in built.coeffs.values() for t in expanded_terms(c)]
            pieces = {id(piece): piece for t in terms for piece in t}
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
            # exact caches one slot per a and m index, and memoizes nothing else
            assert sorted(memos) == (["var_a", "var_m"] if module is exact else [])


# Ranks 1-3 with the max-n each reaches in a few milliseconds; at each a
# rectangle has at least two parts per side (|Y1| = |Y2| = 2 at rank 1,
# 1 and 1 above).
SUM_MAX_N = {1: 4, 2: 3, 3: 2}


def _rectangle_parts(frame, k, max4n):
    """{(grade, kvec, |Y1|): (its Y1s, its Y2s, its fixed points)}, read
    off the enumerator."""
    out = {}
    for g in range(frame.w1 % 4, max4n + 1, 4):
        for fp in enum_fixed_points_x1(frame, k, g):
            ones, twos, fps = out.setdefault((g, fp.kvec, sum(map(sum, fp.y1))), ({}, {}, []))
            ones[fp.y1] = twos[fp.y2] = None
            fps.append(fp)
    return out


class TestResolvedSums:
    """zx1 holds one term per rectangle, ell * (sum of P1) * (sum of P2),
    and zx1-fact one term per first-Chern vector and pair of plane grades,
    ell * (charted grade) * (charted grade): sums a kernel reads once per
    point.  Multiplied out (``expanded``), they are the flat terms, and
    their kernels read the same values, pole forms and degrees.  A
    rectangle whose fixed points are not every pair of its parts raises."""

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.sampled_from(FRAMES),
        doubled=st.integers(-2, 2),
        seed=st.integers(0, 2**32),
    )
    def test_kernels_equal_the_expanded_kernels(self, w, doubled, seed):
        frame = FrameData(*w)
        k, max4n = HalfInt(doubled), 4 * SUM_MAX_N[frame.r] + frame.w1
        for build in (series_zx1, series_zx1_factorized):
            coeffs = list(build(frame, k, max4n).coeffs.values())
            kernel = Kernel(coeffs)
            flat = Kernel(expanded_terms(c) for c in coeffs)
            assert set(kernel.pole_forms) == set(flat.pole_forms), build.__name__
            assert kernel.degrees == flat.degrees, build.__name__
            (point,), _ = sample_points(SampleConfig(seed, 1), kernel.pole_forms, frame.r)
            assert kernel.evaluate(point) == flat.evaluate(point), build.__name__
            if (doubled + frame.w1) % 2 == 0:
                # one term per rectangle, or per vector and pair of grades
                assert sum(map(len, coeffs)) < sum(len(expanded_terms(c)) for c in coeffs)

    @settings(max_examples=30, deadline=None)
    @given(w=st.sampled_from(FRAMES), doubled=st.integers(-2, 2), data=st.data())
    def test_a_rectangle_missing_a_fixed_point_raises(self, w, doubled, data):
        frame = FrameData(*w)
        k, max4n = HalfInt(doubled), 4 * SUM_MAX_N[frame.r] + frame.w1
        full = [
            fps for ones, twos, fps in _rectangle_parts(frame, k, max4n).values()
            if len(ones) > 1 and len(twos) > 1
        ]
        assume(full)
        dropped = data.draw(st.sampled_from(data.draw(st.sampled_from(full))), label="dropped")
        enum = series.enum_fixed_points_x1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "enum_fixed_points_x1", lambda *a: [fp for fp in enum(*a) if fp != dropped])
            with pytest.raises(ValueError, match="incomplete rectangle"):
                series_zx1(frame, k, max4n)

    def test_a_side_that_differs_from_its_kept_sum_raises(self, monkeypatch):
        # at rank 1 and grade 8 the rectangle |Y1| = 2, |Y2| = 0 has one
        # part on its second side, so dropping ((1, 1),) leaves a product;
        # grade 12 then needs both size-2 diagrams on the first side
        frame, dropped = FrameData(1, 0), FixedPointX1((0,), ((1, 1),), ((),))
        enum = series.enum_fixed_points_x1
        monkeypatch.setattr(series, "enum_fixed_points_x1", lambda *a: [fp for fp in enum(*a) if fp != dropped])
        assert series_zx1(frame, H(0), 8).coefficient(8)
        with pytest.raises(ValueError, match="incomplete rectangle side"):
            series_zx1(frame, H(0), 12)

    def test_each_side_sum_is_one_object_per_build(self):
        # (kvec, chart, size) keys one sum, held by every grade that needs
        # it; the rectangles of a grade come in the enumerator's order
        frame, k, max4n = FrameData(2, 0), H(0), 12
        built = series_zx1(frame, k, max4n)
        terms = [t for g in built.grades() for t in built.coefficient(g)]
        rectangles = _rectangle_parts(frame, k, max4n)
        assert len(terms) == len(rectangles)
        sides = {}
        for (g, kvec, j), (ones, twos, _), (ell, one, two) in zip(rectangles, rectangles.values(), terms):
            assert len(ell) == 1  # a one-term sum, spliced by the kernel
            assert (len(one), len(two)) == (len(ones), len(twos))
            rest = (g - sum(d * d for d in kvec)) // 4 - j
            sides.setdefault((kvec, 1, j), set()).add(id(one))
            sides.setdefault((kvec, 2, rest), set()).add(id(two))
        assert all(len(ids) == 1 for ids in sides.values())
        assert len(set().union(*sides.values())) == len(sides)
        assert max(len(ones) for ones, _, _ in rectangles.values()) == 10


# Ranks 1-3, k in {-1, -1/2, 0, 1/2, 1} and max-n <= 2.
RULE_GRID = [
    (w, doubled, levels) for w in FRAMES for doubled in range(-2, 3) for levels in range(3)
]


class TestIntRules:
    """Chart images and point images made with the int rules equal those
    made with the same rules written as dicts of image forms."""

    @settings(max_examples=50)
    @given(
        r=st.integers(1, 3),
        doubled=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
        values=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=11, max_size=11),
    )
    def test_map_point_equals_the_reference_point_image(self, r, doubled, values):
        kvec = tuple(doubled[:r])
        p = dict(zip(scope_vars(r), values))
        rules = [(rule_negate_eps(), reference_negate_eps())]
        rules += [(rule_chart(side, kvec), reference_chart(side, kvec)) for side in (1, 2)]
        for rule, reference in rules:
            image = map_point(p, rule)
            assert image == reference_map_point(p, reference)
            assert list(image) == list(p)

    @pytest.mark.parametrize("w, doubled, levels", RULE_GRID)
    def test_factorized_kernel_equals_the_reference_substitution(self, w, doubled, levels):
        frame = FrameData(*w)
        k, max4n = HalfInt(doubled), 4 * levels + frame.w1
        built = Kernel(series_zx1_factorized(frame, k, max4n).coeffs.values())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "rule_chart", reference_chart)
            mp.setattr(series, "term_substitute", _reference_substitute)
            reference = Kernel(series_zx1_factorized(frame, k, max4n).coeffs.values())
        assert built.forms == reference.forms
        assert built.pole_forms == reference.pole_forms
        assert built.sets == reference.sets


def zx0_kernels(frame, k, max4n):
    """zx0's kernel as `SeriesPair` makes it, from the series compiled as
    it is built, and the kernel the compile walk makes from the zx0 terms
    that `FactorTable` builds through the same slot walk."""
    built = series_zx0(frame, k, max4n)
    pieces = factored(series_zx0)(frame, k, max4n)
    assert pieces.compiled is None and built.compiled is not None
    grades = built.grades()
    return (
        Kernel(map(built.coefficient, grades), built.compiled),
        Kernel(map(pieces.coefficient, grades)),
    )


class TestZx0CompiledAsBuilt:
    """zx0 is compiled as it is built: its table makes each piece compiled,
    and its series carries the compile state its kernel is made from with
    no compile walk.  That kernel is the one the walk compiles from the
    same series built as pieces, field for field, so draws and reports
    are the same."""

    @pytest.mark.parametrize("doubled", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("w", FRAMES, ids=str)
    def test_kernel_equals_the_kernel_compiled_from_pieces(self, w, doubled):
        frame = FrameData(*w)
        for levels in range(4):
            built, walked = zx0_kernels(frame, HalfInt(doubled), 4 * levels + frame.w1)
            for field in Kernel.__slots__:
                assert getattr(built, field) == getattr(walked, field), (levels, field)

    @settings(max_examples=30, deadline=None)
    @given(
        w=st.sampled_from(FRAMES),
        doubled=st.integers(-2, 2),
        levels=st.integers(0, 2),
        values=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=11, max_size=11),
    )
    def test_values_are_the_sum_of_the_whole_fixed_point_terms(self, w, doubled, levels, values):
        frame, k = FrameData(*w), HalfInt(doubled)
        pair = SeriesPair(frame, k, 4 * levels + frame.w1)
        point = dict(zip(scope_vars(frame.r), values))
        assume(clear_of(pair.pole_forms("zx0"), point))
        expected = {}
        for g in pair.grades("zx0"):
            v0 = (g - frame.w1) // 4
            v1_doubled = 2 * v0 + frame.w1 + doubled  # v1 = v0 + w1/2 + k
            fps = () if v1_doubled % 2 else enum_fixed_points_x0(frame, v0, v1_doubled // 2)
            expected[g] = sum((term_eval((reference_term_x0(frame, fp),), point) for fp in fps), Fraction(0))
        assert pair.values("zx0", point) == expected

    @pytest.mark.parametrize("w", [(1, 0), (1, 1), (1, 2)], ids=str)
    def test_a_zx0_build_makes_no_factored_term(self, monkeypatch, w):
        # nor does its kernel run the compile walk
        made, walked = [], []
        init = FactoredTerm.__init__
        monkeypatch.setattr(
            FactoredTerm, "__init__", lambda piece, *args: made.append(piece) or init(piece, *args)
        )
        compile_sum = exact._compile_sum
        monkeypatch.setattr(exact, "_compile_sum", lambda *args: walked.append(args) or compile_sum(*args))
        frame = FrameData(*w)
        pair = SeriesPair(frame, HalfInt(frame.w1 % 2), 12 + frame.w1)
        pair.pole_forms("zx0")  # builds zx0 and makes its kernel
        assert made == [] and walked == []
        pair.pole_forms("zx1")  # the counters see what a series of pieces makes
        assert made and walked
