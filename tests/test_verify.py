"""Sampling protocol, report structure, and check behavior."""

import json
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nekrasov.diagrams import FrameData, HalfInt
from nekrasov.exact import (
    EPS1,
    EPS2,
    Kernel,
    LinearForm,
    Rule,
    clear_of,
    coeff_eval,
    factored_term,
    form_image,
    linear_form,
    scope_vars,
    term_eval,
    term_mul,
    var_a,
    var_m,
    var_name,
)
from nekrasov.series import (
    QSeries,
    map_point,
    prefactor_exponent,
    rule_negate_eps,
    series_zx0,
    series_zx1,
    series_zx1_factorized,
)
from nekrasov.verify import (
    ResampleExhausted,
    SampleConfig,
    SeriesPair,
    _cauchy,
    _prefactor,
    _side,
    check_factorization,
    check_main,
    check_recursion_must,
    check_symmetry,
    sample_point_with_stats,
    sample_points,
    union_pole_forms,
)
from whole_fixed_point import (
    cleared_trap,
    coeff_degree,
    coeff_denominator_forms,
    coefficient,
    expanded_terms,
    factored,
    halved,
    merged,
    prefactor_value,
    reduced_pairs,
    reference_map_point,
    reference_prefactor,
    series_pole_forms,
)


def H(text):
    return HalfInt.parse(str(text))


CFG = SampleConfig(seed=161, trials=5)


def sample_point(cfg, trial, pole_forms, r):
    """First pole-free point of trial `trial`'s stream."""
    return sample_point_with_stats(cfg, trial, pole_forms, r)[0]


def negate_am(r):
    """The map (a, m) -> (-a, -m) on rank r's variables, as a dict rule
    for reference_map_point: an engine rule fixes every mass."""
    return {v: linear_form({v: -1}) for v in scope_vars(r)[2:]}


class TestSampler:
    def test_same_seed_and_trial_reproduce_point(self):
        a = sample_point(CFG, 2, [], 1)
        b = sample_point(CFG, 2, [], 1)
        assert a == b

    def test_distinct_trials_distinct_points(self):
        points = [sample_point(CFG, t, [], 1) for t in range(5)]
        assert len({tuple(sorted((var_name(v), p[v]) for v in p)) for p in points}) == 5

    def test_ranges(self):
        for trial in range(25):
            point = sample_point(CFG, trial, [], 2)
            for value in point.values():
                assert value != 0
                assert abs(value.numerator) <= 999  # reduction only shrinks it
                assert 1 <= value.denominator <= 32

    def test_raw_numerators_exclude_zero_so_single_vars_never_resample(self):
        eps1 = linear_form({EPS1: 1})
        for trial in range(10):
            _, redraws = sample_point_with_stats(CFG, trial, [eps1], 1)
            assert redraws == 0

    def test_config_holds_only_seed_and_trials(self):
        assert SampleConfig._fields == ("seed", "trials")

    def test_a_collision_writes_one_line_to_stderr(self, monkeypatch, capsys):
        from nekrasov import verify

        point = {EPS1: Fraction(1), EPS2: Fraction(2)}
        monkeypatch.setattr(verify, "sample_point_with_stats", lambda cfg, trial, forms, r: (dict(point), 0))
        points, resamples = sample_points(SampleConfig(seed=42, trials=2), [], 1)
        assert points == [point, point] and resamples == [0, 0]
        captured = capsys.readouterr()
        assert captured.err == "sample-point collision between trials (seed 42)\n"
        assert captured.out == ""

    def test_the_warning_fires_on_each_trial_that_repeats_an_earlier_point(self, monkeypatch, capsys):
        from nekrasov import verify

        first, second = {EPS1: Fraction(1), EPS2: Fraction(2)}, {EPS1: Fraction(2), EPS2: Fraction(1)}
        drawn = [first, second, first, dict(second), first]
        monkeypatch.setattr(verify, "sample_point_with_stats", lambda cfg, trial, forms, r: (drawn[trial], 0))
        points, _ = sample_points(SampleConfig(seed=3, trials=5), [], 1)
        assert points == drawn
        assert capsys.readouterr().err == "sample-point collision between trials (seed 3)\n" * 3

    def test_collision_test_compares_no_coordinate_pairwise(self, monkeypatch):
        # each trial's point is looked up among the earlier ones by its
        # coordinates' ints, so no Fraction is compared with another: a list
        # search would compare every new point with every earlier one
        from nekrasov import verify

        compared = []

        class Counted(Fraction):
            def __eq__(self, other):
                compared.append(other)
                return super().__eq__(other)

            __hash__ = Fraction.__hash__

        def draw(cfg, trial, forms, r):
            return {EPS1: Counted(trial + 1), EPS2: Counted(1, trial + 2)}, 0

        monkeypatch.setattr(verify, "sample_point_with_stats", draw)
        points, _ = sample_points(SampleConfig(seed=3, trials=60), [], 1)
        assert [p[EPS1] for p in points] == list(range(1, 61))
        compared.clear()  # the check above compared
        sample_points(SampleConfig(seed=3, trials=60), [], 1)
        assert compared == []

    def test_sample_points_is_one_point_per_trial(self):
        trap = linear_form({EPS1: 231, EPS2: 80})
        points, resamples = sample_points(CFG, [trap], 1)
        expected = [sample_point_with_stats(CFG, t, [trap], 1) for t in range(CFG.trials)]
        assert list(zip(points, resamples)) == expected
        assert resamples[0] >= 1

    def test_resample_exhausted_on_unsatisfiable_pole(self):
        with pytest.raises(ResampleExhausted):
            sample_point(CFG, 0, [linear_form({})], 1)

    def test_pole_hit_triggers_redraw(self):
        # 231*eps1 + 80*eps2 vanishes on trial 0's first draw for seed 161
        # (eps1 = 240/7, eps2 = -99), so the whole point must be redrawn
        trap = linear_form({EPS1: 231, EPS2: 80})
        point, redraws = sample_point_with_stats(CFG, 0, [trap], 1)
        assert redraws >= 1
        assert trap.evaluate(point) != 0
        clean = sample_point(CFG, 0, [], 1)
        assert point != clean

    def test_traps_with_fractional_coefficients_force_redraws(self):
        # Each trap vanishes on one draw of trial 0 and is half a form
        # cleared of denominators, with an odd coefficient, so it has
        # denominator 2 and the pole test must read the form's doubled
        # numerators and the point's values together: the first two draws
        # are rejected, the third kept.
        def trap_at(point):
            return halved(cleared_trap({EPS1: Fraction(1, 2), var_a(1): Fraction(-3, 2)}, EPS2, point))

        first = sample_point(CFG, 0, [], 1)
        trap0 = trap_at(first)
        assert trap0.evaluate(first) == 0
        second, redraws = sample_point_with_stats(CFG, 0, [trap0], 1)
        assert redraws == 1 and reduced_pairs(trap0)[1] == 2
        trap1 = trap_at(second)
        third, redraws = sample_point_with_stats(CFG, 0, [trap0, trap1], 1)
        assert redraws == 2
        assert trap0.evaluate(third) != 0 and trap1.evaluate(third) != 0
        assert len({tuple(p.values()) for p in (first, second, third)}) == 3


class TestReports:
    def test_trivial_grade_zero(self):
        rep = check_main(SeriesPair(FrameData(1, 0), H(0), 0), CFG)
        assert rep.passed
        assert [g.grade4n for g in rep.grades] == [0, 0]  # both branches at k = 0

    def test_k_negative_uses_plain_branch(self):
        rep = check_main(SeriesPair(FrameData(1, 0), H(-1), 8), CFG)
        assert rep.passed
        assert {g.tags["branch"] for g in rep.grades} == {"k<=0"}

    def test_json_schema_field_names(self):
        rep = check_main(SeriesPair(FrameData(1, 0), H(0), 8), CFG)
        d = rep.to_dict()
        assert list(d.keys()) == [
            "check", "w", "k", "max_4n", "seed", "trials",
            "points", "resamples", "grades", "pass",
        ]
        assert d["check"] == "main"
        assert d["w"] == [1, 0]
        assert d["k"] == "0"
        assert d["max_4n"] == 8
        assert d["seed"] == 161 and d["trials"] == 5
        assert len(d["points"]) == 5
        assert all(set(p) == {"eps1", "eps2", "a1", "m1", "m2"} for p in d["points"])
        for record in d["grades"]:
            assert set(record) == {"grade4n", "branch", "trials"}
            for trial in record["trials"]:
                assert list(trial.keys()) == ["lhs", "rhs", "equal"]
                assert trial["equal"] is True
        assert d["pass"] is True

    def test_reports_reproducible(self):
        first = json.dumps(check_factorization(SeriesPair(FrameData(1, 0), H(1), 8), CFG).to_dict())
        second = json.dumps(check_factorization(SeriesPair(FrameData(1, 0), H(1), 8), CFG).to_dict())
        assert first == second

    def test_symmetry_covers_both_spaces(self):
        rep = check_symmetry(SeriesPair(FrameData(1, 0), H(0), 8), CFG)
        assert rep.passed
        assert {g.tags["kappa"] for g in rep.grades} == {0, 1}

    def test_must_requires_nonnegative_k(self, monkeypatch):
        # refused before any series is built
        calls = count_builds(monkeypatch)
        with pytest.raises(ValueError):
            check_recursion_must(SeriesPair(FrameData(1, 0), H(-1), 8), CFG)
        assert calls == builds()

    def test_must_evaluates_each_coefficient_once_per_point(self, monkeypatch):
        # alpha has grades 0, 4, ..., 32 and the convolution reads beta at
        # the same 9 grades: (9 + 9) x 10 trials.  Re-reading beta at every
        # later grade instead would make it (9 + 45) x 10 = 540.
        reads = record_kernel_reads(monkeypatch)
        cfg = SampleConfig(seed=161, trials=10)
        rep = check_recursion_must(SeriesPair(FrameData(1, 0), H(1), 32), cfg)
        assert rep.passed
        assert len(rep.grades) == 9
        assert len(reads) == (9 + 9) * 10

    @pytest.mark.parametrize("frame, k", [(FrameData(1, 0), H(0)), (FrameData(1, 1), H("1/2"))])
    def test_main_at_nonnegative_k_never_multiplies_series(self, monkeypatch, frame, k):
        # the prefactor is convolved with the orbifold values numerically
        from nekrasov import series, verify

        def refuse(*args):
            raise AssertionError("series_mul called")

        monkeypatch.setattr(series, "series_mul", refuse)
        monkeypatch.setattr(verify, "series_mul", refuse, raising=False)
        rep = check_main(SeriesPair(frame, k, 9), CFG)
        assert rep.passed
        assert "k>=0" in {g.tags["branch"] for g in rep.grades}

    def test_parity_infeasible_inputs_compare_zero_series(self):
        rep = check_main(SeriesPair(FrameData(1, 1), H(0), 9), CFG)
        assert rep.passed
        for record in rep.grades:
            assert all(lhs == rhs == 0 for lhs, rhs in record.values)


class TestPrefactorSide:
    """main's k >= 0 prefactor and must's weights are one numeric side,
    (1 - (-1)^r q)^(+-u): at sampled points its grades are the
    coefficients of the symbolic reference series."""

    @pytest.mark.parametrize("max_n", [0, 1, 3, 6, 8])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_values_are_the_reference_coefficients(self, r, sign, max_n):
        reference, side = reference_prefactor(r, sign, max_n), _prefactor(r, sign, max_n)
        for trial in range(3):
            p = sample_point(CFG, trial, side.forms, r)
            values = side(p)
            assert list(values) == list(reference.grades())
            for g, value in values.items():
                assert value == prefactor_value(reference.coefficient(g), p)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_must_weights_are_rising_factorials(self, r):
        # (1 - (-1)^r q)^(-u) at p is (1 - (-1)^r q)^u at -(a, m) p, and
        # its grade 4j is (-1)^(j r) u(u+1)...(u+j-1)/j!
        max_n = 6
        minus, plus = _prefactor(r, -1, max_n), _prefactor(r, +1, max_n)
        for trial in range(3):
            p = sample_point(CFG, trial, [], r)
            weights, u, w = minus(p), term_eval((prefactor_exponent(r),), p), Fraction(1)
            assert weights == plus(reference_map_point(p, negate_am(r)))
            for j in range(max_n + 1):
                assert weights[4 * j] == w
                w *= (-1) ** r * (u + j) / (j + 1)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_opposite_signs_convolve_to_one(self, r):
        max_n = 6
        prod = _cauchy(_prefactor(r, +1, max_n), _prefactor(r, -1, max_n))
        for trial in range(3):
            p = sample_point(CFG, trial, prod.forms, r)
            assert prod(p) == {4 * j: int(j == 0) for j in range(max_n + 1)}

    @staticmethod
    def _check_int_sides(r, sign, max_n, grades, point):
        # _prefactor against the symbolic reference, and _cauchy of it with
        # a side of arbitrary values against a Fraction Cauchy product
        weights = _prefactor(r, sign, max_n)
        assert clear_of(weights.forms, point)
        reference = reference_prefactor(r, sign, max_n)
        expected_weights = {g: prefactor_value(reference.coefficient(g), point) for g in reference.grades()}
        assert weights(point) == expected_weights
        side = _side(lambda p: grades, [])
        expected = {
            g: sum((w * grades[g - j] for j, w in expected_weights.items() if g - j in grades), Fraction(0))
            for g in grades
        }
        assert _cauchy(weights, side)(point) == expected

    @settings(max_examples=80, deadline=None)
    @given(
        r=st.integers(1, 4),
        sign=st.sampled_from([1, -1]),
        max_n=st.integers(0, 8),
        values=st.lists(st.fractions(max_denominator=10**12), min_size=1, max_size=12),
        offset=st.integers(0, 3),
        coords=st.lists(st.fractions(max_denominator=10**9), min_size=14, max_size=14),
    )
    def test_int_sides_equal_the_fraction_reference(self, r, sign, max_n, values, offset, coords):
        point = dict(zip(scope_vars(r), coords))
        assume(point[EPS1] and point[EPS2])  # u's denominator forms
        grades = {offset + 4 * n: value for n, value in enumerate(values)}
        self._check_int_sides(r, sign, max_n, grades, point)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("r", [1, 2])
    def test_int_sides_at_a_u_of_large_denominator(self, r, sign):
        coords = [Fraction(10**9 + 7, 999_999_937), Fraction(-(10**9 + 9), 999_999_929)]
        point = dict(zip(scope_vars(r), coords + [Fraction(7, 5)] * 3 * r))
        assert term_eval((prefactor_exponent(r),), point).denominator > 10**17
        grades = {2 + 4 * n: Fraction(n - 3, 10**12 + n) for n in range(10)}
        self._check_int_sides(r, sign, 8, grades, point)

    @pytest.mark.parametrize("max_n", [0, 2])
    def test_forms_are_the_denominator_forms_of_u(self, max_n):
        # also at max_n 0, where every grade above 0 is truncated away: a
        # draw never zeroes a lone coordinate, so this changes no draw
        eps = {linear_form({EPS1: 1}), linear_form({EPS2: 1})}
        assert set(_prefactor(1, +1, max_n).forms) == eps
        # in u's factor order, as a kernel compiled from u listed them
        assert _prefactor(1, +1, max_n).forms == [linear_form({EPS2: 1}), linear_form({EPS1: 1})]
        assert Kernel([((prefactor_exponent(1),),)]).pole_forms == _prefactor(1, +1, max_n).forms


class TestSensitivity:
    """A single perturbed factor must flip at least one comparison.  The
    perturbed term is the canonical merge of a product term."""

    def _points(self, lhs, rhs):
        forms = series_pole_forms(lhs, rhs)
        return [sample_point(CFG, t, forms, 1) for t in range(CFG.trials)]

    def test_exponent_perturbation_detected(self):
        frame = FrameData(1, 0)
        lhs = series_zx1(frame, H(0), 8)
        rhs = series_zx1_factorized(frame, H(0), 8)
        target = expanded_terms(lhs.coefficient(8))
        term = merged(target[0])
        form, exp = term.factors[0]
        tampered_term = (factored_term(((form, exp + 1),) + term.factors[1:]),)
        tampered = (tampered_term,) + target[1:]
        for point in self._points(lhs, rhs):
            clean = coeff_eval(target, point)
            assert clean == coeff_eval(rhs.coefficient(8), point)
        mismatches = sum(
            coeff_eval(tampered, point) != coeff_eval(rhs.coefficient(8), point)
            for point in self._points(lhs, rhs)
        )
        assert mismatches == CFG.trials

    def test_scalar_perturbation_detected(self):
        frame = FrameData(1, 0)
        lhs = series_zx1(frame, H(1), 8)
        rhs = series_zx1_factorized(frame, H(1), 8)
        target = expanded_terms(lhs.coefficient(4))
        # the scalar 2 as the piece (2 eps1) / eps1
        two = factored_term([(linear_form({EPS1: 2}), 1), (linear_form({EPS1: 1}), -1)])
        tampered = (target[0] + (two,),) + target[1:]
        mismatches = sum(
            coeff_eval(tampered, point) != coeff_eval(rhs.coefficient(4), point)
            for point in self._points(lhs, rhs)
        )
        assert mismatches == CFG.trials


class TestZeroKBranchGuard:
    """At k = 0 the two branches are genuinely different routes: the bare
    orbifold series and its eps-flip differ above the base grade exactly
    when the prefactor tail is nonzero at the point."""

    def test_branch_difference_is_prefactor_tail(self):
        # the eps-flipped orbifold series is the plain one read at -eps
        frame = FrameData(1, 0)
        flip = rule_negate_eps()
        plain = SeriesPair(frame, H(0), 8)  # zx0 is read through its kernel
        pref = reference_prefactor(frame.r, +1, 2)
        u_piece = prefactor_exponent(frame.r)
        forms = plain.pole_forms("zx0") + coeff_denominator_forms(((u_piece,),))
        forms += [form_image(form, flip) for form in plain.pole_forms("zx0")]
        for trial in range(CFG.trials):
            p = sample_point(CFG, trial, forms, frame.r)
            q = map_point(p, flip)
            u = term_eval((u_piece,), p)
            at_p, at_q = plain.values("zx0", p), plain.values("zx0", q)
            a0, a4, b4 = at_p[0], at_p[4], at_q[4]
            assert b4 - a4 == u * a0
            assert (b4 != a4) == (u != 0)
            # both branch right sides agree wherever the identity holds
            for g in (0, 4, 8):
                rhs_ge = sum(
                    prefactor_value(pref.coefficient(j), p) * at_p[g - j]
                    for j in range(0, g + 1, 4)
                )
                assert rhs_ge == at_q[g]


# The builder of each series a SeriesPair holds, by series name.
BUILDERS = {
    "zx0": "series_zx0",
    "zx1": "series_zx1",
    "zx1-fact": "series_zx1_factorized",
    "zp2": "series_zp2",
}


def count_builds(monkeypatch):
    """Count the series builds the checks and `compute` make from here on,
    by series name."""
    from nekrasov import verify

    calls = dict.fromkeys(BUILDERS, 0)

    def counting(name, build):
        def wrapper(*args):
            calls[name] += 1
            return build(*args)

        return wrapper

    for name, builder in BUILDERS.items():
        monkeypatch.setattr(verify, builder, counting(name, getattr(verify, builder)))
    return calls


def count_prefactors(monkeypatch) -> list:
    """Record, from here on, the sign of each prefactor side built."""
    from nekrasov import verify

    signs, build = [], verify.series_prefactor

    def recording(r, sign, max_n):
        signs.append(sign)
        return build(r, sign, max_n)

    monkeypatch.setattr(verify, "series_prefactor", recording)
    return signs


def builds(*names):
    """The build counts of a run that builds each of `names` once."""
    return {name: int(name in names) for name in BUILDERS}


def record_kernel_reads(monkeypatch) -> list:
    """Record, from here on, one (coefficient, image values) entry for each
    coefficient that a kernel compiled by a SeriesPair evaluates."""
    from nekrasov import verify

    compiled, reads = {}, []
    evaluate = Kernel.evaluate

    def compiling(coefficients, state=None):
        coefficients = list(coefficients)
        kernel = Kernel(coefficients, state)
        compiled[kernel] = coefficients
        return kernel

    def recording(kernel, point):
        image = tuple(point.values())
        reads.extend((c, image) for c in compiled.get(kernel, ()))
        return evaluate(kernel, point)

    monkeypatch.setattr(verify, "Kernel", compiling)
    monkeypatch.setattr(Kernel, "evaluate", recording)
    return reads


class TestFlippedSides:
    """Flipped sides are plain series read at the flipped point: each check
    builds each series once, and poles of a flipped side are rejected at
    the point that is actually drawn."""

    def test_symmetry_builds_each_series_once(self, monkeypatch):
        calls = count_builds(monkeypatch)
        assert check_symmetry(SeriesPair(FrameData(1, 0), H(0), 8), CFG).passed
        assert calls == builds("zx0", "zx1")

    def test_main_at_zero_k_shares_one_orbifold_series(self, monkeypatch):
        calls = count_builds(monkeypatch)
        rep = check_main(SeriesPair(FrameData(1, 0), H(0), 8), CFG)
        assert rep.passed
        assert {g.tags["branch"] for g in rep.grades} == {"k>=0", "k<=0"}
        assert calls == builds("zx0", "zx1")

    def test_pole_of_flipped_side_forces_a_redraw(self, monkeypatch):
        # A rank-2 resolved-side denominator form mixing eps and a, zeroed
        # at the -eps image of the first draw by solving for a1.  The form
        # itself is nonzero at the drawn point, and no other zero locus of
        # either series (plain or flipped) passes through it.  At k < 0
        # both sides are flipped, so every pole form comes from a flip.
        from nekrasov import verify

        frame, k, max4n = FrameData(2, 0), H(-1), 4
        flip = rule_negate_eps()
        zx1 = series_zx1(frame, k, max4n)
        target = next(
            form
            for form in series_pole_forms(zx1)
            if coefficient(form, var_a(1)) != 0
            and (coefficient(form, EPS1) != 0 or coefficient(form, EPS2) != 0)
        )
        point = sample_point(CFG, 0, [], frame.r)
        image = map_point(point, flip)
        image[var_a(1)] -= target.evaluate(image) / coefficient(target, var_a(1))
        trap = map_point(image, flip)
        hit = form_image(target, flip)
        assert hit.evaluate(trap) == 0 and target.evaluate(trap) != 0
        forms = series_pole_forms(zx1) + SeriesPair(frame, k, max4n).pole_forms("zx0")
        loci = forms + [form_image(form, flip) for form in forms]
        assert {form for form in loci if form.evaluate(trap) == 0} <= {hit, -hit}

        draws = []
        draw = verify._draw_point

        def trapped(stream, r):
            draws.append(None)
            return dict(trap) if len(draws) == 1 else draw(stream, r)

        monkeypatch.setattr(verify, "_draw_point", trapped)
        rep = check_main(SeriesPair(frame, k, max4n), CFG)
        assert rep.passed
        assert rep.resamples[0] == 1
        assert rep.points[0] == point


class TestSeriesPair:
    """A check is a function of its SeriesPair, which holds the request:
    one pair shared by several checks builds each series once, and a fresh
    pair per check gives the same reports."""

    CHECKS = (check_main, check_factorization, check_symmetry, check_recursion_must)

    def test_shared_pair_builds_each_series_once_with_the_same_reports(
        self, monkeypatch
    ):
        frame, k, max4n = FrameData(1, 1), H("1/2"), 5
        alone = [check(SeriesPair(frame, k, max4n), CFG).to_dict() for check in self.CHECKS]
        calls = count_builds(monkeypatch)
        pair = SeriesPair(frame, k, max4n)
        shared = [check(pair, CFG).to_dict() for check in self.CHECKS]
        assert calls == builds("zx0", "zx1", "zx1-fact")
        assert shared == alone

    def test_series_are_built_on_first_use(self, monkeypatch):
        calls = count_builds(monkeypatch)
        pair = SeriesPair(FrameData(1, 0), H(0), 4)
        assert calls == builds()
        assert check_factorization(pair, CFG).passed
        assert calls == builds("zx1", "zx1-fact")

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize(
        "frame, k, max4n",
        [(FrameData(2, 0), H(0), 4), (FrameData(1, 1), H("1/2"), 5), (FrameData(1, 0), H(1), 8)],
    )
    def test_report_states_the_pairs_request(self, check, frame, k, max4n):
        d = check(SeriesPair(frame, k, max4n), CFG).to_dict()
        assert (d["w"], d["k"], d["max_4n"]) == ([frame.w0, frame.w1], str(k), max4n)

    @pytest.mark.parametrize("w0, w1, k", [(1, 0, "0"), (1, 1, "1/2"), (2, 0, "1")])
    def test_check_all_builds_each_series_once(self, monkeypatch, capsys, w0, w1, k):
        from nekrasov.cli import main

        calls, signs = count_builds(monkeypatch), count_prefactors(monkeypatch)
        argv = ["check", "all", "--w0", str(w0), "--w1", str(w1), "--k", k,
                "--max-n", "1", "--trials", "2", "--json"]
        assert main(argv) == 0
        checks = [report["check"] for report in json.loads(capsys.readouterr().out)]
        assert checks == ["main", "mult", "symmetry", "must"]
        assert calls == builds("zx0", "zx1", "zx1-fact")
        assert signs == [1, -1]  # main's prefactor, then must's weights

    def test_check_all_at_negative_k_builds_no_prefactor(self, monkeypatch, capsys):
        from nekrasov.cli import main

        calls, signs = count_builds(monkeypatch), count_prefactors(monkeypatch)
        argv = ["check", "all", "--w0", "1", "--w1", "1", "--k=-1/2",
                "--max-n", "1", "--trials", "2", "--json"]
        assert main(argv) == 0
        checks = [report["check"] for report in json.loads(capsys.readouterr().out)]
        assert checks == ["main", "mult", "symmetry"]
        assert calls == builds("zx0", "zx1", "zx1-fact")
        assert signs == []

    @pytest.mark.parametrize("target", ["zx0", "zx1", "zp2", "zx1-fact"])
    def test_compute_builds_only_its_series(self, monkeypatch, capsys, target):
        from nekrasov.cli import main

        calls = count_builds(monkeypatch)
        argv = ["compute", target, "--w0", "1", "--w1", "1", "--k", "1/2",
                "--max-n", "1", "--trials", "2", "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["series"] == target
        assert calls == builds(target)

    def test_unknown_series_name_is_refused(self):
        pair = SeriesPair(FrameData(1, 0), H(0), 4)
        with pytest.raises(ValueError):
            pair.series("zx2")


# A rank-r frame for each parity of 2k: k is feasible when w1 = 2k mod 2.
FRAMES = {
    (1, 0): FrameData(1, 0), (1, 1): FrameData(0, 1),
    (2, 0): FrameData(2, 0), (2, 1): FrameData(1, 1),
    (3, 0): FrameData(1, 2), (3, 1): FrameData(2, 1),
    (4, 0): FrameData(2, 2), (4, 1): FrameData(3, 1),
}
RANKS = [1, 2, 3, 4]
KS = ["-1", "-1/2", "0", "1/2", "1", "2"]
# max-n per rank: every (rank, k) above has nonempty coefficients
MAX_N = {1: 4, 2: 2, 3: 1, 4: 1}


class TestHomogeneity:
    """Every coefficient of zx0 and zx1 has one even total degree, so
    symmetry and must never need to evaluate at a negated point."""

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("r", RANKS)
    def test_every_coefficient_has_one_even_degree(self, r, k):
        frame = FRAMES[r, H(k).doubled % 2]
        pair = SeriesPair(frame, H(k), 4 * MAX_N[r] + frame.w1)
        for name in ("zx0", "zx1"):
            series = pair.series(name)
            degrees = {
                d for g, d in pair.degrees(name).items() if series.coefficient(g)
            }
            assert len(degrees) == 1 and None not in degrees, name
            assert degrees.pop() % 2 == 0, name


def reference_value(c, point):
    """sum of prod form(point)^exp over the canonical merges of the terms
    of `c`, term by term in Fraction."""
    total = Fraction(0)
    for t in map(merged, expanded_terms(c)):
        value = Fraction(1)
        for form, exp in t.factors:
            value *= form.evaluate(point) ** exp
        total += value
    return total


class TestSeriesKernels:
    """A pair reads every series through one compiled kernel; its values
    are the term-by-term Fraction sums of the merged terms."""

    @pytest.mark.parametrize("name", ["zx0", "zx1", "zx1-fact", "zp2"])
    @pytest.mark.parametrize("k", ["-1/2", "0", "1/2", "1"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_values_equal_the_term_by_term_sum(self, r, k, name):
        frame = FRAMES[r, H(k).doubled % 2]
        pair = SeriesPair(frame, H(k), 4 * MAX_N[r] + frame.w1)
        series = factored(pair.series)(name)  # zx0's terms as pieces, through the same walk
        assert any(series.coefficient(g) for g in series.grades() if g)
        points, _ = sample_points(SampleConfig(seed=7, trials=2), pair.pole_forms(name), r)
        for point in points:
            expected = {g: reference_value(series.coefficient(g), point) for g in series.grades()}
            assert pair.values(name, point) == expected


# (eps1, eps2) -> (eps2, eps1), every other variable fixed
EXCHANGE = Rule(((0, 1), (1, 0)), (0, 0), ())


@cache
def exchange_pair(r, k):
    """The pair of the rank-r frame at k, to MAX_N[r]; built once per
    module, so every example shares its kernels."""
    frame = FRAMES[r, H(k).doubled % 2]
    return SeriesPair(frame, H(k), 4 * MAX_N[r] + frame.w1)


class TestEpsExchange:
    """A fifth, test-only identity: every series reads equal values at p
    and at p with eps1 and eps2 exchanged.  It rests on no theorem -- the
    paper states no such symmetry, and it is only observed to hold -- so
    a failure here says the engine changed, and need not mean it is
    wrong.  It does see a mass shift that favours one eps, such as every
    m_f -> m_f + eps1 or m_1 alone, which main, mult and must also
    catch."""

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.sampled_from([1, 2, 3]),
        k=st.sampled_from(["-1", "-1/2", "0", "1/2", "1"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_series_reads_the_same_at_the_exchanged_point(self, r, k, seed):
        pair = exchange_pair(r, k)
        names = ("zx0", "zx1", "zx1-fact", "zp2")
        forms = [f for name in names for rule in (None, EXCHANGE) for f in pair.pole_forms(name, rule)]
        (point,), _ = sample_points(SampleConfig(seed=seed, trials=1), union_pole_forms(forms), r)
        for name in names:
            values = pair.values(name, point)
            assert any(values.values()), name
            assert pair.values(name, map_point(point, EXCHANGE)) == values, name


@cache
def series_kernels(r, k):
    """{name: compiled kernel} of every series of the rank-r frame at k,
    to MAX_N[r]; built once per module."""
    frame = FRAMES[r, H(k).doubled % 2]
    pair = SeriesPair(frame, H(k), 4 * MAX_N[r] + frame.w1)
    return {name: pair._compile(name)[1] for name in ("zx0", "zx1", "zx1-fact", "zp2")}


class TestFrameParts:
    """Every form a series' kernel reads is p eps1 + q eps2 plus a frame
    part: nothing, a_beta - a_alpha, or the mass shift a_alpha + m_f, each
    held as doubled numerators over the denominator 2 every form has.  So
    a rank-r kernel has at most 1 + r(r - 1) + 2r^2 frame parts, however
    many forms it holds, and evaluates one dot product per frame part."""

    @pytest.mark.parametrize("k", ["-1/2", "0", "1/2", "1"])
    @pytest.mark.parametrize("r", RANKS)
    def test_every_frame_part_is_empty_an_a_difference_or_a_mass_shift(self, r, k):
        a, m = [var_a(i) for i in range(1, r + 1)], [var_m(f) for f in range(1, 2 * r + 1)]
        allowed = {()}
        allowed |= {tuple(sorted([(beta, 2), (alpha, -2)])) for alpha in a for beta in a if alpha != beta}
        allowed |= {((alpha, 2), (f, 2)) for alpha in a for f in m}
        assert len(allowed) == 3 * r * r - r + 1
        for name, kernel in series_kernels(r, k).items():
            assert len(set(kernel.frames)) == len(kernel.frames), name
            assert set(kernel.frames) <= allowed, name


class TestFormRoundTrip:
    """Every form of every series kernel at ranks 1-4 round-trips: its
    kernel row (p, q, frame index) is the form, its (variable, Fraction)
    coefficients rebuild it through linear_form with the same hash, and
    its value at a point, and its row's over 2, are the Fraction sum of
    those coefficients times the point's values."""

    @pytest.mark.parametrize("k", ["-1/2", "0", "1/2", "1"])
    @pytest.mark.parametrize("r", RANKS)
    @settings(max_examples=3, deadline=None)
    @given(values=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=40), min_size=14, max_size=14))
    def test_rows_coefficients_and_values_round_trip(self, r, k, values):
        scope = scope_vars(r)
        point = dict(zip(scope, values))
        for name, kernel in series_kernels(r, k).items():
            for form, (p, q, i) in zip(kernel.forms, kernel._rows):
                assert LinearForm(p, q, kernel.frames[i]) == form, name
                rebuilt = linear_form(dict(form.coeffs))
                assert rebuilt == form and hash(rebuilt) == hash(form), name
                expected = sum((coefficient(form, v) * point[v] for v in scope), Fraction(0))
                assert form.evaluate(point) == expected, name
                row = p * point[EPS1] + q * point[EPS2] + sum(n * point[s] for s, n in kernel.frames[i])
                assert row / 2 == expected, name


class TestPieceReads:
    """A pair reads pole forms, degrees and values off each series'
    distinct pieces, never off a merged term, and gets what the merged
    terms give.  No form cancels between a term's pieces: every matter
    form carries a mass with coefficient 1, and no tangent form carries
    one."""

    @pytest.mark.parametrize("name", ["zx0", "zx1", "zx1-fact", "zp2"])
    @pytest.mark.parametrize("k", ["-1/2", "0", "1/2", "1"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_pole_forms_and_degrees_equal_those_of_the_merged_terms(self, r, k, name):
        frame = FRAMES[r, H(k).doubled % 2]
        pair = SeriesPair(frame, H(k), 4 * MAX_N[r] + frame.w1)
        series = factored(pair.series)(name)  # zx0's terms as pieces, through the same walk
        merged_series = QSeries(
            {g: tuple((merged(t),) for t in expanded_terms(c)) for g, c in series.coeffs.items()},
            series.max_grade,
            series.offset,
        )
        assert set(pair.pole_forms(name)) == set(series_pole_forms(merged_series))
        assert pair.pole_forms(name) == series_pole_forms(series)
        assert len(pair.pole_forms(name)) == len(set(pair.pole_forms(name)))
        assert pair.degrees(name) == {
            g: coeff_degree(merged_series.coefficient(g)) for g in series.grades()
        }
        assert pair.degrees(name) == {
            g: coeff_degree(series.coefficient(g)) for g in series.grades()
        }

    def test_kernel_compiles_and_evaluates_each_distinct_piece_once(self, monkeypatch):
        # zx0 at w = (1,2), k = 0, max-n 4: 1188 terms hold 11,210 piece
        # references to 3114 distinct pieces, which have 15,420 factors
        # (a diagonal slot pair's piece serves every slot of its diagram);
        # merged, the terms have 51,824 factor occurrences
        from nekrasov import exact, localization

        pair = SeriesPair(FrameData(1, 2), H(0), 18)
        series = factored(pair.series)("zx0")  # zx0's terms as pieces, through the same walk
        terms = [t for g in series.grades() for t in series.coefficient(g)]
        pieces = {id(piece): piece for t in terms for piece in t}
        assert (len(terms), sum(map(len, terms)), len(pieces)) == (1188, 11210, 3114)
        assert sum(len(merged(t).factors) for t in terms) == 51824

        compiled, made = [], []
        compile_piece = exact._compile_piece

        def compiling(piece, *state):
            compiled.append(piece)
            return compile_piece(piece, *state)

        monkeypatch.setattr(exact, "_compile_piece", compiling)
        # the compile walk over the terms: one form-slot lookup per factor
        # of each distinct piece
        Kernel(map(series.coefficient, series.grades()))
        assert len({id(piece) for piece in compiled}) == len(compiled) == len(pieces)
        assert sum(len(piece.factors) for piece in compiled) == 15420
        # zx0 itself: each distinct piece made and compiled once, as it is
        # built, and no compile walk
        for name in ("matter", "tangent"):
            build = getattr(localization.CompiledTable, name)
            monkeypatch.setattr(
                localization.CompiledTable,
                name,
                lambda table, *args, build=build: made.append(build(table, *args)) or made[-1],
            )
        compiled.clear()
        (point,), _ = sample_points(SampleConfig(seed=7, trials=1), pair.pole_forms("zx0"), 3)
        _, kernel = pair._compile("zx0")
        assert compiled == [] and len([piece for piece in made if piece]) == len(pieces)
        products = count_products(monkeypatch, kernel)
        pair.values("zx0", point)
        # at the point, one product per distinct factor set, then one per
        # term side that reads more than one ref; a lone ref is read directly
        assert len(set(kernel.sets)) == len(kernel.sets) == 2091
        assert products == {"sets": 2091, "terms": 2116}
        assert products["terms"] == multi_ref_sides(terms)

    @pytest.mark.parametrize("max_n", [3, 4])
    def test_zx1_fact_evaluates_no_more_factor_sets_than_zx1(self, monkeypatch, max_n):
        # zx1-fact images each plane piece once per chart rule, so its terms
        # hold more pieces than zx1's (822 against 686 at max-n 3), many of
        # them value-equal; they share their factor sets' products
        pair = SeriesPair(FrameData(1, 2), H(0), 4 * max_n + 2)
        pieces = {}
        for name in ("zx1", "zx1-fact"):
            series = pair.series(name)
            terms = [t for g in series.grades() for t in expanded_terms(series.coefficient(g))]
            pieces[name] = len({id(piece) for t in terms for piece in t})
        assert pieces["zx1-fact"] > pieces["zx1"]
        forms = union_pole_forms(pair.pole_forms("zx1"), pair.pole_forms("zx1-fact"))
        (point,), _ = sample_points(SampleConfig(seed=7, trials=1), forms, 3)
        sets = {}
        for name in ("zx1", "zx1-fact"):
            products = count_products(monkeypatch, pair._compile(name)[1])
            pair.values(name, point)
            sets[name] = products["sets"]
        assert sets["zx1-fact"] <= sets["zx1"]
        if max_n == 3:
            assert sets == {"zx1": 528, "zx1-fact": 528}
        assert pair.values("zx1", point) == pair.values("zx1-fact", point)


def multi_ref_sides(terms) -> int:
    """The term sides a kernel reads through a product: those where more
    than one piece has a factor set, a piece's side having one when it
    holds a factor there."""
    count = 0
    for t in terms:
        nums = sum(1 for p in t if any(e > 0 for _, e in p.factors))
        dens = sum(1 for p in t if any(e < 0 for _, e in p.factors))
        count += (nums > 1) + (dens > 1)
    return count


def count_products(monkeypatch, kernel) -> dict:
    """Count the int products of one evaluation of `kernel` from here on:
    it takes one product per factor set in `kernel.sets` first, then one
    per term side that reads more than one ref."""
    from math import prod

    from nekrasov import exact

    counts = {"sets": 0, "terms": 0}

    def counting(values):
        counts["sets" if counts["sets"] < len(kernel.sets) else "terms"] += 1
        return prod(values)

    monkeypatch.setattr(exact, "prod", counting)
    return counts


class TestValueTable:
    """One `check all` evaluates each series once per distinct point:
    symmetry reads its flipped values off each coefficient's degree, and
    must reads main's -eps values."""

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("r", RANKS)
    def test_check_all_reads_each_series_at_p_and_minus_eps_only(
        self, monkeypatch, capsys, r, k
    ):
        # at most twice per trial, and never at a negated point, so no
        # coefficient falls back to evaluating the flipped side
        from nekrasov import verify
        from nekrasov.cli import main

        frame, trials = FRAMES[r, H(k).doubled % 2], 2
        built, evaluated = {}, record_kernel_reads(monkeypatch)

        def keeping(name, build):
            def wrapper(*args):
                built[name] = build(*args)
                return built[name]

            return wrapper

        monkeypatch.setattr(verify, "series_zx0", keeping("zx0", series_zx0))
        monkeypatch.setattr(verify, "series_zx1", keeping("zx1", series_zx1))
        argv = ["check", "all", "--w0", str(frame.w0), "--w1", str(frame.w1), f"--k={k}",
                "--max-n", str(MAX_N[r]), "--trials", str(trials), "--json"]
        assert main(argv) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == (4 if H(k).doubled >= 0 else 3)
        images = set()
        for report in reports:
            for p in report["points"]:
                values = tuple(Fraction(p[var_name(v)]) for v in scope_vars(r))
                images |= {values, (-values[0], -values[1]) + values[2:]}
        assert set(built) == {"zx0", "zx1"}
        for series in built.values():
            for g in series.grades():
                c = series.coefficient(g)
                if c:
                    seen = [image for d, image in evaluated if d is c]
                    assert 1 <= len(seen) <= 2 * trials and set(seen) <= images, g

    @staticmethod
    def _mutant(monkeypatch, name, grade, mutate):
        """Make every pair build series `name` with coefficient `grade`
        replaced by mutate(coefficient)."""
        from nekrasov import verify

        build = factored(getattr(verify, BUILDERS[name]))  # zx0 as pieces, to mutate

        def mutated(*args):
            series = build(*args)
            coeffs = dict(series.coeffs)
            coeffs[grade] = mutate(coeffs[grade])
            return QSeries(coeffs, series.max_grade, series.offset)

        monkeypatch.setattr(verify, BUILDERS[name], mutated)

    # every term times eps1 (one odd degree), or one degree-1 term added
    ODD = staticmethod(
        lambda c: tuple(term_mul(t, (factored_term([(linear_form({EPS1: 1}), 1)]),)) for t in c)
    )
    MIXED = staticmethod(
        lambda c: c + ((factored_term([(linear_form({EPS1: 1, var_a(1): 2}), 1)]),),)
    )

    @pytest.mark.parametrize("mutate, degree", [(ODD, 1), (MIXED, None)], ids=["odd", "mixed"])
    @pytest.mark.parametrize("name, kappa", [("zx0", 0), ("zx1", 1)])
    def test_mutant_fails_symmetry_with_its_real_values(
        self, monkeypatch, mutate, degree, name, kappa
    ):
        frame, k, max4n, grade = FrameData(1, 0), H(0), 8, 4
        self._mutant(monkeypatch, name, grade, mutate)
        pair = SeriesPair(frame, k, max4n)
        degrees = pair.degrees(name)
        assert degrees[grade] == (None if degree is None else degrees[0] + degree)
        rep = check_symmetry(pair, CFG)
        failing = [rec for rec in rep.grades if not rec.all_equal]
        assert [(rec.grade4n, rec.tags["kappa"]) for rec in failing] == [(grade, kappa)]
        c = pair.series(name).coefficient(grade)
        for point, (lhs, rhs) in zip(rep.points, failing[0].values):
            assert lhs == coeff_eval(c, {v: -x for v, x in point.items()})
            assert rhs == coeff_eval(c, point)
            assert lhs != rhs

    @pytest.mark.parametrize("mutate", [ODD, MIXED], ids=["odd", "mixed"])
    def test_must_reads_a_mutant_orbifold_series_at_its_real_values(self, monkeypatch, mutate):
        # beta at -(a, m) p, read off main's -eps values or evaluated, is
        # the mutant's real value there
        frame, k, max4n = FrameData(1, 0), H(1), 8
        self._mutant(monkeypatch, "zx0", 4, mutate)
        pair = SeriesPair(frame, k, max4n)
        check_main(pair, CFG)
        rep = check_recursion_must(pair, CFG)
        flip = negate_am(frame.r)
        for t, point in enumerate(rep.points):
            weights = _prefactor(frame.r, -1, max4n // 4)(point)
            beta = {g: coeff_eval(pair.series("zx0").coefficient(g), reference_map_point(point, flip))
                    for g in pair.series("zx0").grades()}
            for record in rep.grades:
                g = record.grade4n
                expected = sum(w * beta[g - j] for j, w in weights.items() if g - j in beta)
                assert record.values[t][1] == expected

    @pytest.mark.parametrize("frame, k", [(FrameData(1, 0), H(0)), (FrameData(2, 0), H(1))])
    def test_pairs_share_no_values(self, frame, k):
        # checks alone, shared in order, shared in reverse order, and one
        # pair reused at another seed all give the same reports
        checks = TestSeriesPair.CHECKS
        max4n = 4 + frame.w1
        other = SampleConfig(seed=7, trials=3)
        alone = [check(SeriesPair(frame, k, max4n), CFG).to_dict() for check in checks]
        pair = SeriesPair(frame, k, max4n)
        assert [check(pair, CFG).to_dict() for check in checks] == alone
        reverse = SeriesPair(frame, k, max4n)
        assert [check(reverse, CFG).to_dict() for check in reversed(checks)] == alone[::-1]
        assert [check(pair, other).to_dict() for check in checks] == [
            check(SeriesPair(frame, k, max4n), other).to_dict() for check in checks
        ]

    def test_equal_points_share_one_entry(self, monkeypatch):
        # a point rebuilt from new Fraction objects is read from the table;
        # a point that differs in one coordinate is not
        pair = SeriesPair(FrameData(1, 0), H(1), 8)
        points, _ = sample_points(CFG, pair.pole_forms("zx0"), 1)
        point = points[0]
        twin = {v: Fraction(x.numerator, x.denominator) for v, x in point.items()}
        other = {v: x + 1 if v == EPS1 else x for v, x in point.items()}
        evaluate, calls = Kernel.evaluate, []
        monkeypatch.setattr(Kernel, "evaluate", lambda kernel, p: calls.append(p) or evaluate(kernel, p))
        values = pair.values("zx0", point)
        assert pair.values("zx0", twin) is values and len(calls) == 1
        assert pair.values("zx0", other) is not values and len(calls) == 2


class TestSideForms:
    """Each side carries the forms its draws must avoid, and a check's
    draws avoid every side's forms.  Each mutant adds to one series a term
    1/F and its negative, where F is zero where that side reads the series
    at trial 0's first draw: the values are unchanged, and that draw must
    be rejected.  A real-series trap cannot show a dropped side here: at
    (1,0) k = 1 every denominator form of zx0, plain or composed with
    -(a, m), is a form of zx1 or its negative."""

    FRAME, K, MAX4N, GRADE = FrameData(1, 0), H(1), 8, 4

    def test_union_keeps_each_form_once_in_first_seen_order(self):
        a, b = linear_form({EPS1: 1}), linear_form({EPS2: 1})
        c = linear_form({EPS1: 1, EPS2: 1})
        assert union_pole_forms([a, b], [], [b, c, linear_form({EPS1: 1})]) == [a, b, c]
        assert union_pole_forms() == []

    def test_check_all_composes_each_series_forms_with_a_rule_once(self, monkeypatch):
        # at k = 0, main reads zx1 and zx0 at -eps p and must reads zx0's
        # -eps values negated: the pair composes zx1's and zx0's pole forms
        # with -eps once each, though two checks read zx0 at -eps
        from nekrasov import verify

        composed, image = [], verify.form_image
        monkeypatch.setattr(
            verify, "form_image", lambda form, rule: composed.append((form, rule)) or image(form, rule)
        )
        pair = SeriesPair(FrameData(1, 2), H(0), 6)
        for check in (check_main, check_factorization, check_symmetry, check_recursion_must):
            assert check(pair, CFG).passed
        assert {rule for _, rule in composed} == {rule_negate_eps()}
        assert [form for form, _ in composed] == pair.pole_forms("zx1") + pair.pole_forms("zx0")

    def test_union_keeps_the_first_seen_of_each_sign_pair(self):
        a, b = linear_form({EPS1: 1, EPS2: -1}), linear_form({EPS1: Fraction(1, 2)})
        assert union_pole_forms([-a, b], [a, -b, -a]) == [-a, b]
        assert union_pole_forms([b], [-b, -b]) == [b]

    @pytest.mark.parametrize(
        "w, max_n, merged_away", [((2, 0), 3, 28), ((1, 2), 3, 98)], ids=["w20", "w12"]
    )
    def test_sign_merged_union_rejects_the_same_draws(self, w, max_n, merged_away):
        """zx0 and zx1 hold many forms together with their negatives (56 of
        72 at (2,0) max-n 3, 196 of 240 at (1,2)); the union keeps one of
        each pair, and every trial draws the same point after the same
        redraws as against all the forms, also with a trap F and -F added
        where trial 0's first draw is a zero of F."""
        frame = FrameData(*w)
        pair = SeriesPair(frame, H(0), 4 * max_n + frame.w1)
        every = list(dict.fromkeys(pair.pole_forms("zx0") + pair.pole_forms("zx1")))
        union = union_pole_forms(pair.pole_forms("zx0"), pair.pole_forms("zx1"))
        assert len(every) - len(union) == merged_away
        assert {-f for f in every} | set(every) == {-f for f in union} | set(union)
        first = sample_point(CFG, 0, [], frame.r)
        trap = cleared_trap({EPS1: 3, var_a(1): -2}, EPS2, first)
        assert trap.evaluate(first) == 0
        for forms in ([], [-trap, trap]):
            union = union_pole_forms(every, forms)
            for trial in range(CFG.trials):
                got = sample_point_with_stats(CFG, trial, union, frame.r)
                assert got == sample_point_with_stats(CFG, trial, every + forms, frame.r)
        assert sample_point_with_stats(CFG, 0, union, frame.r)[1] >= 1

    @staticmethod
    def _trap(monkeypatch, name, grade, rule):
        """Put 1/F - 1/F into series `name` at `grade`, with F zero at
        rule(first draw of trial 0), and nonzero at that draw when the
        rule moves it."""
        first = sample_point(CFG, 0, [], 1)
        image = reference_map_point(first, rule) if rule else first
        trap = cleared_trap({EPS1: 3, var_a(1): -2}, EPS2, image)
        assert trap.evaluate(image) == 0
        assert rule is None or trap.evaluate(first) != 0
        pole, opposite = factored_term([(trap, -1)]), factored_term([(-trap, -1)])
        TestValueTable._mutant(monkeypatch, name, grade, lambda c: c + ((pole,), (opposite,)))

    @pytest.mark.parametrize(
        "name, check, rule",
        [
            ("zx1-fact", check_factorization, None),
            ("zx0", check_recursion_must, negate_am(1)),
        ],
        ids=["mult-rhs", "must-beta"],
    )
    def test_a_pole_on_one_side_forces_a_redraw(self, monkeypatch, name, check, rule):
        frame, k, max4n = self.FRAME, self.K, self.MAX4N
        assert check(SeriesPair(frame, k, max4n), CFG).resamples[0] == 0
        self._trap(monkeypatch, name, self.GRADE, rule)
        rep = check(SeriesPair(frame, k, max4n), CFG)
        assert rep.resamples[0] == 1
        assert rep.passed
