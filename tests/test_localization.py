"""Euler classes and per-fixed-point localization terms."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nekrasov.diagrams import (
    FixedPointX1,
    FrameData,
    HalfInt,
    diagram_tuples,
    enum_fixed_points_x0,
    enum_fixed_points_x1,
    enum_kvectors,
)
from nekrasov.exact import (
    EPS1,
    EPS2,
    UNIT_TERM,
    factored_term,
    linear_form,
    term_eval,
    term_mul,
    term_pow,
    var_a,
    var_m,
)
from nekrasov.localization import (
    FactorTable,
    VanishingWeight,
    _tangent_piece,
    ell_factor,
    euler_class,
    mass_shifted_weight,
    matter_euler,
    term_p2,
    term_x0,
    term_x1,
    weight_form,
)
from whole_fixed_point import (
    char_lk,
    merged,
    reference_term_p2,
    reference_term_x0,
    reference_term_x1,
)


def H(text):
    return HalfInt.parse(str(text))


def fp_x1(kvec, y1, y2):
    return FixedPointX1(tuple(kvec), tuple(y1), tuple(y2))


def counted(*monos):
    return Counter(monos)


def mono_t(p, q, e=None):
    """t1^p t2^q times prod e_alpha^exp, as the (p, q, e) tuple."""
    return (p, q, tuple(sorted((e or {}).items())))


def point(e1, e2, a, m1, m2):
    return {
        EPS1: Fraction(e1),
        EPS2: Fraction(e2),
        var_a(1): Fraction(a),
        var_m(1): Fraction(m1),
        var_m(2): Fraction(m2),
    }


GENERIC = point(1, 3, Fraction(7, 2), 5, -2)


def matter_values(p, *weights):
    """Independent closed form: prod over masses of (w + m_f - (e1+e2)/2)."""
    half = (p[EPS1] + p[EPS2]) / 2
    total = Fraction(1)
    for f in (1, 2):
        for w in weights:
            total *= w + p[var_m(f)] - half
    return total


class TestEulerClass:
    def test_single_monomial(self):
        got = euler_class(counted(mono_t(1, 1, {1: 1})))
        assert got == factored_term(1, [(linear_form({EPS1: 1, EPS2: 1, var_a(1): 1}), 1)])

    def test_empty_is_unit(self):
        assert euler_class({}) == UNIT_TERM

    def test_constant_monomial_vanishes(self):
        with pytest.raises(VanishingWeight):
            euler_class(counted(mono_t(0, 0)))

    def test_additive_over_direct_sum(self):
        a = counted(mono_t(1, 0), mono_t(0, 2, {1: 1}))
        b = counted(mono_t(1, 0), mono_t(-1, 1))
        lhs = euler_class(a + b)
        rhs = term_mul(euler_class(a), euler_class(b))
        assert lhs == merged(rhs)

    def test_weight_form_reads_exponents(self):
        form = weight_form(mono_t(-2, 3, {1: -1}))
        assert form == linear_form({EPS1: -2, EPS2: 3, var_a(1): -1})


class TestMatterEuler:
    def test_empty_is_unit(self):
        assert matter_euler({}, 1) == UNIT_TERM

    def test_single_framing_weight(self):
        got = matter_euler(counted(mono_t(0, 0, {1: 1})), 1)
        assert term_eval(got, GENERIC) == matter_values(GENERIC, GENERIC[var_a(1)])

    def test_shift_combines_with_torus_weight(self):
        got = matter_euler(counted(mono_t(1, 1, {1: 1})), 1)
        # weight a1 + eps1 + eps2, shifted: a1 + m_f + (eps1+eps2)/2
        p = GENERIC
        expected = Fraction(1)
        for f in (1, 2):
            expected *= p[var_a(1)] + p[var_m(f)] + (p[EPS1] + p[EPS2]) / 2
        assert term_eval(got, p) == expected


def _merged_euler(ch):
    """Euler class the way it was built before the direct build: every
    monomial's weight, merged by ``factored_term``."""
    factors = []
    for mono, mult in ch.items():
        form = weight_form(mono)
        if form.is_zero():
            raise VanishingWeight(f"zero weight for monomial {mono}")
        factors.append((form, mult))
    return factored_term(1, factors)


def _merged_matter(ch, r):
    return factored_term(
        1, [(mass_shifted_weight(mono, f), mult) for f in range(1, 2 * r + 1) for mono, mult in ch.items()]
    )


def _merged_pow(t, n):
    return factored_term(t.scalar ** n, [(form, exp * n) for form, exp in t.factors])


_MONOMIALS = st.tuples(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.sampled_from([(), ((1, 1),), ((2, 1),), ((1, -1), (2, 1)), ((1, 1), (3, -1))]),
)
_CHARACTERS = st.dictionaries(_MONOMIALS, st.integers(-2, 3), max_size=8).map(Counter)


class TestDirectCanonicalBuild:
    """euler_class, matter_euler and _tangent_piece sort their factors
    into a canonical term without merging, since distinct monomials have
    distinct forms; they equal the merge through ``factored_term``, zero
    multiplicities dropped, with or without a memo shared across calls."""

    @settings(max_examples=150, deadline=None)
    @given(chars=st.lists(_CHARACTERS, min_size=1, max_size=4), r=st.integers(1, 3))
    @example(chars=[Counter({(1, 0, ()): 0, (0, 1, ()): 2, (1, 1, ((1, 1),)): -1})], r=1)
    @example(chars=[Counter({(0, 0, ()): 0, (1, 0, ()): 1})], r=2)
    def test_equal_to_the_merged_build(self, chars, r):
        weights, masses = {}, {}
        for ch in chars:
            assert matter_euler(ch, r) == _merged_matter(ch, r)
            assert matter_euler(ch, r, masses) == _merged_matter(ch, r)
            if (0, 0, ()) in ch:
                for build in (euler_class, _tangent_piece):
                    with pytest.raises(VanishingWeight):
                        build(ch)
                continue
            expected = _merged_euler(ch)
            assert euler_class(ch) == expected
            assert euler_class(ch, weights) == expected
            assert _tangent_piece(ch) == _merged_pow(expected, -1)
            assert _tangent_piece(ch, weights) == _merged_pow(expected, -1)


class TestPlaneTerms:
    def test_empty_tuple_is_unit(self):
        assert merged(term_p2(1, [()], FactorTable())) == UNIT_TERM

    def test_single_box(self):
        got = term_eval(term_p2(1, [(1,)], FactorTable()), GENERIC)
        p = GENERIC
        expected = matter_values(p, p[var_a(1)]) / (p[EPS1] * p[EPS2])
        assert got == expected

    def test_column_of_two(self):
        got = term_eval(term_p2(1, [(2,)], FactorTable()), GENERIC)
        p = GENERIC
        expected = matter_values(p, p[var_a(1)], p[var_a(1)] - p[EPS2]) / (
            2 * p[EPS2] * p[EPS2] * (p[EPS1] - p[EPS2]) * p[EPS1]
        )
        assert got == expected

    def test_generic_points_are_finite_up_to_size_3(self):
        for r, values in ((1, GENERIC), (2, None)):
            if r == 2:
                values = dict(GENERIC)
                values[var_a(2)] = Fraction(11, 3)
                values[var_m(3)] = Fraction(-9, 4)
                values[var_m(4)] = Fraction(13)
            for total in range(4):
                for tup in diagram_tuples(r, total):
                    term = term_p2(r, tup, FactorTable())  # no VanishingWeight
                    term_eval(term, values)  # no PoleError at a generic point


class TestOrbifoldTerms:
    def test_single_box_dim_zero(self):
        frame = FrameData(1, 0)
        (fp,) = enum_fixed_points_x0(frame, 1, 0)
        got = term_x0(frame, fp, FactorTable())
        assert merged(got).factors == matter_euler(counted(mono_t(0, 0, {1: 1})), 1).factors

    def test_two_box_pair(self):
        frame = FrameData(1, 0)
        column, row = enum_fixed_points_x0(frame, 1, 1)
        p = GENERIC
        col_val = term_eval(term_x0(frame, column, FactorTable()), p)
        row_val = term_eval(term_x0(frame, row, FactorTable()), p)
        num = matter_values(p, p[var_a(1)])
        assert col_val == num / (2 * p[EPS2] * (p[EPS1] - p[EPS2]))
        assert row_val == num / (2 * p[EPS1] * (p[EPS2] - p[EPS1]))

    def test_pair_sums_to_partial_fraction(self):
        # 1/(2 e2 (e1-e2)) + 1/(2 e1 (e2-e1)) = 1/(2 e1 e2)
        frame = FrameData(1, 0)
        fps = enum_fixed_points_x0(frame, 1, 1)
        for p in (GENERIC, point(2, -5, 1, 0, 4), point(Fraction(1, 3), 9, -2, 1, 1)):
            total = sum(term_eval(term_x0(frame, fp, FactorTable()), p) for fp in fps)
            expected = matter_values(p, p[var_a(1)]) / (2 * p[EPS1] * p[EPS2])
            assert total == expected


class TestResolvedTerms:
    def test_empty_is_unit(self):
        frame = FrameData(1, 0)
        assert merged(term_x1(frame, fp_x1([H(0)], [()], [()]), FactorTable())) == UNIT_TERM

    def test_pure_twist(self):
        frame = FrameData(1, 0)
        got = term_x1(frame, fp_x1([H(1)], [()], [()]), FactorTable())
        p = GENERIC
        expected = Fraction(1)
        for f in (1, 2):
            expected *= p[var_a(1)] + p[var_m(f)] + (p[EPS1] + p[EPS2]) / 2
        assert term_eval(got, p) == expected

    def test_single_box_first_chart(self):
        frame = FrameData(1, 0)
        got = term_x1(frame, fp_x1([H(0)], [(1,)], [()]), FactorTable())
        p = GENERIC
        expected = matter_values(p, p[var_a(1)]) / (
            (p[EPS2] - p[EPS1]) * 2 * p[EPS1]
        )
        assert term_eval(got, p) == expected


class TestEllFactor:
    def test_zero_vector_is_unit(self):
        assert merged(ell_factor(FrameData(1, 0), (H(0),), FactorTable())) == UNIT_TERM
        assert merged(ell_factor(FrameData(2, 0), (H(0), H(0)), FactorTable())) == UNIT_TERM

    def test_rank_one_twist(self):
        got = ell_factor(FrameData(1, 0), (H(1),), FactorTable())
        p = GENERIC
        expected = Fraction(1)
        for f in (1, 2):
            expected *= p[var_a(1)] + p[var_m(f)] + (p[EPS1] + p[EPS2]) / 2
        assert term_eval(got, p) == expected

    def test_rank_two_opposite_twists(self):
        frame = FrameData(2, 0)
        got = ell_factor(frame, (H(1), H(-1)), FactorTable())
        p = dict(GENERIC)
        p[var_a(2)] = Fraction(-4, 5)
        p[var_m(3)] = Fraction(8)
        p[var_m(4)] = Fraction(-1, 7)
        half = (p[EPS1] + p[EPS2]) / 2
        num = Fraction(1)
        for f in (1, 2, 3, 4):
            # slot 1 twist by L_1 = {t1 t2}, slot 2 twist by L_-1 = {1}
            num *= p[var_a(1)] + p[EPS1] + p[EPS2] + p[var_m(f)] - half
            num *= p[var_a(2)] + p[var_m(f)] - half
        den = Fraction(1)
        d = p[var_a(2)] - p[var_a(1)]
        l_minus2 = [(0, 0), (-1, -1), (-2, 0), (0, -2)]
        l_plus2 = [(1, 1), (2, 2), (3, 1), (1, 3)]
        for i, j in l_minus2:
            den *= d + i * p[EPS1] + j * p[EPS2]
        for i, j in l_plus2:
            den *= -d + i * p[EPS1] + j * p[EPS2]
        assert term_eval(got, p) == num / den

    @pytest.mark.parametrize("w", [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (0, 3)])
    def test_equals_hand_built_twist_characters(self, w):
        # matter Euler class of sum_a L_{k_a} e_a over the Euler class of
        # sum_{a,b} L_{k_b - k_a} e_b/e_a, built here from char_lk alone
        frame = FrameData(*w)
        for kd in range(-4, 5):
            if (kd + frame.w1) % 2:
                continue
            for kvec in enum_kvectors(frame, HalfInt(kd), 16):
                num, den = Counter(), Counter()
                for a in range(frame.r):
                    for p, q, _ in char_lk(kvec[a]):
                        num[mono_t(p, q, {a + 1: 1})] += 1
                    for b in range(frame.r):
                        e = {b + 1: 1, a + 1: -1} if a != b else None
                        for p, q, _ in char_lk(kvec[b] - kvec[a]):
                            den[mono_t(p, q, e)] += 1
                expected = term_mul(
                    matter_euler(num, frame.r), term_pow(euler_class(den), -1)
                )
                assert merged(ell_factor(frame, kvec, FactorTable())) == merged(expected)


# Every framing of rank 1 to 3.
FRAMES = [(w0, w1) for w0 in range(4) for w1 in range(4) if 1 <= w0 + w1 <= 3]


def _series_fixed_points(kind, frame, doubled, levels):
    """The fixed points one series of `kind` sums, up to `levels` levels
    above its base grade."""
    if kind == "p2":
        return [tup for n in range(levels + 1) for tup in diagram_tuples(frame.r, n)]
    if kind == "x0":
        fps = []
        for v0 in range(levels + 1):
            v1_doubled = 2 * v0 + frame.w1 + doubled
            if v1_doubled >= 0 and v1_doubled % 2 == 0:
                fps += enum_fixed_points_x0(frame, v0, v1_doubled // 2)
        return fps
    return [
        fp
        for g in range(frame.w1 % 4, frame.w1 + 4 * levels + 1, 4)
        for fp in enum_fixed_points_x1(frame, HalfInt(doubled), g)
    ]


class TestSharedFactorTable:
    """A term is the product of the pieces one table caches per slot and
    slot pair; merged, it equals the whole-fixed-point term (one Euler
    class each for the whole matter and tangent characters), whatever the
    order in which the table's fixed points come.  On the resolved side,
    each fixed point's ell(kvec) is checked the same way."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_terms_equal_the_whole_fixed_point_reference(self, data):
        frame = FrameData(*data.draw(st.sampled_from(FRAMES), label="w"))
        kind = data.draw(st.sampled_from(["p2", "x0", "x1"]), label="kind")
        doubled = data.draw(
            st.sampled_from([d for d in range(-2, 3) if (d + frame.w1) % 2 == 0]),
            label="2k",
        )
        levels = data.draw(st.integers(0, 2), label="levels")
        fps = _series_fixed_points(kind, frame, doubled, levels)
        build = {
            "p2": lambda fp, table: term_p2(frame.r, fp, table),
            "x0": lambda fp, table: term_x0(frame, fp, table),
            "x1": lambda fp, table: term_x1(frame, fp, table),
        }[kind]
        reference = {
            "p2": lambda fp: reference_term_p2(frame.r, fp),
            "x0": lambda fp: reference_term_x0(frame, fp),
            "x1": lambda fp: reference_term_x1(frame, fp),
        }[kind]
        order = data.draw(st.permutations(range(len(fps))), label="order")
        table = FactorTable()
        for i in order:
            term = build(fps[i], table)
            assert merged(term) == reference(fps[i])
            # unit pieces are dropped, and every piece is the table's object
            assert all(piece.factors for piece in term.pieces)
            assert {id(piece) for piece in term.pieces} <= {id(piece) for piece in table.pieces.values()}
            if kind == "x1":
                empties = ((),) * frame.r
                ell = ell_factor(frame, fps[i].kvec, table)
                assert merged(ell) == reference_term_x1(frame, FixedPointX1(fps[i].kvec, empties, empties))

    def test_pieces_repeat_across_fixed_points(self):
        # the table holds fewer pieces than the fixed points draw on: a
        # rank-2 resolved point has 2 slots and 4 slot pairs, each with a
        # line-bundle piece and two chart pieces
        frame = FrameData(2, 0)
        fps = [fp for g in (0, 4, 8) for fp in enum_fixed_points_x1(frame, H(0), g)]
        table = FactorTable()
        for fp in fps:
            term_x1(frame, fp, table)
        assert len(table.pieces) < len(fps) * (2 + 4) * 3
