"""Euler classes and per-fixed-point localization terms."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nekrasov import localization
from nekrasov.characters import (
    char_tangent_p2,
    char_tangent_x0,
    char_tangent_x1,
    char_twist,
    char_v_p2,
    char_v_x0,
    char_v_x1,
)
from nekrasov.diagrams import (
    FixedPointX1,
    FrameData,
    HalfInt,
    diagram_tuples,
    partitions,
    enum_fixed_points_x0,
    enum_fixed_points_x1,
    enum_kvectors,
)
from nekrasov.exact import (
    EPS1,
    EPS2,
    UNIT_TERM,
    FactoredTerm,
    Kernel,
    clear_of,
    factored_term,
    linear_form,
    scope_vars,
    term_eval,
    term_mul,
    term_pow,
    var_a,
    var_m,
)
from nekrasov.localization import (
    FactorTable,
    VanishingWeight,
    ell_factor,
    euler_class,
    mass_shifted_weight,
    matter_euler,
    ratio_part,
    slot_part,
    term_p2,
    term_x0,
    term_x1,
    weight_form,
)
from nekrasov.series import series_zp2, series_zx0, series_zx1
from whole_fixed_point import (
    CHART_MATRICES,
    char_lk,
    expanded,
    expanded_terms,
    merged,
    ref_char_tangent_p2,
    ref_char_tangent_twist,
    ref_char_tangent_x0,
    ref_char_tangent_x1,
    ref_char_v_p2,
    ref_char_v_twist,
    ref_char_v_x0,
    ref_char_v_x1,
    ref_euler_class,
    ref_matter_euler,
    reference_term_p2,
    reference_term_x0,
    reference_term_x1,
)


def H(text):
    return HalfInt.parse(str(text))


def fp_x1(kvec, y1, y2):
    """A resolved fixed point; kvec holds the doubled entries 2k_alpha."""
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
        got = euler_class([(1, 1)], slot_part(1))
        assert got == factored_term([(linear_form({EPS1: 1, EPS2: 1, var_a(1): 1}), 1)])

    def test_empty_is_unit(self):
        assert euler_class([], ()) == UNIT_TERM
        assert euler_class([], ratio_part(1, 2)) == UNIT_TERM

    def test_constant_monomial_vanishes(self):
        with pytest.raises(VanishingWeight):
            euler_class([(0, 0)], ())
        with pytest.raises(VanishingWeight):
            euler_class([(1, 0), (0, 0)], (), {})

    def test_additive_over_direct_sum(self):
        a = [(1, 0), (0, 2)]
        b = [(1, 0), (-1, 1)]
        e = ratio_part(2, 1)
        lhs = euler_class(a + b, e)
        rhs = term_mul((euler_class(a, e),), (euler_class(b, e),))
        assert merged((lhs,)) == merged(rhs)

    def test_repeated_pairs_are_merged_in_first_seen_order(self):
        got = euler_class([(0, 1), (1, 1), (0, 1), (2, -1), (1, 1), (0, 1)], ())
        assert got == FactoredTerm((
            (linear_form({EPS2: 1}), 3),
            (linear_form({EPS1: 1, EPS2: 1}), 2),
            (linear_form({EPS1: 2, EPS2: -1}), 1),
        ))

    def test_weight_form_reads_exponents(self):
        form = weight_form(mono_t(-2, 3, {1: -1}))
        assert form == linear_form({EPS1: -2, EPS2: 3, var_a(1): -1})


class TestMatterEuler:
    def test_empty_is_unit(self):
        assert matter_euler([], slot_part(1), 1) == UNIT_TERM

    def test_single_framing_weight(self):
        got = matter_euler([(0, 0)], slot_part(1), 1)
        assert term_eval((got,), GENERIC) == matter_values(GENERIC, GENERIC[var_a(1)])

    def test_repeated_pairs_are_merged(self):
        got = matter_euler([(0, 0), (1, 0), (0, 0)], slot_part(1), 1)
        assert [exp for _, exp in got.factors] == [2, 2, 1, 1]
        p = GENERIC
        assert term_eval((got,), p) == matter_values(p, p[var_a(1)], p[var_a(1)], p[var_a(1)] + p[EPS1])

    def test_shift_combines_with_torus_weight(self):
        got = matter_euler([(1, 1)], slot_part(1), 1)
        # weight a1 + eps1 + eps2, shifted: a1 + m_f + (eps1+eps2)/2
        p = GENERIC
        expected = Fraction(1)
        for f in (1, 2):
            expected *= p[var_a(1)] + p[var_m(f)] + (p[EPS1] + p[EPS2]) / 2
        assert term_eval((got,), p) == expected


def _merged_euler(pairs, e):
    """Euler class the way it was built before the direct build: every
    monomial's weight, merged by ``factored_term``."""
    factors = []
    for p, q in pairs:
        form = weight_form((p, q, e))
        if form.is_zero():
            raise VanishingWeight(f"zero weight for monomial {(p, q, e)}")
        factors.append((form, 1))
    return factored_term(factors)


def _merged_matter(pairs, e, r):
    return factored_term(
        [(mass_shifted_weight((p, q, e), f), 1) for f in range(1, 2 * r + 1) for p, q in pairs]
    )


def _merged_pow(t, n):
    return factored_term([(form, exp * n) for form, exp in t.factors])


_E_PARTS = st.sampled_from([(), ((1, 1),), ((2, 1),), ((1, -1), (2, 1)), ((1, 1), (3, -1))])
_PIECES = st.tuples(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=10), _E_PARTS
)


def _same_piece(piece, expected):
    """`piece` holds the factor multiset of the canonical term `expected`,
    in any order: merged they are equal, and no two of its factors share
    a form (merging would shorten it)."""
    return merged((piece,)) == expected and len(piece.factors) == len(expected.factors)


class TestDirectCanonicalBuild:
    """euler_class, matter_euler and FactorTable.tangent merge a piece's equal
    pairs once and build one factor per distinct monomial, without the
    merge of ``factored_term``, since distinct monomials have distinct
    forms; they hold the factor multiset of that merge, with or without a
    memo shared across calls and e-parts."""

    @settings(max_examples=150, deadline=None)
    @given(pieces=st.lists(_PIECES, min_size=1, max_size=4), r=st.integers(1, 3))
    @example(pieces=[([(1, 0), (0, 1), (0, 1), (1, 1)], ((1, 1),))], r=1)
    @example(pieces=[([(0, 0), (1, 0)], ())], r=2)
    def test_equal_to_the_merged_build(self, pieces, r):
        weights, masses = {}, {}
        for pairs, e in pieces:
            for memo in (None, masses):
                got = matter_euler(pairs, e, r, memo)
                assert _same_piece(got, _merged_matter(pairs, e, r))
            if e == () and (0, 0) in pairs:
                for build in (euler_class, FactorTable().tangent):
                    with pytest.raises(VanishingWeight):
                        build(pairs, e)
                continue
            expected = _merged_euler(pairs, e)
            for memo in (None, weights):
                got = euler_class(pairs, e, memo)
                assert _same_piece(got, expected)
                got = term_pow(euler_class(pairs, e, memo), -1)
                assert _same_piece(got, _merged_pow(expected, -1))


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
        assert merged(got).factors == matter_euler([(0, 0)], slot_part(1), 1).factors

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
        (flat,) = expanded(term_x1(frame, fp_x1([0], [()], [()]), FactorTable()))
        assert merged(flat) == UNIT_TERM

    def test_pure_twist(self):
        frame = FrameData(1, 0)
        got = term_x1(frame, fp_x1([2], [()], [()]), FactorTable())
        p = GENERIC
        expected = Fraction(1)
        for f in (1, 2):
            expected *= p[var_a(1)] + p[var_m(f)] + (p[EPS1] + p[EPS2]) / 2
        assert term_eval(got, p) == expected

    def test_single_box_first_chart(self):
        frame = FrameData(1, 0)
        got = term_x1(frame, fp_x1([0], [(1,)], [()]), FactorTable())
        p = GENERIC
        expected = matter_values(p, p[var_a(1)]) / (
            (p[EPS2] - p[EPS1]) * 2 * p[EPS1]
        )
        assert term_eval(got, p) == expected


class TestEllFactor:
    def test_zero_vector_is_unit(self):
        assert merged(ell_factor(FrameData(1, 0), (0,), FactorTable())) == UNIT_TERM
        assert merged(ell_factor(FrameData(2, 0), (0, 0), FactorTable())) == UNIT_TERM

    def test_rank_one_twist(self):
        got = ell_factor(FrameData(1, 0), (2,), FactorTable())
        p = GENERIC
        expected = Fraction(1)
        for f in (1, 2):
            expected *= p[var_a(1)] + p[var_m(f)] + (p[EPS1] + p[EPS2]) / 2
        assert term_eval(got, p) == expected

    def test_rank_two_opposite_twists(self):
        frame = FrameData(2, 0)
        got = ell_factor(frame, (2, -2), FactorTable())
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
                    for p, q, _ in char_lk(HalfInt(kvec[a])):
                        num[mono_t(p, q, {a + 1: 1})] += 1
                    for b in range(frame.r):
                        e = {b + 1: 1, a + 1: -1} if a != b else None
                        for p, q, _ in char_lk(HalfInt(kvec[b] - kvec[a])):
                            den[mono_t(p, q, e)] += 1
                expected = (ref_matter_euler(num, frame.r), term_pow(ref_euler_class(den), -1))
                assert merged(ell_factor(frame, kvec, FactorTable())) == merged(expected)


class TestEllOnEitherTable:
    """ell(kvec)'s pieces are made by the table's `matter` and `tangent`,
    so a ``CompiledTable`` makes the ell a ``FactorTable`` makes, compiled,
    and no ``FactoredTerm``."""

    @settings(max_examples=60, deadline=None)
    @given(
        kvec=st.sampled_from(
            [(0,), (1,), (2,), (-4,), (0, 0), (1, -1), (2, -2), (4, -2), (2, 0, -2), (3, 1, -1), (4, -4, 0)]
        ),
        values=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=11, max_size=11),
    )
    @example(kvec=(4, -4, 0), values=[Fraction(v, 3) for v in range(1, 12)])
    def test_the_compiled_ell_reads_the_ell_of_pieces(self, kvec, values):
        r = len(kvec)
        point = dict(zip(scope_vars(r), values))
        ell = localization._ell_part(kvec, r, FactorTable())
        walked = Kernel([(ell,)])
        assume(clear_of(walked.pole_forms, point))
        table = localization.CompiledTable()
        made = []
        init = FactoredTerm.__init__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FactoredTerm, "__init__", lambda piece, *args: made.append(piece) or init(piece, *args))
            compiled = localization._ell_part(kvec, r, table)
        assert made == []
        built = Kernel([(compiled,)], table.compiled)
        for field in Kernel.__slots__:
            assert getattr(built, field) == getattr(walked, field), field
        assert built.evaluate(point) == [term_eval(ell, point)]


# Every framing of rank 1 to 3, and of rank 1 to 4.
FRAMES = [(w0, w1) for w0 in range(4) for w1 in range(4) if 1 <= w0 + w1 <= 3]
FRAMES_TO_4 = [(w0, w1) for w0 in range(5) for w1 in range(5) if 1 <= w0 + w1 <= 4]


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
    slot pair (per class, part and diagonal; see ``TestSharedBuild``);
    merged, it equals the whole-fixed-point term (one Euler class each
    for the whole matter and tangent characters), whatever the order in
    which the table's fixed points come.  On the resolved side, each
    fixed point's ell(kvec) is checked the same way."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_terms_equal_the_whole_fixed_point_reference(self, data):
        frame = FrameData(*data.draw(st.sampled_from(FRAMES_TO_4), label="w"))
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
            (term,) = expanded(build(fps[i], table))
            assert merged(term) == reference(fps[i])
            # unit pieces are dropped, and every piece is the table's object
            assert all(piece.factors for piece in term)
            assert {id(piece) for piece in term} <= {id(piece) for piece in table.pieces.values()}
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


_DIAGRAMS = [y for n in range(7) for y in partitions(n)]


class TestPiecesAgainstReferences:
    """Each engine piece -- a builder's (p, q) pairs with the e-part passed
    once, merged and read through a shared form memo -- equals the piece
    the ``Counter`` API built (``ref_`` builders and Euler classes), factor
    for factor and in the same order: the pairs' first-seen order is the
    monomials' first-seen order.  Factor order fixes the kernel's slots
    and pole-form order, so this pins them."""

    @settings(max_examples=120, deadline=None)
    @given(
        w=st.sampled_from(FRAMES),
        ya=st.sampled_from(_DIAGRAMS),
        yb=st.sampled_from(_DIAGRAMS),
        delta=st.integers(-4, 4),
    )
    @example(w=(1, 0), ya=(3, 2, 1), yb=(3, 2, 1), delta=0)
    @example(w=(2, 1), ya=(2, 2, 1, 1), yb=(4, 1), delta=-3)
    def test_pieces_equal_the_counter_pieces(self, w, ya, yb, delta):
        frame = FrameData(*w)
        r = frame.r
        table = FactorTable()
        for alpha in range(1, r + 1):
            e = slot_part(alpha)
            matter = [
                (char_v_p2(ya), ref_char_v_p2(alpha, ya)),
                (char_twist(delta), ref_char_v_twist(alpha, delta, 0)),
            ]
            matter.append((char_v_x0(frame.colors[alpha - 1], ya), ref_char_v_x0(frame, alpha, ya, 0)))
            for chart in CHART_MATRICES:
                matter.append((char_v_x1(delta, chart, ya), ref_char_v_x1(alpha, delta, chart, ya, 0)))
            for pairs, ch in matter:
                expected = ref_matter_euler(ch, r)
                assert matter_euler(pairs, e, r, table.masses) == expected
                assert matter_euler(pairs, e, r) == expected
            for beta in range(1, r + 1):
                e = ratio_part(alpha, beta)
                tangent = [
                    (char_tangent_p2(ya, yb), ref_char_tangent_p2(alpha, beta, ya, yb)),
                    (char_tangent_x0((frame.colors[beta - 1] - frame.colors[alpha - 1]) % 2, ya, yb),
                     ref_char_tangent_x0(frame, alpha, beta, ya, yb)),
                    (char_twist(delta), ref_char_tangent_twist(alpha, beta, delta)),
                ]
                for chart in CHART_MATRICES:
                    tangent.append((
                        char_tangent_x1(delta, chart, ya, yb),
                        ref_char_tangent_x1(alpha, beta, delta, chart, ya, yb),
                    ))
                for pairs, ch in tangent:
                    if e == () and (0, 0, ()) in ch:
                        with pytest.raises(VanishingWeight):
                            euler_class(pairs, e, table.weights)
                        continue
                    expected = ref_euler_class(ch)
                    assert euler_class(pairs, e, table.weights) == expected
                    assert euler_class(pairs, e) == expected
                    if pairs:  # the slot walk makes no piece of an empty character
                        assert table.tangent(pairs, e) == term_pow(expected, -1)

    def test_orbifold_pieces_repeat_weights(self):
        """zx0 at w = (1, 0), k = 0, max-n 8 (diagrams up to 16 boxes) has
        tangent pieces whose pairs repeat, so the merge is exercised where
        the golden pin of that series runs."""
        frame = FrameData(1, 0)
        table = FactorTable()
        repeated = 0
        for v0 in range(9):
            for fp in enum_fixed_points_x0(frame, v0, v0):
                (y,) = fp
                pairs = char_tangent_x0(0, y, y)  # a diagonal pair's colors cancel
                repeated += len(set(pairs)) < len(pairs)
                term_x0(frame, fp, table)
        # 434 fixed points, each with a matter and a tangent piece; the
        # empty diagram's two are empty by construction and never built,
        # so every piece the table holds has factors
        assert len(table.pieces) == 866
        assert all(piece.factors for piece in table.pieces.values())
        assert repeated == 303
        assert min(exp for piece in table.pieces.values() for _, exp in piece.factors) < -1


def _diagonal(term) -> list:
    """The term's diagonal tangent pieces: the only pieces with e-part (),
    so the only ones whose forms have no frame part."""
    return [piece for piece in term if not any(form.frame for form, _ in piece.factors)]


class TestSharedBuild:
    """A series build makes what its fixed points share once: a slot's
    and a slot pair's character once per class, a diagonal tangent piece
    once per diagram (per chart on the resolved side), a resolved term
    from one ell part and two chart parts, and no piece whose character
    is empty by construction.  ``TestSharedFactorTable`` checks that the
    terms stay the whole-fixed-point terms."""

    @pytest.mark.parametrize("w", [(3, 0), (1, 2), (2, 2)])
    def test_each_character_is_built_once_per_build(self, monkeypatch, w):
        # a builder's arguments are its character's key: a slot's matter
        # character depends on Y_alpha on the plane, also on color(alpha)
        # on the orbifold, and on (2k_alpha, chart, Y_alpha) on a chart; a
        # slot pair's character depends on (Y_alpha, Y_beta) on the plane,
        # also on color(beta) - color(alpha) mod 2 on the orbifold, and on
        # (delta, chart, Y_alpha, Y_beta) on a chart
        frame = FrameData(*w)
        keys = {"v_p2": [], "v_x0": [], "v_x1": [], "p2": [], "x0": [], "x1": []}

        def counted(kind, build):
            def counting(*args):
                keys[kind].append(args)
                return build(*args)

            monkeypatch.setattr(localization, build.__name__, counting)

        counted("v_p2", char_v_p2)
        counted("v_x0", char_v_x0)
        counted("v_x1", char_v_x1)
        counted("p2", char_tangent_p2)
        counted("x0", char_tangent_x0)
        counted("x1", char_tangent_x1)
        series_zp2(frame.r, 2)
        series_zx0(frame, H(0), 8 + frame.w1)
        series_zx1(frame, H(0), 8 + frame.w1)
        for kind, built in keys.items():
            assert built, kind
            assert len(built) == len(set(built)), kind

    def test_every_slot_shares_one_diagonal_piece(self):
        y = (2, 1)
        table = FactorTable()
        plane = _diagonal(term_p2(3, (y, y, y), table))
        assert len(plane) == 3 and len({id(piece) for piece in plane}) == 1
        # slots of both colors, in one orbifold build
        frame = FrameData(1, 2)
        fps = [
            fp
            for v0 in range(7)
            for v1 in range(7)
            for fp in enum_fixed_points_x0(frame, v0, v1)
            if len(set(fp)) == 1
        ]
        diagonals = {}
        for fp in fps:
            pieces = _diagonal(term_x0(frame, fp, table))
            assert len({id(piece) for piece in pieces}) <= 1
            if pieces:
                assert len(pieces) == frame.r
                assert diagonals.setdefault(fp[0], pieces[0]) is pieces[0]
        assert len(diagonals) > 1
        # on the resolved side, one per chart, whatever the slots' k
        frame, table = FrameData(2, 0), FactorTable()
        first = _diagonal(*expanded(term_x1(frame, fp_x1([2, -2], [y, y], [(), y]), table)))
        second = _diagonal(*expanded(term_x1(frame, fp_x1([0, 0], [y, ()], [y, y]), table)))
        assert [id(piece) for piece in first] == [id(first[0])] * 2 + [id(first[2])]
        assert first[0] is not first[2]
        assert [id(piece) for piece in second] == [id(first[0])] + [id(first[2])] * 2

    @pytest.mark.parametrize("w", [(1, 0), (0, 1), (2, 0), (1, 1)])
    def test_rank_one_keeps_no_character_memo(self, w):
        # at rank 1 a character class is one piece's, so a class memo
        # would hold one character per piece: zx0 and zx1 terms through
        # one table leave it empty there, and fill it from rank 2 on
        frame, table = FrameData(*w), FactorTable()
        for v0 in range(3):
            for v1 in range(3):
                for fp in enum_fixed_points_x0(frame, v0, v1):
                    term_x0(frame, fp, table)
        for g in range(frame.w1 % 4, 9 + frame.w1, 4):
            for fp in enum_fixed_points_x1(frame, HalfInt(frame.w1 % 2), g):
                term_x1(frame, fp, table)
        assert table.pieces
        assert bool(table.chars) == (frame.r > 1)

    def test_no_piece_is_built_from_an_empty_character(self, monkeypatch):
        calls = []
        for name in ("euler_class", "matter_euler"):
            build = getattr(localization, name)
            monkeypatch.setattr(
                localization, name, lambda pairs, *rest, build=build: calls.append(pairs) or build(pairs, *rest)
            )
        # zx0's pieces are compiled as they are made, by its table
        for name in ("matter", "tangent"):
            build = getattr(localization.CompiledTable, name)
            monkeypatch.setattr(
                localization.CompiledTable,
                name,
                lambda table, pairs, *rest, build=build: calls.append(pairs) or build(table, pairs, *rest),
            )
        # rank 500 at max-n 0: one fixed point, with no boxes, so no piece
        frame = FrameData(500, 0)
        assert {g: expanded_terms(c) for g, c in series_zx1(frame, H(0), 0).coeffs.items()} == {0: ((),)}
        assert series_zx0(frame, H(0), 0).coeffs == {0: ((0, 0, 0, ()),)}  # the compiled empty term
        assert series_zp2(500, 0).coeffs == {0: ((),)}
        assert calls == []
        # on every series the slot walk hands its table no empty character,
        # whatever made it empty: no boxes, the orbifold's parity filter,
        # or a line-bundle twist with |d| <= 1
        frame = FrameData(2, 1)
        series_zx0(frame, H("1/2"), 8 + frame.w1)
        series_zp2(frame.r, 2)
        series_zx1(frame, H("1/2"), 8 + frame.w1)
        assert calls and all(calls)
