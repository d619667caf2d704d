"""Character builders: twists, tautological fibers, tangent spaces.

The engine builds one slot's or slot pair's piece at a time, as a list of
(p, q) pairs whose e-part the caller holds; the tests of a whole fixed
point's character give each piece its e-part and sum the pieces
(whole_fixed_point.py)."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nekrasov.characters import (
    _pair_weights,
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
    enum_fixed_points_x0,
    enum_fixed_points_x1,
    partitions,
)
from nekrasov.localization import ratio_part, slot_part
from whole_fixed_point import (
    CHART_MATRICES,
    char_lk,
    char_rank,
    defined_pair_weights,
    degree_mod2,
    fixed_point_x0,
    ref_char_tangent_p2,
    ref_char_tangent_twist,
    ref_char_tangent_x0,
    ref_char_tangent_x1,
    ref_char_v_p2,
    ref_char_v_twist,
    ref_char_v_x0,
    ref_char_v_x1,
    whole_tangent_p2,
    whole_tangent_x0,
    whole_tangent_x1,
    whole_v_p2,
    whole_v_x0,
    whole_v_x1,
    with_e,
)


def H(text):
    return HalfInt.parse(str(text))


def fp_x0(frame, *diagrams):
    return fixed_point_x0(frame, diagrams)


def fp_x1(kvec, y1, y2):
    return FixedPointX1(tuple(kvec), tuple(y1), tuple(y2))


def counted(*monos):
    return Counter(monos)


def mono_t(p, q, e=None):
    """t1^p t2^q times prod e_alpha^exp, as the (p, q, e) tuple."""
    return (p, q, tuple(sorted((a, x) for a, x in (e or {}).items() if x)))


def mono_mul(a, b):
    e = dict(a[2])
    for alpha, exp in b[2]:
        e[alpha] = e.get(alpha, 0) + exp
    return mono_t(a[0] + b[0], a[1] + b[1], e)


class TestTwistCharacter:
    def test_half_is_empty(self):
        assert char_lk(H("1/2")) == {}

    def test_one(self):
        assert char_lk(H(1)) == counted(mono_t(1, 1))

    def test_three_halves(self):
        assert char_lk(H("3/2")) == counted(mono_t(2, 1), mono_t(1, 2))

    def test_minus_one(self):
        assert char_lk(H(-1)) == counted(mono_t(0, 0))

    def test_engine_twist_pieces_are_the_lattice_character(self):
        # a slot's twist piece is e_alpha times it; a pair's, e_beta/e_alpha
        for doubled in range(-6, 7):
            ch = char_lk(HalfInt(doubled))
            assert char_twist(doubled) == [(p, q) for p, q, _ in ch]
            assert with_e(char_twist(doubled), slot_part(2)) == {
                (p, q, ((2, 1),)): n for (p, q, _), n in ch.items()
            }
            assert with_e(char_twist(doubled), ratio_part(1, 1)) == ch
            assert with_e(char_twist(doubled), ratio_part(1, 2)) == {
                (p, q, ((1, -1), (2, 1))): n for (p, q, _), n in ch.items()
            }

    def test_rank_formula_up_to_4(self):
        # independent oracle: count lattice points of the defining index set
        for doubled in range(-8, 9):
            bound = abs(doubled) - 2
            expected = sum(
                1
                for i in range(max(bound, 0) + 1)
                for j in range(max(bound, 0) + 1)
                if i + j <= bound and (i + j - doubled) % 2 == 0
            )
            k = H(f"{doubled}/2")
            assert char_rank(char_lk(k)) == expected
            if doubled % 2 == 0:
                assert expected == (doubled // 2) ** 2
            else:
                assert expected == (doubled * doubled - 1) // 4
            assert char_rank(char_lk(-k)) == expected


class TestTautologicalFibers:
    def test_x0_single_box(self):
        frame = FrameData(1, 0)
        fp = fp_x0(frame, (1,))
        assert whole_v_x0(frame, fp) == counted(mono_t(0, 0, {1: 1}))

    def test_x0_column_of_two(self):
        frame = FrameData(1, 0)
        fp = fp_x0(frame, (2,))
        # the second box's monomial t2^-1 e_1 is odd
        assert whole_v_x0(frame, fp) == counted(mono_t(0, 0, {1: 1}))

    def test_x0_parts_sum_to_size(self):
        frame = FrameData(1, 1)
        for total in range(5):
            for v0 in range(total + 1):
                for fp in enum_fixed_points_x0(frame, v0, total - v0):
                    # the degree-1 part is read off the reference
                    odd = [ref_char_v_x0(frame, a, y, 1) for a, y in enumerate(fp.diagrams, start=1)]
                    ranks = [char_rank(whole_v_x0(frame, fp)), sum(map(char_rank, odd))]
                    assert sum(ranks) == total
                    assert ranks == [fp.v0, fp.v1]

    def test_x1_empty(self):
        frame = FrameData(1, 0)
        fp = fp_x1([H(0)], [()], [()])
        assert whole_v_x1(frame, fp) == {}

    def test_x1_pure_twist(self):
        frame = FrameData(1, 0)
        fp = fp_x1([H(1)], [()], [()])
        assert whole_v_x1(frame, fp) == counted(mono_t(1, 1, {1: 1}))

    def test_p2_examples(self):
        assert whole_v_p2([()]) == {}
        assert whole_v_p2([(1,)]) == counted(mono_t(0, 0, {1: 1}))
        assert whole_v_p2([(2,)]) == counted(
            mono_t(0, 0, {1: 1}), mono_t(0, -1, {1: 1})
        )


class TestPairCharacter:
    def test_empty(self):
        assert char_tangent_p2((), ()) == []

    def test_single_boxes(self):
        assert char_tangent_p2((1,), (1,)) == [(0, 1), (1, 0)]

    def test_columns_of_two(self):
        assert char_tangent_p2((2,), (2,)) == [(0, 2), (0, 1), (1, -1), (1, 0)]

    def test_distinct_slots_carry_framing_ratio(self):
        # the single box of Y_a has arm 0 in Y_a and leg -1 in the empty Y_b
        ch = with_e(char_tangent_p2((1,), ()), ratio_part(1, 2))
        assert ch == counted(mono_t(1, 1, {2: 1, 1: -1}))

    def test_repeated_weights_are_kept(self):
        # two boxes of (2, 1) have arm 0 and leg 0: (0, 1) comes twice,
        # and so does its mirror (1, 0)
        assert char_tangent_p2((2, 1), (2, 1)) == [(-1, 2), (0, 1), (0, 1), (2, -1), (1, 0), (1, 0)]


class TestTangentCharacters:
    def test_p2_single_box(self):
        ch = whole_tangent_p2(1, [(1,)])
        assert ch == counted(mono_t(0, 1), mono_t(1, 0))
        assert char_rank(ch) == 2

    def test_p2_rank_formula(self):
        for r in (1, 2):
            for total in range(5):
                for tup in diagram_tuples(r, total):
                    assert char_rank(whole_tangent_p2(r, tup)) == 2 * r * total

    def test_x0_single_box_rigid(self):
        frame = FrameData(1, 0)
        assert whole_tangent_x0(frame, fp_x0(frame, (1,))) == {}

    def test_x0_column_and_row(self):
        frame = FrameData(1, 0)
        assert whole_tangent_x0(frame, fp_x0(frame, (2,))) == counted(
            mono_t(0, 2), mono_t(1, -1)
        )
        assert whole_tangent_x0(frame, fp_x0(frame, (1, 1))) == counted(
            mono_t(2, 0), mono_t(-1, 1)
        )

    @pytest.mark.parametrize("w", [(1, 0), (0, 1), (1, 1), (2, 0)])
    def test_x0_rank_is_moduli_dimension(self, w):
        frame = FrameData(*w)
        for total in range(5):
            for v0 in range(total + 1):
                v1 = total - v0
                expected = 2 * (frame.w0 * v0 + frame.w1 * v1) - 2 * (v0 - v1) ** 2
                for fp in enum_fixed_points_x0(frame, v0, v1):
                    assert char_rank(whole_tangent_x0(frame, fp)) == expected

    def test_x1_pure_twist_rigid(self):
        frame = FrameData(1, 0)
        assert whole_tangent_x1(frame, fp_x1([H(1)], [()], [()])) == {}

    def test_x1_single_box_first_chart(self):
        frame = FrameData(1, 0)
        ch = whole_tangent_x1(frame, fp_x1([H(0)], [(1,)], [()]))
        assert ch == counted(mono_t(-1, 1), mono_t(2, 0))

    def test_x1_single_box_second_chart(self):
        frame = FrameData(1, 0)
        ch = whole_tangent_x1(frame, fp_x1([H(0)], [()], [(1,)]))
        assert ch == counted(mono_t(0, 2), mono_t(1, -1))

    def test_x1_rank_two_boxes_in_both_charts(self):
        # kvec = (1, -1): the off-diagonal chart weights are shifted by
        # t_i^(2(k_beta - k_alpha)) = t_i^(-/+4)
        frame = FrameData(2, 0)
        ch = whole_tangent_x1(frame, fp_x1([H(1), H(-1)], [(1,), ()], [(), (1,)]))
        e21, e12 = {2: 1, 1: -1}, {1: 1, 2: -1}
        assert ch == counted(
            mono_t(-1, 1), mono_t(2, 0), mono_t(0, 2), mono_t(1, -1),
            mono_t(-3, 1, e21), mono_t(-2, 0, e21), mono_t(-1, -1, e21),
            mono_t(0, -4, e21), mono_t(0, -2, e21), mono_t(0, 0, e21),
            mono_t(1, 1, e12), mono_t(1, 3, e12), mono_t(1, 5, e12),
            mono_t(2, 2, e12), mono_t(3, 1, e12), mono_t(4, 0, e12),
        )

    def test_x1_rank_two_twists(self):
        frame = FrameData(2, 0)
        ch = whole_tangent_x1(frame, fp_x1([H(1), H(-1)], [(), ()], [(), ()]))
        assert char_rank(ch) == 8
        e21 = mono_t(0, 0, {2: 1, 1: -1})
        e12 = mono_t(0, 0, {1: 1, 2: -1})
        expected = {}
        for m in char_lk(H(-2)):
            expected[mono_mul(e21, m)] = 1
        for m in char_lk(H(2)):
            expected[mono_mul(e12, m)] = 1
        assert ch == expected

    @staticmethod
    def _x1_reference(frame, fp):
        """The resolved tangent character with each chart applied as an
        exponent matrix to the plane pair character, then shifted by t_i^(2(k_b - k_a))."""
        charts = (((2, -1), (0, 1)), ((1, 0), (-1, 2)))
        out = Counter()
        for a in range(frame.r):
            for b in range(frame.r):
                delta = fp.kvec[b].doubled - fp.kvec[a].doubled
                ratio = mono_t(0, 0, {b + 1: 1, a + 1: -1})
                for m, n in char_lk(HalfInt(delta)).items():
                    out[mono_mul(m, ratio)] += n
                for side, (ys, m) in enumerate(zip((fp.y1, fp.y2), charts)):
                    shift = (delta, 0) if side == 0 else (0, delta)
                    for (p, q, e), n in ref_char_tangent_p2(a + 1, b + 1, ys[a], ys[b]).items():
                        image = (
                            m[0][0] * p + m[0][1] * q + shift[0],
                            m[1][0] * p + m[1][1] * q + shift[1],
                            e,
                        )
                        out[image] += n
        return out

    @pytest.mark.parametrize("w, k", [((1, 0), "1"), ((2, 0), "-1"), ((1, 1), "1/2")])
    def test_x1_charts_match_exponent_matrices(self, w, k):
        frame = FrameData(*w)
        for g in range(frame.w1 % 4, frame.w1 + 13, 4):
            for fp in enum_fixed_points_x1(frame, H(k), g):
                assert whole_tangent_x1(frame, fp) == self._x1_reference(frame, fp)

    @pytest.mark.parametrize(
        "w, k",
        [((1, 0), "0"), ((1, 0), "1"), ((0, 1), "1/2"), ((1, 1), "1/2"), ((2, 0), "0")],
    )
    def test_x1_rank_constant_per_grade(self, w, k):
        frame = FrameData(*w)
        for g in range(frame.w1 % 4, frame.w1 + 9, 4):
            ranks = {
                char_rank(whole_tangent_x1(frame, fp))
                for fp in enum_fixed_points_x1(frame, H(k), g)
            }
            assert len(ranks) <= 1


class TestDegree:
    def test_t1_is_odd(self):
        assert degree_mod2(mono_t(1, 0), FrameData(1, 0)) == 1

    def test_t1_t2_e1_is_even(self):
        assert degree_mod2(mono_t(1, 1, {1: 1}), FrameData(1, 0)) == 0

    def test_second_color_framing_is_odd(self):
        assert degree_mod2(mono_t(0, 0, {2: 1}), FrameData(1, 1)) == 1

    def test_homomorphism(self):
        frame = FrameData(1, 1)
        monos = [
            mono_t(1, 0),
            mono_t(0, -1, {1: 1}),
            mono_t(2, 1, {2: 1}),
            mono_t(-1, 3, {1: -1, 2: 2}),
        ]
        for a in monos:
            for b in monos:
                lhs = degree_mod2(mono_mul(a, b), frame)
                rhs = (degree_mod2(a, frame) + degree_mod2(b, frame)) % 2
                assert lhs == rhs


def test_diagonal_pair_weights_equal_their_definition_to_size_8():
    """For Y_a = Y_b, _pair_weights reads the second half off the first,
    as (1 - p, 1 - q), and char_tangent_x0 filters only the first half by
    parity and mirrors it; both equal the box-by-box definition, at color
    offsets 0 and 1."""
    frame = FrameData(1, 1)
    for n in range(9):
        for diagram in partitions(n):
            defined = defined_pair_weights(diagram, diagram)
            assert _pair_weights(diagram, diagram) == defined
            for beta, c in ((1, 0), (2, 1)):
                expected = [(p, q) for p, q in defined if (p + q + c) % 2 == 0]
                assert char_tangent_x0(frame, 1, beta, diagram, diagram) == expected


_DIAGRAMS = [y for n in range(7) for y in partitions(n)]


def _as_reference(pairs, e, reference):
    """`pairs` with e-part e is the reference piece, monomial for monomial:
    the same multiset, with its distinct monomials in the same first-seen
    order."""
    ch = with_e(pairs, e)
    return ch == reference and list(ch) == list(reference)


class TestCharactersAgainstDefinitions:
    """The builders read arms and legs off one transpose per diagram, keep
    the Z2-invariant part by one parity test per weight (the first half of
    a diagonal pair only, mirrored) or a stepped row range, and leave the
    e-part to the caller; with it, each piece equals the ``Counter``
    reference built from the box-by-box definitions (``arm_in``,
    ``leg_in``, ``degree_mod2``), monomial for monomial and in the same
    order, for every slot pair of frames with r <= 3 and mixed colors,
    both charts and delta in [-4, 4]."""

    @settings(max_examples=150, deadline=None)
    @given(
        w=st.sampled_from([(w0, w1) for w0 in range(4) for w1 in range(4) if 1 <= w0 + w1 <= 3]),
        ya=st.sampled_from(_DIAGRAMS),
        yb=st.sampled_from(_DIAGRAMS),
        delta=st.integers(-4, 4),
    )
    @example(w=(1, 2), ya=(3, 1, 1), yb=(2, 2), delta=-1)
    @example(w=(0, 1), ya=(), yb=(1, 1, 1, 1, 1, 1), delta=4)
    @example(w=(1, 1), ya=(3, 2, 1), yb=(3, 2, 1), delta=0)
    def test_builders_equal_their_definitions(self, w, ya, yb, delta):
        frame = FrameData(*w)
        assert _pair_weights(ya, yb) == defined_pair_weights(ya, yb)
        for alpha in range(1, frame.r + 1):
            e = slot_part(alpha)
            assert _as_reference(char_v_p2(ya), e, ref_char_v_p2(alpha, ya))
            assert _as_reference(char_v_x0(frame, alpha, ya), e, ref_char_v_x0(frame, alpha, ya, 0))
            assert _as_reference(char_twist(delta), e, ref_char_v_twist(alpha, delta, 0))
            for chart in CHART_MATRICES:
                assert _as_reference(char_v_x1(delta, chart, ya), e, ref_char_v_x1(alpha, delta, chart, ya, 0))
            for beta in range(1, frame.r + 1):
                e = ratio_part(alpha, beta)
                plane = ref_char_tangent_p2(alpha, beta, ya, yb)
                assert _as_reference(char_tangent_p2(ya, yb), e, plane)
                assert _as_reference(
                    char_tangent_x0(frame, alpha, beta, ya, yb),
                    e,
                    ref_char_tangent_x0(frame, alpha, beta, ya, yb),
                )
                assert _as_reference(char_twist(delta), e, ref_char_tangent_twist(alpha, beta, delta))
                for chart in CHART_MATRICES:
                    assert _as_reference(
                        char_tangent_x1(delta, chart, ya, yb),
                        e,
                        ref_char_tangent_x1(alpha, beta, delta, chart, ya, yb),
                    )
