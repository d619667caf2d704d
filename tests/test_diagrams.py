"""Diagram combinatorics, colorings, fixed-point and wall enumeration."""

import sys
from collections import Counter
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nekrasov import diagrams
from nekrasov.diagrams import (
    FixedPointX1,
    FrameData,
    GradeError,
    HalfInt,
    boxes,
    diagram_tuples,
    enum_fixed_points_x0,
    enum_fixed_points_x1,
    enum_kvectors,
    enum_walls,
    partitions,
    transpose,
)
from whole_fixed_point import (
    arm_in,
    closure_fixed_points_x0,
    closure_kvectors,
    colored_counts,
    colored_sizes,
    leg_in,
    recursive_diagram_tuples,
)


def H(text):
    return HalfInt.parse(str(text))


class TestArmLeg:
    def test_single_box(self):
        assert (arm_in((1,), 1, 1), leg_in((1,), 1, 1)) == (0, 0)

    def test_hook_corner(self):
        assert (arm_in((2, 1), 1, 1), leg_in((2, 1), 1, 1)) == (1, 1)

    def test_hook_top(self):
        assert (arm_in((2, 1), 1, 2), leg_in((2, 1), 1, 2)) == (0, 0)


class TestColoring:
    @pytest.mark.parametrize(
        "diagram, l, expected",
        [
            ((1,), 0, (1, 0)),
            ((1,), 1, (0, 1)),
            ((2,), 0, (1, 1)),
        ],
    )
    def test_examples(self, diagram, l, expected):
        assert colored_sizes(diagram, l) == expected

    def test_counts_total_and_flip(self):
        for n in range(7):
            for diagram in partitions(n):
                n0, n1 = colored_sizes(diagram, 0)
                assert n0 + n1 == n
                assert colored_sizes(diagram, 1) == (n1, n0)


def test_transpose_involution_exhaustive_to_size_8():
    for n in range(9):
        for diagram in partitions(n):
            assert transpose(transpose(diagram)) == diagram


def test_memoized_transpose_equals_the_row_lengths_to_size_8():
    """transpose is memoized; each call, first or repeated, gives the row
    lengths counted box by box."""
    for n in range(9):
        for diagram in partitions(n):
            rows = Counter(j for _, j in boxes(diagram))
            expected = tuple(rows[j] for j in range(1, len(rows) + 1))
            assert transpose(diagram) == expected
            assert transpose(tuple(list(diagram))) == expected  # an equal tuple: a memo hit


def test_diagram_order_within_size():
    assert partitions(2) == ((2,), (1, 1))
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))


class TestFixedPointsX0:
    def test_single_box_color0(self):
        fps = enum_fixed_points_x0(FrameData(1, 0), 1, 0)
        assert fps == [((1,),)]

    def test_single_box_wrong_color_empty(self):
        assert enum_fixed_points_x0(FrameData(1, 0), 0, 1) == []

    def test_two_boxes(self):
        fps = enum_fixed_points_x0(FrameData(1, 0), 1, 1)
        assert fps == [((2,),), ((1, 1),)]

    @pytest.mark.parametrize("w", [(1, 0), (0, 1), (1, 1), (2, 0)])
    def test_recount_reproduces_colors(self, w):
        frame = FrameData(*w)
        for total in range(5):
            for v0 in range(total + 1):
                v1 = total - v0
                for fp in enum_fixed_points_x0(frame, v0, v1):
                    assert colored_counts(frame, fp) == (v0, v1)


def _filtered_x0(frame, v0, v1):
    """Brute-force reference: every tuple of size v0 + v1, kept when its
    colored sizes are (v0, v1)."""
    return [tup for tup in diagram_tuples(frame.r, v0 + v1) if colored_counts(frame, tup) == (v0, v1)]


class TestPrunedX0Enumeration:
    @settings(max_examples=150, deadline=None)
    @given(
        w=st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
            lambda w: 1 <= w[0] + w[1] <= 3
        ),
        v0=st.integers(-1, 7),
        v1=st.integers(-1, 7),
    )
    def test_same_points_in_same_order_as_the_filter(self, w, v0, v1):
        assume(v0 + v1 <= 7)
        frame = FrameData(*w)
        assert enum_fixed_points_x0(frame, v0, v1) == _filtered_x0(frame, v0, v1)

    def test_large_unreachable_count_never_enumerates_its_partitions(self, monkeypatch):
        # Rank 1, color 0: box (1,1) has color 0, so (v0, v1) = (0, 40) has
        # no fixed point, and the filter would build all 37338 diagrams of
        # size 40 to find that out.
        asked = []
        original = diagrams.partitions

        def counting(n, max_part=None):
            asked.append(n)
            return original(n, max_part)

        monkeypatch.setattr(diagrams, "partitions", counting)
        assert enum_fixed_points_x0(FrameData(1, 0), 0, 40) == []
        assert asked == []


_FRAMES_UP_TO_RANK_3 = [
    FrameData(w0, w1) for w0 in range(4) for w1 in range(4 - w0) if w0 + w1 >= 1
]


class TestAgainstClosureEnumerators:
    """The module-level enumerators list what the closure-based ones did,
    in the same order."""

    @pytest.mark.parametrize("frame", _FRAMES_UP_TO_RANK_3, ids=repr)
    def test_orbifold_fixed_points(self, frame):
        for v0 in range(5):
            for v1 in range(5):
                expected = closure_fixed_points_x0(frame, v0, v1)
                assert enum_fixed_points_x0(frame, v0, v1) == expected, (v0, v1)

    @pytest.mark.parametrize("frame", _FRAMES_UP_TO_RANK_3, ids=repr)
    def test_first_chern_vectors(self, frame):
        for k in (H(-1), H("-1/2"), H(0), H("1/2"), H(1)):
            for max4n in range(17):
                assert enum_kvectors(frame, k, max4n) == closure_kvectors(frame, k, max4n)


class TestLargeCounts:
    """A count far beyond what the other color's room can pair with is cut
    at once, not walked box by box."""

    @pytest.mark.parametrize("w0, w1", [(1, 0), (2, 0), (3, 0), (1, 1), (0, 2)])
    def test_unreachable_counts_are_empty(self, w0, w1):
        frame = FrameData(w0, w1)
        assert enum_fixed_points_x0(frame, 1, 10**11) == []
        assert enum_fixed_points_x0(frame, 10**11, 1) == []

    def test_one_room_caps_the_other(self):
        # Rank 1, color 0: one color-0 box pairs with at most two of color
        # 1, as the columns (2, 1).
        fps = enum_fixed_points_x0(FrameData(1, 0), 1, 2)
        assert fps == [((2, 1),)]
        assert enum_fixed_points_x0(FrameData(1, 0), 1, 3) == []


class TestLargeRanks:
    """The enumerators walk slots without a call per slot, so a rank far
    beyond the interpreter's recursion limit enumerates as a small one
    does; at max-n 0 each grade holds one fixed point."""

    RANK = 1200

    def test_the_rank_is_beyond_the_recursion_limit(self):
        assert sys.getrecursionlimit() < self.RANK

    def test_plane_tuples(self):
        slots = 2 * self.RANK
        assert list(diagram_tuples(slots, 0)) == [((),) * slots]
        assert next(diagram_tuples(slots, 1)) == ((),) * (slots - 1) + ((1,),)

    @pytest.mark.parametrize("w0, w1", [(RANK, 0), (0, RANK), (RANK - 1, 1)])
    def test_orbifold_fixed_points(self, w0, w1):
        empties = ((),) * self.RANK
        assert enum_fixed_points_x0(FrameData(w0, w1), 0, 0) == [empties]

    def test_first_chern_vectors_and_resolved_fixed_points(self):
        frame, zero = FrameData(self.RANK, 0), (0,) * self.RANK
        assert enum_kvectors(frame, H(0), 0) == [zero]
        empties = ((),) * self.RANK
        assert enum_fixed_points_x1(frame, H(0), 0) == [FixedPointX1(zero, empties, empties)]


class TestKVectors:
    def test_rank_one(self):
        assert enum_kvectors(FrameData(1, 0), H(0), 100) == [(0,)]

    def test_rank_two_integer(self):
        got = enum_kvectors(FrameData(2, 0), H(0), 8)
        assert got == [(0, 0), (2, -2), (-2, 2)]  # doubled entries

    def test_rank_two_half_odd(self):
        got = enum_kvectors(FrameData(0, 2), H(0), 4)
        assert got == [(1, -1), (-1, 1)]

    def test_parity_infeasible_k_has_none(self):
        assert enum_kvectors(FrameData(1, 1), H(0), 8) == []

    def test_closed_under_color_block_permutation(self):
        frame = FrameData(2, 2)
        vectors = set(enum_kvectors(frame, H(1), 20))
        for vec in vectors:
            assert (vec[1], vec[0], vec[2], vec[3]) in vectors
            assert (vec[0], vec[1], vec[3], vec[2]) in vectors


class TestFixedPointsX1:
    def test_grade_zero_single(self):
        fps = enum_fixed_points_x1(FrameData(1, 0), H(0), 0)
        assert len(fps) == 1
        assert fps[0].kvec == (0,)
        assert fps[0].y1 == ((),) and fps[0].y2 == ((),)

    def test_counts_1_2_5(self):
        frame = FrameData(1, 0)
        counts = [len(enum_fixed_points_x1(frame, H(0), g)) for g in (0, 4, 8)]
        assert counts == [1, 2, 5]

    def test_grade_matches_stored_data(self):
        frame = FrameData(1, 1)
        for g in (1, 5, 9):
            for fp in enum_fixed_points_x1(frame, H("1/2"), g):
                squares = sum(d * d for d in fp.kvec)
                assert squares + 4 * sum(map(sum, fp.y1 + fp.y2)) == g

    def test_parity_infeasible_k_and_grade_error(self):
        assert enum_fixed_points_x1(FrameData(1, 0), H("1/2"), 4) == []
        with pytest.raises(GradeError):
            enum_fixed_points_x1(FrameData(1, 0), H(0), 5)

    def test_swapping_diagram_roles_is_a_bijection(self):
        frame = FrameData(2, 0)
        for g in (0, 4, 8):
            fps = enum_fixed_points_x1(frame, H(0), g)
            swapped = {(fp.kvec, fp.y2, fp.y1) for fp in fps}
            assert swapped == {(fp.kvec, fp.y1, fp.y2) for fp in fps}


def colored_partition_counts(colors: int, top: int) -> list[int]:
    """The q^n coefficients, n <= top, of prod_m (1 - q^m)^(-colors): the
    number of `colors`-tuples of diagrams of n boxes in all, by series
    multiplication, one factor 1/(1 - q^m) per color and part size."""
    series = [1] + [0] * top
    for _ in range(colors):
        for m in range(1, top + 1):
            for n in range(m, top + 1):
                series[n] += series[n - m]
    return series


def kvector_counts(frame: FrameData, doubled_k: int, max4n: int) -> dict:
    """{sum of squares: count} of the doubled first-Chern vectors summing to
    doubled_k with squares summing to at most max4n: a walk over slots
    keeping the count of each (sum, sum of squares) reached, each entry
    ranging over the doubles of its slot's color's parity."""
    reach = isqrt(max4n)
    states = Counter({(0, 0): 1})
    for color in frame.colors:
        after = Counter()
        for (total, squares), n in states.items():
            for d in range(-reach, reach + 1):
                if d % 2 == color and squares + d * d <= max4n:
                    after[total + d, squares + d * d] += n
        states = after
    return Counter({squares: n for (total, squares), n in states.items() if total == doubled_k})


def colored_diagram_counts(color: int, top: int) -> Counter:
    """{(a, b): count} of the diagrams framed with `color` that have a
    boxes of color 0 and b of color 1, a, b <= top, read off
    sum_k x^a_k y^b_k prod_n (1 - (xy)^n)^(-2): a diagram is its 2-core,
    the staircase delta_k = (k, k - 1, ..., 1), and its 2-quotient, a
    pair of diagrams whose every box is a domino, one box of each color.
    A box of delta_k on anti-diagonal i + j = s has color (s + color) mod 2,
    and delta_k holds s - 1 boxes there."""
    cores, k = [], 0
    while True:
        a = sum([s - 1 for s in range(2, k + 2) if (s + color) % 2 == 0])
        b = k * (k + 1) // 2 - a
        if a > top or b > top:  # a and b never fall as k grows
            break
        cores.append((a, b))
        k += 1
    dominoes = colored_partition_counts(2, top)
    out = Counter()
    for a, b in cores:
        for m in range(top + 1 - max(a, b)):
            out[a + m, b + m] += dominoes[m]
    return out


class TestGeneratingFunctions:
    """The enumerators count what the generating functions predict: r
    diagrams of n boxes in all are the q^n coefficient of prod (1 -
    q^m)^(-r); the orbifold fixed points with colored counts (v0, v1) are
    the x^v0 y^v1 coefficient of the product over slots of each slot's
    colored diagram series (`colored_diagram_counts`); the resolved fixed
    points of grade g are, summed over the first-Chern vectors,
    p_2r((g - 4 sum k_alpha^2) / 4)."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_plane_tuples(self, r):
        predicted = colored_partition_counts(r, 8)
        assert [len(list(diagram_tuples(r, n))) for n in range(9)] == predicted

    @pytest.mark.parametrize("w", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)], ids=str)
    def test_orbifold_fixed_points(self, w):
        frame, top = FrameData(*w), 4
        predicted = Counter({(0, 0): 1})
        for color in frame.colors:  # one slot's series at a time
            product = Counter()
            for (a, b), n in predicted.items():
                for (c, d), m in colored_diagram_counts(color, top).items():
                    if a + c <= top and b + d <= top:
                        product[a + c, b + d] += n * m
            predicted = product
        counted = {
            (v0, v1): len(enum_fixed_points_x0(frame, v0, v1)) for v0 in range(top + 1) for v1 in range(top + 1)
        }
        assert counted == {key: predicted[key] for key in counted}
        assert min(counted.values()) == 0 < max(counted.values())

    @pytest.mark.parametrize("frame", _FRAMES_UP_TO_RANK_3, ids=repr)
    @pytest.mark.parametrize("doubled_k", [-2, -1, 0, 1, 2])
    def test_resolved_fixed_points(self, frame, doubled_k):
        k, top = HalfInt(doubled_k), 16 // frame.r
        grades = range(frame.w1 % 4, 4 * top + frame.w1 % 4 + 1, 4)
        counted = [len(enum_fixed_points_x1(frame, k, g)) for g in grades]
        boxes_of = colored_partition_counts(2 * frame.r, top)
        vectors = kvector_counts(frame, doubled_k, grades[-1])
        predicted = [
            sum(n * boxes_of[(g - squares) // 4] for squares, n in vectors.items() if squares <= g)
            for g in grades
        ]
        assert counted == predicted
        if (doubled_k + frame.w1) % 2:
            assert set(counted) == {0}
            assert enum_kvectors(frame, k, grades[-1]) == []
        else:
            assert counted[-1] > 0


class TestWalls:
    def test_empty(self):
        assert enum_walls(0, 0) == []

    def test_v_1_1(self):
        assert [w.root for w in enum_walls(1, 1)] == [(0, 1), (1, 0), (1, 1)]

    def test_v_1_2(self):
        assert [w.root for w in enum_walls(1, 2)] == [(0, 1), (1, 0), (1, 2), (1, 1)]

    def test_kinds_and_indices(self):
        walls = enum_walls(2, 2)
        real = [(w.index, w.root) for w in walls if w.kind == "real"]
        imaginary = [(w.index, w.root) for w in walls if w.kind == "imaginary"]
        assert real == [(0, (0, 1)), (-1, (1, 0)), (1, (1, 2)), (-2, (2, 1))]
        assert imaginary == [(1, (1, 1)), (2, (2, 2))]

    @staticmethod
    def _reference(v0, v1):
        """The enumeration with its loop running to max(v0, v1)."""
        out = []
        for mag in range(0, max(v0, v1) + 1):
            for m in (mag, -mag - 1):
                root = (abs(m), abs(m + 1))
                if root[0] <= v0 and root[1] <= v1:
                    out.append(diagrams.Wall("real", m, root))
        for p in range(1, min(v0, v1) + 1):
            out.append(diagrams.Wall("imaginary", p, (p, p)))
        return out

    @given(v0=st.integers(-2, 12), v1=st.integers(-2, 12))
    def test_matches_unbounded_loop(self, v0, v1):
        assert enum_walls(v0, v1) == self._reference(v0, v1)

    def test_huge_count_is_bounded_by_the_smaller_one(self):
        assert enum_walls(10**9, 2) == enum_walls(3, 2)
        assert enum_walls(2, 10**9) == enum_walls(2, 3)


class TestHalfInt:
    @pytest.mark.parametrize(
        "text, doubled", [("0", 0), ("-1", -2), ("1/2", 1), ("-3/2", -3), ("4/2", 4)]
    )
    def test_parse(self, text, doubled):
        assert HalfInt.parse(text).doubled == doubled

    def test_parse_rejects_other_denominators(self):
        with pytest.raises(ValueError):
            HalfInt.parse("1/3")
        with pytest.raises(ValueError):
            HalfInt.parse("2/4")

    def test_str_lowest_terms(self):
        assert str(H("4/2")) == "2"
        assert str(H("-1/2")) == "-1/2"
        assert str(H(3)) == "3"


@pytest.mark.parametrize("slots", range(6))
def test_diagram_tuples_in_the_recursive_order(slots):
    for total in range(6):
        assert list(diagram_tuples(slots, total)) == list(recursive_diagram_tuples(slots, total))


def test_diagram_tuples_cover_all_splits():
    tuples = list(diagram_tuples(2, 3))
    assert len(tuples) == 10  # sum over n of p(n) p(3-n): 3 + 2 + 2 + 3
    assert len(set(tuples)) == 10
    assert all(sum(map(sum, t)) == 3 for t in tuples)
