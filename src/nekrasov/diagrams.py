"""Young diagrams, Z2-colorings, and fixed-point enumeration.

Conventions: a diagram is a weakly decreasing tuple of positive column
heights (lambda_1 >= lambda_2 >= ...), and a box is addressed as (i, j) =
(column, row), both 1-based.  With these conventions the arm and leg of a
box s = (i, j) are

    arm(s) = lambda_i - j        boxes above s in its column
    leg(s) = lambda'_j - i       boxes right of s in its row
                                 (lambda' = transpose heights)

which is exactly what the tangent-weight formulas consume.  The Z2-color
of a box in a diagram framed with color l is l + (i-1) + (j-1) mod 2.

Enumeration orders are fixed once and for all so that every run of the
engine produces identical output: diagrams are ordered by (size, then
reverse-lexicographic on columns), tuples of diagrams lexicographically
in that order, and k-vectors coordinate-wise with each coordinate ranged
over 0, 1, -1, 2, -2, ... (doubled values, smallest absolute value first).

A fixed point is the plain data its readers use: on the plane and on
the orbifold a tuple of diagrams, one per framing slot; on the
resolution a `FixedPointX1` (kvec, Y1, Y2), the first-Chern vector kvec
held as its doubled entries 2k_alpha, ints like every other doubled
datum of the engine.  The requested total k stays a `HalfInt`.  Whether
k admits a first-Chern vector at all (2k + w1 even) is decided in one
place, `enum_kvectors`, which returns none otherwise.

The enumerators walk framing slots with `_heads`, an explicit stack of
one iterator per slot, not one call per slot, so a request of any rank
runs at the same call depth.  Only `partitions` and `_columns` recurse,
once per column, which the box count bounds.  Each is a module-level
function that takes its state as arguments: a nested recursive closure
reaches itself through its own cell, a reference cycle, which would keep
the closure and the fixed points it appended to until the cyclic
collector ran.  The engine allocates no reference cycles (a tier-1 test
checks every series build and check), so reference counting frees all
its garbage and `cli.main` runs each request with the cyclic collector
off.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache, partial
from math import isqrt

from .exact import Record

YoungDiagram = tuple


class GradeError(ValueError):
    """Requested series grade not congruent to w1 mod 4."""


@lru_cache(maxsize=None)
def transpose(diagram: YoungDiagram) -> YoungDiagram:
    """Row lengths lambda'_j, j = 1..lambda_1.  Memoized like `partitions`:
    the enumerated diagrams are few and each is transposed many times."""
    if not diagram:
        return ()
    width = diagram[0]
    return tuple(sum(1 for c in diagram if c >= j) for j in range(1, width + 1))


def boxes(diagram: YoungDiagram) -> Iterator[tuple[int, int]]:
    """All boxes (column i, row j), column-major, 1-based."""
    for i, height in enumerate(diagram, start=1):
        for j in range(1, height + 1):
            yield (i, j)


class FrameData(Record):
    """Framing dimensions (w0, w1); colors are 0 for the first w0 slots."""

    __slots__ = ("w0", "w1")

    def __init__(self, w0: int, w1: int) -> None:
        if w0 < 0 or w1 < 0 or w0 + w1 < 1:
            raise ValueError("need w0, w1 >= 0 with w0 + w1 >= 1")
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "w1", w1)

    @property
    def r(self) -> int:
        return self.w0 + self.w1

    @property
    def colors(self) -> tuple[int, ...]:
        return (0,) * self.w0 + (1,) * self.w1


class HalfInt(Record):
    """An element of (1/2)Z stored as its doubled integer value."""

    __slots__ = ("doubled",)

    def __init__(self, doubled: int) -> None:
        object.__setattr__(self, "doubled", doubled)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "p", "p/1" or "p/2"; any other denominator is rejected."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            if den.strip() == "2":
                return cls(int(num))
            if den.strip() == "1":
                return cls(2 * int(num))
            raise ValueError(f"half-integers must be 'p' or 'p/2', got {text!r}")
        return cls(2 * int(text))

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.doubled)

    def __str__(self) -> str:
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[YoungDiagram, ...]:
    """All diagrams of size n, reverse-lexicographic on column heights."""
    if n == 0:
        return ((),)
    cap = n if max_part is None else min(max_part, n)
    out: list[YoungDiagram] = []
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def _heads(slots: int, choices, state) -> Iterator[tuple[tuple, object]]:
    """Every choice of values for the first slots - 1 of `slots` slots,
    lexicographically in the order `choices` gives, with the state it
    leaves for the last slot.  `choices(slot, state)` iterates the (value,
    state after it) pairs of one slot.  One iterator per slot is kept on
    an explicit stack, so the call depth does not grow with `slots`."""
    if slots == 1:
        yield (), state
        return
    head: list = []  # the values of the slots below the top of the stack
    stack = [choices(0, state)]
    while stack:
        entry = next(stack[-1], None)
        if entry is None:
            stack.pop()
            if head:
                head.pop()
            continue
        value, after = entry
        if len(stack) == slots - 1:
            yield (*head, value), after
        else:
            head.append(value)
            stack.append(choices(len(stack), after))


def _diagrams_within(slot: int, boxes: int) -> Iterator[tuple[YoungDiagram, int]]:
    """Every diagram of at most `boxes` boxes in the diagram order, with
    the boxes it leaves."""
    for size in range(boxes + 1):
        for diagram in partitions(size):
            yield diagram, boxes - size


def diagram_tuples(slots: int, total: int) -> Iterator[tuple[YoungDiagram, ...]]:
    """All `slots`-tuples of diagrams of given total size, lexicographically
    in the diagram order (size first, then reverse-lex)."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for head, left in _heads(slots, _diagrams_within, total):
        for diagram in partitions(left):
            yield head + (diagram,)


def _columns(
    prefix: list, left: int, cap: int, color: int, room0: int, room1: int
) -> Iterator[tuple[YoungDiagram, int, int]]:
    """The ways to finish a diagram framed with `color` whose first columns
    are `prefix`: `left` more boxes in columns of height at most `cap`,
    holding at most room0 boxes of color 0 and room1 of color 1.  Each is
    yielded with the rooms it leaves, tallest next column first, so
    _columns([], size, size, ...) gives the diagrams of `size` boxes that
    fit, in partitions(size) order.  A column is cut as soon as it would
    leave the room, so no diagram outside it is ever built, and the work
    does not grow with a room the other color caps."""
    if left == 0:
        yield tuple(prefix), room0, room1
        return
    if left > room0 + room1:
        return
    # Column i's boxes alternate in color, starting at l + i + 1 mod 2, so
    # a column of height h holds (h + 1) // 2 boxes of its starting color
    # and h // 2 of the other: it fits exactly when h <= 2 * (the starting
    # color's room) and h <= 2 * (the other's room) + 1.
    starts_at_0 = (color + len(prefix)) % 2 == 0
    own, other = (room0, room1) if starts_at_0 else (room1, room0)
    for height in range(min(cap, left, 2 * own, 2 * other + 1), 0, -1):
        major, minor = (height + 1) // 2, height // 2
        prefix.append(height)
        if starts_at_0:
            yield from _columns(prefix, left - height, height, color, room0 - major, room1 - minor)
        else:
            yield from _columns(prefix, left - height, height, color, room0 - minor, room1 - major)
        prefix.pop()


def _fitting_diagrams(
    colors: tuple, slot: int, rooms: tuple[int, int]
) -> Iterator[tuple[YoungDiagram, tuple[int, int]]]:
    """Every diagram framed with slot `slot`'s color that holds at most
    rooms[0] boxes of color 0 and rooms[1] of color 1, by size and then in
    partitions order, with the rooms it leaves."""
    color, (room0, room1) = colors[slot], rooms
    for size in range(room0 + room1 + 1):
        fits = False
        for diagram, left0, left1 in _columns([], size, size, color, room0, room1):
            fits = True
            yield diagram, (left0, left1)
        # Dropping a removable corner from a diagram that fits leaves one
        # that fits, so once no diagram of this size fits, none larger does.
        if not fits:
            return


def enum_fixed_points_x0(
    frame: FrameData, v0: int, v1: int
) -> list[tuple[YoungDiagram, ...]]:
    """The torus-fixed points of the orbifold side: all r-tuples of
    diagrams whose summed colored sizes are (v0, v1), in diagram_tuples
    order, none if a count is negative.  Each slot's diagram is built
    within the colored counts the earlier slots left, so branches that
    overshoot v0 or v1 are cut while they are built."""
    out: list[tuple[YoungDiagram, ...]] = []
    if v0 >= 0 and v1 >= 0:
        colors = frame.colors
        for head, (room0, room1) in _heads(len(colors), partial(_fitting_diagrams, colors), (v0, v1)):
            # the last diagram takes what is left
            left = room0 + room1
            for diagram, _, _ in _columns([], left, left, colors[-1], room0, room1):
                out.append(head + (diagram,))
    return out


def _kvector_entries(
    parities: tuple, max4n: int, slot: int, used4: int
) -> Iterator[tuple[int, int]]:
    """Slot `slot`'s doubled entries d, of its parity, with d^2 within the
    budget the earlier entries' squares (summing to used4) leave, each
    with used4 + d^2: ordered by absolute value, positive before
    negative."""
    budget4 = max4n - used4
    limit = isqrt(budget4) if budget4 >= 0 else -1
    for mag in range(parities[slot], limit + 1, 2):
        used = used4 + mag * mag
        yield mag, used
        if mag > 0:
            yield -mag, used


def enum_kvectors(
    frame: FrameData, k: HalfInt, max4n: int
) -> list[tuple[int, ...]]:
    """All first-Chern vectors, each the tuple of its doubled entries 2k_alpha:
    integer entries on the color-0 slots, half-odd entries on the color-1
    slots, summing to k, with 4 * sum(k_alpha^2) <= max4n.  The doubled
    entries sum to w1 mod 2, so there are none when 2k + w1 is odd."""
    out: list[tuple[int, ...]] = []
    if (k.doubled + frame.w1) % 2 != 0:
        return out
    parities = frame.colors  # a color-1 entry is half-odd: its double is odd
    choices = partial(_kvector_entries, parities, max4n)
    for head, used4 in _heads(len(parities), choices, 0):
        last = k.doubled - sum(head)  # the last entry makes the sum k
        if last % 2 == parities[-1] and used4 + last * last <= max4n:
            out.append((*head, last))
    return out


class FixedPointX1(namedtuple("FixedPointX1", "kvec y1 y2")):
    """A torus-fixed point on the resolved side: a first-Chern vector, as
    its doubled entries 2k_alpha, plus one pair of diagrams per framing
    slot."""

    __slots__ = ()


def enum_fixed_points_x1(
    frame: FrameData, k: HalfInt, grade4n: int
) -> list[FixedPointX1]:
    """All (kvec, Y1, Y2) data with sum(kvec) = k sitting at the given grade
    4n = 4*sum(k_alpha^2) + 4*(total boxes); none when 2k + w1 is odd."""
    if grade4n % 4 != frame.w1 % 4:
        raise GradeError(f"grade {grade4n} is not {frame.w1} mod 4")
    out = []
    for kvec in enum_kvectors(frame, k, grade4n):
        remainder = grade4n - sum([d * d for d in kvec])
        total_boxes = remainder // 4
        for tup in diagram_tuples(2 * frame.r, total_boxes):
            out.append(FixedPointX1(kvec, tup[: frame.r], tup[frame.r :]))
    return out


class Wall(namedtuple("Wall", "kind index root")):
    """A root (alpha0, alpha1) cutting a wall in the stability plane: of
    `kind` "real" or "imaginary", with `index` m for the real wall alpha_m
    and p for the imaginary wall p*delta."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int, root: tuple) -> "Wall":
        if kind == "real":
            expected = (abs(index), abs(index + 1))
        elif kind == "imaginary":
            if index <= 0:
                raise ValueError("imaginary walls have p > 0")
            expected = (index, index)
        else:
            raise ValueError(f"unknown wall kind {kind!r}")
        if root != expected:
            raise ValueError(f"root {root} does not match {kind} {index}")
        return super().__new__(cls, kind, index, root)


def enum_walls(v0: int, v1: int) -> list[Wall]:
    """All positive roots (alpha0, alpha1) with alpha0 <= v0, alpha1 <= v1:
    real roots alpha_m = (|m|, |m+1|) interleaved m = 0, -1, 1, -2, ...,
    then imaginary roots p*delta = (p, p).  Both real roots of magnitude
    mag hold mag in one coordinate, so none beyond min(v0, v1) fits."""
    out: list[Wall] = []
    for mag in range(0, min(v0, v1) + 1):
        # visits m = 0, -1, 1, -2, 2, -3, ...
        for m in (mag, -mag - 1):
            root = (abs(m), abs(m + 1))
            if root[0] <= v0 and root[1] <= v1:
                out.append(Wall("real", m, root))
    for p in range(1, min(v0, v1) + 1):
        out.append(Wall("imaginary", p, (p, p)))
    return out
