"""The engine's record classes: constructors, validation messages, reprs,
immutability and equality, and the slot ints that stand for variables.

A variable is its slot, and a point is a dict keyed by slot; every
`PoleError` text names the point's variables through `named_point`.
`HalfInt` is the request's k, printed in every report (a first-Chern
vector is a tuple of doubled ints, which `HalfInt` renders entry by
entry), and `HalfInt` and `FrameData` sit beside plain tuples (k-vectors,
a pair's key), so neither ever equals a tuple of its values.  Every
`exact.Record` reads its eq, hash and repr off its fields, so a record
equals only a record of its own class."""

from fractions import Fraction

import pytest

from nekrasov.diagrams import FixedPointX1, FrameData, HalfInt, Wall, enum_kvectors
from nekrasov.exact import (
    EPS1,
    EPS2,
    FactoredTerm,
    PoleError,
    factored_term,
    linear_form,
    named_point,
    scope_vars,
    term_eval,
    var_a,
    var_m,
    var_name,
)
from nekrasov.series import QSeries
from nekrasov.verify import GradeRecord, SampleConfig, VerificationReport

F = Fraction


class TestSlots:
    def test_distinct_variables_have_distinct_slots(self):
        assert var_a(2) == var_a(2) and var_a(2) is var_a(2)
        assert var_a(2) != var_m(2) and var_a(2) != var_a(3)
        assert (EPS1, EPS2) == (1, 2)

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_scope_increases_strictly_and_names_each_variable(self, r):
        scope = scope_vars(r)
        assert all(a < b for a, b in zip(scope, scope[1:]))
        names = ["eps1", "eps2"] + [f"a{i}" for i in range(1, r + 1)] + [f"m{f}" for f in range(1, 2 * r + 1)]
        assert [var_name(v) for v in scope] == names
        assert scope[: 2 + r] == [EPS1, EPS2, *map(var_a, range(1, r + 1))]

    def test_named_point_is_in_slot_order(self):
        point = {var_m(1): F(-2, 3), var_a(1): F(7), EPS2: F(0), EPS1: F(1, 2)}
        assert named_point(point) == {"eps1": "1/2", "eps2": "0", "a1": "7", "m1": "-2/3"}
        assert list(named_point(point)) == ["eps1", "eps2", "a1", "m1"]

    def test_pole_error_text_names_the_point(self):
        t = (factored_term([(linear_form({EPS1: 1, var_a(2): -1}), -2), (linear_form({EPS2: 1}), 1)]),)
        point = {EPS1: F(3, 2), EPS2: F(-1), var_a(1): F(7), var_a(2): F(3, 2)}
        with pytest.raises(PoleError) as err:
            term_eval(t, point)
        assert str(err.value) == "pole: (eps1 - a2)^-2 at eps1=3/2, eps2=-1, a1=7, a2=3/2"

    @pytest.mark.parametrize(
        "build, index, message",
        [
            (var_a, 0, "variable index must lie in [1, 1073741824)"),
            (var_m, 2**30, "variable index must lie in [1, 1073741824)"),
        ],
    )
    def test_validation_messages(self, build, index, message):
        with pytest.raises(ValueError) as err:
            build(index)
        assert str(err.value) == message


def render(kvec) -> str:
    """A first-Chern vector, given as its doubled entries, as k_alpha's."""
    return " ".join(str(HalfInt(d)) for d in kvec)


class TestHalfInt:
    def test_str(self):
        values = [HalfInt(-4), HalfInt(-1), HalfInt(0), HalfInt(2), HalfInt(3)]
        assert [str(h) for h in values] == ["-2", "-1/2", "0", "1", "3/2"]

    def test_kvector_order(self):
        kvecs = enum_kvectors(FrameData(1, 2), HalfInt(2), 14)
        assert [render(kvec) for kvec in kvecs] == [
            "0 1/2 1/2", "0 -1/2 3/2", "0 3/2 -1/2", "1 1/2 -1/2",
            "1 -1/2 1/2", "-1 1/2 3/2", "-1 3/2 1/2",
        ]
        assert [render(kvec) for kvec in sorted(kvecs)] == [
            "-1 1/2 3/2", "-1 3/2 1/2", "0 -1/2 3/2", "0 1/2 1/2",
            "0 3/2 -1/2", "1 -1/2 1/2", "1 1/2 -1/2",
        ]

    def test_arithmetic_parse_and_repr(self):
        assert HalfInt(2) == HalfInt.parse("1")
        assert -HalfInt(1) == HalfInt.parse("-1/2")
        assert HalfInt(doubled=5).doubled == 5
        assert repr(HalfInt(3)) == "HalfInt(doubled=3)"
        assert hash(HalfInt(3)) == hash(HalfInt.parse("3/2"))

    def test_has_no_order(self):
        with pytest.raises(TypeError):
            HalfInt(1) < HalfInt(2)
        with pytest.raises(TypeError):
            HalfInt(1) < (2,)
        with pytest.raises(TypeError):
            HalfInt(1) >= 0


class TestValidationMessages:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: FrameData(-1, 0), "need w0, w1 >= 0 with w0 + w1 >= 1"),
            (lambda: FrameData(0, 0), "need w0, w1 >= 0 with w0 + w1 >= 1"),
            (lambda: FrameData(w0=1, w1=-2), "need w0, w1 >= 0 with w0 + w1 >= 1"),
            (lambda: Wall("imaginary", 0, (0, 0)), "imaginary walls have p > 0"),
            (lambda: Wall("bogus", 1, (1, 1)), "unknown wall kind 'bogus'"),
            (lambda: Wall("real", 1, (1, 1)), "root (1, 1) does not match real 1"),
            (lambda: Wall(kind="imaginary", index=2, root=(2, 3)), "root (2, 3) does not match imaginary 2"),
            (lambda: SampleConfig(-1), "seed must fit in 64 unsigned bits"),
            (lambda: SampleConfig(1 << 64), "seed must fit in 64 unsigned bits"),
            (lambda: SampleConfig(1, 0), "need at least one trial"),
            (lambda: SampleConfig(seed=1, trials=-3), "need at least one trial"),
        ],
    )
    def test_value_error_text(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def _records():
    """One instance of each immutable record, with one of its fields."""
    term = factored_term([(linear_form({EPS1: 1}), -1)])
    return [
        (term, "factors"),
        (FrameData(1, 2), "w0"),
        (HalfInt(1), "doubled"),
        (FixedPointX1((0,), ((),), ((),)), "kvec"),
        (Wall("real", 0, (0, 1)), "root"),
        (QSeries({0: ()}, 0, 0), "max_grade"),
        (SampleConfig(7), "seed"),
    ]


@pytest.mark.parametrize("record, field", _records(), ids=lambda x: type(x).__name__)
def test_assigning_a_field_raises_attribute_error(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    assert getattr(record, field) is before


@pytest.mark.parametrize(
    "record, values",
    [
        (HalfInt(1), (1,)),
        (FrameData(1, 0), (1, 0)),
    ],
    ids=lambda x: type(x).__name__,
)
def test_record_never_equals_a_tuple_of_its_values(record, values):
    assert record != values and values != record
    assert not record == values
    assert len({record, values}) == 2


def test_records_of_two_classes_with_equal_fields_differ():
    # equal field tuples, so equal hashes: only the class test tells them apart
    half, piece = HalfInt(1), FactoredTerm(1)
    assert hash(half) == hash(piece)
    assert half != piece and piece != half
    assert not half == piece
    assert len({half, piece}) == 2


def test_equal_records_share_a_hash_and_a_series_has_none():
    assert FrameData(1, 2) == FrameData(w0=1, w1=2) and hash(FrameData(1, 2)) == hash((1, 2))
    assert hash(HalfInt(3)) == hash(3) and HalfInt(3) != HalfInt(4)
    e1 = linear_form({EPS1: 1})
    assert factored_term([(e1, -1)]) == FactoredTerm(((e1, -1),))
    assert QSeries({0: ()}, 4, 0) == QSeries({0: ()}, 4, 0) != QSeries({0: ()}, 8, 0)
    with pytest.raises(TypeError):
        hash(QSeries({}, 0, 0))


def test_reprs_and_keyword_constructors():
    e1 = linear_form({EPS1: 1})
    term = FactoredTerm(factors=((e1, -1),))
    assert repr(term) == "FactoredTerm(factors=((LinearForm(eps1), -1),))"
    assert repr(FrameData(w0=1, w1=2)) == "FrameData(w0=1, w1=2)"
    assert repr(FixedPointX1(kvec=(1,), y1=((),), y2=((),))) == "FixedPointX1(kvec=(1,), y1=((),), y2=((),))"
    assert repr(Wall("real", -1, (1, 0))) == "Wall(kind='real', index=-1, root=(1, 0))"
    assert (
        repr(QSeries(coeffs={}, max_grade=4, offset=0))
        == "QSeries(coeffs={}, max_grade=4, offset=0, compiled=None)"
    )
    assert repr(SampleConfig(161)) == "SampleConfig(seed=161, trials=5)"
    record = GradeRecord(grade4n=0, tags={}, values=[(F(1), F(1))])
    assert repr(record) == "GradeRecord(grade4n=0, tags={}, values=[(Fraction(1, 1), Fraction(1, 1))])"
    report = VerificationReport(
        check="mult", frame=FrameData(1, 0), k=HalfInt(0), max4n=0,
        cfg=SampleConfig(1, 1), points=[], resamples=[0], grades=[record],
    )
    assert repr(report).startswith("VerificationReport(check='mult', frame=FrameData(w0=1, w1=0), ")
    assert report.passed and record.all_equal
