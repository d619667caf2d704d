"""The engine's record classes: constructors, validation messages, reprs,
immutability and equality.

`Var`'s repr is part of every `PoleError` text (through the point dict),
`HalfInt` is the request's k, printed in every report (a first-Chern
vector is a tuple of doubled ints, which `HalfInt` renders entry by
entry), and `Var`, `HalfInt` and `FrameData` sit beside plain tuples
(point dicts, k-vectors, a pair's key), so none of the three ever equals
a tuple of its values."""

from fractions import Fraction

import pytest

from nekrasov.diagrams import FixedPointX1, FrameData, HalfInt, Wall, enum_kvectors
from nekrasov.exact import (
    EPS1,
    EPS2,
    FactoredTerm,
    PoleError,
    Var,
    _var_of_slot,
    factored_term,
    linear_form,
    term_eval,
    var_a,
    var_m,
)
from nekrasov.series import QSeries
from nekrasov.verify import GradeRecord, SampleConfig, VerificationReport

F = Fraction


class TestVar:
    def test_equal_however_built_with_an_equal_hash(self):
        built, cached = Var("a", 2), var_a(2)
        by_slot = _var_of_slot(cached.slot)
        assert built == cached == by_slot
        assert hash(built) == hash(cached) == hash(by_slot)
        assert {built: 1}[by_slot] == 1
        assert Var("a", 2) != Var("m", 2) and Var("a", 2) != Var("a", 3)

    def test_fields_and_keyword_constructor(self):
        v = Var(kind="m", index=3)
        assert (v.kind, v.index, v.name, str(v)) == ("m", 3, "m3", "m3")
        assert v == var_m(3)
        assert EPS1.slot < EPS2.slot < var_a(1).slot < var_m(1).slot

    def test_repr(self):
        assert repr(Var("a", 2)) == "Var(kind='a', index=2)"
        assert repr(EPS1) == "Var(kind='eps', index=1)"
        assert repr(var_m(3)) == "Var(kind='m', index=3)"

    def test_pole_error_text_names_the_point(self):
        t = (factored_term([(linear_form({EPS1: 1, var_a(2): -1}), -2), (linear_form({EPS2: 1}), 1)]),)
        point = {EPS1: F(3, 2), EPS2: F(-1), var_a(1): F(7), var_a(2): F(3, 2)}
        with pytest.raises(PoleError) as err:
            term_eval(t, point)
        assert str(err.value) == (
            "pole: (eps1 - a2)^-2 at {Var(kind='eps', index=1): Fraction(3, 2), "
            "Var(kind='eps', index=2): Fraction(-1, 1), Var(kind='a', index=1): Fraction(7, 1), "
            "Var(kind='a', index=2): Fraction(3, 2)}"
        )

    @pytest.mark.parametrize(
        "kind, index, message",
        [
            ("x", 1, "unknown variable kind 'x'"),
            ("a", 0, "variable index must lie in [1, 1073741824)"),
            ("m", 2**30, "variable index must lie in [1, 1073741824)"),
        ],
    )
    def test_validation_messages(self, kind, index, message):
        with pytest.raises(ValueError) as err:
            Var(kind, index)
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
        (Var("a", 1), "kind"),
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
        (Var("a", 2), ("a", 2)),
        (HalfInt(1), (1,)),
        (FrameData(1, 0), (1, 0)),
    ],
    ids=lambda x: type(x).__name__,
)
def test_record_never_equals_a_tuple_of_its_values(record, values):
    assert record != values and values != record
    assert not record == values
    assert len({record, values}) == 2


def test_reprs_and_keyword_constructors():
    e1 = linear_form({EPS1: 1})
    term = FactoredTerm(factors=((e1, -1),))
    assert repr(term) == "FactoredTerm(factors=((LinearForm(eps1), -1),))"
    assert repr(FrameData(w0=1, w1=2)) == "FrameData(w0=1, w1=2)"
    assert repr(FixedPointX1(kvec=(1,), y1=((),), y2=((),))) == "FixedPointX1(kvec=(1,), y1=((),), y2=((),))"
    assert repr(Wall("real", -1, (1, 0))) == "Wall(kind='real', index=-1, root=(1, 0))"
    assert repr(QSeries(coeffs={}, max_grade=4, offset=0)) == "QSeries(coeffs={}, max_grade=4, offset=0)"
    assert repr(SampleConfig(161)) == "SampleConfig(seed=161, trials=5)"
    record = GradeRecord(grade4n=0, tags={}, values=[(F(1), F(1))])
    assert repr(record) == "GradeRecord(grade4n=0, tags={}, values=[(Fraction(1, 1), Fraction(1, 1))])"
    report = VerificationReport(
        check="mult", frame=FrameData(1, 0), k=HalfInt(0), max4n=0,
        cfg=SampleConfig(1, 1), points=[], resamples=[0], grades=[record],
    )
    assert repr(report).startswith("VerificationReport(check='mult', frame=FrameData(w0=1, w1=0), ")
    assert report.passed and record.all_equal
