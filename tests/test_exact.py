"""Exact-arithmetic layer: rationals, linear forms, factored terms."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nekrasov.exact import (
    EPS1,
    EPS2,
    FactoredTerm,
    Kernel,
    PoleError,
    Product,
    Var,
    coeff_eval,
    factored_term,
    format_rational,
    linear_form,
    parse_rational,
    term_eval,
    UNIT_TERM,
    term_mul,
    term_pow,
    term_substitute,
    var_a,
    var_m,
)
from nekrasov.localization import mass_shifted_weight, weight_form
from whole_fixed_point import coeff_degree, coeff_denominator_forms, coefficient, merged


def F(*args):
    return Fraction(*args)


class TestRationalContract:
    def test_serialization_lowest_terms(self):
        assert format_rational(F(4, 2)) == "2"
        assert format_rational(F(-3, 7)) == "-3/7"
        assert format_rational(F(0)) == "0"
        assert format_rational(F(5, -10)) == "-1/2"

    def test_parse_roundtrip(self):
        for text in ["0", "17", "-4", "3/8", "-355/113"]:
            assert format_rational(parse_rational(text)) == text

    @settings(max_examples=100)
    @given(
        a=st.integers(-(10**40), 10**40),
        b=st.integers(1, 10**40),
        c=st.integers(-(10**40), 10**40),
        d=st.integers(1, 10**40),
    )
    def test_addition_exact_against_independent_reduction(self, a, b, c, d):
        # second, independent reduction path: build the raw sum and reduce by gcd
        num, den = a * d + c * b, b * d
        g = gcd(num, den)
        if g:
            num, den = num // g, den // g
        got = F(a, b) + F(c, d)
        assert (got.numerator, got.denominator) == (num, den)


class TestLinearForm:
    def test_zero_form(self):
        assert linear_form({}).is_zero()

    def test_single_variable_not_zero(self):
        assert not linear_form({EPS1: 1}).is_zero()

    def test_cancellation_is_zero(self):
        built = linear_form({EPS1: 1}) + linear_form({EPS1: -1})
        assert built.is_zero()

    def test_variable_index_must_fit_a_slot(self):
        with pytest.raises(ValueError):
            Var("a", 2**30)

    def test_substitute_fixes_missing_variables(self):
        f = linear_form({EPS1: 2, var_a(1): 1})
        image = f.substitute({EPS1: linear_form({EPS2: 1})})
        assert image == linear_form({EPS2: 2, var_a(1): 1})


class TestFactoredTerm:
    def test_mul_cancels_exponents(self):
        e1 = linear_form({EPS1: 1})
        a = factored_term(2, [(e1, 1)])
        b = factored_term(3, [(e1, -1)])
        assert merged(term_mul(a, b)) == factored_term(6)

    def test_mul_adds_exponents(self):
        e2 = linear_form({EPS2: 1})
        a = factored_term(1, [(e2, 2)])
        b = factored_term(1, [(e2, 1)])
        assert merged(term_mul(a, b)) == factored_term(1, [(e2, 3)])

    def test_zero_absorbs(self):
        e1 = linear_form({EPS1: 1})
        assert merged(term_mul(factored_term(0), factored_term(5, [(e1, 2)]))) == factored_term(0)

    def test_mul_concatenates_pieces_without_merging(self):
        e1, e2 = linear_form({EPS1: 1}), linear_form({EPS2: 1})
        a, b, c = factored_term(2, [(e1, 1)]), factored_term(3, [(e1, -1)]), factored_term(1, [(e2, 1)])
        ab = term_mul(a, b)
        assert ab == Product((a, b)) and ab.pieces[0] is a and ab.pieces[1] is b
        assert term_mul(ab, c).pieces == (a, b, c)
        assert term_mul(c, Product(())).pieces == (c,)

    def test_eval_direct_substitution(self):
        t = factored_term(1, [(linear_form({EPS1: 1, EPS2: 1}), 1)])
        point = {EPS1: F(1), EPS2: F(2)}
        assert term_eval(t, point) == 3

    def test_eval_pole(self):
        t = factored_term(1, [(linear_form({EPS1: 1}), -1)])
        with pytest.raises(PoleError):
            term_eval(t, {EPS1: F(0)})

    def test_eval_half_times_ratio(self):
        t = factored_term(
            F(1, 2),
            [(linear_form({EPS1: 1}), 1), (linear_form({EPS2: 1}), -2)],
        )
        assert term_eval(t, {EPS1: F(4), EPS2: F(2)}) == F(1, 2)

    def test_zero_base_with_positive_exponent_is_zero(self):
        t = factored_term(7, [(linear_form({EPS1: 1, EPS2: -1}), 2)])
        assert term_eval(t, {EPS1: F(3), EPS2: F(3)}) == 0

    def test_rejects_symbolically_zero_form(self):
        with pytest.raises(ValueError):
            factored_term(1, [(linear_form({}), 1)])


class TestCoefficient:
    def test_empty_sum(self):
        assert coeff_eval((), {}) == 0
        assert coeff_eval((), {EPS1: F(2, 3), EPS2: F(-1, 7)}) == 0

    def test_partial_fraction_sum(self):
        # 1/(eps1 (eps2-eps1)) + 1/(eps2 (eps1-eps2)) at (1, 3) = 1/2 - 1/6 = 1/3
        e1 = linear_form({EPS1: 1})
        e2 = linear_form({EPS2: 1})
        d12 = linear_form({EPS2: 1, EPS1: -1})
        d21 = linear_form({EPS1: 1, EPS2: -1})
        c = (
            factored_term(1, [(e1, -1), (d12, -1)]),
            factored_term(1, [(e2, -1), (d21, -1)]),
        )
        assert coeff_eval(c, {EPS1: F(1), EPS2: F(3)}) == F(1, 3)

    def test_opposite_terms_cancel(self):
        t = factored_term(2, [(linear_form({EPS1: 1}), 1)])
        c = (t, factored_term(-t.scalar, t.factors))
        for value in (F(1), F(-5, 3), F(7, 2)):
            assert coeff_eval(c, {EPS1: value}) == 0


_POOL_VARS = [EPS1, EPS2, var_a(1), var_m(1)]

_form_strategy = st.builds(
    lambda coeffs: linear_form(dict(zip(_POOL_VARS, coeffs))),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
).filter(lambda f: not f.is_zero())

_factor_strategy = st.tuples(_form_strategy, st.integers(-2, 2).filter(bool))

_term_strategy = st.builds(
    lambda s, fs: factored_term(s, fs),
    st.fractions(min_value=-5, max_value=5).filter(bool),
    st.lists(_factor_strategy, max_size=4),
)

_point_strategy = st.builds(
    lambda vals: dict(zip(_POOL_VARS, vals)),
    st.lists(
        st.fractions(min_value=-9, max_value=9).filter(bool), min_size=4, max_size=4
    ),
)


@settings(max_examples=150)
@given(t=_term_strategy, u=_term_strategy, point=_point_strategy)
def test_term_mul_is_pointwise_product(t, u, point):
    try:
        expected = term_eval(t, point) * term_eval(u, point)
        got = term_eval(term_mul(t, u), point)
    except PoleError:
        return  # pole of one side: nothing to compare at this point
    assert got == expected


@settings(max_examples=150)
@given(
    factors=st.lists(_factor_strategy, max_size=5),
    scalar=st.fractions(min_value=-5, max_value=5).filter(bool),
    data=st.data(),
)
def test_normalization_order_independent_and_idempotent(factors, scalar, data):
    shuffled = data.draw(st.permutations(factors))
    a = factored_term(scalar, factors)
    b = factored_term(scalar, shuffled)
    assert a == b
    rebuilt = factored_term(a.scalar, a.factors)
    assert rebuilt == a


@settings(max_examples=150)
@given(t=_term_strategy, n=st.sampled_from([-3, -1, 2, 3]))
def test_term_pow_scales_a_canonical_term_in_place(t, n):
    # the fast path equals the merge it replaced, and shares t's forms
    got = term_pow(t, n)
    assert got == factored_term(t.scalar ** n, [(form, exp * n) for form, exp in t.factors])
    assert type(got.scalar) is Fraction
    assert all(a is b for (a, _), (b, _) in zip(got.factors, t.factors))
    assert term_pow(t, 0) == UNIT_TERM


def test_term_pow_of_the_zero_term():
    zero = factored_term(0)
    assert term_pow(zero, 0) == UNIT_TERM
    assert term_pow(zero, 2) is zero
    with pytest.raises(ZeroDivisionError):
        term_pow(zero, -1)


# The evaluation kernel against a plain Fraction reference.  Coefficients
# include values outside (1/2)Z, which the engine never builds but the
# kernel must still evaluate exactly; points include 0 so that factors
# vanish and poles occur.
_KERNEL_COEFFS = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(1, 3), F(5, 6), F(-7, 4)]

_kernel_form = st.builds(
    lambda coeffs: linear_form(dict(zip(_POOL_VARS, coeffs))),
    st.lists(st.sampled_from(_KERNEL_COEFFS), min_size=4, max_size=4),
).filter(lambda f: not f.is_zero())

_kernel_term = st.builds(
    lambda s, fs: factored_term(s, fs),
    st.sampled_from([F(0), F(1), F(-2), F(3, 4), F(-5, 7)]),
    st.lists(st.tuples(_kernel_form, st.integers(-3, 3).filter(bool)), max_size=5),
)

_kernel_point = st.builds(
    lambda vals: dict(zip(_POOL_VARS, vals)),
    st.lists(
        st.one_of(
            st.just(F(0)),
            st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3)]),
            st.fractions(min_value=-3, max_value=3, max_denominator=12),
        ),
        min_size=4,
        max_size=4,
    ),
)


def _reference_piece(t, point):
    if t.scalar == 0:
        return F(0)
    values = [(form.evaluate(point), exp) for form, exp in t.factors]
    if any(value == 0 and exp < 0 for value, exp in values):
        raise PoleError("reference pole")
    total = t.scalar
    for value, exp in values:
        total *= value**exp
    return total


def _reference_term(t, point):
    """A term's value: 0 when a piece has a zero scalar, else the product
    of its pieces' values, a pole when any piece has one (even where
    another piece's numerator vanishes)."""
    if any(piece.scalar == 0 for piece in t.pieces):
        return F(0)
    values = [_reference_piece(piece, point) for piece in t.pieces]
    total = F(1)
    for value in values:
        total *= value
    return total


@settings(max_examples=200)
@given(c=st.lists(_term_strategy, max_size=4), point=_point_strategy)
def test_one_degree_coefficient_takes_its_sign_at_the_negated_point(c, point):
    c = tuple(c)
    degrees = {sum(exp for _, exp in t.factors) for t in c}
    d = coeff_degree(c)
    assert d == (None if len(degrees) > 1 else max(degrees, default=0))
    if d is None:
        return
    try:
        plain = coeff_eval(c, point)
    except PoleError:
        return
    # d may be negative: a pole of order n flips the sign n times too
    assert coeff_eval(c, {v: -x for v, x in point.items()}) == (-plain if d % 2 else plain)


class TestKernelAgainstReference:
    @settings(max_examples=300)
    @given(c=st.lists(_kernel_term, min_size=1, max_size=4), point=_kernel_point)
    def test_coeff_and_term_eval_match_fraction_reference(self, c, point):
        c = tuple(c)
        try:
            expected = sum((_reference_term(t, point) for t in c), F(0))
        except PoleError:
            with pytest.raises(PoleError):
                coeff_eval(c, point)
            return
        assert coeff_eval(c, point) == expected
        for t in c:
            assert term_eval(t, point) == _reference_term(t, point)

    def test_coefficients_outside_half_integers_are_exact(self):
        f = linear_form({EPS1: F(1, 3), EPS2: F(5, 6)})
        t = factored_term(F(3, 2), [(f, 2), (linear_form({EPS1: F(2, 3)}), -1)])
        point = {EPS1: F(3, 5), EPS2: F(-7, 4)}
        # f = 1/5 - 35/24 = -151/120, eps1 term = 2/5
        assert term_eval(t, point) == F(3, 2) * F(-151, 120) ** 2 / F(2, 5)
        assert coeff_eval((t, t), point) == 2 * term_eval(t, point)

    def test_zero_scalar_term_is_zero_before_its_factors_are_read(self):
        # factored_term drops the factors of a zero term; a raw one keeps a
        # factor that would be a pole, and still evaluates to 0.
        t = FactoredTerm(F(0), ((linear_form({EPS1: 1}), -1),))
        assert term_eval(t, {EPS1: F(0)}) == 0
        assert coeff_eval((t,), {EPS1: F(0)}) == 0

    def test_pole_after_vanished_factor_raises(self):
        vanishing = linear_form({EPS1: 1})
        pole = linear_form({EPS2: F(1, 2)})
        t = factored_term(1, [(pole, -1), (vanishing, 2)])
        assert [form for form, _ in t.factors] == [vanishing, pole]
        point = {EPS1: F(0), EPS2: F(0)}
        with pytest.raises(PoleError):
            term_eval(t, point)
        with pytest.raises(PoleError):
            coeff_eval((factored_term(1), t), point)


# A kernel compiled from several coefficients that draw their forms from one
# small pool.  Every use rebuilds its form from the pool's coefficients, so
# equal forms reach the kernel as distinct objects; halves give forms of
# denominator 2, and zero-scalar terms keep a factor that may be a pole.
_SLOT_COEFFS = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)]
_EXPONENTS = [-3, -2, -1, 1, 2, 3]


@st.composite
def _compiled_coefficients(draw):
    pool = draw(
        st.lists(
            st.lists(st.sampled_from(_SLOT_COEFFS), min_size=4, max_size=4).filter(any),
            min_size=1,
            max_size=4,
        )
    )

    def rebuilt(i):
        return linear_form(dict(zip(_POOL_VARS, pool[i])))

    index = st.integers(0, len(pool) - 1)
    factors = st.lists(st.tuples(index, st.sampled_from(_EXPONENTS)), max_size=4)
    term = st.one_of(
        st.builds(
            lambda s, fs: factored_term(s, [(rebuilt(i), e) for i, e in fs]),
            st.sampled_from([F(1), F(-2), F(3, 4), F(-5, 7)]),
            factors,
        ),
        st.builds(lambda i, e: FactoredTerm(F(0), ((rebuilt(i), e),)), index, st.sampled_from(_EXPONENTS)),
    )
    # products draw their pieces from one pool, so pieces are shared by
    # identity across terms and coefficients
    shared = draw(st.lists(term, min_size=1, max_size=4))
    product = st.builds(
        lambda ix: Product(tuple(shared[i] for i in ix)),
        st.lists(st.integers(0, len(shared) - 1), max_size=3),
    )
    terms = st.one_of(term, product)
    return [tuple(c) for c in draw(st.lists(st.lists(terms, max_size=4), min_size=1, max_size=3))]


def _live_pieces(coeffs):
    """The distinct pieces, by identity and in first-seen order, of the
    terms with no zero-scalar piece."""
    seen = {}
    for c in coeffs:
        for t in c:
            if all(piece.scalar for piece in t.pieces):
                for piece in t.pieces:
                    seen.setdefault(id(piece), piece)
    return list(seen.values())


_E1, _E2 = linear_form({EPS1: 1}), linear_form({EPS2: 1})
_HALF_E2 = linear_form({EPS2: F(1, 2)})


class TestCompiledKernel:
    @settings(max_examples=200)
    @given(coeffs=_compiled_coefficients(), point=_kernel_point)
    # negative denominators: 1/eps1 + 2/(eps1 eps2)^2 - 1/(2 eps2)
    @example(
        coeffs=[(
            factored_term(1, [(_E1, -1)]),
            factored_term(2, [(_E1, -2), (_E2, -2)]),
            factored_term(F(-1, 2), [(_E2, -1)]),
        )],
        point={EPS1: F(-2), EPS2: F(-1, 3)},
    )
    # a vanishing numerator makes its term 0, and an empty coefficient is 0
    @example(
        coeffs=[(factored_term(5, [(_E1, 3), (_E2, -1)]), factored_term(F(1, 2), [(_E2, -2)])), ()],
        point={EPS1: F(0), EPS2: F(2)},
    )
    # a denominator vanishing after a vanished numerator factor is a pole,
    # after another coefficient was read clean
    @example(
        coeffs=[(factored_term(1, [(_E1, 1)]),), (factored_term(1, [(_HALF_E2, -2), (_E1, 1)]),)],
        point={EPS1: F(0), EPS2: F(0)},
    )
    # a piece's vanishing denominator is a pole even where another piece's
    # numerator vanishes, and merged the two would cancel
    @example(
        coeffs=[(Product((factored_term(1, [(_E1, 1)]), factored_term(1, [(_E1, -1)]))),)],
        point={EPS1: F(0), EPS2: F(1)},
    )
    def test_kernel_matches_the_reference_with_one_slot_per_form(self, coeffs, point):
        kernel = Kernel(coeffs)
        pieces = _live_pieces(coeffs)
        assert len(kernel.pieces) == len(pieces)
        assert all(a is b for a, b in zip(kernel.pieces, pieces))
        forms = {form for piece in pieces for form, _ in piece.factors}
        assert len(kernel.forms) == len(forms) and set(kernel.forms) == forms
        # pole forms and degrees count the kept terms only
        live = [tuple(t for t in c if all(piece.scalar for piece in t.pieces)) for c in coeffs]
        poles = dict.fromkeys(form for c in live for form in coeff_denominator_forms(c))
        assert kernel.pole_forms == list(poles)
        assert kernel.degrees == [coeff_degree(c) for c in live]
        try:
            expected = [sum((_reference_term(t, point) for t in c), F(0)) for c in coeffs]
        except PoleError:
            with pytest.raises(PoleError):
                kernel.evaluate(point)
            return
        assert kernel.evaluate(point) == expected

    def test_equal_forms_share_one_slot(self):
        a, b = linear_form({EPS1: F(1, 2), EPS2: -1}), linear_form({EPS2: -1, EPS1: F(1, 2)})
        assert a is not b and a == b and a.den == 2
        kernel = Kernel([(factored_term(1, [(a, 2)]),), (factored_term(3, [(b, -3)]),)])
        assert kernel.forms == [a]
        # a = 1/2 + 2 = 5/2 at (1, -2)
        assert kernel.evaluate({EPS1: F(1), EPS2: F(-2)}) == [F(25, 4), 3 / F(5, 2) ** 3]
        assert kernel.pole_forms == [a] and kernel.degrees == [2, -3]

    def test_a_dropped_zero_scalar_term_adds_no_pole_form(self):
        # a raw zero-scalar term 0 / (eps1 - eps2) beside 3 / (2 eps1 + eps2)
        f, g = linear_form({EPS1: 1, EPS2: -1}), linear_form({EPS1: 2, EPS2: 1})
        zero = FactoredTerm(F(0), ((f, -1),))
        kernel = Kernel([(zero, factored_term(3, [(g, -1)])), (zero,)])
        assert f not in kernel.pole_forms and kernel.pole_forms == [g]
        assert kernel.degrees == [-1, 0]
        # f = 0 and g = 6 at (2, 2)
        assert kernel.evaluate({EPS1: F(2), EPS2: F(2)}) == [F(1, 2), F(0)]
        with pytest.raises(PoleError):
            kernel.evaluate({EPS1: F(1), EPS2: F(-2)})


class TestProducts:
    """A product term keeps its pieces: the kernel compiles each distinct
    piece once, and its values, degrees and denominator forms agree with
    the term's canonical merge wherever no form cancels between pieces."""

    def _pieces(self):
        a = factored_term(F(1, 2), [(_E1, 1), (_HALF_E2, -1)])
        b = factored_term(3, [(_E2, -2)])
        c = factored_term(-1, [(linear_form({EPS1: 1, EPS2: 1}), 1)])
        return a, b, c

    def test_merge_of_a_product_evaluates_like_the_product(self):
        a, b, c = self._pieces()
        coeff = (Product((a, b)), Product((b, c, a)), c)
        point = {EPS1: F(3), EPS2: F(-5, 2)}
        expected = sum((term_eval(merged(t), point) for t in coeff), F(0))
        assert coeff_eval(coeff, point) == expected
        assert coeff_degree(coeff) is None
        assert coeff_degree((Product((a, b)), Product((b, a)))) == -2
        assert coeff_degree((Product(()),)) == 0
        kernel = Kernel([coeff, (Product((a, b)), Product((b, a))), (Product(()),), ()])
        assert kernel.degrees == [None, -2, 0, 0]

    def test_denominator_forms_are_read_once_per_piece(self):
        a, b, c = self._pieces()
        coeff = (Product((a, b)), Product((b, c)), c)
        forms = coeff_denominator_forms(coeff)
        assert forms == [_HALF_E2, _E2]
        assert Kernel([coeff]).pole_forms == forms

    def test_each_piece_compiles_once(self, monkeypatch):
        from nekrasov import exact

        a, b, c = self._pieces()
        compiled = []
        compile_piece = exact._compile_piece

        def counting(piece, slots, forms):
            compiled.append(piece)
            return compile_piece(piece, slots, forms)

        monkeypatch.setattr(exact, "_compile_piece", counting)
        kernel = Kernel([(Product((a, b)), Product((b, c))), (Product((c, a)), a)])
        assert compiled == [a, b, c] and kernel.pieces == [a, b, c]
        assert set(kernel.forms) == {_E1, _HALF_E2, _E2, linear_form({EPS1: 1, EPS2: 1})}

    def test_substitution_images_each_distinct_piece_once(self, monkeypatch):
        from nekrasov import exact

        a, b, c = self._pieces()
        rule = {EPS1: linear_form({EPS1: 2}), EPS2: linear_form({EPS1: -1, EPS2: 1})}
        built = []
        monkeypatch.setattr(exact, "factored_term", lambda *args: built.append(args) or factored_term(*args))
        images: dict = {}
        first = term_substitute(Product((a, b)), rule, images)
        second = term_substitute(Product((b, c)), rule, images)
        third = term_substitute(a, rule, images)
        assert len(built) == 3
        assert first.pieces[1] is second.pieces[0] and third.pieces == (first.pieces[0],)
        for t, image in ((Product((a, b)), first), (Product((b, c)), second)):
            by_hand = factored_term(
                merged(t).scalar, [(form.substitute(rule), exp) for form, exp in merged(t).factors]
            )
            assert merged(image) == by_hand


# Int-coded forms against a plain Fraction reference: a dict from variable
# to nonzero coefficient.  Coefficients include values outside (1/2)Z.
_REF_VARS = [EPS1, EPS2, var_a(1), var_a(2), var_m(1)]
_REF_COEFFS = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(1, 3), F(5, 6), F(-7, 4)]

_ref_form = st.builds(
    lambda cs: {v: c for v, c in zip(_REF_VARS, cs) if c},
    st.lists(st.sampled_from(_REF_COEFFS), min_size=5, max_size=5),
)

_ref_point = st.builds(
    lambda vals: dict(zip(_REF_VARS, vals)),
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=5, max_size=5
    ),
)


def _ref_add(a, b):
    out = dict(a)
    for v, c in b.items():
        out[v] = out.get(v, F(0)) + c
    return {v: c for v, c in out.items() if c}


def _ref_substitute(a, rule):
    out = {}
    for v, c in a.items():
        for v2, c2 in rule.get(v, {v: F(1)}).items():
            out[v2] = out.get(v2, F(0)) + c * c2
    return {v: c for v, c in out.items() if c}


def _ref_str(a):
    if not a:
        return "0"
    text = ""
    for v, c in sorted(a.items(), key=lambda vc: vc[0].sort_key()):
        sign = "-" if c < 0 else "+"
        body = v.name if abs(c) == 1 else f"{format_rational(abs(c))}*{v.name}"
        if not text:
            text = body if sign == "+" else f"-{body}"
        else:
            text += f" {sign} {body}"
    return text


def _assert_matches(form, ref):
    assert form == linear_form(ref)
    assert hash(form) == hash(linear_form(ref))
    assert form.is_zero() == (not ref)
    assert form.coeffs == tuple(sorted(ref.items(), key=lambda vc: vc[0].sort_key()))
    for v in _REF_VARS:
        assert coefficient(form, v) == ref.get(v, F(0))
    assert str(form) == _ref_str(ref)


class TestFormsAgainstReference:
    @settings(max_examples=200)
    @given(
        a=_ref_form,
        b=_ref_form,
        cancel=st.booleans(),
        rule=st.dictionaries(st.sampled_from(_REF_VARS), _ref_form, max_size=3),
        point=_ref_point,
    )
    def test_int_coded_forms_match_fraction_reference(self, a, b, cancel, rule, point):
        if cancel:
            b = {v: -c for v, c in a.items()}
        form_a, form_b = linear_form(a), linear_form(b)
        _assert_matches(form_a, a)
        _assert_matches(form_a + form_b, _ref_add(a, b))
        _assert_matches(-form_a, {v: -c for v, c in a.items()})
        _assert_matches(form_a + (-form_a), {})
        image = form_a.substitute({v: linear_form(img) for v, img in rule.items()})
        _assert_matches(image, _ref_substitute(a, rule))
        expected = sum((c * point[v] for v, c in a.items()), F(0))
        assert form_a.evaluate(point) == expected

    def test_equal_forms_built_differently_are_one_dict_key(self):
        third = linear_form({EPS1: F(1, 3), EPS2: F(5, 6)})
        built = linear_form({EPS1: F(1, 6)}) + linear_form({EPS1: F(1, 6), EPS2: F(5, 6)})
        assert built == third and hash(built) == hash(third)
        t = factored_term(1, [(third, 1), (built, 2)])
        assert t.factors == ((third, 3),)
        assert str(third) == "1/3*eps1 + 5/6*eps2"


_monomials = st.builds(
    lambda p, q, e: (p, q, tuple(sorted((a, x) for a, x in e.items() if x))),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.dictionaries(st.integers(1, 3), st.integers(-3, 3), max_size=3),
)


class TestWeightForms:
    """weight_form and mass_shifted_weight build int pairs directly; they
    must give the form linear_form gives for the same Fraction coefficients,
    or factored_term would stop merging equal factors."""

    @staticmethod
    def _weight_coeffs(mono):
        p, q, e = mono
        coeffs = {EPS1: F(p), EPS2: F(q)}
        for alpha, exp in e:
            coeffs[var_a(alpha)] = F(exp)
        return coeffs

    @settings(max_examples=200)
    @given(mono=_monomials, f=st.integers(1, 6))
    def test_equal_and_hash_equal_to_linear_form(self, mono, f):
        coeffs = self._weight_coeffs(mono)
        expected = linear_form(coeffs)
        got = weight_form(mono)
        assert got == expected and hash(got) == hash(expected)
        coeffs[EPS1] -= F(1, 2)
        coeffs[EPS2] -= F(1, 2)
        coeffs[var_m(f)] = F(1)
        expected = linear_form(coeffs)
        got = mass_shifted_weight(mono, f)
        assert got == expected and hash(got) == hash(expected)
        merged = factored_term(1, [(got, 1), (expected, 1)])
        assert merged.factors == ((expected, 2),)
