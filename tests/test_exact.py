"""Exact-arithmetic layer: rationals, linear forms, factored terms."""

import weakref
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nekrasov import exact
from nekrasov.exact import (
    EPS1,
    EPS2,
    FactoredTerm,
    Kernel,
    LinearForm,
    PoleError,
    Rule,
    clear_of,
    coeff_eval,
    factored_term,
    form_image,
    format_rational,
    linear_form,
    parse_rational,
    scope_vars,
    term_eval,
    UNIT_TERM,
    term_mul,
    term_pow,
    term_substitute,
    var_a,
    var_m,
    var_name,
)
from nekrasov.localization import mass_shifted_weight, weight_form
from nekrasov.series import rule_chart, rule_negate_eps
from whole_fixed_point import (
    added,
    coeff_degree,
    coeff_denominator_forms,
    coefficient,
    expanded_terms,
    merged,
    reduced_pairs,
    reference_chart,
    reference_negate_eps,
    substitute,
)


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
        form = linear_form({EPS1: 1, var_a(1): F(-1, 2)})
        assert added(form, -form).is_zero()
        assert linear_form({EPS1: 0, var_m(1): F(0)}) == LinearForm(0, 0, ())

    @pytest.mark.parametrize("c", [F(1, 3), F(5, 6), F(-7, 4), F(1, 2**40)])
    def test_a_coefficient_outside_half_integers_is_refused(self, c):
        with pytest.raises(ValueError):
            linear_form({EPS1: c})
        with pytest.raises(ValueError):
            linear_form({EPS2: 1, var_m(2): c})

    def test_fields_are_the_doubled_numerators(self):
        form = linear_form({var_m(1): 1, EPS2: F(-1, 2), var_a(2): -1, EPS1: 3})
        assert (form.p, form.q, form.frame) == (6, -1, ((var_a(2), -2), (var_m(1), 2)))
        assert form == LinearForm(6, -1, form.frame) and hash(form) == hash(LinearForm(6, -1, form.frame))

    def test_variable_index_must_fit_a_slot(self):
        with pytest.raises(ValueError):
            var_a(2**30)

    def test_substitute_fixes_missing_variables(self):
        # eps1 -> eps2, eps2 fixed, and no a shifted: a1 and m1 are kept
        f = linear_form({EPS1: 2, var_a(1): 1, var_m(1): 1})
        image = form_image(f, Rule(((0, 1), (0, 1)), (1, 0), ()))
        assert image == linear_form({EPS2: 2, var_a(1): 1, var_m(1): 1})


class TestFactoredTerm:
    def test_mul_cancels_exponents(self):
        e1 = linear_form({EPS1: 1})
        a = (factored_term([(e1, 1)]),)
        b = (factored_term([(e1, -1)]),)
        assert merged(term_mul(a, b)) == factored_term()

    def test_mul_adds_exponents(self):
        e2 = linear_form({EPS2: 1})
        a = (factored_term([(e2, 2)]),)
        b = (factored_term([(e2, 1)]),)
        assert merged(term_mul(a, b)) == factored_term([(e2, 3)])

    def test_mul_concatenates_pieces_without_merging(self):
        e1, e2 = linear_form({EPS1: 1}), linear_form({EPS2: 1})
        a, b, c = factored_term([(e1, 1)]), factored_term([(e1, -1)]), factored_term([(e2, 1)])
        ab = term_mul((a,), (b,))
        assert ab == (a, b) and ab[0] is a and ab[1] is b
        assert term_mul(ab, (c,)) == (a, b, c)
        assert term_mul((c,), ()) == (c,)

    def test_eval_direct_substitution(self):
        t = factored_term([(linear_form({EPS1: 1, EPS2: 1}), 1)])
        point = {EPS1: F(1), EPS2: F(2)}
        assert term_eval((t,), point) == 3

    def test_eval_pole(self):
        t = factored_term([(linear_form({EPS1: 1}), -1)])
        with pytest.raises(PoleError):
            term_eval((t,), {EPS1: F(0), EPS2: F(1)})

    def test_eval_half_times_ratio(self):
        t = factored_term([(linear_form({EPS1: F(1, 2)}), 1), (linear_form({EPS2: 1}), -2)])
        assert term_eval((t,), {EPS1: F(4), EPS2: F(2)}) == F(1, 2)

    def test_zero_base_with_positive_exponent_is_zero(self):
        t = factored_term([(linear_form({EPS1: 1, EPS2: -1}), 2)])
        assert term_eval((t,), {EPS1: F(3), EPS2: F(3)}) == 0

    def test_rejects_symbolically_zero_form(self):
        with pytest.raises(ValueError):
            factored_term([(linear_form({}), 1)])


class TestCoefficient:
    def test_empty_sum(self):
        assert coeff_eval((), {EPS1: F(2, 3), EPS2: F(-1, 7)}) == 0

    def test_partial_fraction_sum(self):
        # 1/(eps1 (eps2-eps1)) + 1/(eps2 (eps1-eps2)) at (1, 3) = 1/2 - 1/6 = 1/3
        e1 = linear_form({EPS1: 1})
        e2 = linear_form({EPS2: 1})
        d12 = linear_form({EPS2: 1, EPS1: -1})
        d21 = linear_form({EPS1: 1, EPS2: -1})
        c = (
            (factored_term([(e1, -1), (d12, -1)]),),
            (factored_term([(e2, -1), (d21, -1)]),),
        )
        assert coeff_eval(c, {EPS1: F(1), EPS2: F(3)}) == F(1, 3)

    def test_opposite_terms_cancel(self):
        form = linear_form({EPS1: 2})
        c = ((factored_term([(form, 1)]),), (factored_term([(-form, 1)]),))
        for value in (F(1), F(-5, 3), F(7, 2)):
            assert coeff_eval(c, {EPS1: value, EPS2: F(1)}) == 0


_POOL_VARS = [EPS1, EPS2, var_a(1), var_m(1)]

_form_strategy = st.builds(
    lambda coeffs: linear_form(dict(zip(_POOL_VARS, coeffs))),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
).filter(lambda f: not f.is_zero())

_factor_strategy = st.tuples(_form_strategy, st.integers(-2, 2).filter(bool))

_term_strategy = st.builds(factored_term, st.lists(_factor_strategy, max_size=4))

_point_strategy = st.builds(
    lambda vals: dict(zip(_POOL_VARS, vals)),
    st.lists(
        st.fractions(min_value=-9, max_value=9).filter(bool), min_size=4, max_size=4
    ),
)


@settings(max_examples=150, deadline=None)
@given(t=_term_strategy, u=_term_strategy, point=_point_strategy)
def test_term_mul_is_pointwise_product(t, u, point):
    try:
        expected = term_eval((t,), point) * term_eval((u,), point)
        got = term_eval(term_mul((t,), (u,)), point)
    except PoleError:
        return  # pole of one side: nothing to compare at this point
    assert got == expected


@settings(max_examples=150)
@given(factors=st.lists(_factor_strategy, max_size=5), data=st.data())
def test_normalization_order_independent_and_idempotent(factors, data):
    shuffled = data.draw(st.permutations(factors))
    a = factored_term(factors)
    b = factored_term(shuffled)
    assert a == b
    rebuilt = factored_term(a.factors)
    assert rebuilt == a


@settings(max_examples=150)
@given(t=_term_strategy, n=st.sampled_from([-3, -1, 2, 3]))
def test_term_pow_scales_a_canonical_term_in_place(t, n):
    # the fast path equals the merge it replaced, and shares t's forms
    got = term_pow(t, n)
    assert got == factored_term([(form, exp * n) for form, exp in t.factors])
    assert all(a is b for (a, _), (b, _) in zip(got.factors, t.factors))
    assert term_pow(t, 0) == UNIT_TERM


# The evaluation kernel against a plain Fraction reference.  Coefficients
# lie in (1/2)Z, as every form's must, and points are arbitrary rationals
# that include 0, so that factors vanish and poles occur.
_KERNEL_COEFFS = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(5, 2), F(-7, 2), F(3)]

_kernel_form = st.builds(
    lambda coeffs: linear_form(dict(zip(_POOL_VARS, coeffs))),
    st.lists(st.sampled_from(_KERNEL_COEFFS), min_size=4, max_size=4),
).filter(lambda f: not f.is_zero())

_kernel_term = st.builds(
    factored_term,
    st.lists(st.tuples(_kernel_form, st.integers(-3, 3).filter(bool)), max_size=5),
)

_kernel_value = st.one_of(
    st.just(F(0)),
    st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)

_kernel_point = st.builds(
    lambda vals: dict(zip(_POOL_VARS, vals)),
    st.lists(_kernel_value, min_size=4, max_size=4),
)


def _reference_piece(t, point):
    values = [(form.evaluate(point), exp) for form, exp in t.factors]
    if any(value == 0 and exp < 0 for value, exp in values):
        raise PoleError("reference pole")
    total = F(1)
    for value, exp in values:
        total *= value**exp
    return total


def _reference_term(t, point):
    """A term's value: the product of its pieces' values, a pole when any
    piece has one (even where another piece's numerator vanishes)."""
    values = [_reference_piece(piece, point) for piece in t]
    total = F(1)
    for value in values:
        total *= value
    return total


@settings(max_examples=200)
@given(pieces=st.lists(_term_strategy, max_size=4), point=_point_strategy)
def test_one_degree_coefficient_takes_its_sign_at_the_negated_point(pieces, point):
    c = tuple((piece,) for piece in pieces)
    degrees = {sum(exp for _, exp in piece.factors) for piece in pieces}
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
    @settings(max_examples=300, deadline=None)
    @given(pieces=st.lists(_kernel_term, min_size=1, max_size=4), point=_kernel_point)
    def test_coeff_and_term_eval_match_fraction_reference(self, pieces, point):
        c = tuple((piece,) for piece in pieces)
        try:
            expected = sum((_reference_term(t, point) for t in c), F(0))
        except PoleError:
            with pytest.raises(PoleError):
                coeff_eval(c, point)
            return
        assert coeff_eval(c, point) == expected
        for t in c:
            assert term_eval(t, point) == _reference_term(t, point)

    def test_half_integer_coefficients_at_rational_points_are_exact(self):
        f = linear_form({EPS1: F(1, 2), EPS2: F(5, 2)})
        t = (factored_term([(f, 2), (linear_form({EPS1: F(3, 2)}), -1)]),)
        point = {EPS1: F(3, 5), EPS2: F(-7, 4)}
        # f = 3/10 - 35/8 = -163/40, eps1 term = 9/10
        assert term_eval(t, point) == F(-163, 40) ** 2 / F(9, 10)
        assert coeff_eval((t, t), point) == 2 * term_eval(t, point)

    def test_pole_error_names_the_form_its_exponent_and_the_point(self):
        # both denominator forms vanish where eps1 = eps2; the first seen is
        # named, eps1 - eps2, with its exponent in the first piece that
        # holds it
        f, g = linear_form({EPS1: 1, EPS2: -1}), linear_form({EPS1: F(1, 2), EPS2: F(-1, 2)})
        first, second = factored_term([(_E1, 1), (f, -2)]), factored_term([(g, -1), (f, -3)])
        kernel = Kernel([((factored_term([(_E1, 1)]),),), ((first, second),)])
        point = {EPS1: F(2, 3), EPS2: F(2, 3)}
        with pytest.raises(PoleError) as info:
            kernel.evaluate(point)
        assert str(info.value) == "pole: (eps1 - eps2)^-2 at eps1=2/3, eps2=2/3"

    @pytest.mark.parametrize(
        "first, second, named",
        [
            # a form with no eps part beside forms that have one
            (linear_form({var_a(1): 1, var_a(2): -1}), linear_form({var_a(1): 2, var_a(2): -2}), "a1 - a2"),
            # a pure eps form beside forms with a frame part
            (linear_form({EPS1: 1, EPS2: -1}), linear_form({EPS1: F(1, 2), EPS2: F(-1, 2)}), "eps1 - eps2"),
        ],
    )
    def test_pole_error_names_the_first_seen_form_whatever_its_parts(self, first, second, named):
        # both denominator forms vanish where eps1 = eps2 and a1 = a2; the
        # numerator forms mix eps and frame parts and do not vanish
        mass = linear_form({var_a(1): 1, var_m(1): 1, EPS1: F(-1, 2), EPS2: F(-1, 2)})
        gap = linear_form({var_a(2): 1, var_a(1): -1, EPS1: 1})
        pieces = factored_term([(mass, 1), (first, -2)]), factored_term([(second, -1), (first, -3)])
        kernel = Kernel([((factored_term([(mass, 1), (gap, 2)]),),), (pieces,)])
        point = {EPS1: F(2, 3), EPS2: F(2, 3), var_a(1): F(-3, 4), var_a(2): F(-3, 4), var_m(1): F(5)}
        with pytest.raises(PoleError) as info:
            kernel.evaluate(point)
        assert str(info.value) == f"pole: ({named})^-2 at eps1=2/3, eps2=2/3, a1=-3/4, a2=-3/4, m1=5"

    def test_forms_without_eps_read_only_their_frames(self):
        diff, mass = linear_form({var_a(1): 1, var_a(2): -1}), linear_form({var_a(1): 1, var_m(1): 1})
        t = (factored_term([(diff, -1), (mass, 2)]),)
        point = {EPS1: F(5), EPS2: F(-7), var_a(1): F(2), var_a(2): F(-1, 3), var_m(1): F(1, 2)}
        kernel = Kernel([(t,), (t, (factored_term([(mass, 1)]),))])
        assert kernel.frames == [diff.frame, mass.frame]
        assert diff.frame == ((var_a(1), 2), (var_a(2), -2))
        # diff = 7/3 and mass = 5/2
        value = F(5, 2) ** 2 / F(7, 3)
        assert kernel.evaluate(point) == [value, value + F(5, 2)]

    def test_pole_after_vanished_factor_raises(self):
        vanishing = linear_form({EPS1: -1})
        pole = linear_form({EPS2: F(1, 2)})
        t = factored_term([(pole, -1), (vanishing, 2)])
        assert [form for form, _ in t.factors] == [vanishing, pole]
        point = {EPS1: F(0), EPS2: F(0)}
        with pytest.raises(PoleError):
            term_eval((t,), point)
        with pytest.raises(PoleError):
            coeff_eval(((), (t,)), point)


# A kernel compiled from several coefficients that draw their forms from one
# small pool over eps1, eps2, a1, m1 and a2, so forms have several distinct
# frame parts (all but their eps coefficients).  Every use rebuilds its
# form from the pool's coefficients, so equal forms reach the kernel as
# distinct objects, and halves give odd doubled numerators.  The pool's
# first form always has a twin with the same frame part and other eps
# coefficients, and one coefficient holds both.
# A piece's factors may have either sign of exponent, and some pieces are
# built twice from one draw: value-equal twins that are distinct objects,
# in canonical or in reversed (build) order.  Pieces of one or two factors
# of exponent +-1 give term sides of one form, which the kernel reads
# directly, and the pool may hold a form that vanishes at the test's point
# (drawn from the same shared strategy), so such a side zeroes its term or
# is a pole.  A coefficient mixes degrees, or holds one degree d: each of
# its terms then gets one more piece, a form to the power d minus the
# term's degree.
_SLOT_COEFFS = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)]
_EXPONENTS = [-3, -2, -1, 1, 2, 3]
_COMPILED_VARS = [*_POOL_VARS, var_a(2)]
_COMPILED_POINT = st.shared(
    st.builds(
        lambda vals: dict(zip(_COMPILED_VARS, vals)),
        st.lists(_kernel_value, min_size=5, max_size=5),
    ),
    key="compiled-kernel-point",
)


@st.composite
def _compiled_coefficients(draw):
    pool = draw(
        st.lists(
            st.lists(st.sampled_from(_SLOT_COEFFS), min_size=5, max_size=5).filter(any),
            min_size=1,
            max_size=4,
        )
    )
    first = pool[0]
    shift = draw(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
            lambda s: any(s) and any([first[0] + s[0], first[1] + s[1], *first[2:]])
        )
    )
    pool.append([first[0] + shift[0], first[1] + shift[1], *first[2:]])
    twins = len(pool) - 1
    if draw(st.booleans()):
        # x_j v_i - x_i v_j vanishes at the point x (v_i alone when both are
        # 0), cleared of denominators so its coefficients are integers
        point = draw(_COMPILED_POINT)
        i, j = draw(st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True))
        xi, xj = point[_COMPILED_VARS[i]], point[_COMPILED_VARS[j]]
        den = xi.denominator * xj.denominator
        row = [F(0)] * 5
        row[i], row[j] = (xj * den, -xi * den) if xi or xj else (F(1), F(0))
        pool.append(row)

    def rebuilt(i):
        return linear_form(dict(zip(_COMPILED_VARS, pool[i])))

    def built(factors, reverse=False):
        piece = factored_term([(rebuilt(i), e) for i, e in factors])
        return FactoredTerm(piece.factors[::-1]) if reverse else piece

    index = st.integers(0, len(pool) - 1)
    factors = st.lists(st.tuples(index, st.sampled_from(_EXPONENTS)), max_size=4)
    lone = st.lists(st.tuples(index, st.sampled_from([-1, 1])), min_size=1, max_size=2)
    one_piece = st.one_of(st.builds(built, factors), st.builds(built, lone))
    # terms draw their pieces from one pool, so pieces are shared by
    # identity across terms and coefficients, and twins share by value
    shared = draw(st.lists(one_piece, min_size=1, max_size=4))
    for fs, reverse in draw(st.lists(st.tuples(factors, st.booleans()), max_size=2)):
        shared += [built(fs), built(fs, reverse)]
    product = st.builds(
        lambda ix: tuple(shared[i] for i in ix),
        st.lists(st.integers(0, len(shared) - 1), max_size=3),
    )
    terms = st.one_of(one_piece.map(lambda p: (p,)), product)

    def of_degree(d, c, balancers):
        out = []
        for t, i in zip(c, balancers):
            e = d - sum(exp for piece in t for _, exp in piece.factors)
            out.append(t + (built([(i, e)]),) if e else t)
        return tuple(out)

    mixed = st.lists(terms, max_size=4).map(tuple)
    balancers = st.lists(index, min_size=4, max_size=4)
    one_degree = st.builds(of_degree, st.integers(-2, 2), st.lists(terms, max_size=4), balancers)
    coeffs = draw(st.lists(st.one_of(mixed, one_degree), min_size=1, max_size=3))
    exps = draw(st.tuples(st.sampled_from(_EXPONENTS), st.sampled_from(_EXPONENTS)))
    twin_term = (built([(0, exps[0]), (twins, exps[1])]),)
    coeffs.insert(draw(st.integers(0, len(coeffs))), (twin_term,))
    return coeffs


def _distinct_pieces(coeffs):
    """The distinct pieces of the coefficients' terms, by identity and in
    first-seen order."""
    seen = {}
    for c in coeffs:
        for t in c:
            for piece in t:
                seen.setdefault(id(piece), piece)
    return list(seen.values())


def _factor_sets(pieces, forms):
    """The sorted value refs of every side of `pieces` that holds more than
    one form, each once across sides: the products a kernel whose forms
    are `forms` takes at a point.  Form i is read at ref i + 1."""
    ref = {form: i + 1 for i, form in enumerate(forms)}
    sets = {}
    for piece in pieces:
        for sign in (1, -1):
            refs = sorted(ref[f] for f, e in piece.factors for _ in range(e * sign))
            if len(refs) > 1:
                sets[tuple(refs)] = None
    return list(sets)


@contextmanager
def compiled_pieces():
    """Record every piece a kernel compile hands to `_compile_piece`, in
    order, while the block runs."""
    compiled, compile_piece = [], exact._compile_piece

    def recording(piece, *state):
        compiled.append(piece)
        return compile_piece(piece, *state)

    exact._compile_piece = recording
    try:
        yield compiled
    finally:
        exact._compile_piece = compile_piece


def reusing_ids():
    """An `id` unique among live objects only, as CPython's is, that hands
    a dead object's number to the next object it is asked about."""
    numbers, free = {}, []

    def fake_id(obj):
        key = id(obj)
        if key not in numbers:
            number = free.pop() if free else len(numbers)

            def died(_, key=key, number=number):
                del numbers[key]
                free.append(number)

            numbers[key] = (weakref.ref(obj, died), number)
        return numbers[key][1]

    return fake_id


_E1, _E2 = linear_form({EPS1: 1}), linear_form({EPS2: 1})
_HALF_E2 = linear_form({EPS2: F(1, 2)})


class TestCompiledKernel:
    @settings(max_examples=300)
    @given(coeffs=_compiled_coefficients(), point=_COMPILED_POINT)
    # negative denominators: 1/eps1 + 1/(eps1 eps2)^2 + 2/eps2
    @example(
        coeffs=[(
            (factored_term([(_E1, -1)]),),
            (factored_term([(_E1, -2), (_E2, -2)]),),
            (factored_term([(_HALF_E2, -1)]),),
        )],
        point={EPS1: F(-2), EPS2: F(-1, 3)},
    )
    # a vanishing numerator makes its term 0, and an empty coefficient is 0
    @example(
        coeffs=[((factored_term([(_E1, 3), (_E2, -1)]),), (factored_term([(_E2, -2)]),)), ()],
        point={EPS1: F(0), EPS2: F(2)},
    )
    # a lone numerator ref that vanishes zeroes its term in a coefficient of
    # one degree: eps1 / eps2 + eps2 / 2 = 3 / 2 at (0, 3)
    @example(
        coeffs=[(
            (factored_term([(_E1, 1)]), factored_term([(_E2, -1)])),
            (factored_term([(_HALF_E2, 1)]),),
        )],
        point={EPS1: F(0), EPS2: F(3)},
    )
    # mixed degrees 1, -1 and 0 beside a coefficient of degree 2
    @example(
        coeffs=[
            ((factored_term([(_E1, 1)]),), (factored_term([(_HALF_E2, -1)]),), ()),
            ((factored_term([(_E1, 1), (_E2, 1)]),), (factored_term([(_HALF_E2, 2)]),)),
        ],
        point={EPS1: F(2, 3), EPS2: F(-5)},
    )
    # a denominator vanishing after a vanished numerator factor is a pole,
    # after another coefficient was read clean
    @example(
        coeffs=[((factored_term([(_E1, 1)]),),), ((factored_term([(_HALF_E2, -2), (_E1, 1)]),),)],
        point={EPS1: F(0), EPS2: F(0)},
    )
    # a piece's vanishing denominator is a pole even where another piece's
    # numerator vanishes, and merged the two would cancel
    @example(
        coeffs=[((factored_term([(_E1, 1)]), factored_term([(_E1, -1)])),)],
        point={EPS1: F(0), EPS2: F(1)},
    )
    def test_kernel_matches_the_reference_with_one_slot_per_form(self, coeffs, point):
        with compiled_pieces() as compiled:
            kernel = Kernel(coeffs)
        pieces = _distinct_pieces(coeffs)
        assert len(compiled) == len(pieces)
        assert all(a is b for a, b in zip(compiled, pieces))
        forms = {form for piece in pieces for form, _ in piece.factors}
        assert len(kernel.forms) == len(forms) and set(kernel.forms) == forms
        # each distinct frame part once, in first-seen order (twins share
        # one), read off the forms' Fraction coefficients and doubled
        frames = dict.fromkeys(
            tuple((v, int(2 * c)) for v, c in form.coeffs if v not in (EPS1, EPS2))
            for form in kernel.forms
        )
        assert kernel.frames == list(frames)
        # one product per distinct factor set: twins add none
        assert kernel.sets == _factor_sets(pieces, kernel.forms)
        poles = dict.fromkeys(form for c in coeffs for form in coeff_denominator_forms(c))
        assert kernel.pole_forms == list(poles)
        assert kernel.degrees == [coeff_degree(c) for c in coeffs]
        try:
            expected = [sum((_reference_term(t, point) for t in c), F(0)) for c in coeffs]
        except PoleError:
            with pytest.raises(PoleError):
                kernel.evaluate(point)
            return
        assert kernel.evaluate(point) == expected

    def test_equal_forms_share_one_slot(self):
        a, b = linear_form({EPS1: F(1, 2), EPS2: -1}), linear_form({EPS2: -1, EPS1: F(1, 2)})
        assert a is not b and a == b and reduced_pairs(a)[1] == 2
        kernel = Kernel([((factored_term([(a, 2)]),),), ((factored_term([(b, -3)]),),)])
        assert kernel.forms == [a]
        # a = 1/2 + 2 = 5/2 at (1, -2)
        assert kernel.evaluate({EPS1: F(1), EPS2: F(-2)}) == [F(25, 4), 1 / F(5, 2) ** 3]
        assert kernel.pole_forms == [a] and kernel.degrees == [2, -3]

    def test_a_freed_piece_lends_no_id_to_a_later_piece(self, monkeypatch):
        # each coefficient is a term of one piece built anew, which the
        # generator drops once it is handed over: were the compile not to
        # hold it, a later piece could take its id and be read as its entry.
        # CPython reuses a freed object's id only when its memory is reused;
        # this id does so at every chance, so the hazard does not hang on
        # the allocator
        monkeypatch.setattr(exact, "id", reusing_ids(), raising=False)

        def fresh(i):
            return ((factored_term([(linear_form({EPS1: 1, EPS2: i}), -1)]),),)

        point = {EPS1: F(3), EPS2: F(-5, 2)}
        kernel = Kernel(fresh(i) for i in range(40))
        expected = [sum((_reference_term(t, point) for t in fresh(i)), F(0)) for i in range(40)]
        assert kernel.evaluate(point) == expected


@st.composite
def _summed_coefficients(draw):
    """Coefficients whose terms hold sums, drawn from the flat terms of
    `_compiled_coefficients`: a term's factors are a flat term's pieces in
    place, a new sum of one or two terms (themselves up to two levels
    deep), or a sum drawn before, which is the same object."""
    flat = [t for c in draw(_compiled_coefficients()) for t in c] or [()]
    made = []

    def term(depth):
        out = ()
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(["pieces", "sum", "again"] if depth else ["pieces"]))
            if kind == "pieces":
                out += draw(st.sampled_from(flat))
            elif kind == "again" and made:
                out += (draw(st.sampled_from(made)),)
            else:
                made.append(tuple(term(depth - 1) for _ in range(draw(st.integers(1, 2)))))
                out += (made[-1],)
        return out

    return [tuple(term(2) for _ in range(draw(st.integers(0, 3)))) for _ in range(draw(st.integers(1, 3)))]


class TestSums:
    """A term's factor may be a sum, a tuple of terms: the kernel compiles
    each distinct sum of several terms once, splices a one-term sum into
    its term, and reads what the multiplied-out terms read."""

    @settings(max_examples=100, deadline=None)
    @given(coeffs=_summed_coefficients(), point=_COMPILED_POINT)
    def test_sums_read_like_their_expansion(self, coeffs, point):
        kernel = Kernel(coeffs)
        flat = [expanded_terms(c) for c in coeffs]
        reference = Kernel(flat)
        assert set(kernel.pole_forms) == set(reference.pole_forms)
        assert kernel.pole_forms == list(dict.fromkeys(f for c in coeffs for f in coeff_denominator_forms(c)))
        assert kernel.degrees == reference.degrees == [coeff_degree(c) for c in coeffs]
        try:
            expected = [sum((_reference_term(t, point) for t in c), F(0)) for c in flat]
        except PoleError:
            with pytest.raises(PoleError):
                kernel.evaluate(point)
            return
        assert kernel.evaluate(point) == expected

    def test_each_sum_compiles_once_and_a_one_term_sum_is_spliced(self, monkeypatch):
        a = factored_term([(_E1, 1), (_HALF_E2, -1)])
        b = factored_term([(_E2, -2)])
        c = factored_term([(linear_form({EPS1: 1, EPS2: 1}), 1)])
        inner = ((a,), (b, c))  # a + b c
        outer = ((inner, c), (a,))  # (a + b c) c + a
        # inner times the one-term sum of inner, outer times that of b; then
        # a coefficient with no sum in it, and inner again as a coefficient
        coeffs = [((inner, ((inner,),)), (outer, ((b,),))), ((a, b), (c,)), ((outer, inner),), inner]
        compiled, compile_sum = [], exact._compile_sum
        monkeypatch.setattr(exact, "_compile_sum", lambda s, state: compiled.append(s) or compile_sum(s, state))
        kernel = Kernel(coeffs)
        # each coefficient, and each sum of several terms once, inner before
        # the sum that holds it; the one-term sums are spliced
        assert [id(x) for x in compiled] == [id(coeffs[0]), id(inner), id(outer), *map(id, coeffs[1:])]
        point = {EPS1: F(3), EPS2: F(-5, 2)}
        expected = [sum((_reference_term(t, point) for t in expanded_terms(c)), F(0)) for c in coeffs]
        assert kernel.evaluate(point) == expected
        assert kernel.degrees == [coeff_degree(c) for c in coeffs]
        # a coefficient that is also a factor sum of a later coefficient
        coeffs = [outer, ((a, outer), (outer, outer))]
        expected = [sum((_reference_term(t, point) for t in expanded_terms(c)), F(0)) for c in coeffs]
        assert Kernel(coeffs).evaluate(point) == expected

    def test_a_sum_of_mixed_degree_mixes_its_terms(self):
        a = factored_term([(_E1, 1)])
        b = factored_term([(_E2, 2)])
        c = factored_term([(_E1, -1)])
        mixed, even = ((a,), (b,)), ((a,), (c, b))
        coeffs = [((c, mixed),), ((c, even),), ((mixed, even), (b,))]
        # a + b has degrees 1 and 2, a + c b degree 1 twice
        assert Kernel(coeffs).degrees == [None, 0, None]
        assert [coeff_degree(coeff) for coeff in coeffs] == [None, 0, None]


class TestProducts:
    """A term of several pieces keeps them: the kernel compiles each
    distinct piece once, and its values, degrees and denominator forms
    agree with the term's canonical merge wherever no form cancels between
    pieces."""

    def _pieces(self):
        a = factored_term([(_E1, 1), (_HALF_E2, -1)])
        b = factored_term([(_E2, -2)])
        c = factored_term([(linear_form({EPS1: 1, EPS2: 1}), 1)])
        return a, b, c

    def test_merge_of_a_product_evaluates_like_the_product(self):
        a, b, c = self._pieces()
        coeff = ((a, b), (b, c, a), (c,))
        point = {EPS1: F(3), EPS2: F(-5, 2)}
        expected = sum((term_eval((merged(t),), point) for t in coeff), F(0))
        assert coeff_eval(coeff, point) == expected
        assert coeff_degree(coeff) is None
        assert coeff_degree(((a, b), (b, a))) == -2
        assert coeff_degree(((),)) == 0
        kernel = Kernel([coeff, ((a, b), (b, a)), ((),), ()])
        assert kernel.degrees == [None, -2, 0, 0]

    def test_denominator_forms_are_read_once_per_piece(self):
        a, b, c = self._pieces()
        coeff = ((a, b), (b, c), (c,))
        forms = coeff_denominator_forms(coeff)
        assert forms == [_HALF_E2, _E2]
        assert Kernel([coeff]).pole_forms == forms

    def test_each_piece_compiles_once(self, monkeypatch):
        # and each distinct factor set is one product per point: b's twin,
        # value-equal but built anew, shares b's
        a, b, c = self._pieces()
        twin = factored_term([(linear_form({EPS2: 1}), -2)])
        assert twin == b and twin is not b
        coeffs = [((a, b), (b, c)), ((c, a), (a,), (twin, c))]
        with compiled_pieces() as compiled:
            kernel = Kernel(coeffs)
        assert compiled == [a, b, c, twin]
        assert all(x is y for x, y in zip(compiled, [a, b, c, twin]))
        assert set(kernel.forms) == {_E1, _HALF_E2, _E2, linear_form({EPS1: 1, EPS2: 1})}
        ref = {form: i + 1 for i, form in enumerate(kernel.forms)}
        # every other piece side is one form: only b's denominator is a set
        assert kernel.sets == [(ref[_E2], ref[_E2])]
        point = {EPS1: F(3), EPS2: F(-5, 2)}
        expected = [sum((term_eval((merged(t),), point) for t in coeff), F(0)) for coeff in coeffs]
        products = []

        def recording(values):
            values = list(values)
            products.append(len(values))
            return prod(values)

        monkeypatch.setattr(exact, "prod", recording)
        assert kernel.evaluate(point) == expected
        # one product per factor set, then one per term side with more than
        # one ref: (a, b)'s denominator and (c, a)'s numerator have two
        # each; (b, c), (twin, c) and (a,) read one ref per side
        assert products == [len(refs) for refs in reversed(kernel.sets)] + [2, 2]

    def test_substitution_images_each_distinct_piece_once(self, monkeypatch):
        a, b, c = self._pieces()
        rule = rule_chart(1, (0,))
        built = []
        monkeypatch.setattr(exact, "factored_term", lambda *args: built.append(args) or factored_term(*args))
        images: dict = {}
        first = term_substitute((a, b), rule, images)
        second = term_substitute((b, c), rule, images)
        third = term_substitute((a,), rule, images)
        assert len(built) == 3
        assert first[1] is second[0] and third == (first[0],)
        for t, image in (((a, b), first), ((b, c), second)):
            by_hand = factored_term(
                [(substitute(form, reference_chart(1, (0,))), exp) for form, exp in merged(t).factors]
            )
            assert merged(image) == by_hand


# Int-coded forms against a plain Fraction reference: a dict from variable
# to nonzero coefficient, in (1/2)Z.
_REF_VARS = [EPS1, EPS2, var_a(1), var_a(2), var_m(1)]
_REF_COEFFS = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(5, 2), F(-7, 2)]

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


_int_rule = st.builds(
    lambda m, carrier, shifts: Rule((m[:2], m[2:]), carrier, tuple(shifts)),
    st.tuples(*[st.integers(-3, 3)] * 4),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.lists(st.integers(-3, 3), max_size=2),
)


def _ref_rule(rule):
    """An int rule as a dict from variable to its image's nonzero
    Fraction coefficients."""
    ((x1, y1), (x2, y2)), (xc, yc) = rule.matrix, rule.carrier
    images = {EPS1: {EPS1: x1, EPS2: y1}, EPS2: {EPS1: x2, EPS2: y2}}
    for alpha, n in enumerate(rule.shifts, start=1):
        images[var_a(alpha)] = {var_a(alpha): 1, EPS1: n * xc, EPS2: n * yc}
    return {v: {w: F(c) for w, c in image.items() if c} for v, image in images.items()}


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
    for v, c in sorted(a.items()):
        sign = "-" if c < 0 else "+"
        body = var_name(v) if abs(c) == 1 else f"{format_rational(abs(c))}*{var_name(v)}"
        if not text:
            text = body if sign == "+" else f"-{body}"
        else:
            text += f" {sign} {body}"
    return text


def _ref_fields(a):
    """A reference form's (p, q, frame): its doubled eps1 and eps2
    coefficients and the sorted (slot, doubled coefficient) pairs of the
    rest."""
    frame = tuple(sorted((v, int(2 * c)) for v, c in a.items() if v not in (EPS1, EPS2)))
    return int(2 * a.get(EPS1, 0)), int(2 * a.get(EPS2, 0)), frame


def _assert_matches(form, ref):
    assert form == linear_form(ref) == LinearForm(*_ref_fields(ref))
    assert (form.p, form.q, form.frame) == _ref_fields(ref)
    assert hash(form) == hash(linear_form(ref))
    assert form.is_zero() == (not ref)
    assert form.coeffs == tuple(sorted(ref.items()))
    for v in _REF_VARS:
        assert coefficient(form, v) == ref.get(v, F(0))
    assert str(form) == _ref_str(ref)


class TestFormsAgainstReference:
    @settings(max_examples=200)
    @given(a=_ref_form, rule=_int_rule, point=_ref_point)
    def test_int_coded_forms_match_fraction_reference(self, a, rule, point):
        form_a = linear_form(a)
        _assert_matches(form_a, a)
        _assert_matches(-form_a, {v: -c for v, c in a.items()})
        _assert_matches(form_image(form_a, rule), _ref_substitute(a, _ref_rule(rule)))
        expected = sum((c * point[v] for v, c in a.items()), F(0))
        assert form_a.evaluate(point) == expected

    def test_equal_forms_built_differently_are_one_dict_key(self):
        half = linear_form({EPS1: F(1, 2), EPS2: F(-3, 2)})
        built = [
            linear_form({EPS2: F(-3, 2), var_a(1): 0, EPS1: F(2, 4)}),
            LinearForm(1, -3, ()),
            added(linear_form({EPS1: 1}), linear_form({EPS1: F(-1, 2), EPS2: F(-3, 2)})),
        ]
        for form in built:
            assert form == half and hash(form) == hash(half)
        t = factored_term([(half, 1), (built[0], 2), (built[1], -1)])
        assert t.factors == ((half, 2),)
        assert str(half) == "1/2*eps1 - 3/2*eps2"


# Rank 1-3 forms with coefficients in (1/2)Z, and first-Chern vectors
# with entries in {-1, -1/2, 0, 1/2, 1}.
_IMAGE_COEFFS = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(5, 2), F(-7, 2)]


@st.composite
def _form_and_rules(draw):
    r = draw(st.integers(1, 3))
    scope = scope_vars(r)
    coeffs = draw(st.lists(st.sampled_from(_IMAGE_COEFFS), min_size=len(scope), max_size=len(scope)))
    kvec = tuple(draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)))  # doubled entries
    rules = [(rule_negate_eps(), reference_negate_eps())]
    rules += [(rule_chart(side, kvec), reference_chart(side, kvec)) for side in (1, 2)]
    return linear_form(dict(zip(scope, coeffs))), rules


class TestRuleImages:
    """`form_image`, the one place the engine substitutes a rule into a
    form, against the reference substitution of the rule written as a
    dict of image forms: both charts and the eps flip."""

    @settings(max_examples=300)
    @given(drawn=_form_and_rules())
    def test_form_image_equals_the_reference_substitution(self, drawn):
        form, rules = drawn
        for rule, reference in rules:
            image, expected = form_image(form, rule), substitute(form, reference)
            assert (image.p, image.q, image.frame) == (expected.p, expected.q, expected.frame)
            assert image.frame is form.frame
            assert hash(image) == hash(expected)

    def test_rules_are_small_hashable_int_maps(self):
        kvec = (1, -2)  # doubled entries
        assert rule_chart(1, kvec) == Rule(((2, 0), (-1, 1)), (1, 0), (1, -2))
        assert rule_chart(2, kvec) == Rule(((1, -1), (0, 2)), (0, 1), (1, -2))
        assert rule_negate_eps() == Rule(((-1, 0), (0, -1)), (0, 0), ())
        assert len({rule_chart(1, kvec), rule_chart(1, kvec), rule_chart(2, kvec)}) == 2
        with pytest.raises(ValueError):
            rule_chart(3, kvec)

    def test_an_integral_image_of_a_half_form_equals_its_linear_form(self):
        # (eps1 + eps2)/2 under eps2 -> eps1: eps1, doubled (2, 0)
        half = linear_form({EPS1: F(1, 2), EPS2: F(1, 2)})
        image = form_image(half, Rule(((1, 0), (1, 0)), (0, 0), ()))
        assert (image.p, image.q, image.frame) == (2, 0, ())
        assert image == linear_form({EPS1: 1}) and reduced_pairs(image) == (((EPS1, 1),), 1)
        zero = linear_form({})
        assert form_image(zero, rule_negate_eps()) == zero


_halves = st.lists(st.sampled_from([F(n, 2) for n in range(-4, 5)]), min_size=5, max_size=5)


class TestFormHash:
    """A form's hash is computed once, when the form is made; equal forms
    hash equal whichever way they were built, so they are one dict key
    (a kernel slot, a memo entry, a pole-union key)."""

    @settings(max_examples=200)
    @given(b=_halves, c=_halves)
    def test_equal_forms_built_by_every_route_hash_equal(self, b, c):
        ref_b = {v: x for v, x in zip(_REF_VARS, b) if x}
        ref_c = {v: x for v, x in zip(_REF_VARS, c) if x}
        total = _ref_add(ref_b, ref_c)
        expected = linear_form(total)
        built = [
            LinearForm(*_ref_fields(total)),
            added(linear_form(ref_b), linear_form(ref_c)),
            form_image(form_image(expected, rule_negate_eps()), rule_negate_eps()),
            -(-expected),
        ]
        for form in [expected] + built:
            assert form == expected
            assert hash(form) == hash(expected) == hash((form.p, form.q, form.frame))
        assert list(dict.fromkeys(built)) == [built[0]]


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
        merged = factored_term([(got, 1), (expected, 1)])
        assert merged.factors == ((expected, 2),)


# Engine-shaped forms at rank 2: eps parts in (1/2)Z (any doubled ints p,
# q) plus a frame part that is nothing, a_beta - a_alpha or a_alpha + m_f.
_ENGINE_FRAMES = [
    (),
    ((var_a(1), -2), (var_a(2), 2)),
    ((var_a(1), 2), (var_a(2), -2)),
    *[((var_a(alpha), 2), (var_m(f), 2)) for alpha in (1, 2) for f in range(1, 5)],
]

_engine_form = st.builds(
    LinearForm, st.integers(-7, 7), st.integers(-7, 7), st.sampled_from(_ENGINE_FRAMES)
).filter(lambda f: not f.is_zero())

_engine_point = st.builds(
    lambda vals: dict(zip(scope_vars(2), vals)),
    st.lists(_kernel_value, min_size=8, max_size=8),
)


def _zeroing(form, point):
    """`point` with the first variable of `form` moved so that `form`
    vanishes there."""
    (v, c), *rest = form.coeffs
    return {**point, v: -sum([n * point[s] for s, n in rest], F(0)) / c}


class TestFormReader:
    """`Kernel` and `clear_of` read forms through one pair of helpers,
    `_form_rows` and `_form_values`: each form reads 2 D times its value at
    a point scaled to (ints, D), and `clear_of` is false exactly when some
    form vanishes, as the ``Fraction`` reference `LinearForm.evaluate`
    says.  Some points are built to zero one of the forms."""

    @settings(max_examples=300, deadline=None)
    @given(
        forms=st.lists(_engine_form, max_size=12),
        point=_engine_point,
        zeroed=st.none() | st.integers(0, 11),
    )
    @example(
        forms=[LinearForm(1, -1, ((var_a(1), 2), (var_m(3), 2)))],
        point=dict.fromkeys(scope_vars(2), F(1)),
        zeroed=0,
    )
    @example(
        forms=[LinearForm(0, 2, ()), LinearForm(2, 0, ((var_a(1), -2), (var_a(2), 2)))],
        point=dict.fromkeys(scope_vars(2), F(2, 3)),
        zeroed=1,
    )
    def test_clear_of_and_the_shared_reader_match_the_fraction_reference(self, forms, point, zeroed):
        if zeroed is not None and forms:
            point = _zeroing(forms[zeroed % len(forms)], point)
            assert not clear_of(forms, point)
        ints, d = exact._scale_point(point)
        rows, frames = exact._form_rows(forms)
        assert exact._form_values(rows, frames, ints) == [2 * d * form.evaluate(point) for form in forms]
        expected = all(form.evaluate(point) != 0 for form in forms)
        assert clear_of(forms, point) == expected
        assert clear_of(iter(forms), point) == expected
