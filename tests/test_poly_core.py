import random
from fractions import Fraction
from math import comb, gcd as int_gcd

import pytest
from hypothesis import given, settings, strategies as st

from lndkit.config import TERM_BUDGET, budget
from lndkit.errors import (
    BudgetExceededError,
    ExponentOverflowError,
    LndError,
    ParseError,
    VariableMismatchError,
)
from lndkit.poly_core import (
    EXPONENT_LIMIT,
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    _layout,
    divide,
    exact_div,
    format_polynomial,
    gcd,
    monomial_div,
    monomial_lcm,
    monomial_mul,
    parse_polynomial,
    remainder,
    s_pair_remainder,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, vars=XYZ):
    return parse_polynomial(text, vars)


class TestMonomials:
    def test_mul_div_lcm(self):
        assert monomial_mul((1, 2), (3, 0)) == (4, 2)
        assert monomial_div((4, 2), (1, 2)) == (3, 0)
        assert monomial_div((1, 0), (0, 1)) is None
        assert monomial_lcm((1, 2), (3, 0)) == (3, 2)

    def test_overflow_is_an_error(self):
        big = (2**31, 0)
        with pytest.raises(ExponentOverflowError):
            monomial_mul(big, (1, 0))

    def test_exponent_at_the_limit_is_allowed(self):
        assert monomial_mul((EXPONENT_LIMIT - 1, 0), (1, 2)) == (EXPONENT_LIMIT, 2)
        with pytest.raises(ExponentOverflowError):
            monomial_mul((0, EXPONENT_LIMIT), (0, 1))

    def test_empty_monomials(self):
        assert monomial_mul((), ()) == ()
        assert monomial_div((), ()) == ()
        assert monomial_lcm((), ()) == ()

    def test_div_returns_none_unless_divisible(self):
        assert monomial_div((2, 1, 0), (2, 1, 1)) is None
        assert monomial_div((0, 3), (1, 0)) is None
        assert monomial_div((2, 1, 1), (2, 1, 1)) == (0, 0, 0)


class TestOrders:
    def test_lex(self):
        assert LEX.key((1, 0, 0)) > LEX.key((0, 5, 5))

    def test_grevlex_classic_tie(self):
        # deg-2 monomials in (u, v, X, Y): vX beats uY under grevlex
        uY = (1, 0, 0, 1)
        vX = (0, 1, 1, 0)
        assert GREVLEX.key(vX) > GREVLEX.key(uY)

    def test_block_order_eliminates_leading_variables(self):
        order = MonomialOrder.elimination(1)
        # any power of the eliminated variable dominates the others
        assert order.key((1, 0, 0)) > order.key((0, 9, 9))

    def test_permutation(self):
        order = MonomialOrder.lex(permutation=(2, 1, 0))
        assert order.key((5, 0, 1)) < order.key((0, 0, 2))

    @given(st.data())
    @settings(max_examples=150)
    def test_packing_agrees_with_exponent_tuples(self, data):
        # the division loop's packed ints against the tuple operations
        n = data.draw(st.integers(min_value=1, max_value=6))
        order = data.draw(_orders(n))
        layout = _layout(order, n)
        exponent = st.one_of(st.integers(min_value=0, max_value=4),
                             st.sampled_from([EXPONENT_LIMIT - 1, EXPONENT_LIMIT]))
        mono = st.tuples(*(exponent for _ in range(n)))
        pairs = data.draw(st.lists(st.tuples(mono, mono), min_size=1, max_size=20))
        for a, b in pairs:
            xa, xb = layout.pack([a, b])
            # Buchberger's pair queue: the lcm packed from exponent lists is
            # a common multiple of the packed leads, and it is their sum
            # exactly when they are coprime
            [xl] = layout.pack([[*map(max, a, b)]])
            assert [xl] == layout.pack([monomial_lcm(a, b)])
            assert not (xl - xa) & layout.guard and not (xl - xb) & layout.guard
            assert (xl == xa + xb) == (not any(map(min, a, b)))
            assert layout.unpack(xa) == a
            assert (xa < xb) == (order.key(a) > order.key(b))
            assert (xa == xb) == (a == b)
            assert (not (xa - xb) & layout.guard) == (monomial_div(a, b) is not None)
            # the per-step gate opens exactly when a's exponents leave too
            # little room for b's largest, so before any overflowing product
            gated = (xa + layout.gate(max(b))) & layout.guard
            assert bool(gated) == (max(a) + max(b) > EXPONENT_LIMIT)
            try:
                product = monomial_mul(a, b)
            except ExponentOverflowError as exc:
                assert gated
                with pytest.raises(ExponentOverflowError, match=str(exc)):
                    layout.check(xa, [(xb, 1)])
            else:
                layout.check(xa, [(xb, 1)])
                assert layout.pack([product]) == [xa + xb]
        # -X sorts as order.key does, ties (repeated monomials) included
        monos = [m for pair in pairs for m in pair]
        monos += monos[:3]
        packed = layout.pack(monos)
        assert (sorted(range(len(monos)), key=lambda i: order.key(monos[i]))
                == sorted(range(len(monos)), key=lambda i: -packed[i]))

    def test_hash_is_cached_and_equality_by_value(self):
        orders = [MonomialOrder.grevlex(), MonomialOrder.elimination(2, (2, 0, 1)),
                  MonomialOrder("lex", permutation=(1, 0))]
        for o in orders:
            twin = MonomialOrder(o.kind, o.block, o.permutation)
            assert twin == o and twin is not o and hash(twin) == hash(o)
            assert twin._hash == hash((o.kind, o.block, o.permutation))
        assert MonomialOrder.grevlex() == GREVLEX != GRLEX
        assert repr(GREVLEX) == "MonomialOrder(kind='grevlex', block=0, permutation=None)"
        f = P("x + y^2")
        assert f.sorted_terms(MonomialOrder.grevlex()) is f.sorted_terms(GREVLEX)

    def test_unknown_kind_raises(self):
        order = MonomialOrder("bogus")
        with pytest.raises(ValueError):
            order.key((1, 0))
        with pytest.raises(ValueError):
            _layout(order, 2)


class TestArithmetic:
    def test_cancellation(self):
        assert P("x + y") + P("x - y") == P("2x")

    def test_additive_identity(self):
        f = P("x^2*y - 3/2*z")
        assert f + Polynomial.zero(XYZ) == f

    def test_rational_coefficient_merge(self):
        assert P("x^2 + 1/2 y") + P("1/2 y") == P("x^2 + y")

    def test_difference_of_squares(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_multiplicative_identity(self):
        f = P("x^3 - 7/5 x y + 2")
        assert f * Polynomial.one(XYZ) == f

    def test_kernel_generator_product(self):
        # (Y + X Y^2) * X^2 = X^2 Y + X^3 Y^2
        vars = ("X", "Y")
        f = parse_polynomial("Y + X*Y^2", vars)
        g = parse_polynomial("X^2", vars)
        assert f * g == parse_polynomial("X^2*Y + X^3*Y^2", vars)

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            P("x", XY) + P("x", XYZ)

    def test_power(self):
        assert P("x + 1") ** 3 == P("x^3 + 3x^2 + 3x + 1")

    def test_scalar_ops(self):
        f = P("x + y")
        assert f * 2 == P("2x + 2y")
        assert f / 2 == P("1/2 x + 1/2 y")
        assert f - 1 == P("x + y - 1")

    def test_float_coefficients_are_refused(self):
        # 1/3 as a float is a binary approximation, not the number meant
        with pytest.raises(TypeError):
            Polynomial(XY, {(1, 0): 1 / 3})
        with pytest.raises(TypeError):
            Polynomial.constant(XY, 0.5)
        with pytest.raises(TypeError):
            P("x + y") / 2.0
        p = Polynomial(XY, {(1, 0): 3, (0, 1): Fraction(1, 3)})
        assert p == P("3x + 1/3 y", XY)
        assert all(type(c) is Fraction for c in p.terms.values())

    @pytest.mark.parametrize("form", [lambda p: p * 0.5, lambda p: 0.5 * p,
                                      lambda p: p + 0.5, lambda p: p - 0.5,
                                      lambda p: p / 0.5])
    def test_float_operands_raise_type_error(self, form):
        with pytest.raises(TypeError):
            form(P("x + y", XY))


class TestRingAxioms:
    def test_random_triples(self):
        rng = random.Random(20240811)
        vars = ("a", "b", "c", "d")
        for _ in range(100):
            f, g, h = (_random_poly(rng, vars) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h


def _random_poly(rng, vars, max_degree=6, n_terms=4):
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        mono = [0] * len(vars)
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            mono[rng.randrange(len(vars))] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(vars, terms)


class TestDivision:
    def test_single_divisor(self):
        qs, r = divide(P("x^2*y", XY), [P("x", XY)])
        assert qs == [P("x*y", XY)] and r.is_zero()

    def test_no_reduction(self):
        qs, r = divide(P("x^2 + 1", XY), [P("y", XY)])
        assert qs == [Polynomial.zero(XY)] and r == P("x^2 + 1", XY)

    def test_two_divisors_lex(self):
        # classic run: x^2 y + x y^2 by [xy - 1, y^2 - 1] leaves x + y
        f = P("x^2*y + x*y^2", XY)
        d1 = P("x*y - 1", XY)
        d2 = P("y^2 - 1", XY)
        qs, r = divide(f, [d1, d2], LEX)
        assert r == P("x + y", XY)
        assert qs[0] == P("x + y", XY) and qs[1].is_zero()

    def test_reconstruction_on_random_inputs(self):
        rng = random.Random(7)
        vars = ("x", "y", "z")
        for _ in range(40):
            f = _random_poly(rng, vars, 5)
            divisors = [p for p in (_random_poly(rng, vars, 3) for _ in range(2))
                        if not p.is_zero()]
            if not divisors:
                continue
            qs, r = divide(f, divisors, GREVLEX)
            total = r
            for q, d in zip(qs, divisors):
                total = total + q * d
            assert total == f
            lts = [d.leading_monomial(GREVLEX) for d in divisors]
            for m in r.terms:
                assert all(monomial_div(m, lt) is None for lt in lts)

    def test_empty_divisor_list(self):
        with pytest.raises(ValueError):
            divide(P("x"), [])
        assert remainder(P("x"), []) == P("x")

    def test_cancelled_term_that_reenters(self):
        # reducing x cancels the constant term; reducing y by the non-monic
        # -y + 1 brings it back before it is reached
        f = P("x^2 + x*y - 1", XY)
        divisors = [P("x - 1", XY), P("-y + 1", XY)]
        qs, r = divide(f, divisors)
        assert qs == [P("x + y + 1", XY), P("-1", XY)]
        assert r == P("1", XY)
        assert remainder(f, divisors) == r

    @given(st.data())
    @settings(max_examples=150)
    def test_matches_max_scan_division(self, data):
        n = data.draw(st.integers(min_value=0, max_value=4))
        order = data.draw(_orders(n))
        vars = ("a", "b", "c", "d")[:n]

        def polys(size):
            return st.dictionaries(_exponents(n, 3), _coefficients, max_size=size).map(
                lambda terms: Polynomial(vars, terms))

        divisors = data.draw(st.lists(polys(4).filter(lambda p: not p.is_zero()),
                                      min_size=1, max_size=3))
        # combinations of the divisors, so that reductions cancel work terms
        f = data.draw(polys(4))
        for d in divisors:
            f = f + data.draw(polys(2)) * d
        want_qs, want_r = _max_scan_divide(f, divisors, order)
        qs, r = divide(f, divisors, order)
        assert _exact_terms(r) == want_r
        assert [_exact_terms(q) for q in qs] == want_qs
        assert _exact_terms(remainder(f, divisors, order)) == want_r
        total = r
        for q, d in zip(qs, divisors):
            total = total + q * d
        assert total == f

    def test_division_record_is_cached_and_exact(self):
        d = P("-3/2*x^2*y + 1/3*y - 5/4", XYZ)
        first = d.division_record(GREVLEX)
        remainder(P("x^3*y^2", XYZ), [d], GREVLEX)
        assert d.division_record(GREVLEX) is first
        assert d.division_record(MonomialOrder.grevlex()) is first
        lead, lc, tail, k, gate = first
        layout = _layout(GREVLEX, 3)
        assert layout.unpack(lead) == (2, 1, 0) and lc > 0
        # the largest exponent is x's 2
        assert gate == layout.gate(2)
        row = Polynomial(XYZ, {layout.unpack(lead): lc,
                               **{layout.unpack(x): v for x, v in tail}})
        assert row * k == d
        assert int_gcd(lc, *(v for _, v in tail)) == 1
        assert d.division_record(LEX) is not first

    def test_exponent_past_the_limit_is_not_packed(self):
        # the packed overflow tests hold only for fields up to the limit
        f = Polynomial(XY, {(EXPONENT_LIMIT + 1, 0): Fraction(1)})
        with pytest.raises(ExponentOverflowError):
            remainder(f, [P("y", XY)])
        with pytest.raises(ExponentOverflowError):
            f.division_record(GREVLEX)

    def test_overflowing_product_raises(self):
        # x*y^20 by x - 2*y^(L-10) under lex: the one product y^(L+10) overflows
        top = EXPONENT_LIMIT - 10
        d = Polynomial(XY, {(1, 0): Fraction(1), (0, top): Fraction(-2)})
        with pytest.raises(ExponentOverflowError):
            remainder(Polynomial(XY, {(1, 20): Fraction(1)}), [d], LEX)
        with pytest.raises(ExponentOverflowError):
            divide(Polynomial(XY, {(1, 20): Fraction(1)}), [d], LEX)
        # y^L itself is allowed, as in monomial_mul
        r = remainder(Polynomial(XY, {(1, 10): Fraction(1)}), [d], LEX)
        assert r == Polynomial(XY, {(0, EXPONENT_LIMIT): Fraction(2)})

    def test_lift_rescales_the_remainder_collected_so_far(self):
        # y^2 enters the remainder at scale 1; reducing x by 2*x - 1 then
        # lifts the scale to 2, and y^2 must be lifted with it
        assert remainder(P("y^2 + x"), [P("2*x - 1")]) == P("y^2 + 1/2")

    def test_overflowing_s_pair_shift_raises(self):
        # x + y^L and x*y - 1 under lex: the shift y of the first tail
        # gives y^(L+1)
        f = Polynomial(XY, {(1, 0): Fraction(1), (0, EXPONENT_LIMIT): Fraction(1)})
        g = P("x*y - 1", XY)
        records = [f.division_record(LEX), g.division_record(LEX)]
        with pytest.raises(ExponentOverflowError):
            s_pair_remainder(XY, *records, records, LEX)

    def test_overflowing_s_pair_shift_raises_though_divided_away(self):
        # as above, with y^L among the divisors: y^(L+1) would be divided
        # away and leave no trace in the remainder
        f = Polynomial(XY, {(1, 0): Fraction(1), (0, EXPONENT_LIMIT): Fraction(1)})
        records = [p.division_record(LEX)
                   for p in (f, P("x*y - 1", XY), Polynomial(XY, {(0, EXPONENT_LIMIT): 1}))]
        with pytest.raises(ExponentOverflowError):
            s_pair_remainder(XY, *records[:2], records, LEX)


def _exponents(n, top):
    return st.tuples(*(st.integers(min_value=0, max_value=top) for _ in range(n)))


_coefficients = st.fractions(
    min_value=-6, max_value=6, max_denominator=4).filter(lambda c: c != 0)


def _orders(n):
    """Every order kind on n variables, with and without a permutation."""
    kinds = [st.builds(MonomialOrder, st.sampled_from(["lex", "grlex", "grevlex"]))]
    if n:
        kinds.append(st.builds(MonomialOrder.elimination,
                               st.integers(min_value=1, max_value=n)))
    plain = st.one_of(*kinds)
    return st.one_of(plain, st.builds(
        lambda o, perm: MonomialOrder(o.kind, o.block, tuple(perm)),
        plain, st.permutations(range(n))))


def _exact_terms(p):
    """Terms in stored order, failing unless every coefficient is a Fraction."""
    assert all(type(c) is Fraction for c in p.terms.values())
    return list(p.terms.items())


def _max_scan_divide(f, divisors, order):
    """Textbook division: reduce the largest remaining term, found by a scan."""
    quotients = [{} for _ in divisors]
    rem, work = {}, dict(f.terms)
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for q, d in zip(quotients, divisors):
            lt, lc = d.leading_term(order)
            if any(x < y for x, y in zip(m, lt)):
                continue
            t = tuple(x - y for x, y in zip(m, lt))
            q[t] = c / lc
            for tm, tc in d.terms.items():
                if tm != lt:
                    mm = tuple(x + y for x, y in zip(t, tm))
                    work[mm] = work.get(mm, 0) - c / lc * tc
                    if not work[mm]:
                        del work[mm]
            break
        else:
            rem[m] = c
    return [list(q.items()) for q in quotients], list(rem.items())


class TestGcd:
    def test_monomials(self):
        assert gcd(P("x^2*y", XY), P("x^3", XY)) == P("x^2", XY)

    def test_zero_argument(self):
        f = P("3x^2 + 3", XY)
        assert gcd(f, Polynomial.zero(XY)) == P("x^2 + 1", XY)

    def test_common_linear_factor(self):
        # x^2 - y^2 and (x + y)^2 share x + y
        assert gcd(P("x^2 - y^2", XY), P("x^2 + 2x*y + y^2", XY)) == P("x + y", XY)

    def test_divides_both(self):
        rng = random.Random(99)
        vars = ("x", "y")
        for _ in range(25):
            f = _random_poly(rng, vars, 4)
            g = _random_poly(rng, vars, 4)
            if f.is_zero() and g.is_zero():
                continue
            d = gcd(f, g)
            if not f.is_zero():
                exact_div(f, d)
            if not g.is_zero():
                exact_div(g, d)

    def test_five_variables(self):
        vars = ("a", "b", "c", "d", "e")
        s = P("a + b + c + d + e", vars)
        f = s ** 3 * P("a*b - c*d + e", vars)
        g = s ** 2 * P("a - b*c*d*e", vars) ** 2
        assert gcd(f, g) == s ** 2

    def test_charged_to_the_pair_budget(self):
        # the gcd is a Groebner run: an intersection of principal ideals
        with budget(pairs=0), pytest.raises(BudgetExceededError):
            gcd(P("x^2 - y^2", XY), P("x^2 + 2x*y + y^2", XY))

    def test_common_factor_scales(self):
        f = P("x^2 - y^2", XY)
        g = P("x + 2y", XY)
        h = P("x*y + 1", XY)
        lhs = gcd(f * h, g * h)
        rhs = gcd(f, g) * h
        assert lhs == rhs.monic(GREVLEX)


class TestTextSyntax:
    def test_readme_example(self):
        f = P("x^2*y - 3/2*z")
        assert f.terms == {(2, 1, 0): Fraction(1), (0, 0, 1): Fraction(-3, 2)}

    def test_star_optional(self):
        assert P("2x y") == P("2*x*y")
        assert P("3/2 z") == P("3/2*z")

    def test_parentheses(self):
        assert P("(x + y)(x - y)") == P("x^2 - y^2")

    def test_unary_minus(self):
        assert P("-x^2 + y") == P("y - x^2")

    def test_errors(self):
        with pytest.raises(ParseError):
            P("x +")
        with pytest.raises(ParseError):
            P("q + 1")  # unknown variable
        with pytest.raises(ParseError):
            P("x^-1")
        with pytest.raises(ParseError):
            P("")

    def test_products_are_charged_to_the_term_budget(self):
        # (x+y+1)^4 by squaring: 3*3 and 6*6 term products, then 1*15;
        # the scope sums its parses
        with budget() as scope:
            assert P("(x + y + 1)^4") == (P("x + y + 1") ** 2) ** 2
            assert scope.terms_used == 60
            P("x*y")
            assert scope.terms_used == 61
        assert P("x^0 + y^1") == P("1 + y")

    def test_runaway_power_stops_at_the_budget(self):
        with budget() as scope, pytest.raises(BudgetExceededError, match="term budget"):
            P("(x + y + 1)^400", XY)
        # charged before the product that would pass the limit, the square
        # of the 2145-term (x+y+1)^64, is formed
        assert scope.terms_used > TERM_BUDGET > scope.terms_used - 2145 ** 2
        with pytest.raises(ExponentOverflowError):
            P(f"x^{2 * EXPONENT_LIMIT}", XY)

    def test_large_power_within_the_budget(self):
        with budget() as scope:
            p = P("(x + y + 1)^64", XY)
        assert scope.terms_used == 342570 < TERM_BUDGET
        assert len(p.terms) == 2145
        assert p.terms[(32, 32)] == comb(64, 32) * comb(32, 32)
        assert p.terms[(20, 10)] == comb(64, 20) * comb(44, 10)

    def test_long_coefficients_are_charged_by_their_blocks(self):
        # 7^9999999 is one term, but its squarings grow by 512-bit blocks
        with budget() as scope, pytest.raises(BudgetExceededError):
            P("7^9999999", XY)
        assert scope.terms_used < 4 * TERM_BUDGET
        with budget() as scope:
            P("(2^512 + x) * (2^512 + y)", XY)
            # each 2^512: nine one-block squarings, then 1 times the
            # two-block 2^512; the product: 2*2 terms of two blocks each
            assert scope.terms_used == 2 * (9 + 2) + 2 * 2 * 2 * 2

    def test_syntax_check_forms_no_product(self):
        # the grammar is checked before any product is formed
        for text in ["(x + y + 1)^400 + q", "(x + y + 1)^400 +", "x^400)", ""]:
            with budget() as scope, pytest.raises(ParseError):
                P(text, XY)
            assert scope.terms_used == 0
        with budget() as scope, pytest.raises(BudgetExceededError):
            P("(x + y + 1)^400 * 7^9999999", XY)
        # the last charge is the square of (x+y+1)^64 that passed the limit
        assert scope.terms_used > TERM_BUDGET > scope.terms_used - 2145 ** 2

    def test_numbers_past_the_digit_limit(self):
        with pytest.raises(ParseError, match="5000 digits"):
            P("1" * 5000 + "*x", XY)
        with pytest.raises(ParseError, match="too long"):
            P("x^" + "1" * 5000, XY)
        with pytest.raises(LndError, match="too long to print"):
            format_polynomial(Polynomial.constant(XY, 7 ** 6000))

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            f = _random_poly(rng, XYZ)
            assert parse_polynomial(format_polynomial(f), XYZ) == f

    def test_format_examples(self):
        assert format_polynomial(P("x^2*y - 3/2*z")) == "x^2*y - 3/2*z"
        assert format_polynomial(Polynomial.zero(XYZ)) == "0"
        assert format_polynomial(P("-x - 1")) == "-x - 1"


class TestLeadingTerms:
    def test_leading_term_under_orders(self):
        f = P("x^2 + y^3")
        assert f.leading_monomial(LEX) == (2, 0, 0)
        assert f.leading_monomial(GRLEX) == (0, 3, 0)

    def test_monic(self):
        f = P("2x^2 + 4y")
        assert f.monic(GREVLEX) == P("x^2 + 2y")

    def test_sorted_terms_cached(self):
        f = P("x + y + z")
        first = f.sorted_terms(GREVLEX)
        assert f.sorted_terms(GREVLEX) is first
