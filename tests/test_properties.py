"""Hypothesis property suites for the arithmetic core."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from lndkit.poly_core import (
    GREVLEX,
    GRLEX,
    LEX,
    Polynomial,
    divide,
    format_polynomial,
    monomial_mul,
    parse_polynomial,
)
from oracles import canonical, monomial_div, monomial_lcm

VARS = ("x", "y", "z")

coefficients = st.fractions(
    min_value=-20, max_value=20, max_denominator=6).filter(lambda c: c != 0)
monomials = st.tuples(*(st.integers(min_value=0, max_value=4) for _ in VARS))
polynomials = st.dictionaries(monomials, coefficients, max_size=5).map(
    lambda terms: Polynomial(VARS, terms))
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero())
# ints and Fractions as a caller hands them over, integral Fractions among them
scalars = st.one_of(st.integers(min_value=-20, max_value=20), coefficients).filter(
    lambda c: c != 0)
mixed_polynomials = st.dictionaries(monomials, scalars, max_size=5).map(
    lambda terms: Polynomial(VARS, terms))


@given(polynomials, polynomials)
def test_addition_commutes(f, g):
    assert f + g == g + f


@given(polynomials, polynomials, polynomials)
@settings(max_examples=60)
def test_multiplication_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(polynomials, polynomials, polynomials)
@settings(max_examples=60)
def test_multiplication_associates(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(polynomials)
def test_parse_of_format_is_identity(f):
    assert parse_polynomial(format_polynomial(f), VARS) == f


@given(polynomials, nonzero_polynomials, nonzero_polynomials)
@settings(max_examples=60)
def test_division_reconstructs(f, d1, d2):
    qs, r = divide(f, [d1, d2], GREVLEX)
    assert qs[0] * d1 + qs[1] * d2 + r == f
    for m in r.terms:
        assert monomial_div(m, d1.leading_monomial(GREVLEX)) is None
        assert monomial_div(m, d2.leading_monomial(GREVLEX)) is None


@given(mixed_polynomials, mixed_polynomials.filter(lambda p: not p.is_zero()), scalars)
@settings(max_examples=60)
def test_coefficients_keep_their_stored_form(f, g, c):
    qs, r = divide(f, [g], GREVLEX)
    results = [f, g, f + g, f - g, f * g, f * c, c * f, f / c, f.monic(GREVLEX),
               g.monic(LEX), *qs, r, parse_polynomial(format_polynomial(f), VARS)]
    assert all(map(canonical, results))


def _polynomials_over(vars):
    # exponents 0 and 1 and few terms, so that constants, which a scalar
    # might be taken to equal, come up often
    return st.dictionaries(st.tuples(*(st.integers(0, 1) for _ in vars)),
                           st.sampled_from([1, -1, 2, Fraction(1, 2)]),
                           max_size=2).map(lambda terms: Polynomial(vars, terms))


# polynomials over two or three variable tuples, mixed with ints and Fractions
equality_operands = st.one_of(
    _polynomials_over(("x",)), _polynomials_over(("x", "y")),
    _polynomials_over(VARS), st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]))


@given(equality_operands, equality_operands, equality_operands)
@example(Polynomial.one(("x",)), 1, Polynomial.one(("x", "y")))
def test_equality_is_an_equivalence_that_hashing_respects(a, b, c):
    # sets and dict keys (the basis memo, the dedup of Rees products) rely
    # on it: {a, 1, b} and {1, a, b} must hold as many elements
    assert a == a
    assert (a == b) == (b == a)
    if a == b and b == c:
        assert a == c
    if a == b:
        assert hash(a) == hash(b)
    assert len({a, b, c}) == len({b, c, a}) == len({c, a, b})


@given(monomials, monomials, monomials)
def test_orders_respect_multiplication(a, b, c):
    # the library's leading monomial of a + b, shifted by c, leads a*c + b*c
    for order in (LEX, GRLEX, GREVLEX):
        lead = Polynomial(VARS, {a: 1, b: 2}).leading_monomial(order)
        shifted = Polynomial(VARS, {monomial_mul(a, c): 1, monomial_mul(b, c): 2})
        assert shifted.leading_monomial(order) == monomial_mul(lead, c)


@given(monomials, monomials)
def test_lcm_divisible_by_both(a, b):
    lcm = monomial_lcm(a, b)
    assert monomial_div(lcm, a) is not None
    assert monomial_div(lcm, b) is not None
