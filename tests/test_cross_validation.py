"""Optional cross-validation against sympy, skipped when unavailable.

The library itself never imports sympy; these checks compare reduced
Groebner bases, normal forms, colon ideals, saturations and gcds against an
independent implementation on seeded random inputs.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from lndkit.groebner_engine import (
    Ideal,
    buchberger,
    ideal_member,
    ideal_quotient,
    normal_form,
    saturation,
)
from lndkit.poly_core import GREVLEX, LEX, Polynomial, gcd

VARS = ("x", "y", "z")


@pytest.fixture(scope="module")
def ring():
    syms = sympy.symbols("x y z")
    return syms, sympy.QQ.old_poly_ring(*syms)


def _to_sympy(p, syms):
    expr = 0
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, m):
            term *= s ** e
        expr += term
    return expr


def _from_dmp(e):
    dmp = e if hasattr(e, "to_dict") else e.rep
    terms = {}
    for mono, c in dmp.to_dict().items():
        q = sympy.Rational(str(c))
        terms[tuple(int(k) for k in mono)] = Fraction(int(q.p), int(q.q))
    return Polynomial(VARS, terms)


def _random_poly(rng, deg=2, terms=2, den=1, vars=VARS):
    """Integer coefficients, or with den > 1 rational ones of denominators
    up to den."""
    t = {}
    for _ in range(rng.randint(1, terms)):
        m = [0] * len(vars)
        for _ in range(rng.randint(0, deg)):
            m[rng.randrange(len(vars))] += 1
        t[tuple(m)] = Fraction(rng.randint(-5, 5), rng.randint(1, den) if den > 1 else 1)
    return Polynomial(vars, t)


@pytest.mark.parametrize("name, order", [("grevlex", GREVLEX), ("lex", LEX)],
                         ids=["grevlex", "lex"])
def test_reduced_bases_match(ring, name, order):
    syms, _ = ring
    rng = random.Random(2026)
    compared = 0
    while compared < 15:
        gens = [p for p in (_random_poly(rng, 3, 3) for _ in range(3))
                if not p.is_zero()]
        if not gens:
            continue
        ours = {frozenset(p.terms.items())
                for p in buchberger(gens, order).elements}
        basis = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                               order=name)
        theirs = set()
        for e in basis.exprs:
            poly = sympy.Poly(e, *syms)
            terms = {tuple(int(k) for k in mono):
                     Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q))
                     for mono, c in poly.terms()}
            theirs.add(frozenset(Polynomial(VARS, terms).monic(order).terms.items()))
        assert ours == theirs
        compared += 1


def _from_expr(e, syms):
    terms = {}
    for mono, c in sympy.Poly(e, *syms).terms():
        q = sympy.Rational(c)
        terms[tuple(int(k) for k in mono)] = Fraction(int(q.p), int(q.q))
    return Polynomial(VARS, terms)


@pytest.mark.parametrize("order, name", [(GREVLEX, "grevlex"), (LEX, "lex")])
def test_normal_forms_match(ring, order, name):
    # the remainder modulo a Groebner basis is unique, so sympy's division
    # by the same reduced basis must give exactly our normal form
    syms, _ = ring
    rng = random.Random(31)
    compared = 0
    while compared < 12:
        gens = [p for p in (_random_poly(rng, 2, 3, den=4) for _ in range(2))
                if not p.is_zero()]
        if not gens:
            continue
        basis = buchberger(gens, order)
        if basis.is_trivial():
            continue
        elements = [_to_sympy(g, syms) for g in basis]
        for _ in range(3):
            f = _random_poly(rng, 4, 6, den=4)
            _, theirs = sympy.reduced(_to_sympy(f, syms), elements, *syms, order=name)
            assert normal_form(f, basis).terms == _from_expr(theirs, syms).terms
        compared += 1


def test_colon_ideals_match(ring):
    syms, R = ring
    rng = random.Random(99)
    compared = 0
    while compared < 10:
        gens = [p for p in (_random_poly(rng) for _ in range(2)) if not p.is_zero()]
        g = _random_poly(rng)
        if not gens or g.is_zero():
            continue
        ours = ideal_quotient(Ideal(gens, VARS), g)
        theirs = R.ideal(*[_to_sympy(p, syms) for p in gens]).quotient(
            R.ideal(_to_sympy(g, syms)))
        for q in ours.generators:
            assert theirs.contains(_to_sympy(q, syms))
        for e in theirs.gens:
            back = _from_dmp(e)
            if not back.is_zero():
                assert ideal_member(back, ours)
        compared += 1


def _sympy_saturation(ideal, g):
    """(I : g^infinity) by sympy's quotient, repeated until it stops
    growing; sympy's own `Ideal.saturate` raises NotImplementedError."""
    while True:
        bigger = ideal.quotient(g)
        if bigger == ideal:
            return ideal
        ideal = bigger


def test_saturations_match(ring):
    syms, R = ring
    rng = random.Random(7)
    compared = 0
    while compared < 10:
        g = _random_poly(rng)
        # a multiple of g^2 among the generators: one quotient by g is
        # often not the saturation yet
        gens = [g * g * _random_poly(rng), _random_poly(rng)]
        if g.is_constant() or any(p.is_constant() for p in gens):
            continue
        ours = saturation(Ideal(gens, VARS), g)
        theirs = _sympy_saturation(R.ideal(*[_to_sympy(p, syms) for p in gens]),
                                   R.ideal(_to_sympy(g, syms)))
        for q in ours.generators:
            assert theirs.contains(_to_sympy(q, syms))
        for e in theirs.gens:
            back = _from_dmp(e)
            if not back.is_zero():
                assert ideal_member(back, ours)
        compared += 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gcds_match(n):
    # gcd(f*h, g*h) is sympy's gcd up to a nonzero scalar; a gcd that
    # always returned 1 fails here whenever h is not a constant
    vars = ("x", "y", "z", "w")[:n]
    syms = sympy.symbols(vars)
    rng = random.Random(40 + n)
    compared = 0
    while compared < 20:
        f, g, h = (_random_poly(rng, 3, 3, den=3, vars=vars) for _ in range(3))
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        ours = gcd(f * h, g * h)
        theirs = sympy.gcd(_to_sympy(f * h, syms), _to_sympy(g * h, syms))
        ratio = sympy.cancel(_to_sympy(ours, syms) / theirs)
        assert ratio.is_Rational and ratio != 0
        compared += 1


def test_grades_on_a_ring_that_is_not_a_domain(ring):
    """Grades on Q[x, y, z] / (x*y) checked by sympy's colon ideals: the
    witness is a regular sequence (each colon equals its modulus), and a
    grade 0 or 1 cannot be extended (the colon of the whole ideal is
    strictly larger)."""
    from lndkit.grade_analyzer import GradeValue, grade_of_ideal
    from lndkit.poly_core import parse_polynomial
    from lndkit.presentation import PresentedRing

    syms, R = ring
    relation = parse_polynomial("x*y", VARS)
    quotient = PresentedRing.quotient(VARS, [relation])
    rng = random.Random(11)
    cases = [("x", "z"), ("x", "x^2"), ("x",), ("x", "y"), ("x", "y", "z"),
             ("y*z", "x*z"), ("x + y", "z^2")]
    while len(cases) < 15:
        cases.append(tuple(str(_random_poly(rng)) for _ in range(rng.randint(1, 3))))
    seen = set()
    for texts in cases:
        gens = [parse_polynomial(t, VARS) for t in texts]
        gens = [g for g in gens if not quotient.is_zero(g)]
        if not gens:
            continue
        report = grade_of_ideal(Ideal(gens, VARS), quotient)
        seen.add(report.value)

        def ideal(polys):
            return R.ideal(*[_to_sympy(p, syms) for p in [relation, *polys]])

        whole = ideal(gens)
        if report.value is GradeValue.INFINITE:
            assert whole.contains(1)
            continue
        for i, w in enumerate(report.witness):
            modulus = ideal(report.witness[:i])
            assert modulus.quotient(ideal([w])) == modulus
        if report.value is not GradeValue.TWO:
            modulus = ideal(report.witness)
            assert modulus.quotient(whole) != modulus
    assert {GradeValue.ZERO, GradeValue.ONE, GradeValue.TWO} <= seen
