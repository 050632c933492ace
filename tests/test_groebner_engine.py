import random

import pytest

from lndkit.config import budget
from lndkit.errors import BudgetExceededError
from lndkit.groebner_engine import (
    GroebnerBasis,
    Ideal,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_intersection,
    ideal_member,
    ideal_quotient,
    normal_form,
    s_polynomial,
    saturation,
)
from lndkit.poly_core import GREVLEX, LEX, Polynomial, parse_polynomial

XY = ("x", "y")
XYZ = ("x", "y", "z")
UVW = ("u", "v", "w")


def P(text, vars=XYZ):
    return parse_polynomial(text, vars)


def I(*texts, vars=XYZ):
    return Ideal([parse_polynomial(t, vars) for t in texts], vars)


class TestBuchberger:
    def test_principal(self):
        basis = buchberger([P("x", XY)], LEX)
        assert basis.elements == [P("x", XY)]

    def test_twisted_cubic_relation(self):
        # lex basis of (x^2 - y, x^3 - z) contains y^3 - z^2
        basis = buchberger([P("x^2 - y"), P("x^3 - z")], LEX)
        assert P("y^3 - z^2") in basis.elements

    def test_unit_ideal(self):
        basis = buchberger([P("x", XY), P("1 - x", XY)], LEX)
        assert basis.elements == [Polynomial.one(XY)]

    def test_zero_ideal(self):
        basis = buchberger([Polynomial.zero(XY)], LEX)
        assert basis.elements == [Polynomial.zero(XY)]

    def test_spolynomial_closure(self):
        gens = [P("x^2 + y*z"), P("x*y - z^2"), P("y^3 - x*z")]
        basis = buchberger(gens, GREVLEX)
        for i, f in enumerate(basis.elements):
            for g in basis.elements[i + 1:]:
                s = s_polynomial(f, g, GREVLEX)
                assert normal_form(s, basis).is_zero()

    def test_reduced(self):
        basis = buchberger([P("x^2 - y"), P("x^3 - z")], LEX)
        for i, f in enumerate(basis.elements):
            assert f.leading_coefficient(LEX) == 1
            others = basis.elements[:i] + basis.elements[i + 1:]
            assert normal_form(f, GroebnerBasis(others, LEX)) == f

    def test_budget(self):
        gens = [P("x^4 + y^3 - z"), P("y^4 + z^3 - x"), P("z^4 + x^3 - y")]
        with pytest.raises(BudgetExceededError), budget(pairs=1):
            buchberger(gens, LEX)

    def test_budget_is_summed_over_runs_in_one_scope(self):
        # each run makes 11 S-pair reductions, so 15 fits one run, not two
        def run():
            gens = [P("x^2 + y*z"), P("x*y - z^2"), P("y^3 - x")]
            Ideal(gens).groebner(LEX)

        for _ in range(2):
            with budget(pairs=15) as scope:
                run()
            assert scope.used == 11
        with pytest.raises(BudgetExceededError, match="pair budget 15"), \
                budget(pairs=15):
            run()
            run()

    def test_closure_and_generation_on_random_ideals(self):
        rng = random.Random(321)
        for _ in range(20):
            gens = [p for p in (_random_poly(rng, XYZ, 3) for _ in range(3))
                    if not p.is_zero()]
            if not gens:
                continue
            basis = buchberger(gens, GREVLEX)
            for g in gens:
                assert normal_form(g, basis).is_zero()
            for i, f in enumerate(basis.elements):
                for g in basis.elements[i + 1:]:
                    s = s_polynomial(f, g, GREVLEX)
                    assert normal_form(s, basis).is_zero()


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        basis = buchberger([P("x", XY)], LEX)
        assert normal_form(P("x^2", XY), basis).is_zero()

    def test_nonmember_untouched(self):
        basis = buchberger([P("x", XY)], LEX)
        assert normal_form(P("y + 1", XY), basis) == P("y + 1", XY)

    def test_substitution_shape(self):
        basis = buchberger([P("x^2 - y", XY)], LEX)
        assert normal_form(P("x^3", XY), basis) == P("x*y", XY)

    def test_uniqueness_under_generator_shuffles(self):
        rng = random.Random(11)
        gens = [P("x^2 - y"), P("x*y - z"), P("y^2 - x*z")]
        reference = buchberger(gens, GREVLEX)
        for _ in range(10):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            basis = buchberger(shuffled, GREVLEX)
            assert basis.elements == reference.elements
            f = P("x^3*y - 2x*z + y^2")
            assert normal_form(f, basis) == normal_form(f, reference)


class TestMembership:
    def test_unit(self):
        assert ideal_member(Polynomial.one(XY), I("x", "1 - x", vars=XY))

    def test_strict_power(self):
        assert not ideal_member(P("x", XY), I("x^2", vars=XY))

    def test_cusp_maximal_ideal(self):
        vars = ("X", "Y")
        ideal = Ideal([parse_polynomial("X^2", vars), parse_polynomial("X^3", vars)])
        assert ideal_member(parse_polynomial("X^2*Y + X^3*Y^2", vars), ideal)

    def test_linear_combinations_stay_inside(self):
        rng = random.Random(23)
        ideal = I("x^2 - y", "y*z - 1")
        f, g = ideal.generators
        for _ in range(50):
            h = _random_poly(rng, XYZ, 3)
            assert ideal_member(f + h * g, ideal)


def _random_poly(rng, vars, max_degree=3, n_terms=3):
    from fractions import Fraction

    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(vars))] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-9, 9))
    return Polynomial(vars, terms)


class TestQuotient:
    def test_power_drop(self):
        q = ideal_quotient(I("x^2", vars=XY), P("x", XY))
        assert ideal_equal(q, I("x", vars=XY))

    def test_nzd_keeps_ideal(self):
        q = ideal_quotient(I("x", vars=XY), P("y", XY))
        assert ideal_equal(q, I("x", vars=XY))

    def test_cone_quotient(self):
        # (uw - v^2, u) : w -- v^2 is in the quotient, and u*w - v^2 makes
        # it lie in the ideal already, so the quotient equals the ideal
        ideal = I("u*w - v^2", "u", vars=UVW)
        q = ideal_quotient(ideal, P("w", UVW))
        assert ideal_member(P("v^2", vars=UVW), q)
        assert ideal_equal(q, ideal)

    def test_containment_law(self):
        ideal = I("x^2 - y", "z^2")
        g = P("x + z")
        q = ideal_quotient(ideal, g)
        for gen in ideal.generators:
            assert ideal_member(gen, q)

    def test_member_gives_unit_quotient(self):
        ideal = I("x^2 - y")
        g = P("x^2 - y") * P("z + 1")
        q = ideal_quotient(ideal, P("x^2 - y"))
        assert ideal_member(Polynomial.one(XYZ), q)
        q2 = ideal_quotient(ideal, g)
        # g is a multiple of the generator times a nonzerodivisor
        assert ideal_member(P("z + 1"), q2) or ideal_member(Polynomial.one(XYZ), q2)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            ideal_quotient(I("x", vars=XY), Polynomial.zero(XY))


class TestSaturation:
    def test_strips_factor(self):
        s = saturation(I("x*y", vars=XY), P("y", XY))
        assert ideal_equal(s, I("x", vars=XY))

    def test_saturating_by_generator(self):
        s = saturation(I("x", vars=XY), P("x", XY))
        assert ideal_member(Polynomial.one(XY), s)

    def test_cone_symbolic_square_contains_u(self):
        # lifted form of (u^2, uv, uw) with the cone relation: u*w = v^2
        ideal = I("u^2", "u*v", "u*w", "u*w - v^2", vars=UVW)
        s = saturation(ideal, P("w", UVW))
        assert ideal_member(P("u", vars=UVW), s)

    def test_stabilizes(self):
        ideal = I("x^2*y^3", vars=XY)
        s = saturation(ideal, P("y", XY))
        again = ideal_quotient(s, P("y", XY))
        assert ideal_equal(s, again)


class TestEliminate:
    def test_parabola(self):
        # eliminate t from (x - t, y - t^2) -> (y - x^2)
        vars = ("t", "x", "y")
        ideal = I("x - t", "y - t^2", vars=vars)
        out = eliminate(ideal, 1)
        assert ideal_equal(out, Ideal([parse_polynomial("y - x^2", ("x", "y"))]))

    def test_unit_survives(self):
        vars = ("t", "x")
        out = eliminate(I("t - 1", "t*x - x", "x - x", "1 - t", vars=vars), 1)
        # (t - 1) forces 1 - t = 0 in the quotient; only x-info remains
        # here the ideal is (t - 1): its elimination is the zero ideal
        assert out.is_zero()

    def test_unit_ideal_elimination(self):
        vars = ("t", "x")
        out = eliminate(I("t", "1 - t", vars=vars), 1)
        assert ideal_member(Polynomial.one(("x",)), out)

    def test_cusp_relation(self):
        # eliminate X from (T1 - X^2, T2 - X^3) -> (T1^3 - T2^2)
        vars = ("X", "T1", "T2")
        ideal = I("T1 - X^2", "T2 - X^3", vars=vars)
        out = eliminate(ideal, 1)
        target = Ideal([parse_polynomial("T1^3 - T2^2", ("T1", "T2"))])
        assert ideal_equal(out, target)

    def test_range_check(self):
        with pytest.raises(ValueError):
            eliminate(I("x", vars=XY), 2)


class TestIdealEqual:
    def test_reordered_generators(self):
        assert ideal_equal(I("x", "y", vars=XY), I("y", "x + y", vars=XY))

    def test_strict_containment(self):
        assert not ideal_equal(I("x", vars=XY), I("x^2", vars=XY))

    def test_intersection(self):
        inter = ideal_intersection(I("x", vars=XY), I("y", vars=XY))
        assert ideal_equal(inter, I("x*y", vars=XY))
