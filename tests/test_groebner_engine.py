import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lndkit import groebner_engine
from lndkit.config import budget
from lndkit.errors import BudgetExceededError, VariableMismatchError
from lndkit.groebner_engine import (
    GroebnerBasis,
    Ideal,
    buchberger,
    eliminate,
    ideal_intersection,
    ideal_member,
    ideal_quotient,
    normal_form,
    saturation,
)
from lndkit.poly_core import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    parse_polynomial,
    remainder,
    s_pair_remainder,
)
from lndkit.presentation import PresentedRing, present_subalgebra

from oracles import ideal_equal, packed_lcm, s_polynomial

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
        assert basis.elements == []
        assert basis.order == LEX

    def test_empty_input(self):
        basis = buchberger([])
        assert basis.elements == [] and basis.order == GREVLEX
        assert not basis.is_trivial()

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
        # each run makes 9 S-pair reductions, so 15 fits one run, not two
        def run():
            gens = [P("x^2 + y*z"), P("x*y - z^2"), P("y^3 - x")]
            Ideal(gens).groebner(LEX)

        for _ in range(2):
            with budget(pairs=15) as scope:
                run()
            assert scope.used == 9
        with pytest.raises(BudgetExceededError, match="pair budget 15"), \
                budget(pairs=15):
            run()
            run()

    # pairs are selected by degree plus ecart, which sequences the pairs
    # differently under each kind of order
    @pytest.mark.parametrize("order", [GREVLEX, LEX, MonomialOrder.elimination(1)],
                             ids=["grevlex", "lex", "elimination"])
    def test_closure_and_generation_on_random_ideals(self, order):
        rng = random.Random(321)
        for _ in range(20):
            gens = [p for p in (_random_poly(rng, XYZ, 3) for _ in range(3))
                    if not p.is_zero()]
            if not gens:
                continue
            basis = buchberger(gens, order)
            for g in gens:
                assert normal_form(g, basis).is_zero()
            for i, f in enumerate(basis.elements):
                for g in basis.elements[i + 1:]:
                    s = s_polynomial(f, g, order)
                    assert normal_form(s, basis).is_zero()


def _cyclic(n):
    """Cyclic-n: the cyclic sums of k consecutive variables for k < n, and
    x0*...*x(n-1) - 1."""
    vs = tuple(f"x{i}" for i in range(n))
    x = [Polynomial.variable(v, vs) for v in vs]

    def product(factors):
        p = Polynomial.one(vs)
        for f in factors:
            p = p * f
        return p

    gens = []
    for k in range(1, n):
        s = Polynomial.zero(vs)
        for i in range(n):
            s = s + product(x[(i + j) % n] for j in range(k))
        gens.append(s)
    return gens + [product(x) - 1]


def _katsura(n):
    """Katsura-n in n variables u0..u(n-1): sum u_|k| u_|m-k| = u_m for
    m < n - 1, and sum u_|k| = 1, with u_i = 0 for i >= n."""
    vs = tuple(f"u{i}" for i in range(n))
    u = [Polynomial.variable(v, vs) for v in vs]

    def var(i):
        return u[abs(i)] if abs(i) < n else Polynomial.zero(vs)

    gens = []
    for m in range(n - 1):
        s = Polynomial.zero(vs)
        for k in range(-(n - 1), n):
            s = s + var(k) * var(m - k)
        gens.append(s - u[m])
    s = Polynomial.zero(vs)
    for k in range(-(n - 1), n):
        s = s + var(k)
    return gens + [s - 1]


def _rational_poly(rng, vars, max_degree=3, n_terms=4):
    """A nonzero random polynomial whose every coefficient is a non-integral
    rational other than +-1, so every leading coefficient is too."""
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(vars))] += 1
        terms[tuple(mono)] = Fraction(rng.choice((-7, -5, -3, 3, 5, 7)),
                                      rng.choice((2, 4, 8)))
    return Polynomial(vars, terms)


class TestPairSelection:
    """S-pair reduction counts: degree-first selection leaves every
    grevlex run as normal selection had it and cuts the block-order runs."""

    def test_grevlex_cyclic_5_count(self):
        with budget() as scope:
            basis = buchberger(_cyclic(5), GREVLEX)
        assert scope.used == 103
        assert len(basis) == 20

    def test_grevlex_katsura_5_count(self):
        with budget() as scope:
            buchberger(_katsura(5), GREVLEX)
        assert scope.used == 26

    def test_grevlex_katsura_6_count(self):
        with budget() as scope:
            basis = buchberger(_katsura(6), GREVLEX)
        assert scope.used == 64
        assert len(basis) == 22

    # the pair queue keys on packed lcms, which must sort as order.key does
    # for every kind of order and permutation
    @pytest.mark.parametrize("ideal, order, pairs, size", [
        ("katsura-4", MonomialOrder.lex(), 25, 4),
        ("cyclic-4", MonomialOrder.grlex(), 8, 7),
        ("katsura-5", MonomialOrder.grevlex((4, 2, 0, 1, 3)), 26, 13),
        ("cyclic-5", MonomialOrder.grevlex((1, 3, 0, 4, 2)), 86, 20),
        ("katsura-4", MonomialOrder.elimination(2), 13, 6),
        ("cyclic-4", MonomialOrder.lex((3, 1, 2, 0)), 4, 5),
    ], ids=["katsura-4-lex", "cyclic-4-grlex", "katsura-5-grevlex-permuted",
            "cyclic-5-grevlex-permuted", "katsura-4-elimination",
            "cyclic-4-lex-permuted"])
    def test_counts_under_other_orders(self, ideal, order, pairs, size):
        name, n = ideal.split("-")
        gens = (_katsura if name == "katsura" else _cyclic)(int(n))
        with budget() as scope:
            basis = buchberger(gens, order)
        assert scope.used == pairs
        assert len(basis) == size

    def test_tag_basis_count(self):
        # the subalgebra C of example 6.1; normal selection made 217
        ring = PresentedRing.polynomial_ring(XYZ)
        gens = [P(t) for t in ("x^2", "x^3", "y + x*y^2", "x^2*y", "x^3*z")]
        with budget() as scope:
            sub = present_subalgebra(ring, gens)
        assert scope.used == 72
        assert sub.member(P("x^5*z + y*x^2 + x^3*y^2")).member


class TestSPairRemainder:
    """S-pairs formed on integer division records against the rational
    S-polynomial, and the caches of the elements Buchberger adds."""

    @pytest.mark.parametrize("order", [GREVLEX, LEX, MonomialOrder.elimination(1)],
                             ids=["grevlex", "lex", "elimination"])
    def test_matches_rational_s_polynomial(self, order):
        rng = random.Random(14)
        zero = nonzero = 0
        for _ in range(25):
            f, g, h = (_rational_poly(rng, XYZ) for _ in range(3))
            # modulo a Groebner basis of (f, g) their S-polynomial reduces to 0
            for divisors in ([f, g, h], buchberger([f, g], order).elements):
                records = [d.division_record(order) for d in divisors]
                rf, rg = f.division_record(order), g.division_record(order)
                got = s_pair_remainder(XYZ, rf, rg, packed_lcm(rf, rg, order, 3),
                                       records, order)
                want = remainder(s_polynomial(f, g, order), divisors, order)
                assert got == want.monic(order)
                zero += got.is_zero()
                nonzero += not got.is_zero()
        assert zero and nonzero

    @pytest.mark.parametrize("ideal, order", [("cyclic-5", GREVLEX), ("random", LEX)])
    def test_added_elements_carry_fresh_caches(self, monkeypatch, ideal, order):
        rng = random.Random(11)
        gens = (_cyclic(5) if ideal == "cyclic-5"
                else [_rational_poly(rng, XYZ) for _ in range(3)])
        added = []

        def spy(*args):
            # the pair queue hands over the lcm it packed when it queued the pair
            vars, f, g, lcm_fg, _, order_ = args
            assert lcm_fg == packed_lcm(f, g, order_, len(vars))
            r = s_pair_remainder(*args)
            if not r.is_zero():
                added.append(r)
            return r

        monkeypatch.setattr(groebner_engine, "s_pair_remainder", spy)
        buchberger(gens, order)
        assert added
        for p in added:
            fresh = Polynomial(p.vars, p.terms)
            # read the caches directly: they were seeded, not computed
            assert p._sorted[order] == fresh.sorted_terms(order)
            assert p._records[order] == fresh.division_record(order)


class TestZeroIdeal:
    def test_zero_generators_dropped(self):
        ideal = Ideal([Polynomial.zero(XY), Polynomial.zero(XY)], XY)
        assert ideal.generators == []
        assert ideal.is_zero()
        assert ideal.groebner().elements == []

    def test_normal_form_modulo_zero_basis(self):
        f = P("x^2 - y", XY)
        assert normal_form(f, GroebnerBasis([], LEX)) == f
        assert not ideal_member(f, Ideal([], XY))
        assert ideal_member(Polynomial.zero(XY), Ideal([], XY))


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

    def test_zero_ideal(self):
        assert saturation(Ideal([], XY), P("x + y", XY)).is_zero()

    def test_element_of_another_ring_rejected(self):
        with pytest.raises(VariableMismatchError):
            saturation(I("x", vars=XY), P("x", ("x",)))
        with pytest.raises(VariableMismatchError):
            saturation(I("x", vars=XY), P("x", ("y", "x")))

    @given(st.data())
    @settings(max_examples=100)
    def test_matches_quotient_loop(self, data):
        vars = data.draw(st.sampled_from([XY, XYZ]))
        g = data.draw(_small_poly(vars, 2).filter(lambda p: not p.is_zero()))
        gens = data.draw(st.lists(_small_poly(vars, 3), max_size=3))
        shape = data.draw(st.sampled_from(["plain", "multiple", "radical", "lifted"]))
        if shape == "multiple":
            # a multiple of g among the generators: the ideal may grow
            gens.append(g * data.draw(_small_poly(vars, 2)))
        if shape == "radical":
            # g^2 in the ideal puts g in its radical: the saturation is (1)
            gens.append(g * g)
        ideal = Ideal(gens, vars)
        if shape == "lifted":
            relation = data.draw(_small_poly(vars, 2).filter(lambda p: not p.is_constant()))
            ideal = PresentedRing(vars, [relation]).lifted_ideal(gens)
        ours = saturation(ideal, g)
        assert ideal_equal(ours, _saturation_by_quotients(ideal, g))
        if shape == "radical":
            assert ideal_member(Polynomial.one(vars), ours)


def _small_poly(vars, size):
    """Up to `size` terms, each exponent at most 2, small integer coefficients."""
    monomials = st.tuples(*(st.integers(0, 2) for _ in vars))
    coefficients = st.integers(-3, 3).map(Fraction)
    return st.dictionaries(monomials, coefficients, max_size=size).map(
        lambda terms: Polynomial(vars, terms))


def _saturation_by_quotients(ideal, g):
    """(I : g^infinity) by repeated quotients until the ideal stops growing:
    the reference the single elimination must agree with."""
    current = ideal
    while True:
        bigger = ideal_quotient(current, g)
        if ideal_equal(bigger, current):
            return current
        current = bigger


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
