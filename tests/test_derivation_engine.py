import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lndkit.derivation_engine import (
    APPLICATION_TERMS,
    Derivation,
    apply,
    certify_nilpotent,
    check_well_defined,
    contained_in_principal,
    extend_with_variable,
    irreducible_over_ufd,
    iterate,
    restrict_to_subalgebra,
    restricts_to,
)
from lndkit.config import TERM_BUDGET, budget
from lndkit.errors import BudgetExceededError, DegenerateInputError, ExponentOverflowError
from lndkit.groebner_engine import Ideal, ideal_member
from lndkit.poly_core import EXPONENT_LIMIT, GREVLEX, LEX, Polynomial, parse_polynomial
from lndkit.presentation import PresentedRing, present_subalgebra
from oracles import apply as oracle_apply, apply_charge, diff

XYZ = ("X", "Y", "Z")
P3 = PresentedRing.polynomial_ring(XYZ)


def pp(text, ring=P3):
    return parse_polynomial(text, ring.vars)


def derivation(ring, **images):
    return Derivation(ring, {k: parse_polynomial(v, ring.vars)
                             for k, v in images.items()})


@pytest.fixture(scope="module")
def cone_ring():
    vars = ("u", "v", "w")
    rel = parse_polynomial("u*w - v^2", vars)
    return PresentedRing.quotient(vars, [rel])


@pytest.fixture(scope="module")
def corpus_c():
    gens = [pp(t) for t in ("X^2", "X^3", "Y + X*Y^2", "X^2*Y", "X^3*Z")]
    return present_subalgebra(P3, gens)


class TestApply:
    def test_partial_derivative(self):
        d = derivation(P3, Y="1")
        assert apply(d, pp("X*Y^2")) == pp("2*X*Y")

    def test_constant_dies(self):
        d = derivation(P3, Y="1")
        assert apply(d, Polynomial.constant(XYZ, Fraction(7, 3))).is_zero()

    def test_z_slide_image(self):
        # X^2 d/dZ applied to Z + X Z^2
        d = derivation(P3, Z="X^2")
        assert apply(d, pp("Z + X*Z^2")) == pp("X^2 + 2*X^3*Z")

    def test_leibniz_random(self):
        rng = random.Random(31)
        d = derivation(P3, X="Y", Y="Z^2", Z="X*Y")
        for _ in range(100):
            f = _random_poly(rng, XYZ)
            g = _random_poly(rng, XYZ)
            assert apply(d, f * g) == f * apply(d, g) + g * apply(d, f)

    def test_linearity_over_constants(self):
        rng = random.Random(32)
        d = derivation(P3, Z="X^2")
        c = pp("X^3 - 2*X*Y")  # killed by d
        for _ in range(20):
            f = _random_poly(rng, XYZ)
            assert apply(d, c * f) == c * apply(d, f)


    def test_exponent_overflow(self):
        # D(x) = y^L, L = EXPONENT_LIMIT: D(xy) = y^(L + 1) is past the
        # limit, with the message the kernel matrix gives
        vs = ("x", "y")
        ring = PresentedRing.polynomial_ring(vs)
        d = Derivation(ring, {"x": Polynomial(vs, {(0, EXPONENT_LIMIT): 1})})
        with pytest.raises(ExponentOverflowError) as info:
            apply(d, parse_polynomial("x*y", vs))
        assert str(info.value) == "exponent 2147483649 exceeds limit 2147483648"

    @pytest.mark.parametrize("relation", [None, "X^2 - Y*Z"])
    def test_matches_oracle_with_its_charge(self, relation):
        # integer images, then rational ones and a coefficient past one
        # 512-bit block, over P3 and over a quotient
        ring = P3 if relation is None else PresentedRing.quotient(XYZ, [pp(relation)])
        rng = random.Random(33)
        for den in [1] * 15 + [7] * 15:
            images = {v: _random_poly(rng, XYZ, 3, den=den) for v in XYZ}
            images["X"] = images["X"] + Polynomial.constant(XYZ, Fraction(3**400, den))
            d = Derivation(ring, images)
            for _ in range(5):
                f = _random_poly(rng, XYZ, den=den)
                # the oracle's own products are charged, so it runs outside
                expected = oracle_apply(d, f)
                with budget() as scope:
                    assert apply(d, f) == expected
                    assert scope.terms_used == apply_charge(d, f) + APPLICATION_TERMS


def _random_poly(rng, vars, max_degree=4, n_terms=3, den=1):
    """Random coefficients in -5..5, divided by 1..den when den > 1."""
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(vars))] += 1
        c = rng.randint(-5, 5)
        terms[tuple(mono)] = Fraction(c, rng.randint(1, den)) if den > 1 else Fraction(c)
    return Polynomial(vars, terms)


class TestIterate:
    def test_translation_cubed(self):
        ring = PresentedRing.polynomial_ring(("x",))
        d = derivation(ring, x="1")
        assert iterate(d, parse_polynomial("x^3", ring.vars), 3) == \
            Polynomial.constant(ring.vars, 6)

    def test_zeroth_iterate(self):
        d = derivation(P3, Z="1")
        f = pp("X*Z - Y")
        assert iterate(d, f, 0) == f

    def test_triangular_dies(self):
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, x="1", y="x")
        y = parse_polynomial("y", ring.vars)
        assert iterate(d, y, 3).is_zero()
        assert not iterate(d, y, 2).is_zero()


class TestWellDefined:
    def test_rejected_on_cone(self, cone_ring):
        d = derivation(cone_ring, w="1")
        assert not check_well_defined(d)

    def test_polynomial_ring_always_fine(self):
        d = derivation(P3, X="Y^5", Y="X*Z", Z="1")
        assert check_well_defined(d)

    def test_tangent_derivation_accepted(self, cone_ring):
        d = derivation(cone_ring, u="2*v", v="w")
        assert check_well_defined(d)

    def test_each_relation_image_is_charged(self, cone_ring):
        # D(u*w - v^2) is formed from the relation itself, not its normal
        # form, so its charge is that of D on the free polynomial ring
        d = derivation(cone_ring, u="2*v", v="w", w="u + v")
        free = Derivation(PresentedRing.polynomial_ring(cone_ring.vars), d.images)
        with budget() as scope:
            check_well_defined(d)
        assert scope.terms_used == sum(apply_charge(free, rel) + APPLICATION_TERMS
                                       for rel in cone_ring.relations.elements) > 0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_relation_ideal_membership(self, data):
        vars = data.draw(st.sampled_from([("x", "y"), ("x", "y", "z")]))
        order = data.draw(st.sampled_from([GREVLEX, LEX]))
        relations = data.draw(st.lists(
            _small_poly(vars, 3).filter(lambda p: not p.is_constant()),
            min_size=1, max_size=2))
        try:
            ring = PresentedRing.quotient(vars, relations, order)
        except DegenerateInputError:
            assume(False)
        f = relations[0]
        if data.draw(st.booleans()):
            # f_y d/dx - f_x d/dy kills f: well defined when f is the only relation
            images = {"x": diff(f, "y"), "y": -diff(f, "x")}
        else:
            images = {v: data.draw(_small_poly(vars, 2)) for v in vars}
        d = Derivation(ring, images)
        assert check_well_defined(d) == _well_defined_by_membership(d)


def _small_poly(vars, size):
    """Up to `size` terms, each exponent at most 2, small integer coefficients."""
    monomials = st.tuples(*(st.integers(0, 2) for _ in vars))
    coefficients = st.integers(-3, 3).map(Fraction)
    return st.dictionaries(monomials, coefficients, max_size=size).map(
        lambda terms: Polynomial(vars, terms))


def _well_defined_by_membership(d):
    """Membership of each relation's image in a fresh Ideal of the relations,
    with its own grevlex Groebner basis: the reference check_well_defined,
    a normal form modulo the ring's basis, must agree with."""
    relation_ideal = Ideal(d.ring.relations.elements, d.ring.vars)
    for rel in d.ring.relations.elements:
        img = Polynomial.zero(d.ring.vars)
        for name, image in d.images.items():
            img = img + image * diff(rel, name)
        if not ideal_member(img, relation_ideal):
            return False
    return True


class TestNilpotency:
    def test_slide_on_adjoined_variable(self, corpus_c):
        # d/dZ on a subalgebra presentation of B: every tag dies fast
        gens = [pp(t) for t in ("X^2", "X^3", "Y + X*Y^2", "X^2*Y", "Z")]
        B = present_subalgebra(P3, gens)
        d = restrict_to_subalgebra(derivation(P3, Z="1"), B)
        cert = certify_nilpotent(d)
        assert cert.certified
        z_tag = B.tag_vars[-1]
        assert cert.orders[z_tag] == 2
        assert all(cert.orders[t] == 1 for t in B.tag_vars[:-1])

    def test_euler_inconclusive(self):
        ring = PresentedRing.polynomial_ring(("x",))
        d = derivation(ring, x="x")
        cert = certify_nilpotent(d, bound=25)
        assert not cert.certified
        assert cert.stuck == "x"

    def test_iterations_are_charged_to_the_term_budget(self):
        # x -> x: the application's bookkeeping, one derivative term and
        # one product term per application
        ring = PresentedRing.polynomial_ring(("x",))
        d = derivation(ring, x="x")
        with budget() as scope:
            assert not certify_nilpotent(d, bound=25)
            assert scope.terms_used == 25 * (APPLICATION_TERMS + 2)
        # x -> 2^64 x: the coefficient grows a block every eight
        # applications, and so does the charge, which stops the check
        # before the product it prices
        d = derivation(ring, x="2^64*x")
        with budget() as scope, pytest.raises(
                BudgetExceededError, match="applying the derivation along x"):
            certify_nilpotent(d, bound=10**9)
        assert TERM_BUDGET < scope.terms_used < TERM_BUDGET + 2000

    def test_only_products_formed_are_charged(self):
        # D(p) = 0: p has no x6, so no product is formed on it
        ring = PresentedRing.polynomial_ring(("x1", "x2", "x3", "x4", "x5", "x6"))
        d = derivation(ring, x6="(x1 + x2 + x3 + x4 + x5)^8")
        assert len(d.images["x6"].terms) == 495
        with budget() as scope:
            cert = certify_nilpotent(d)
            # x6: 1 + 495 for x6 -> p, nothing for p -> 0; every application
            # its bookkeeping: two on x6 and one on each other variable
            assert scope.terms_used == 496 + 7 * APPLICATION_TERMS
        assert cert.certified and cert.orders["x6"] == 2

    def test_triangular_orders(self):
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, x="1", y="x^2")
        cert = certify_nilpotent(d, bound=4)
        assert cert.certified
        assert cert.orders == {"x": 2, "y": 4}

    def test_products_die_within_order_budget(self):
        rng = random.Random(17)
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, x="1", y="x^2")
        cert = certify_nilpotent(d)
        for _ in range(20):
            f = _random_poly(rng, ring.vars, 4)
            g = _random_poly(rng, ring.vars, 4)
            h = f * g
            bound = sum(max(h.degree_in(v), 0) * (cert.orders[v] - 1)
                        for v in ring.vars) + 1
            assert iterate(d, h, bound).is_zero()


class TestRestriction:
    def test_corpus_c_restriction(self, corpus_c):
        assert restricts_to(derivation(P3, Z="X^2"), corpus_c)

    def test_full_derivative_escapes_cusp(self):
        ring = PresentedRing.polynomial_ring(("X",))
        R = present_subalgebra(ring, [parse_polynomial("X^2", ring.vars),
                                      parse_polynomial("X^3", ring.vars)])
        d = derivation(ring, X="1")
        assert not restricts_to(d, R)  # d(X^2) = 2X escapes

    def test_zero_derivation(self, corpus_c):
        assert restricts_to(Derivation(P3, {}), corpus_c)

    def test_each_generator_image_is_charged(self, corpus_c):
        d = derivation(P3, Z="X^2")
        with budget() as scope:
            restrict_to_subalgebra(d, corpus_c)
        assert scope.terms_used == sum(apply_charge(d, g) + APPLICATION_TERMS
                                       for g in corpus_c.generators) > 0

    def test_induced_images(self, corpus_c):
        d = restrict_to_subalgebra(derivation(P3, Z="X^2"), corpus_c)
        # the only moving generator is X^3 Z, sent to X^5 = X^2 * X^3
        moving = d.nonzero_images()
        assert len(moving) == 1
        tag, image = moving[0]
        assert tag == corpus_c.tag_vars[-1]
        assert corpus_c.to_ambient(image) == pp("X^5")
        # members of the subalgebra stay members under d
        rng = random.Random(3)
        ring = corpus_c.presented_ring()
        for _ in range(30):
            s = _random_poly(rng, ring.vars, 3)
            image = d.host.to_ambient(apply(d, s))
            assert corpus_c.member(image).member


class TestIrreducibility:
    def test_independent_images(self):
        ring = PresentedRing.polynomial_ring(("u", "v", "X", "Y"))
        d = derivation(ring, X="u", Y="v")
        assert irreducible_over_ufd(d).irreducible

    def test_common_factor(self):
        d = derivation(P3, Y="X^2", Z="X^3")
        report = irreducible_over_ufd(d)
        assert not report.irreducible
        assert report.witness == pp("X^2")

    def test_partial_derivative_is_irreducible(self):
        d = derivation(P3, Y="1")
        assert irreducible_over_ufd(d).irreducible

    def test_refused_with_relations(self, cone_ring):
        d = derivation(cone_ring, u="2*v", v="w")
        with pytest.raises(DegenerateInputError):
            irreducible_over_ufd(d)


class TestPrincipalContainment:
    def test_reducible_slide_on_corpus_c(self, corpus_c):
        d = restrict_to_subalgebra(derivation(P3, Z="X^4"), corpus_c)
        x2 = corpus_c.express(pp("X^2"))
        assert contained_in_principal(d, x2)

    def test_partial_derivative_not_in_its_variable(self):
        d = derivation(P3, Y="1")
        assert not contained_in_principal(d, pp("Y"))

    def test_zero_derivation(self):
        assert contained_in_principal(Derivation(P3, {}), pp("X"))


class TestTrivialExtension:
    def test_new_variable_is_constant(self):
        d = derivation(P3, Z="X^2")
        ext = extend_with_variable(d, "W")
        assert "W" in ext.ring.vars
        assert ext.images["W"].is_zero()
        w = Polynomial.variable("W", ext.ring.vars)
        assert apply(ext, w * w).is_zero()

    def test_order_kept_without_relations(self):
        ring = PresentedRing(("x", "y"), order=LEX)
        ext = extend_with_variable(derivation(ring, y="x"), "z")
        assert ext.ring.order == LEX
        assert not ext.ring.has_relations()

    def test_order_kept_with_relations(self, cone_ring):
        ext = extend_with_variable(derivation(cone_ring, u="2*v", v="w"), "t")
        assert ext.ring.order == cone_ring.order
        assert ext.ring.relations.elements == [
            p.embed(ext.ring.vars) for p in cone_ring.relations.elements]
