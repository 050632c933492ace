import random
from fractions import Fraction

import pytest

from lndkit.errors import DegenerateInputError
from lndkit.groebner_engine import Ideal, ideal_member
from lndkit.poly_core import Polynomial, parse_polynomial
from lndkit.presentation import (
    PresentedRing,
    nzd_test,
    present_subalgebra,
)
from oracles import ideal_equal

XY = ("X", "Y")
UVXY = ("u", "v", "X", "Y")


def pp(text, vars):
    return parse_polynomial(text, vars)


class TestPresentedRing:
    def test_polynomial_ring_normal_is_identity(self):
        ring = PresentedRing.polynomial_ring(XY)
        f = pp("X^2*Y - 1/3", XY)
        assert ring.normal(f) == f

    def test_quotient_equality_of_normal_forms(self):
        vars = ("u", "v", "w")
        ring = PresentedRing.quotient(vars, [pp("u*w - v^2", vars)])
        assert ring.equal(pp("u*v^2", vars), pp("u^2*w", vars))
        assert not ring.equal(pp("u", vars), pp("w", vars))

    def test_zero_relations_present_the_polynomial_ring(self):
        zero = Polynomial.zero(XY)
        for ring in (PresentedRing(XY), PresentedRing(XY, [zero]),
                     PresentedRing.quotient(XY, [zero])):
            assert not ring.has_relations()
            assert ring.relations.elements == []
            f = pp("X^2*Y - 1", XY)
            assert ring.normal(f) == f

    def test_unit_relations_rejected(self):
        with pytest.raises(DegenerateInputError):
            PresentedRing.quotient(XY, [pp("X", XY), pp("1 - X", XY)])


class TestPresentSubalgebra:
    def test_cusp_presentation(self):
        ring = PresentedRing.polynomial_ring(("X",))
        sub = present_subalgebra(ring, [pp("X^2", ("X",)), pp("X^3", ("X",))])
        pres = sub.presentation_ideal()
        target = Ideal([parse_polynomial("T1^3 - T2^2", sub.tag_vars)])
        assert ideal_equal(pres, target)

    def test_full_ring_presentation_is_zero(self):
        ring = PresentedRing.polynomial_ring(("X",))
        sub = present_subalgebra(ring, [pp("X", ("X",))])
        assert sub.presentation_ideal().is_zero()

    def test_independent_generators(self):
        ring = PresentedRing.polynomial_ring(UVXY)
        gens = [pp(t, UVXY) for t in ("u", "v", "v*X - u*Y")]
        sub = present_subalgebra(ring, gens)
        assert sub.presentation_ideal().is_zero()

    def test_zero_generator_rejected(self):
        ring = PresentedRing.polynomial_ring(XY)
        with pytest.raises(DegenerateInputError):
            present_subalgebra(ring, [Polynomial.zero(XY)])


@pytest.fixture(scope="module")
def cusp():
    ring = PresentedRing.polynomial_ring(("X",))
    return present_subalgebra(ring, [pp("X^2", ("X",)), pp("X^3", ("X",))])


class TestMembership:

    def test_power_in_with_witness(self, cusp):
        res = cusp.member(pp("X^5", ("X",)))
        assert res.member
        assert res.witness == parse_polynomial("T1*T2", cusp.tag_vars)

    def test_generator_of_ambient_out(self, cusp):
        assert not cusp.member(pp("X", ("X",))).member

    def test_corpus_a_defining_generator(self):
        ring = PresentedRing.polynomial_ring(XY)
        gens = [pp(t, XY) for t in ("X^2", "X^3", "Y + X*Y^2", "X^2*Y")]
        A = present_subalgebra(ring, gens)
        assert A.member(pp("Y + X*Y^2", XY)).member
        assert not A.member(pp("X", XY)).member
        assert not A.member(pp("Y", XY)).member

    def test_witness_substitutes_back(self):
        rng = random.Random(13)
        ring = PresentedRing.polynomial_ring(XY)
        gens = [pp(t, XY) for t in ("X^2", "X^3", "Y + X*Y^2", "X^2*Y")]
        A = present_subalgebra(ring, gens)
        checked = 0
        for _ in range(60):
            f = _random_member(rng, A)
            res = A.member(f)
            assert res.member
            assert A.to_ambient(res.witness) == ring.normal(f)
            checked += 1
        assert checked == 60

    def test_membership_stable_under_representation(self):
        # re-presenting with an extra member must not change the predicate
        rng = random.Random(14)
        ring = PresentedRing.polynomial_ring(XY)
        gens = [pp(t, XY) for t in ("X^2", "X^3", "Y + X*Y^2")]
        A = present_subalgebra(ring, gens)
        bigger = present_subalgebra(ring, gens + [pp("X^5", XY)])
        for _ in range(30):
            f = _random_poly(rng, XY, 5)
            if f.is_zero():
                continue
            assert A.member(f).member == bigger.member(f).member


def _random_member(rng, sub):
    total = Polynomial.zero(sub.ambient.vars)
    for _ in range(rng.randint(1, 3)):
        term = Polynomial.constant(sub.ambient.vars, rng.randint(-4, 4))
        for g in sub.generators:
            term = term * g ** rng.randint(0, 2)
        total = total + term
    if total.is_zero():
        total = sub.generators[0]
    return total


def _random_poly(rng, vars, max_degree=4, n_terms=3):
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(vars))] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-9, 9))
    return Polynomial(vars, terms)


class TestFullLineFibrationCandidate:
    def test_eight_generators_close_the_recursion(self):
        # the corpus candidate is deliberately slim; this bigger set
        # reaches every X^2 Y^m and X^3 Y^m through the interleaved
        # recursion X^2 Y^m = F X^2 Y^(m-1) - X^3 Y^(m+1),
        # X^3 Y^(m+1) = F X^3 Y^m - (X^2 Y^a)(X^2 Y^b)
        ring = PresentedRing.polynomial_ring(XY)
        gens = [pp(t, XY) for t in
                ("X^2", "X^3", "Y + X*Y^2", "X^2*Y", "X^2*Y^2",
                 "X^2*Y^3", "X^2*Y^4", "X^3*Y")]
        A_full = present_subalgebra(ring, gens)
        for m in range(5, 9):
            assert A_full.member(pp(f"X^2*Y^{m}", XY)).member
            assert A_full.member(pp(f"X^3*Y^{m}", XY)).member
        assert not A_full.member(pp("X", XY)).member
        assert not A_full.member(pp("Y", XY)).member
        assert not A_full.member(pp("X*Y^2", XY)).member


class TestTagBasisClosure:
    def test_corpus_tag_bases_are_groebner(self):
        from lndkit.groebner_engine import normal_form
        from oracles import s_polynomial

        ring3 = PresentedRing.polynomial_ring(("X", "Y", "Z"))
        for gens_text in (
                ("X^2", "X^3", "Y + X*Y^2", "X^2*Y"),
                ("X^2", "X^3", "Y + X*Y^2", "X^2*Y", "X^3*Z")):
            sub = present_subalgebra(
                ring3, [pp(t, ring3.vars) for t in gens_text])
            basis = sub.tag_basis
            for i, f in enumerate(basis.elements):
                for g in basis.elements[i + 1:]:
                    s = s_polynomial(f, g, basis.order)
                    assert normal_form(s, basis).is_zero()


class TestNzd:
    def test_independent_variable(self):
        ring = PresentedRing.polynomial_ring(XY)
        assert nzd_test(pp("Y", XY), Ideal([pp("X", XY)]), ring).regular

    def test_nilpotent_direction(self):
        ring = PresentedRing.polynomial_ring(XY)
        res = nzd_test(pp("X", XY), Ideal([pp("X^2", XY)]), ring)
        assert not res.regular
        # h*X lies in (X^2) while h does not
        lifted = ring.lifted_ideal([pp("X^2", XY)])
        assert ideal_member(res.witness * pp("X", XY), lifted)
        assert not ideal_member(res.witness, lifted)

    def test_corpus_c_regular_pair_member(self):
        ring3 = PresentedRing.polynomial_ring(("X", "Y", "Z"))
        gens = [pp(t, ring3.vars)
                for t in ("X^2", "X^3", "Y + X*Y^2", "X^2*Y", "X^3*Z")]
        C = present_subalgebra(ring3, gens)
        pring = C.presented_ring()
        a = C.express(pp("X^4", ring3.vars))
        b = C.express(pp("X^2 + 2*X^3*Z", ring3.vars))
        assert nzd_test(b, Ideal([a], pring.vars), pring).regular

    def test_degenerate_element_reported(self):
        ring = PresentedRing.polynomial_ring(XY)
        with pytest.raises(DegenerateInputError):
            nzd_test(pp("X^2", XY), Ideal([pp("X", XY)]), ring)

    def test_failure_always_carries_verified_witness(self):
        rng = random.Random(15)
        ring = PresentedRing.polynomial_ring(XY)
        seen_failure = False
        for _ in range(40):
            g = _random_poly(rng, XY, 2)
            m = _random_poly(rng, XY, 2)
            if g.is_zero() or m.is_zero():
                continue
            ideal = Ideal([m], XY)
            lifted = ring.lifted_ideal([m])
            if ideal_member(g, lifted):
                continue
            res = nzd_test(g, ideal, ring)
            if not res.regular:
                seen_failure = True
                assert ideal_member(res.witness * g, lifted)
                assert not ideal_member(res.witness, lifted)
        assert seen_failure
