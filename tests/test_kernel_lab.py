import random
from fractions import Fraction

import pytest

from lndkit.config import budget
from lndkit.derivation_engine import (
    Derivation,
    apply,
    certify_nilpotent,
    irreducible_over_ufd,
    restrict_to_subalgebra,
)
from lndkit.errors import DegenerateInputError, DimensionBudgetError
from lndkit.grade_analyzer import GradeValue, fpf_test, grade_of_derivation
from lndkit.kernel_lab import (
    SliceData,
    compare_kernel_to_subalgebra,
    dixmier,
    kernel_basis,
    kernel_generators,
    reconstruct,
    slice_search,
    standard_monomials,
    verify_generators_up_to_degree,
)
from lndkit.poly_core import Polynomial, parse_polynomial
from lndkit.presentation import PresentedRing, present_subalgebra

XY = ("X", "Y")
XYZ = ("X", "Y", "Z")
P2 = PresentedRing.polynomial_ring(XY)
P3 = PresentedRing.polynomial_ring(XYZ)


def pp(text, vars=XYZ):
    return parse_polynomial(text, vars)


def derivation(ring, **images):
    return Derivation(ring, {k: parse_polynomial(v, ring.vars)
                             for k, v in images.items()})


@pytest.fixture(scope="module")
def corpus_a():
    gens = [pp(t) for t in ("X^2", "X^3", "Y + X*Y^2", "X^2*Y")]
    return present_subalgebra(P3, gens)


@pytest.fixture(scope="module")
def corpus_b():
    gens = [pp(t) for t in ("X^2", "X^3", "Y + X*Y^2", "X^2*Y", "Z")]
    return present_subalgebra(P3, gens)


@pytest.fixture(scope="module")
def corpus_c():
    gens = [pp(t) for t in ("X^2", "X^3", "Y + X*Y^2", "X^2*Y", "X^3*Z")]
    return present_subalgebra(P3, gens)


@pytest.fixture(scope="module")
def uv_ring():
    return PresentedRing.polynomial_ring(("u", "v", "X", "Y"))


class TestStandardMonomials:
    def test_polynomial_ring_count(self):
        monos = standard_monomials(P2, 3)
        assert len(monos) == 10  # C(5, 2)

    def test_relations_prune(self):
        ring = PresentedRing.quotient(XY, [pp("X^2 - Y", XY)])
        monos = standard_monomials(ring, 4)
        lt = ring.relations.elements[0].leading_monomial(ring.order)
        from lndkit.poly_core import monomial_div
        assert all(monomial_div(m, lt) is None for m in monos)

    def test_budget(self):
        with pytest.raises(DimensionBudgetError, match="budget 20"), budget(dims=20):
            standard_monomials(P3, 10)


class TestKernelBasis:
    def test_partial_derivative(self):
        d = derivation(P2, Y="1")
        report = kernel_basis(d, 3)
        expected = [pp(t, XY) for t in ("1", "X", "X^2", "X^3")]
        assert report.basis == expected

    def test_linear_syzygy(self, uv_ring):
        d = derivation(uv_ring, X="u", Y="v")
        report = kernel_basis(d, 2)
        syzygy = pp("v*X - u*Y", uv_ring.vars)
        assert syzygy in report.basis
        assert all(apply(d, f).is_zero() for f in report.basis)

    def test_reduced_slide_kernel_lands_in_a(self, corpus_a, corpus_c):
        d = restrict_to_subalgebra(derivation(P3, Z="X^2"), corpus_c)
        report = kernel_basis(d, 4)
        assert report.basis  # nontrivial
        for f in report.ambient_basis(corpus_c):
            if f.is_constant():
                continue
            assert corpus_a.member(f).member

    def test_every_element_annihilated(self, corpus_b):
        d = restrict_to_subalgebra(derivation(P3, Z="1"), corpus_b)
        report = kernel_basis(d, 4)
        assert all(apply(d, f).is_zero() for f in report.basis)

    def test_non_nilpotent_needs_override(self):
        ring = PresentedRing.polynomial_ring(("x",))
        d = derivation(ring, x="x")
        with pytest.raises(DegenerateInputError):
            kernel_basis(d, 2)
        report = kernel_basis(d, 2, assume_nilpotent=True)
        assert report.basis == [Polynomial.one(("x",))]


class TestKernelGenerators:
    def test_partial_derivative(self):
        d = derivation(P2, Y="1")
        report = kernel_generators(d, 4)
        assert report.generators == [pp("X", XY)]

    def test_uv_instance(self, uv_ring):
        d = derivation(uv_ring, X="u", Y="v")
        report = kernel_generators(d, 3)
        expected = [pp(t, uv_ring.vars) for t in ("u", "v", "v*X - u*Y")]
        assert report.generators == expected
        # over the base Q[u, v] a single extra generator appears
        extras = [g for g in report.generators if str(g) not in ("u", "v")]
        assert len(extras) == 1

    def test_slide_on_b_recovers_a(self, corpus_a, corpus_b):
        d = restrict_to_subalgebra(derivation(P3, Z="1"), corpus_b)
        report = kernel_generators(d, 4)
        ambient = [corpus_b.to_ambient(g) for g in report.generators]
        assert all(corpus_a.member(g).member for g in ambient)
        for g in corpus_a.generators:
            sub = present_subalgebra(P3, ambient)
            assert sub.member(g).member

    def test_uv_presentation_ideal_is_zero(self, uv_ring):
        d = derivation(uv_ring, X="u", Y="v")
        report = kernel_generators(d, 3)
        sub = present_subalgebra(uv_ring, report.generators)
        assert sub.presentation_ideal().is_zero()


class TestGradeKernelConcordance:
    def test_grade_two_gives_single_generator_over_base(self, uv_ring):
        # irreducible, grade 2: the kernel is generated by one element
        # over the base variables
        d = derivation(uv_ring, X="u", Y="v")
        assert irreducible_over_ufd(d).irreducible
        assert grade_of_derivation(d).value is GradeValue.TWO
        report = kernel_generators(d, 3)
        base = {"u", "v"}
        non_base = [g for g in report.generators
                    if any(g.degree_in(v) > 0 for v in ("X", "Y"))]
        assert len(non_base) == 1
        assert all(str(g) in base for g in report.generators
                   if g not in non_base)


class TestSliceSearch:
    def test_plain_slice(self):
        d = derivation(P2, Y="1")
        data = slice_search(d, 3)
        assert not data.is_local()
        assert data.slice == pp("Y", XY)

    def test_slide_on_b_finds_adjoined_variable(self, corpus_b):
        d = restrict_to_subalgebra(derivation(P3, Z="1"), corpus_b)
        data = slice_search(d, 4)
        assert not data.is_local()
        assert corpus_b.to_ambient(data.slice) == pp("Z")

    def test_local_slice_for_reduced_slide(self):
        d = derivation(P3, Z="X^2")
        data = slice_search(d, 3)
        assert data.is_local()
        assert data.slice == pp("Z")
        assert data.cofactor == pp("X^2")
        assert apply(d, data.cofactor).is_zero()

    def test_fpf_corpus_derivations_have_slices(self, corpus_b):
        for d in (restrict_to_subalgebra(derivation(P3, Z="1"), corpus_b),
                  derivation(P2, Y="1")):
            if fpf_test(d):
                data = slice_search(d, 4)
                assert data is not None and not data.is_local()

    def test_no_slice_at_all(self):
        ring = PresentedRing.polynomial_ring(("x",))
        d = Derivation(ring, {})
        assert slice_search(d, 3) is None


class TestDixmier:
    def test_taylor_collapse(self):
        d = derivation(P2, Y="1")
        s = SliceData(pp("Y", XY))
        f = pp("X*Y + X + Y^2", XY)
        assert dixmier(d, s, f).value == pp("X", XY)

    def test_kernel_element_fixed(self):
        d = derivation(P2, Y="1")
        s = SliceData(pp("Y", XY))
        f = pp("X^3 - 2*X", XY)
        assert dixmier(d, s, f).value == f

    def test_two_step_projection(self):
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, x="1", y="x")
        s = SliceData(parse_polynomial("x", ring.vars))
        out = dixmier(d, s, parse_polynomial("y", ring.vars))
        assert out.value == parse_polynomial("y - 1/2 x^2", ring.vars)
        assert apply(d, out.value).is_zero()

    def test_projection_properties_random(self):
        rng = random.Random(71)
        d = derivation(P2, Y="1")
        s = SliceData(pp("Y", XY))
        cert = certify_nilpotent(d)
        for _ in range(100):
            f = _random_poly(rng, XY, 5)
            pf = dixmier(d, s, f, cert).value
            assert apply(d, pf).is_zero()
            assert dixmier(d, s, pf, cert).value == pf

    def test_ring_homomorphism_random(self):
        rng = random.Random(72)
        d = derivation(P2, Y="1")
        s = SliceData(pp("Y", XY))
        cert = certify_nilpotent(d)
        for _ in range(40):
            f = _random_poly(rng, XY, 4)
            g = _random_poly(rng, XY, 4)
            pf = dixmier(d, s, f, cert).value
            pg = dixmier(d, s, g, cert).value
            assert dixmier(d, s, f * g, cert).value == pf * pg
            assert dixmier(d, s, f + g, cert).value == pf + pg

    def test_local_slice_denominator(self):
        d = derivation(P3, Z="X^2")
        data = SliceData(pp("Z"), pp("X^2"))
        out = dixmier(d, data, pp("Z"))
        # pi(Z) = (Z c - s c) / c = 0 in the localization: numerator must
        # be annihilated and carry the declared denominator power
        assert out.denominator_power == 1
        assert apply(d, out.numerator).is_zero()


def _random_poly(rng, vars, max_degree=4, n_terms=3):
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(vars))] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-6, 6))
    return Polynomial(vars, terms)


class TestReconstruct:
    def test_square_of_slice(self):
        d = derivation(P2, Y="1")
        s = SliceData(pp("Y", XY))
        coeffs = reconstruct(d, s, pp("Y^2", XY))
        assert coeffs == [Polynomial.zero(XY), Polynomial.zero(XY),
                          Polynomial.one(XY)]

    def test_kernel_element(self):
        d = derivation(P2, Y="1")
        s = SliceData(pp("Y", XY))
        f = pp("X^2 - 7", XY)
        assert reconstruct(d, s, f) == [f]

    def test_collect(self):
        d = derivation(P2, Y="1")
        s = SliceData(pp("Y", XY))
        coeffs = reconstruct(d, s, pp("Y*X + Y", XY))
        assert coeffs == [Polynomial.zero(XY), pp("X + 1", XY)]

    def test_identity_on_randoms(self, corpus_b):
        rng = random.Random(73)
        d = restrict_to_subalgebra(derivation(P3, Z="1"), corpus_b)
        s = slice_search(d, 2)
        cert = certify_nilpotent(d)
        ring = d.ring
        for _ in range(50):
            f = ring.normal(_random_poly(rng, ring.vars, 4))
            coeffs = reconstruct(d, s, f, cert)
            total = Polynomial.zero(ring.vars)
            for i, a in enumerate(coeffs):
                assert apply(d, a).is_zero()
                total = total + a * s.slice ** i
            assert ring.normal(total) == f

    def test_local_slice_refused(self):
        d = derivation(P3, Z="X^2")
        data = SliceData(pp("Z"), pp("X^2"))
        with pytest.raises(DegenerateInputError):
            reconstruct(d, data, pp("Z"))


@pytest.fixture(scope="module")
def cusp():
    ring = PresentedRing.polynomial_ring(("X",))
    gens = [parse_polynomial("X^2", ("X",)), parse_polynomial("X^3", ("X",))]
    return present_subalgebra(ring, gens)


class TestVerifyGenerators:

    def test_redundant_extension_equal(self, cusp):
        claimed = [parse_polynomial(t, ("X",)) for t in ("X^2", "X^3", "X^4")]
        assert verify_generators_up_to_degree(cusp, claimed, 6).verdict == "equal"

    def test_missing_generator(self, cusp):
        claimed = [parse_polynomial("X^2", ("X",))]
        out = verify_generators_up_to_degree(cusp, claimed, 3)
        assert out.verdict == "strictly-contains"
        assert out.witness == parse_polynomial("X^3", ("X",))

    def test_corpus_a_against_extension(self, corpus_a):
        claimed = [pp(t) for t in
                   ("X^2", "X^3", "Y + X*Y^2", "X^2*Y", "X^4", "X^3*Y + X^4*Y^2")]
        out = verify_generators_up_to_degree(corpus_a, claimed, 6)
        assert out.verdict == "equal"

    def test_corpus_a_gap_documented(self, corpus_a):
        # the full candidate set reaches degree-6 elements the slim corpus
        # candidate cannot: the open question made concrete
        claimed = [pp(t) for t in
                   ("X^2", "X^3", "Y + X*Y^2", "X^2*Y", "X^2*Y^2")]
        out = verify_generators_up_to_degree(corpus_a, claimed, 6)
        assert out.verdict == "strictly-contained"
        assert str(out.witness) == "X^2*Y^2"


class TestClaimedKernel:
    def test_two_sided_verdict(self, corpus_a, corpus_b):
        d = restrict_to_subalgebra(derivation(P3, Z="1"), corpus_b)
        report = kernel_basis(d, 3)
        report = compare_kernel_to_subalgebra(report, d, corpus_a)
        assert report.kernel_in_expected
        assert report.expected_in_kernel
