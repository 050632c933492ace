import random
from itertools import product
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lndkit import config, kernel_lab

from lndkit.config import budget
from lndkit.derivation_engine import (
    APPLICATION_TERMS,
    Derivation,
    NilpotencyCertificate,
    apply,
    certify_nilpotent,
    irreducible_over_ufd,
    restrict_to_subalgebra,
)
from lndkit.errors import (
    BudgetExceededError,
    DegenerateInputError,
    DimensionBudgetError,
    ExponentOverflowError,
)
from lndkit.grade_analyzer import GradeValue, fpf_test, grade_of_derivation
from lndkit.kernel_lab import (
    _derivation_matrix,
    compare_kernel_to_subalgebra,
    dixmier,
    kernel_basis,
    kernel_generators,
    reconstruct,
    slice_search,
    standard_monomials,
    verify_generators_up_to_degree,
)
from lndkit._linalg import nullspace
from lndkit.poly_core import (
    EXPONENT_LIMIT,
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    _layout,
    parse_polynomial,
    product_cost,
)
from lndkit.presentation import PresentedRing, present_subalgebra
from oracles import (apply as oracle_apply, apply_charge, canonical, generator_comparison,
                     local_slice, monomial_div, order_key, span_products)

XY = ("X", "Y")
XYZ = ("X", "Y", "Z")
P2 = PresentedRing.polynomial_ring(XY)
P3 = PresentedRing.polynomial_ring(XYZ)
P2_MOD_X2_Y = PresentedRing.quotient(XY, [parse_polynomial("X^2 - Y", XY)])


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


def _monomials(ring, degree):
    """The standard monomials without their packed forms."""
    return [m for m, _ in standard_monomials(ring, degree)]


class TestStandardMonomials:
    def test_polynomial_ring_count(self):
        monos = standard_monomials(P2, 3)
        assert len(monos) == 10  # C(5, 2)

    def test_relations_prune(self):
        ring = PresentedRing.quotient(XY, [pp("X^2 - Y", XY)])
        monos = _monomials(ring, 4)
        lt = ring.relations.elements[0].leading_monomial(ring.order)
        assert all(monomial_div(m, lt) is None for m in monos)

    def test_budget(self):
        with pytest.raises(DimensionBudgetError, match="budget 20"), budget(dims=20):
            standard_monomials(P3, 10)

    def test_budget_bounds_the_walk_on_a_quotient(self, monkeypatch):
        # Q[x, y] / (y) has one standard monomial per degree: the walk
        # closes every multiple of y where it forms it, so the divisibility
        # tests stay within (n + 1) * (limit + 1) per relation lead, however
        # large the degree
        ring = PresentedRing.quotient(("x", "y"), [pp("y", ("x", "y"))])
        calls = []
        walk = kernel_lab._walk
        monkeypatch.setattr(kernel_lab, "_walk", lambda weights, bound, start, step, *rest: walk(
            weights, bound, start, lambda v, i: calls.append(v) or step(v, i), *rest))
        limit = 5000
        with pytest.raises(DimensionBudgetError, match=f"budget {limit} exceeded"), \
                budget(dims=limit):
            standard_monomials(ring, 8000)
        assert len(calls) <= (2 + 1) * (limit + 1) * 1
        assert _monomials(ring, 3) == [(0, 0), (1, 0), (2, 0), (3, 0)]

    @pytest.mark.parametrize("order", [
        LEX, GRLEX, GREVLEX, MonomialOrder.elimination(1), MonomialOrder.elimination(2),
        MonomialOrder.lex((2, 0, 1)), MonomialOrder.grevlex((1, 2, 0)),
        MonomialOrder.elimination(1, (2, 1, 0)),
    ], ids=["lex", "grlex", "grevlex", "block1", "block2", "lex-perm", "grevlex-perm",
            "block1-perm"])
    @pytest.mark.parametrize("relations", [[], ["X^2 - Y"], ["X*Y - Z^2", "Y^3 - X"]],
                             ids=["none", "one", "two"])
    def test_sorted_as_by_the_order_key(self, order, relations):
        # the sort on packed forms lists the monomials as (degree, order
        # key) does, the packing reversing the order, each with its packed form
        ring = PresentedRing(XYZ, [pp(r) for r in relations], order)
        pairs = standard_monomials(ring, 5)
        monos = [m for m, _ in pairs]
        assert monos == sorted(monos, key=lambda m: (sum(m), order_key(order, m)))
        assert [x for _, x in pairs] == _layout(order, 3).pack(monos)
        assert len(monos) == len(set(monos)) and (len(monos) == 56) == (not relations)
        leads = [p.leading_monomial(order) for p in ring.relations.elements]
        assert all(monomial_div(m, lt) is None for m in monos for lt in leads)


class TestWalk:
    def test_ascending_lexicographic_within_the_weighted_bound(self):
        weights, bound = (2, 3, 1), 5
        walked = list(kernel_lab._walk(
            weights, bound, (0, 0, 0),
            lambda e, i: e[:i] + (e[i] + 1,) + e[i + 1:], 0, bound))
        expected = [e for e in product(range(6), repeat=3)
                    if sum(a * w for a, w in zip(e, weights)) <= bound]
        assert walked == expected

    def test_a_refused_step_closes_what_it_reaches(self):
        # refusing (1, 0) also drops (1, 1), (2, 0), ... : every tuple the
        # walk reaches from it; (0, 1) and its own successors stay
        def step(e, i):
            e = e[:i] + (e[i] + 1,) + e[i + 1:]
            return None if e == (1, 0) else e

        walked = list(kernel_lab._walk((1, 1), 2, (0, 0), step, 0, 2))
        assert walked == [(0, 0), (0, 1), (0, 2)]

    def test_no_tuple_below_a_negative_bound(self):
        assert list(kernel_lab._walk((1,), -1, (0,), None, 0, 1)) == []


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
        for f in [corpus_c.to_ambient(p) for p in report.basis]:
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
        with pytest.raises(DegenerateInputError, match="not certified locally nilpotent"):
            kernel_basis(d, 2)

    @pytest.mark.parametrize("order", [GREVLEX, LEX])
    @pytest.mark.parametrize("case", [
        (None, {"X": "Y", "Y": "Z"}),
        (None, {"Y": "1/2 X", "Z": "2/3 Y + X^2"}),
        ("X^2 - Y", {"Z": "X"}),
        ("X*Y - 1", {"Z": "1/3 X^2 + 2 Y"}),
    ])
    def test_basis_is_the_monic_nullspace(self, order, case):
        # the basis equals the nullspace vectors made monic the long way,
        # through Polynomial.monic, in the same listing, with Fraction
        # coefficients throughout
        relation, images = case
        ring = PresentedRing(XYZ, [pp(relation)] if relation else None, order)
        d = derivation(ring, **images)
        monomials = _monomials(ring, 4)
        rows, _, _ = _matrix(d, monomials)
        old = [Polynomial(XYZ, {monomials[j]: c for j, c in vec.items()}).monic(order)
               for vec in nullspace(rows, len(monomials))]
        old.sort(key=lambda p: (p.degree(),
                                tuple(-e for e in p.leading_monomial(order))))
        basis = kernel_basis(d, 4).basis
        assert basis == old
        assert all(map(canonical, basis))


def _weitzenboeck(n, change=None):
    """The basic Weitzenboeck derivation x_i -> x_(i-1) on n variables,
    conjugated by the unitriangular change x_i -> x_i + change[x_i] (lower
    variables only) when one is given: phi D phi^-1."""
    vs = tuple(f"x{i}" for i in range(1, n + 1))
    ring = PresentedRing.polynomial_ring(vs)
    x = {v: Polynomial.variable(v, vs) for v in vs}
    base = Derivation(ring, {vs[i]: x[vs[i - 1]] for i in range(1, n)})
    if change is None:
        return base
    phi = {v: x[v] + parse_polynomial(change.get(v, "0"), vs) for v in vs}
    inverse = {}
    for v in vs:  # phi^-1(x_i) = x_i - change[x_i] at phi^-1 of the lower x_j
        inverse[v] = x[v] - (phi[v] - x[v]).substitute(inverse, vs)
    return Derivation(ring, {v: apply(base, inverse[v]).substitute(phi, vs)
                             for v in vs})


class TestWeitzenboeckKernel:
    """The n = 5 kernel to degree 8, the largest matrix of the benchmark's
    kernel workload: its dimension in each degree, also after a change of
    coordinates, which moves every matrix entry but keeps the dimensions."""

    @pytest.mark.parametrize("change", [
        None, {"x2": "x1", "x4": "-2*x3 + x1", "x5": "x2"}])
    def test_dimensions_to_degree_eight(self, change):
        d = _weitzenboeck(5, change)
        basis = kernel_basis(d, 8).basis
        dims = [sum(p.degree() == k for p in basis) for k in range(9)]
        assert dims == [1, 1, 3, 5, 8, 12, 18, 24, 33]
        assert len(basis) == 105
        assert all(apply(d, p).is_zero() for p in basis)


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

    def test_each_product_is_formed_once(self, monkeypatch):
        # the basic Weitzenboeck n = 5 kernel to degree 8 keeps generators of
        # degrees 1, 2, 2, 3, 3; one span serves the call, so each of their
        # products is formed once, not again whenever an element is kept
        d = _weitzenboeck(5)
        certificate = certify_nilpotent(d)
        seen = []
        normal = d.ring.normal
        # the certificate's applications are no products: it is made first
        monkeypatch.setattr(kernel_lab, "certify_nilpotent", lambda d: certificate)
        monkeypatch.setattr(d.ring, "normal", lambda f: seen.append(f) or normal(f))
        report = kernel_generators(d, 8)
        degs = [g.degree() for g in report.generators]
        assert degs == [1, 2, 2, 3, 3]
        products = sum(1 for e in product(*(range(8 // w + 1) for w in degs))
                       if sum(a * w for a, w in zip(e, degs)) <= 8)
        assert len(seen) == products == 110

    def test_dimension_budget_bounds_the_whole_span(self):
        # D(Y) = X on Q[X, Y]/(X^2): the kernel to degree 6 is spanned by 1
        # and X*Y^k, and X, X*Y, ..., X*Y^5 are all kept.  The span of the
        # first five forms 1 + 6 + 9 + 7 + 4 + 2 = 29 products, the 1 and
        # one extension each, against 13 standard monomials; no single
        # extension comes near 28
        ring = PresentedRing.quotient(XY, [pp("X^2", XY)])
        d = derivation(ring, Y="X")
        with budget(dims=29):
            assert [str(g) for g in kernel_generators(d, 6).generators] == \
                ["X", "X*Y", "X*Y^2", "X*Y^3", "X*Y^4", "X*Y^5"]
        with pytest.raises(DimensionBudgetError, match="budget 28 exceeded at degree 6$"), \
                budget(dims=28):
            kernel_generators(d, 6)

    def test_uv_presentation_ideal_is_zero(self, uv_ring):
        d = derivation(uv_ring, X="u", Y="v")
        report = kernel_generators(d, 3)
        sub = present_subalgebra(uv_ring, report.generators)
        assert sub.presentation_ideal().is_zero()


def _greedy_by_membership(d, degree):
    """The reference generator walk: a fresh tag-basis Subalgebra for every
    kept element, and Subalgebra.member for every membership test."""
    kept, sub = [], None
    for p in kernel_basis(d, degree).basis:
        if p.is_constant():
            continue
        if sub is None or not sub.member(p).member:
            kept.append(p)
            sub = present_subalgebra(d.ring, kept)
    return kept


def _coefficient(draw):
    return Fraction(draw(st.integers(-2, 2)))


def _triangular(draw, ring, graded):
    """x -> c (0 when graded), y -> a polynomial in x, z -> one in x, y:
    linear forms when graded, up to degree 2 with constants otherwise."""
    vs = ring.vars
    top = 1 if graded else 2
    low = 1 if graded else 0

    def poly(allowed):
        terms = {}
        for _ in range(draw(st.integers(0, 2))):
            mono = [0] * len(vs)
            for _ in range(draw(st.integers(low, top))):
                mono[draw(st.sampled_from(allowed))] += 1
            terms[tuple(mono)] = _coefficient(draw)
        return Polynomial(vs, terms)

    images = {vs[1]: poly([0]), vs[2]: poly([0, 1])}
    if not graded:
        images[vs[0]] = Polynomial.constant(vs, _coefficient(draw))
    return Derivation(ring, images)


class TestKernelGeneratorsAgainstMembership:
    """kernel_generators keeps exactly what the membership walk keeps."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_triangular_derivations(self, data):
        graded = data.draw(st.booleans())
        d = _triangular(data.draw, P3, graded)
        degree = data.draw(st.integers(1, 4))
        assert kernel_generators(d, degree).generators == \
            _greedy_by_membership(d, degree)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_quotient_host(self, data):
        # a relation in X alone, which D kills, keeps D well defined; X^2
        # is homogeneous, X^2 - X is not and sends misses to the fallback
        relation = data.draw(st.sampled_from(["X^2", "X^2 - X", "X^3 - 2"]))
        ring = PresentedRing.quotient(XYZ, [pp(relation)])
        d = _triangular(data.draw, ring, graded=True)
        degree = data.draw(st.integers(1, 3))
        assert kernel_generators(d, degree).generators == \
            _greedy_by_membership(d, degree)

    def test_cone_host(self):
        ring = PresentedRing.quotient(("u", "v", "w"), [pp("u*w - v^2", ("u", "v", "w"))])
        d = derivation(ring, u="2*v", v="w")
        assert kernel_generators(d, 4).generators == _greedy_by_membership(d, 4)

    def test_member_only_the_fallback_finds(self, monkeypatch):
        # Y = X^3 in Q[X, Y, Z]/(X^3 - Y), but the products of X up to the
        # degree bound 2 miss it: only Subalgebra.member proves membership
        ring = PresentedRing.quotient(XYZ, [pp("X^3 - Y")])
        d = derivation(ring, Z="1")
        builds = []
        monkeypatch.setattr(kernel_lab, "present_subalgebra",
                            lambda *args: builds.append(args) or present_subalgebra(*args))
        report = kernel_generators(d, 2)
        assert report.generators == [pp("X")] == _greedy_by_membership(d, 2)
        assert len(builds) == 1

    def test_weitzenboeck_five_needs_no_subalgebra(self, monkeypatch):
        vs = tuple(f"x{i}" for i in range(1, 6))
        ring = PresentedRing.polynomial_ring(vs)
        d = Derivation(ring, {vs[i]: Polynomial.variable(vs[i - 1], vs)
                              for i in range(1, 5)})
        builds = []
        monkeypatch.setattr(kernel_lab, "present_subalgebra",
                            lambda *args: builds.append(args) or present_subalgebra(*args))
        report = kernel_generators(d, 3)
        assert [g.degree() for g in report.generators] == [1, 2, 2, 3, 3]
        assert builds == []


def _matrix(d, monomials, power=1):
    """D^power's rows on the monomials, the row index of each packed image
    monomial, and the `_Images` of D the rows were read from."""
    images = kernel_lab._Images(d)
    rows, row_index = _derivation_matrix(images, images.layout.pack(monomials), power)
    return rows, row_index, images


def _matrix_by_apply(d, monomials, power):
    """{(image monomial, column): coefficient} of D^power through the
    diff-and-multiply oracle."""
    cells = {}
    for ci, mono in enumerate(monomials):
        image = Polynomial(d.ring.vars, {mono: Fraction(1)})
        for _ in range(power):
            image = oracle_apply(d, image)
        for m, c in image.terms.items():
            cells[m, ci] = c
    return cells


class TestDerivationMatrix:
    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("relation", [None, "X^2 - Y", "X*Y - 1"])
    def test_matches_apply(self, power, relation):
        # integer images first, then images with denominators 1, 2 and 3,
        # so that integer and Fraction entries meet in one matrix
        ring = P3 if relation is None else PresentedRing.quotient(XYZ, [pp(relation)])
        rng = random.Random(31)
        for den in [1] * 10 + [3] * 10:
            images = {v: ring.normal(_random_poly(rng, XYZ, 2, den=den)) for v in XYZ}
            d = Derivation(ring, images)
            monomials = _monomials(ring, 3)
            rows, row_index, memo = _matrix(d, monomials, power)
            assert sorted(row_index.values()) == list(range(len(rows)))
            # rows are keyed by packed monomials, unpacked here
            unpack = memo.layout.unpack
            cells = {(unpack(m), ci): c for m, ri in row_index.items()
                     for ci, c in rows[ri].items()}
            assert cells == _matrix_by_apply(d, monomials, power)
            # each image is D of one monomial, in normal form
            for m, x in zip(monomials, memo.layout.pack(monomials)):
                assert Polynomial(XYZ, {unpack(t): c for t, c in memo[x]}) == \
                    oracle_apply(d, Polynomial(XYZ, {m: 1}))


class TestExponentOverflow:
    """D(x) = y^L, L = EXPONENT_LIMIT: D(xy) = y^(L + 1) is past the limit,
    so every matrix that reaches it raises, with monomial_mul's message."""

    MESSAGE = "exponent 2147483649 exceeds limit 2147483648"

    @staticmethod
    def _derivation(vs, **images):
        ring = PresentedRing.polynomial_ring(vs)
        power = (0, EXPONENT_LIMIT) + (0,) * (len(vs) - 2)
        images = {v: Polynomial.variable(w, vs) for v, w in images.items()}
        return Derivation(ring, {"x": Polynomial(vs, {power: 1}), **images})

    @pytest.mark.parametrize("search", [kernel_basis, slice_search])
    def test_degree_two_raises(self, search):
        d = self._derivation(("x", "y"))
        with pytest.raises(ExponentOverflowError) as info:
            search(d, 2)
        assert str(info.value) == self.MESSAGE

    def test_square_matrix_raises(self):
        # D(yz) = xy is within the limit; D^2(yz) = D(xy) is not
        d = self._derivation(("x", "y", "z"), z="x")
        yz = [(0, 1, 1)]
        rows, _, _ = _matrix(d, yz)
        assert len(rows) == 1
        with pytest.raises(ExponentOverflowError) as info:
            _matrix(d, yz, power=2)
        assert str(info.value) == self.MESSAGE


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

    def test_each_monomial_image_computed_once(self, monkeypatch):
        # the basic Weitzenboeck derivation x_i -> x_(i-1) has no slice, so
        # the D^2 matrix is built too; it reuses the D^1 matrix's images
        vs = ("x1", "x2", "x3", "x4", "x5")
        ring = PresentedRing.polynomial_ring(vs)
        d = Derivation(ring, {b: Polynomial.variable(a, vs) for a, b in zip(vs, vs[1:])})
        calls = []
        missing = kernel_lab._Images.__missing__
        monkeypatch.setattr(kernel_lab._Images, "__missing__",
                            lambda self, x: calls.append(x) or missing(self, x))
        assert slice_search(d, 5).is_local()
        assert len(calls) == len(standard_monomials(ring, 5)) == 252

    @staticmethod
    def _per_candidate(d, degree):
        """The local slice of the Ker(D^2) candidates, each made monic the
        long way and ranked on its cofactor `apply` computes."""
        monomials = _monomials(d.ring, degree)
        rows, _, _ = _matrix(d, monomials, power=2)
        return local_slice(d, [
            Polynomial(d.ring.vars, {monomials[j]: c for j, c in vec.items()})
            .monic(d.ring.order) for vec in nullspace(rows, len(monomials))])

    def _check_against_per_candidate(self, d, degree):
        """True when slice_search found a local slice or none, and then
        the one the per-candidate route finds."""
        data = slice_search(d, degree)
        if data is not None and not data.is_local():
            return False
        want = self._per_candidate(d, degree)
        if data is None:
            assert want is None
        else:
            assert (data.slice, data.cofactor) == want
            assert all(map(canonical, want))
        return True

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    def test_local_slice_matches_the_per_candidate_route(self, n, order):
        # triangular: x1 -> 0 and x_i -> a polynomial in x_1 .. x_(i-1)
        # with half-integer coefficients, constant only now and then, so
        # that most have no true slice
        rng = random.Random(40 + n)
        vs = ("a", "b", "c", "d")[:n]
        ring = PresentedRing(vs, None, order)
        local = 0
        for _ in range(12):
            images = {}
            for i in range(1, n):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    mono = [0] * n
                    for _ in range(rng.randint(0 if rng.random() < 0.1 else 1, 2)):
                        mono[rng.randrange(i)] += 1
                    terms[tuple(mono)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                images[vs[i]] = Polynomial(vs, terms)
            local += self._check_against_per_candidate(Derivation(ring, images),
                                                       5 - n // 2)
        assert local >= 8

    def test_tied_candidates_keep_the_first(self):
        # Y and Z both give the cofactor X: the earlier free column wins
        d = derivation(P3, Y="X", Z="X")
        assert self._check_against_per_candidate(d, 2)
        assert slice_search(d, 2).slice == pp("Z")

    @pytest.mark.parametrize("images", [
        {"u": "v", "v": "1/2 w"},
        {"v": "1/2 u", "w": "v"},
        {"v": "2/3 u^2", "w": "4/3 u*v"},
        {"v": "u + 1/3 u^2", "w": "2 v + 2/3 u*v"},
    ])
    def test_cone_local_slice_matches_the_per_candidate_route(self, images):
        # the quadric cone, whose monomial images have Fraction normal forms
        uvw = ("u", "v", "w")
        ring = PresentedRing.quotient(uvw, [pp("u*w - v^2", uvw)])
        d = derivation(ring, **images)
        assert all(self._check_against_per_candidate(d, degree)
                   for degree in (2, 3, 4))


class TestDixmier:
    def test_taylor_collapse(self):
        d = derivation(P2, Y="1")
        s = pp("Y", XY)
        f = pp("X*Y + X + Y^2", XY)
        assert dixmier(d, s, f).numerator == pp("X", XY)

    def test_kernel_element_fixed(self):
        d = derivation(P2, Y="1")
        s = pp("Y", XY)
        f = pp("X^3 - 2*X", XY)
        assert dixmier(d, s, f).numerator == f

    def test_two_step_projection(self):
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, x="1", y="x")
        s = parse_polynomial("x", ring.vars)
        out = dixmier(d, s, parse_polynomial("y", ring.vars))
        assert out.numerator == parse_polynomial("y - 1/2 x^2", ring.vars)
        assert apply(d, out.numerator).is_zero()

    def test_projection_properties_random(self):
        rng = random.Random(71)
        d = derivation(P2, Y="1")
        s = pp("Y", XY)
        for _ in range(100):
            f = _random_poly(rng, XY, 5)
            pf = dixmier(d, s, f).numerator
            assert apply(d, pf).is_zero()
            assert dixmier(d, s, pf).numerator == pf

    def test_ring_homomorphism_random(self):
        rng = random.Random(72)
        d = derivation(P2, Y="1")
        s = pp("Y", XY)
        for _ in range(40):
            f = _random_poly(rng, XY, 4)
            g = _random_poly(rng, XY, 4)
            pf = dixmier(d, s, f).numerator
            pg = dixmier(d, s, g).numerator
            assert dixmier(d, s, f * g).numerator == pf * pg
            assert dixmier(d, s, f + g).numerator == pf + pg

    @pytest.mark.parametrize("order, projection", [(2, "0"), (1, None)])
    def test_orbit_bound_is_tight(self, monkeypatch, order, projection):
        # the orbit of y under y -> 1 is y, 1: exactly the bound
        # 1 + deg_y(y) * (order - 1) at the true order 2, and one element
        # past it when a certificate claims order 1; dixmier certifies D
        # itself, so the certificate reaches it through certify_nilpotent
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, y="1")
        y = parse_polynomial("y", ring.vars)
        certificate = NilpotencyCertificate(True, 2, orders={"y": order})
        monkeypatch.setattr(kernel_lab, "certify_nilpotent", lambda d: certificate)
        if projection is None:
            with pytest.raises(DegenerateInputError, match="within 1 iterations"):
                dixmier(d, y, y)
        else:
            assert dixmier(d, y, y).numerator == parse_polynomial(projection, ring.vars)

    def test_orbit_is_charged_to_the_term_budget(self):
        # each application its bookkeeping, and one derivative term and one
        # product term on a nonconstant element under y -> 1: the slice
        # test D(y) = 1; the certificate, D(x) = 0, then D(y) = 1 and
        # D(1) = 0; the orbit y^5, 5*y^4, ..., 120; then _project's Horner
        # steps, six of them, each total * (-y), of one term but the first
        # total, which is zero; a true slice forms no product by its
        # cofactor 1
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, y="1")
        y = parse_polynomial("y", ring.vars)
        f = y ** 5
        with budget() as scope:
            dixmier(d, y, f)
        slice_test = APPLICATION_TERMS + 2
        certificate = 3 * APPLICATION_TERMS + 2
        orbit = 5 * (APPLICATION_TERMS + 2) + APPLICATION_TERMS
        horner = product_cost([], [-1]) + 5 * product_cost([1], [-1])
        assert scope.terms_used == slice_test + certificate + orbit + horner == 59

    def test_projection_stops_at_the_term_budget(self, monkeypatch):
        # the orbit of y^20 under y -> 1 is 21 one-term elements, but the
        # Horner sum multiplies sums of thousands of terms by the 67-term
        # slice; formed uncharged, those products ran for 45 s and more
        ring = PresentedRing.polynomial_ring(("x", "y", "z"))
        d = derivation(ring, y="1")
        s, f = (parse_polynomial(t, ring.vars) for t in ("y + (x + z + 1)^10", "y^20"))
        monkeypatch.setattr(config, "TERM_BUDGET", 10**4)
        with pytest.raises(BudgetExceededError, match="by a polynomial product"):
            dixmier(d, s, f)

    def test_long_orbit_stops_at_the_term_budget(self):
        # the orbit of x^(2^31 - 1)*y under x -> 1 has 2^31 elements
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, x="1")
        x, f = (parse_polynomial(t, ring.vars) for t in ("x", "x^2147483647*y"))
        with budget(), pytest.raises(BudgetExceededError) as info:
            dixmier(d, x, f)
        assert str(info.value) == \
            "term budget 1000000 exceeded by applying the derivation along x"
        # outside any scope one default budget bounds the whole orbit, not
        # each application
        with pytest.raises(BudgetExceededError, match="term budget 1000000 exceeded"):
            dixmier(d, x, f)

    def test_local_slice_denominator(self):
        d = derivation(P3, Z="X^2")
        out = dixmier(d, pp("Z"), pp("Z"))
        # pi(Z) = (Z c - s c) / c = 0 in the localization: numerator must
        # be annihilated and carry the declared denominator power
        assert out.denominator_power == 1
        assert apply(d, out.numerator).is_zero()

    def test_local_slice_is_found_from_its_image(self):
        # D = 2 d/dx: D(x) = 2 and D(2) = 0, so x is a local slice with
        # cofactor 2; the orbit of x^2 + y is x^2 + y, 4x, 8, and
        # 4(x^2 + y) - 2*4x*x + 8x^2/2 = 4y
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, x="2")
        x, f = (parse_polynomial(t, ring.vars) for t in ("x", "x^2 + y"))
        out = dixmier(d, x, f)
        assert out.numerator == parse_polynomial("4*y", ring.vars)
        assert out.denominator_power == 2
        assert out.cofactor == parse_polynomial("2", ring.vars)

    @pytest.mark.parametrize("s", ["y", "x^2"])
    def test_neither_slice_nor_local_slice_is_refused(self, s):
        # D(y) = 0; D(x^2) = 4x, which D does not kill
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, x="2")
        with pytest.raises(DegenerateInputError,
                           match="^supplied element is neither a slice nor a local slice$"):
            dixmier(d, parse_polynomial(s, ring.vars), parse_polynomial("x", ring.vars))


def _random_poly(rng, vars, max_degree=4, n_terms=3, den=1):
    """Random coefficients in -6..6, divided by 1..den when den > 1 (den 1
    draws exactly what it drew before den existed)."""
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(vars))] += 1
        c = rng.randint(-6, 6)
        terms[tuple(mono)] = Fraction(c, rng.randint(1, den)) if den > 1 else Fraction(c)
    return Polynomial(vars, terms)


class TestReconstruct:
    def test_square_of_slice(self):
        d = derivation(P2, Y="1")
        s = pp("Y", XY)
        coeffs = reconstruct(d, s, pp("Y^2", XY))
        assert coeffs == [Polynomial.zero(XY), Polynomial.zero(XY),
                          Polynomial.one(XY)]

    def test_kernel_element(self):
        d = derivation(P2, Y="1")
        s = pp("Y", XY)
        f = pp("X^2 - 7", XY)
        assert reconstruct(d, s, f) == [f]

    def test_collect(self):
        d = derivation(P2, Y="1")
        s = pp("Y", XY)
        coeffs = reconstruct(d, s, pp("Y*X + Y", XY))
        assert coeffs == [Polynomial.zero(XY), pp("X + 1", XY)]

    def test_identity_on_randoms(self, corpus_b):
        rng = random.Random(73)
        d = restrict_to_subalgebra(derivation(P3, Z="1"), corpus_b)
        s = slice_search(d, 2).slice
        ring = d.ring
        for _ in range(50):
            f = ring.normal(_random_poly(rng, ring.vars, 4))
            coeffs = reconstruct(d, s, f)
            total = Polynomial.zero(ring.vars)
            for i, a in enumerate(coeffs):
                assert apply(d, a).is_zero()
                total = total + a * s ** i
            assert ring.normal(total) == f

    def test_one_application_per_orbit_element(self, monkeypatch):
        # y^3 + x*y, 3*y^2 + x, 6*y, 6: every coefficient projects a suffix
        # of that one orbit, so D runs 4 times on it (once per element),
        # after the slice test's one application to y
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, y="1")
        calls = []
        monkeypatch.setattr(kernel_lab, "apply",
                            lambda d, f: calls.append(f) or apply(d, f))
        coeffs = reconstruct(d, parse_polynomial("y", ring.vars),
                             parse_polynomial("y^3 + x*y", ring.vars))
        assert [str(a) for a in coeffs] == ["0", "x", "0", "1"]
        assert [str(f) for f in calls] == ["y", "y^3 + x*y", "3*y^2 + x", "6*y", "6"]

    def test_local_slice_refused(self):
        d = derivation(P3, Z="X^2")
        with pytest.raises(DegenerateInputError, match="needs a true slice"):
            reconstruct(d, pp("Z"), pp("Z"))

    def test_local_slice_found_from_its_image_is_refused(self):
        # D = 2 d/dx: x is a local slice with cofactor D(x) = 2, not a slice
        ring = PresentedRing.polynomial_ring(("x", "y"))
        d = derivation(ring, x="2")
        x, f = (parse_polynomial(t, ring.vars) for t in ("x", "x^2"))
        with pytest.raises(DegenerateInputError, match="needs a true slice"):
            reconstruct(d, x, f)


@pytest.fixture(scope="module")
def cusp():
    ring = PresentedRing.polynomial_ring(("X",))
    gens = [parse_polynomial("X^2", ("X",)), parse_polynomial("X^3", ("X",))]
    return present_subalgebra(ring, gens)


@st.composite
def _small_polynomial(draw):
    """One to three terms in X, Y of degree 1 or 2, coefficients -2..2."""
    monos = draw(st.lists(st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
                          min_size=1, max_size=3, unique=True))
    return Polynomial(XY, {m: draw(st.sampled_from([-2, -1, 1, 2])) for m in monos})


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

    def test_span_normalises_each_product_once(self, corpus_a, monkeypatch):
        ring = corpus_a.ambient
        seen = []  # X^6 is two products, (X^2)^3 and (X^3)^2
        normal = ring.normal

        def counting(f):
            seen.append(f)
            return normal(f)

        monkeypatch.setattr(ring, "normal", counting)
        kernel_lab._Span(ring, 6, corpus_a.generators)
        # exponent vectors e with sum e_i * deg g_i <= 6, degrees (2, 3, 3, 3)
        products = sum(1 for e in product(range(4), range(3), range(3), range(3))
                       if 2 * e[0] + 3 * (e[1] + e[2] + e[3]) <= 6)
        assert len(seen) == products == 16

    def test_span_budget_counts_its_products(self, corpus_a):
        # the 16 products of test_span_normalises_each_product_once, each
        # counted once against the dimension budget
        ring = corpus_a.ambient
        with budget(dims=16):
            kernel_lab._Span(ring, 6, corpus_a.generators)
        with pytest.raises(DimensionBudgetError, match="budget 15"), budget(dims=15):
            kernel_lab._Span(ring, 6, corpus_a.generators)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_span_and_verdict_match_the_one_walk_reference(self, data):
        # the span grows by one generator at a time, last to first; its
        # products, and so every witness, come in the one walk's order
        ring = data.draw(st.sampled_from([P2, P2_MOD_X2_Y]))

        def generators():
            gens = data.draw(st.lists(_small_polynomial(), min_size=1, max_size=3))
            gens = [ring.normal(g) for g in gens]
            assume(all(g.degree() > 0 for g in gens))
            return gens

        sub = present_subalgebra(ring, generators())
        claimed = generators()
        degree = data.draw(st.integers(1, 5))
        span = kernel_lab._Span(ring, degree, claimed)
        assert span.polys == span_products(claimed, degree, ring)[1]
        out = verify_generators_up_to_degree(sub, claimed, degree)
        assert (out.verdict, out.witness) == generator_comparison(sub, claimed, degree)

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
        basis = [corpus_b.to_ambient(p) for p in report.basis]
        inside, holds = compare_kernel_to_subalgebra(basis, d, corpus_a)
        assert inside
        assert holds

    def test_each_expected_generator_image_is_charged(self, corpus_a, corpus_b):
        d = restrict_to_subalgebra(derivation(P3, Z="1"), corpus_b)
        with budget() as scope:
            assert compare_kernel_to_subalgebra([], d, corpus_a)[1]
        images = [corpus_b.express(g) for g in corpus_a.generators]
        assert scope.terms_used == sum(apply_charge(d, g) + APPLICATION_TERMS
                                       for g in images) > 0
