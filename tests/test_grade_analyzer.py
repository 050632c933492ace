import inspect
import json
import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, given, settings, strategies as st

from lndkit import grade_analyzer, groebner_engine, presentation
from lndkit.cli_runner import (CORPUS_SESSIONS, corpus_path, golden_path, load_environment,
                               parse_session)
from lndkit.config import RunConfig
from lndkit.derivation_engine import Derivation, extend_with_variable, restrict_to_subalgebra
from lndkit.errors import DegenerateInputError
from lndkit.grade_analyzer import (
    GradeValue,
    fpf_test,
    generic_combination_grade,
    grade_of_derivation,
    grade_two_generated,
    image_ideal,
)
from lndkit.groebner_engine import Ideal, ideal_member, ideal_quotient
from lndkit.poly_core import GREVLEX, Polynomial, parse_polynomial
from lndkit.presentation import PresentedRing, nzd_test, present_subalgebra
from oracles import CAPPED_GRADE, capped_height, graded_ideal

XYZ = ("X", "Y", "Z")
P3 = PresentedRing.polynomial_ring(XYZ)


def pp(text, vars=XYZ):
    return parse_polynomial(text, vars)


def derivation(ring, **images):
    return Derivation(ring, {k: parse_polynomial(v, ring.vars)
                             for k, v in images.items()})


def counted_nzd_tests(monkeypatch):
    """The argument tuples of every nzd_test the grade search runs."""
    calls = []
    monkeypatch.setattr(grade_analyzer, "nzd_test", lambda *args, **kwargs:
                        calls.append(args) or nzd_test(*args, **kwargs))
    return calls


def counted_quotients(monkeypatch):
    """(generators, element) of every colon ideal the grade search builds."""
    calls = []

    def counting_quotient(ideal, g):
        calls.append((tuple(str(p) for p in ideal.generators), str(g)))
        return ideal_quotient(ideal, g)

    for module in (grade_analyzer, presentation):
        monkeypatch.setattr(module, "ideal_quotient", counting_quotient)
    return calls


def counted_groebner_runs(monkeypatch):
    """The input generators of every Buchberger run."""
    runs = []
    build = groebner_engine.buchberger
    monkeypatch.setattr(groebner_engine, "buchberger",
                        lambda gens, order=GREVLEX: runs.append(
                            [str(g) for g in gens]) or build(gens, order))
    return runs


@pytest.fixture(scope="module")
def corpus_c():
    gens = [pp(t) for t in ("X^2", "X^3", "Y + X*Y^2", "X^2*Y", "X^3*Z")]
    return present_subalgebra(P3, gens)


@pytest.fixture(scope="module")
def corpus_b():
    gens = [pp(t) for t in ("X^2", "X^3", "Y + X*Y^2", "X^2*Y", "Z")]
    return present_subalgebra(P3, gens)


class TestFpf:
    def test_slide_on_b_is_fpf(self, corpus_b):
        d = restrict_to_subalgebra(derivation(P3, Z="1"), corpus_b)
        assert fpf_test(d)

    def test_reduced_slide_is_not(self, corpus_c):
        d = restrict_to_subalgebra(derivation(P3, Z="X^2"), corpus_c)
        assert not fpf_test(d)

    def test_zero_derivation(self):
        assert not fpf_test(Derivation(P3, {}))


class TestGradeTwoGenerated:
    def test_corpus_c_regular_pair(self, corpus_c):
        # the grade-2 instance: (X^4, X^2 + 2 X^3 Z) inside C
        ring = corpus_c.presented_ring()
        a = corpus_c.express(pp("X^4"))
        b = corpus_c.express(pp("X^2 + 2*X^3*Z"))
        report = grade_two_generated(a, b, ring)
        assert report.value is GradeValue.TWO
        _verify_witness(report, ring)

    def test_corpus_c_collapsed_pair(self, corpus_c):
        # the grade-1 instance: (X^6, X^4 + 2 X^5 Z) inside C
        ring = corpus_c.presented_ring()
        a = corpus_c.express(pp("X^6"))
        b = corpus_c.express(pp("X^4 + 2*X^5*Z"))
        report = grade_two_generated(a, b, ring)
        assert report.value is GradeValue.ONE

    def test_corpus_c_collapsed_pair_misses_its_root(self, corpus_c):
        # (X^6, X^4 + 2 X^5 Z) does not recover X^4 inside C
        from oracles import ideal_equal
        ring = corpus_c.presented_ring()
        pair = ring.lifted_ideal([corpus_c.express(pp("X^6")),
                                  corpus_c.express(pp("X^4 + 2*X^5*Z"))])
        x4 = corpus_c.express(pp("X^4"))
        assert not ideal_member(ring.normal(x4), pair)
        assert not ideal_equal(pair, ring.lifted_ideal([x4]))

    def test_unit_pair(self):
        ring = PresentedRing.polynomial_ring(("x",))
        report = grade_two_generated(parse_polynomial("x", ring.vars),
                                     parse_polynomial("1 - x", ring.vars), ring)
        assert report.value is GradeValue.INFINITE
        assert report.witness == []

    def test_grade_one_pair_runs_one_test(self, monkeypatch):
        # x*z is a zerodivisor mod x*y, so (x*y) is a maximal regular
        # sequence in the ideal; by Rees's theorem all of them have one
        # length, and the order (x*z, x*y) is not tested
        calls = counted_nzd_tests(monkeypatch)
        ring = PresentedRing.polynomial_ring(("x", "y", "z"))
        report = grade_two_generated(*(parse_polynomial(t, ring.vars)
                                       for t in ("x*y", "x*z")), ring)
        assert report.value is GradeValue.ONE
        assert [str(w) for w in report.witness] == ["x*y"]
        assert (report.method, report.notes) == ("two-generator", [])
        assert len(calls) == 1

    def test_zero_pair_rejected(self):
        with pytest.raises(DegenerateInputError):
            grade_two_generated(Polynomial.zero(XYZ), Polynomial.zero(XYZ), P3)

    def test_two_generator_chain_equivalence_random(self):
        # two-generated grade is 2 exactly when the pair is regular in some
        # order, and inf exactly when the pair generates the unit ideal
        rng = random.Random(20240812)
        hits = {GradeValue.ONE: 0, GradeValue.TWO: 0, GradeValue.INFINITE: 0}
        for _ in range(100):
            a = _random_poly(rng, XYZ, 3)
            b = _random_poly(rng, XYZ, 3)
            if a.is_zero() and b.is_zero():
                continue
            report = grade_two_generated(a, b, P3)
            expected = _direct_two_gen_grade(a, b, P3)
            assert report.value is expected
            hits[report.value] += 1
        assert hits[GradeValue.TWO] > 0 and hits[GradeValue.INFINITE] > 0


def _direct_two_gen_grade(a, b, ring):
    """Definitional oracle: unit check, then the nzd chain in both orders.

    An element lying in the modulus ideal acts as zero on the quotient, so
    it counts as a zerodivisor there.
    """
    lifted = ring.lifted_ideal([a, b])
    if ideal_member(ring.one(), lifted):
        return GradeValue.INFINITE
    nonzero = [p for p in (ring.normal(a), ring.normal(b)) if not p.is_zero()]
    if len(nonzero) < 2:
        return GradeValue.ONE

    def chain(first, second):
        if ideal_member(second, Ideal([first], ring.vars)):
            return False
        return nzd_test(second, Ideal([first], ring.vars), ring).regular

    a, b = nonzero
    if chain(a, b) or chain(b, a):
        return GradeValue.TWO
    return GradeValue.ONE


def _verify_witness(report, ring):
    """Every reported regular sequence must pass the nzd chain in order,
    starting with a nonzerodivisor of the ring itself."""
    if report.value in (GradeValue.INFINITE, GradeValue.ZERO):
        assert report.witness == []
        return
    assert len(report.witness) >= 1
    first = report.witness[0]
    assert not ring.normal(first).is_zero()
    assert nzd_test(first, [], ring).regular
    if len(report.witness) == 2:
        assert nzd_test(report.witness[1], Ideal([first], ring.vars), ring).regular
    lifted = ring.lifted_ideal(report.witness)
    assert not ideal_member(ring.one(), lifted)


def _random_poly(rng, vars, max_degree=3, n_terms=3):
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(vars))] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-9, 9))
    return Polynomial(vars, terms)


class TestGradeOfDerivation:
    def test_fpf_slide_infinite(self, corpus_b):
        d = restrict_to_subalgebra(derivation(P3, Z="1"), corpus_b)
        assert grade_of_derivation(d).value is GradeValue.INFINITE

    def test_regular_images(self):
        ring = PresentedRing.polynomial_ring(("u", "v", "X", "Y"))
        d = derivation(ring, X="u", Y="v")
        report = grade_of_derivation(d)
        assert report.value is GradeValue.TWO
        assert sorted(str(w) for w in report.witness) == ["u", "v"]
        _verify_witness(report, ring)

    def test_collapsing_images(self):
        ring = PresentedRing.polynomial_ring(("u", "v", "Y", "Z"))
        d = derivation(ring, Y="u", Z="u*v")
        report = grade_of_derivation(d)
        assert report.value is GradeValue.ONE

    def test_zero_derivation_rejected(self):
        with pytest.raises(DegenerateInputError):
            grade_of_derivation(Derivation(P3, {}))

    @pytest.mark.parametrize("host, image, value", [
        ("corpus_b", "1", GradeValue.INFINITE),
        ("corpus_c", "X^2", GradeValue.ONE),
    ], ids=["fpf", "not-fpf"])
    def test_image_ideal_basis_built_once(self, request, monkeypatch,
                                          host, image, value):
        # the search's unit-ideal test is the fixed-point-free test, so the
        # basis of the images plus the relations is built once
        d = restrict_to_subalgebra(derivation(P3, Z=image),
                                   request.getfixturevalue(host))
        runs = counted_groebner_runs(monkeypatch)
        report = grade_of_derivation(d)
        lifted = d.ring.lifted_ideal(image_ideal(d).generators)
        assert report.value is value
        assert runs.count([str(g) for g in lifted.generators]) == 1

    def test_value_law_on_random_triangular(self):
        # triangular derivations over Q[u,v][X,Y] stay inside {1, 2, inf}
        rng = random.Random(77)
        vars = ("u", "v", "X", "Y")
        ring = PresentedRing.polynomial_ring(vars)
        allowed = {GradeValue.ONE, GradeValue.TWO, GradeValue.INFINITE}
        for _ in range(25):
            dx = _random_poly(rng, vars, 2)
            dy = _random_poly(rng, vars, 2)
            if dx.is_zero() and dy.is_zero():
                continue
            if dx.degree_in("X") > 0 or dx.degree_in("Y") > 0 or dy.degree_in("Y") > 0:
                continue  # keep it triangular
            d = Derivation(ring, {"X": dx, "Y": dy})
            assert grade_of_derivation(d).value in allowed

    def test_flat_extension_preserves_grade(self):
        rng = random.Random(55)
        vars = ("u", "v", "X", "Y")
        ring = PresentedRing.polynomial_ring(vars)
        checked = 0
        seeds = [("u", "v"), ("u", "u*v"), ("u^2", "v^2"), ("u*v", "u + v"),
                 ("1", "X"), ("u", "u"), ("v^2", "u*v"), ("u + v", "u - v"),
                 ("u^2 - v", "v"), ("u", "v*X"), ("X", "u*X"), ("u*v", "u*v + u"),
                 ("v", "u + 1"), ("u^3", "u*v^2"), ("2*u", "3*v"), ("u - v", "u + v"),
                 ("u*v^2", "u^2*v"), ("v", "v"), ("u + v^2", "u"), ("X*u", "X*v")]
        for dx_text, dy_text in seeds:
            d = derivation(ring, X=dx_text, Y=dy_text)
            base = grade_of_derivation(d)
            ext = extend_with_variable(d, "W")
            extended = grade_of_derivation(ext)
            assert base.value is extended.value
            checked += 1
        assert checked == 20


class TestGenericCombination:
    def test_redundant_generator(self):
        ring = PresentedRing.polynomial_ring(("u", "v"))
        ideal = Ideal([parse_polynomial(t, ring.vars) for t in ("u", "v", "u + v")])
        report = generic_combination_grade(ideal, ring)
        assert report.value is GradeValue.TWO
        _verify_witness(report, ring)

    def test_principal_multiple(self):
        ring = PresentedRing.polynomial_ring(("u", "v", "w"))
        ideal = Ideal([parse_polynomial(t, ring.vars) for t in ("u^2", "u*v", "u*w")])
        report = generic_combination_grade(ideal, ring)
        assert report.value is GradeValue.ONE
        assert any("certificate" in n for n in report.notes)

    def test_grade_capped_at_two(self):
        ring = PresentedRing.polynomial_ring(("x", "y", "z"))
        ideal = Ideal([parse_polynomial(t, ring.vars) for t in ("x", "y", "z")])
        report = generic_combination_grade(ideal, ring)
        assert report.value is GradeValue.TWO

    def test_each_colon_computed_once(self, monkeypatch):
        # nzd_test builds ((a) : b) for each partner b; the grade-1
        # certificate intersects those colons instead of computing them again
        calls = counted_quotients(monkeypatch)
        ring = PresentedRing.polynomial_ring(("x", "y", "z"))
        ideal = Ideal([parse_polynomial(t, ring.vars)
                       for t in ("x*y", "x*z", "x*y + x*z")])
        report = generic_combination_grade(ideal, ring)
        assert report.value is GradeValue.ONE
        assert [str(w) for w in report.witness] == ["x*y"]
        assert report.notes == ["zerodivisor certificate: y"]
        assert len(calls) == len(set(calls)) == 2

    @pytest.mark.parametrize("texts, witness", [
        (("x*y", "x", "y"), ["x*y", "x*y + x + y"]),
        (("y*z", "y", "z"), ["y*z", "y*z + y + z"]),
    ], ids=["xy-x-y", "yz-y-z"])
    def test_moment_curve_finds_the_partner(self, texts, witness):
        # no generator is regular mod the first, but ((a) : I) = (a)
        # proves grade 2: the partner is g_1 + t*g_2 + t^2*g_3 at t = 1
        ring = PresentedRing.polynomial_ring(("x", "y", "z"))
        ideal = Ideal([parse_polynomial(t, ring.vars) for t in texts])
        report = grade_analyzer.grade_of_ideal(ideal, ring)
        assert report.value is GradeValue.TWO
        assert [str(w) for w in report.witness] == witness
        _verify_witness(report, ring)

    def test_moment_curve_finds_the_first_element(self, xy_zero):
        # neither x nor y is regular on Q[x, y, z] / (x*y), but
        # (relations : (x, y)) = relations proves some element is
        report = grade_two_generated(*(parse_polynomial(t, xy_zero.vars)
                                       for t in ("x", "y")), xy_zero)
        assert report.value is GradeValue.ONE
        assert [str(w) for w in report.witness] == ["x + y"]
        assert report.notes == ["zerodivisor certificate: x"]
        _verify_witness(report, xy_zero)

    def test_grade_functions_take_no_search_options(self):
        # every value is decided by a certificate: nothing to tune or seed
        for function in (grade_of_derivation, grade_analyzer.grade_of_ideal,
                         grade_two_generated, generic_combination_grade):
            parameters = inspect.signature(function).parameters
            assert not {"trials", "seed"} & set(parameters), function.__name__
        report = grade_analyzer.GradeReport(GradeValue.ONE)
        assert not any(hasattr(report, key)
                       for key in ("seed", "exhaustive", "probabilistic"))

    @pytest.mark.parametrize("trials", [0, -1])
    def test_fewer_than_one_trial_is_rejected(self, trials):
        # (y*z, y, z) in Q[x, y, z] once reached a search that divided by
        # trials; no trial count is accepted now, and the certificate
        # decides the grade without one
        ring = PresentedRing.polynomial_ring(("x", "y", "z"))
        ideal = Ideal([parse_polynomial(t, ring.vars) for t in ("y*z", "y", "z")])
        with pytest.raises(TypeError, match="trials"):
            grade_analyzer.grade_of_ideal(ideal, ring, trials=trials)
        with pytest.raises(TypeError, match="trials"):
            grade_two_generated(*ideal.generators[1:], ring, trials=trials)
        assert grade_analyzer.grade_of_ideal(ideal, ring).value is GradeValue.TWO
        assert grade_two_generated(*ideal.generators[1:], ring).value is GradeValue.TWO

    def test_same_answer_on_every_call(self):
        ring = PresentedRing.polynomial_ring(("u", "v", "w"))
        ideal = Ideal([parse_polynomial(t, ring.vars)
                       for t in ("u*v", "u^2", "v^2")])
        r1 = generic_combination_grade(ideal, ring)
        r2 = generic_combination_grade(ideal, ring)
        assert r1.value is r2.value and r1.witness == r2.witness
        assert r1.notes == r2.notes


@pytest.fixture(scope="module")
def xy_zero():
    """Q[x, y, z] / (x*y): not a domain, x and y are zerodivisors."""
    vars = ("x", "y", "z")
    return PresentedRing.quotient(vars, [parse_polynomial("x*y", vars)])


@st.composite
def _planted_pairs(draw):
    """(g, -g, h_1, ...) over x, y, z with g = x*p and each h_i = y*q_i.
    On Q[x, y, z] / (x*y) every generator is a zerodivisor, and so is the
    moment curve's point at t = 1, h_1 + h_2 + ..., a multiple of y: a
    regular first witness element can only come from t >= 2."""
    factors = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                              st.integers(-3, 3).filter(bool), min_size=1, max_size=3)

    def times(i, terms):
        return Polynomial(("x", "y", "z"), {
            tuple(e + (j == i) for j, e in enumerate(m)): Fraction(c)
            for m, c in terms.items()})

    g = times(0, draw(factors))
    return [g, -g] + [times(1, q) for q in draw(st.lists(factors, min_size=1, max_size=2))]


class TestNotADomain:
    def q(self, ring, *texts):
        return [parse_polynomial(t, ring.vars) for t in texts]

    def test_zerodivisor_never_starts_a_witness(self, xy_zero):
        for a, b in (("x", "z"), ("z", "x")):
            report = grade_two_generated(*self.q(xy_zero, a, b), xy_zero)
            assert report.value is GradeValue.ONE
            assert [str(w) for w in report.witness] == ["z"]
            _verify_witness(report, xy_zero)

    def test_ideal_of_zerodivisors_has_grade_zero(self, xy_zero):
        for texts in (("x", "x^2"), ("x",), ("x*z", "x^2", "x + x*z")):
            ideal = Ideal(self.q(xy_zero, *texts), xy_zero.vars)
            report = grade_analyzer.grade_of_ideal(ideal, xy_zero)
            assert report.value is GradeValue.ZERO
            assert report.witness == []
            assert report.notes == ["annihilator certificate: y"]

    def test_one_zerodivisor_tries_no_multiples(self, xy_zero, monkeypatch):
        # one test, in the one grade search; the generator's multiples are
        # not tried
        calls = counted_nzd_tests(monkeypatch)
        report = grade_analyzer.grade_of_ideal(
            Ideal(self.q(xy_zero, "x"), xy_zero.vars), xy_zero)
        assert report.value is GradeValue.ZERO
        assert len(calls) == 1

    def test_each_colon_of_the_relations_computed_once(self, xy_zero, monkeypatch):
        # the tests of x, y and x + y on the ring share one basis of the
        # relations, and the annihilator certificate intersects the colons
        # (relations : x) and (relations : y) those tests built
        calls, runs = counted_quotients(monkeypatch), counted_groebner_runs(monkeypatch)
        report = grade_two_generated(*self.q(xy_zero, "x", "y"), xy_zero)
        assert [str(w) for w in report.witness] == ["x + y"]
        assert len(calls) == len(set(calls)) == 5
        assert runs.count(["x*y"]) == 1

    def test_regular_combination_starts_the_witness(self, xy_zero):
        # x + y is regular although neither generator is, and (x, y) has
        # grade 1: modulo a regular combination the ideal is nilpotent
        report = grade_two_generated(*self.q(xy_zero, "x", "y"), xy_zero)
        assert report.value is GradeValue.ONE
        assert report.method == "generic-combination"
        _verify_witness(report, xy_zero)
        report = generic_combination_grade(
            Ideal(self.q(xy_zero, "x", "y", "z"), xy_zero.vars), xy_zero)
        assert report.value is GradeValue.TWO
        _verify_witness(report, xy_zero)

    @pytest.mark.parametrize("texts, witness", [
        (("x", "-x", "y"), "-x + 4*y"),
        (("x*z", "-x*z", "y"), "-x*z + 4*y"),
    ], ids=["x", "xz"])
    def test_moment_curve_beyond_its_first_point(self, xy_zero, texts, witness):
        # the first generator is a zerodivisor, and at t = 1 the curve is
        # y, another one: only t = 2 gives a regular element.  The ideal
        # has height 1 in a Cohen-Macaulay ring, so its grade is 1
        ideal = Ideal(self.q(xy_zero, *texts), xy_zero.vars)
        report = grade_analyzer.grade_of_ideal(ideal, xy_zero)
        assert report.value is GradeValue.ONE
        assert [str(w) for w in report.witness] == [witness]
        assert report.notes == ["zerodivisor certificate: x"]
        _verify_witness(report, xy_zero)

    @given(_planted_pairs())
    @settings(max_examples=30, deadline=None)
    def test_moment_curve_witness_past_a_cancelling_pair(self, xy_zero, gens):
        assume(any(not xy_zero.normal(g).is_zero() for g in gens))
        report = grade_analyzer.grade_of_ideal(Ideal(gens, xy_zero.vars), xy_zero)
        _verify_witness(report, xy_zero)

    def test_each_modulus_lifted_once(self, monkeypatch):
        # (y*z, y, z) over Q[x, y, z] / (x^2): the tests mod a = y*z, the
        # colons' certificate and the moment-curve partner share one lifted
        # (y*z) + relations, so its Groebner basis is built once
        ring = PresentedRing.quotient(("x", "y", "z"),
                                      [parse_polynomial("x^2", ("x", "y", "z"))])
        runs = counted_groebner_runs(monkeypatch)
        ideal = Ideal(self.q(ring, "y*z", "y", "z"), ring.vars)
        report = grade_analyzer.grade_of_ideal(ideal, ring)
        assert report.value is GradeValue.TWO
        assert [str(w) for w in report.witness] == ["y*z", "y*z + y + z"]
        assert runs.count(["y*z", "x^2"]) == 1
        assert len(runs) == 8

    def test_domain_flags(self, xy_zero, corpus_c):
        assert P3.domain and not xy_zero.domain
        assert corpus_c.presented_ring().domain
        cone = PresentedRing.quotient(XYZ, [pp("X*Z - Y^2")])
        assert not cone.domain  # a domain, but not known to be one


class TestImageIdeal:
    def test_deduplicates(self):
        d = derivation(P3, X="Y", Y="Y", Z="X")
        gens = image_ideal(d).generators
        assert len(gens) == 2

    def test_fpf_forces_infinite_grade(self):
        rng = random.Random(88)
        vars = ("u", "v", "X", "Y")
        ring = PresentedRing.polynomial_ring(vars)
        seen_fpf = 0
        for _ in range(40):
            images = {}
            for name in ("X", "Y"):
                p = _random_poly(rng, vars, 1, n_terms=2)
                if not p.is_zero():
                    images[name] = p
            if not images:
                continue
            d = Derivation(ring, images)
            if fpf_test(d):
                seen_fpf += 1
                assert grade_of_derivation(d).value is GradeValue.INFINITE
        assert seen_fpf > 0


# grade I <= height I on a Noetherian ring, with equality on a
# Cohen-Macaulay one: polynomial rings and the hypersurfaces below are
_HYPERSURFACES = ["x0*x1", "x0^2 - x1^3", "x0*x2 - x1^2", "x0*x1*x2", "x0^2"]


@st.composite
def _small_ideals(draw, vars):
    """One to three generators over `vars`, each of one to three terms with
    exponents up to 2, half of them 0, and small integer coefficients."""
    monomials = st.tuples(*(st.sampled_from([0, 0, 1, 2]) for _ in vars))
    terms = st.dictionaries(monomials, st.integers(-3, 3).filter(bool),
                            min_size=1, max_size=3)
    return [Polynomial(vars, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]


class TestHeightOracle:
    @pytest.mark.parametrize("n, relation",
                             [(2, None), (3, None), (4, None),
                              *((3, f) for f in _HYPERSURFACES)])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_capped_grade_is_capped_height(self, n, relation, data):
        vars = tuple(f"x{i}" for i in range(n))
        ring = (PresentedRing.polynomial_ring(vars) if relation is None else
                PresentedRing.quotient(vars, [parse_polynomial(relation, vars)]))
        gens = [g for g in data.draw(_small_ideals(vars)) if not ring.is_zero(g)]
        assume(gens)
        ideal = Ideal(gens, vars)
        value = grade_analyzer.grade_of_ideal(ideal, ring).value
        assert CAPPED_GRADE[value] == capped_height(ideal, ring)

    @pytest.mark.parametrize("session", CORPUS_SESSIONS)
    def test_corpus_grades_are_at_most_their_heights(self, session):
        # C = Q[X^2, X^3, Y + X*Y^2, X^2*Y, X^3*Z] is an affine domain, so
        # its height is dim C - dim C/I, but it is not shown Cohen-Macaulay:
        # only the upper bound holds there in general
        parsed = parse_session(corpus_path(session).read_text())
        env = load_environment(parsed, RunConfig())
        golden = json.loads(golden_path(session).read_text())["commands"]
        for command, entry in zip(parsed.commands, golden):
            if command.kind not in ("grade-derivation", "grade-ideal"):
                continue
            claimed = CAPPED_GRADE[GradeValue(entry["value"]["grade"])]
            h = capped_height(*graded_ideal(env, command.kind, command.args["name"]))
            assert (claimed == inf) == (h == inf), entry["command"]
            assert claimed <= h, entry["command"]
