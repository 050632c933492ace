"""Optional cross-validation against sympy, skipped when unavailable.

The library itself never imports sympy; these checks compare reduced
Groebner bases, normal forms, colon ideals, saturations and gcds against an
independent implementation on seeded random inputs.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def _check_grades(ring, relations, cases):
    """Grades on Q[x, y, z] / (relations) checked by sympy's colon ideals:
    the witness lies in the ideal and is a regular sequence (each colon
    equals its modulus), and a grade 0 or 1 cannot be extended (the colon
    of the whole ideal is strictly larger).  Returns the values seen and
    the witness positions taken from outside the generators, that is,
    from the moment curve."""
    from lndkit.grade_analyzer import GradeValue, grade_of_ideal
    from lndkit.poly_core import parse_polynomial
    from lndkit.presentation import PresentedRing

    syms, R = ring
    relations = [parse_polynomial(t, VARS) for t in relations]
    host = (PresentedRing.quotient(VARS, relations) if relations
            else PresentedRing.polynomial_ring(VARS))
    seen, moment = set(), set()
    for texts in cases:
        gens = [parse_polynomial(t, VARS) for t in texts]
        gens = [g for g in gens if not host.is_zero(g)]
        if not gens:
            continue
        report = grade_of_ideal(Ideal(gens, VARS), host)
        seen.add(report.value)

        def ideal(polys):
            return R.ideal(*[_to_sympy(p, syms) for p in [*relations, *polys]])

        whole = ideal(gens)
        if report.value is GradeValue.INFINITE:
            assert whole.contains(1)
            continue
        normal_gens = [host.normal(g) for g in gens]
        for i, w in enumerate(report.witness):
            assert whole.contains(_to_sympy(w, syms)), (texts, str(w))
            modulus = ideal(report.witness[:i])
            assert modulus.quotient(ideal([w])) == modulus
            if w not in normal_gens:
                moment.add(i)
        if report.value is not GradeValue.TWO:
            modulus = ideal(report.witness)
            assert modulus.quotient(whole) != modulus
    return seen, moment


def test_grades_on_a_ring_that_is_not_a_domain(ring):
    """Q[x, y, z] / (x*y), where (x, y) takes its first witness element
    from the moment curve, and the non-reduced Q[x, y, z] / (x^2), where
    (y*z, y, z) takes its second."""
    from lndkit.grade_analyzer import GradeValue

    rng = random.Random(11)
    cases = [("x", "z"), ("x", "x^2"), ("x",), ("x", "y"), ("x", "y", "z"),
             ("y*z", "x*z"), ("x + y", "z^2")]
    while len(cases) < 15:
        cases.append(tuple(str(_random_poly(rng)) for _ in range(rng.randint(1, 3))))
    seen, moment = _check_grades(ring, ["x*y"], cases)
    assert {GradeValue.ZERO, GradeValue.ONE, GradeValue.TWO} <= seen
    assert 0 in moment
    cases = [("y*z", "y", "z"), ("x", "x*y"), ("x", "y"), ("x*z", "y", "z"),
             ("x + y", "x*z")]
    seen, moment = _check_grades(ring, ["x^2"], cases)
    assert {GradeValue.ZERO, GradeValue.ONE, GradeValue.TWO} <= seen
    assert 1 in moment


def test_grades_on_the_polynomial_ring(ring):
    """Q[x, y, z] itself, where (x*y, x, y) and (y*z, y, z) take their
    second witness element from the moment curve."""
    from lndkit.grade_analyzer import GradeValue

    cases = [("x*y", "x", "y"), ("y*z", "y", "z"), ("x", "y", "z"),
             ("x*y", "x*z", "x*y + x*z"), ("x^2", "x*y", "y^2")]
    seen, moment = _check_grades(ring, [], cases)
    assert {GradeValue.ONE, GradeValue.TWO} <= seen
    assert moment == {1}


# products and sums of variables: ideals of zerodivisors turn up among few
# examples, and on Q[x, y, z] (p*q, p, q) takes its second witness element
# from the moment curve whenever p and q are coprime
_GENERATORS = ["x", "y", "z", "x*y", "x*z", "y*z", "x^2", "x + y", "y + z",
               "x*y + z", "x*z + y*z", "x + 1"]
_IDEALS = st.one_of(
    st.lists(st.sampled_from(_GENERATORS), min_size=1, max_size=3, unique=True),
    st.tuples(st.sampled_from(_GENERATORS), st.sampled_from(_GENERATORS))
    .map(lambda pq: [f"({pq[0]})*({pq[1]})", *pq]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(relations=st.sampled_from([[], ["x*y"], ["x^2"]]), texts=_IDEALS)
def test_grades_match_sympy_colons_on_random_ideals(ring, relations, texts):
    _check_grades(ring, relations, [texts])


def _sympy_leads(ideal):
    """The leading monomials of sympy's reduced grevlex Groebner basis of
    an ideal, computed by sympy alone."""
    if not ideal.generators:
        return []
    syms = sympy.symbols(ideal.vars)
    basis = sympy.groebner([_to_sympy(g, syms) for g in ideal.generators], *syms,
                           order="grevlex")
    return [sympy.Poly(e, *syms).monoms(order="grevlex")[0] for e in basis.exprs]


@pytest.mark.parametrize("n, relation", [(2, None), (3, None), (3, "x0*x2 - x1^2"),
                                         (3, "x0*x1")])
def test_height_oracle_from_sympy_leads(n, relation):
    # the height oracle of the grade tests, its dimension count read off
    # sympy's leading monomials, against the same count on lndkit's basis;
    # exponents are 0 half the time, so that few ideals are the unit ideal
    from lndkit.poly_core import parse_polynomial
    from lndkit.presentation import PresentedRing
    from oracles import capped_height

    vars = tuple(f"x{i}" for i in range(n))
    ring = (PresentedRing.polynomial_ring(vars) if relation is None else
            PresentedRing.quotient(vars, [parse_polynomial(relation, vars)]))
    rng = random.Random(4 + n)
    seen = set()
    for _ in range(30):
        gens = [Polynomial(vars, {tuple(rng.choice([0, 0, 1, 2]) for _ in vars):
                                  rng.choice([-3, -1, 1, 2]) for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(1, 3))]
        ideal = Ideal([g for g in gens if not ring.is_zero(g)], vars)
        h = capped_height(ideal, ring)
        assert capped_height(ideal, ring, _sympy_leads) == h
        seen.add(h)
    assert len(seen) >= 3


# -- the corpus's kernel, slice and Dixmier claims, re-derived ---------------

def _corpus_claims():
    """(session, command, golden value, D) for every golden kernel, slice
    and dixmier entry of the shipped corpus.  D applies the command's
    derivation, as its declaration gives it on the ambient variables, to
    a sympy expression; `syms` are those variables."""
    from lndkit.cli_runner import CORPUS_SESSIONS, corpus_path, golden_path, parse_session

    claims = []
    for name in CORPUS_SESSIONS:
        session = parse_session(corpus_path(name).read_text(encoding="utf-8"))
        rings, ambient, derivations = {}, {}, {}
        for decl in session.declarations:
            args = decl.args
            if decl.kind == "ring":
                rings[args["name"]] = args["vars"]
            elif decl.kind == "subalgebra":
                ambient[args["name"]] = args["ring"]
            elif decl.kind == "derivation":
                # on a polynomial ring or a subalgebra of one, so that D is
                # the ambient derivation itself; a quotient would need its
                # relations, and raises KeyError here
                syms = sympy.symbols(rings[ambient.get(args["host"], args["host"])])
                images = [(sympy.Symbol(v), _to_sympy(p, syms)) for v, p in args["images"]]
                derivations[args["name"]] = syms, images
        golden = json.loads(golden_path(name).read_text(encoding="utf-8"))
        for entry in golden["commands"]:
            command = session.commands[entry["index"]]
            if command.kind in ("kernel", "slice", "dixmier"):
                syms, images = derivations[command.args["name"]]

                def d(f, images=images):
                    return sympy.expand(sum(p * sympy.diff(f, v) for v, p in images))

                claims.append((name, command, entry["value"], d, syms))
    return claims


def _read_report(text, syms):
    """A polynomial as a report prints it, read by sympy."""
    return sympy.parse_expr(text.replace("^", "**"), local_dict={str(s): s for s in syms})


def test_corpus_kernel_slice_and_dixmier_claims_hold():
    # the goldens pin the output; sympy's own derivatives check that it is
    # true: D kills every kernel element and every projection, D(s) = 1 for
    # a slice, D(s) = c and D(c) = 0 for a local one, and a projection is
    # the Dixmier sum of the target's orbit
    kinds, checked = set(), 0
    for session, command, value, d, syms in _corpus_claims():
        where = f"{session}: {command.text}"
        kinds.add(command.kind)
        if command.kind == "kernel":
            for text in value["basis"] + value["generators"]:
                assert d(_read_report(text, syms)) == 0, (where, text)
                checked += 1
        elif command.kind == "slice" and value["found"] != "none":
            s = _read_report(value["slice"], syms)
            if value["found"] == "slice":
                assert d(s) == 1, where
            else:
                c = _read_report(value["cofactor"], syms)
                assert d(s) == c and c != 0 and d(c) == 0, where
            checked += 1
        elif command.kind == "dixmier":
            s, f = (_to_sympy(command.args[k], syms) for k in ("slice", "target"))
            c = d(s)
            assert c == 1 or (c != 0 and d(c) == 0), where
            orbit = [sympy.expand(f)]
            while orbit[-1] != 0:
                assert len(orbit) < 64, where
                orbit.append(d(orbit[-1]))
            orbit.pop()
            # c^k clears the denominators of a local slice's projection
            k = value["denominator_power"]
            assert k == (0 if c == 1 else max(len(orbit) - 1, 0)), where
            if c != 1:
                assert _read_report(value["cofactor"], syms) == c, where
            projection = _read_report(value["projection"], syms)
            dixmier_sum = sum(g * (-s) ** i / sympy.factorial(i) * c ** (k - i)
                              for i, g in enumerate(orbit))
            assert sympy.expand(dixmier_sum - projection) == 0, where
            assert d(projection) == 0, where
            checked += 1
    assert kinds == {"kernel", "slice", "dixmier"}
    assert checked >= 70
