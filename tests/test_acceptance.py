"""Acceptance suite: every release criterion at its stated tolerance,
with one pass/fail line per criterion."""

import random
import time
from fractions import Fraction

from lndkit.cli_runner import (
    CORPUS_SESSIONS,
    RunConfig,
    corpus_path,
    load_environment,
    parse_session,
    report_to_json,
    run,
    run_corpus,
    strip_timing,
)
from lndkit.derivation_engine import (
    Derivation,
    apply,
    certify_nilpotent,
    irreducible_over_ufd,
    restricts_to,
)
from lndkit.grade_analyzer import (
    GradeValue,
    fpf_test,
    grade_of_derivation,
    grade_two_generated,
)
from lndkit.groebner_engine import Ideal, ideal_member
from lndkit.kernel_lab import (
    dixmier,
    kernel_basis,
    kernel_generators,
    reconstruct,
    slice_search,
)
from lndkit.poly_core import Polynomial, parse_polynomial
from lndkit.presentation import PresentedRing, nzd_test, present_subalgebra
from lndkit.rees_builder import ideal_power, rees_truncation, symbolic_power
from oracles import ideal_equal, rees_failures


def _stamp(number, title, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE criterion {number} PASS ({elapsed:.2f}s): {title}")


def _session_env(name):
    text = corpus_path(name).read_text(encoding="utf-8")
    session = parse_session(text)
    return session, load_environment(session, RunConfig(seed=0))


def _random_poly(rng, vars, max_degree, n_terms=3, coeff=9):
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(vars))] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-coeff, coeff))
    return Polynomial(vars, terms)


def test_criterion_1_fpf_branch_of_example_6_1():
    t0 = time.monotonic()
    session, env = _session_env("example_6_1.lnd")
    d = env.derivations["D"]
    A = env.subalgebras["A"]
    B = env.subalgebras["B"]

    assert grade_of_derivation(d).value is GradeValue.INFINITE
    assert fpf_test(d)
    data = slice_search(d, 4)
    assert data is not None and not data.is_local()
    assert B.to_ambient(data.slice) == parse_polynomial("Z", B.ambient.vars)
    report = kernel_basis(d, 4)
    assert report.basis
    for f in report.ambient_basis(B):
        if f.is_constant():
            continue
        assert A.member(f).member
    _stamp(1, "fpf slide on B: grade inf, slice Z, kernel inside A", t0, 10)


def test_criterion_2_grade_two_branch_of_example_6_1():
    t0 = time.monotonic()
    session, env = _session_env("example_6_1.lnd")
    C = env.subalgebras["C"]
    ring = C.presented_ring()
    a = C.express(parse_polynomial("X^4", C.ambient.vars))
    b = C.express(parse_polynomial("X^2 + 2*X^3*Z", C.ambient.vars))

    report = grade_two_generated(a, b, ring)
    assert report.value is GradeValue.TWO
    # verify the witness really is a regular sequence
    first, second = report.witness
    assert not ring.normal(first).is_zero()
    assert nzd_test(second, Ideal([first], ring.vars), ring).regular
    assert not ideal_member(ring.one(), ring.lifted_ideal(report.witness))

    dp = env.derivations["Dp"]
    assert not fpf_test(dp)
    ambient_images = {v: parse_polynomial(t, C.ambient.vars)
                      for v, t in (("Z", "X^2"),)}
    assert restricts_to(Derivation(C.ambient, ambient_images), C)
    _stamp(2, "reduced slide on C: pair (X^4, X^2+2X^3Z) has grade 2", t0, 30)


def test_criterion_3_example_6_2():
    t0 = time.monotonic()
    session, env = _session_env("example_6_2.lnd")
    d = env.derivations["D"]
    C = env.subalgebras["C"]
    ring = C.presented_ring()

    assert grade_of_derivation(d).value is GradeValue.ONE
    x2 = ring.normal(C.express(parse_polynomial("X^2", C.ambient.vars)))
    from lndkit.derivation_engine import contained_in_principal
    assert contained_in_principal(d, x2)
    # the explicit collapse: X^4 (X^4 + 2 X^5 Z) lies in (X^6) C
    product = C.express(parse_polynomial("X^4 * (X^4 + 2*X^5*Z)", C.ambient.vars))
    x6 = C.express(parse_polynomial("X^6", C.ambient.vars))
    assert ideal_member(ring.normal(product), ring.lifted_ideal([x6]))
    _stamp(3, "deep slide on C: grade 1, image inside X^2 C", t0, 30)


def test_criterion_4_two_generator_equivalence():
    t0 = time.monotonic()
    vars = ("x", "y", "z")
    ring = PresentedRing.polynomial_ring(vars)
    rng = random.Random(31415)
    tested = 0
    values = {GradeValue.ONE: 0, GradeValue.TWO: 0, GradeValue.INFINITE: 0}
    while tested < 100:
        a = _random_poly(rng, vars, 3)
        b = _random_poly(rng, vars, 3)
        if a.is_zero() and b.is_zero():
            continue
        report = grade_two_generated(a, b, ring)
        unit = ideal_member(ring.one(), ring.lifted_ideal([a, b]))
        assert (report.value is GradeValue.INFINITE) == unit
        chain = _chain_passes_in_some_order(a, b, ring)
        assert (report.value is GradeValue.TWO) == chain
        values[report.value] += 1
        tested += 1
    assert values[GradeValue.TWO] and values[GradeValue.INFINITE] and values[GradeValue.ONE]
    summary = {str(k): v for k, v in values.items()}
    _stamp(4, f"100 random pairs, values seen {summary}", t0, 60)


def _chain_passes_in_some_order(a, b, ring):
    if ideal_member(ring.one(), ring.lifted_ideal([a, b])):
        return False
    nonzero = [p for p in (ring.normal(a), ring.normal(b)) if not p.is_zero()]
    if len(nonzero) < 2:
        return False

    def ok(first, second):
        if ideal_member(second, Ideal([first], ring.vars)):
            return False
        return nzd_test(second, Ideal([first], ring.vars), ring).regular

    return ok(nonzero[0], nonzero[1]) or ok(nonzero[1], nonzero[0])


def test_criterion_5_grade_value_law():
    t0 = time.monotonic()
    vars = ("u", "v", "X", "Y")
    ring = PresentedRing.polynomial_ring(vars)
    rng = random.Random(27182)
    allowed = {GradeValue.ONE, GradeValue.TWO, GradeValue.INFINITE}
    seen = {v: 0 for v in allowed}
    tested = 0
    while tested < 50:
        dx = _random_poly(rng, ("u", "v"), 2).embed(vars)
        dy = _random_poly(rng, ("u", "v", "X"), 2, n_terms=4).embed(vars)
        if dx.is_zero() and dy.is_zero():
            continue
        d = Derivation(ring, {"X": dx, "Y": dy})
        assert certify_nilpotent(d).certified
        report = grade_of_derivation(d)
        assert report.value in allowed
        seen[report.value] += 1
        tested += 1
    summary = {str(k): seen[k] for k in sorted(seen, key=str)}
    _stamp(5, f"50 triangular derivations, values seen {summary}", t0, 120)


def test_criterion_6_slice_theorem():
    t0 = time.monotonic()
    session, env = _session_env("example_6_1.lnd")
    d = env.derivations["D"]
    ring = d.ring
    cert = certify_nilpotent(d)
    assert cert.certified and fpf_test(d)
    s = slice_search(d, 2)
    assert s is not None and not s.is_local()

    rng = random.Random(16180)
    for _ in range(100):
        f = ring.normal(_random_poly(rng, ring.vars, 5, n_terms=4, coeff=6))
        coeffs = reconstruct(d, s, f, cert)
        total = Polynomial.zero(ring.vars)
        for i, a in enumerate(coeffs):
            assert apply(d, a).is_zero()
            total = total + a * s.slice ** i
        assert ring.normal(total) == f
        pf = dixmier(d, s, f, cert).value
        assert apply(d, pf).is_zero()
        assert dixmier(d, s, pf, cert).value == pf
        g = ring.normal(_random_poly(rng, ring.vars, 3, coeff=4))
        pg = dixmier(d, s, g, cert).value
        assert dixmier(d, s, ring.normal(f * g), cert).value == ring.normal(pf * pg)
        assert dixmier(d, s, f + g, cert).value == pf + pg
    _stamp(6, "100 reconstructions and projections, all exact", t0, 120)


def test_criterion_7_kernel_concordance():
    t0 = time.monotonic()
    vars = ("u", "v", "X", "Y")
    ring = PresentedRing.polynomial_ring(vars)
    d = Derivation(ring, {"X": parse_polynomial("u", vars),
                          "Y": parse_polynomial("v", vars)})
    assert irreducible_over_ufd(d).irreducible
    assert grade_of_derivation(d).value is GradeValue.TWO

    report = kernel_generators(d, 3)
    expected = {parse_polynomial(t, vars).monic(ring.order)
                for t in ("u", "v", "v*X - u*Y")}
    produced = {g.monic(ring.order) for g in report.generators}
    assert produced == expected
    sub = present_subalgebra(ring, report.generators)
    assert sub.presentation_ideal().is_zero()
    _stamp(7, "kernel generators {u, v, vX - uY}, presentation ideal zero", t0, 20)


def test_criterion_8_symbolic_rees_on_the_cone():
    t0 = time.monotonic()
    vars = ("u", "v", "w")
    cone = PresentedRing.quotient(vars, [parse_polynomial("u*w - v^2", vars)])
    ideal = Ideal([parse_polynomial("u", vars), parse_polynomial("v", vars)], vars)
    w = parse_polynomial("w", vars)

    sym2 = symbolic_power(ideal, 2, w, cone)
    u = parse_polynomial("u", vars)
    assert ideal_member(u, cone.lifted_ideal(sym2.generators))
    assert not ideal_member(u, cone.lifted_ideal(ideal_power(ideal, 2).generators))
    sym1 = symbolic_power(ideal, 1, w, cone)
    assert ideal_equal(cone.lifted_ideal(sym1.generators),
                       cone.lifted_ideal(ideal.generators))
    # the oracle: I^k lies in piece k, and piece a * piece b in piece a + b
    data = rees_truncation(ideal, 4, w, cone)
    assert len(data.pieces) == 5
    assert rees_failures(data) == []
    _stamp(8, "u in I^(2) \\ I^2, I^(1) = I, multiplicativity through 4", t0, 60)


def test_criterion_9_determinism():
    t0 = time.monotonic()
    assert run_corpus(RunConfig(seed=0)) == 0
    for name in CORPUS_SESSIONS:
        text = corpus_path(name).read_text(encoding="utf-8")
        payloads = []
        for _ in range(2):
            report, code = run(parse_session(text), RunConfig(seed=0), name)
            assert code == 0
            payloads.append(report_to_json(strip_timing(report)))
        assert payloads[0] == payloads[1], name
    _stamp(9, "two corpus runs byte-identical with timing stripped", t0, 120)
