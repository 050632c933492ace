import json
import re
import subprocess
import sys
from math import inf
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lndkit import config, groebner_engine, poly_core
from lndkit.cli_runner import (
    _FORMS,
    CORPUS_SESSIONS,
    RunConfig,
    Session,
    Statement,
    corpus_path,
    golden_path,
    load_environment,
    main,
    parse_session,
    report_to_json,
    run,
    run_corpus,
    strip_timing,
)
from lndkit.config import budget
from lndkit.errors import ParseError
from lndkit.grade_analyzer import GradeValue
from lndkit.kernel_lab import dixmier
from lndkit.poly_core import Polynomial, parse_polynomial
from lndkit.presentation import Subalgebra
from oracles import CAPPED_GRADE, capped_height, graded_ideal

SIMPLE = """\
ring B = poly(x, y)
derivation D on B { y -> 1 }
check nilpotent D
kernel D degree 2
"""


class TestParse:
    def test_single_ring(self):
        session = parse_session("ring B = poly(x, y)\n")
        assert len(session.declarations) == 1
        assert session.declarations[0].args["vars"] == ("x", "y")

    def test_corpus_files_parse(self):
        for name in CORPUS_SESSIONS:
            text = corpus_path(name).read_text(encoding="utf-8")
            session = parse_session(text)
            assert session.declarations and session.commands

    def test_example_6_1_objects(self):
        text = corpus_path("example_6_1.lnd").read_text(encoding="utf-8")
        session = parse_session(text)
        names = [d.args["name"] for d in session.declarations]
        for expected in ("P3", "R", "A", "B", "C", "D", "Dp", "Dt"):
            assert expected in names
        kinds = {c.kind for c in session.commands}
        assert {"check-nilpotent", "check-fpf", "grade-derivation",
                "kernel", "slice"} <= kinds

    def test_empty_image_rejected(self):
        bad = "ring B = poly(x)\nderivation D on B { x -> }\n"
        with pytest.raises(ParseError) as err:
            parse_session(bad)
        assert err.value.line == 2

    @pytest.mark.parametrize("statement", [
        "ideal I in R = ( x, y, x + q )",                 # polys slot
        "derivation E on R { x -> y ; y -> 1 + q }",      # images slot
        "check contained D in (x + q)",                   # poly slot
        "ideal J in R = ( (x + y + 1)^400 + q )",         # checked for syntax alone
    ])
    def test_parse_error_column_is_within_the_statement(self, statement):
        # the column is the 0-based offset in the statement text, here
        # the offset of q in the line
        text = "ring R = poly(x, y)\nderivation D on R { x -> y }\n" + statement + "\n"
        with pytest.raises(ParseError) as err:
            parse_session(text)
        assert (err.value.line, err.value.column) == (3, statement.index("q"))
        assert str(err.value) == (f"unknown variable 'q' "
                                  f"(line 3, col {statement.index('q')})")

    def test_undefined_name(self):
        with pytest.raises(ParseError):
            parse_session("grade D\n")

    def test_duplicate_name(self):
        with pytest.raises(ParseError):
            parse_session("ring B = poly(x)\nring B = poly(y)\n")

    def test_comments_and_blank_lines(self):
        text = "# heading\n\nring B = poly(x)  # trailing\n"
        session = parse_session(text)
        assert len(session.declarations) == 1

    def test_multiline_braces(self):
        text = """\
ring B = poly(x, y)
subalgebra S in B = gens {
    x^2,
    x^3
}
"""
        session = parse_session(text)
        generators = session.declarations[1].args["generators"]
        assert [str(p) for p in generators] == ["x^2", "x^3"]

    def test_round_trip(self):
        for name in CORPUS_SESSIONS:
            text = corpus_path(name).read_text(encoding="utf-8")
            session = parse_session(text)
            again = parse_session(session.pretty())
            assert again == session

    def test_round_trip_simple(self):
        session = parse_session(SIMPLE)
        assert parse_session(session.pretty()) == session


class TestRun:
    def test_empty_session(self):
        report, code = run(Session([], []), RunConfig())
        assert code == 0
        assert report["commands"] == []

    def test_simple_session(self):
        report, code = run(parse_session(SIMPLE), RunConfig())
        assert code == 0
        kernel = report["commands"][1]
        assert kernel["value"]["generators"] == ["x"]

    def test_command_failure_does_not_abort(self):
        text = """\
ring B = poly(x)
derivation D on B { x -> x }
check nilpotent D bound 3
check fpf D
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 0  # inconclusive nilpotency is an answer, not an error
        assert report["commands"][0]["value"]["certified"] is False
        assert report["commands"][1]["status"] == "ok"

    def test_error_sets_exit_two(self):
        text = """\
ring B = poly(x)
derivation Z on B { x -> 0 }
grade Z
check fpf Z
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 2
        assert report["commands"][0]["status"] == "error"
        # later independent commands still ran
        assert report["commands"][1]["status"] == "ok"

    def test_non_restricting_derivation_fails_declaration(self):
        text = """\
ring B = poly(X)
subalgebra R in B = gens { X^2, X^3 }
derivation D on R { X -> 1 }
check fpf D
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 2
        assert report["declaration_error"]

    def test_escaping_generator_named(self):
        text = """\
ring B = poly(X)
subalgebra R in B = gens { X^2, X^3 }
derivation E on R { X -> 1 }
check fpf E
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 2
        assert report["declaration_error"] == (
            "declaration 'E' failed: derivation does not restrict: "
            "image of X^2 escapes")

    @pytest.mark.parametrize("name, calls", [("example_6_1.lnd", 12),
                                             ("example_6_2.lnd", 7)])
    def test_one_membership_pass_per_subalgebra_derivation(
            self, monkeypatch, name, calls):
        # each generator image is tested once, by restrict_to_subalgebra
        seen = []
        member = Subalgebra.member

        def counted(sub, f):
            seen.append(f)
            return member(sub, f)

        monkeypatch.setattr(Subalgebra, "member", counted)
        text = corpus_path(name).read_text(encoding="utf-8")
        load_environment(parse_session(text), RunConfig())
        assert len(seen) == calls

    def test_zero_ideal_lists_no_generators(self):
        text = """\
ring S = poly(u, v, w)
ring Q = quotient(S, (u*w - v^2))
ideal I in Q = ( 0 )
symbolic I power 2 saturate w
rees I upto 2 saturate w
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 0
        symbolic, rees = (c["value"] for c in report["commands"])
        assert symbolic["generators"] == []
        assert symbolic["equals_ordinary_power"] is True
        assert rees["pieces"] == [["1"], [], []]

    def test_ill_defined_quotient_derivation_rejected(self):
        text = """\
ring S = poly(u, v, w)
ring Q = quotient(S, (u*w - v^2))
derivation D on Q { w -> 1 }
check fpf D
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 2
        assert "not well defined" in report["declaration_error"]

    def test_quotient_of_quotient_keeps_base_relations(self):
        text = """\
ring B = poly(x, y)
ring Q = quotient(B, (x^2))
ring Q2 = quotient(Q, (y))
derivation D on Q2 { x -> 1 }
check fpf D
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 2
        assert "not well defined" in report["declaration_error"]

    def test_irreducible_witness_in_ambient_coordinates(self):
        text = """\
ring B = poly(x, y)
subalgebra S in B = gens { x, y^2 }
derivation E on S { x -> y^2 }
check irreducible E
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 0
        entry = report["commands"][0]
        assert entry["value"]["irreducible"] is False
        assert entry["witnesses"] == ["y^2"]

    def test_well_defined_quotient_derivation_accepted(self):
        text = """\
ring S = poly(u, v, w)
ring Q = quotient(S, (u*w - v^2))
derivation D on Q { u -> 2*v; v -> w }
check nilpotent D
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 0
        assert report["commands"][0]["value"]["certified"] is True

    def test_grade_on_a_ring_that_is_not_a_domain(self):
        # x*y = 0: x is a zerodivisor, so (x, z) has grade 1 with witness z,
        # and (x, x^2) is killed by y, so it has grade 0
        text = """\
ring P = poly(x, y, z)
ring Q = quotient(P, (x*y))
ideal J in Q = ( x, z )
ideal K in Q = ( x, x^2 )
grade ideal J
grade ideal K
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 0
        j, k = report["commands"]
        assert (j["value"]["grade"], j["witnesses"]) == ("1", ["z"])
        assert (k["value"]["grade"], k["witnesses"]) == ("0", [])
        assert k["value"]["exhaustive"] is True
        assert k["notes"] == ["annihilator certificate: y"]

    def test_saturator_certificate_in_the_report(self):
        # the monomial curve's prime: x lies in the singular point (x, y, z),
        # 1 + x does not, so only x is certified; the pieces are built
        # either way
        text = """\
ring P = poly(x, y, z)
ideal C in P = ( x^3 - y*z, y^2 - x*z, z^2 - x^2*y )
symbolic C power 2 saturate x
symbolic C power 2 saturate 1 + x
rees C upto 2 saturate 1 + x
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 0
        values = [c["value"] for c in report["commands"]]
        assert [v["saturator"] for v in values] == ["certified", "uncertified", "uncertified"]
        assert [v["equals_ordinary_power"] for v in values[:2]] == [False, True]
        assert "checks" not in values[2]

    def test_symbolic_piece_lists_each_normal_form_once(self):
        # on the cone, two basis elements of (I^2 + relations : (1 + w)^inf)
        # have the normal form u*w
        text = """\
ring S = poly(u, v, w)
ring Q = quotient(S, (u*w - v^2))
ideal I in Q = ( u, v )
symbolic I power 2 saturate 1 + w
rees I upto 2 saturate 1 + w
"""
        report, code = run(parse_session(text), RunConfig())
        assert code == 0
        symbolic, rees = (c["value"] for c in report["commands"])
        assert symbolic["generators"] == ["u*v", "u*w", "u^2"]
        assert rees["pieces"] == [["1"], ["u", "v"], ["u*v", "u*w", "u^2"]]

    def test_seed_echoed(self):
        report, _ = run(parse_session(SIMPLE), RunConfig(seed=13))
        assert report["seed"] == 13

    def test_a_session_computes_each_basis_once(self, monkeypatch):
        # the symbolic powers' pieces, the saturator certificate and the
        # relations' basis are each computed once, not once per command:
        # 10 Buchberger runs where computing afresh took 22
        inputs = []
        inner = groebner_engine._buchberger

        def counting(generators, order):
            inputs.append((order, generators))
            return inner(generators, order)

        monkeypatch.setattr(groebner_engine, "_buchberger", counting)
        text = corpus_path("rees_cone.lnd").read_text(encoding="utf-8")
        report, code = run(parse_session(text), RunConfig())
        assert code == 0
        assert len(inputs) == 10
        assert len(set(inputs)) == len(inputs)
        # no basis outlives its session
        run(parse_session(text), RunConfig())
        assert len(inputs) == 20

    @pytest.mark.parametrize("command, verdicts", [
        ("kernel D degree 4 expect A", (True, True)),
        ("kernel D degree 4 expect R", (False, True)),
        ("kernel D degree 4 expect B", (True, False)),
        ("kernel E degree 3 expect B", (False, False)),
        ("kernel E degree 3 expect A", (False, True))])
    def test_expect_verdicts(self, command, verdicts):
        # (kernel_in_expected, expected_in_kernel): Ker D is A; Ker E is Q[X, Y]
        report, code = run(_example_6_1_with(command), RunConfig())
        assert code == 0
        value = report["commands"][0]["value"]
        assert (value["kernel_in_expected"], value["expected_in_kernel"]) == verdicts

    def test_expect_is_decided_on_the_kept_generators(self, monkeypatch):
        # each of the 53 basis elements lies in Q[kept], so testing the 4
        # kept generators for membership in A decides the whole basis
        session = _example_6_1_with("kernel D degree 4 expect A")
        env = load_environment(session, RunConfig())
        seen = []
        member = Subalgebra.member

        def counted(sub, f):
            seen.append(sub)
            return member(sub, f)

        monkeypatch.setattr(Subalgebra, "member", counted)
        value, _, _ = env.execute(session.commands[0])
        assert (value["basis_size"], len(value["generators"])) == (53, 4)
        assert sum(sub is env.subalgebras["A"] for sub in seen) == 4
        assert value["kernel_in_expected"] is True

    def test_kernel_elements_mapped_to_ambient_once(self, monkeypatch):
        # example_6_1 prints 53 kernel basis elements of D through B's tags,
        # 4 of them kept generators that are printed and compared with A
        # too: each is mapped once, as are the 2 grade witnesses, the slice
        # and the projection
        calls = []
        to_ambient = Subalgebra.to_ambient
        monkeypatch.setattr(Subalgebra, "to_ambient",
                            lambda sub, p: calls.append(p) or to_ambient(sub, p))
        text = corpus_path("example_6_1.lnd").read_text(encoding="utf-8")
        _, code = run(parse_session(text), RunConfig())
        assert code == 0
        assert len(calls) == 57


def _example_6_1_with(command):
    """example_6_1's declarations, E: Z -> X^2 on P3, and one command."""
    text = corpus_path("example_6_1.lnd").read_text(encoding="utf-8")
    session = parse_session(f"{text}derivation E on P3 {{ Z -> X^2 }}\n{command}\n")
    return Session(session.declarations, session.commands[-1:])


class TestGolden:
    def test_corpus_matches_golden(self, capsys):
        assert run_corpus(RunConfig(seed=0)) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(CORPUS_SESSIONS)

    def test_determinism_same_seed(self):
        name = "example_6_2.lnd"
        text = corpus_path(name).read_text(encoding="utf-8")
        payloads = []
        for _ in range(2):
            report, _ = run(parse_session(text), RunConfig(seed=5), name)
            payloads.append(report_to_json(strip_timing(report)))
        assert payloads[0] == payloads[1]

    def test_reports_do_not_depend_on_the_seed(self):
        # the seed is echoed and nothing else: grade has no random search
        for name in CORPUS_SESSIONS:
            session = parse_session(corpus_path(name).read_text(encoding="utf-8"))
            payloads = []
            for seed in (0, 12345):
                report, code = run(session, RunConfig(seed=seed), name)
                assert code == 0 and report.pop("seed") == seed
                payloads.append(report_to_json(strip_timing(report)))
            assert payloads[0] == payloads[1], name

    def test_run_parses_nothing(self, monkeypatch):
        # every polynomial is parsed once, by parse_session; run only uses it
        sessions = {name: parse_session(corpus_path(name).read_text(encoding="utf-8"))
                    for name in CORPUS_SESSIONS}

        def refuse(text, vars):
            raise AssertionError(f"re-parsed {text!r}")
        monkeypatch.setattr(poly_core, "_tokenize_poly", refuse)
        for name, session in sessions.items():
            report, code = run(session, RunConfig(seed=0), session_name=name)
            assert code == 0
            assert (report_to_json(strip_timing(report))
                    == golden_path(name).read_text(encoding="utf-8"))

    def test_timing_present_but_stripped(self):
        report, _ = run(parse_session(SIMPLE), RunConfig())
        assert "timing" in report
        assert "timing" not in strip_timing(report)


class TestCommandLine:
    def test_run_writes_json(self, tmp_path):
        session_file = tmp_path / "s.lnd"
        session_file.write_text(SIMPLE, encoding="utf-8")
        out_file = tmp_path / "report.json"
        rc = main(["run", str(session_file), "--json", str(out_file), "--seed", "3"])
        assert rc == 0
        report = json.loads(out_file.read_text(encoding="utf-8"))
        assert report["seed"] == 3
        assert report["schema_version"] == 1

    def test_parse_error_exit_one(self, tmp_path):
        session_file = tmp_path / "bad.lnd"
        session_file.write_text("ring = poly(\n", encoding="utf-8")
        assert main(["run", str(session_file)]) == 1

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.lnd")]) == 1

    def test_corpus_subcommand(self, capsys):
        assert main(["corpus", "--seed", "0"]) == 0

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LND_SEED", "42")
        session_file = tmp_path / "s.lnd"
        session_file.write_text(SIMPLE, encoding="utf-8")
        out_file = tmp_path / "report.json"
        assert main(["run", str(session_file), "--json", str(out_file)]) == 0
        report = json.loads(out_file.read_text(encoding="utf-8"))
        assert report["seed"] == 42

    # ASCII digits only, as for every other number: int() would take
    # "1_0" as 10, " 7 " as 7 and an Arabic-Indic three as 3
    @pytest.mark.parametrize("raw", ["abc", "1_0", " 7 ", "\u0663"],
                             ids=["abc", "underscore", "spaces", "arabic-indic"])
    @pytest.mark.parametrize("action", ["run", "corpus"])
    def test_malformed_seed_env_exit_one(self, tmp_path, monkeypatch, capsys,
                                         action, raw):
        monkeypatch.setenv("LND_SEED", raw)
        session_file = tmp_path / "s.lnd"
        session_file.write_text(SIMPLE, encoding="utf-8")
        argv = ["run", str(session_file)] if action == "run" else ["corpus"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "LND_SEED" in captured.err and repr(raw) in captured.err
        assert captured.out == ""

    def test_negative_seed_echoed(self, tmp_path, monkeypatch):
        # one minus sign is part of the rule, for the flag and LND_SEED alike
        monkeypatch.setenv("LND_SEED", "-7")
        session_file = tmp_path / "s.lnd"
        session_file.write_text(SIMPLE, encoding="utf-8")
        out_file = tmp_path / "report.json"
        argv = ["run", str(session_file), "--json", str(out_file)]
        for flags, seed in (([], -7), (["--seed", "-4"], -4)):
            assert main(argv + flags) == 0
            assert json.loads(out_file.read_text(encoding="utf-8"))["seed"] == seed

    def test_seed_flag_overrides_malformed_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LND_SEED", "abc")
        session_file = tmp_path / "s.lnd"
        session_file.write_text(SIMPLE, encoding="utf-8")
        out_file = tmp_path / "report.json"
        argv = ["run", str(session_file), "--json", str(out_file), "--seed", "3"]
        assert main(argv) == 0
        assert json.loads(out_file.read_text(encoding="utf-8"))["seed"] == 3
        assert main(["corpus", "--seed", "0"]) == 0

    def test_pair_budget_bounds_a_whole_command(self, tmp_path):
        # in a session of its own, `rees I upto 4` makes 7 J-pair
        # reductions over 9 Buchberger runs, its saturator certificate
        # included, at most 5 in any one of them
        text = corpus_path("rees_cone.lnd").read_text(encoding="utf-8")
        rees_only = "".join(line for line in text.splitlines(keepends=True)
                            if not line.startswith("symbolic"))
        code, report = _run_file(tmp_path, rees_only, "--pair-budget", "6")
        assert code == 2
        [entry] = report["commands"]
        assert entry["status"] == "error"
        assert "pair budget 6" in entry["error"]
        code, report = _run_file(tmp_path, rees_only, "--pair-budget", "7")
        assert code == 0

    def test_a_basis_from_an_earlier_command_charges_no_pairs(self, tmp_path):
        # after the `symbolic` commands, `rees I upto 4` finds their pieces
        # and saturator certificate in the session's bases and stops
        # needing 7 pairs; `symbolic I power 2` needs 9
        out_file = tmp_path / "report.json"
        argv = ["run", str(corpus_path("rees_cone.lnd")), "--json", str(out_file)]

        def rees_entry():
            report = json.loads(out_file.read_text(encoding="utf-8"))
            return next(c for c in report["commands"] if c["command"].startswith("rees"))

        assert main(argv + ["--pair-budget", "4"]) == 2
        assert "pair budget 4" in rees_entry()["error"]
        assert main(argv + ["--pair-budget", "5"]) == 2
        assert rees_entry()["status"] == "ok"
        assert main(argv + ["--pair-budget", "9"]) == 0

    def test_irreducibility_gcds_are_charged_to_the_pair_budget(self, tmp_path):
        # the images share (a+b+c+d+e)^2; each gcd is an intersection of
        # principal ideals, whose S-pairs the pair budget bounds
        text = ("ring R = poly(a, b, c, d, e)\n"
                "derivation D on R { a -> (a+b+c+d+e)^3*(a*b - c*d + e); "
                "b -> (a+b+c+d+e)^2*(a - b*c*d*e)^2 }\n"
                "check irreducible D\n")
        code, report = _run_file(tmp_path, text)
        assert code == 0
        [entry] = report["commands"]
        assert entry["value"] == {"irreducible": False}
        assert entry["witnesses"] == [
            "a^2 + 2*a*b + 2*a*c + 2*a*d + 2*a*e + b^2 + 2*b*c + 2*b*d + 2*b*e"
            " + c^2 + 2*c*d + 2*c*e + d^2 + 2*d*e + e^2"]
        code, report = _run_file(tmp_path, text, "--pair-budget", "2")
        assert code == 2
        [entry] = report["commands"]
        assert entry["status"] == "error"
        assert entry["error"] == "pair budget 2 exceeded"

    def test_grade_witness_search_is_charged_to_the_pair_budget(self, tmp_path):
        # (y*z, y, z) takes its partner from the moment curve; the colons
        # its nonzerodivisor tests compute count against the pair budget
        text = ("ring P = poly(x, y, z)\n"
                "ideal J in P = ( y*z, y, z )\n"
                "grade ideal J\n")
        code, report = _run_file(tmp_path, text)
        assert code == 0
        [entry] = report["commands"]
        assert entry["witnesses"] == ["y*z", "y*z + y + z"]
        code, report = _run_file(tmp_path, text, "--pair-budget", "1")
        assert code == 2
        [entry] = report["commands"]
        assert entry["status"] == "error"
        assert entry["error"] == "pair budget 1 exceeded"

    def test_dimension_budget_bounds_a_kernel_on_a_quotient(self, tmp_path):
        # Q[x, y] / (y) has one standard monomial per degree; the enumeration
        # stops at the default budget of 5000 monomials, not at degree 200000
        text = ("ring P = poly(x, y)\nring R = quotient(P, (y))\n"
                "derivation D on R { x -> 1 }\nkernel D degree 200000\n")
        code, report = _run_file(tmp_path, text)
        assert code == 2
        [entry] = report["commands"]
        assert entry["status"] == "error"
        assert "dimension budget 5000 exceeded" in entry["error"]

    @pytest.mark.parametrize("flags", [["--pair-budget", "-5"],
                                       ["--dim-budget", "-1"],
                                       ["--pair-budget", "abc"],
                                       ["--pair-budget", "\u0663"],
                                       ["--dim-budget", "1_0"],
                                       ["--seed", "abc"],
                                       ["--seed", "\u0663"],
                                       ["--seed", "1_0"],
                                       ["--seed", " 5"]])
    def test_usage_error_exit_one(self, tmp_path, capsys, flags):
        session_file = tmp_path / "s.lnd"
        session_file.write_text(SIMPLE, encoding="utf-8")
        assert main(["run", str(session_file)] + flags) == 1
        assert "error: argument " + flags[0] in capsys.readouterr().err

    def test_missing_arguments_exit_one(self, capsys):
        assert main([]) == 1
        assert main(["run"]) == 1

    def test_zero_budget_is_accepted(self, tmp_path):
        out_file = tmp_path / "report.json"
        argv = ["run", str(corpus_path("rees_cone.lnd")), "--json", str(out_file)]
        assert main(argv + ["--pair-budget", "0", "--dim-budget", "0"]) == 2
        assert json.loads(out_file.read_text(encoding="utf-8"))["commands"]

    def test_help_exits_zero(self, capsys):
        assert main(["-h"]) == 0
        assert main(["run", "-h"]) == 0
        assert "--pair-budget" in capsys.readouterr().out

    def test_installed_entry_point(self, tmp_path):
        session_file = tmp_path / "s.lnd"
        session_file.write_text(SIMPLE, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "lndkit.cli_runner", "run", str(session_file)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema_version"] == 1


PRELUDE = """\
ring B = poly(x, y)
subalgebra S in B = gens { x, y^2 }
derivation D on B { y -> x }
ideal I in B = ( x, y )
ideal P in B = ( x )
ideal Z in B = ( 0 )
"""


def _run_file(tmp_path, text, *flags):
    session_file = tmp_path / "s.lnd"
    session_file.write_text(text, encoding="utf-8")
    out_file = tmp_path / "report.json"
    out_file.unlink(missing_ok=True)
    code = main(["run", str(session_file), "--json", str(out_file), *flags])
    report = (json.loads(out_file.read_text(encoding="utf-8"))
              if out_file.exists() else None)
    return code, report


class TestNumericArguments:
    @pytest.mark.parametrize("line", ["kernel D degree x",
                                      "check nilpotent D bound x",
                                      "slice D degree 2.5",
                                      # numbers are ASCII decimal digits only
                                      "kernel D degree 1_0",
                                      "check nilpotent D bound +5",
                                      "kernel D degree \u0663",
                                      "derivation E on B { y -> y^\u0663 }"])
    def test_malformed_number_is_parse_error(self, tmp_path, line):
        with pytest.raises(ParseError) as err:
            parse_session(PRELUDE + line + "\n")
        assert err.value.line == 7
        assert _run_file(tmp_path, PRELUDE + line + "\n") == (1, None)

    @pytest.mark.parametrize("line", ["kernel D degree 0",
                                      "check nilpotent D bound 0",
                                      "symbolic P power -1 saturate y",
                                      "rees P upto 0 saturate y",
                                      "grade ideal Z",
                                      "slice D degree 0",
                                      "verify generators S claim { x } degree 0"])
    def test_out_of_range_is_command_error(self, tmp_path, line):
        code, report = _run_file(tmp_path, PRELUDE + line + "\n")
        assert code == 2
        entry = report["commands"][0]
        assert entry["status"] == "error"
        assert entry["command"] == line

    @pytest.mark.parametrize("power", ["(x + y + 1)^400", "7^9999999"])
    def test_runaway_power_is_command_error(self, tmp_path, power):
        # 80601 terms, or a coefficient of 28 million bits: the parse keeps
        # it as written and the declaration fails at the term budget
        text = f"ring R = poly(x, y)\nideal I in R = ( {power} )\ngrade ideal I\n"
        assert parse_session(text).declarations[1].args["generators"] == (power,)
        code, report = _run_file(tmp_path, text)
        assert code == 2
        assert "term budget" in report["declaration_error"]
        assert report["commands"][0]["status"] == "error"

    @pytest.mark.parametrize("generator", ["(x + y + 1)^400 + q", "7^9999999 +",
                                           "7^9999999 + x)"])
    def test_syntax_after_a_runaway_power_is_parse_error(self, tmp_path, generator):
        # the whole text is checked for syntax before the power is expanded
        text = f"ring R = poly(x, y)\nideal I in R = ( {generator} )\n"
        assert _run_file(tmp_path, text) == (1, None)

    def test_large_sparse_image_is_certified_cheaply(self, tmp_path):
        # D(p) = 0 for the 495-term image p: no product is formed along x6
        text = ("ring R = poly(x1, x2, x3, x4, x5, x6)\n"
                "derivation D on R { x6 -> (x1 + x2 + x3 + x4 + x5)^8 }\n"
                "check nilpotent D\nkernel D degree 1\n")
        code, report = _run_file(tmp_path, text)
        assert code == 0
        check, kernel = report["commands"]
        assert check["value"]["certified"]
        assert check["value"]["orders"]["x6"] == 2
        assert kernel["value"]["generators"] == ["x1", "x2", "x3", "x4", "x5"]

    def test_runaway_nilpotency_bound_is_command_error(self, tmp_path):
        text = ("ring R = poly(x)\nderivation D on R { x -> x }\n"
                "check nilpotent D bound 1000000000\ncheck nilpotent D bound 5\n")
        code, report = _run_file(tmp_path, text)
        assert code == 2
        runaway, bounded = report["commands"]
        assert runaway["status"] == "error" and "term budget" in runaway["error"]
        assert bounded["status"] == "ok"
        assert bounded["value"] == {"bound": 5, "certified": False, "stuck": "x"}

    def test_term_budget_spans_parse_and_run(self, monkeypatch):
        # one budget bounds a command's parse, its slice test, its
        # nilpotency check and its orbit together
        text = ("ring R = poly(x, y)\nderivation D on R { y -> 1 }\n"
                "dixmier D slice y of (x + y)^3\n")
        session = parse_session(text)
        parsed = session.commands[0].terms
        d = load_environment(session).derivations["D"]
        y, f = (parse_polynomial(t, d.ring.vars) for t in ("y", "(x + y)^3"))
        with budget() as scope:
            dixmier(d, y, f)
        checked = scope.terms_used
        assert parsed > 0 and checked > 0
        for limit, status in [(parsed + checked - 1, "error"),
                              (parsed + checked, "ok")]:
            monkeypatch.setattr(config, "TERM_BUDGET", limit)
            report, _ = run(parse_session(text), RunConfig())
            entry = report["commands"][0]
            assert entry["status"] == status
            assert status == "ok" or "term budget" in entry["error"]

    def test_slice_test_stops_at_the_term_budget(self):
        # D(s) needs some 4.3 million term products: charged before they
        # are formed, they stop the command at once
        text = ("ring R = poly(x, y, z)\nderivation D on R { x -> (y + z + 1)^40 }\n"
                "dixmier D slice (x + y + z + 1)^30 of x\n")
        report, _ = run(parse_session(text), RunConfig())
        assert report["commands"][0]["error"] == \
            "term budget 1000000 exceeded by applying the derivation along x"

    def test_number_past_the_digit_limit_is_parse_error(self, tmp_path):
        text = "ring R = poly(x)\nideal I in R = ( x^" + "1" * 5000 + " )\n"
        assert _run_file(tmp_path, text) == (1, None)

    def test_unprintable_command_is_command_error(self, tmp_path):
        # 7^5200 has more digits than the interpreter converts to text: the
        # entry keeps the statement as written
        line = "check contained D in ( 7^5200 * x )"
        text = f"ring R = poly(x, y)\nderivation D on R {{ x -> 1 }}\n{line}\n"
        code, report = _run_file(tmp_path, text)
        assert code == 2
        entry = report["commands"][0]
        assert entry["status"] == "error"
        assert entry["error"] == "a coefficient of 14599 bits is too long to print"
        assert entry["command"] == line

    def test_unprintable_statement_prints_as_written(self):
        # a session that holds such a command still prints, and reparses
        line = "check contained D in ( 7^5200 * x )"
        text = f"ring R = poly(x, y)\nderivation D on R {{ x -> 1 }}\n{line}\n"
        printed = parse_session(text).pretty()
        assert printed.splitlines()[-1] == line
        assert parse_session(printed) == parse_session(text)

    @pytest.mark.parametrize("line", ["kernel D degree 2", "dixmier D slice y of x"])
    def test_uncertified_derivation_is_refused_in_session_terms(self, tmp_path, line):
        text = f"ring R = poly(x, y)\nderivation D on R {{ x -> x; y -> 1 }}\n{line}\n"
        code, report = _run_file(tmp_path, text)
        assert code == 2
        assert report["commands"][0]["error"] == (
            "derivation not certified locally nilpotent at the default bound")

    def test_bound_zero_printed(self):
        session = parse_session(PRELUDE + "check nilpotent D bound 0\n")
        assert session.pretty().endswith("check nilpotent D bound 0\n")


def test_docs_list_every_form():
    from lndkit import cli_runner

    assert len(_FORMS) == 17
    for form in _FORMS:
        assert f"    {form.usage}\n" in cli_runner.__doc__
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Session grammar", 1)[1].split("```")[1]
    examples = [re.sub(r" \[.*?\]", "", line.split("#")[0].strip())
                for line in block.splitlines() if line.strip()]
    kinds = [f.kind for line in examples for f in _FORMS
             if f.pattern.fullmatch(line)]
    assert sorted(kinds) == sorted(f.kind for f in _FORMS)


# -- grammar fuzzing ----------------------------------------------------------

_WORDS = sorted({w for f in _FORMS for w in re.findall(r"[a-z]+", f.usage)})
_SOUP = _WORDS + list("=(){},;[]#*^/+-") + ["->", "x", "y", "B", "D", "I",
                                            "S", "0", "1", "7", "\n"]


@given(st.text(max_size=80)
       | st.lists(st.sampled_from(_SOUP), max_size=30).map(" ".join))
@example("ideal I in B = ( \u00b2 )")   # a digit that int() rejects
@settings(max_examples=200)
def test_fuzz_parse_raises_only_parse_error(text):
    for prefix in ("", PRELUDE):
        try:
            parse_session(prefix + text)
        except ParseError:
            pass


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
# the template words are kept out of names: `dixmier D slice <poly> of
# <poly>` splits at the first free-standing `of`
_names = st.tuples(st.sampled_from(_LETTERS),
                   st.text(_LETTERS + "0123456789", max_size=4)).map(
    "".join).filter(lambda name: name not in _WORDS)


@st.composite
def _filled_form(draw, form):
    """A prelude declaring one object of each kind under random names, and
    random values for every slot of `form`, polynomials as Polynomials."""
    labels = draw(st.lists(_names, min_size=7, max_size=7, unique=True))
    vars = tuple(labels[:2])
    ring, sub, der, ideal, new = labels[2:]
    x, y = (Polynomial.variable(v, vars) for v in vars)
    c = st.integers(-3, 3)
    polys = st.tuples(c, c, c).map(lambda k: k[0] * x * y + k[1] * y + k[2])
    prelude = (f"ring {ring} = poly({', '.join(vars)})\n"
               f"subalgebra {sub} in {ring} = gens {{ {vars[0]} }}\n"
               f"derivation {der} on {ring} {{ {vars[1]} -> {vars[0]} }}\n"
               f"ideal {ideal} in {ring} = ( {vars[0]} )\n")
    values = {
        "new": st.just(new),
        "vars": st.just(vars),
        "ring": st.just(ring),
        "subalgebra": st.just(sub),
        "derivation": st.just(der),
        "ideal": st.just(ideal),
        "ring|subalgebra": st.sampled_from([ring, sub]),
        "int": st.integers(-5, 1000),
        "poly": polys,
        "polys": st.lists(polys, min_size=1, max_size=3).map(tuple),
        "images": st.lists(st.sampled_from(vars), min_size=1, max_size=2,
                           unique=True).flatmap(
            lambda vs: st.tuples(*(st.tuples(st.just(v), polys) for v in vs))),
    }
    optional = {slot for part in re.findall(r"\[(.*?)\]", form.template)
                for slot in re.findall(r"<(\w+):", part)}
    args = {}
    for slot, type_ in form.slots:
        strategy = values[type_]
        args[slot] = draw(st.none() | strategy if slot in optional else strategy)
    return prelude, Statement(form.kind, args)


@given(st.sampled_from(_FORMS).flatmap(_filled_form))
@settings(max_examples=100)
def test_fuzz_round_trip(filled):
    prelude, statement = filled
    session = parse_session(prelude + statement.pretty() + "\n")
    assert statement in session.declarations + session.commands
    assert parse_session(session.pretty()) == session


_RUN_PRELUDE = PRELUDE + """\
derivation E on S { x -> 1 }
ideal K in S = ( x, y^2 )
"""
_RUN_POLYS = st.sampled_from(["x", "y", "0", "1", "x*y", "x^2 - y", "y^2", "z"])
_RUN_VALUES = {
    "int": st.integers(-2, 3),
    "poly": _RUN_POLYS,
    "polys": st.lists(_RUN_POLYS, min_size=1, max_size=3).map(tuple),
    # mostly names of the right kind; B is a ring and Q is undeclared
    "derivation": st.sampled_from(["D", "E"] * 3 + ["B", "Q"]),
    "ideal": st.sampled_from(["I", "P", "K", "Z", "B", "Q"]),
    "subalgebra": st.sampled_from(["S"] * 3 + ["B", "Q"]),
}


@given(st.sampled_from([f for f in _FORMS if not f.declares]), st.data())
@settings(max_examples=60)
def test_fuzz_run_exit_code(tmp_path_factory, form, data):
    args = {}
    for slot, type_ in form.slots:
        args[slot] = data.draw(_RUN_VALUES[type_])
    budgets = []
    for flag in ("--pair-budget", "--dim-budget"):
        value = data.draw(st.none() | st.integers(0, 30))
        if value is not None:
            budgets += [flag, str(value)]
    text = _RUN_PRELUDE + Statement(form.kind, args).pretty() + "\n"
    session_file = tmp_path_factory.mktemp("fuzz") / "s.lnd"
    session_file.write_text(text, encoding="utf-8")
    out_file = session_file.with_name("report.json")
    code = main(["run", str(session_file), "--json", str(out_file)] + budgets)
    assert code in (0, 1, 2)
    if code != 1:   # exit 1 is a parse error, which writes no report
        report = json.loads(out_file.read_text(encoding="utf-8"))
        assert len(report["commands"]) == 1
        entry = report["commands"][0]
        if entry["status"] == "ok" and form.kind in ("grade-derivation", "grade-ideal"):
            # grade I <= height I on every ring the prelude declares
            env = load_environment(parse_session(text), RunConfig())
            h = capped_height(*graded_ideal(env, form.kind, args["name"]))
            claimed = CAPPED_GRADE[GradeValue(entry["value"]["grade"])]
            assert (claimed == inf) == (h == inf) and claimed <= h, text
