"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

The smoke tests start the benchmark as a subprocess for about one pass per
workload, so this file takes a minute or two.
"""

import cProfile
import json
import pstats
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from lndkit import BudgetExceededError, format_polynomial

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _job(workload, name):
    return next(j for j in workloads.build(workload, 1) if j.name == name)


# ---------------------------------------------------------------------------
# recorded expectations against an independent Groebner implementation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,gens", [
    ("katsura-5", workloads.katsura(5)),
    ("katsura-6", workloads.katsura(6)),
    ("cyclic-5", workloads.cyclic(5)),
])
def test_reduced_bases_match_sympy(name, gens):
    sympy = pytest.importorskip("sympy")
    job = _job("ideals", f"groebner {name}")
    basis = job.call()
    assert job.check(basis) is None
    symbols = sympy.symbols(gens[0].vars)
    env = dict(zip(gens[0].vars, symbols))

    def expr(p):
        return sympy.sympify(format_polynomial(p).replace("^", "**"), locals=env)

    def monic(e):
        # sympy returns primitive integer polynomials, lndkit monic ones
        return sympy.Poly(e, *symbols, domain="QQ").monic().as_expr()

    theirs = sympy.groebner([expr(g) for g in gens], *symbols, order="grevlex")
    assert len(basis) == len(theirs.exprs) == workloads.EXPECTED["ideals"][name]["size"]
    assert {monic(expr(p)) for p in basis} == {monic(e) for e in theirs.exprs}


def test_ideals_jobs_pass_their_checks():
    for job in workloads.build("ideals", 3):
        assert job.check(job.call()) is None, job.name


def test_coordinate_change_keeps_kernel_expectations():
    for seed in (1, 2):
        jobs = {j.name: j for j in workloads.build("kernel", seed)}
        for name in ("kernel_generators n=4 d=6", "verify_generators n=4 d=6",
                     "slice_search n=5 d=5"):
            job = jobs[name]
            assert job.check(job.call()) is None, (seed, name)


# ---------------------------------------------------------------------------
# job metrics and outcomes
# ---------------------------------------------------------------------------

def test_job_times_do_not_depend_on_the_pass_count():
    mix = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 3.0, "e": 0.5, "f": 1.0}
    for passes in (1, 3, 10, 11, 20):
        times = [(name, t) for _ in range(passes) for name, t in mix.items()]
        per_s, p50, tail, slowest = run.job_stats(run.job_medians(times))
        assert per_s == pytest.approx(6 / 5.1)
        assert p50 == pytest.approx(0.4)
        assert (tail, slowest) == (3.0, "d")


def test_budget_stops_are_wrong_except_on_the_known_defect():
    def stop():
        raise BudgetExceededError("pair budget exhausted")

    def ok(out):
        return None

    for known_defect, wrong in ((True, 0), (False, 1)):
        job = workloads.Job("budget stop", stop, ok, known_defect=known_defect)
        loop = run.Loop([job], random.Random(0), BudgetExceededError)
        loop.one_pass()
        assert (loop.attempted, len(loop.failures), loop.wrong) == (1, 1, wrong)


# ---------------------------------------------------------------------------
# tracer fidelity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload,name", [
    ("corpus", "session derived_uv.lnd"),
    ("ideals", "curve symbolic power 3"),
    ("kernel", "kernel_generators n=4 d=6"),
])
def test_tracer_counts_match_cprofile(workload, name):
    job = _job(workload, name)
    profile = cProfile.Profile()
    profile.runcall(job.call)
    stats = pstats.Stats(profile).stats
    originals = {}
    for target in tracer.TARGETS:
        fn = tracer.resolve(target)[2]
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        originals[target[0]] = (fn, stats[key][1] if key in stats else 0)

    with tracer.Tracer([workloads]) as tr:
        tr.on = True
        job.call()
        tr.on = False
        rebound = tr.rebound()
    counts = tr.calls()
    assert {n: c for n, (_, c) in originals.items()} == counts
    assert sum(counts.values()) > 0
    # every rebound attribute is the original function again
    assert rebound
    for owner, attr, original in rebound:
        assert vars(owner)[attr] is original
    for target in tracer.TARGETS:
        assert tracer.resolve(target)[2] is originals[target[0]][0]


# ---------------------------------------------------------------------------
# smoke test of the harness
# ---------------------------------------------------------------------------

def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name in result["metrics"]:
        assert any(line.split()[:1] == [name] for line in lines[:-1]), name
    assert result["correct"] is True
    if not trace:
        assert any(line.split()[:1] == ["fail_frac"] for line in lines[:-1])

    # at the seed commit only the known-defect job fails, once a pass
    failed = [line for line in lines[:-1] if line.strip().startswith("failed x")]
    if workload == "kernel":
        passes = result["attempted"] // 6
        assert result["attempted"] == 6 * passes
        assert result["failed"] == passes
        assert len(failed) == 1 and workloads.KNOWN_DEFECT in failed[0]
    else:
        assert result["failed"] == 0 and not failed


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run(["--workload", "corpus", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
