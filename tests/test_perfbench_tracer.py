"""The benchmark's tracer wraps library functions by name; every target it
names must still resolve, so that a traced run cannot break silently when a
traced layer is refactored."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads  # noqa: F401  (imports every library entry point it runs)

    for target in tracer.TARGETS:
        owner, attr, fn = tracer.resolve(target)
        assert callable(fn), target[0]
        assert getattr(owner, attr) is fn, target[0]


def test_every_kernel_job_passes_without_a_budget_stop(monkeypatch):
    # the kernel workload's jobs, under its coordinate changes for three
    # seeds: each must finish (a budget stop raises) with a correct output
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for seed in (1, 2, 3):
        for job in workloads.build("kernel", seed):
            assert job.check(job.call()) is None, (seed, job.name)
