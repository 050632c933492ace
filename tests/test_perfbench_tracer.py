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
