"""Span tracer for lndkit's public layer functions, driven from outside.

lndkit modules import each other's functions by name (``remainder`` into
``groebner_engine``, ``nullspace`` into ``kernel_lab``, ...), so wrapping a
function in its home module alone would miss most calls.  ``Tracer``
therefore rebinds every attribute of every ``lndkit.*`` module (and of the
extra namespaces it is given) that *is* a traced function, plus the traced
methods on their classes, and puts every original back on exit.

Each call records one span: name, start, end, parent span, job id, an
optional value noted from the call (a result size, a matrix shape) and the
name of the exception it raised, if any.  Spans stay in memory;
``layer_metrics`` reduces them to the per-layer numbers.
"""

from __future__ import annotations

import importlib
import sys
import time


def _is_zero(args, kwargs, result):
    return result.is_zero()


def _length(args, kwargs, result):
    return len(result)


def _cells(args, kwargs, result):
    rows, ncols = args[0], args[-1]
    return len(rows) * ncols


def _kept(args, kwargs, result):
    candidates = sum(1 for p in result.basis if not p.is_constant())
    return (len(result.generators), candidates)


# (span name, module, attribute path, value noted from the call)
TARGETS = (
    ("cli_runner.parse_session", "cli_runner", "parse_session", None),
    ("cli_runner.run", "cli_runner", "run", None),
    ("cli_runner.report_to_json", "cli_runner", "report_to_json", None),
    ("poly_core.remainder", "poly_core", "remainder", _is_zero),
    ("poly_core.parse_polynomial", "poly_core", "parse_polynomial", None),
    ("poly_core.gcd", "poly_core", "gcd", None),
    ("groebner_engine.buchberger", "groebner_engine", "buchberger", _length),
    ("groebner_engine.ideal_member", "groebner_engine", "ideal_member", None),
    ("groebner_engine.ideal_quotient", "groebner_engine", "ideal_quotient", None),
    ("groebner_engine.saturation", "groebner_engine", "saturation", None),
    ("groebner_engine.eliminate", "groebner_engine", "eliminate", None),
    ("presentation.subalgebra", "presentation", "Subalgebra.__init__", None),
    ("presentation.member", "presentation", "Subalgebra.member", None),
    ("presentation.nzd_test", "presentation", "nzd_test", None),
    ("derivation_engine.apply", "derivation_engine", "apply", None),
    ("derivation_engine.certify_nilpotent", "derivation_engine",
     "certify_nilpotent", None),
    ("derivation_engine.restricts_to", "derivation_engine", "restricts_to", None),
    ("grade_analyzer.grade_of_derivation", "grade_analyzer",
     "grade_of_derivation", None),
    ("grade_analyzer.grade_two_generated", "grade_analyzer",
     "grade_two_generated", None),
    ("grade_analyzer.generic_combination_grade", "grade_analyzer",
     "generic_combination_grade", None),
    ("kernel_lab.standard_monomials", "kernel_lab", "standard_monomials", _length),
    ("kernel_lab.kernel_basis", "kernel_lab", "kernel_basis", None),
    ("kernel_lab.kernel_generators", "kernel_lab", "kernel_generators", _kept),
    ("kernel_lab.slice_search", "kernel_lab", "slice_search", None),
    ("kernel_lab.verify_generators", "kernel_lab",
     "verify_generators_up_to_degree", None),
    # metric names must start with a letter, so _linalg reports as linalg
    ("linalg.nullspace", "_linalg", "nullspace", _cells),
    ("linalg.solve", "_linalg", "solve", _cells),
    ("linalg.rank", "_linalg", "rank", _cells),
    ("linalg.rowspace.insert", "_linalg", "RowSpace.insert", None),
    ("linalg.rowspace.contains", "_linalg", "RowSpace.contains", None),
    ("rees_builder.symbolic_power", "rees_builder", "symbolic_power", None),
    ("rees_builder.rees_truncation", "rees_builder", "rees_truncation", None),
)


def resolve(target):
    """(owner, attribute name, original function) of one TARGETS entry."""
    _, module, path, _ = target
    owner = importlib.import_module(f"lndkit.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Context manager that records spans while ``on`` is true."""

    def __init__(self, namespaces=()):
        self.namespaces = list(namespaces)
        self.names = [t[0] for t in TARGETS]
        self.on = False
        self.job = -1
        # one entry per span, in parallel lists
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.job_of = []
        self.value = []
        self.error = []
        self._stack = [-1]
        self._restore = []

    def _wrap(self, index, fn, note):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = len(tracer.start)
            tracer.name.append(index)
            tracer.parent.append(tracer._stack[-1])
            tracer.job_of.append(tracer.job)
            tracer.value.append(None)
            tracer.error.append(None)
            tracer.end.append(0.0)
            tracer._stack.append(span)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[span] = clock()
                tracer.error[span] = type(exc).__name__
                tracer._stack.pop()
                raise
            tracer.end[span] = clock()
            tracer._stack.pop()
            if note is not None:
                tracer.value[span] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def __enter__(self):
        wrappers = {}
        for index, target in enumerate(TARGETS):
            owner, attr, fn = resolve(target)
            wrapper = self._wrap(index, fn, target[3])
            wrappers[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                self._rebind(owner, attr, fn, wrapper)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "lndkit" or name.startswith("lndkit.")]
        for ns in modules + self.namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(ns, attr, value, hit[1])
        return self

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def __exit__(self, *exc):
        self.on = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def rebound(self):
        """(owner, attribute, original) for every attribute rebound so far."""
        return list(self._restore)

    def calls(self):
        """Span count per span name."""
        counts = dict.fromkeys(self.names, 0)
        for i in self.name:
            counts[self.names[i]] += 1
        return counts

    def write(self, path):
        """Write the spans out as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\tvalue\terror\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job_of[i]}\t"
                         f"{self.value[i]}\t{self.error[i]}\n")


def layer_metrics(tr, passes):
    """Per-layer metrics from the spans of ``passes`` whole passes.

    Times and counts are per pass of the workload's job mix; maxima and
    fractions are over the whole traced run.
    """
    n = len(tr.start)
    names = [tr.names[i] for i in tr.name]
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]

    def ancestors(i):
        p = tr.parent[i]
        while p >= 0:
            yield names[p]
            p = tr.parent[p]

    def under(i, prefix):
        return any(a.startswith(prefix) for a in ancestors(i))

    calls, total, self_s = {}, {}, {}
    for i in range(n):
        calls[names[i]] = calls.get(names[i], 0) + 1
        total[names[i]] = total.get(names[i], 0.0) + dur[i]
        self_s[names[i]] = self_s.get(names[i], 0.0) + dur[i] - child[i]

    def spans(*wanted):
        return [i for i in range(n) if names[i] in wanted]

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for name in ("cli_runner.parse_session", "cli_runner.run",
                 "cli_runner.report_to_json", "poly_core.remainder",
                 "poly_core.parse_polynomial", "poly_core.gcd",
                 "groebner_engine.buchberger", "derivation_engine.apply",
                 "linalg.nullspace"):
        put(f"{name}.self_s", per_pass(self_s.get(name, 0.0)), "s")
    for name in ("poly_core.remainder", "groebner_engine.buchberger",
                 "groebner_engine.ideal_member", "groebner_engine.saturation",
                 "presentation.subalgebra", "presentation.member",
                 "presentation.nzd_test", "derivation_engine.apply",
                 "linalg.nullspace"):
        put(f"{name}.calls", per_pass(calls.get(name, 0)), "count")
    for name in ("groebner_engine.ideal_member", "groebner_engine.eliminate",
                 "presentation.subalgebra", "presentation.nzd_test",
                 "derivation_engine.certify_nilpotent",
                 "derivation_engine.restricts_to", "kernel_lab.kernel_basis",
                 "kernel_lab.kernel_generators", "kernel_lab.slice_search",
                 "kernel_lab.verify_generators", "rees_builder.symbolic_power",
                 "rees_builder.rees_truncation"):
        put(f"{name}.total_s", per_pass(total.get(name, 0.0)), "s")

    sizes = [tr.value[i] for i in spans("groebner_engine.buchberger")
             if tr.value[i] is not None]
    put("groebner_engine.buchberger.basis_max", max(sizes, default=0), "count")
    reductions = [i for i in spans("poly_core.remainder")
                  if tr.parent[i] >= 0
                  and names[tr.parent[i]] == "groebner_engine.buchberger"]
    put("groebner_engine.reductions", per_pass(len(reductions)), "count")
    zero = sum(1 for i in reductions if tr.value[i])
    put("groebner_engine.zero_reduction_frac", ratio(zero, len(reductions)), "frac")
    quotients = sum(1 for i in spans("groebner_engine.ideal_quotient")
                    if under(i, "groebner_engine.saturation"))
    put("groebner_engine.quotients_per_saturation",
        ratio(quotients, calls.get("groebner_engine.saturation", 0)), "count")
    stops = sum(1 for i in spans("groebner_engine.buchberger")
                if tr.error[i] == "BudgetExceededError")
    put("groebner_engine.budget_exceeded", per_pass(stops), "count")

    grades = [i for i in range(n) if names[i].startswith("grade_analyzer.")
              and not under(i, "grade_analyzer.")]
    put("grade_analyzer.grade.calls", per_pass(len(grades)), "count")
    put("grade_analyzer.grade.total_s", per_pass(sum(dur[i] for i in grades)), "s")
    nzd = sum(1 for i in spans("presentation.nzd_test") if under(i, "grade_analyzer."))
    put("grade_analyzer.nzd_tests_per_grade", ratio(nzd, len(grades)), "count")

    monomials = [tr.value[i] for i in spans("kernel_lab.standard_monomials")
                 if tr.value[i] is not None]
    put("kernel_lab.standard_monomials.max", max(monomials, default=0), "count")
    kept = [tr.value[i] for i in spans("kernel_lab.kernel_generators")
            if tr.value[i] is not None]
    put("kernel_lab.generators_kept_frac",
        ratio(sum(k for k, _ in kept), sum(c for _, c in kept)), "frac")

    cells = sum(tr.value[i] or 0
                for i in spans("linalg.nullspace", "linalg.solve", "linalg.rank"))
    put("linalg.matrix_cells", per_pass(cells), "count")
    rowspace = spans("linalg.rowspace.insert", "linalg.rowspace.contains")
    put("linalg.rowspace.calls", per_pass(len(rowspace)), "count")
    put("linalg.rowspace.self_s",
        per_pass(sum(dur[i] - child[i] for i in rowspace)), "s")
    members = sum(1 for i in spans("groebner_engine.ideal_member")
                  if under(i, "rees_builder."))
    put("rees_builder.member_checks", per_pass(members), "count")
    return out
