"""Closed-loop benchmark of lndkit on one workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: lndkit is imported from ``src/``
and nowhere else.  One process and one thread run one job at a time, in
whole passes over the workload's jobs (the seed shuffles each pass), until
``--seconds`` have passed.  Every output is checked.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced run with ``--trace 1``.  The lines before it
show every metric with its unit and sample count.  See README.md.
"""

import argparse
import bisect
import gc
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# at least this many passes in an end-to-end run, so that each job's
# median is taken over three runs or more
MIN_PASSES = 3
SETUP_PROBES = 11         # fresh processes timed for setup_s
SETUP_PROBE_TIMEOUT = 60  # seconds
SPEED_INTERVAL_S = 0.05   # a speed probe interrupts the loop this often
SETUP_SPEED_INTERVAL_S = 0.01   # and a set-up this often
# set-up time goes as this power of the probe time: over 30 to 40 fresh
# interpreters of corpus and of kernel, log set-up time against log mean
# probe time had slopes of 0.68 and 0.75 (correlations 0.90)
SETUP_SPEED_EXPONENT = 0.75
# typical speed probe time on the machine the baseline was recorded on
SPEED_NOMINAL_S = 0.0012

_PROBE_TERMS = {(i, j, k): Fraction(i + 1, j + 2)
                for i in range(3) for j in range(3) for k in range(2)}


def speed_probe():
    """Wall time of a fixed product of two sparse polynomials over Q, the
    kind of work lndkit's inner loops do, written without lndkit.  The
    garbage collector is off while it runs, so that a collection of
    lndkit's heap is not charged to the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = {}
        for m1, c1 in _PROBE_TERMS.items():
            for m2, c2 in _PROBE_TERMS.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out[m] = out.get(m, 0) + c1 * c2
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Speed probes run from a SIGALRM timer while the loop runs.

    A shared host can slow this process by up to half, for seconds at a
    time, and the slowdown drifts from minute to minute: unscaled, the
    corpus throughput of five runs had quartiles 40% of the median apart.
    Every job time
    is therefore scaled to a fixed machine speed: the job's wall time, less
    the probes that interrupted it, times SPEED_NOMINAL_S over the mean
    probe time during the job (the nearest probe when none fell inside).
    The probes come at even intervals, so their mean tracks the job's mean
    slowdown: on the kernel jobs, log job time against log mean probe time
    gave slopes of 0.75 to 1.04 and correlations of 0.82 to 0.97.  The
    host's slow spells make the probe times bimodal, so the median probe
    would track the job worse: over six runs each of the three slowest
    kernel jobs, times scaled by the median varied 3 to 4 times as much as
    times scaled by the mean (coefficients of variation 7.5-8.8% against
    2.1-6.7%).
    """

    def __init__(self, interval=SPEED_INTERVAL_S):
        self.interval = interval
        self.starts = []   # perf_counter at each probe
        self.probe = []    # probe time
        self.spent = []    # time the handler took

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        probe = speed_probe()
        self.starts.append(t0)
        self.probe.append(probe)
        self.spent.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, t0, t1):
        """Seconds at nominal speed for the interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if hi > lo:
            probe = statistics.fmean(self.probe[lo:hi])
        elif lo > 0:
            probe = self.probe[lo - 1]
        elif hi < len(self.probe):
            probe = self.probe[hi]
        else:
            return t1 - t0
        net = t1 - t0 - sum(self.spent[lo:hi])
        return net * SPEED_NOMINAL_S / probe


def import_lndkit():
    """Put the checkout's src/ first on the path; refuse any other lndkit."""
    src = ROOT / "src"
    if not (src / "lndkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lndkit sources under {src}")
    sys.path.insert(0, str(src))
    import lndkit
    if Path(lndkit.__file__).resolve().parent != src / "lndkit":
        sys.exit(f"perfbench: imported lndkit from {lndkit.__file__}, not {src}")
    return lndkit


class Loop:
    """Runs whole passes of the jobs and records every job's outcome."""

    def __init__(self, jobs, rng, budget_error, tracer=None, setup=None):
        self.jobs = jobs
        self.rng = rng
        self.budget_error = budget_error
        self.tracer = tracer
        self.setup = setup
        self.samples = []      # (job name, start, end) of every job run
        self.passes = 0
        self.failures = []     # (job name, reason)
        self.wrong = 0         # outputs that differ from the expected ones

    @property
    def attempted(self):
        return len(self.samples)

    def run(self, seconds, min_passes=1):
        deadline = time.perf_counter() + seconds
        while True:
            self.one_pass()
            if time.perf_counter() >= deadline and self.passes >= min_passes:
                return

    def one_pass(self):
        order = list(self.jobs)
        self.rng.shuffle(order)
        for job in order:
            if self.setup is not None:
                self.setup.poll()
            if self.tracer is not None:
                self.tracer.job = self.attempted
                self.tracer.on = True
            t0 = time.perf_counter()
            try:
                out = job.call()
                error = None
            except self.budget_error as exc:
                error = f"budget: {type(exc).__name__}"
                if not job.known_defect:   # a new budget stop is a wrong result
                    self.wrong += 1
            except Exception as exc:  # any crash is a failed, incorrect job
                error = f"raised {type(exc).__name__}: {exc}"
                self.wrong += 1
            t1 = time.perf_counter()
            if self.tracer is not None:
                self.tracer.on = False
            self.samples.append((job.name, t0, t1))
            if error is None:
                error = job.check(out)
                if error is not None:
                    self.wrong += 1
            if error is not None:
                self.failures.append((job.name, error))
        self.passes += 1

    def job_times(self, speed=None):
        """(job name, seconds) of every job run, scaled when given a Speed."""
        if speed is None:
            return [(name, t1 - t0) for name, t0, t1 in self.samples]
        return [(name, speed.scaled(t0, t1)) for name, t0, t1 in self.samples]


def job_medians(times):
    """Median time of each job from (job name, seconds) pairs.

    Jobs are deterministic, so what varies between runs of one job is
    interference that the speed scaling leaves over.  The metrics count
    each job once, at its median: with whole passes of jobs whose times
    differ by up to a hundredfold, the median over the runs themselves
    falls between two jobs, and on corpus its quartiles over five runs were
    31% of the median apart.
    """
    by_job = {}
    for name, t in times:
        by_job.setdefault(name, []).append(t)
    return {name: statistics.median(ts) for name, ts in by_job.items()}


def job_stats(medians):
    """jobs_per_s, job_s.p50, job_s.tail and the slowest job's name, from
    each job's median time.

    The tail is the slowest job's median.  Over the runs themselves, the
    highest percentile with ten samples beyond it falls on the slowest job
    once every job has run eleven times, but on a faster job of the mix
    with fewer passes, so it would move with the pass count.
    """
    slowest = max(medians, key=medians.get)
    return (len(medians) / sum(medians.values()),
            statistics.median(medians.values()), medians[slowest], slowest)


class SetupTimer:
    """Set-up time of fresh interpreters: from starting one until it has
    imported lndkit and built every input of the workload.  Each runs speed
    probes while it sets up and reports the clock (system-wide and
    monotonic) when its inputs are built, the time the probes took and
    their mean.  Its set-up time, less the probes, is scaled to nominal
    speed like a job's, but by the speed ratio to the power
    SETUP_SPEED_EXPONENT: starting an interpreter and importing modules
    slows down less than the probe does.  The interpreters are spread over
    the run, so that they meet the host's slow and fast spells alike."""

    def __init__(self, workload, seed, seconds):
        self.command = [sys.executable, str(HERE / "run.py"), "--workload",
                        workload, "--seed", str(seed), "--seconds", "0",
                        "--setup-only"]
        start = time.perf_counter()
        self.due = [start + k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.times = []

    def poll(self, finish=False):
        while self.due and (finish or time.perf_counter() >= self.due[0]):
            self.due.pop(0)
            t0 = time.perf_counter()
            proc = subprocess.run(self.command, check=True, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=SETUP_PROBE_TIMEOUT)
            built, spent, probe = map(float, proc.stdout.split())
            ratio = SPEED_NOMINAL_S / probe
            self.times.append((built - t0 - spent) * ratio ** SETUP_SPEED_EXPONENT)

    def median(self):
        self.poll(finish=True)
        return statistics.median(self.times)


def report_setup(workload, seed):
    """In a set-up interpreter: build the inputs under speed probes, then
    print the clock when they were built, the time the probes took and
    their mean, for SetupTimer."""
    with Speed(SETUP_SPEED_INTERVAL_S) as speed:
        import_lndkit()
        import workloads
        workloads.build(workload, seed)
        built = time.perf_counter()
    probes = speed.probe or [speed_probe()]
    print(repr(built), repr(sum(speed.spent)), repr(statistics.fmean(probes)))


def end_to_end(loop, speed, setup_s):
    medians = job_medians(loop.job_times(speed))
    per_s, p50, tail, slowest = job_stats(medians)
    k = len(medians)
    runs = f"each the median of {loop.passes} runs"
    rows = [
        ("jobs_per_s", per_s, "1/s", f"{k} jobs a pass, {loop.passes} passes"),
        ("job_s.p50", p50, "s", f"p50 of {k} job times, {runs}"),
        ("job_s.tail", tail, "s", f"p100 of {k} job times, {runs}: {slowest}"),
        ("setup_s", setup_s, "s", f"median of {SETUP_PROBES} fresh processes"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
         "MB", "ru_maxrss of this process"),
        ("fail_frac", len(loop.failures) / loop.attempted, "frac",
         f"{len(loop.failures)} of {loop.attempted} jobs"),
    ]
    _, raw_p50, raw_tail, _ = job_stats(job_medians(loop.job_times()))
    note = (f"  unscaled: job_s.p50 {raw_p50:.6g} s, job_s.tail {raw_tail:.6g} s; "
            f"{len(speed.probe)} speed probes, "
            f"median {statistics.median(speed.probe) * 1e3:.4f} ms")
    return rows, note


def show(rows):
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        report_setup(args.workload, args.seed)
        return 0
    lndkit = import_lndkit()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    jobs = workloads.build(args.workload, args.seed)

    rng = random.Random(args.seed)
    budget = (lndkit.BudgetExceededError, lndkit.DimensionBudgetError)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.trace:
        # untraced and traced halves, for the per-layer numbers and the
        # tracing overhead; no speed probes, so that none lands in a span
        import tracer as tracing
        plain = Loop(jobs, rng, budget)
        plain.run(args.seconds / 2)
        with tracing.Tracer([workloads]) as tr:
            traced = Loop(jobs, rng, budget, tracer=tr)
            traced.run(args.seconds / 2)
        layers = tracing.layer_metrics(tr, traced.passes)
        plain_s = sum(job_medians(plain.job_times()).values())
        traced_s = sum(job_medians(traced.job_times()).values())
        layers["trace_overhead_frac"] = (plain_s / traced_s - 1, "frac")
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tr.write(out_dir / f"spans-{args.workload}-{args.seed}.tsv")
        loops = (plain, traced)
        print(f"per layer, per pass over {traced.passes} traced passes "
              f"({len(tr.start)} spans):")
        show([(k, v, u, "") for k, (v, u) in layers.items()])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        setup = SetupTimer(args.workload, args.seed, args.seconds)
        with Speed() as speed:
            loop = Loop(jobs, rng, budget, setup=setup)
            loop.run(args.seconds, MIN_PASSES)
            setup_s = setup.median()
        loops = (loop,)
        rows, note = end_to_end(loop, speed, setup_s)
        print("end to end:")
        show(rows)
        print(note)
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows if name != "fail_frac"}

    failures = [f for lp in loops for f in lp.failures]
    for name, reason in sorted(set(failures)):
        count = failures.count((name, reason))
        print(f"  failed x{count}: {name}: {reason}")
    print(json.dumps({
        "correct": sum(lp.wrong for lp in loops) == 0,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
