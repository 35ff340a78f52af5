"""Closed-loop benchmark of the ``desing`` command line, one process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the repository root.  One client sends one job at a time: a job is
one in-process call of ``desing.cli.main([...])`` on a problem file that
set-up generated from the seed.  No thread or process is started; each job's
budget is a ``signal.setitimer`` alarm.  The timed run is a fixed number of
whole passes over the workload's job list, in proportion to ``--seconds``
(at least eleven jobs); short jobs may run more than once a pass.  Every
distinct output is checked afterwards, outside the timed region.

Times are normalised to a fixed host speed (``hostspeed.py``): a probe
sampled every 20 ms of CPU time measures how fast the shared host runs
during each job and each set-up, and the end-to-end metrics are computed
from the normalised times.  The raw figures are printed beside them.

Set-up (a fresh import of ``desing``, input generation and the writing of
the problem files) runs sixteen times before the timed passes and once more
between each two passes; ``setup_s`` is the median of those set-ups.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs passes
without and with the per-layer wrappers of ``tracing.py``, alternating
twice, prints the per-layer metrics of the first traced pass, checks that
every declared span fired and that the exact counters agree between the
two traced passes, and reports the tracing overhead.

Known-defect probes (a codimension-5 chain, a 62-bit prime field and one
tampered certificate per problem) run after the timed region.  They count
in ``failed_frac`` but not in the latency metrics, nor in the ``attempted``
and ``failed`` fields of the result line, which cover the timed jobs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

import workloads
from hostspeed import Sampler
from textfmt import CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 16       # before the timed passes; one more between passes
MIN_JOBS = 11
# Normalised seconds of one timed pass (``hostspeed.py``), measured on the
# 2-vCPU host where the benchmark was defined.  A run makes
# round(--seconds / NOMINAL_PASS_S) whole passes.  A fixed pass count gives
# the sample the same shape on every run, so a percentile lands on the same
# job kind however busy the host is.  The raw time of the passes is longer
# (about 1.3x on a typical host, see BASELINE.md), and set-ups, output
# checks and probes come on top.
NOMINAL_PASS_S = {"certify": 2.3, "lift": 3.9, "groebner": 3.2}


class BudgetExceeded(Exception):
    """Raised by the SIGALRM handler when a job outlives its budget."""


def _alarm(signum, frame):
    raise BudgetExceeded()


def _import_engine():
    """Import ``desing`` from this checkout's ``src`` only."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import desing.cli
    if not os.path.abspath(desing.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported desing from {desing.cli.__file__}")
    return desing.cli


class Engine:
    """The imported engine and the workload's problem files.

    ``set_up`` imports ``desing`` afresh, generates the inputs from the
    seed and writes the problem files, and records how long that took with
    the engine's host-speed ``Sampler``, which times the jobs too.
    The previous copy of the engine is dropped and collected first, outside
    the timed region, so its garbage is not charged to the next set-up.
    """

    def __init__(self, workload, seed, work):
        self.build = lambda: workloads.BUILDERS[workload](seed, work)
        self.cli = self.wl = None
        self.sampler = Sampler()
        self.setups = []             # hostspeed.Span of each set-up

    def _load(self):
        self.cli = _import_engine()
        self.wl = self.build()
        self.wl.write()

    def set_up(self):
        self.cli = self.wl = None
        for name in [m for m in sys.modules
                     if m == "desing" or m.startswith("desing.")]:
            del sys.modules[name]
        gc.collect()
        self.setups.append(self.sampler.measure(self._load)[1])


class Outcome:
    __slots__ = ("job", "code", "span", "error", "text")

    def __init__(self, job, code, span, error, text):
        self.job, self.code, self.span = job, code, span
        self.error, self.text = error, text


def run_job(engine, job):
    """One in-process call of the CLI under the job's budget."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(job.output)
    sink = io.StringIO()

    def call():
        try:
            with contextlib.redirect_stderr(sink), \
                    contextlib.redirect_stdout(sink):
                signal.setitimer(signal.ITIMER_REAL, job.budget)
                try:
                    return engine.cli.main(job.argv()), None
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExceeded:
            return None, f"exceeded its {job.budget:g} s budget"
        except Exception as exc:   # a traceback from the engine is a failed op
            return None, f"raised {type(exc).__name__}: {exc}"

    (code, error), span = engine.sampler.measure(call)
    if error is None and code not in job.expect:
        last = sink.getvalue().strip().splitlines()[-1:]
        error = f"exit {code}" + (f" ({last[0]})" if last else "")
    text = None
    if error is None and code == 0:
        with open(job.output, encoding="utf-8") as fh:
            text = fh.read()
    return Outcome(job, code, span, error, text)


class Ledger:
    """Outcomes of one kind of op, with distinct outputs kept for checks."""

    def __init__(self):
        self.outcomes = []
        self.outputs = {}          # job name -> {text: count}

    def add(self, outcome):
        self.outcomes.append(outcome)
        if outcome.text is not None:
            seen = self.outputs.setdefault(outcome.job.name, {})
            seen[outcome.text] = seen.get(outcome.text, 0) + 1

    def check(self, jobs):
        """Failures by op: errors, failed output checks, nondeterminism."""
        failures = [(o.job.name, o.error) for o in self.outcomes if o.error]
        for job in jobs:
            seen = self.outputs.get(job.name, {})
            if job.deterministic and len(seen) > 1:
                failures += [(job.name, "output differs between repeats")] \
                    * (sum(seen.values()) - max(seen.values()))
            for text, count in seen.items():
                try:
                    job.check(text)
                except CheckFailed as exc:
                    failures += [(job.name, str(exc))] * count
        return failures


def timed_loop(engine, passes):
    """Run ``passes`` whole passes, with a fresh set-up between two passes
    so that the set-up samples spread over the run; returns the ledger."""
    ledger = Ledger()
    for i in range(passes):
        if i:
            engine.set_up()
        for job in engine.wl.one_pass():
            ledger.add(run_job(engine, job))
    return ledger


def tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(ledger, setups):
    """End-to-end metrics over the ops' host-speed-normalised times.

    Other tenants slow this host by up to 2.3x, in stretches from a
    fraction of a second to minutes, far more than the differences the
    benchmark must resolve, and CPU time slows with wall time.  So every
    op and every set-up is charged its normalised time (``hostspeed.py``):
    its time at the speed where the probe takes ``hostspeed.NOMINAL_S``.
    The raw figures are printed beside the metrics.
    """
    spans = [o.span for o in ledger.outcomes]
    n = len(spans)
    lat = [s.norm_wall * 1000 for s in spans]
    raw = [s.wall * 1000 for s in spans]
    tail_ms, pct = tail(lat)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(s.norm_wall for s in setups), "s",
                    f"median of {len(setups)} set-ups, {SETUP_REPEATS} before "
                    "the passes and one between two passes; raw "
                    f"{statistics.median(s.wall for s in setups):.4g}"),
        "jobs_per_s": (n * 1000 / sum(lat), "1/s",
                       f"raw {n * 1000 / sum(raw):.4g} over {n} jobs in "
                       f"{sum(raw) / 1000:.2f} s"),
        "job_p50_ms": (statistics.median(lat), "ms",
                       f"{n} ops; raw {statistics.median(raw):.4g}"),
        "job_tail_ms": (tail_ms, "ms",
                        f"p{pct:.1f} of {n} ops, {n - round(pct * n / 100)} "
                        f"beyond; raw {tail(raw)[0]:.4g}"),
        "cpu_ms_per_job": (sum(s.norm_cpu for s in spans) * 1000 / n, "ms",
                           f"raw {sum(s.cpu for s in spans) * 1000 / n:.4g}"),
        "peak_rss_mb": (rss_kb / 1024, "MB", "ru_maxrss after the timed run"),
    }
    verify = [ms for o, ms in zip(ledger.outcomes, lat)
              if o.job.subcommand == "verify"]
    if verify:
        metrics["verify_p50_ms"] = (statistics.median(verify), "ms",
                                    f"{len(verify)} ops")
    return metrics


END_TO_END = ("setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms",
              "cpu_ms_per_job", "peak_rss_mb")


def measure(engine, seconds):
    """Untraced run: timed passes, output checks, then the probes.  The
    host-speed sampler runs from the first set-up to the last timed op."""
    passes = max(round(seconds / NOMINAL_PASS_S[engine.wl.name]),
                 -(-MIN_JOBS // len(engine.wl.one_pass())))
    ledger = timed_loop(engine, passes)
    engine.sampler.stop()
    wl = engine.wl
    metrics = end_to_end(ledger, engine.setups)
    by_job = {}
    for o in ledger.outcomes:
        by_job.setdefault(o.job.name, []).append(o.span)
    for name, spans in by_job.items():
        print(f"job {name}: normalised p50 "
              f"{statistics.median(s.norm_wall for s in spans) * 1000:.1f} "
              f"ms, raw best {min(s.wall for s in spans) * 1000:.1f} ms, "
              f"over {len(spans)} runs")
    failures = ledger.check(wl.jobs)

    probes = wl.probes + workloads.tamper_probes(wl, ledger.outputs)
    probe_ledger = Ledger()
    for job in probes:
        probe_ledger.add(run_job(engine, job))
    probe_failures = dict(probe_ledger.check(probes))
    for o in probe_ledger.outcomes:
        verdict = probe_failures.get(o.job.name)
        print(f"probe {o.job.name}: "
              + (f"FAILED, {verdict}" if verdict else f"ok, exit {o.code}")
              + f" in {o.span.wall:.2f} s")
    attempted = len(ledger.outcomes)
    metrics["failed_frac"] = (
        (len(failures) + len(probe_failures)) / (attempted + len(probes)),
        "ratio", f"{len(failures)} of {attempted} jobs and "
                 f"{len(probe_failures)} of {len(probes)} probes failed")
    return metrics, failures, attempted, END_TO_END, []


def measure_traced(engine):
    """Untraced and traced passes of the same jobs, alternating twice.

    The per-layer metrics come from the first traced pass; the second must
    repeat its exact counters.  The overhead compares the faster pass of
    each kind."""
    import tracing
    wl = engine.wl
    ledgers, untraced, traced, tracers = [], [], [], []
    for install in (False, True, False, True):
        tracer = tracing.Tracer()
        try:
            if install:
                tracer.install()
            ledger = Ledger()
            t0 = time.perf_counter()
            for job in wl.jobs:
                ledger.add(run_job(engine, job))
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        ledgers.append(ledger)
        if install:
            traced.append(wall)
            tracers.append(tracer)
        else:
            untraced.append(wall)
    metrics = {k: v + ("",) for k, v in tracers[0].metrics().items()}
    metrics["trace.overhead_s"] = (
        min(traced) - min(untraced), "s",
        f"best traced pass {min(traced):.2f} s minus best untraced pass "
        f"{min(untraced):.2f} s")
    second = tracers[1].metrics()
    problems = [f"span never fired: {name}"
                for name in tracers[0].silent_spans(wl.name)]
    problems += [f"exact counter {name} differs between traced passes: "
                 f"{metrics[name][0]} vs {second[name][0]}"
                 for name in tracing.EXACT
                 if metrics[name][0] != second[name][0]]
    failures = [f for ledger in ledgers for f in ledger.check(wl.jobs)]
    attempted = sum(len(ledger.outcomes) for ledger in ledgers)
    recorded = tracing.RECORDED + ("trace.overhead_s",)
    return metrics, failures, attempted, recorded, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in NOMINAL_PASS_S:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(NOMINAL_PASS_S))
    if not os.path.isfile(os.path.join(SRC, "desing", "cli.py")):
        sys.exit(f"error: no engine source under {SRC}")
    signal.signal(signal.SIGALRM, _alarm)
    work = os.path.join(HERE, "_work", args.workload)
    os.makedirs(work, exist_ok=True)
    engine = Engine(args.workload, args.seed, work)
    if not args.trace:
        engine.sampler.start()
    for _ in range(SETUP_REPEATS):
        engine.set_up()

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        metrics, failures, attempted, recorded, problems = \
            measure_traced(engine)
    else:
        metrics, failures, attempted, recorded, problems = \
            measure(engine, args.seconds)
    for name, msg in failures[:20]:
        print(f"FAILED {name}: {msg}")
    for msg in problems:
        print(f"SELF-CHECK {msg}")
    for name, (value, unit, note) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in recorded},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
