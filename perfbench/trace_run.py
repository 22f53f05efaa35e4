"""Traced run: per-layer time and call counts for one workload.

The workload's jobs are replayed in this process through `indpoly.cli.main`,
so every library call happens in the order the CLI makes it.  Spans are
recorded from here, around the public functions listed in LAYERS, by
rebinding those names in the indpoly modules for the length of the replay;
no file of the program changes.  Three replays are made:

1. untraced, for the wall time the tracing overhead is measured against;
2. traced, giving each layer's self time (span time minus its child spans);
3. under cProfile, which only supplies the `*_calls` counts; they are
   deterministic for a given seed, unlike its timings.

The first two alternate job by job.  `trace.overhead_frac` is the time the
spans add, as a share of the untraced replay: the spans recorded times the
cost of one span, measured on a no-op through the same wrapper.  On hard64 a
job makes a handful of spans in seconds of work, so comparing the two
replays' wall times directly would only show machine noise; that ratio is
printed as a cross-check.

The replays share the run's deadline: a replay still going then is stopped
and its unfinished jobs count as failed.

The import split comes from `python -X importtime` in a child process.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import io
import signal
import statistics
import subprocess
import sys
import time
import timeit
from collections import defaultdict

import check
import harness
import workloads
from workloads import Job

IMPORT_REPEATS = 5
CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 7

# metric prefix -> (module, attribute) of each public function to span;
# several functions may share one prefix (the four products, the four
# formulas).  `IntPoly.compose` is a method, named as "class.method".
LAYERS = {
    "graphs.parse_graph6": [("graphs", "parse_graph6")],
    "graphs.build_family": [("graphs", "build_family")],
    "graphs.alpha": [("graphs", "alpha")],
    "graphs.tree_canonical_code": [("graphs", "tree_canonical_code")],
    "engine.independence_polynomial": [("engine", "independence_polynomial")],
    "polynomials.property_report": [("polynomials", "property_report")],
    "polynomials.real_rooted": [("polynomials", "real_rooted")],
    "polynomials.compose": [("polynomials", "IntPoly.compose")],
    "products.graph": [("products", name) for name in
                       ("disjoint_union", "join", "lexicographic", "rooted_product")],
    "products.formula": [("products", name) for name in
                         ("union_poly", "join_poly", "lex_poly", "rooted_product_poly")],
    "verify.distinct_trees": [("verify", "distinct_trees")],
    "verify.scan_result_to_json": [("verify", "scan_result_to_json")],
    "verify.composition_soundness_scan": [("verify", "composition_soundness_scan")],
    "verify.pendant_ladder_family_check": [("verify", "pendant_ladder_family_check")],
}

# metric -> (module, function, nested function or None); the count is the
# number of calls cProfile saw for that code object, recursion included
COUNTS = {
    "graphs.alpha_calls": ("graphs", "alpha", "best"),
    "graphs.mask_components_calls": ("graphs", "mask_components", None),
    "graphs.tree_canonical_code_calls": ("graphs", "tree_canonical_code", None),
    "engine.independence_polynomial_calls": ("engine", "independence_polynomial", None),
    "engine.solve_calls": ("engine", "independence_polynomial", "solve"),
    "polynomials.square_free_part_calls": ("polynomials", "square_free_part", None),
    "polynomials.intpoly_mul_calls": ("polynomials", "IntPoly.__mul__", None),
}


def _modules():
    return {name: sys.modules[f"indpoly.{name}"]
            for name in ("graphs", "engine", "polynomials", "products", "verify", "cli")}


def _resolve(module, dotted: str):
    owner = module
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans (job, id, parent, name, start, end) kept in memory until the
    replay ends; a stack gives each span its parent."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.job = -1
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (self.job, sid, parent, name, start, time.perf_counter())
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind each listed function, wherever an indpoly module holds it."""
        modules = _modules()
        for name, targets in LAYERS.items():
            for module_name, dotted in targets:
                owner, attr = _resolve(modules[module_name], dotted)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                holders = [owner] if isinstance(owner, type) else modules.values()
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._undo.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def remove(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        # a span cut short by the deadline was never closed
        spans = [span for span in self.spans if span is not None]
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for _, sid, _, name, start, end in spans:
            totals[name] += end - start - child_time[sid]
        return totals


def span_cost() -> float:
    """Seconds one span adds: a two-argument no-op called through Tracer's
    wrapper against the bare no-op, each the best of CALIBRATION_REPEATS."""
    def noop(_a, _b):
        return None

    probe = Tracer()
    wrapped = probe._wrap("calibration", noop)
    best = [min(timeit.repeat(lambda: fn(None, None), setup=probe.spans.clear,
                              number=CALIBRATION_CALLS, repeat=CALIBRATION_REPEATS))
            for fn in (noop, wrapped)]
    return max(best[1] - best[0], 0.0) / CALIBRATION_CALLS


class DeadlineExceeded(BaseException):
    """Raised by the alarm at the run's deadline; not an Exception, so that
    no handler of the program under test swallows it."""


def _alarm(_signum, _frame):
    raise DeadlineExceeded


def run_in_process(job: Job, golden: dict) -> tuple[float, bool]:
    """Run one job through `indpoly.cli.main` in this process: its wall time
    and whether its output failed its check."""
    from indpoly import cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(list(job.argv))
    wall = time.perf_counter() - start
    problem = check.check_output(job, code, sink.getvalue(), harness.scan_output(job), golden)
    if problem is not None:
        print(f"FAILED {job.name} (in-process): {problem}", file=sys.stderr)
    return wall, problem is not None


def _code_object(modules, module_name: str, dotted: str, nested: str | None):
    owner, attr = _resolve(modules[module_name], dotted)
    code = getattr(owner, attr).__code__
    if nested is None:
        return code
    for const in code.co_consts:
        if getattr(const, "co_name", None) == nested:
            return const
    return None


def call_counts(jobs: list[Job], golden: dict, failures: list) -> dict[str, int]:
    """Replay the jobs under cProfile; a failed job is appended to failures."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        for job in jobs:
            if run_in_process(job, golden)[1]:
                failures.append(job.name)
    finally:
        profile.disable()
    seen = {(entry.code.co_filename, entry.code.co_firstlineno, entry.code.co_name):
            entry.callcount
            for entry in profile.getstats() if not isinstance(entry.code, str)}
    modules = _modules()
    counts = {}
    for metric, (module_name, dotted, nested) in COUNTS.items():
        code = _code_object(modules, module_name, dotted, nested)
        key = None if code is None else (code.co_filename, code.co_firstlineno, code.co_name)
        counts[metric] = seen.get(key, 0)
    return counts


def import_split() -> tuple[float, float]:
    """Median over IMPORT_REPEATS children of (`import indpoly.cli` total,
    the networkx part of it), from the cumulative column of -X importtime."""
    totals, nx_parts = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import indpoly.cli"],
            capture_output=True, text=True, cwd=harness.ROOT, env=harness.child_env(), timeout=60,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: importing indpoly.cli failed: {proc.stderr[-300:]}")
        total = networkx = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.startswith(" indpoly"):  # a top-level entry
                total += int(cumulative)
            if name.strip() == "networkx" and not networkx:
                networkx = int(cumulative)
        totals.append(total / 1e6)
        nx_parts.append(networkx / 1e6)
    return statistics.median(totals), statistics.median(nx_parts)


def replay(jobs: list[Job], golden: dict, tracer: Tracer, wall: dict, failures: list) -> None:
    """Run each job untraced and traced back to back, in alternating order,
    so that a job's first-call warm-up does not show up on one side only."""
    for index, job in enumerate(jobs):
        tracer.job = index
        for traced in (index % 2 == 1, index % 2 == 0):
            if traced:
                tracer.install()
            try:
                seconds, bad = run_in_process(job, golden)
            finally:
                tracer.remove()
            wall[traced].append(seconds)
            if bad:
                failures.append(job.name)


def measure(workload: str, seed: int) -> dict:
    deadline = time.perf_counter() + harness.RUN_DEADLINE_S
    jobs = harness.build_jobs(workload, seed) + workloads.probe_jobs(harness.WORK_NAME)
    counted = [job for job in jobs if job.counted]
    harness.prepare(jobs, seed)
    golden = check.load_golden()
    sys.path.insert(0, str(harness.ROOT / "src"))

    tracer = Tracer()
    wall: dict[bool, list[float]] = {False: [], True: []}  # keyed by traced
    failures: list[str] = []
    counts = dict.fromkeys(COUNTS, 0)
    import_s = import_nx_s = 0.0
    finished = False
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.perf_counter(), 0.001))
    try:
        import_s, import_nx_s = import_split()
        for job in workloads.probe_jobs(harness.WORK_NAME):
            run_in_process(job, golden)  # warm caches, untimed
        replay(jobs, golden, tracer, wall, failures)
        counts = call_counts(counted, golden, failures)
        finished = True
    except DeadlineExceeded:
        print(f"perfbench: traced run stopped at the {harness.RUN_DEADLINE_S:g} s deadline",
              file=sys.stderr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    tracer.remove()
    attempted = 2 * len(jobs) + len(counted)
    # a job cut short by the deadline has no wall time and counts as failed;
    # a failed job under cProfile that the deadline then cut is counted once
    completed = len(wall[False]) + len(wall[True]) + (len(counted) if finished else 0)
    failed = min(len(failures) + attempted - completed, attempted)

    untraced, traced = sum(wall[False]), sum(wall[True])
    cost = span_cost()
    metrics = {"cli.import_s": (import_s, "s"), "cli.import_networkx_s": (import_nx_s, "s")}
    metrics.update({f"{name}_s": (value, "s") for name, value in tracer.self_times().items()})
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics["trace.overhead_frac"] = (len(tracer.spans) * cost / max(untraced, 1e-9),
                                      "fraction")

    print(f"traced run, workload {workload}, seed {seed}: {len(jobs)} jobs in-process "
          f"({len(counted)} under cProfile), {len(tracer.spans)} spans of "
          f"{cost * 1e6:.3f} us each; untraced {untraced:.3f} s, traced {traced:.3f} s "
          f"(wall ratio {traced / max(untraced, 1e-9) - 1:+.4f}, machine noise included)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
