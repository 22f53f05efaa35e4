"""Closed-loop measurement: real `python -m indpoly` processes, one at a time.

Jobs run in whole passes over the workload's job list until the run's
seconds are spent.  Each child's wall time is taken around spawn and exit,
and its max RSS from `os.wait4`, so no other process is counted.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import workloads
from workloads import Job

ROOT = Path.cwd()
# scratch files; jobs name them relative to ROOT, the cwd of every child
WORK_NAME = ".perfbench_work"
WORK = ROOT / WORK_NAME
WORKLOADS = ("hard64", "tree_scan", "cli_mix")
DEFAULT_SEED = 1  # the seed golden.json was recorded at
SETUP_REPEATS = 7
# every child must end by then, so a run always exits within 180 s
RUN_DEADLINE_S = 165.0
# job_tail_s: each pass's nearest-rank percentile of its job wall times, then
# the median over passes.  The rank within the fixed job list is the same
# however many passes fit, so a faster program is compared at the same
# percentile: the slowest graph on hard64, the scan itself on tree_scan and
# the 4th slowest of the 22 calls on cli_mix.
TAIL_PCT = {"hard64": 100, "tree_scan": 100, "cli_mix": 84}


@dataclass
class Outcome:
    wall_s: float
    max_rss_kb: int
    problem: str | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_indpoly(argv, timeout: float) -> tuple[float, int, str, str, int]:
    """Run `python -m indpoly argv` to completion: (wall seconds, exit code,
    stdout, stderr, max RSS in KiB), the RSS taken from this child alone."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "indpoly", *argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT, env=child_env(),
        )
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, proc.returncode, out_path.read_text(), err_path.read_text(),
            usage.ru_maxrss)


def build_jobs(workload: str, seed: int) -> list[Job]:
    if workload == "hard64":
        return workloads.hard64_jobs(seed)
    if workload == "tree_scan":
        return workloads.tree_scan_jobs(f"{WORK_NAME}/{workloads.SCAN_OUT_NAME}")
    return workloads.cli_mix_jobs(seed, f"{WORK_NAME}/{workloads.EDGE_LIST_NAME}")


def prepare(jobs: list[Job], seed: int) -> None:
    """Fail fast, before any timing, if the tree or the benchmark is broken."""
    if not (ROOT / "src" / "indpoly" / "__main__.py").is_file():
        raise SystemExit("perfbench: no src/indpoly here; run from the repository root")
    workloads.self_check(seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    for job in jobs:
        for path, text in job.files.items():
            (ROOT / path).write_text(text)


def measure_setup(deadline: float) -> float:
    """Median wall time of `indpoly --help`: interpreter start, the full CLI
    import and the parser build, which every call pays.  One unmeasured
    call first compiles the sources to bytecode."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        wall, code, out, err, _ = run_indpoly(["--help"], deadline - time.perf_counter())
        if code != 0 or not out.startswith("usage:"):
            raise SystemExit(f"perfbench: `indpoly --help` failed ({code}): {err.strip()}")
        if i:
            times.append(wall)
    return statistics.median(times)


def scan_output(job: Job) -> str:
    """The JSONL file a scan job wrote; empty for other jobs."""
    if job.kind != "scan":
        return ""
    path = ROOT / job.argv[job.argv.index("--out") + 1]
    return path.read_text() if path.exists() else ""


def run_job(job: Job, golden: dict, deadline: float, self_tested: set) -> Outcome:
    wall, code, stdout, stderr, rss = run_indpoly(job.argv, deadline - time.perf_counter())
    out = scan_output(job)
    problem = check.check_output(job, code, stdout, out, golden)
    if problem is None and job.kind not in self_tested:
        check.corruption_self_test(job, stdout, out)
        self_tested.add(job.kind)
    if problem is not None:
        print(f"FAILED {job.name}: {problem} {stderr.strip()[-300:]}", file=sys.stderr)
    return Outcome(wall, rss, problem)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct * len(ordered) / 100), 1) - 1]


def measure(workload: str, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    jobs = build_jobs(workload, seed)
    prepare(jobs, seed)
    golden = check.load_golden()
    setup_s = measure_setup(deadline)

    self_tested: set = set()
    passes: list[list[Outcome]] = []
    loop_start = time.perf_counter()
    while True:
        passes.append([run_job(job, golden, deadline, self_tested) for job in jobs])
        # start another whole pass only if it should end within the budget
        if time.perf_counter() - loop_start + sum(o.wall_s for o in passes[-1]) > seconds:
            break

    outcomes = [o for done in passes for o in done]
    job_walls = [o.wall_s for o in outcomes]
    pct = TAIL_PCT[workload]
    tail_value = statistics.median(percentile([o.wall_s for o in done], pct) for done in passes)
    wall_s = statistics.median(sum(o.wall_s for o in done) for done in passes)
    items = sum(job.items for job in jobs)
    failed = sum(o.problem is not None for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (max(o.max_rss_kb for o in outcomes) / 1024, "MB"),
    }
    print(f"workload {workload}, seed {seed}: {len(passes)} passes of {len(jobs)} jobs, "
          f"closed loop, 1 client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.4f} {unit}")
    # printed only, not bounded: on hard64 the median of seven different
    # graphs jumps between graph kinds from seed to seed, and the tail is the
    # time of one job, which machine noise moves by over a third
    print(f"  job_p50_s    {statistics.median(job_walls):12.4f} s (p50 of {len(job_walls)} jobs)")
    print(f"  job_tail_s   {tail_value:12.4f} s (median over {len(passes)} passes of p{pct} "
          f"of each pass's {len(jobs)} jobs)")
    if workload == "tree_scan":
        print(f"  trees_per_s  {items / wall_s:12.1f} 1/s ({items} trees per scan)")
    print(f"  failed_frac  {failed / len(outcomes):12.4f} ({failed} of {len(outcomes)})")
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
