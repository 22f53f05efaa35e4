"""Checks on every job's output; a job that fails one counts in `failed`.

Each check uses facts the benchmark knows without the program: the inputs it
generated, closed forms for the low coefficients, the free-tree counts, and
the sha256 of each output recorded at the default seed (README promises
byte-identical output).  A hard64 output does not depend on the seed, which
only relabels the graph, so its digest is checked at every seed.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

from workloads import FREE_TREE_COUNTS, Job, RawGraph

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def independent_triples(g: RawGraph) -> int:
    """i3: vertex triples u < v < w with no edge among them."""
    full = (1 << g.n) - 1
    non = [full & ~a & ~(1 << v) for v, a in enumerate(g.adjacency())]
    total = 0
    for u in range(g.n):
        later = non[u] & ~((2 << u) - 1)
        while later:
            low = later & -later
            later ^= low
            v = low.bit_length() - 1
            total += (non[u] & non[v] & ~((2 << v) - 1)).bit_count()
    return total


def _coeff(coeffs: list[int], k: int) -> int:
    return coeffs[k] if k < len(coeffs) else 0


def _check_low_coeffs(coeffs: list[int], n: int, m: int, i3: int | None) -> str | None:
    expected = {0: 1, 1: n, 2: comb(n, 2) - m}
    if i3 is not None:
        expected[3] = i3
    for k, value in expected.items():
        if _coeff(coeffs, k) != value:
            return f"i{k} = {_coeff(coeffs, k)}, expected {value}"
    return None


def _check_poly(job: Job, stdout: str, _out: str) -> str | None:
    obj = json.loads(stdout)
    coeffs = [int(c) for c in obj["coeffs"]]
    if job.graph is not None:
        g = job.graph
        problem = _check_low_coeffs(coeffs, g.n, len(g.edges), independent_triples(g))
    else:
        problem = _check_low_coeffs(coeffs, *job.expect_n_m, None)
    if problem:
        return problem
    if obj["alpha"] != len(coeffs) - 1:
        return f"alpha {obj['alpha']} != degree {len(coeffs) - 1}"
    if not isinstance(obj["properties"], dict):
        return "no property report"
    return None


def _check_ok(_job: Job, stdout: str, _out: str) -> str | None:
    return None if json.loads(stdout)["ok"] is True else "ok is not true"


def _check_identity(_job: Job, stdout: str, _out: str) -> str | None:
    obj = json.loads(stdout)
    if obj["identity_ok"] is not True:
        return "identity_ok is not true"
    if obj["coeffs"] != obj["formula_coeffs"]:
        return "graph and formula coefficients differ"
    return None


def _check_scan(job: Job, stdout: str, out: str) -> str | None:
    nmax = int(job.argv[job.argv.index("--nmax") + 1])
    expected = {n: count for n, count in FREE_TREE_COUNTS.items() if n <= nmax}
    per_size = dict.fromkeys(expected, 0)
    codes = set()
    for line in out.splitlines():
        row = json.loads(line)
        n = row["n"]
        coeffs = [int(c) for c in row["coeffs"]]
        problem = _check_low_coeffs(coeffs, n, n - 1, None)
        if problem:
            return f"tree n={n}: {problem}"
        if row["code"] in codes:
            return f"duplicate canonical code at n={n}"
        codes.add(row["code"])
        per_size[n] += 1
    if per_size != expected:
        return f"trees per size {per_size}, expected {expected}"
    summary = [f"n={n}: {count} trees, 0 violations" for n, count in per_size.items()]
    if stdout.splitlines() != summary:
        return "summary lines differ from the tree counts"
    return None


CHECKS = {"poly": _check_poly, "ok": _check_ok, "identity": _check_identity, "scan": _check_scan}


def job_key(job: Job) -> str:
    """Identifies a job by its golden name, else by its command line and the
    files it reads."""
    if job.golden_name is not None:
        return job.golden_name
    blob = json.dumps([list(job.argv), sorted(job.files.items())])
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def output_digest(stdout: str, out: str) -> str:
    return hashlib.sha256((stdout + "\0" + out).encode()).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def check_output(job: Job, exit_code: int, stdout: str, out: str,
                 golden: dict[str, str]) -> str | None:
    """None when the output is right, else what is wrong with it."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        problem = CHECKS[job.kind](job, stdout, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    if problem:
        return problem
    want = golden.get(job_key(job))
    if want is not None and want != output_digest(stdout, out):
        return "output differs from the recorded sha256"
    return None


def _corrupt(job: Job, stdout: str, out: str) -> tuple[str, str]:
    """Change one line so that the check for this job kind must catch it."""
    if job.kind == "scan":
        lines = out.splitlines(keepends=True)
        row = json.loads(lines[-1])
        row["coeffs"][1] = str(int(row["coeffs"][1]) + 1)
        lines[-1] = json.dumps(row, sort_keys=True) + "\n"
        return stdout, "".join(lines)
    obj = json.loads(stdout)
    if job.kind == "poly":
        obj["coeffs"][1] = str(int(obj["coeffs"][1]) + 1)
    elif job.kind == "ok":
        obj["ok"] = False
    else:
        obj["identity_ok"] = False
    return json.dumps(obj, sort_keys=True) + "\n", out


def corruption_self_test(job: Job, stdout: str, out: str) -> None:
    """Raise unless one corrupted line of a passing output counts as a failure
    on its content alone, without help from the recorded digest."""
    if check_output(job, 0, *_corrupt(job, stdout, out), {}) is None:
        raise AssertionError(f"{job.name}: a corrupted output line passed the check")
