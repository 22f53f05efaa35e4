"""Record the sha256 of every job's output at the default seed.

    python3 perfbench/record_golden.py

Run from the repository root at a commit whose output is known good; the
digests go to perfbench/golden.json and every later run compares against
them (check.py).  Each output must first pass its content check.
"""

from __future__ import annotations

import json
import sys

import check
import harness
import workloads


def main() -> int:
    jobs = [job for name in harness.WORKLOADS
            for job in harness.build_jobs(name, harness.DEFAULT_SEED)]
    jobs += workloads.probe_jobs(harness.WORK_NAME)
    harness.prepare(jobs, harness.DEFAULT_SEED)
    golden = {}
    for job in jobs:
        _, code, stdout, stderr, _ = harness.run_indpoly(job.argv, timeout=120)
        out = harness.scan_output(job)
        problem = check.check_output(job, code, stdout, out, {})
        if problem is not None:
            raise SystemExit(f"{job.name}: {problem} {stderr[-300:]}")
        golden[check.job_key(job)] = check.output_digest(stdout, out)
    check.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} digests in {check.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
