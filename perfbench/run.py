"""indpoly benchmark: real `python -m indpoly` processes, one at a time.

    python3 perfbench/run.py --workload hard64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; `src` is put on the path of every child.
Each workload is a fixed job list built from the seed (see workloads.py).
With `--trace 0` the jobs run as a closed loop, one process at a time, in
whole passes over the list until `--seconds` is spent; every output is
checked (check.py) and the end-to-end metrics are printed.  With `--trace 1`
the same jobs are replayed in-process to time each layer (trace_run.py); the
replays are whole job lists, so that run does not use `--seconds`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Any problem with the benchmark itself,
such as a missing `src/indpoly`, exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        import trace_run

        result = trace_run.measure(args.workload, args.seed)
    else:
        result = harness.measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
