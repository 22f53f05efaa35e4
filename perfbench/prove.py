"""Repeat the benchmark over two sets of seeds and record the baseline.

    python3 perfbench/prove.py --sets 1-10,11-20 --out perfbench/baseline.json

Each set makes one untraced run per seed of every workload; the second set
starts after the first has ended.  Per set, workload and end-to-end metric
this writes the median, the quartiles and the spread (quartile distance over
the median) with whether it stays within its bound, a third of it and a
tenth; and the change of the second set's median against the first, which
must stay within the bound.  Then two traced runs per workload at the first
seed give the per-layer values and show that the `*_calls` counts repeat.
The map from each layer metric to the end-to-end metrics it should move is
recorded too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# layer metric -> [(end-to-end metric, workload)] it should move
LAYER_MAP = {
    "cli.import_s": [("setup_s", "*"), ("job_p50_s", "cli_mix")],
    "cli.import_networkx_s": [("setup_s", "*")],
    "graphs.parse_graph6_s": [("wall_s", "hard64 (should stay near zero)")],
    "graphs.build_family_s": [("job_p50_s", "cli_mix")],
    "graphs.alpha_s": [("wall_s", "hard64")],
    "graphs.alpha_calls": [("wall_s", "hard64")],
    "graphs.mask_components_calls": [("wall_s", "hard64")],
    "graphs.tree_canonical_code_s": [("wall_s", "tree_scan")],
    "graphs.tree_canonical_code_calls": [("wall_s", "tree_scan")],
    "engine.independence_polynomial_s": [("wall_s", "hard64"), ("wall_s", "tree_scan")],
    "engine.independence_polynomial_calls": [("wall_s", "hard64"), ("wall_s", "tree_scan")],
    "engine.solve_calls": [("wall_s", "hard64")],
    "polynomials.property_report_s": [("wall_s", "tree_scan"), ("job_p50_s", "cli_mix")],
    "polynomials.real_rooted_s": [("wall_s", "tree_scan"), ("job_p50_s", "cli_mix")],
    "polynomials.square_free_part_calls": [("wall_s", "tree_scan"),
                                           ("job_p50_s", "cli_mix")],
    "polynomials.intpoly_mul_calls": [("wall_s", "hard64")],
    "polynomials.compose_s": [("job_p50_s", "cli_mix")],
    "products.graph_s": [("wall_s", "cli_mix")],
    "products.formula_s": [("wall_s", "cli_mix")],
    "verify.distinct_trees_s": [("wall_s", "tree_scan")],
    "verify.scan_result_to_json_s": [("wall_s", "tree_scan")],
    "verify.composition_soundness_scan_s": [("wall_s", "cli_mix")],
    "verify.pendant_ladder_family_check_s": [("wall_s", "cli_mix")],
    "trace.overhead_frac": [],
}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return result


def spread_row(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "within_bound": spread <= bound, "within_third_of_bound": spread <= bound / 3,
            "within_tenth": spread <= 0.1, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", default="1-10,11-20",
                        help="comma-separated seed ranges first-last, one per set")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    sets = [tuple(map(int, span.split("-"))) for span in args.sets.split(",")]
    workload_names = args.workloads.split(",")
    seconds = BENCHMARK["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                         f"{platform.python_implementation()} {platform.python_version()}",
              "sets": args.sets, "run_seconds": seconds, "layer_map": LAYER_MAP,
              "workloads": {w: {"end_to_end": {}} for w in workload_names}}
    for first, last in sets:
        for workload in workload_names:
            runs = [bench(workload, seed, seconds, 0) for seed in range(first, last + 1)]
            rows = {}
            for name, bound in bounds.items():
                rows[name] = spread_row([r["metrics"][name]["value"] for r in runs], bound)
                print(f"seeds {first}-{last} {workload:10} {name:12} "
                      f"median {rows[name]['median']:10.4f} "
                      f"spread {rows[name]['spread']:.3f} (bound {bound})", flush=True)
            report["workloads"][workload]["end_to_end"][f"seeds {first}-{last}"] = rows
    for workload in workload_names:
        entry = report["workloads"][workload]
        sets_rows = list(entry["end_to_end"].values())
        entry["median_change"] = {}
        for name, bound in bounds.items():
            change = sets_rows[-1][name]["median"] / sets_rows[0][name]["median"] - 1
            entry["median_change"][name] = {"change": change, "within_bound": change <= bound}
            print(f"{workload:10} {name:12} second median against first {change:+.3f}",
                  flush=True)
        traced = [bench(workload, sets[0][0], seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith("_calls")}
                  for t in traced]
        print(f"{workload:10} traced: *_calls equal in two runs: {counts[0] == counts[1]}",
              flush=True)
        entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        entry["calls_repeat_exactly"] = counts[0] == counts[1]
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
