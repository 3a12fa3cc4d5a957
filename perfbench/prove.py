"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/prove.py --workloads audit-deep,sweep-wide,cli-short \
        --seeds 10 --trace 0 --out perfbench/baseline.json

For every workload and metric it prints the median of the per-seed values and
the distance between their first and third quartiles as a share of that
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json.  Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds, one run each")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="the first seed; the others follow it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this path")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            argv = [sys.executable, *spec["command"][1:], "--workload", workload,
                    "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            result["record"] = json.loads(lines[-2])
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if len(runs) < 2:
            continue
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            metrics[name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f" bound {bound:.3f}"
                if stats["spread"] > bound:
                    flag += "  OVER THE BOUND"
                elif stats["spread"] > bound / 3:
                    flag += "  over a third of it"
            print(f"  {name:<48} median {stats['median']:.6g} {stats['unit']}"
                  f"  spread {stats['spread']:.4f}{flag}", flush=True)
        summary[workload] = {
            "metrics": metrics,
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "environment": runs[0]["record"]["environment"],
            "report_sha256": {r["record"]["environment"]["seed"]: r["record"]["report_sha256"]
                              for r in runs},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
