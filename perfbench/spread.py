"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads corpus-zipf,dblp-fixture \
        --seeds 1-10 --seconds 55 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median of the
per-run values and the distance between their first and third quartiles
(statistics.quantiles, n=4) as a share of that median, next to the
metric's bound from BENCHMARK.json. Runs go one after another, never in
parallel, so they do not slow each other.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the per-run values and summary as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED {proc.stderr[-500:]} {lines[-2:]}")
                ok = False
                continue
            detail = json.loads(lines[-2])
            print(f"{workload} seed {seed}: {detail['wall_s']:.1f}s, "
                  f"{result['attempted']} commands", flush=True)
            for metric, value in result["metrics"].items():
                values.setdefault(metric, []).append(value["value"])
        summary = {}
        for metric, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[metric] = {"median": median, "spread": spread, "values": vals}
            print(f"  {workload:13} {metric:22} median {median:10.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[metric]}")
        report["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
