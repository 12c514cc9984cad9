"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, to compare against the bounds in BENCHMARK.json.

    python3 bench/spread.py --workloads snake-track --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --sets 2 --json bench/work/spread.json

Runs are sequential, one process at a time, with the run length from
BENCHMARK.json.  The spread of a metric is (Q3 - Q1) / median over the
seeds, with quartiles from statistics.quantiles(values, n=4); it should
stay below a third of the metric's bound (setup_s excepted).  With
--sets 2 the seeds are run twice and the shift of the second median
against the first is reported too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--json", help="also write every run's result line here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in seed_list(args.seeds):
                line = run_once(workload, seed, spec["run_seconds"], 0)
                runs.append(line)
                print(f"{workload} seed {seed}: correct {line['correct']} "
                      f"failed {line['failed']}/{line['attempted']} " + " ".join(
                          f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
                      flush=True)
            sets.append(runs)
        results[workload] = sets
        medians = []
        for i, runs in enumerate(sets):
            print(f"{workload} set {i + 1}:")
            meds = {}
            for name, bound in bounds.items():
                med, rel = spread([r["metrics"][name]["value"] for r in runs])
                meds[name] = med
                flag = "ok" if name == "setup_s" or rel < bound / 3 else "WIDE"
                print(f"  {name:<13} median {med:.6g}  spread {rel:.4f}  "
                      f"(bound {bound}, bound/3 {bound / 3:.4f}) {flag}")
            medians.append(meds)
        if len(medians) > 1:
            for name, bound in bounds.items():
                shift = medians[-1][name] / medians[0][name] - 1 if medians[0][name] else 0.0
                print(f"  {name:<13} second median vs first {shift:+.4f} (bound {bound})")
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
