"""Layered end-to-end benchmark of gvflow.

    python3 bench/run.py --workload cavity-ggvf --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one report each
    python3 bench/run.py --smoke                 # the benchmark's own test

Run from the root of a gvflow checkout; the package is imported from its
`src/` directory, never from an installed copy.  One run sets the inputs
up several times (the median is `setup_s`), runs one warm-up pass that
is not measured, then runs passes until `--seconds` have gone.  Set-up
and untraced passes are scaled to a nominal host speed measured while
they run (see speed.py).  With `--trace 0` it reports the end-to-end
metrics of BENCHMARK.json; with `--trace 1` it alternates untraced and
traced passes and reports the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
MIN_PASSES = 3
SETUP_REPEATS = 3

# BLAS and OpenMP pools are pinned to one thread before numpy loads:
# the benchmark is one process with one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def import_gvflow() -> None:
    """Import gvflow from this checkout, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "gvflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no gvflow package under {src}; run from a gvflow checkout")
    sys.path.insert(0, str(src))
    import gvflow
    import gvflow.cli  # noqa: F401
    if Path(gvflow.__file__).resolve().parent != src / "gvflow":
        raise SystemExit(f"error: imported gvflow from {gvflow.__file__}, not from {src}")


def import_seconds(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median time to import gvflow in a fresh interpreter, one at a time:
    raw, and scaled by the host speed measured around each import."""
    import speed

    code = ("import time; t = time.perf_counter(); import gvflow.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    raws, norms = [], []
    for _ in range(repeats):
        before = speed.meter.factor_now()
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        raws.append(float(out.stdout.split()[-1]))
        norms.append(raws[-1] * (before + speed.meter.factor_now()) / 2)
    return statistics.median(raws), statistics.median(norms)


def environment() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "processes": 1,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, import_norm: float,
                 sizes: dict | None = None, warmup: bool = True,
                 setup_repeats: int = SETUP_REPEATS, min_passes: int = MIN_PASSES) -> dict:
    """One benchmark run of one workload; returns its full record."""
    import speed
    import workloads

    work = ROOT / "bench" / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # numpy seeds must be non-negative; any integer seed is accepted
        wl = workloads.WORKLOADS[name](seed % 2**64, **(sizes or {}))
        setup_times = []
        setup_norms = []
        for i in range(setup_repeats):
            with speed.meter.sampling() as window:
                t0 = time.perf_counter()
                wl.setup(work / f"setup{i}")
                setup_times.append(time.perf_counter() - t0 - window.probe_s())
            setup_norms.append(setup_times[-1] * window.factor())

        recs: list[workloads.Recorder] = []   # every pass, warm-up included
        untraced: list[workloads.Recorder] = []
        traced: list[workloads.Recorder] = []

        def one_pass(tracer=None):
            rec = workloads.Recorder(tracer)
            if tracer:   # no probes inside spans
                wl.run_pass(rec, work / "out")
            else:
                with speed.meter.sampling() as window:
                    wl.run_pass(rec, work / "out")
                rec.norm = rec.wall * window.factor()
            recs.append(rec)
            return rec

        if warmup:
            one_pass()
        start = time.perf_counter()
        while True:
            if trace:
                untraced.append(one_pass())
                traced.append(one_pass(spans.Tracer()))
            else:
                untraced.append(one_pass())
            # a traced run measures pairs of passes, so it needs fewer rounds
            done = len(untraced)
            elapsed = time.perf_counter() - start
            need = max(1, min_passes - 1) if trace else min_passes
            if done >= need and elapsed * (done + 1) / done > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    walls = [r.wall for r in untraced]
    norms = [r.norm for r in untraced]
    cpus = [r.cpu for r in untraced]
    residuals = [x for r in recs for x in r.residuals]
    gaps = [x for r in recs for x in r.oracle_gaps]
    dists = [x for r in untraced[-1:] for x in r.boundary_dists]
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in recs for f in r.failures],
        "wall_s_samples": walls,
        "norm_wall_s_samples": norms,
        "norm_wall_s_quartiles": quartiles(norms),
        "wall_s_quartiles": quartiles(walls),
        "cpu_s_quartiles": quartiles(cpus),
        "import_s": import_s,
        "setup_s_samples": setup_times,
        "setup_norm_samples": setup_norms,
        "end_to_end": {
            "norm_wall_s": statistics.median(norms),
            "setup_s": import_norm + statistics.median(setup_norms),
            "peak_rss_mb": peak_rss_mb(),
            "residual_max": max(residuals) if residuals else 0.0,
        },
        "raw": {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": import_s + statistics.median(setup_times),
        },
        "quality": {
            "failed_ratio": failed / attempted if attempted else 1.0,
            "oracle_gap_max": max(gaps) if gaps else None,
            "boundary_dist_px": statistics.fmean(dists) if dists else None,
        },
        "fingerprints": untraced[-1].fingerprints,
    }
    if trace:
        per_pass = [spans.layer_metrics(r.tracer.spans) for r in traced]
        layer = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        layer["solver.oracle_gap_max"] = max(gaps) if gaps else 0.0
        layer["snake.boundary_dist_px"] = record["quality"]["boundary_dist_px"] or 0.0
        layer["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                     - record["raw"]["wall_s"])
        record["per_layer"] = layer
    return record


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def print_report(record: dict, spec: dict) -> None:
    e2e = record["end_to_end"]
    raw = record["raw"]
    q = record["quality"]
    print(f"== {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['passes']} measured passes ({record['traced_passes']} traced), "
          f"{record['attempted']} ops, {record['failed']} failed")
    nq = record["norm_wall_s_quartiles"]
    wq, cq = record["wall_s_quartiles"], record["cpu_s_quartiles"]
    print(f"  norm_wall_s   {e2e['norm_wall_s']:.4f} s   (median of {record['passes']} at "
          f"nominal speed; quartiles {nq[0]:.4f} .. {nq[2]:.4f})")
    print(f"  wall_s        {raw['wall_s']:.4f} s   (raw; quartiles {wq[0]:.4f} .. {wq[2]:.4f})")
    print(f"  cpu_s         {raw['cpu_s']:.4f} s   (raw; quartiles {cq[0]:.4f} .. {cq[2]:.4f})")
    print(f"  setup_s       {e2e['setup_s']:.4f} s   (nominal speed; import + median of "
          f"{len(record['setup_s_samples'])} set-ups; raw {raw['setup_s']:.4f} s)")
    print(f"  failed_ratio  {q['failed_ratio']:.4f} ratio")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MiB (whole process)")
    print(f"  residual_max  {e2e['residual_max']:.6g} 1")
    for key, unit, where in (("oracle_gap_max", "1", "oracle-verify"),
                             ("boundary_dist_px", "px", "cavity-ggvf and snake-track")):
        value = q[key]
        print(f"  {key:<13} " + (f"{value:.6g} {unit}" if value is not None
                                  else f"n/a (computed in {where} only)"))
    if "per_layer" in record:
        print("  per-layer (median over traced passes)      -> predicted to move")
        for m in spec["per_layer"]:
            name = m["name"]
            print(f"  [{name.split('.')[0]:<9}] {name:<30} {record['per_layer'][name]:>14.6g} "
                  f"{m['unit']:<6} -> {spans.PREDICTIONS.get(name, 'no prediction')}")


def final_line(record: dict, spec: dict) -> dict:
    trace = record["trace"]
    section = "per_layer" if trace else "end_to_end"
    values = record["per_layer"] if trace else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }


def smoke(import_s: float, import_norm: float, spec: dict) -> int:
    """Every workload at small sizes, untraced and traced: each metric of
    BENCHMARK.json is emitted with its unit, and no operation fails."""
    import workloads

    problems = []
    for name, sizes in workloads.SMOKE_SIZES.items():
        for trace in (False, True):
            record = run_workload(name, DEFAULT_SEED, 0.0, trace, import_s, import_norm, sizes,
                                  warmup=False, setup_repeats=1, min_passes=1)
            print_report(record, spec)
            line = final_line(record, spec)
            for m in spec["per_layer" if trace else "end_to_end"]:
                if trace and m["name"] not in spans.PREDICTIONS:
                    problems.append(f"{m['name']} has no prediction in spans.py")
                got = line["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append(f"{name} trace {int(trace)}: {m['name']} not emitted")
            if record["quality"]["failed_ratio"] != 0:
                problems.append(f"{name} trace {int(trace)}: failed_ratio "
                                f"{record['quality']['failed_ratio']}")
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="cavity-ggvf, snake-track, oracle-verify or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per run, set-up and warm-up excluded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own test")
    args = parser.parse_args(argv)

    import_gvflow()
    import workloads

    import_s, import_norm = import_seconds()

    spec = load_spec()
    print(json.dumps({"environment": environment()}, sort_keys=True))
    if args.smoke:
        return smoke(import_s, import_norm, spec)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    lines = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              import_s, import_norm)
        print_report(record, spec)
        print(json.dumps(record, sort_keys=True))
        lines.append(final_line(record, spec))
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{n}/{k}": v for n, line in zip(names, lines)
                        for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
