"""The benchmark's workloads: inputs made from a seed, timed operations,
and the checks on their outputs.

A workload has `setup(work_dir)`, which builds every input the program
reads (timed as set-up), and `run_pass(rec, out_dir)`, which performs one
pass of operations through a `Recorder`.  The recorder times only the
call into gvflow, less the speed meter's probes; checks run after the
timer stops.  An operation is one
CLI call, one library solve or one oracle check; it fails on an
unexpected exit code, an exception or a failed output check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from gvflow import cli, grid, ioformats, solver, spectral

import spans
import speed

# Criterion-10 settings of the cavity demonstration.
DT = 0.12
SIGMA = 2.0
SNAKE_FLAGS = ["--b", "0.1", "--tensile-sign", "-1", "--eps", "0.002",
               "--snake-iters", "60000", "--spacing", "2", "--force-peak", "0.3"]
GVF_FLAGS = ["--g", "2", "--h", "0.02", "--delta", "1e-4"]
GGVF_FLAGS = ["--k", "100", "--delta", "0.02"]
SOLVE_FLAGS = ["--dt", str(DT), "--sigma", str(SIGMA), "--t-max", "60000"]


class Recorder:
    """Times the operations of one pass and collects what their checks saw."""

    def __init__(self, tracer: spans.Tracer | None = None):
        self.tracer = tracer
        self.wall = 0.0
        self.cpu = 0.0
        self.norm = 0.0   # wall at nominal host speed; set by the runner
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.residuals: list[float] = []
        self.oracle_gaps: list[float] = []
        self.boundary_dists: list[float] = []
        self.fingerprints: dict[str, object] = {}

    def op(self, label: str, call, check):
        """Time `call()`, then run `check(result)`, which returns a list of
        problems (empty when the output is right).  Returns the result of
        a passing op, None for a failed one."""
        self.attempted += 1
        tracing = spans.installed(self.tracer) if self.tracer else contextlib.nullcontext()
        try:
            with tracing:
                w0, c0, b0 = time.perf_counter(), time.process_time(), speed.meter.busy
                try:
                    result = call()
                finally:
                    probes = speed.meter.busy - b0   # the speed meter's, not gvflow's
                    self.wall += time.perf_counter() - w0 - probes
                    self.cpu += time.process_time() - c0 - probes
            problems = check(result)
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
        if not problems:
            return result
        self.failed += 1
        self.failures.append(f"{label}: " + "; ".join(problems))
        print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)
        return None


def run_cli(argv: list[str]) -> int:
    """gvflow's CLI in-process, its stdout echo discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_contour(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def u_boundary_distance(pts: np.ndarray, geo) -> np.ndarray:
    """Distance of each point to the boundary of the U (shape minus notch),
    with pixel (x, y) covering [x - 1/2, x + 1/2] x [y - 1/2, y + 1/2]."""
    px, py = pts[:, 0], pts[:, 1]

    def rect_sdf(rect):
        x0, y0 = rect[0] - 0.5, rect[1] - 0.5
        x1, y1 = rect[0] + rect[2] - 0.5, rect[1] + rect[3] - 0.5
        dx = np.maximum(x0 - px, px - x1)
        dy = np.maximum(y0 - py, py - y1)
        outside = np.hypot(np.maximum(dx, 0), np.maximum(dy, 0))
        return outside + np.minimum(np.maximum(dx, dy), 0.0)

    return np.abs(np.maximum(rect_sdf(geo.shape), -rect_sdf(geo.notch)))


def in_notch(pts: np.ndarray, geo) -> int:
    """Snaxels inside the notch, below its open mouth."""
    nx, ny, nw, nh = geo.notch
    return int((
        (pts[:, 0] > nx - 0.5) & (pts[:, 0] < nx + nw - 0.5)
        & (pts[:, 1] > ny - 0.5 + 4.0) & (pts[:, 1] < ny + nh - 0.5)
    ).sum())


class CavityGgvf:
    """`gvflow gvf --snake` then `gvflow ggvf --snake` on the U image.

    The paper's demonstration, dominated by the two explicit solves.  The
    GGVF snake must enter the notch and the GVF snake must not.  The U is
    fixed, so the seed does not change this workload.
    """

    name = "cavity-ggvf"

    def __init__(self, seed: int, size: int = 160):
        self.size = size
        self.geo = ioformats.ushape_geometry(size, size)

    def setup(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.image = work / "u.pgm"
        ioformats.write_pgm(ioformats.synth_ushape(self.size, self.size), self.image)

    def run_pass(self, rec: Recorder, out: Path) -> None:
        c = self.size / 2 - 0.5
        r = self.geo.shape[2] / 2 * 1.30
        for cmd, flags in (("gvf", GVF_FLAGS), ("ggvf", GGVF_FLAGS)):
            d = out / cmd
            argv = [cmd, "--image", str(self.image), "--out", str(d),
                    "--snake", f"{c!r},{c!r},{r!r}", *SOLVE_FLAGS, *flags, *SNAKE_FLAGS]
            rec.op(f"cli {cmd}", lambda: run_cli(argv), lambda rc: self._check(rec, cmd, d, rc))

    def _check(self, rec: Recorder, cmd: str, d: Path, rc: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        summary = json.loads((d / "summary.json").read_text())
        pts = read_contour(d / "contour.csv")
        rec.residuals.append(summary["residual"])
        rec.fingerprints[cmd] = {
            "NI": summary["NI"], "steps": summary["snake"]["iterations"],
            "field.gvf": sha256(d / "field.gvf"), "contour.csv": sha256(d / "contour.csv")}
        inside = in_notch(pts, self.geo)
        if cmd == "gvf":
            return [] if inside == 0 else [f"{inside} GVF snaxels inside the notch"]
        dist = float(u_boundary_distance(pts, self.geo).mean())
        rec.boundary_dists.append(dist)
        problems = []
        if inside < 3:
            problems.append(f"only {inside} GGVF snaxels inside the notch")
        if not dist < 1.5:
            problems.append(f"GGVF boundary distance {dist:.3f} px >= 1.5")
        return problems


class SnakeTrack:
    """`gvflow snake --field` on a stored GGVF field of the U, from seeded
    perturbed circles.  The snake does nearly all the work; the field is
    built in set-up, so a solver change shows in setup_s only."""

    name = "snake-track"

    def __init__(self, seed: int, size: int = 160, contours: int = 3):
        self.size = size
        self.geo = ioformats.ushape_geometry(size, size)
        self.seed = seed
        self.contours = contours

    def setup(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        f = grid.edge_map(ioformats.synth_ushape(self.size, self.size), sigma=SIGMA)
        params = solver.GgvfParams(K=100.0, dt=DT, delta=0.02, max_iter=60000)
        report = solver.ggvf_solve(f, params)
        self.field = work / "field.gvf"
        ioformats.write_field(report.field, self.field)
        grad = grid.gradient_central(f)
        self.force_scale = float(grad.magnitude().max())
        weight = solver.ggvf_weight(grad, params.K)
        coeffs = solver.GvfParams(g=weight, h=grid.ScalarField(f.spec, 1.0 - weight.values),
                                  dt=DT, delta=params.delta, max_iter=params.max_iter)
        self.stored_residual = solver.steady_residual(report.field, f, coeffs)
        self.inits = []
        rng = np.random.default_rng(self.seed)
        c = self.size / 2 - 0.5
        base = self.geo.shape[2] / 2 * 1.30
        for i in range(self.contours):
            # a circle around the U with a jittered centre and radius and
            # two low harmonics of random phase; 2 px snaxel spacing
            cx, cy = c + rng.uniform(-1.5, 1.5, size=2)
            radius = base * rng.uniform(0.98, 1.02)
            n = int(round(2 * math.pi * radius / 2.0))
            t = 2 * math.pi * np.arange(n) / n
            wobble = sum(rng.uniform(0.3, 1.0) * np.cos(k * t + rng.uniform(0, 2 * math.pi))
                         for k in (2, 3))
            pts = np.column_stack([cx + (radius + wobble) * np.cos(t),
                                   cy + (radius + wobble) * np.sin(t)])
            path = work / f"init{i}.csv"
            path.write_text("".join(f"{x:.17g},{y:.17g}\n" for x, y in pts))
            self.inits.append(path)
    def run_pass(self, rec: Recorder, out: Path) -> None:
        for i, init in enumerate(self.inits):
            d = out / f"snake{i}"
            argv = ["snake", "--field", str(self.field), "--out", str(d),
                    "--init-contour", str(init), "--force-scale", repr(self.force_scale),
                    *SNAKE_FLAGS]
            rec.op(f"cli snake {i}", lambda: run_cli(argv), lambda rc: self._check(rec, i, d, rc))

    def _check(self, rec: Recorder, i: int, d: Path, rc: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc} (4: the snake did not converge)"]
        summary = json.loads((d / "summary.json").read_text())
        pts = read_contour(d / "contour.csv")
        rec.residuals.append(self.stored_residual)
        rec.fingerprints[f"snake{i}"] = {
            "steps": summary["iterations"], "contour.csv": sha256(d / "contour.csv")}
        rec.boundary_dists.append(float(u_boundary_distance(pts, self.geo).mean()))
        top = self.size - 1.0
        if not (len(pts) >= 4 and np.all(np.isfinite(pts))
                and pts.min() >= 0.0 and pts.max() <= top):
            return ["contour leaves the image"]
        return []


class OracleVerify:
    """Explicit solves at delta 1e-10 on seeded small problems, checked
    against the direct sparse oracle (mirror borders, full rectangle and
    window-minus-hole masks) and the DFT oracle (periodic borders).

    Sizes and the reaction coefficient h, which set the iteration count,
    are fixed per problem index, so the cost barely depends on the seed;
    the image, g and the mask geometry come from the seed.
    """

    name = "oracle-verify"
    MIRROR_TOL = 1e-6
    PERIODIC_TOL = 1e-8

    def __init__(self, seed: int, sizes=(12, 16, 24, 32, 40, 48, 56, 64)):
        self.seed = seed
        self.sizes = sizes

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.problems = []
        for n in self.sizes:
            f = grid.ScalarField.from_array(rng.random((n, n)))
            p = solver.GvfParams(g=float(rng.uniform(0.5, 1.9)), h=0.25, dt=DT,
                                 delta=1e-10, max_iter=200000)
            m = n // 8 + 1
            x0, y0 = (int(v) for v in rng.integers(0, m, size=2))
            x1, y1 = (n - int(v) for v in rng.integers(0, m, size=2))
            hw, hh = (int(v) for v in rng.integers(n // 6 + 1, n // 3 + 1, size=2))
            hx = int(rng.integers(x0 + 2, x1 - hw - 1))
            hy = int(rng.integers(y0 + 2, y1 - hh - 1))
            mask = solver.DomainMask.from_rects(f.spec, (x0, y0, x1 - x0, y1 - y0),
                                                (hx, hy, hw, hh))
            self.problems.append((f, p, mask))

    def run_pass(self, rec: Recorder, out: Path) -> None:
        for f, p, mask in self.problems:
            label = f"{f.spec.width}x{f.spec.height}"
            for kind, m, periodic, tol in (("full", None, False, self.MIRROR_TOL),
                                           ("masked", mask, False, self.MIRROR_TOL),
                                           ("periodic", None, True, self.PERIODIC_TOL)):
                solved = rec.op(f"{label} {kind} solve", lambda: self._solve(f, p, m, periodic),
                                lambda result: self._solved(rec, result))
                if solved is not None:
                    rec.op(f"{label} {kind} oracle", lambda: self._oracle(f, p, m, periodic),
                           lambda exact: self._gap(rec, solved[0].field, exact, tol))

    @staticmethod
    def _solve(f, p, m, periodic):
        rep = solver.gvf_solve(f, p, m, periodic=periodic)
        # steady_residual applies the mirror rule only
        return rep, None if periodic else solver.steady_residual(rep.field, f, p, m)

    @staticmethod
    def _solved(rec: Recorder, result) -> list[str]:
        rep, residual = result
        if residual is not None:
            rec.residuals.append(residual)
        rec.fingerprints.setdefault("NI", []).append(rep.iterations)
        return [] if rep.converged else ["the solve did not converge"]

    @staticmethod
    def _oracle(f, p, m, periodic):
        if periodic:
            return spectral.spectral_steady_state(grid.gradient_central(f), p.g, p.h)
        return solver.direct_steady_solve(f, p, m)

    @staticmethod
    def _gap(rec: Recorder, field, exact, tol: float) -> list[str]:
        gap = float(max(np.abs(field.u.values - exact.u.values).max(),
                        np.abs(field.v.values - exact.v.values).max()))
        rec.oracle_gaps.append(gap)
        return [] if gap <= tol else [f"oracle gap {gap:.3e} > {tol:g}"]


WORKLOADS = {w.name: w for w in (CavityGgvf, SnakeTrack, OracleVerify)}

# Small sizes for the benchmark's own smoke test; each still passes its checks.
SMOKE_SIZES = {
    "cavity-ggvf": {"size": 128},
    "snake-track": {"size": 128, "contours": 1},
    "oracle-verify": {"sizes": (12, 16, 24)},
}
