"""Spans around gvflow's public calls, recorded from outside the package.

`installed(tracer)` replaces every public function of the layer modules
(grid, solver, spectral, snake, ioformats) and `cli.main` with a wrapper
that records a span: name, start, end and parent id.  The wrapper is
bound under every name that refers to the original, so the names that
`gvflow.cli`, `gvflow.solver` or the package itself bind with
`from .x import y` record spans too.  Leaving the context restores the
originals.

`layer_metrics(spans)` turns the spans of one pass into the per-layer
metrics named in PREDICTIONS.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass, field

LAYER_MODULES = ("grid", "solver", "spectral", "snake", "ioformats")

# End-to-end metric each per-layer metric is predicted to move, written down
# before any optimisation is measured.  The layer is the name's prefix.
PREDICTIONS = {
    "grid.edge_map_s": "norm_wall_s on cavity-ggvf (well under 1%); setup_s on snake-track",
    "solver.gvf_solve_s": "norm_wall_s on cavity-ggvf and oracle-verify; not snake-track",
    "solver.ggvf_solve_s": "norm_wall_s on cavity-ggvf; setup_s on snake-track",
    "solver.iterations": "must not move; if it does, residual_max and the snake outcome move",
    "solver.pixel_updates": "must not move (NI x domain size)",
    "solver.ns_per_pixel_update":
        "norm_wall_s on cavity-ggvf (most of the pass) and oracle-verify; not snake-track",
    "solver.steady_residual_s": "norm_wall_s on cavity-ggvf and oracle-verify",
    "solver.direct_steady_solve_s": "norm_wall_s on oracle-verify only",
    "solver.converged_ratio": "failed ops (correct) on every workload",
    "solver.oracle_gap_max": "correctness gate of oracle-verify (1e-6 mirror, 1e-8 periodic)",
    "spectral.steady_state_s": "norm_wall_s on oracle-verify only",
    "snake.evolve_s":
        "norm_wall_s on snake-track (most of the pass) and cavity-ggvf; not oracle-verify",
    "snake.steps": "must not move; fixed per seed",
    "snake.us_per_step": "norm_wall_s on snake-track and cavity-ggvf; not oracle-verify",
    "snake.snaxels": "must not move; sets the cost of a step",
    "snake.converged_ratio": "failed ops (correct) on the CLI workloads",
    "snake.boundary_dist_px":
        "correctness gate of cavity-ggvf (< 1.5 px); reported on snake-track",
    "ioformats.write_field_s": "norm_wall_s on cavity-ggvf (a few %)",
    "ioformats.read_field_s": "norm_wall_s on snake-track (a few %)",
    "ioformats.field_bytes": "must not move; codec format",
    "ioformats.render_s": "norm_wall_s on the CLI workloads (a few %)",
    "ioformats.pgm_s": "norm_wall_s on cavity-ggvf (well under 1%)",
    "ioformats.contour_s": "norm_wall_s on the CLI workloads (well under 1%)",
    "cli.main_s": "norm_wall_s on cavity-ggvf and snake-track",
    "cli.self_s": "norm_wall_s on the CLI workloads (orchestration only)",
    "trace.overhead_s": "none: cost of tracing, absent from untraced runs",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store for one pass; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()


def _path_arg(args, kwargs, index):
    return kwargs["path"] if "path" in kwargs else args[index]


# Counts read off a call's result or arguments after its span is closed.
_COUNTERS = {
    "solver.gvf_solve": lambda r, a, k: {
        "solves": 1, "iterations": r.iterations, "pixel_updates": r.pixel_updates,
        "converged_solves": int(r.converged)},
    "snake.snake_evolve": lambda r, a, k: {
        "evolves": 1, "steps": r.iterations, "snaxels": len(r.snake),
        "converged_evolves": int(r.converged)},
    "ioformats.write_field": lambda r, a, k: {"bytes": os.path.getsize(_path_arg(a, k, 1))},
    "ioformats.read_field": lambda r, a, k: {"bytes": os.path.getsize(_path_arg(a, k, 0))},
}
_COUNTERS["solver.ggvf_solve"] = _COUNTERS["solver.gvf_solve"]


def _wrap(tracer: Tracer, name: str, fn):
    counter = _COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            span.counts = counter(result, args, kwargs)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every call of a public gvflow function through `tracer`."""
    package = importlib.import_module("gvflow")
    cli = importlib.import_module("gvflow.cli")
    layers = [importlib.import_module(f"gvflow.{m}") for m in LAYER_MODULES]
    wrappers = {}
    for mod in layers:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrappers[id(obj)] = _wrap(tracer, f"{layer}.{name}", obj)
    wrappers[id(cli.main)] = _wrap(tracer, "cli.main", cli.main)
    patched = []
    for mod in (package, cli, *layers):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                setattr(mod, name, wrappers[id(obj)])
                patched.append((mod, name, obj))
    try:
        yield tracer
    finally:
        for mod, name, obj in patched:
            setattr(mod, name, obj)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass; a layer the pass never calls reads 0."""
    total: dict[str, float] = {}
    counts: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    solve_s = t("solver.gvf_solve", "solver.ggvf_solve")
    pixel_updates = counts.get("pixel_updates", 0)
    solves = counts.get("solves", 0)
    evolve_s = t("snake.snake_evolve")
    steps = counts.get("steps", 0)
    evolves = counts.get("evolves", 0)
    main_spans = [s for s in spans if s.name == "cli.main"]
    return {
        "grid.edge_map_s": t("grid.edge_map"),
        "solver.gvf_solve_s": t("solver.gvf_solve"),
        "solver.ggvf_solve_s": t("solver.ggvf_solve"),
        "solver.iterations": counts.get("iterations", 0),
        "solver.pixel_updates": pixel_updates,
        "solver.ns_per_pixel_update": solve_s / pixel_updates * 1e9 if pixel_updates else 0.0,
        "solver.steady_residual_s": t("solver.steady_residual"),
        "solver.direct_steady_solve_s": t("solver.direct_steady_solve"),
        "solver.converged_ratio": counts.get("converged_solves", 0) / solves if solves else 0.0,
        "spectral.steady_state_s": t("spectral.spectral_steady_state"),
        "snake.evolve_s": evolve_s,
        "snake.steps": steps,
        "snake.us_per_step": evolve_s / steps * 1e6 if steps else 0.0,
        "snake.snaxels": counts.get("snaxels", 0) / evolves if evolves else 0.0,
        "snake.converged_ratio": counts.get("converged_evolves", 0) / evolves if evolves else 0.0,
        "ioformats.write_field_s": t("ioformats.write_field"),
        "ioformats.read_field_s": t("ioformats.read_field"),
        "ioformats.field_bytes": counts.get("bytes", 0),
        "ioformats.render_s": t("ioformats.render"),
        "ioformats.pgm_s": t("ioformats.read_pgm", "ioformats.write_pgm"),
        "ioformats.contour_s": t("ioformats.write_contour", "ioformats.read_contour"),
        "cli.main_s": sum(s.duration for s in main_spans),
        "cli.self_s": sum(s.duration - child_time.get(s.id, 0.0) for s in main_spans),
    }
