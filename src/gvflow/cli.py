"""Command-line orchestration: field computation, snake runs, spectral
verification, and parameter sweeps.

Subcommands: synth, gvf, ggvf, snake, spectral, sweep, render.  Each
takes only the flags it reads (build_parser lists them); a flag of the
solve, domain or snake stage is declared once, in _FLAGS.  Flag values
override config-file values (JSON, flat keys named after the flags with
dashes replaced by underscores; keys that only other commands read are
accepted), which override built-in defaults; the effective configuration
of the keys the command reads is echoed to stdout and embedded in the
run summary so a run is reconstructible from its artifacts.  Flags have
no abbreviations, and a malformed command line is a parameter
validation failure.

Exit codes: 0 success, 1 parameter validation failure, 2 I/O or format
error, 3 divergence, 4 non-convergence at the iteration cap.

All artifacts are deterministic except the wall-time entries in
summaries and sweep tables.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import ioformats
from .errors import DivergenceError, FormatError, GvfError, ParameterError
from .grid import ScalarField, VectorField, clamp_magnitude, edge_map, gradient_central
from .snake import Snake, SnakeParams, snake_evolve
from .solver import (
    DomainMask,
    GgvfParams,
    GvfParams,
    ggvf_solve,
    gvf_solve,
    steady_residual,
)
from .spectral import parseval_energy, spectral_steady_state

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_DIVERGENCE = 3
EXIT_NO_CONVERGENCE = 4

def _parse_box(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    try:
        x, y, w, h = (int(p) for p in parts)
    except ValueError:
        raise ParameterError(f"expected x,y,w,h but got {text!r}") from None
    if w <= 0 or h <= 0:
        raise ParameterError("box width and height must be positive")
    return (x, y, w, h)


def _parse_circle(text: str):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []  # reported below, with the wrong counts and non-finite values
    if len(parts) not in (3, 4) or not all(math.isfinite(p) for p in parts):
        raise ParameterError(f"expected finite cx,cy,r[,n] but got {text!r}")
    cx, cy, r = parts[:3]
    if len(parts) == 4 and not parts[3].is_integer():
        raise ParameterError(f"circle snaxel count n must be an integer, got {parts[3]:g}")
    n = int(parts[3]) if len(parts) == 4 else max(16, int(round(2.0 * math.pi * r / 2.0)))
    return cx, cy, r, n


def _circle_snake(circle, spec) -> Snake:
    """The Snake of a parsed circle, with at most one snaxel per pixel of
    the grid, the cap snake_evolve applies; checked before allocating."""
    cx, cy, r, n = circle
    if n > spec.width * spec.height:
        raise ParameterError(
            f"circle snaxel count {n:.6g} exceeds the {spec.width}x{spec.height} grid's "
            f"{spec.width * spec.height} pixels")
    return Snake.circle(cx, cy, r, n)


def foreground_bbox(image: ScalarField) -> tuple[int, int, int, int] | None:
    """Bounding box (x, y, w, h) of pixels above half the peak intensity."""
    peak = image.values.max()
    if peak <= image.values.min():
        return None
    ys, xs = np.nonzero(image.values > 0.5 * peak)
    return (
        int(xs.min()),
        int(ys.min()),
        int(xs.max() - xs.min() + 1),
        int(ys.max() - ys.min() + 1),
    )


def build_mask(
    image: ScalarField,
    outer_margin: int | None,
    inner_box: tuple[int, int, int, int] | None,
) -> DomainMask:
    """Active domain: the foreground box grown by the outer margin
    (clipped to the frame) minus an optional rectangular hole."""
    outer = None
    if outer_margin is not None:
        bbox = foreground_bbox(image)
        if bbox is not None:
            x, y, w, h = bbox
            outer = (x - outer_margin, y - outer_margin, w + 2 * outer_margin, h + 2 * outer_margin)
    return DomainMask.from_rects(image.spec, outer=outer, hole=inner_box)


# Every flag a config file may set: name -> (type, default, help).  A bool
# type marks a switch and a tuple lists the allowed strings.
_FLAGS = {
    "g": (float, 2.0, "diffusion coefficient"),
    "h": (float, 0.02, "reaction coefficient"),
    "k": (float, 100.0, "edge sensitivity K of the per-pixel weight"),
    "dt": (float, 0.12, "time step"),
    "delta": (float, 1e-4, "termination threshold"),
    "threshold": (float, math.inf, "source gradient magnitude cap T"),
    "t_max": (int, 20000, "iteration cap"),
    "sigma": (float, 2.0, "edge map Gaussian sigma"),
    "edge_sign": (("attractive", "potential"), "attractive", "edge map sign"),
    "force": (bool, False, "solve despite constraint violations"),
    "periodic": (bool, False, "periodic borders instead of mirrored ones"),
    "outer_margin": (int, None, "active window margin around the foreground box"),
    "inner_box": (_parse_box, None, "rectangular hole x,y,w,h"),
    "b": (float, 0.2, "tensile scale"),
    "gamma": (float, 1.0, "external force scale"),
    "step": (float, 1.0, "evolution step"),
    "eps": (float, 0.01, "snake termination threshold"),
    "snake_iters": (int, 2000, "snake iteration cap"),
    "spacing": (float, 2.0, "resampling arc spacing (0 disables)"),
    "normalize": (bool, False, "use unit force vectors"),
    "tensile_sign": (float, 1.0, "+1 as defined (inflating), -1 smoothing"),
    "force_peak": (float, 0.3, "largest per-step displacement for a unit gamma"),
}
_SOLVE = ("dt", "delta", "threshold", "t_max", "sigma", "edge_sign")
_DOMAIN = ("force", "periodic", "outer_margin", "inner_box")
_SNAKE = ("b", "gamma", "step", "eps", "snake_iters", "spacing", "normalize",
          "tensile_sign", "force_peak")


def _config_value(key: str, value):
    """A config-file value checked like its flag.  A JSON string is read
    as the flag's text; a number must suit the flag's type (an integral
    one for an integer flag); a switch takes true or false; a box may
    also be a list of four integers.  Keys whose default is None accept
    null."""
    kind, default, _ = _FLAGS[key]
    if value is None and default is None:
        return None
    try:
        if kind is bool:
            ok = isinstance(value, bool)
        elif isinstance(kind, tuple):
            ok = value in kind
        elif isinstance(value, str):
            return kind(value)
        elif kind is _parse_box:
            ok = isinstance(value, list) and all(type(v) is int for v in value)
            if ok:
                return _parse_box(",".join(str(v) for v in value))
        else:
            ok = type(value) is int or (
                type(value) is float and (kind is float or value.is_integer()))
            if ok:
                value = kind(value)
    except (ValueError, OverflowError):
        ok = False
    if not ok:
        raise ParameterError(f"config key {key!r} has a value of the wrong type: {value!r}")
    return value


def _effective(args: argparse.Namespace) -> dict:
    """Merge defaults <- config file <- explicit flags over the _FLAGS
    names the command's parser registered.

    Every config key must be one of the _FLAGS names, with a value of the
    flag's type; a config file may hold keys that only other commands
    use."""
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:
                raise FormatError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ParameterError("config file must hold a flat JSON object")
        unknown = sorted(set(loaded) - set(_FLAGS))
        if unknown:
            raise ParameterError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
        cfg = {key: _config_value(key, value) for key, value in loaded.items()}
    out = {}
    for key, (_, default, _) in _FLAGS.items():
        if hasattr(args, key):
            flag = getattr(args, key)
            out[key] = flag if flag is not None else cfg.get(key, default)
    return out


def _sanitize(obj):
    """JSON-safe copy: numpy scalars to Python ones, infinities to 'inf'."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _echo(effective: dict) -> None:
    print(json.dumps({"effective_config": _sanitize(effective)}, sort_keys=True))


def _write_summary(out_dir: Path, summary: dict) -> None:
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(_sanitize(summary), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _snake_params(cfg: dict) -> SnakeParams:
    """The snake stage's parameters, checked before any work is done."""
    if not 0 < cfg["force_peak"] < math.inf:
        raise ParameterError(f"--force-peak must be finite and > 0, got {cfg['force_peak']!r}")
    return SnakeParams(
        b=cfg["b"],
        gamma=cfg["gamma"],
        step=cfg["step"],
        eps=cfg["eps"],
        max_iter=int(cfg["snake_iters"]),
        resample_spacing=cfg["spacing"],
        normalize=bool(cfg["normalize"]),
        tensile_sign=float(cfg["tensile_sign"]),
    )


def _run_snake_stage(field: VectorField, grad_peak: float, cfg: dict, params: SnakeParams,
                     out_dir: Path, init):
    """Scale the force so a unit source gradient moves a snaxel at most
    force_peak pixels per step, evolve, and write contour artifacts."""
    scale = cfg["force_peak"] / grad_peak if grad_peak > 0 else 1.0
    scaled = VectorField.from_arrays(field.u.values * scale, field.v.values * scale)
    result = snake_evolve(init, scaled, params)
    ioformats.write_contour(result.snake.points, out_dir / "contour.csv")
    ioformats.render(field, "magnitude-heatmap", out_dir / "snake_overlay.ppm",
                     snake_points=result.snake.points)
    return result


def cmd_synth(args) -> int:
    if args.shape == "ushape":
        img = ioformats.synth_ushape(args.width, args.height)
    elif args.shape == "box-hole":
        img = ioformats.synth_box_with_hole(args.width, args.height, args.hole_box)
    elif args.shape == "disk":
        if args.cx is None or args.cy is None or args.radius is None:
            raise ParameterError("disk needs --cx, --cy and --radius")
        img = ioformats.synth_disk(args.width, args.height, args.cx, args.cy, args.radius)
    else:
        raise ParameterError(f"unknown shape {args.shape!r}")
    ioformats.write_pgm(img, args.out_image)
    print(json.dumps({"wrote": str(args.out_image), "shape": args.shape}, sort_keys=True))
    return EXIT_OK


def _pipeline(args) -> int:
    cfg = _effective(args)
    _echo(cfg)
    circle = _parse_circle(args.snake) if args.snake else None
    snake_params = _snake_params(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    image = ioformats.read_pgm(args.image)
    init = _circle_snake(circle, image.spec) if circle else None
    f = edge_map(image, sigma=cfg["sigma"], sign=cfg["edge_sign"])
    mask = build_mask(image, cfg["outer_margin"], cfg["inner_box"])

    threshold = float(cfg["threshold"])
    t0 = time.perf_counter()
    run = dict(dt=cfg["dt"], delta=cfg["delta"], cap=threshold, max_iter=int(cfg["t_max"]))
    if args.command == "ggvf":
        solve, params = ggvf_solve, GgvfParams(K=cfg["k"], **run)
    else:
        solve, params = gvf_solve, GvfParams(g=cfg["g"], h=cfg["h"], **run)
    report = solve(f, params, mask, periodic=cfg["periodic"], force=cfg["force"])
    wall_ms = (time.perf_counter() - t0) * 1000.0

    ioformats.write_field(report.field, out_dir / "field.gvf")
    ioformats.render(report.field, "magnitude-heatmap", out_dir / "field_magnitude.ppm")
    ioformats.render(report.field, "arrows", out_dir / "field_arrows.ppm")
    residual = steady_residual(report.field, f, report.params, mask)

    summary = {
        "command": args.command,
        "image": str(args.image),
        "effective_config": cfg,
        "NI": report.iterations,
        "converged": report.converged,
        "residual": residual,
        "inside_count": report.inside_count,
        "pixel_updates": report.pixel_updates,
        "wall_ms": wall_ms,
        "artifacts": ["field.gvf", "field_magnitude.ppm", "field_arrows.ppm"],
    }

    snake_converged = True
    if init is not None:
        grad_peak = float(clamp_magnitude(gradient_central(f), threshold).magnitude().max())
        result = _run_snake_stage(report.field, grad_peak, cfg, snake_params, out_dir, init)
        snake_converged = result.converged
        summary["snake"] = {
            "iterations": result.iterations,
            "converged": result.converged,
            "snaxels": len(result.snake),
        }
        summary["artifacts"] += ["contour.csv", "snake_overlay.ppm"]

    _write_summary(out_dir, summary)
    if not report.converged or not snake_converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_snake(args) -> int:
    cfg = _effective(args)
    _echo(cfg)
    params = _snake_params(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    field = ioformats.read_field(args.field)
    if args.init_circle:
        init = _circle_snake(_parse_circle(args.init_circle), field.spec)
    elif args.init_contour:
        init = Snake(ioformats.read_contour(args.init_contour))
    else:
        raise ParameterError("need --init-circle or --init-contour")
    if args.force_scale is None:
        peak = float(field.magnitude().max())
    elif 0 < args.force_scale < math.inf:
        peak = args.force_scale
    else:
        raise ParameterError(f"--force-scale must be finite and > 0, got {args.force_scale!r}")
    t0 = time.perf_counter()
    result = _run_snake_stage(field, peak, cfg, params, out_dir, init)
    _write_summary(out_dir, {
        "command": "snake",
        "field": str(args.field),
        "effective_config": cfg,
        "iterations": result.iterations,
        "converged": result.converged,
        "snaxels": len(result.snake),
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
        "artifacts": ["contour.csv", "snake_overlay.ppm"],
    })
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_spectral(args) -> int:
    cfg = _effective(args)
    _echo(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    image = ioformats.read_pgm(args.image)
    f = edge_map(image, sigma=cfg["sigma"], sign=cfg["edge_sign"])
    grad = clamp_magnitude(gradient_central(f), float(cfg["threshold"]))
    params = GvfParams(
        g=cfg["g"], h=cfg["h"], dt=cfg["dt"], delta=cfg["delta"],
        cap=float(cfg["threshold"]), max_iter=int(cfg["t_max"]),
    )
    t0 = time.perf_counter()
    report = gvf_solve(f, params, periodic=True)
    exact = spectral_steady_state(grad, cfg["g"], cfg["h"])
    num = math.sqrt(float(
        ((report.field.u.values - exact.u.values) ** 2
         + (report.field.v.values - exact.v.values) ** 2).sum()
    ))
    den = math.sqrt(float((exact.u.values**2 + exact.v.values**2).sum()))
    rel = num / den if den > 0 else 0.0
    _write_summary(out_dir, {
        "command": "spectral",
        "image": str(args.image),
        "effective_config": cfg,
        "NI": report.iterations,
        "converged": report.converged,
        "relative_l2_error": rel,
        "source_energy": parseval_energy(grad),
        "steady_energy": parseval_energy(exact),
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    })
    print(json.dumps({"relative_l2_error": rel}, sort_keys=True))
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _floats(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ParameterError(f"expected comma-separated numbers but got {text!r}") from None


def _margin(tok: str) -> int | None:
    if tok == "none":
        return None
    try:
        return int(tok)
    except ValueError:
        raise ParameterError(f"--outer-list expects integers or 'none' but got {tok!r}") from None


def cmd_sweep(args) -> int:
    cfg = _effective(args)
    _echo(cfg)
    gs = _floats(args.g_list) if args.g_list else [cfg["g"]]
    hs = _floats(args.h_list) if args.h_list else [cfg["h"]]
    dts = _floats(args.dt_list) if args.dt_list else [cfg["dt"]]
    deltas = _floats(args.delta_list) if args.delta_list else [cfg["delta"]]
    ts = _floats(args.t_list) if args.t_list else [float(cfg["threshold"])]
    inners = (
        [None if tok == "none" else _parse_box(tok) for tok in args.inner_list.split(";")]
        if args.inner_list
        else [None]
    )
    outers = [_margin(tok) for tok in args.outer_list.split(";")] if args.outer_list else [None]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    image = ioformats.read_pgm(args.image)
    f = edge_map(image, sigma=cfg["sigma"], sign=cfg["edge_sign"])

    rows = []
    for g, h, dt, delta, t_cap, d_out, d_in in itertools.product(
        gs, hs, dts, deltas, ts, outers, inners
    ):
        row = {
            "g": g, "h": h, "dt": dt, "delta": delta,
            "T": "inf" if math.isinf(t_cap) else t_cap,
            "d_in": "none" if d_in is None else "x".join(str(v) for v in d_in),
            "d_out": "none" if d_out is None else d_out,
            "NI": "", "converged": "", "residual": "", "wall_ms": "", "error": "",
        }
        try:
            params = GvfParams(g=g, h=h, dt=dt, delta=delta, cap=t_cap,
                               max_iter=int(cfg["t_max"]))
            mask = build_mask(image, d_out, d_in)
            t0 = time.perf_counter()
            report = gvf_solve(f, params, mask, force=cfg["force"])
            wall = (time.perf_counter() - t0) * 1000.0
            row.update(
                NI=report.iterations,
                converged=report.converged,
                residual=f"{steady_residual(report.field, f, params, mask):.6g}",
                wall_ms=f"{wall:.3f}",
            )
        except GvfError as exc:
            row["error"] = str(exc)
        rows.append(row)

    columns = ["g", "h", "dt", "delta", "T", "d_in", "d_out",
               "NI", "converged", "residual", "wall_ms", "error"]
    with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    print(json.dumps({"rows": len(rows), "wrote": str(out_dir / "sweep.csv")}, sort_keys=True))
    return EXIT_OK


def cmd_render(args) -> int:
    field = ioformats.read_field(args.field)
    contour = ioformats.read_contour(args.contour) if args.contour else None
    ioformats.render(field, args.mode, args.out_image, snake_points=contour,
                     arrow_stride=args.stride)
    print(json.dumps({"wrote": str(args.out_image), "mode": args.mode}, sort_keys=True))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """No abbreviated flags, and a malformed command line is a
    ParameterError instead of a SystemExit."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Register the named _FLAGS entries, and --config to set them from a file."""
    for name in names:
        kind, _, text = _FLAGS[name]
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, action="store_const", const=True, help=text)
        elif isinstance(kind, tuple):
            p.add_argument(flag, choices=kind, help=text)
        else:
            p.add_argument(flag, type=kind, help=text)
    p.add_argument("--config", help="JSON config file (flat keys named after the flags)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gvflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic test image")
    p.add_argument("--shape", required=True, choices=["ushape", "box-hole", "disk"])
    size = f"at least 3; width * height at most {ioformats.SYNTH_MAX_PIXELS}"
    p.add_argument("--width", type=int, required=True, help=size)
    p.add_argument("--height", type=int, required=True, help=size)
    p.add_argument("--hole-box", type=_parse_box, help="hole rectangle x,y,w,h")
    p.add_argument("--cx", type=float)
    p.add_argument("--cy", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--out-image", required=True)
    p.set_defaults(func=cmd_synth)

    for name, coefficients in (("gvf", ("g", "h")), ("ggvf", ("k",))):
        p = sub.add_parser(name, help=f"compute the {name} field from an image")
        p.add_argument("--image", required=True)
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--snake", help="also run a snake from circle cx,cy,r[,n]")
        _add_flags(p, *coefficients, *_SOLVE, *_DOMAIN, *_SNAKE)
        p.set_defaults(func=_pipeline)

    p = sub.add_parser("snake", help="evolve a snake on a stored field")
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init-circle", help="cx,cy,r[,n]")
    p.add_argument("--init-contour", help="contour CSV path")
    p.add_argument("--force-scale", type=float,
                   help="reference force magnitude (defaults to the field peak)")
    _add_flags(p, *_SNAKE)
    p.set_defaults(func=cmd_snake)

    p = sub.add_parser("spectral", help="verify the periodic solve against the DFT oracle")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, "g", "h", *_SOLVE)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("sweep", help="run a parameter grid and write a CSV table")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--g-list")
    p.add_argument("--h-list")
    p.add_argument("--dt-list")
    p.add_argument("--delta-list")
    p.add_argument("--t-list")
    p.add_argument("--outer-list", help="margins, ';' separated, 'none' allowed")
    p.add_argument("--inner-list", help="holes x,y,w,h, ';' separated, 'none' allowed")
    _add_flags(p, "g", "h", *_SOLVE, "force")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="rasterize a stored field to PPM")
    p.add_argument("--field", required=True)
    p.add_argument("--mode", required=True, choices=list(ioformats.RENDER_MODES))
    p.add_argument("--out-image", required=True)
    p.add_argument("--contour", help="overlay contour CSV")
    p.add_argument("--stride", type=int, default=8, help="arrow subsampling stride")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GvfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
