"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Iteration-count criteria are trend-level on the synthetic corpus; oracle
and invariant checks are exact up to the stated tolerances.
"""

import math
import time

import numpy as np
import pytest

import gvflow as gv
from gvflow import ioformats as io
from gvflow.ioformats import synth_ushape, ushape_geometry
from gvflow.snake import Snake, SnakeParams, snake_evolve

DT = 0.12
SIGMA = 2.0


def _report(criterion, description, ok):
    print(f"criterion {criterion:>3} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {criterion}: {description}"


# --- shared runs -------------------------------------------------------------


@pytest.fixture(scope="module")
def u128_edge():
    img = synth_ushape(128, 128)
    return gv.edge_map(img, sigma=SIGMA)


@pytest.fixture(scope="module")
def trend_runs(u128_edge):
    """Criterion-3 runs: g sweep at h = 0.01 and h sweep at g = 2.0."""
    t0 = time.perf_counter()
    g_runs = {}
    for g in (0.2, 0.7, 1.0, 2.0):
        p = gv.GvfParams(g=g, h=0.01, dt=DT, delta=1e-4, max_iter=60000)
        g_runs[g] = gv.gvf_solve(u128_edge, p)
    h_runs = {0.01: g_runs[2.0]}
    for h in (0.02, 0.05, 0.1):
        p = gv.GvfParams(g=2.0, h=h, dt=DT, delta=1e-4, max_iter=60000)
        h_runs[h] = gv.gvf_solve(u128_edge, p)
    return {"g": g_runs, "h": h_runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def threshold_runs(u128_edge):
    """Criterion-4 runs: cap sweep at g = 2.0, h = 0.02."""
    t0 = time.perf_counter()
    runs = {}
    for cap in (1.0, 4.0, 7.0, 10.0, 40.0, 80.0):
        p = gv.GvfParams(g=2.0, h=0.02, dt=DT, delta=1e-4, cap=cap, max_iter=60000)
        runs[cap] = gv.gvf_solve(u128_edge, p)
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        w, h = (int(x) for x in rng.integers(8, 13, size=2))
        f = gv.ScalarField.from_array(rng.random((h, w)))
        p = gv.GvfParams(
            g=float(rng.uniform(0.5, 1.9)),
            h=float(rng.uniform(0.05, 0.4)),
            dt=DT, delta=1e-10, max_iter=200000,
        )
        assert gv.validate_params(p) == []
        it = gv.gvf_solve(f, p)
        direct = gv.direct_steady_solve(f, p)
        gap = max(
            np.abs(it.field.u.values - direct.u.values).max(),
            np.abs(it.field.v.values - direct.v.values).max(),
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    _report(1, f"20 random problems, worst L_inf gap {worst:.2e} (<= 1e-6), "
               f"{elapsed:.1f}s (< 5s)", worst <= 1e-6 and elapsed < 5.0)


def test_criterion_02_spectral_oracle():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    f = gv.ScalarField.from_array(rng.random((32, 32)))
    grad = gv.gradient_central(f)
    rep = gv.gvf_solve(
        f, gv.GvfParams(g=1.0, h=0.1, dt=DT, delta=1e-12, max_iter=100000),
        periodic=True,
    )
    exact = gv.spectral_steady_state(grad, 1.0, 0.1)
    num = math.sqrt(float(((rep.field.u.values - exact.u.values) ** 2
                           + (rep.field.v.values - exact.v.values) ** 2).sum()))
    den = math.sqrt(float((exact.u.values ** 2 + exact.v.values ** 2).sum()))
    rel = num / den
    elapsed = time.perf_counter() - t0
    _report(2, f"periodic 32x32 vs DFT steady state, rel L2 {rel:.2e} (<= 1e-8), "
               f"{elapsed:.1f}s (< 2s)", rel <= 1e-8 and elapsed < 2.0)


def test_criterion_03_iteration_trends(trend_runs):
    g_ni = [trend_runs["g"][g].iterations for g in (0.2, 0.7, 1.0, 2.0)]
    h_ni = [trend_runs["h"][h].iterations for h in (0.01, 0.02, 0.05, 0.1)]
    ok = (
        all(r.converged for r in trend_runs["g"].values())
        and all(r.converged for r in trend_runs["h"].values())
        and all(a > b for a, b in zip(g_ni, g_ni[1:]))
        and all(a > b for a, b in zip(h_ni, h_ni[1:]))
        and trend_runs["elapsed"] < 120.0
    )
    _report(3, f"NI strictly decreasing: g sweep {g_ni}, h sweep {h_ni}, "
               f"{trend_runs['elapsed']:.0f}s (< 120s)", ok)


def test_criterion_04_threshold_trend(threshold_runs, u128_edge):
    caps = (1.0, 4.0, 7.0, 10.0, 40.0, 80.0)
    # the edge map's gradient tops every threshold in the sweep
    assert gv.gradient_central(u128_edge).magnitude().max() > max(caps)
    ni = [threshold_runs["runs"][c].iterations for c in caps]
    ok = (
        all(r.converged for r in threshold_runs["runs"].values())
        and all(a <= b for a, b in zip(ni, ni[1:]))
        and threshold_runs["elapsed"] < 60.0
    )
    _report(4, f"NI nondecreasing over caps {ni}, "
               f"{threshold_runs['elapsed']:.0f}s (< 60s)", ok)


def test_criterion_05_window_behavior(u128_edge):
    img = synth_ushape(128, 128)
    from gvflow.cli import build_mask

    p = gv.GvfParams(g=2.0, h=0.02, dt=DT, delta=1e-4, cap=4.0, max_iter=60000)
    full = gv.gvf_solve(u128_edge, p)
    margin_runs = {}
    for margin in (60, 50):
        mask = build_mask(img, margin, None)
        margin_runs[margin] = gv.gvf_solve(u128_edge, p, mask)
    nis = [full.iterations] + [r.iterations for r in margin_runs.values()]
    spread_ok = max(nis) <= min(nis) * 1.15

    hole_mask = build_mask(img, None, (56, 36, 15, 20))
    hole = gv.gvf_solve(u128_edge, p, hole_mask)
    work_ok = (
        hole.inside_count == hole_mask.inside_count < full.inside_count
        and hole.pixel_updates == hole.iterations * hole_mask.inside_count
        and full.pixel_updates == full.iterations * full.inside_count
    )
    _report(5, f"outer margins NI {nis} within +/-15%; hole run updates "
               f"{hole.pixel_updates} = NI x |domain| ({hole.iterations} x "
               f"{hole_mask.inside_count})", spread_ok and work_ok)


def test_criterion_06_energy_decay(trend_runs, threshold_runs):
    reports = list(trend_runs["g"].values()) + list(trend_runs["h"].values())
    reports += list(threshold_runs["runs"].values())
    worst_jump = 0.0
    for rep in reports:
        e = rep.energy_history
        jumps = np.diff(e) - e[:-1] * 1e-12
        worst_jump = max(worst_jump, float(jumps.max(initial=0.0)))
    _report(6, f"energy history nonincreasing on {len(reports)} runs "
               f"(worst slack-adjusted jump {worst_jump:.2e})", worst_jump <= 0.0)


def test_criterion_07_parseval_bound():
    rng = np.random.default_rng(107)
    ok = True
    for cap in (0.2, 1.0, math.inf):
        f = gv.ScalarField.from_array(rng.random((32, 32)) * 4.0)
        grad = gv.clamp_magnitude(gv.gradient_central(f), cap)
        rep = gv.gvf_solve(
            f, gv.GvfParams(g=1.0, h=0.1, dt=DT, delta=1e-10, cap=cap, max_iter=100000),
            periodic=True,
        )
        exact = gv.spectral_steady_state(grad, 1.0, 0.1)
        src = gv.parseval_energy(grad)
        for steady in (rep.field, exact):
            ok = ok and gv.parseval_energy(steady) <= src * (1 + 1e-9)
    _report(7, "steady-state energy bounded by capped-source energy "
               "(periodic runs, slack 1e-9)", ok)


def test_criterion_08_expansion_forms():
    f = gv.ScalarField.from_array(np.zeros((8, 8)))
    f.values[4, 4] = 1.0
    f = gv.ScalarField(f.spec, f.values)
    p = gv.GvfParams(g=1.0, h=0.1, dt=0.2, delta=1e-4)
    gaps = [gv.expansion_check(f, p, n) for n in (1, 2, 3, 4)]
    ok = all(g < 1e-12 for g in gaps)
    _report(8, f"order-1..4 closed forms match explicit steps, gaps "
               f"{['%.1e' % g for g in gaps]} (< 1e-12)", ok)


def test_criterion_09_stability():
    f = gv.ScalarField.from_array(np.zeros((8, 8)))
    f.values[4, 4] = 1.0
    f = gv.ScalarField(f.spec, f.values)
    p = gv.GvfParams(g=1.5, h=0.0, dt=0.2, delta=1e-12, max_iter=1000)  # r = 0.3
    violations = gv.validate_params(p)
    rejected = any("r < 1/4" in v for v in violations)
    with pytest.raises(gv.ParameterError):
        gv.gvf_solve(f, p)
    try:
        gv.gvf_solve(f, p, force=True)
        detected, iteration = False, None
    except gv.DivergenceError as err:
        detected, iteration = True, err.iteration
    ok = rejected and detected and iteration <= 200
    _report(9, f"r = 0.3 rejected; forced run diverged at iteration {iteration} "
               f"(<= 200)", ok)


def _u_boundary_distance(px, py, geo):
    def rect_sdf(rect):
        x0, y0 = rect[0] - 0.5, rect[1] - 0.5
        x1, y1 = rect[0] + rect[2] - 0.5, rect[1] + rect[3] - 0.5
        dx = np.maximum(x0 - px, px - x1)
        dy = np.maximum(y0 - py, py - y1)
        outside = np.hypot(np.maximum(dx, 0), np.maximum(dy, 0))
        inside = np.minimum(np.maximum(dx, dy), 0.0)
        return outside + inside

    return np.abs(np.maximum(rect_sdf(geo.shape), -rect_sdf(geo.notch)))


def test_criterion_10_cavity_demonstration():
    t0 = time.perf_counter()
    size = 384
    img = synth_ushape(size, size)
    geo = ushape_geometry(size, size)
    notch = geo.notch
    f = gv.edge_map(img, sigma=SIGMA)
    grad_peak = float(gv.gradient_central(f).magnitude().max())

    gvf_rep = gv.gvf_solve(
        f, gv.GvfParams(g=2.0, h=0.02, dt=DT, delta=1e-4, max_iter=60000)
    )
    ggvf_rep = gv.ggvf_solve(
        f, gv.GgvfParams(K=100.0, dt=DT, delta=0.02, max_iter=60000)
    )

    # field-level contrast: downward pull just inside the mouth exists for
    # the edge-weighted field, not for the heavily screened constant-g one
    cxl = notch[0] + notch[2] // 2
    probe_rows = (notch[1] + 3, notch[1] + 11)
    gvf_down = max(gvf_rep.field.v.values[y, cxl] for y in probe_rows)
    ggvf_down = min(ggvf_rep.field.v.values[y, cxl] for y in probe_rows)
    field_ok = ggvf_down > 2.0 and gvf_down < 1.0

    # same initialization, same per-image force scale for both snakes
    scale = 0.3 / grad_peak
    center = size / 2 - 0.5
    radius = (geo.shape[2] / 2) * 1.30
    params = SnakeParams(b=0.1, gamma=1.0, step=1.0, eps=0.002, max_iter=60000,
                         resample_spacing=2.0, tensile_sign=-1.0)

    outcomes = {}
    for name, rep in (("gvf", gvf_rep), ("ggvf", ggvf_rep)):
        field = gv.VectorField.from_arrays(
            rep.field.u.values * scale, rep.field.v.values * scale
        )
        init = Snake.circle(center, center, radius,
                            max(16, int(round(2 * math.pi * radius / 2.0))))
        res = snake_evolve(init, field, params)
        pts = res.snake.points
        in_cavity = (
            (pts[:, 0] > notch[0] - 0.5)
            & (pts[:, 0] < notch[0] + notch[2] - 0.5)
            & (pts[:, 1] > notch[1] - 0.5 + 4.0)   # below the open mouth
            & (pts[:, 1] < notch[1] + notch[3] - 0.5)
        )
        outcomes[name] = {
            "converged": res.converged,
            "mean_dist": float(_u_boundary_distance(pts[:, 0], pts[:, 1], geo).mean()),
            "in_cavity": int(in_cavity.sum()),
        }
    elapsed = time.perf_counter() - t0

    ggvf_ok = (
        outcomes["ggvf"]["converged"]
        and outcomes["ggvf"]["mean_dist"] < 1.5
        and outcomes["ggvf"]["in_cavity"] >= 3
    )
    gvf_ok = outcomes["gvf"]["converged"] and outcomes["gvf"]["in_cavity"] == 0
    _report(10, f"GGVF snake: dist {outcomes['ggvf']['mean_dist']:.2f}px, "
                f"{outcomes['ggvf']['in_cavity']} snaxels in cavity; GVF snake: "
                f"{outcomes['gvf']['in_cavity']} in cavity; field contrast "
                f"(GGVF {ggvf_down:.1f} vs GVF {gvf_down:.2f} downward); "
                f"{elapsed:.0f}s (< 180s)",
            ggvf_ok and gvf_ok and field_ok and elapsed < 180.0)


def test_criterion_11_invariant_suites(tmp_path):
    rng = np.random.default_rng(111)
    ok = True

    # tensile telescoping
    for _ in range(5):
        pts = rng.uniform(0, 100, size=(int(rng.integers(4, 50)), 2))
        s = gv.Snake(pts)
        total = np.sum([gv.tensile_force(s, i) for i in range(len(s))], axis=0)
        ok = ok and np.abs(total).max() < 1e-9

    # clamp idempotence
    field = gv.VectorField.from_arrays(rng.uniform(-9, 9, (12, 12)),
                                       rng.uniform(-9, 9, (12, 12)))
    once = gv.clamp_magnitude(field, 2.0)
    twice = gv.clamp_magnitude(once, 2.0)
    ok = ok and np.array_equal(once.u.values, twice.u.values)
    ok = ok and np.array_equal(once.v.values, twice.v.values)

    # Laplacian zero sum under the mirror rule
    for _ in range(5):
        f = gv.ScalarField.from_array(rng.uniform(-100, 100, (11, 14)))
        lap = gv.laplacian_5pt(f)
        ok = ok and abs(lap.values.sum()) <= 1e-9 * max(1.0, np.abs(lap.values).sum())

    # file round-trips
    img = gv.ScalarField.from_array(rng.integers(0, 256, (9, 7)).astype(float))
    io.write_pgm(img, tmp_path / "i.pgm")
    ok = ok and np.array_equal(io.read_pgm(tmp_path / "i.pgm").values, img.values)
    vf = gv.VectorField.from_arrays(rng.standard_normal((6, 6)),
                                    rng.standard_normal((6, 6)))
    io.write_field(vf, tmp_path / "f.gvf")
    back = io.read_field(tmp_path / "f.gvf")
    ok = ok and np.array_equal(back.u.values, vf.u.values)
    ok = ok and np.array_equal(back.v.values, vf.v.values)
    contour = rng.uniform(0, 50, size=(12, 2))
    io.write_contour(contour, tmp_path / "c.csv")
    ok = ok and np.array_equal(io.read_contour(tmp_path / "c.csv"), contour)

    _report(11, "tensile telescoping, clamp idempotence, Laplacian zero-sum, "
                "file round-trips", ok)
