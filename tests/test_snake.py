"""Snaxel contour forces, sampling, evolution, resampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvflow as gv
from gvflow import snake as snake_mod
from gvflow.errors import DivergenceError, GeometryError, ParameterError


def constant_field(spec, ux, vy):
    return gv.VectorField.from_arrays(
        np.full(spec.shape, float(ux)), np.full(spec.shape, float(vy))
    )


class TestSnakeType:
    def test_needs_four_points(self):
        with pytest.raises(ParameterError):
            gv.Snake(np.zeros((3, 2)))

    def test_circle_constructor(self):
        s = gv.Snake.circle(10, 10, 5, 16)
        assert len(s) == 16
        r = np.hypot(s.points[:, 0] - 10, s.points[:, 1] - 10)
        assert np.allclose(r, 5.0)

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            gv.SnakeParams(b=-1.0)
        with pytest.raises(ParameterError):
            gv.SnakeParams(step=0.0)
        with pytest.raises(ParameterError):
            gv.SnakeParams(tensile_sign=0.5)

    @pytest.mark.parametrize("max_iter", [2.5, 1.0, math.nan, math.inf, True, 0, -3, "10", None])
    def test_max_iter_must_be_an_integer_of_at_least_one(self, max_iter):
        with pytest.raises(ParameterError, match="max_iter must be an integer >= 1"):
            gv.SnakeParams(max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [1, np.int64(7)])
    def test_max_iter_accepts_integers(self, max_iter):
        assert gv.SnakeParams(max_iter=max_iter).max_iter == max_iter

    @pytest.mark.parametrize("name", ["b", "gamma", "step", "eps", "resample_spacing"])
    def test_params_reject_nan(self, name):
        with pytest.raises(ParameterError):
            gv.SnakeParams(**{name: math.nan})

    @pytest.mark.parametrize("name", ["b", "gamma", "step", "eps", "resample_spacing"])
    def test_params_reject_inf(self, name):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            gv.SnakeParams(**{name: math.inf})


class TestTensileForce:
    def test_collinear_midpoint(self):
        s = gv.Snake(np.array([[0.0, 0], [1, 0], [2, 0], [1, -5]]))
        assert gv.tensile_force(s, 1) == (0.0, 0.0)

    def test_hat_configuration(self):
        s = gv.Snake(np.array([[0.0, 0], [1, 1], [2, 0], [1, -5]]))
        assert gv.tensile_force(s, 1) == (0.0, 1.0)

    def test_regular_polygon_points_outward(self):
        n, r = 8, 10.0
        s = gv.Snake.circle(0, 0, r, n)
        expected = r * (1 - math.cos(2 * math.pi / n))
        for i in range(n):
            bx, by = gv.tensile_force(s, i)
            p = s.points[i]
            radial = (bx * p[0] + by * p[1]) / np.hypot(p[0], p[1])
            assert radial == pytest.approx(expected, rel=1e-9)
            assert math.hypot(bx, by) == pytest.approx(expected, rel=1e-9)

    def test_telescoping_sum_is_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            pts = rng.uniform(0, 50, size=(int(rng.integers(4, 40)), 2))
            s = gv.Snake(pts)
            total = np.zeros(2)
            for i in range(len(s)):
                total += gv.tensile_force(s, i)
            assert np.abs(total).max() < 1e-9

    def test_index_out_of_range(self):
        s = gv.Snake.circle(0, 0, 1, 8)
        with pytest.raises(ParameterError):
            gv.tensile_force(s, 8)


class TestBilinearSampling:
    def test_exact_at_pixel_centers(self):
        rng = np.random.default_rng(29)
        field = gv.VectorField.from_arrays(rng.random((6, 7)), rng.random((6, 7)))
        for x, y in ((0, 0), (3, 2), (6, 5)):
            u, v = gv.sample_field_bilinear(field, x, y)
            assert u == field.u.values[y, x]
            assert v == field.v.values[y, x]

    def test_constant_everywhere(self):
        field = constant_field(gv.GridSpec(6, 6), 1.25, -0.5)
        for x, y in ((0.3, 4.9), (2.5, 2.5), (5.0, 0.0)):
            assert gv.sample_field_bilinear(field, x, y) == (1.25, -0.5)

    def test_cell_center_average(self):
        field = gv.VectorField.zeros(gv.GridSpec(4, 4))
        field.u.values[:, 1] = 0.0
        field.u.values[:, 2] = 1.0
        u, _ = gv.sample_field_bilinear(field, 1.5, 1.5)
        assert u == pytest.approx(0.5)

    def test_out_of_rectangle_clamps(self):
        field = constant_field(gv.GridSpec(5, 5), 2.0, 3.0)
        assert gv.sample_field_bilinear(field, -10.0, 100.0) == (2.0, 3.0)


class TestResampleContour:
    def test_uniform_square_preserved(self):
        square = gv.Snake(np.array([[0.0, 0], [10, 0], [10, 10], [0, 10]]))
        out = gv.resample_contour(square, 10.0)
        assert len(out) == 4
        assert np.abs(out.points - square.points).max() < 1e-9

    def test_perimeter_100_spacing_10(self):
        rect = gv.Snake(np.array([[0.0, 0], [30, 0], [30, 20], [0, 20]]))
        out = gv.resample_contour(rect, 10.0)
        assert len(out) == 10
        # arc-length gaps along the rectangle must all equal 10
        def arc_pos(p):
            x, y = p
            if y == 0:
                return x
            if x == 30:
                return 30 + y
            if y == 20:
                return 50 + (30 - x)
            return 80 + (20 - y)
        arcs = np.array(sorted(arc_pos(p) for p in out.points))
        gaps = np.diff(np.concatenate([arcs, [arcs[0] + 100.0]]))
        assert np.abs(gaps - 10.0).max() < 1e-6

    def test_floor_of_four(self):
        square = gv.Snake(np.array([[0.0, 0], [4, 0], [4, 4], [0, 4]]))
        out = gv.resample_contour(square, 100.0)
        assert len(out) == 4

    @pytest.mark.parametrize("spacing", [1e-320, 5e-324])
    def test_spacing_whose_count_overflows_is_rejected(self, spacing):
        sq = gv.Snake(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]))
        with pytest.raises(ParameterError, match="too small"):
            gv.resample_contour(sq, spacing)

    @pytest.mark.parametrize("spacing", [1e-300, 1e-9, 1e-5])
    def test_count_past_the_cap_is_rejected_before_allocating(self, spacing):
        # perimeter 40: 1e-9 would ask for 4e10 snaxels, 1e-5 for 4e6
        sq = gv.Snake(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]))
        with pytest.raises(ParameterError, match="too small"):
            gv.resample_contour(sq, spacing)

    def test_count_at_the_cap_is_kept(self, monkeypatch):
        monkeypatch.setattr(snake_mod, "_MAX_RESAMPLED", 100)
        sq = gv.Snake(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]))
        assert len(gv.resample_contour(sq, 40 / 100.4)) == 100
        with pytest.raises(ParameterError, match="past the cap of 100"):
            gv.resample_contour(sq, 40 / 100.6)

    def test_degenerate_contour(self):
        s = gv.Snake(np.zeros((5, 2)))
        with pytest.raises(GeometryError):
            gv.resample_contour(s, 1.0)

    def test_anchored_at_first_point(self):
        s = gv.Snake.circle(20, 20, 10, 40)
        out = gv.resample_contour(s, 2.0)
        assert np.allclose(out.points[0], s.points[0], atol=1e-12)


class TestSnakeEvolve:
    def test_all_zero_coefficients_freeze(self):
        spec = gv.GridSpec(20, 20)
        field = constant_field(spec, 5.0, 5.0)
        s = gv.Snake.circle(10, 10, 4, 12)
        res = gv.snake_evolve(s, field, gv.SnakeParams(b=0.0, gamma=0.0, eps=0.01))
        assert res.converged and res.iterations == 1
        assert np.array_equal(res.snake.points, s.points)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 40), st.integers(3, 40), st.integers(4, 40),
           st.integers(0, 2**32 - 1), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
           st.floats(0.01, 3.0), st.sampled_from([1.0, -1.0]))
    def test_one_step_stays_within_the_force_budget(self, w, h, n, seed, b, gamma, step, sign):
        # the clamp projects onto the image rectangle, so no snaxel moves
        # further than step * (b * max|B_i| + gamma * max|F(p_i)|)
        rng = np.random.default_rng(seed)
        field = gv.VectorField.from_arrays(*rng.normal(0.0, 3.0, (2, h, w)))
        pts = rng.uniform(-5.0, max(w, h) + 5.0, (n, 2))
        s = gv.Snake(np.clip(pts, 0.0, [w - 1.0, h - 1.0]))
        budget = step * (
            b * max(math.hypot(*gv.tensile_force(s, i)) for i in range(n))
            + gamma * max(math.hypot(*gv.sample_field_bilinear(field, x, y))
                          for x, y in s.points))
        res = gv.snake_evolve(s, field, gv.SnakeParams(
            b=b, gamma=gamma, step=step, tensile_sign=sign, max_iter=1,
            resample_spacing=0.0))
        moved = np.hypot(*(res.snake.points - s.points).T).max()
        assert moved == res.displacement_history[0]
        assert moved <= budget * (1.0 + 1e-12) + 1e-12

    def test_zero_field_zero_tension(self):
        spec = gv.GridSpec(20, 20)
        s = gv.Snake.circle(10, 10, 4, 12)
        res = gv.snake_evolve(s, gv.VectorField.zeros(spec), gv.SnakeParams(b=0.0, gamma=2.0))
        assert res.converged and res.iterations == 1

    def test_translation_equivariance_constant_field(self):
        spec = gv.GridSpec(64, 64)
        field = constant_field(spec, 0.05, -0.02)
        p = gv.SnakeParams(b=0.1, gamma=1.0, step=1.0, eps=1e-6, max_iter=7,
                           resample_spacing=0.0)
        base = gv.snake_evolve(gv.Snake.circle(25, 30, 5, 16), field, p)
        moved = gv.snake_evolve(gv.Snake.circle(31, 24, 5, 16), field, p)
        assert np.allclose(moved.snake.points - base.snake.points,
                           np.array([6.0, -6.0]), atol=1e-9)

    def test_expanding_polygon_stays_regular(self):
        spec = gv.GridSpec(100, 100)
        p = gv.SnakeParams(b=0.3, gamma=0.0, step=1.0, eps=1e-9, max_iter=20,
                           resample_spacing=0.0, tensile_sign=1.0)
        res = gv.snake_evolve(gv.Snake.circle(50, 50, 10, 12), gv.VectorField.zeros(spec), p)
        r = np.hypot(res.snake.points[:, 0] - 50, res.snake.points[:, 1] - 50)
        assert r.std() < 1e-9
        factor = 1 + 0.3 * (1 - math.cos(2 * math.pi / 12))
        assert r[0] == pytest.approx(10.0 * factor ** 20, rel=1e-12)

    def test_contracting_polygon_shrinks(self):
        spec = gv.GridSpec(100, 100)
        p = gv.SnakeParams(b=0.3, gamma=0.0, step=1.0, eps=1e-9, max_iter=20,
                           resample_spacing=0.0, tensile_sign=-1.0)
        res = gv.snake_evolve(gv.Snake.circle(50, 50, 10, 12), gv.VectorField.zeros(spec), p)
        r = np.hypot(res.snake.points[:, 0] - 50, res.snake.points[:, 1] - 50)
        assert np.all(r < 10.0) and r.std() < 1e-9

    def test_positions_clamped_to_rectangle(self):
        spec = gv.GridSpec(16, 16)
        field = constant_field(spec, 10.0, 0.0)
        res = gv.snake_evolve(
            gv.Snake.circle(8, 8, 3, 8), field,
            gv.SnakeParams(b=0.0, gamma=1.0, step=1.0, eps=1e-3, max_iter=10,
                           resample_spacing=0.0),
        )
        assert res.snake.points[:, 0].max() <= 15.0

    def test_displacement_history_matches_iterations(self):
        spec = gv.GridSpec(32, 32)
        field = constant_field(spec, 0.11, 0.0)
        res = gv.snake_evolve(
            gv.Snake.circle(16, 16, 5, 12), field,
            gv.SnakeParams(b=0.0, gamma=1.0, eps=0.2, max_iter=50, resample_spacing=0.0),
        )
        assert len(res.displacement_history) == res.iterations
        # a 0.11 px/step drift converges the moment the contour hits the wall
        assert np.all(res.displacement_history[:-1] >= 0.1)

    def test_snaxel_count_is_capped(self):
        # tensile +1 with resampling zig-zags against the border and grows
        # without bound; the cap is the field's pixel count
        with pytest.raises(DivergenceError, match="past the cap of 1024") as err:
            gv.snake_evolve(gv.Snake.circle(15.5, 15.5, 8.0, 25),
                            gv.VectorField.zeros(gv.GridSpec(32, 32)),
                            gv.SnakeParams(max_iter=400))
        if not 1 < err.value.iteration < 400:
            pytest.fail(f"raised at iteration {err.value.iteration}")

    def test_overflowing_resample_count_is_divergence(self):
        # perimeter / spacing overflows to inf: the cap is crossed, and
        # the count is never rounded to an integer
        with pytest.raises(DivergenceError, match="past the cap of 1024") as err:
            gv.snake_evolve(gv.Snake.circle(15.5, 15.5, 8.0, 25),
                            gv.VectorField.zeros(gv.GridSpec(32, 32)),
                            gv.SnakeParams(resample_spacing=1e-320))
        assert err.value.iteration == 1

    def test_snaxel_cap_admits_the_initial_count(self):
        # 80 snaxels on an 8x8 grid, bunched so that the first step
        # resamples them at about the same count
        t = 2.0 * np.pi * (np.arange(80) / 80) ** 1.3
        s = gv.Snake(np.column_stack([3.5 + 3.0 * np.cos(t), 3.5 + 3.0 * np.sin(t)]))
        p = gv.SnakeParams(b=0.01, tensile_sign=-1.0, eps=1e-9, max_iter=3,
                           resample_spacing=s.perimeter() / 80)
        res = gv.snake_evolve(s, gv.VectorField.zeros(gv.GridSpec(8, 8)), p)
        assert res.iterations == 3
        assert 64 < len(res.snake) <= 80

    def test_initial_points_outside_are_clamped_before_the_loop(self):
        # radius 34 about the center of a 64x64 grid: the clamp onto the
        # border is not a step's movement, so no force-bound error
        spec = gv.GridSpec(64, 64)
        field = constant_field(spec, 0.01, -0.02)
        p = gv.SnakeParams(b=0.3, resample_spacing=0.0, max_iter=50)
        outside = gv.Snake.circle(31.5, 31.5, 34.0, 48)
        clamped = gv.Snake(np.clip(outside.points, 0.0, 63.0))
        res = gv.snake_evolve(outside, field, p)
        ref = gv.snake_evolve(clamped, field, p)
        assert res.iterations == ref.iterations
        assert np.array_equal(res.snake.points, ref.snake.points)
        assert np.array_equal(res.displacement_history, ref.displacement_history)
        assert res.displacement_history[0] < 0.5


class TestDiskConvergence:
    def test_ggvf_snake_locks_onto_disk_boundary(self):
        # end-to-end: binary disk, edge-weighted diffusion, circle shrinks
        # onto the boundary within a fraction of a pixel
        from gvflow.ioformats import synth_disk

        img = synth_disk(128, 128, 64, 64, 25)
        f = gv.edge_map(img, sigma=2.0)
        peak = gv.gradient_central(f).magnitude().max()
        rep = gv.ggvf_solve(f, gv.GgvfParams(K=100.0, dt=0.12, delta=0.02, max_iter=20000))
        scale = 0.3 / peak
        field = gv.VectorField.from_arrays(rep.field.u.values * scale,
                                           rep.field.v.values * scale)
        res = gv.snake_evolve(
            gv.Snake.circle(64, 64, 40, int(round(2 * math.pi * 40 / 2.0))),
            field,
            gv.SnakeParams(b=0.2, gamma=1.0, step=1.0, eps=0.01, max_iter=20000,
                           tensile_sign=-1.0),
        )
        assert res.converged
        d = np.abs(np.hypot(res.snake.points[:, 0] - 64, res.snake.points[:, 1] - 64) - 25)
        assert d.mean() < 1.5
