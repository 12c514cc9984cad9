"""Snaxel contour forces, sampling, evolution, resampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvflow as gv
from gvflow import snake as snake_mod
from gvflow.errors import DivergenceError, GeometryError, GvfError, ParameterError
from gvflow.snake import _resample_count, _unit_field


def constant_field(spec, ux, vy):
    return gv.VectorField.from_arrays(
        np.full(spec.shape, float(ux)), np.full(spec.shape, float(vy))
    )


# The allocating snake loop that the workspace loop replaced, kept as the
# reference: snake_evolve must equal it to the last bit.

class ReferenceSampler:
    """Bilinear samples of a (2, N) array of clamped points, allocating."""

    def __init__(self, field):
        w = field.spec.width
        self._uv = field.values.reshape(2, -1)
        self._hi = np.array([[w - 1.0], [field.spec.height - 1.0]])
        self._base_hi = np.array([[w - 2], [field.spec.height - 2]])
        self._width = w
        self._corners = np.array([[0], [1], [w], [w + 1]])

    def clamp(self, xy):
        return np.maximum(np.minimum(xy, self._hi), 0.0)

    def __call__(self, xy):
        base = np.minimum(xy.astype(np.intp), self._base_hi)
        frac = xy - base
        q = np.concatenate((1.0 - frac, frac)).reshape(2, 2, -1)
        w = (q[:, None, 1] * q[None, :, 0]).reshape(4, -1)
        t = w * self._uv.take(base[1] * self._width + base[0] + self._corners, axis=1)
        return t[:, 0] + t[:, 1] + t[:, 2] + t[:, 3]


def reference_ring(xy):
    return np.concatenate((xy[:, -1:], xy, xy[:, :1]), axis=1)


def reference_resample(ring, seg, seglen, perimeter, count):
    n_new = max(4, int(round(count)))
    targets = perimeter * np.arange(n_new) / n_new
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seglen) - 1)
    denom = np.where(seglen[idx] > 0, seglen[idx], 1.0)
    frac = (targets - cum[idx]) / denom
    return ring[:, 1 + idx] + seg[:, idx] * frac


def reference_snake_evolve(s, field, p):
    sample = ReferenceSampler(_unit_field(field) if p.normalize else field)
    max_snaxels = max(field.spec.width * field.spec.height, len(s))
    xy = at = sample.clamp(s.points.T)
    ring = reference_ring(xy)
    history = []
    converged = False
    iterations = 0
    for n in range(1, p.max_iter + 1):
        tens = xy - 0.5 * (ring[:, :-2] + ring[:, 2:])
        force = sample(at)
        disp = p.step * (p.tensile_sign * p.b * tens + p.gamma * force)
        if not np.isfinite(disp).all():
            raise DivergenceError("non-finite snaxel displacement", n)
        new_xy = sample.clamp(xy + disp)
        moved = np.hypot(*(new_xy - xy)).max()
        xy = at = new_xy
        iterations = n
        history.append(float(moved))
        if moved < p.eps:
            converged = True
            break
        ring = reference_ring(xy)
        if p.resample_spacing > 0:
            seg = ring[:, 2:] - ring[:, 1:-1]
            seglen = np.hypot(*seg)
            if (seglen.max() > 2.0 * p.resample_spacing
                    or seglen.min() < 0.5 * p.resample_spacing):
                perimeter, count = _resample_count(seglen, p.resample_spacing)
                if not count < max_snaxels + 0.5:
                    raise DivergenceError(
                        f"resampling would grow the contour to {count:.6g} snaxels, past "
                        f"the cap of {max_snaxels}", n)
                xy = reference_resample(ring, seg, seglen, perimeter, count)
                at = sample.clamp(xy)
                ring = reference_ring(xy)
    return gv.SnakeResult(gv.Snake(np.ascontiguousarray(xy.T)), iterations, converged,
                          np.asarray(history))


def outcome(evolve, s, field, p):
    """What a run gives, bit for bit: the typed error it raises, or its
    iterations, convergence, points and history as int64 views."""
    try:
        r = evolve(s, field, p)
    except GvfError as e:
        return type(e), str(e)
    return (r.iterations, r.converged, r.snake.points.view(np.int64).tolist(),
            r.displacement_history.view(np.int64).tolist())


def random_field(rng, w, h, scale):
    """Normal values, about a tenth of them -0.0 and a tenth +0.0."""
    uv = rng.normal(0.0, scale, (2, h, w))
    pick = rng.random((2, h, w))
    uv[pick < 0.1] = -0.0
    uv[(pick >= 0.1) & (pick < 0.2)] = 0.0
    return gv.VectorField(gv.GridSpec(w, h), uv)


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

    @pytest.mark.parametrize("x, y", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_position_is_refused(self, x, y):
        field = constant_field(gv.GridSpec(5, 5), 2.0, 3.0)
        with pytest.raises(ParameterError, match="must not be NaN"):
            gv.sample_field_bilinear(field, x, y)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 12), st.integers(3, 12), st.integers(0, 2**32 - 1),
           st.floats(-3.0, 15.0), st.floats(-3.0, 15.0))
    def test_equals_the_reference_sampler(self, w, h, seed, x, y):
        # signed zeros included: an all -0.0 neighbourhood samples as -0.0
        field = random_field(np.random.default_rng(seed), w, h, 1.0)
        sample = ReferenceSampler(field)
        want = sample(sample.clamp(np.array([[x], [y]])))[:, 0]
        got = np.array(gv.sample_field_bilinear(field, x, y))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_all_negative_zero_corners_sample_as_negative_zero(self):
        field = gv.VectorField(gv.GridSpec(4, 4), np.full((2, 4, 4), -0.0))
        for x, y in ((0.0, 0.0), (1.5, 2.25), (3.0, 3.0)):
            assert all(math.copysign(1.0, c) == -1.0
                       for c in gv.sample_field_bilinear(field, x, y))


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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(4, 60), st.integers(0, 2**32 - 1), st.floats(0.3, 5.0))
    def test_equals_the_reference_resampling(self, n, seed, spacing):
        pts = np.random.default_rng(seed).uniform(0.0, 30.0, (n, 2))
        ring = reference_ring(pts.T)
        seg = ring[:, 2:] - ring[:, 1:-1]
        seglen = np.hypot(*seg)
        want = reference_resample(ring, seg, seglen, *_resample_count(seglen, spacing))
        got = gv.resample_contour(gv.Snake(pts), spacing).points
        assert np.array_equal(got.view(np.int64), np.ascontiguousarray(want.T).view(np.int64))

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


class TestAgainstTheReference:
    """The workspace loop equals the allocating reference loop bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 24), st.integers(3, 24), st.integers(4, 40),
           st.integers(0, 2**32 - 1), st.floats(0.0, 0.5), st.floats(0.0, 2.0),
           st.floats(0.1, 1.5), st.sampled_from([1.0, -1.0]), st.booleans(),
           st.sampled_from([0.0, 0.7, 1.5, 3.0]), st.floats(0.2, 1.3), st.integers(1, 80))
    def test_equals_the_reference_loop(self, w, h, n, seed, b, gamma, step, sign, normalize,
                                       spacing, reach, max_iter):
        # reach > 1 puts the initial ring partly outside the grid, so some
        # snaxels start, and stay, pinned to the border
        rng = np.random.default_rng(seed)
        field = random_field(rng, w, h, rng.uniform(0.0, 2.0))
        t = 2.0 * np.pi * np.sort(rng.random(n))
        r = reach * min(w, h) / 2.0
        pts = np.column_stack([(w - 1) / 2 + r * np.cos(t), (h - 1) / 2 + r * np.sin(t)])
        p = gv.SnakeParams(b=b, gamma=gamma, step=step, eps=rng.uniform(1e-4, 0.1),
                           max_iter=max_iter, resample_spacing=spacing, normalize=normalize,
                           tensile_sign=sign)
        s = gv.Snake(pts + rng.normal(0.0, 0.3, pts.shape))
        assert outcome(gv.snake_evolve, s, field, p) == outcome(reference_snake_evolve, s, field, p)

    @pytest.mark.parametrize("sign, b, radius", [(1.0, 0.2, 4.0), (-1.0, 0.1, 4.0)])
    def test_workspace_is_rebuilt_for_a_new_count_and_kept_otherwise(self, monkeypatch, sign, b,
                                                                      radius):
        # an inflating ring grows and sheds snaxels, a contracting one
        # shrinks to 4 and is then resampled at 4 again and again
        built, resampled = [], []
        real_resample = snake_mod._resample

        class Workspace(snake_mod._Workspace):
            def __init__(self, field, n, resampling):
                built.append(n)
                super().__init__(field, n, resampling)

        def resample(*args):
            xy = real_resample(*args)
            resampled.append(len(xy))
            return xy

        monkeypatch.setattr(snake_mod, "_Workspace", Workspace)
        monkeypatch.setattr(snake_mod, "_resample", resample)
        s = gv.Snake.circle(15.5, 15.5, radius, 16)
        field = gv.VectorField.zeros(gv.GridSpec(32, 32))
        p = gv.SnakeParams(b=b, tensile_sign=sign, max_iter=150, eps=1e-9, resample_spacing=1.5)
        assert outcome(gv.snake_evolve, s, field, p) == outcome(reference_snake_evolve, s, field, p)
        assert len(built) > 2 and len(resampled) > len(built) - 1
        assert built[1:] == [c for prev, c in zip([16] + resampled, resampled) if c != prev]

    def test_overflowing_displacement_is_divergence_without_a_warning(self):
        rng = np.random.default_rng(3)
        field = gv.VectorField.from_arrays(rng.random((32, 32)), rng.random((32, 32)))
        s = gv.Snake.circle(15.5, 15.5, 12.0, 38)
        p = gv.SnakeParams(b=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            want = outcome(reference_snake_evolve, s, field, p)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError, match="non-finite snaxel displacement") as err:
                gv.snake_evolve(s, field, p)
        assert not caught
        assert err.value.iteration == 3
        assert want == (DivergenceError, str(err.value))


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
