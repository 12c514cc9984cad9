"""Field primitives: stencils, edge maps, magnitude clamping."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvflow as gv
from gvflow import grid
from gvflow.errors import DimensionError, ParameterError


def impulse(n=5, value=1.0):
    a = np.zeros((n, n))
    a[n // 2, n // 2] = value
    return gv.ScalarField.from_array(a)


class TestGridSpec:
    def test_rejects_tiny_grids(self):
        with pytest.raises(DimensionError):
            gv.GridSpec(2, 5)
        with pytest.raises(DimensionError):
            gv.GridSpec(5, 2)

    def test_shape_is_rows_cols(self):
        assert gv.GridSpec(4, 7).shape == (7, 4)


class TestScalarField:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            gv.ScalarField(gv.GridSpec(4, 4), np.zeros((5, 4)))

    def test_rejects_nan(self):
        a = np.zeros((4, 4))
        a[1, 1] = np.nan
        with pytest.raises(ParameterError):
            gv.ScalarField.from_array(a)

    def test_vector_components_share_grid(self):
        u = gv.ScalarField.zeros(gv.GridSpec(4, 4))
        v = gv.ScalarField.zeros(gv.GridSpec(5, 4))
        with pytest.raises(DimensionError):
            gv.VectorField.from_arrays(u.values, v.values)


class TestVectorField:
    @pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4), (2, 5, 4), (4, 4, 2)])
    def test_values_must_be_two_planes_of_the_grid(self, shape):
        with pytest.raises(DimensionError):
            gv.VectorField(gv.GridSpec(4, 4), np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        values = np.zeros((2, 4, 4))
        values[1, 2, 3] = bad
        with pytest.raises(ParameterError):
            gv.VectorField(gv.GridSpec(4, 4), values)

    def test_from_arrays_stacks_u_then_v(self):
        u, v = np.arange(12.0).reshape(3, 4), -np.arange(12.0).reshape(3, 4)
        field = gv.VectorField.from_arrays(u, v)
        assert field.spec == gv.GridSpec(4, 3)
        assert np.array_equal(field.values, np.stack([u, v]))

    def test_components_are_views_of_values(self):
        field = gv.VectorField.zeros(gv.GridSpec(5, 4))
        field.u.values[1, 2] = 3.0
        field.values[1, 3, 4] = -2.0
        assert field.values[0, 1, 2] == 3.0
        assert field.v.values[3, 4] == -2.0
        assert np.shares_memory(field.u.values, field.values)
        assert np.shares_memory(field.v.values, field.values)

    def test_copy_shares_no_memory(self):
        field = gv.VectorField.zeros(gv.GridSpec(4, 4))
        dup = field.copy()
        dup.u.values[0, 0] = 1.0
        assert field.values[0, 0, 0] == 0.0


class TestGradientCentral:
    def test_constant_field_has_zero_gradient(self):
        f = gv.ScalarField.from_array(np.full((6, 7), 3.25))
        g = gv.gradient_central(f)
        assert np.all(g.u.values == 0) and np.all(g.v.values == 0)

    def test_ramp_in_x(self):
        xs = np.tile(np.arange(8.0), (6, 1))
        g = gv.gradient_central(gv.ScalarField.from_array(xs))
        assert np.allclose(g.u.values[:, 1:-1], 1.0)
        assert np.all(g.v.values == 0)

    def test_impulse_stencil_every_pixel(self):
        # unit impulse at the center of a 5x5 grid: hand-evaluated stencil
        g = gv.gradient_central(impulse(5))
        exp_u = np.zeros((5, 5))
        exp_u[2, 1], exp_u[2, 3] = 0.5, -0.5
        exp_v = np.zeros((5, 5))
        exp_v[1, 2], exp_v[3, 2] = 0.5, -0.5
        assert np.array_equal(g.u.values, exp_u)
        assert np.array_equal(g.v.values, exp_v)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.random((7, 9))
            b = rng.random((7, 9))
            ca, cb = rng.uniform(-2, 2, size=2)
            lhs = gv.gradient_central(gv.ScalarField.from_array(ca * a + cb * b))
            ga = gv.gradient_central(gv.ScalarField.from_array(a))
            gb = gv.gradient_central(gv.ScalarField.from_array(b))
            assert np.allclose(lhs.u.values, ca * ga.u.values + cb * gb.u.values, atol=1e-12)
            assert np.allclose(lhs.v.values, ca * ga.v.values + cb * gb.v.values, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 40), st.integers(3, 40), st.integers(0, 2**32 - 1),
           st.floats(0.0, 1.0))
    def test_equals_the_edge_padded_formula_to_the_bit(self, w, h, seed, zeros):
        # the differences of the edge-padded array, halved; a share of the
        # pixels, up to all of them, are signed zeros, whose differences
        # keep their sign only if the operands are the same
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((h, w)) * 10.0 ** rng.integers(-8, 8, (h, w))
        pick = rng.random((h, w))
        a[pick < zeros] = -0.0
        a[pick < zeros / 2.0] = 0.0
        p = np.pad(a, 1, mode="edge")
        want = (p[1:-1, 2:] - p[1:-1, :-2]) / 2.0, (p[2:, 1:-1] - p[:-2, 1:-1]) / 2.0
        got = gv.gradient_central(gv.ScalarField.from_array(a))
        for comp, expected in zip((got.u, got.v), want):
            assert np.array_equal(comp.values.view(np.int64), expected.view(np.int64))


class TestLaplacian5pt:
    def test_constant_field(self):
        f = gv.ScalarField.from_array(np.full((5, 5), 4.0))
        assert np.all(gv.laplacian_5pt(f).values == 0)

    def test_quadratic_interior(self):
        xs = np.tile(np.arange(9.0) ** 2, (9, 1))
        lap = gv.laplacian_5pt(gv.ScalarField.from_array(xs))
        assert np.allclose(lap.values[1:-1, 2:-2], 2.0)

    def test_impulse_stencil(self):
        lap = gv.laplacian_5pt(impulse(5))
        exp = np.zeros((5, 5))
        exp[2, 2] = -4.0
        exp[2, 1] = exp[2, 3] = exp[1, 2] = exp[3, 2] = 1.0
        assert np.array_equal(lap.values, exp)

    def test_zero_sum_with_mirror_borders(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            f = gv.ScalarField.from_array(rng.uniform(-50, 50, size=(10, 13)))
            lap = gv.laplacian_5pt(f)
            assert abs(lap.values.sum()) <= 1e-9 * max(1.0, np.abs(lap.values).sum())


class TestEdgeMap:
    def test_constant_image_both_modes(self):
        img = gv.ScalarField.from_array(np.full((8, 8), 9.0))
        assert np.all(gv.edge_map(img, 0.0, "attractive").values == 0)
        assert np.all(gv.edge_map(img, 1.5, "potential").values == 0)

    def test_modes_are_negatives(self):
        rng = np.random.default_rng(4)
        img = gv.ScalarField.from_array(rng.random((9, 9)) * 100)
        att = gv.edge_map(img, 1.0, "attractive")
        pot = gv.edge_map(img, 1.0, "potential")
        assert np.array_equal(att.values, -pot.values)

    def test_vertical_step(self):
        a = np.zeros((8, 10))
        a[:, 5:] = 100.0
        e = gv.edge_map(gv.ScalarField.from_array(a), 0.0)
        expected = np.zeros((8, 10))
        expected[:, 4:6] = 2500.0  # central difference across the step is 50
        assert np.array_equal(e.values, expected)

    def test_signs(self):
        rng = np.random.default_rng(5)
        img = gv.ScalarField.from_array(rng.random((12, 12)) * 255)
        assert np.all(gv.edge_map(img, 2.0, "attractive").values >= 0)
        assert np.all(gv.edge_map(img, 2.0, "potential").values <= 0)

    def test_rejects_unknown_sign(self):
        img = gv.ScalarField.zeros(gv.GridSpec(4, 4))
        with pytest.raises(ParameterError):
            gv.edge_map(img, 0.0, "repulsive")


class TestClampMagnitude:
    def test_below_threshold_untouched(self):
        rng = np.random.default_rng(6)
        field = gv.VectorField.from_arrays(rng.random((6, 6)) * 0.3, rng.random((6, 6)) * 0.3)
        out = gv.clamp_magnitude(field, 1.0)
        assert np.array_equal(out.u.values, field.u.values)
        assert np.array_equal(out.v.values, field.v.values)

    def test_three_four_five(self):
        field = gv.VectorField.from_arrays(np.full((4, 4), 3.0), np.full((4, 4), 4.0))
        out = gv.clamp_magnitude(field, 1.0)
        assert np.allclose(out.u.values, 0.6)
        assert np.allclose(out.v.values, 0.8)

    def test_infinite_cap_is_identity(self):
        rng = np.random.default_rng(7)
        field = gv.VectorField.from_arrays(rng.random((5, 5)) * 1e6, rng.random((5, 5)))
        out = gv.clamp_magnitude(field, math.inf)
        assert np.array_equal(out.u.values, field.u.values)

    def test_infinite_cap_returns_the_field_itself(self):
        field = gv.VectorField.from_arrays(np.ones((4, 4)), np.zeros((4, 4)))
        assert gv.clamp_magnitude(field, math.inf) is field

    def test_idempotent_and_never_grows(self):
        rng = np.random.default_rng(8)
        field = gv.VectorField.from_arrays(
            rng.uniform(-9, 9, (8, 8)), rng.uniform(-9, 9, (8, 8))
        )
        once = gv.clamp_magnitude(field, 2.5)
        twice = gv.clamp_magnitude(once, 2.5)
        assert np.array_equal(once.u.values, twice.u.values)
        assert np.array_equal(once.v.values, twice.v.values)
        assert np.all(once.magnitude() <= field.magnitude() + 1e-15)

    def test_rejects_nonpositive_cap(self):
        field = gv.VectorField.zeros(gv.GridSpec(4, 4))
        with pytest.raises(ParameterError):
            gv.clamp_magnitude(field, 0.0)


class TestGaussianSmooth:
    def test_preserves_mean_of_constant(self):
        img = gv.ScalarField.from_array(np.full((9, 9), 5.0))
        out = gv.gaussian_smooth(img, 2.0)
        assert np.allclose(out.values, 5.0)

    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(9)
        img = gv.ScalarField.from_array(rng.random((6, 6)))
        assert np.array_equal(gv.gaussian_smooth(img, 0.0).values, img.values)

    @staticmethod
    def scipy_blur(a, sigma):
        """The two-pass scipy.ndimage blur that gaussian_smooth replaces."""
        from scipy.ndimage import convolve1d

        r = int(math.ceil(3.0 * sigma))
        xs = np.arange(-r, r + 1, dtype=np.float64)
        kernel = np.exp(-0.5 * (xs / sigma) ** 2)
        kernel /= kernel.sum()
        out = convolve1d(a, kernel, axis=0, mode="nearest")
        return convolve1d(out, kernel, axis=1, mode="nearest")

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_scipy_convolve1d_bit_for_bit(self, seed):
        # 1 to 47 px per axis, a 1-px axis in half the cases, radii 1 to 18;
        # signed zeros count, since the views are compared as int64
        rng = np.random.default_rng(seed)
        h, w = (int(n) for n in rng.integers(1, 48, size=2))
        if seed % 4 == 0:
            h = 1
        elif seed % 4 == 1:
            w = 1
        sigma = float(rng.uniform(0.1, 6.0))
        a = rng.standard_normal((h, w)) * 10.0 ** rng.uniform(-3, 3)
        a[rng.random((h, w)) < 0.2] = -0.0
        got = grid._gaussian_blur(a, sigma)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), self.scipy_blur(a, sigma).view(np.int64))

    def test_radius_past_both_axes_equals_scipy(self):
        img = gv.ScalarField.from_array(np.random.default_rng(17).random((3, 5)))
        got = gv.gaussian_smooth(img, 4.0).values  # radius 12
        assert np.array_equal(got.view(np.int64), self.scipy_blur(img.values, 4.0).view(np.int64))

    @pytest.mark.parametrize("sigma", [1e-160, 5e-324])
    def test_tiny_sigma_returns_the_image_without_warning(self, sigma):
        img = gv.ScalarField.from_array(np.random.default_rng(6).random((7, 9)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gv.gaussian_smooth(img, sigma).values
        assert np.array_equal(got, img.values)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ParameterError):
            gv.gaussian_smooth(impulse(), -1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 21.34, 1e300])
    def test_rejects_non_finite_or_wider_than_image_sigma(self, sigma):
        # the 8x8 image allows a radius of 64: sigma 21.33 at most
        img = gv.ScalarField.from_array(np.ones((8, 8)))
        with pytest.raises(ParameterError, match="sigma"):
            gv.gaussian_smooth(img, sigma)

    def test_radius_up_to_the_larger_side_is_accepted(self):
        img = gv.ScalarField.from_array(np.random.default_rng(5).random((4, 90)))
        got = gv.gaussian_smooth(img, 30.0).values  # radius 90
        assert np.array_equal(got.view(np.int64), self.scipy_blur(img.values, 30.0).view(np.int64))
