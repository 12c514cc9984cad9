"""Explicit solvers, parameter validation, steady-state oracles."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gvflow as gv
from gvflow.errors import (
    DimensionError,
    DivergenceError,
    ParameterError,
    RankError,
    SizeError,
)
from gvflow.grid import _aligned_zeros
from gvflow.ioformats import synth_ushape
from gvflow.solver import _coeff_grid, _LineBlocks, _masked_source, _Stencil


def neighbor_sum(stencil):
    """The four-neighbor sum of the stencil's current field, a (2, H, W)
    view, through the bound sum its steps and defect call."""
    stencil._summer(stencil._cur)()
    return stencil._nb.interior


def impulse(n=8, value=1.0):
    a = np.zeros((n, n))
    a[n // 2, n // 2] = value
    return gv.ScalarField.from_array(a)


class TestParamTypes:
    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            gv.GvfParams(dt=0.0)
        with pytest.raises(ParameterError):
            gv.GvfParams(delta=-1.0)
        with pytest.raises(ParameterError):
            gv.GvfParams(g=-0.5)
        with pytest.raises(ParameterError):
            gv.GvfParams(g=0.0, h=0.0)
        with pytest.raises(ParameterError):
            gv.GgvfParams(K=0.0)

    @pytest.mark.parametrize("params", [gv.GvfParams, gv.GgvfParams])
    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -0.1])
    def test_dt_must_be_finite_and_positive(self, params, dt):
        with pytest.raises(ParameterError, match="dt must be finite and > 0"):
            params(dt=dt)

    def test_infinite_dt_never_reaches_the_expansion_check(self):
        # an infinite dt used to turn the closed form into NaN
        with pytest.raises(ParameterError):
            gv.expansion_check(impulse(8), gv.GvfParams(g=1.0, h=0.0, dt=math.inf), 1)

    @pytest.mark.parametrize("params", [gv.GvfParams, gv.GgvfParams])
    @pytest.mark.parametrize("max_iter", [2.5, 1.0, math.nan, math.inf, True, 0, -3, "10", None])
    def test_max_iter_must_be_an_integer_of_at_least_one(self, params, max_iter):
        with pytest.raises(ParameterError, match="max_iter must be an integer >= 1"):
            params(max_iter=max_iter)

    @pytest.mark.parametrize("params", [gv.GvfParams, gv.GgvfParams])
    @pytest.mark.parametrize("max_iter", [1, np.int64(7)])
    def test_max_iter_accepts_integers(self, params, max_iter):
        assert params(max_iter=max_iter).max_iter == max_iter

    @pytest.mark.parametrize("name", ["g", "h"])
    @pytest.mark.parametrize("value", [np.array([1.0, 2.0]), np.ones((4, 4)), "1.0", None, 1j])
    def test_coefficient_must_be_a_number_or_a_scalar_field(self, name, value):
        with pytest.raises(ParameterError, match="real number or a ScalarField"):
            gv.GvfParams(**{name: value})

    @pytest.mark.parametrize("name", ["g", "h"])
    def test_negative_per_pixel_coefficient_is_named(self, name):
        # one pixel at -0.5 used to surface as a NaN stability bound, or
        # as numpy's sqrt warning where warnings are errors
        a = np.ones((8, 8))
        a[3, 4] = -0.5
        coefficients = {"g": 1.0, "h": 0.1, name: gv.ScalarField.from_array(a)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"^per-pixel {name} must be >= 0, got a "
                                                     "minimum of -0.5$"):
                gv.GvfParams(**coefficients)

    def test_coefficient_made_negative_after_construction_is_refused_at_use(self):
        g = gv.ScalarField.from_array(np.ones((8, 8)))
        p = gv.GvfParams(g=g, h=0.1)
        g.values[3, 4] = -0.5
        with pytest.raises(ParameterError, match="per-pixel coefficients must be >= 0"):
            gv.direct_steady_solve(impulse(8), p)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.sampled_from(
        [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.0, -1.0])),
        max_size=6))
    def test_check_at_use_refuses_exactly_the_arrays_with_a_value_below_zero(self, writes):
        # NaN, signed zeros and infinities written after construction, which
        # the ScalarField's own finiteness check never sees
        c = gv.ScalarField.from_array(np.ones((8, 8)))
        for at, value in writes:
            c.values.flat[at] = value
        if np.any(c.values < 0):
            with pytest.raises(ParameterError, match="^per-pixel coefficients must be >= 0$"):
                _coeff_grid(c)
        else:
            assert _coeff_grid(c) is c.values

    @pytest.mark.parametrize("name", ["g", "h"])
    @pytest.mark.parametrize("call", [
        lambda f, p: gv.validate_params(p),
        lambda f, p: gv.gvf_solve(f, p),
        lambda f, p: gv.steady_residual(gv.gradient_central(f), f, p),
        lambda f, p: gv.direct_steady_solve(f, p),
    ], ids=["validate_params", "gvf_solve", "steady_residual", "direct_steady_solve"])
    def test_every_entry_point_refuses_a_coefficient_made_negative_after_construction(
            self, name, call):
        # validate_params used to take the square root of the negative
        # pixel: numpy's sqrt warning where warnings are errors
        c = gv.ScalarField.from_array(np.ones((8, 8)))
        p = gv.GvfParams(**{"g": 1.0, "h": 0.1, name: c})
        c.values[3, 4] = -0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="^per-pixel coefficients must be >= 0$"):
                call(impulse(8), p)

    @pytest.mark.parametrize("name, call", [
        *(pytest.param(name, lambda x, t=t, name=name: t(**{name: x}), id=f"{t.__name__}.{name}")
          for t, names in ((gv.GvfParams, "g h dt cap"), (gv.GgvfParams, "K dt cap"),
                           (gv.SnakeParams, "b gamma step eps resample_spacing"))
          for name in names.split()),
        pytest.param("sigma", lambda x: gv.gaussian_smooth(impulse(4), x), id="gaussian_smooth"),
        pytest.param("cap", lambda x: gv.clamp_magnitude(gv.VectorField.zeros(gv.GridSpec(4, 4)), x),
                     id="clamp_magnitude"),
        pytest.param("g", lambda x: gv.transfer_gain(0.1, 0.1, x, 1.0), id="transfer_gain.g"),
        pytest.param("h", lambda x: gv.transfer_gain(0.1, 0.1, 1.0, x), id="transfer_gain.h"),
    ])
    def test_real_past_the_float_range_is_named(self, name, call):
        # float() of 10**400 overflows; the check must not
        with pytest.raises(ParameterError, match=rf"^{name} "):
            call(10**400)

    @pytest.mark.parametrize("call, params", [
        pytest.param(lambda f, p: gv.steady_residual(gv.gradient_central(f), f, p),
                     gv.GgvfParams(), id="steady_residual"),
        pytest.param(lambda f, p: gv.direct_steady_solve(f, p), gv.GgvfParams(),
                     id="direct_steady_solve"),
        pytest.param(lambda f, p: gv.gvf_step(gv.gradient_central(f), gv.gradient_central(f), p),
                     gv.GgvfParams(), id="gvf_step"),
        pytest.param(lambda f, p: gv.expansion_check(f, p, 1), gv.GgvfParams(),
                     id="expansion_check"),
        pytest.param(lambda f, p: gv.gvf_solve(f, p), None, id="gvf_solve"),
        pytest.param(lambda f, p: gv.ggvf_solve(f, p), 1.0, id="ggvf_solve"),
        pytest.param(lambda f, p: gv.validate_params(p), None, id="validate_params"),
    ])
    def test_params_of_the_wrong_type_are_named(self, call, params):
        # each used to end in AttributeError on .g or .cap
        message = {
            "GgvfParams": "params must be a GvfParams, got GgvfParams; "
                          "ggvf_solve(...).params is the resolved GvfParams",
            "NoneType": "params must be a GvfParams or GgvfParams, got NoneType",
            "float": "params must be a GvfParams or GgvfParams, got float",
        }[type(params).__name__]
        with pytest.raises(ParameterError) as refused:
            call(impulse(8), params)
        assert str(refused.value) == message

    def test_defaults(self):
        p = gv.GvfParams()
        assert (p.g, p.h, p.dt, p.delta, p.max_iter) == (2.0, 0.02, 0.12, 1e-4, 20000)
        assert math.isinf(p.cap)


class TestValidateParams:
    def test_reference_parameters_pass(self):
        p = gv.GvfParams(g=2.0, h=0.02, dt=0.12)
        assert gv.validate_params(p) == []

    def test_stability_ratio_violation(self):
        p = gv.GvfParams(g=2.5, h=0.02, dt=0.12)
        violations = gv.validate_params(p)
        assert len(violations) == 1 and "r < 1/4" in violations[0]

    def test_reaction_dominant_flags_h_less_g_only(self):
        p = gv.GvfParams(g=0.2, h=1.0, dt=0.12)
        violations = gv.validate_params(p)
        assert len(violations) == 1 and "h < g" in violations[0]
        # the stability ratio itself passes (r = 0.024)
        assert not any("r < 1/4" in v for v in violations)

    def test_per_pixel_uses_maxima(self):
        spec = gv.GridSpec(8, 8)
        gfield = gv.ScalarField.from_array(np.full(spec.shape, 1.0))
        gfield.values[3, 3] = 2.5
        p = gv.GvfParams(g=gfield, h=0.02, dt=0.12)
        assert any("r < 1/4" in v for v in gv.validate_params(p))

    def test_one_stability_rule(self):
        # g*dt = 1.2 broke both r < 1/4 and g*dt < 1; one rule covers both
        violations = gv.validate_params(gv.GvfParams(g=10.0, h=0.02, dt=0.12))
        assert len(violations) == 1 and "r < 1/4" in violations[0]
        assert not any("g*dt < 1" in v for v in violations)

    @pytest.mark.parametrize("g, h, dt", [(2.0, 1.6, 0.1245), (2.0, 1.9, 0.124)])
    def test_reaction_counts_toward_stability(self, g, h, dt):
        # r < 1/4, h*dt < 1 and h < g hold, but dt*(h + 8g) > 2: the
        # checkerboard mode grows by |1 - dt*(h + 8g)| > 1 per step
        p = gv.GvfParams(g=g, h=h, dt=dt)
        assert g * dt < 0.25 and h * dt < 1.0 and h < g
        f = gv.edge_map(synth_ushape(48, 48), sigma=2.0)
        with pytest.raises(ParameterError, match="r < 1/4"):
            gv.gvf_solve(f, p)
        with pytest.raises(DivergenceError):
            gv.gvf_solve(f, p, force=True)

    @pytest.mark.parametrize("g, h, dt, ok", [
        (1.0, 0.0, 0.2499999, True), (1.0, 0.0, 0.25, False),
        (2.0, 0.4, 0.1219, True), (2.0, 0.4, 0.122, False),
    ])
    def test_constant_rule_is_dt_times_h_plus_8g_below_2(self, g, h, dt, ok):
        violations = gv.validate_params(gv.GvfParams(g=g, h=h, dt=dt))
        assert (violations == []) is ok

    def test_rule_is_evaluated_on_g_dt(self):
        # g = 1e308 times 4 overflows, g*dt = 0.1 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gv.validate_params(gv.GvfParams(g=1e308, h=0.0, dt=1e-309)) == []

    @pytest.mark.parametrize("dt", [0.05, 0.2499, 0.25, 0.3, 1e300])
    def test_ggvf_params_are_checked_at_the_worst_case(self, dt):
        # g = 1, h = 0 breaks only the stability rule, from dt = 1/4 on
        violations = gv.validate_params(gv.GgvfParams(dt=dt))
        worst = gv.validate_params(gv.GvfParams(g=1.0, h=0.0, dt=dt))
        assert violations == [f"{v} (GGVF worst case g = 1, h = 0)" for v in worst]
        assert len(violations) == (dt >= 0.25)

    @pytest.mark.parametrize("dt, ok", [(0.2499, True), (0.25, False)])
    def test_per_pixel_ggvf_pair_has_the_worst_case_rule(self, dt, ok):
        # h = 1 - g with max g = 1 gives 1 + 3g + 4 sqrt(g) <= 8 per pixel
        g = gv.ScalarField.from_array(np.linspace(0.0, 1.0, 25).reshape(5, 5))
        h = gv.ScalarField(g.spec, 1.0 - g.values)
        violations = gv.validate_params(gv.GvfParams(g=g, h=h, dt=dt))
        stable = not any("r < 1/4" in v for v in violations)
        assert stable is ok


class TestGvfStep:
    def test_zero_fixed_point(self):
        spec = gv.GridSpec(6, 6)
        v = gv.VectorField.zeros(spec)
        out = gv.gvf_step(v, gv.VectorField.zeros(spec), gv.GvfParams(g=1.0, h=0.1, dt=0.1))
        assert np.all(out.u.values == 0) and np.all(out.v.values == 0)

    def test_constant_gradient_is_steady(self):
        spec = gv.GridSpec(7, 5)
        grad = gv.VectorField.from_arrays(np.full(spec.shape, 1.5), np.full(spec.shape, -2.0))
        out = gv.gvf_step(grad.copy(), grad, gv.GvfParams(g=1.0, h=0.3, dt=0.2))
        assert np.allclose(out.u.values, 1.5, atol=1e-14)
        assert np.allclose(out.v.values, -2.0, atol=1e-14)

    def test_single_step_impulse_arithmetic(self):
        # g=1, h=0, dt=0.2 -> r=0.2: center keeps 0.2, neighbors gain 0.2
        spec = gv.GridSpec(5, 5)
        v = gv.VectorField.zeros(spec)
        v.u.values[2, 2] = 1.0
        out = gv.gvf_step(v, gv.VectorField.zeros(spec),
                          gv.GvfParams(g=1.0, h=0.0, dt=0.2))
        exp = np.zeros((5, 5))
        exp[2, 2] = 0.2
        exp[2, 1] = exp[2, 3] = exp[1, 2] = exp[3, 2] = 0.2
        assert np.allclose(out.u.values, exp, atol=1e-15)
        assert np.all(out.v.values == 0)

    def test_huge_field_steps_without_warning(self):
        # a step measures its squared change, about 1e400 here, which
        # gvf_step and expansion_check do not use: no overflow warning
        # (an error under this suite's filterwarnings)
        big = 1e200 * np.random.default_rng(1).random((6, 6))
        v = gv.VectorField.from_arrays(big, np.zeros((6, 6)))
        p = gv.GvfParams(g=1.0, h=0.1, dt=0.1)
        assert np.all(np.isfinite(gv.gvf_step(v, gv.VectorField.zeros(v.spec), p).values))
        assert math.isfinite(gv.expansion_check(gv.ScalarField.from_array(big), p, 3))

    def test_grid_mismatch(self):
        v = gv.VectorField.zeros(gv.GridSpec(5, 5))
        grad = gv.VectorField.zeros(gv.GridSpec(6, 5))
        with pytest.raises(DimensionError):
            gv.gvf_step(v, grad, gv.GvfParams())

    def test_fixed_point_of_direct_solution(self):
        f = impulse(8)
        p = gv.GvfParams(g=1.0, h=0.1, dt=0.12)
        steady = gv.direct_steady_solve(f, p)
        grad = gv.clamp_magnitude(gv.gradient_central(f), p.cap)
        stepped = gv.gvf_step(steady, grad, p)
        assert np.abs(stepped.u.values - steady.u.values).max() < 1e-14
        assert np.abs(stepped.v.values - steady.v.values).max() < 1e-14


class TestGvfSolve:
    def test_constant_image_converges_immediately(self):
        f = gv.ScalarField.from_array(np.full((10, 10), 7.0))
        rep = gv.gvf_solve(f, gv.GvfParams(g=1.0, h=0.1, dt=0.12, delta=1e-6))
        assert rep.converged and rep.iterations == 1
        assert np.all(rep.field.u.values == 0) and np.all(rep.field.v.values == 0)
        assert rep.change_history[-1] < 1e-6

    def test_invalid_params_raise_without_force(self):
        f = impulse(8)
        p = gv.GvfParams(g=2.5, h=0.02, dt=0.12)
        with pytest.raises(ParameterError, match="r < 1/4"):
            gv.gvf_solve(f, p)

    def test_report_invariants(self):
        f = impulse(10)
        rep = gv.gvf_solve(f, gv.GvfParams(g=1.0, h=0.2, dt=0.12, delta=1e-8, max_iter=5000))
        assert rep.converged
        assert rep.change_history[-1] < 1e-8
        assert rep.iterations == len(rep.change_history) <= 5000
        assert rep.pixel_updates == rep.iterations * rep.inside_count

    def test_nonconvergence_reported_not_raised(self):
        f = impulse(10)
        rep = gv.gvf_solve(f, gv.GvfParams(g=1.0, h=0.1, dt=0.12, delta=1e-14, max_iter=5))
        assert not rep.converged and rep.iterations == 5

    def test_per_pixel_coefficients_must_not_both_vanish(self):
        f = impulse(8)
        gfield = gv.ScalarField.from_array(np.ones(f.spec.shape))
        gfield.values[3, 3] = 0.0
        p = gv.GvfParams(g=gfield, h=0.0, dt=0.12)
        with pytest.raises(ParameterError, match="both vanish"):
            gv.gvf_solve(f, p, force=True)

    def test_divergence_detected_under_force(self):
        # r = 0.3 with pure diffusion: the checkerboard mode grows ~1.4x/step
        f = impulse(8)
        p = gv.GvfParams(g=1.5, h=0.0, dt=0.2, delta=1e-12, max_iter=500)
        with pytest.raises(DivergenceError) as err:
            gv.gvf_solve(f, p, force=True)
        assert err.value.iteration <= 200

    def test_energy_history_matches_definition(self):
        f = impulse(8)
        p = gv.GvfParams(g=1.0, h=0.1, dt=0.12, delta=1e-4, max_iter=3)
        rep = gv.gvf_solve(f, p)
        assert len(rep.energy_history) == rep.iterations
        assert np.all(rep.energy_history >= 0)


class TestDirectSteadySolve:
    def test_zero_gradient(self):
        f = gv.ScalarField.from_array(np.full((8, 8), 3.0))
        out = gv.direct_steady_solve(f, gv.GvfParams(g=1.0, h=0.1))
        assert np.all(out.u.values == 0) and np.all(out.v.values == 0)

    def test_constant_gradient_reproduced(self):
        # a plane image has a constant gradient away from borders; use a
        # constant-source solve through the masked residual identity instead
        spec = gv.GridSpec(8, 8)
        a = np.tile(np.arange(8.0) * 2.0, (8, 1))
        f = gv.ScalarField(spec, a)
        p = gv.GvfParams(g=1.0, h=0.5, dt=0.12)
        out = gv.direct_steady_solve(f, p)
        assert gv.steady_residual(out, f, p) < 1e-10

    def test_matches_iterative_solver(self):
        f = impulse(8)
        p = gv.GvfParams(g=1.0, h=0.1, dt=0.12, delta=1e-12, max_iter=100000)
        it = gv.gvf_solve(f, p)
        direct = gv.direct_steady_solve(f, p)
        assert np.abs(it.field.u.values - direct.u.values).max() < 1e-8
        assert np.abs(it.field.v.values - direct.v.values).max() < 1e-8

    def test_size_limit(self):
        f = gv.ScalarField.zeros(gv.GridSpec(80, 80))
        with pytest.raises(SizeError):
            gv.direct_steady_solve(f, gv.GvfParams(g=1.0, h=0.1))

    def test_singular_system(self):
        spec = gv.GridSpec(6, 6)
        gfield = gv.ScalarField.from_array(np.ones(spec.shape))
        hfield = gv.ScalarField.from_array(np.ones(spec.shape) * 0.1)
        gfield.values[2, 2] = 0.0
        hfield.values[2, 2] = 0.0
        f = impulse(6)
        with pytest.raises(RankError):
            gv.direct_steady_solve(f, gv.GvfParams(g=gfield, h=hfield))
        with pytest.raises(RankError):
            gv.direct_steady_solve(f, gv.GvfParams(g=1.0, h=0.0))

    def test_component_without_reaction_is_singular(self):
        # a full-height hole at x = 4-5 cuts the domain in two; h vanishes
        # on the left part only, whose steady state is then not unique
        spec = gv.GridSpec(10, 8)
        mask = gv.DomainMask.from_rects(spec, None, (4, 0, 2, 8))
        h = np.full(spec.shape, 0.1)
        h[:, :4] = 0.0
        f = gv.ScalarField.from_array(np.random.default_rng(4).random(spec.shape))
        p = gv.GvfParams(g=1.0, h=gv.ScalarField(spec, h))
        with pytest.raises(RankError, match="connected"):
            gv.direct_steady_solve(f, p, mask)
        # one reaction pixel on the left part makes it unique again
        h[3, 0] = 0.1
        out = gv.direct_steady_solve(f, p, mask)
        assert gv.steady_residual(out, f, p, mask) < 1e-12

    def test_domain_split_by_a_full_width_hole(self):
        # the rows of the hole are empty blocks of the elimination
        spec = gv.GridSpec(9, 12)
        mask = gv.DomainMask.from_rects(spec, None, (0, 4, 9, 3))
        f = gv.ScalarField.from_array(np.random.default_rng(5).random(spec.shape))
        p = gv.GvfParams(g=1.0, h=0.1)
        out = gv.direct_steady_solve(f, p, mask)
        assert gv.steady_residual(out, f, p, mask) < 1e-12
        assert np.all(out.u.values[4:7] == 0) and np.all(out.v.values[4:7] == 0)


class TestSteadyResidual:
    def test_residual_past_the_float_range_is_inf_without_a_warning(self):
        # r = g*dt = 0.1 passes validation, but g * Lap(v) overflows
        f = gv.edge_map(synth_ushape(32, 32), sigma=2.0)
        p = gv.GvfParams(g=1e308, h=0.02, dt=1e-309, max_iter=3)
        rep = gv.gvf_solve(f, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gv.steady_residual(rep.field, f, p) == math.inf

    def test_periodic_residual_uses_the_periodic_stencil(self):
        f = gv.ScalarField.from_array(np.random.default_rng(3).random((24, 24)))
        p = gv.GvfParams(g=1.0, h=0.2, dt=0.12, delta=1e-12, max_iter=100000)
        rep = gv.gvf_solve(f, p, periodic=True)
        assert gv.steady_residual(rep.field, f, p, periodic=True) <= 1e-9
        # the mirror rule sees a field that is not its steady state
        assert gv.steady_residual(rep.field, f, p) > 1e-2
        exact = gv.spectral_steady_state(gv.gradient_central(f), 1.0, 0.2)
        assert gv.steady_residual(exact, f, p, periodic=True) <= 1e-12

    def test_periodic_residual_needs_the_full_rectangle(self):
        f = impulse(8)
        mask = gv.DomainMask.from_rects(f.spec, (1, 1, 6, 6))
        with pytest.raises(ParameterError, match="full-rectangle"):
            gv.steady_residual(gv.gradient_central(f), f, gv.GvfParams(), mask, periodic=True)

    def test_direct_solution_residual_small(self):
        f = impulse(8)
        p = gv.GvfParams(g=1.0, h=0.1)
        out = gv.direct_steady_solve(f, p)
        assert gv.steady_residual(out, f, p) < 1e-8

    def test_constant_gradient_zero_residual(self):
        spec = gv.GridSpec(8, 8)
        grad = gv.VectorField.from_arrays(np.full(spec.shape, 2.0), np.full(spec.shape, 1.0))
        # a field equal to a constant source is exactly steady; emulate by
        # evaluating the operator pieces directly
        p = gv.GvfParams(g=1.0, h=0.3)
        res = gv.gvf_step(grad.copy(), grad, p)
        assert np.abs(res.u.values - grad.u.values).max() == 0

    def test_initial_field_residual_is_diffusion_term(self):
        f = impulse(8)
        p = gv.GvfParams(g=0.7, h=0.1)
        grad = gv.gradient_central(f)
        res = gv.steady_residual(grad, f, p)
        lap_u = gv.laplacian_5pt(grad.u).values
        lap_v = gv.laplacian_5pt(grad.v).values
        expected = (p.g * np.hypot(lap_u, lap_v)).max()
        assert res == pytest.approx(expected, rel=1e-12)


# a constant g or h: zero, or far enough from it that dt stays finite
coefficients = st.just(0.0) | st.floats(1e-3, 4.0)


class TestExpansionCheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_impulse_problem(self, n):
        p = gv.GvfParams(g=1.0, h=0.1, dt=0.2)
        assert gv.expansion_check(impulse(8), p, n) < 1e-12

    def test_pure_diffusion(self):
        p = gv.GvfParams(g=1.0, h=0.0, dt=0.2)
        for n in (1, 2, 3, 4):
            assert gv.expansion_check(impulse(8), p, n) < 1e-12

    def test_rejects_per_pixel_coefficients(self):
        spec = gv.GridSpec(8, 8)
        gfield = gv.ScalarField.from_array(np.ones(spec.shape))
        p = gv.GvfParams(g=gfield, h=0.1)
        with pytest.raises(ParameterError):
            gv.expansion_check(impulse(8), p, 1)

    def test_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            gv.expansion_check(impulse(8), gv.GvfParams(g=1.0, h=0.1), 0)

    @pytest.mark.parametrize("n", [-1, 2.5, 1.0, math.nan, True, "2"])
    def test_order_must_be_an_integer_of_at_least_one(self, n):
        with pytest.raises(ParameterError, match="expansion order n must be an integer >= 1"):
            gv.expansion_check(impulse(8), gv.GvfParams(g=1.0, h=0.1), n)

    @pytest.mark.parametrize("g, h, dt", [(1e300, 0.1, 0.12), (1.0, 0.1, 1e300), (3.0, 0.1, 0.12)])
    def test_refuses_an_unstable_set_before_the_first_step(self, g, h, dt):
        # these used to overflow to NaN, or to return a gap of 4.4e85
        p = gv.GvfParams(g=g, h=h, dt=dt)
        f = gv.ScalarField.from_array(np.random.default_rng(3).random((8, 8)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError) as refused:
                gv.expansion_check(f, p, 400)
        assert str(refused.value) == gv.validate_params(p)[0]
        assert str(refused.value).startswith("stability violated")

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_takes_its_steps_from_one_stencil(self, n):
        # one stencil and border table for all n steps, not one a step
        f = gv.ScalarField.from_array(np.random.default_rng(4).random((40, 40)) * 100.0)
        with mock.patch("gvflow.solver._Stencil", wraps=_Stencil) as made:
            gap = gv.expansion_check(f, gv.GvfParams(g=1.0, h=0.1, dt=0.2), n)
        assert made.call_count == 1
        assert gap <= 1e-12 * gv.gradient_central(f).magnitude().max()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 40), st.integers(3, 40), coefficients, coefficients,
           st.floats(0.01, 0.999), st.integers(1, 300), st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3))
    def test_closed_form_matches_any_number_of_steps(self, w, h, g, hc, share, n, seed, scale):
        assume(g > 0 or hc > 0)
        # dt within the stability rule dt*(h + 8g) < 2
        p = gv.GvfParams(g=g, h=hc, dt=share * 2.0 / (hc + 8.0 * g))
        f = gv.ScalarField.from_array(scale * np.random.default_rng(seed).random((h, w)))
        peak = gv.gradient_central(f).magnitude().max()
        assert gv.expansion_check(f, p, n) <= 1e-12 * max(1.0, peak)


class TestOracleEquivalenceSweep:
    def test_random_problems(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            w, h = (int(x) for x in rng.integers(8, 13, size=2))
            f = gv.ScalarField.from_array(rng.random((h, w)))
            p = gv.GvfParams(
                g=float(rng.uniform(0.5, 1.9)),
                h=float(rng.uniform(0.05, 0.4)),
                dt=0.12, delta=1e-10, max_iter=100000,
            )
            assert gv.validate_params(p) == []
            it = gv.gvf_solve(f, p)
            direct = gv.direct_steady_solve(f, p)
            assert np.abs(it.field.u.values - direct.u.values).max() < 1e-6
            assert np.abs(it.field.v.values - direct.v.values).max() < 1e-6


class TestGgvf:
    def test_zero_gradient_immediate(self):
        f = gv.ScalarField.from_array(np.full((8, 8), 2.0))
        rep = gv.ggvf_solve(f, gv.GgvfParams(K=100.0, dt=0.12, delta=1e-8))
        assert rep.converged and rep.iterations == 1
        assert np.all(rep.field.u.values == 0)

    def test_weight_at_k(self):
        spec = gv.GridSpec(5, 5)
        grad = gv.VectorField.zeros(spec)
        grad.u.values[2, 2] = 100.0
        w = gv.ggvf_weight(grad, 100.0)
        assert w.values[2, 2] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert w.values[0, 0] == 1.0

    def test_tiny_k_weight_is_zero_without_a_warning(self):
        # |grad|^2 / K^2 overflows to inf: exp(-inf) = 0 is the right limit
        grad = gv.VectorField.from_arrays(np.array([[0.0, 1e-3, 5.0]] * 3), np.zeros((3, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = gv.ggvf_weight(grad, 1e-158)
        assert np.array_equal(w.values, np.array([[1.0, 0.0, 0.0]] * 3))

    @pytest.mark.parametrize("K", [1e-200, 1.5e-162, 5e-324, -1.0, math.nan])
    def test_k_whose_square_vanishes_is_rejected(self, K):
        with pytest.raises(ParameterError, match=r"K must be > 0 with K\*K > 0"):
            gv.GgvfParams(K=K)
        with pytest.raises(ParameterError, match=r"K must be > 0 with K\*K > 0"):
            gv.ggvf_weight(gv.VectorField.zeros(gv.GridSpec(3, 3)), K)

    @pytest.mark.parametrize("K", [1.6e-162, 1e-3, 0.5, 100.0, 1e150])
    def test_weight_is_the_plain_formula(self, K):
        rng = np.random.default_rng(8)
        u, v = rng.normal(0.0, 50.0, (2, 6, 7))
        w = gv.ggvf_weight(gv.VectorField.from_arrays(u, v), K)
        with np.errstate(over="ignore"):
            expected = np.exp(-(u ** 2 + v ** 2) / (K * K))
        assert np.array_equal(w.values, expected)

    def test_invalid_dt_rejected(self):
        f = gv.ScalarField.from_array(np.full((8, 8), 2.0))
        with pytest.raises(ParameterError, match="r < 1/4"):
            gv.ggvf_solve(f, gv.GgvfParams(K=100.0, dt=0.3))

    def test_worst_case_rule_is_image_independent(self):
        # |grad f| = 1000 * sqrt(2) everywhere, so the largest weight is
        # about 1.9e-22: a rule on the image's own weights would pass r < 1/4
        y, x = np.mgrid[0:12, 0:12]
        f = gv.ScalarField.from_array(1000.0 * (x + y))
        assert gv.ggvf_weight(gv.gradient_central(f), 100.0).values.max() < 1e-21
        assert gv.ggvf_solve(f, gv.GgvfParams(K=100.0, dt=0.12)).converged
        with pytest.raises(ParameterError, match=r"r < 1/4.*worst case g = 1"):
            gv.ggvf_solve(f, gv.GgvfParams(K=100.0, dt=0.3))

    def test_forced_past_the_worst_case_rule(self):
        # the image's own weights are stable at dt = 0.3, the U's are not
        y, x = np.mgrid[0:12, 0:12]
        ramp = gv.ScalarField.from_array(1000.0 * (x + y))
        u = gv.edge_map(synth_ushape(48, 48), sigma=0.0)
        for f, p in ((ramp, gv.GgvfParams(K=100.0, dt=0.3)), (u, gv.GgvfParams(dt=0.3, cap=40.0))):
            with pytest.raises(ParameterError, match="GGVF worst case g = 1"):
                gv.ggvf_solve(f, p)
        rep = gv.ggvf_solve(ramp, gv.GgvfParams(K=100.0, dt=0.3), force=True)
        assert rep.converged and rep.iterations == 1
        with pytest.raises(DivergenceError) as diverged:
            gv.ggvf_solve(u, gv.GgvfParams(dt=0.3, cap=40.0), force=True)
        assert diverged.value.iteration == 101

    @pytest.mark.parametrize("cap, window, periodic", [
        (math.inf, False, False),
        (20.0, False, False),
        (math.inf, False, True),
        (math.inf, True, False),
    ], ids=["full", "capped", "periodic", "window-minus-hole"])
    def test_is_gvf_solve_on_resolved_pair(self, cap, window, periodic):
        size = (48, 40) if window else (64, 64)
        f = gv.edge_map(synth_ushape(*size), sigma=2.0)
        mask = None
        if window:
            mask = gv.DomainMask.from_rects(f.spec, outer=(2, 2, 44, 36), hole=(20, 16, 8, 8))
        P = gv.GgvfParams(K=100.0, dt=0.12, delta=0.02, cap=cap, max_iter=20000)
        grad = gv.clamp_magnitude(gv.gradient_central(f), cap)
        if mask is not None:
            grad.u.values[~mask.inside] = 0.0
            grad.v.values[~mask.inside] = 0.0
        w = gv.ggvf_weight(grad, P.K)
        pair = gv.GvfParams(g=w, h=gv.ScalarField(f.spec, 1.0 - w.values), dt=P.dt,
                            delta=P.delta, cap=cap, max_iter=P.max_iter)
        rep = gv.ggvf_solve(f, P, mask, periodic)
        ref = gv.gvf_solve(f, pair, mask, periodic, force=True)
        assert rep.iterations == ref.iterations > 1
        for a, b in ((rep.field.u, ref.field.u), (rep.field.v, ref.field.v),
                     (rep.params.g, w), (rep.params.h, pair.h)):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(rep.change_history, ref.change_history)
        assert np.array_equal(rep.energy_history, ref.energy_history)

    def test_reaction_pins_field_near_strong_edges(self):
        a = np.zeros((16, 16))
        a[:, 8:] = 255.0
        f = gv.edge_map(gv.ScalarField.from_array(a), 0.0)
        rep = gv.ggvf_solve(f, gv.GgvfParams(K=100.0, dt=0.12, delta=1e-3, max_iter=20000))
        grad = gv.gradient_central(f)
        strong = gv.ggvf_weight(grad, 100.0).values < 1e-6
        assert strong.any()
        assert np.allclose(rep.field.u.values[strong], grad.u.values[strong], rtol=1e-2)


class TestDomainMask:
    def test_empty_mask_rejected(self):
        spec = gv.GridSpec(6, 6)
        with pytest.raises(ParameterError):
            gv.DomainMask(spec, np.zeros(spec.shape, dtype=bool))

    def test_from_rects_hole(self):
        spec = gv.GridSpec(8, 8)
        mask = gv.DomainMask.from_rects(spec, hole=(3, 3, 2, 2))
        assert mask.inside_count == 64 - 4
        assert not mask.inside[3, 3] and mask.inside[2, 2]

    @pytest.mark.parametrize("rect", [(1, 2, 3), (1, 2, 3, 4, 5), (1.0, 2, 3, 4),
                                      (1, 2, True, 4), (1, 2, "3", 4), 5, "1234"])
    @pytest.mark.parametrize("name", ["outer", "hole"])
    def test_from_rects_refuses_a_rect_of_other_than_four_integers(self, name, rect):
        # (1, 2, 3) used to end in ValueError from the unpack
        with pytest.raises(ParameterError, match=r"^a rectangle must be four integers"):
            gv.DomainMask.from_rects(gv.GridSpec(8, 8), **{name: rect})

    def test_from_rects_takes_numpy_integers(self):
        spec = gv.GridSpec(8, 8)
        rect = np.array([3, 3, 2, 2])
        assert np.array_equal(gv.DomainMask.from_rects(spec, hole=rect).inside,
                              gv.DomainMask.from_rects(spec, hole=(3, 3, 2, 2)).inside)

    def test_boundary_classification(self):
        spec = gv.GridSpec(8, 8)
        mask = gv.DomainMask.from_rects(spec, hole=(3, 3, 2, 2))
        boundary = mask.boundary()
        # frame pixels and hole-adjacent pixels are boundary
        assert boundary[0, 0] and boundary[0, 4]
        assert boundary[2, 3] and boundary[3, 2]
        assert not boundary[1, 1]

    def test_outside_pixels_stay_zero(self):
        f = impulse(10, value=5.0)
        mask = gv.DomainMask.from_rects(f.spec, hole=(1, 1, 2, 2))
        rep = gv.gvf_solve(f, gv.GvfParams(g=1.0, h=0.1, dt=0.12, delta=1e-8), mask)
        assert np.all(rep.field.u.values[~mask.inside] == 0)
        assert np.all(rep.field.v.values[~mask.inside] == 0)
        assert rep.inside_count == mask.inside_count

    def test_masked_oracle_agreement(self):
        f = impulse(10, value=3.0)
        mask = gv.DomainMask.from_rects(f.spec, outer=(1, 1, 8, 8), hole=(4, 4, 2, 2))
        p = gv.GvfParams(g=1.0, h=0.2, dt=0.12, delta=1e-11, max_iter=100000)
        it = gv.gvf_solve(f, p, mask)
        direct = gv.direct_steady_solve(f, p, mask)
        assert np.abs(it.field.u.values - direct.u.values).max() < 1e-7
        assert np.abs(it.field.v.values - direct.v.values).max() < 1e-7

    def test_periodic_requires_full_domain(self):
        f = impulse(8)
        mask = gv.DomainMask.from_rects(f.spec, hole=(2, 2, 2, 2))
        with pytest.raises(ParameterError):
            gv.gvf_solve(f, gv.GvfParams(g=1.0, h=0.1), mask, periodic=True)


class TestEnergyDecay:
    def test_monotone_for_valid_params(self):
        f = impulse(12, value=10.0)
        for g, h in ((0.5, 0.05), (1.5, 0.1), (2.0, 0.02)):
            rep = gv.gvf_solve(f, gv.GvfParams(g=g, h=h, dt=0.12, delta=1e-10, max_iter=50000))
            e = rep.energy_history
            assert np.all(np.diff(e) <= e[:-1] * 1e-12 + 1e-300)

    def test_normalized_decay_faster_for_larger_g(self):
        # larger diffusion shrinks the normalized step energy at least as
        # fast at every matched iteration
        f = impulse(12, value=10.0)
        reps = {
            g: gv.gvf_solve(f, gv.GvfParams(g=g, h=0.05, dt=0.12, delta=1e-12, max_iter=50000))
            for g in (0.5, 2.0)
        }
        lo, hi = reps[0.5].energy_history, reps[2.0].energy_history
        n = min(len(lo), len(hi))
        assert np.all(hi[:n] / hi[0] <= lo[:n] / lo[0] * (1 + 1e-9))


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


class TestAlignedBuffers:
    """Every span the explicit solve writes per iteration starts a 64-byte line."""

    @pytest.mark.parametrize("shape", [(5,), (3, 7), (2, 9, 11)])
    @pytest.mark.parametrize("lead", range(8))
    def test_aligned_zeros(self, shape, lead):
        a = _aligned_zeros(shape, lead)
        assert a.shape == shape and a.dtype == np.float64
        assert a.flags.c_contiguous
        assert np.all(a == 0)
        assert (_address(a) + 8 * lead) % 64 == 0

    def test_aligned_zeros_default_lead_is_zero(self):
        assert _address(_aligned_zeros((4, 4))) % 64 == 0

    @pytest.mark.parametrize("kind", ["full", "masked", "periodic"])
    @pytest.mark.parametrize("width", [*range(3, 13), *range(61, 71)])
    def test_stencil_spans(self, kind, width):
        # W, the span start, runs through every residue mod 8
        spec = gv.GridSpec(width, 5)
        rng = np.random.default_rng(width)
        field = gv.VectorField.from_arrays(rng.random(spec.shape), rng.random(spec.shape))
        mask = gv.DomainMask.full(spec)
        if kind == "masked":
            mask = gv.DomainMask.from_rects(spec, hole=(1, 2, 1, 1))
        stencil = _Stencil(mask, kind == "periodic", field.values)
        assert np.array_equal(stencil.field, [field.u.values, field.v.values])
        g = rng.random(spec.shape)
        h = 1.0 - g
        coeffs = stencil.coeffs(g, h, 0.1, field.values)
        assert all(_address(s) % 64 == 0 for s in [stencil._nb.span, *coeffs])
        # the first step makes the spare buffer and swaps the field into it
        next(stencil.steps(g, h, 0.1, field.values))
        assert all(_address(b.span) % 64 == 0 for b in (stencil._cur, stencil._old))
        assert np.shares_memory(stencil.field, stencil._cur.flat)
        assert np.array_equal(stencil._old.interior, field.values)


@st.composite
def stencil_domains(draw):
    """A grid of 3-40 px per axis with either a window-minus-hole mask
    (the window may be the whole grid, the hole may be absent) or the
    periodic full rectangle."""
    w, h = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    spec = gv.GridSpec(w, h)
    if draw(st.booleans()):
        return spec, gv.DomainMask.full(spec), True
    inside = np.zeros(spec.shape, dtype=bool)
    x0, y0 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    inside[y0:y0 + draw(st.integers(1, h - y0)), x0:x0 + draw(st.integers(1, w - x0))] = True
    if draw(st.booleans()):
        hx, hy = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        inside[hy:hy + draw(st.integers(1, h - hy)), hx:hx + draw(st.integers(1, w - hx))] = False
    inside[y0, x0] = True
    return spec, gv.DomainMask(spec, inside), False


class TestStencilNeighborSum:
    """The prebuilt views, the border gather and the one-gather fix-up add
    each pixel's four neighbors in the order x+1, x-1, y+1, y-1."""

    @settings(max_examples=150, deadline=None)
    @given(stencil_domains(), st.integers(0, 2**32 - 1))
    def test_equals_four_gather_reference(self, domain, seed):
        spec, mask, periodic = domain
        rng = np.random.default_rng(seed)
        # magnitudes spread over 16 decades, so any other order changes last bits
        shape = (2,) + spec.shape
        u, v = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        stencil = _Stencil(mask, periodic, np.stack([u, v]))
        got = neighbor_sum(stencil)[:, mask.inside]

        # each pixel's neighbor in 2-D indices, from the mask alone: wrapped
        # for periodic borders, else itself where the neighbor is off the
        # grid or outside the mask (the mirror rule)
        h, w = spec.shape
        ys, xs = np.nonzero(mask.inside)
        nbrs = []
        for y, x in ((ys, xs + 1), (ys, xs - 1), (ys + 1, xs), (ys - 1, xs)):
            if periodic:
                y, x = y % h, x % w
            else:
                real = (y >= 0) & (y < h) & (x >= 0) & (x < w)
                real[real] = mask.inside[y[real], x[real]]
                y, x = np.where(real, y, ys), np.where(real, x, xs)
            nbrs.append((y, x))
        for comp, values in enumerate((u, v)):
            t0, t1, t2, t3 = (values[y, x] for y, x in nbrs)
            expected = ((t0 + t1) + t2) + t3
            assert np.array_equal(got[comp].view(np.int64), expected.view(np.int64))


    @settings(max_examples=60, deadline=None)
    @given(stencil_domains())
    def test_negative_zero_field_sums_to_negative_zero(self, domain):
        # ((-0.0 + -0.0) + -0.0) + -0.0 is -0.0, at the boundary pixels too,
        # whose stand-ins one reduction sums
        spec, mask, periodic = domain
        stencil = _Stencil(mask, periodic, np.full((2,) + spec.shape, -0.0))
        got = neighbor_sum(stencil)[:, mask.inside]
        assert np.all(got == 0.0) and np.all(np.signbit(got))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 40), st.integers(3, 40), st.integers(0, 2**32 - 1),
           st.floats(0.0, 1.0))
    def test_full_rectangle_equals_the_laplacian(self, w, h, seed, zeros):
        # laplacian_5pt sums the edge-padded array by its own formula; a
        # share of the pixels, up to all of them, are signed zeros
        rng = np.random.default_rng(seed)
        shape = (2, h, w)
        uv = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        pick = rng.random(shape)
        uv[pick < zeros] = -0.0
        uv[pick < zeros / 2.0] = 0.0
        spec = gv.GridSpec(w, h)
        got = neighbor_sum(_Stencil(gv.DomainMask.full(spec), False, uv)) - 4.0 * uv
        for comp in range(2):
            want = gv.laplacian_5pt(gv.ScalarField(spec, uv[comp])).values
            assert np.array_equal(got[comp].view(np.int64), want.view(np.int64))


class TestOneLoopServesEveryCaller:
    """gvf_step and gvf_solve drive the same update: n steps from the
    masked source give the solve's field after n iterations, and the
    change and energy recomputed from successive fields are its
    histories, all to the bit."""

    @settings(max_examples=60, deadline=None)
    @given(stencil_domains(), st.booleans(), st.floats(0.01, 0.999), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    def test_steps_reproduce_the_solve(self, domain, per_pixel, dt_share, n, seed):
        spec, mask, periodic = domain
        rng = np.random.default_rng(seed)
        if per_pixel:
            g = rng.uniform(0.01, 2.0, spec.shape)
            h = g * rng.uniform(0.0, 1.0, spec.shape)
            decay = np.max(h + 4.0 * g + 4.0 * np.sqrt(g * g.max()))
            g, h = gv.ScalarField(spec, g), gv.ScalarField(spec, h)
        else:
            g = float(rng.uniform(0.01, 5.0))
            h = g * float(rng.uniform(0.0, 0.999))
            decay = h + 8.0 * g
        hmax = float(np.max(h.values if per_pixel else h))
        dt = dt_share * min(2.0 / decay, 1.0 / hmax if hmax else math.inf)
        p = gv.GvfParams(g=g, h=h, dt=dt, delta=1e-300, max_iter=n)
        assume(not gv.validate_params(p))
        f = gv.ScalarField(spec, rng.random(spec.shape) * 100.0)
        rep = gv.gvf_solve(f, p, mask, periodic)
        assert 1 <= rep.iterations <= n

        src = _masked_source(f, p.cap, mask)
        v, changes, energies = src, [], []
        for _ in range(rep.iterations):
            new = gv.gvf_step(v, src, p, mask, periodic)
            d = new.values - v.values
            d = d * d
            sq = d[0] + d[1]
            changes.append(math.sqrt(sq[mask.inside].max()))
            energies.append(float(np.add.reduce(sq[mask.inside])))
            v = new
        assert np.array_equal(v.values.view(np.int64), rep.field.values.view(np.int64))
        for got, want in ((changes, rep.change_history), (energies, rep.energy_history)):
            assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))


class TestEnergyNeverIncreases:
    """With constant g and h the step d = v^{n+1} - v^n evolves as
    d <- A d, A symmetric with eigenvalues a_k in (-1, 1] (a_k = 1 only
    for the mean with h = 0), so the step energy |d|^2 never increases."""

    @settings(max_examples=80, deadline=None)
    @given(stencil_domains(), st.floats(0.01, 5.0), st.floats(0.0, 0.999),
           st.floats(0.01, 0.999), st.integers(0, 2**32 - 1))
    def test_for_constant_coefficients(self, domain, g, h_over_g, dt_share, seed):
        spec, mask, periodic = domain
        h = h_over_g * g
        # dt at the given share of the limits dt*(h + 8g) < 2 and h*dt < 1
        dt = dt_share * min(2.0 / (h + 8.0 * g), 1.0 / h if h else math.inf)
        p = gv.GvfParams(g=g, h=h, dt=dt, delta=1e-300, max_iter=300)
        assume(not gv.validate_params(p))
        f = gv.ScalarField(spec, np.random.default_rng(seed).random(spec.shape) * 100.0)
        rep = gv.gvf_solve(f, p, mask, periodic)
        e = rep.energy_history
        # near its floating-point fixed point a step is rounding noise, at
        # most 16 ulp of the field's scale at each of the domain's pixels
        scale = max(np.abs(rep.field.values).max(), np.abs(gv.gradient_central(f).values).max())
        floor = mask.inside_count * (16.0 * np.finfo(float).eps * scale) ** 2
        assert np.all(np.diff(e) <= 1e-12 * e[:-1] + floor)


class TestWeightedEnergyNeverIncreases:
    """With per-pixel g and h the step evolves as d <- (I - dt*A) d, A =
    diag(g) (diag(h/g) - Lap) self-adjoint in the inner product sum
    x*y/g.  validate_params' rule keeps the eigenvalues of dt*A in
    [0, 2), so sum |d|^2 / g never increases."""

    @settings(max_examples=60, deadline=None)
    @given(stencil_domains(), st.floats(0.01, 0.999), st.integers(0, 2**32 - 1))
    def test_for_per_pixel_coefficients(self, domain, dt_share, seed):
        spec, mask, periodic = domain
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.01, 2.0, spec.shape)
        h = g * rng.uniform(0.0, 1.0, spec.shape)
        # dt at the given share of the limits dt*max(h + 4g + 4*sqrt(g*max g)) < 2
        # and h*dt < 1
        decay = np.max(h + 4.0 * g + 4.0 * np.sqrt(g * g.max()))
        dt = dt_share * min(2.0 / decay, 1.0 / h.max() if h.max() else math.inf)
        p = gv.GvfParams(g=gv.ScalarField(spec, g), h=gv.ScalarField(spec, h), dt=dt)
        assume(not gv.validate_params(p))
        grad = gv.gradient_central(gv.ScalarField(spec, rng.random(spec.shape) * 100.0))
        v, weighted = grad, []
        for _ in range(150):
            new = gv.gvf_step(v, grad, p, mask, periodic)
            d = (new.values - v.values)[:, mask.inside]
            weighted.append(float(np.sum(d * d / g[mask.inside])))
            v = new
        e = np.array(weighted)
        # the constant-coefficient test's rounding floor, weighted by at most 1/min g
        scale = max(np.abs(v.values).max(), np.abs(grad.values).max())
        floor = mask.inside_count * (16.0 * np.finfo(float).eps * scale) ** 2
        assert np.all(np.diff(e) <= 1e-12 * e[:-1] + floor / g[mask.inside].min())


def steady_system(f, p, inside):
    """The steady-state system A x = b at the pixels of inside, in
    row-major order, assembled pixel by pixel from the equation in
    direct_steady_solve's docstring: A a scipy CSC matrix, b of shape
    (n, 2)."""
    import scipy.sparse as sp

    height, width = inside.shape
    g, h = (np.broadcast_to(c.values if isinstance(c, gv.ScalarField) else c, inside.shape)
            for c in (p.g, p.h))
    index = np.full(inside.shape, -1)
    index[inside] = np.arange(inside.sum())
    ys, xs = np.nonzero(inside)
    # diag gains g for each interior neighbor in the loop below
    diag = h[ys, xs].copy()
    rows, cols, vals = [index[ys, xs]], [index[ys, xs]], [diag]
    for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        ny, nx = ys + dy, xs + dx
        real = (ny >= 0) & (ny < height) & (nx >= 0) & (nx < width)
        real[real] = inside[ny[real], nx[real]]
        rows.append(index[ys[real], xs[real]])
        cols.append(index[ny[real], nx[real]])
        vals.append(-g[ys[real], xs[real]])
        diag[real] += g[ys[real], xs[real]]
    n = len(ys)
    A = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    grad = gv.clamp_magnitude(gv.gradient_central(f), p.cap)
    return A, np.stack([h[ys, xs] * grad.u.values[ys, xs], h[ys, xs] * grad.v.values[ys, xs]], 1)


def spsolve_steady_state(f, p, inside, x=None):
    """The steady state by scipy's sparse LU on steady_system: an
    independent reference for the block elimination.  Given a solution
    x, it returns the correction from x's residual instead."""
    from scipy.sparse.linalg import spsolve

    A, b = steady_system(f, p, inside)
    ys, xs = np.nonzero(inside)
    if x is not None:
        b = b - A @ x[:, ys, xs].T
    out = np.zeros((2,) + inside.shape)
    out[:, ys, xs] = spsolve(A, b).T
    return out


@st.composite
def steady_problems(draw):
    """A grid of 3-40 px per axis, the full rectangle or a window minus a
    hole that touches the window's border, and constant or per-pixel
    coefficients, per-pixel g spanning six decades."""
    width, height = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    spec = gv.GridSpec(width, height)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = gv.ScalarField(spec, rng.random((height, width)) * 100.0)
    mask = None
    if draw(st.booleans()):
        x0, y0 = draw(st.integers(0, width - 2)), draw(st.integers(0, height - 2))
        w, h = draw(st.integers(2, width - x0)), draw(st.integers(2, height - y0))
        hw, hh = draw(st.integers(1, w - 1)), draw(st.integers(1, h - 1))
        hx = x0 + draw(st.integers(0, w - hw))
        hy = y0 + draw(st.integers(0, h - hh))
        side = draw(st.sampled_from(["left", "right", "top", "bottom"]))
        hx = {"left": x0, "right": x0 + w - hw}.get(side, hx)
        hy = {"top": y0, "bottom": y0 + h - hh}.get(side, hy)
        mask = gv.DomainMask.from_rects(spec, (x0, y0, w, h), (hx, hy, hw, hh))
    if draw(st.booleans()):
        g = gv.ScalarField(spec, 10.0 ** rng.uniform(-4.0, 2.0, spec.shape))
        p = gv.GvfParams(g=g, h=gv.ScalarField(spec, rng.uniform(0.01, 1.0, spec.shape)))
    else:
        p = gv.GvfParams(g=float(rng.uniform(0.1, 2.0)), h=float(rng.uniform(0.01, 1.0)))
    return f, p, mask


class TestDirectSolveAgreesWithSpsolve:
    """The block elimination against scipy's sparse LU on the same system."""

    @settings(max_examples=150, deadline=None)
    @given(problem=steady_problems())
    def test_agrees_to_1e_12_of_the_peak(self, problem):
        f, p, mask = problem
        inside = np.ones(f.spec.shape, bool) if mask is None else mask.inside
        out = gv.direct_steady_solve(f, p, mask)
        got = np.stack([out.u.values, out.v.values])
        ref = spsolve_steady_state(f, p, inside)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.all(got[:, ~inside] == 0)

    @pytest.mark.parametrize("shape", [(3, 40), (40, 3), (3, 3), (7, 33), (33, 7)])
    def test_strips_both_orientations(self, shape):
        rng = np.random.default_rng(sum(shape))
        f = gv.ScalarField.from_array(rng.random(shape) * 100.0)
        g = gv.ScalarField(f.spec, 10.0 ** rng.uniform(-4.0, 2.0, shape))
        p = gv.GvfParams(g=g, h=gv.ScalarField(f.spec, rng.uniform(0.01, 1.0, shape)))
        out = gv.direct_steady_solve(f, p)
        ref = spsolve_steady_state(f, p, np.ones(shape, bool))
        got = np.stack([out.u.values, out.v.values])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


    def test_ill_conditioned_coefficients_keep_full_accuracy(self):
        # g over nine decades and h over three: unrefined elimination is
        # off by about 1e-10 of the peak here, and spsolve by up to 1e-12
        rng = np.random.default_rng(8)
        shape = (30, 36)
        f = gv.ScalarField.from_array(rng.random(shape) * 100.0)
        g = gv.ScalarField(f.spec, 10.0 ** rng.uniform(-6.0, 3.0, shape))
        p = gv.GvfParams(g=g, h=gv.ScalarField(f.spec, 10.0 ** rng.uniform(-3.0, 0.0, shape)))
        out = gv.direct_steady_solve(f, p)
        got = np.stack([out.u.values, out.v.values])
        # the reference, refined to convergence from its float64 residual
        ref = spsolve_steady_state(f, p, np.ones(shape, bool))
        for _ in range(3):
            ref += spsolve_steady_state(f, p, np.ones(shape, bool), ref)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestSteadyDefectIsTheAssembledOperator:
    """_Stencil.defect, the h*src - A*v of steady_residual and of the
    direct oracle's refinement, against the pixel-by-pixel assembly."""

    @settings(max_examples=150, deadline=None)
    @given(problem=steady_problems(), seed=st.integers(0, 2**32 - 1))
    def test_equals_b_minus_a_v_to_1e_12_of_the_largest_term(self, problem, seed):
        f, p, mask = problem
        mask = mask or gv.DomainMask.full(f.spec)
        A, b = steady_system(f, p, mask.inside)
        # the exterior too holds values, which the mirror rule never reads
        v = np.random.default_rng(seed).standard_normal((2,) + f.spec.shape) * 100.0
        x = v[:, mask.inside].T
        g, h = (c.values if isinstance(c, gv.ScalarField) else c for c in (p.g, p.h))
        got = _Stencil(mask, False, v).defect(g, h, _masked_source(f, p.cap, mask).values)
        A = A.tocoo()
        largest = max(np.abs(b).max(), np.abs(A.data[:, None] * x[A.col]).max())
        assert np.abs(got[:, mask.inside].T - (b - A @ x)).max() <= 1e-12 * largest


    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 40), st.integers(3, 40), st.integers(0, 2**32 - 1),
           st.floats(0.0, 1.0), st.one_of(coefficients, st.just(None)),
           st.one_of(coefficients, st.just(None)))
    def test_full_rectangle_equals_the_formula_to_the_bit(self, w, h, seed, zeros, g, hc):
        # g*laplacian_5pt(v) + h*(src - v) per plane, in that order; None
        # draws a per-pixel coefficient, and a share of the pixels of v
        # and src, up to all of them, are signed zeros
        rng = np.random.default_rng(seed)
        shape = (2, h, w)

        def field():
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            pick = rng.random(shape)
            a[pick < zeros] = -0.0
            a[pick < zeros / 2.0] = 0.0
            return a

        v, src = field(), field()
        g, hc = (rng.uniform(0.0, 4.0, (h, w)) if c is None else c for c in (g, hc))
        spec = gv.GridSpec(w, h)
        got = _Stencil(gv.DomainMask.full(spec), False, v).defect(g, hc, src.copy())
        for comp in range(2):
            lap = gv.laplacian_5pt(gv.ScalarField(spec, v[comp])).values
            want = g * lap + hc * (src[comp] - v[comp])
            assert np.array_equal(got[comp].view(np.int64), want.view(np.int64))


class TestDirectSolveOnEmptyLines:
    """Grid lines without interior pixels hold no block of the
    elimination, so they change nothing and cost nothing."""

    def test_a_small_window_in_a_large_grid_holds_a_block_per_line(self):
        inside = np.zeros((1024, 1024), bool)
        inside[500:512, 300:312] = True
        c = np.full(inside.shape, 2.0)
        assert len(_LineBlocks(inside, c, c / 100.0)._inverses) == 12

    def test_lines_on_either_side_of_an_empty_line_are_not_coupled(self):
        # two 5x5 squares that touch only diagonally across row 5 and column 5
        rng = np.random.default_rng(5)
        f = gv.ScalarField.from_array(rng.random((11, 11)) * 100.0)
        inside = np.zeros((11, 11), bool)
        inside[:5, :5] = inside[6:, 6:] = True
        p = gv.GvfParams(g=0.9, h=0.2)
        got = gv.direct_steady_solve(f, p, gv.DomainMask(f.spec, inside)).values
        ref = spsolve_steady_state(f, p, inside)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=100, deadline=None)
    @given(problem=steady_problems(), pads=st.tuples(*[st.integers(0, 5)] * 4))
    def test_padded_domain_gives_the_same_bits(self, problem, pads):
        f, p, mask = problem
        top, bottom, left, right = pads
        widths = ((top, bottom), (left, right))
        inside = np.ones(f.spec.shape, bool) if mask is None else mask.inside
        # the edge-padded image keeps every central difference of f
        big_f = gv.ScalarField.from_array(np.pad(f.values, widths, mode="edge"))

        def pad(c):
            if not isinstance(c, gv.ScalarField):
                return c
            return gv.ScalarField(big_f.spec, np.pad(c.values, widths, mode="edge"))

        big_p = dataclasses.replace(p, g=pad(p.g), h=pad(p.h))
        big_mask = gv.DomainMask(big_f.spec, np.pad(inside, widths))
        out = gv.direct_steady_solve(f, p, mask).values
        big = gv.direct_steady_solve(big_f, big_p, big_mask).values
        window = (slice(None), slice(top, top + f.spec.height), slice(left, left + f.spec.width))
        assert np.array_equal(big[window].view(np.int64), out.view(np.int64))
        big[window] = 0.0
        assert not np.any(big)


class TestDirectSolveCrop:
    """direct_steady_solve works on the domain's bounding box grown by
    one pixel, so its cost follows the domain, with the full grid's bits."""

    def test_a_small_window_in_a_large_grid_peaks_near_its_output(self):
        rng = np.random.default_rng(7)
        f = gv.ScalarField.from_array(rng.random((1024, 1024)) * 100.0)
        inside = np.zeros(f.spec.shape, bool)
        inside[500:512, 300:312] = True
        mask = gv.DomainMask(f.spec, inside)
        # the output alone is 2 full-grid arrays
        peak = traced_peak(lambda: gv.direct_steady_solve(f, gv.GvfParams(), mask), f.spec)
        assert peak <= 2.5

    @settings(max_examples=100, deadline=None)
    @given(stencil_domains(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_equals_the_uncropped_bits(self, domain, per_pixel, seed):
        spec, mask, _ = domain
        rng = np.random.default_rng(seed)
        f = gv.ScalarField(spec, rng.random(spec.shape) * 100.0)
        p = gv.GvfParams(g=0.9, h=0.2, cap=30.0)
        if per_pixel:
            p = gv.GvfParams(g=gv.ScalarField(spec, rng.uniform(0.1, 2.0, spec.shape)),
                             h=gv.ScalarField(spec, rng.uniform(0.01, 1.0, spec.shape)))
        out = gv.direct_steady_solve(f, p, mask).values
        whole = (slice(None), slice(None))
        with mock.patch("gvflow.solver._bounding_box", lambda inside: whole):
            ref = gv.direct_steady_solve(f, p, mask).values
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))


class TestSolveCrop:
    """The explicit solve works on the domain's bounding box grown by one
    pixel, as the oracles do, and writes its field back onto the grid:
    field, NI, outcome and histories are the full grid's to the bit."""

    @pytest.mark.parametrize("solve, budget", [
        (lambda f, m: gv.gvf_solve(f, gv.GvfParams(max_iter=50), m), 2.5),
        # the resolved pair on the full grid, g = 1 and h = 0 outside the box
        (lambda f, m: gv.ggvf_solve(f, gv.GgvfParams(max_iter=50), m), 4.5),
    ], ids=["gvf", "ggvf"])
    def test_a_small_window_in_a_large_grid_peaks_near_its_output(self, solve, budget):
        rng = np.random.default_rng(7)
        f = gv.ScalarField.from_array(rng.random((1024, 1024)) * 100.0)
        inside = np.zeros(f.spec.shape, bool)
        inside[500:512, 300:312] = True
        mask = gv.DomainMask(f.spec, inside)
        # the output field alone is 2 full-grid arrays
        assert traced_peak(lambda: solve(f, mask), f.spec) <= budget

    @settings(max_examples=100, deadline=None)
    @given(stencil_domains(), st.sampled_from(["scalar", "per-pixel", "ggvf"]),
           st.sampled_from([1e-300, 1e-2, 1.0]), st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_equals_the_uncropped_bits(self, domain, kind, delta, max_iter, seed):
        spec, mask, periodic = domain
        rng = np.random.default_rng(seed)
        f = gv.ScalarField(spec, rng.random(spec.shape) * 100.0)
        run = dict(delta=delta, max_iter=max_iter)
        if kind == "scalar":
            p = gv.GvfParams(g=0.9, h=0.2, cap=30.0, **run)
        elif kind == "per-pixel":
            p = gv.GvfParams(g=gv.ScalarField(spec, rng.uniform(0.5, 1.5, spec.shape)),
                             h=gv.ScalarField(spec, rng.uniform(0.01, 0.4, spec.shape)), **run)
        else:
            p = gv.GgvfParams(K=50.0, **run)
        solve = gv.ggvf_solve if kind == "ggvf" else gv.gvf_solve
        got = solve(f, p, mask, periodic)
        whole = (slice(None), slice(None))
        with mock.patch("gvflow.solver._bounding_box", lambda inside: whole):
            ref = solve(f, p, mask, periodic)
        assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
        pairs = [(got.field.values, ref.field.values),
                 (got.change_history, ref.change_history),
                 (got.energy_history, ref.energy_history)]
        if kind == "ggvf":
            pairs += [(got.params.g.values, ref.params.g.values),
                      (got.params.h.values, ref.params.h.values)]
        for a, b in pairs:
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSteadyResidualCrop:
    """steady_residual works on the domain's bounding box grown by one
    pixel, as the direct oracle does, with the full grid's bits."""

    @pytest.mark.parametrize("per_pixel", [False, True])
    def test_a_small_window_in_a_large_grid_traces_almost_nothing(self, per_pixel):
        rng = np.random.default_rng(7)
        f = gv.ScalarField.from_array(rng.random((1024, 1024)) * 100.0)
        v = gv.gradient_central(f)
        inside = np.zeros(f.spec.shape, bool)
        inside[500:512, 300:312] = True
        mask = gv.DomainMask(f.spec, inside)
        p = gv.GvfParams()
        if per_pixel:
            # checked for negatives on the whole grid, still without a temporary
            p = gv.GvfParams(g=gv.ScalarField(f.spec, rng.uniform(0.1, 2.0, f.spec.shape)),
                             h=gv.ScalarField(f.spec, rng.uniform(0.01, 1.0, f.spec.shape)))
        peak = traced_peak(lambda: gv.steady_residual(v, f, p, mask), f.spec)
        assert peak <= 0.05

    @settings(max_examples=100, deadline=None)
    @given(stencil_domains(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_equals_the_uncropped_bits(self, domain, per_pixel, seed):
        spec, mask, periodic = domain
        rng = np.random.default_rng(seed)
        f = gv.ScalarField(spec, rng.random(spec.shape) * 100.0)
        v = gv.VectorField(spec, rng.standard_normal((2,) + spec.shape) * 10.0)
        p = gv.GvfParams(g=0.9, h=0.2, cap=30.0)
        if per_pixel:
            p = gv.GvfParams(g=gv.ScalarField(spec, rng.uniform(0.1, 2.0, spec.shape)),
                             h=gv.ScalarField(spec, rng.uniform(0.01, 1.0, spec.shape)))
        got = gv.steady_residual(v, f, p, mask, periodic)
        whole = (slice(None), slice(None))
        with mock.patch("gvflow.solver._bounding_box", lambda inside: whole):
            ref = gv.steady_residual(v, f, p, mask, periodic)
        assert got.hex() == ref.hex()


def traced_peak(call, spec) -> float:
    """The peak of the memory that tracemalloc traces during call(), over
    what it traced at entry, in float64 arrays the size of grid spec."""
    tracemalloc.start()
    try:
        at_entry = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - at_entry) / (8 * spec.width * spec.height)
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """The explicit solve and steady_residual hold each full-size array
    once and make no full-size temporaries: their traced peaks at 256^2,
    in H x W float64 arrays.  A GGVF solve holds the field, its spare,
    the neighbor sum, three coefficients (two planes each) and g and h;
    a GVF solve with constant g and h on the full rectangle has one
    coefficient array, h*dt*grad_f.  A masked solve holds those on the
    domain's box, and the field written back onto the grid.  The source
    at an infinite cap is the gradient (two arrays), no copy."""

    @pytest.fixture(scope="class")
    def problem(self):
        f = gv.edge_map(synth_ushape(256, 256), sigma=1.0)
        mask = gv.DomainMask.from_rects(f.spec, (8, 8, 240, 240), (85, 85, 64, 64))
        return f, mask, gv.ggvf_solve(f, gv.GgvfParams(max_iter=3))

    @pytest.mark.parametrize("case, budget", [
        ("ggvf_solve", 15), ("ggvf_solve-masked", 15.5), ("gvf_solve", 9),
        ("gvf_solve-masked", 13.5), ("steady_residual", 9), ("masked_source", 3),
    ])
    def test_budget(self, problem, case, budget):
        f, mask, rep = problem
        p = gv.GvfParams(max_iter=3)
        call = {
            "ggvf_solve": lambda: gv.ggvf_solve(f, gv.GgvfParams(max_iter=3)),
            "ggvf_solve-masked": lambda: gv.ggvf_solve(f, gv.GgvfParams(max_iter=3), mask),
            "gvf_solve": lambda: gv.gvf_solve(f, p),
            "gvf_solve-masked": lambda: gv.gvf_solve(f, p, mask),
            # the per-pixel pair, as the CLI's GGVF residual
            "steady_residual": lambda: gv.steady_residual(rep.field, f, rep.params),
            "masked_source": lambda: _masked_source(f, math.inf, mask),
        }[case]
        assert traced_peak(call, f.spec) <= budget


class TestOracleWithoutScipy:
    def test_direct_solve_runs_with_scipy_blocked(self):
        # a None entry in sys.modules makes every import of scipy fail
        script = """
import sys
sys.modules["scipy"] = None
import numpy as np
import gvflow as gv
rng = np.random.default_rng(3)
f = gv.ScalarField.from_array(rng.random((20, 23)) * 50.0)
p = gv.GvfParams(g=0.9, h=0.2)
for mask in (None, gv.DomainMask.from_rects(f.spec, (1, 2, 20, 17), (6, 7, 5, 4))):
    out = gv.direct_steady_solve(f, p, mask)
    residual = gv.steady_residual(out, f, p, mask)
    if not residual < 1e-12:
        sys.exit(f"residual {residual}")
print("ok")
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(gv.__file__).resolve().parent.parent)]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "ok"
