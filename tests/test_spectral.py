"""Frequency-domain gain, spectral steady-state oracle, energy bound."""

import numpy as np
import pytest

import gvflow as gv
from gvflow.errors import ParameterError


class TestTransferGain:
    def test_dc_passes_unchanged(self):
        assert gv.transfer_gain(0.0, 0.0, 2.0, 0.02) == 1.0
        assert gv.transfer_gain(0.0, 0.0, 2.0, 0.02, discrete=True) == 1.0

    def test_reference_sigma(self):
        # g = 2.0, h = 0.02 puts the smoothing ratio at 100
        assert gv.transfer_gain(1.0, 0.0, 2.0, 0.02) == pytest.approx(1.0 / 101.0)

    def test_rejects_zero_h(self):
        with pytest.raises(ParameterError):
            gv.transfer_gain(0.1, 0.1, 1.0, 0.0)

    def test_ratio_past_the_float_range_names_g_and_h(self):
        with pytest.raises(ParameterError, match=r"g / h must be finite, got g=1e\+308 and h=1e-10"):
            gv.transfer_gain(0.0, 0.0, 1e308, 1e-10)

    def test_gain_below_the_smallest_float_reads_zero(self):
        # sigma * symbol overflows to inf: the gain underflows, silently
        w = np.array([0.0, np.pi])
        assert gv.transfer_gain(w, w, 1e308, 1.0, discrete=True).tolist() == [1.0, 0.0]

    def test_low_pass_property(self):
        ws = np.linspace(-np.pi, np.pi, 33)
        for discrete in (False, True):
            gains = np.array([
                [gv.transfer_gain(w1, w2, 1.5, 0.1, discrete=discrete) for w1 in ws]
                for w2 in ws
            ])
            assert np.all(gains > 0) and np.all(gains <= 1.0)
            assert (gains == 1.0).sum() == 1  # only the origin

    def test_discrete_matches_continuous_at_low_frequency(self):
        w = 1e-4
        c = gv.transfer_gain(w, w, 1.0, 0.1)
        d = gv.transfer_gain(w, w, 1.0, 0.1, discrete=True)
        assert c == pytest.approx(d, rel=1e-6)


class TestSpectralSteadyState:
    def test_zero_field(self):
        z = gv.VectorField.zeros(gv.GridSpec(8, 8))
        out = gv.spectral_steady_state(z, 1.0, 0.1)
        assert np.all(out.u.values == 0)

    def test_constant_field_unchanged(self):
        spec = gv.GridSpec(8, 8)
        c = gv.VectorField.from_arrays(np.full(spec.shape, 2.0), np.full(spec.shape, -1.0))
        out = gv.spectral_steady_state(c, 1.0, 0.1)
        assert np.allclose(out.u.values, 2.0, atol=1e-12)
        assert np.allclose(out.v.values, -1.0, atol=1e-12)

    def test_matches_periodic_explicit_solve(self):
        rng = np.random.default_rng(17)
        f = gv.ScalarField.from_array(rng.random((32, 32)))
        grad = gv.gradient_central(f)
        rep = gv.gvf_solve(
            f, gv.GvfParams(g=1.0, h=0.1, dt=0.12, delta=1e-12, max_iter=100000),
            periodic=True,
        )
        exact = gv.spectral_steady_state(grad, 1.0, 0.1)
        num = np.sqrt(((rep.field.u.values - exact.u.values) ** 2
                       + (rep.field.v.values - exact.v.values) ** 2).sum())
        den = np.sqrt((exact.u.values ** 2 + exact.v.values ** 2).sum())
        assert num / den < 1e-8

    def test_rejects_zero_h(self):
        z = gv.VectorField.zeros(gv.GridSpec(8, 8))
        with pytest.raises(ParameterError):
            gv.spectral_steady_state(z, 1.0, 0.0)

    def test_ratio_past_the_float_range_names_g_and_h(self):
        z = gv.VectorField.zeros(gv.GridSpec(8, 8))
        with pytest.raises(ParameterError, match="g / h must be finite"):
            gv.spectral_steady_state(z, 1e308, 1e-10)

    @pytest.mark.parametrize("w, h", [(12, 12), (40, 40), (64, 64), (17, 9)])
    def test_one_transform_of_both_planes_equals_one_per_component(self, w, h):
        # the (2, H, W) transform must give the per-component result bit for bit
        rng = np.random.default_rng(w * h)
        grad = gv.VectorField.from_arrays(rng.normal(size=(h, w)), rng.normal(size=(h, w)))
        out = gv.spectral_steady_state(grad, 0.7, 0.05)
        w1 = 2.0 * np.pi * np.fft.fftfreq(w)
        w2 = 2.0 * np.pi * np.fft.fftfreq(h)
        gain = gv.transfer_gain(w1[None, :], w2[:, None], 0.7, 0.05, discrete=True)
        for got, comp in ((out.u.values, grad.u.values), (out.v.values, grad.v.values)):
            ref = np.fft.ifft2(np.fft.fft2(comp) * gain).real
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


class TestParsevalEnergy:
    def test_zero_field(self):
        assert gv.parseval_energy(gv.VectorField.zeros(gv.GridSpec(8, 8))) == 0.0

    def test_single_pixel(self):
        field = gv.VectorField.zeros(gv.GridSpec(8, 8))
        field.u.values[3, 3] = 3.0
        field.v.values[3, 3] = 4.0
        assert gv.parseval_energy(field) == pytest.approx(25.0)

    def test_steady_state_never_gains_energy(self):
        rng = np.random.default_rng(19)
        for _ in range(6):
            grad = gv.VectorField.from_arrays(
                rng.uniform(-3, 3, (16, 16)), rng.uniform(-3, 3, (16, 16))
            )
            out = gv.spectral_steady_state(grad, float(rng.uniform(0.2, 2.0)), 0.1)
            assert gv.parseval_energy(out) <= gv.parseval_energy(grad) * (1 + 1e-9)
