"""Frequency-domain characterization of the diffusion-reaction steady state.

With constant coefficients every closed form in gvflow scales each mode
of the source by a gain, and one private transform (_modal_filter)
computes them all: under periodic borders the modes are the grid's DFT,
and the mirror rule is the periodic rule on the 2H x 2W even extension,
cropped back to the grid.  The five-point stencil's steady-state gain,
1 / ((g/h)(4 - 2 cos w1 - 2 cos w2) + 1) for unit pixels, tends at low
frequency to Xu & Prince's continuous form 1 / ((g/h)(w1^2 + w2^2) + 1).
It is exact for the implemented stencil, so the filtered source is an
oracle independent of the solver.  The gain never exceeds one, which
bounds the steady state's energy by the source energy (Parseval).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, check_real
from .grid import VectorField


def _stencil_symbol(w1, w2):
    """4 - 2 cos w1 - 2 cos w2: the eigenvalue of minus the five-point
    Laplacian (unit pixels) on the mode of angular frequency (w1, w2)."""
    return 4.0 - 2.0 * np.cos(w1) - 2.0 * np.cos(w2)


def _modal_filter(values: np.ndarray, periodic: bool, gain) -> np.ndarray:
    """Scale each mode of a (2, H, W) array by gain(w1, w2), the angular
    frequencies along x and y, and transform back.  The gain, and so its
    checks, runs before the transform.  periodic=False is the mirror rule.
    """
    hh, ww = values.shape[1:]
    if not periodic:
        values = np.pad(values, ((0, 0), (0, hh), (0, ww)), mode="symmetric")
    w1 = 2.0 * np.pi * np.fft.fftfreq(values.shape[2])
    w2 = 2.0 * np.pi * np.fft.fftfreq(values.shape[1])
    gains = gain(w1[None, :], w2[:, None])
    # fft2 transforms the last two axes: one call serves both planes
    return np.fft.ifft2(np.fft.fft2(values) * gains).real[:, :hh, :ww]


def transfer_gain(w1, w2, g: float, h: float):
    """Exact steady-state gain 1 / ((g/h) * symbol + 1) of the five-point
    stencil at angular frequency (w1, w2), radians/sample; its limit at
    low frequency is the continuous form 1 / ((g/h)(w1^2 + w2^2) + 1).

    w1 and w2 may be numbers or arrays that broadcast together.
    Requires finite g >= 0 and h > 0 (the gain is undefined for a
    pure-diffusion steady state), whose ratio g/h is finite.  Where
    sigma * symbol overflows, the gain is below the smallest float and
    reads 0.
    """
    sigma = check_real("g", g) / check_real("h", h, above=True)
    if sigma == math.inf:
        raise ParameterError(f"g / h must be finite, got g={g!r} and h={h!r}")
    with np.errstate(over="ignore"):
        return 1.0 / (sigma * _stencil_symbol(w1, w2) + 1.0)


def spectral_steady_state(grad_f: VectorField, g: float, h: float) -> VectorField:
    """Exact steady state of the periodic-border scheme via the DFT.

    Filters both components with transfer_gain at the grid frequencies
    w = 2*pi*k/N.  Constant coefficients and the full rectangle only;
    this backs the spectral oracle.  The checks on g and h are those of
    transfer_gain, and they run before the transform.
    """
    return VectorField(grad_f.spec, _modal_filter(
        grad_f.values, True, lambda w1, w2: transfer_gain(w1, w2, g, h)))


def parseval_energy(field: VectorField) -> float:
    """Squared L2 norm, the sum of u^2 + v^2 over the pixels."""
    return float((field.u.values**2 + field.v.values**2).sum())
