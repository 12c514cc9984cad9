"""Frequency-domain characterization of the diffusion-reaction steady state.

For constant coefficients on a periodic grid the steady state is a
low-pass filter applied to the source field: per frequency bin,

    V(w1, w2) = F(w1, w2) * H(w1, w2),

with the continuous-operator gain H = 1 / ((g/h)(w1^2 + w2^2) + 1) and
its discrete counterpart obtained by substituting the five-point
stencil's symbol (4 - 2 cos w1 - 2 cos w2) / (dx*dy) for w1^2 + w2^2.
The discrete gain is exact for the implemented stencil, so the inverse
transform of the filtered spectrum is a second, independent oracle for
the periodic-border solver.  The gain never exceeds one, which bounds
the steady state's energy by the source energy (Parseval).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .grid import ScalarField, VectorField


def transfer_gain(
    w1: float,
    w2: float,
    g: float,
    h: float,
    discrete: bool = False,
    dx: float = 1.0,
    dy: float = 1.0,
) -> float:
    """Steady-state gain at angular frequency (w1, w2), radians/sample.

    discrete=False evaluates the continuous-operator form; discrete=True
    the exact gain of the five-point stencil.  Requires h > 0 (the gain
    is undefined for a pure-diffusion steady state).
    """
    if not h > 0:
        raise ParameterError("transfer gain requires h > 0")
    if g < 0:
        raise ParameterError("g must be >= 0")
    sigma = g / h
    if discrete:
        sym = (4.0 - 2.0 * math.cos(w1) - 2.0 * math.cos(w2)) / (dx * dy)
    else:
        sym = w1 * w1 + w2 * w2
    return 1.0 / (sigma * sym + 1.0)


def spectral_steady_state(grad_f: VectorField, g: float, h: float) -> VectorField:
    """Exact steady state of the periodic-border scheme via the DFT.

    Transforms each component, multiplies by the discrete gain at the
    grid frequencies w = 2*pi*k/N, and inverts.  Constant coefficients
    and the full rectangle only; this backs the spectral oracle.
    """
    if not h > 0:
        raise ParameterError("spectral steady state requires h > 0")
    if g < 0:
        raise ParameterError("g must be >= 0")
    spec = grad_f.spec
    w1 = 2.0 * np.pi * np.fft.fftfreq(spec.width)
    w2 = 2.0 * np.pi * np.fft.fftfreq(spec.height)
    sym = (4.0 - 2.0 * np.cos(w1)[None, :] - 2.0 * np.cos(w2)[:, None]) / spec.cell_area
    gain = 1.0 / ((g / h) * sym + 1.0)
    out = []
    for comp in (grad_f.u.values, grad_f.v.values):
        filt = np.fft.ifft2(np.fft.fft2(comp) * gain)
        out.append(filt.real)
    return VectorField(ScalarField(spec, out[0]), ScalarField(spec, out[1]))


def parseval_energy(field: VectorField) -> float:
    """Cell-area-weighted squared L2 norm, sum of (u^2 + v^2) * dx * dy."""
    return float(
        (field.u.values**2 + field.v.values**2).sum() * field.spec.cell_area
    )
