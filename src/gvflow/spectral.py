"""Frequency-domain characterization of the diffusion-reaction steady state.

For constant coefficients on a periodic grid the steady state is a
low-pass filter applied to the source field: per frequency bin,

    V(w1, w2) = F(w1, w2) * H(w1, w2),

with the continuous-operator gain H = 1 / ((g/h)(w1^2 + w2^2) + 1) and
its discrete counterpart obtained by substituting the five-point
stencil's symbol 4 - 2 cos w1 - 2 cos w2 (unit pixels) for w1^2 + w2^2.
The discrete gain is exact for the implemented stencil, so the inverse
transform of the filtered spectrum is a second, independent oracle for
the periodic-border solver.  The gain never exceeds one, which bounds
the steady state's energy by the source energy (Parseval).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .grid import ScalarField, VectorField


def transfer_gain(w1, w2, g: float, h: float, discrete: bool = False):
    """Steady-state gain at angular frequency (w1, w2), radians/sample.

    discrete=False evaluates the continuous-operator form; discrete=True
    the exact gain of the five-point stencil.  w1 and w2 may be numbers
    or arrays that broadcast together.  Requires h > 0 (the gain is
    undefined for a pure-diffusion steady state).
    """
    if not h > 0:
        raise ParameterError("the steady-state gain requires h > 0")
    if g < 0:
        raise ParameterError("g must be >= 0")
    sigma = g / h
    if discrete:
        sym = 4.0 - 2.0 * np.cos(w1) - 2.0 * np.cos(w2)
    else:
        sym = w1 * w1 + w2 * w2
    return 1.0 / (sigma * sym + 1.0)


def spectral_steady_state(grad_f: VectorField, g: float, h: float) -> VectorField:
    """Exact steady state of the periodic-border scheme via the DFT.

    Transforms each component, multiplies by the discrete gain at the
    grid frequencies w = 2*pi*k/N, and inverts.  Constant coefficients
    and the full rectangle only; this backs the spectral oracle.  The
    checks on g and h are those of transfer_gain.
    """
    spec = grad_f.spec
    w1 = 2.0 * np.pi * np.fft.fftfreq(spec.width)
    w2 = 2.0 * np.pi * np.fft.fftfreq(spec.height)
    gain = transfer_gain(w1[None, :], w2[:, None], g, h, discrete=True)
    out = []
    for comp in (grad_f.u.values, grad_f.v.values):
        filt = np.fft.ifft2(np.fft.fft2(comp) * gain)
        out.append(filt.real)
    return VectorField(ScalarField(spec, out[0]), ScalarField(spec, out[1]))


def parseval_energy(field: VectorField) -> float:
    """Squared L2 norm, the sum of u^2 + v^2 over the pixels."""
    return float((field.u.values**2 + field.v.values**2).sum())
