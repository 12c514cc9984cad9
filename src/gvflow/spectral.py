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

import math

import numpy as np

from .errors import ParameterError, check_real
from .grid import VectorField


def _stencil_symbol(w1, w2):
    """4 - 2 cos w1 - 2 cos w2: the eigenvalue of minus the five-point
    Laplacian (unit pixels) on the mode of angular frequency (w1, w2)."""
    return 4.0 - 2.0 * np.cos(w1) - 2.0 * np.cos(w2)


def transfer_gain(w1, w2, g: float, h: float, discrete: bool = False):
    """Steady-state gain at angular frequency (w1, w2), radians/sample.

    discrete=False evaluates the continuous-operator form; discrete=True
    the exact gain of the five-point stencil.  w1 and w2 may be numbers
    or arrays that broadcast together.  Requires finite g >= 0 and
    h > 0 (the gain is undefined for a pure-diffusion steady state),
    whose ratio g/h is finite.  Where sigma * symbol overflows, the gain
    is below the smallest float and reads 0.
    """
    sigma = check_real("g", g) / check_real("h", h, above=True)
    if sigma == math.inf:
        raise ParameterError(f"g / h must be finite, got g={g!r} and h={h!r}")
    if discrete:
        sym = _stencil_symbol(w1, w2)
    else:
        sym = w1 * w1 + w2 * w2
    with np.errstate(over="ignore"):
        return 1.0 / (sigma * sym + 1.0)


def spectral_steady_state(grad_f: VectorField, g: float, h: float) -> VectorField:
    """Exact steady state of the periodic-border scheme via the DFT.

    Transforms both components, multiplies by the discrete gain at the
    grid frequencies w = 2*pi*k/N, and inverts.  Constant coefficients
    and the full rectangle only; this backs the spectral oracle.  The
    checks on g and h are those of transfer_gain.
    """
    spec = grad_f.spec
    w1 = 2.0 * np.pi * np.fft.fftfreq(spec.width)
    w2 = 2.0 * np.pi * np.fft.fftfreq(spec.height)
    gain = transfer_gain(w1[None, :], w2[:, None], g, h, discrete=True)
    # fft2 transforms the last two axes: one call serves both planes
    return VectorField(spec, np.fft.ifft2(np.fft.fft2(grad_f.values) * gain).real)


def parseval_energy(field: VectorField) -> float:
    """Squared L2 norm, the sum of u^2 + v^2 over the pixels."""
    return float((field.u.values**2 + field.v.values**2).sum())
