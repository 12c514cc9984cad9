"""Dense 2D scalar/vector grid primitives.

Scalar field values are float64 arrays of shape (height, width);
element [y, x] is the pixel in column x of row y, so the x axis runs
along array axis 1.  A vector field holds both components in one
(2, height, width) array, u (along x) first; its u and v are views of
the two planes.  Pixels are unit squares: the stencils use grid spacing
1 along both axes.  Square cells of side s pose the same discrete
problem with the diffusion coefficient g / s^2 in place of g, so no
spacing is carried.

Every stencil uses the mirrored-neighbor border rule: a neighbor that
would fall off the grid is replaced by the border pixel itself.  This
is the flux-free (zero normal derivative) discretization -- with it the
five-point Laplacian sums to zero over the whole grid.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, check_real

# Magnitudes within this relative band of the cap are left untouched so
# that clamping is exactly idempotent despite rounding.
_CLAMP_SLACK = 1e-12

# Bytes per cache line on x86; _aligned_zeros starts buffers on one.
_CACHE_LINE = 64


@dataclass(frozen=True)
class GridSpec:
    """Grid dimensions in unit pixels. Stencils need width, height >= 3."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 3 or self.height < 3:
            raise DimensionError(
                f"grid must be at least 3x3, got {self.width}x{self.height}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """Numpy array shape (rows, cols) = (height, width)."""
        return (self.height, self.width)


@dataclass
class ScalarField:
    """A real-valued function sampled on a GridSpec (image, edge map, ...)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.spec.shape:
            raise DimensionError(
                f"value array shape {v.shape} does not match grid {self.spec.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ParameterError("scalar field contains NaN or Inf")
        self.values = v

    @classmethod
    def zeros(cls, spec: GridSpec) -> "ScalarField":
        return cls(spec, np.zeros(spec.shape))

    @classmethod
    def from_array(cls, arr) -> "ScalarField":
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 2:
            raise DimensionError("expected a 2D array")
        return cls(GridSpec(a.shape[1], a.shape[0]), a)

    def copy(self) -> "ScalarField":
        return ScalarField(self.spec, self.values.copy())


@dataclass
class VectorField:
    """A vector function sampled on a GridSpec, both components in one
    float64 (2, H, W) array: values[0] is u, along x, and values[1] is
    v, along y.  u and v are ScalarField views of the two planes; a
    write through either is a write to values."""

    spec: GridSpec
    values: np.ndarray
    u: ScalarField = dataclasses.field(init=False, repr=False, compare=False)
    v: ScalarField = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        uv = np.asarray(self.values, dtype=np.float64)
        if uv.shape != (2,) + self.spec.shape:
            raise DimensionError(
                f"value array shape {uv.shape} does not match (2,) + grid {self.spec.shape}"
            )
        self.values = uv
        # each component checks its own values for NaN and Inf
        self.u, self.v = ScalarField(self.spec, uv[0]), ScalarField(self.spec, uv[1])

    @classmethod
    def zeros(cls, spec: GridSpec) -> "VectorField":
        return cls(spec, np.zeros((2,) + spec.shape))

    @classmethod
    def from_arrays(cls, u, v) -> "VectorField":
        """A field from two (H, W) component arrays, copied into one."""
        u, v = ScalarField.from_array(u), ScalarField.from_array(v)
        if u.spec != v.spec:
            raise DimensionError("vector components live on different grids")
        return cls(u.spec, np.stack([u.values, v.values]))

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.u.values, self.v.values)

    def copy(self) -> "VectorField":
        return VectorField(self.spec, self.values.copy())


def _constant(x: float) -> np.ndarray:
    """x as a read-only 0-d float64 array, which a ufunc call takes
    faster than a Python float."""
    a = np.array(float(x))
    a.flags.writeable = False
    return a


# --- the solver's stencil buffers ---------------------------------------------

def _aligned_zeros(shape: tuple[int, ...], lead: int = 0) -> np.ndarray:
    """Zero-filled, C-contiguous float64 array of the given shape whose
    flat element `lead` starts a 64-byte cache line.

    numpy aligns its buffers to 16 bytes only, so an array written in
    place from some flat offset on usually starts mid-line; a ufunc
    whose output is split across lines runs about half as fast.  The
    array is a view into a buffer 8 elements longer, sliced to line up.
    """
    n = math.prod(shape)
    raw = np.zeros(n + 8)
    addr = raw.__array_interface__["data"][0] + 8 * lead
    skip = (-addr % _CACHE_LINE) // 8
    return raw[skip:skip + n].reshape(shape)


# --- operators ----------------------------------------------------------------

def gradient_central(f: ScalarField) -> VectorField:
    """Central-difference gradient; mirrored neighbors at the borders.

    The differences are taken on slices of the array: inside, the pixels
    on either side; in a border row or column, the edge pixel stands in
    for its missing neighbor, so the operands, and the bits, are those of
    the edge-padded array's differences."""
    a = f.values
    uv = np.empty((2,) + f.spec.shape)
    u, v = uv
    np.subtract(a[:, 2:], a[:, :-2], out=u[:, 1:-1])
    np.subtract(a[:, 1:2], a[:, :1], out=u[:, :1])
    np.subtract(a[:, -1:], a[:, -2:-1], out=u[:, -1:])
    np.subtract(a[2:], a[:-2], out=v[1:-1])
    np.subtract(a[1:2], a[:1], out=v[:1])
    np.subtract(a[-1:], a[-2:-1], out=v[-1:])
    uv /= 2.0
    return VectorField(f.spec, uv)


def laplacian_5pt(f: ScalarField) -> ScalarField:
    """Five-point Laplacian nb_sum - 4*a, mirrored at the borders; the
    neighbor sum adds x+1, x-1, y+1, y-1, in that order, on the
    edge-padded array."""
    a = f.values
    p = np.pad(a, 1, mode="edge")
    nb = ((p[1:-1, 2:] + p[1:-1, :-2]) + p[2:, 1:-1]) + p[:-2, 1:-1]
    return ScalarField(f.spec, nb - 4.0 * a)


def _symmetric_pass(padded: np.ndarray, kernel: np.ndarray, step: int) -> np.ndarray:
    """One pass of an odd, symmetric kernel of radius r over a contiguous
    padded array, along the axis whose elements lie step apart in memory.

    The arithmetic is that of scipy.ndimage's symmetric-kernel loop:
    out = a[x] * k[r], then for j = r, r-1, ..., 1 (outermost pair
    first) out += (a[x-j] + a[x+j]) * k[r-j].  Each term is one
    contiguous pass over the flattened buffer: a shift of j along the
    axis is an offset of j*step.  The result has the padded shape; only
    the entries at least r*step from both ends of the flattened buffer
    are meaningful.
    """
    r = kernel.size // 2
    flat = padded.reshape(-1)
    out = np.empty_like(padded)
    lo, hi = r * step, flat.size - r * step
    o = out.reshape(-1)[lo:hi]
    np.multiply(flat[lo:hi], kernel[r], out=o)
    pair = np.empty_like(o)
    for j in range(r, 0, -1):
        np.add(flat[lo - j * step:hi - j * step], flat[lo + j * step:hi + j * step], out=pair)
        pair *= kernel[r - j]
        o += pair
    return out


def gaussian_smooth(f: ScalarField, sigma: float) -> ScalarField:
    """Gaussian blur with a truncated kernel of radius r = ceil(3*sigma).

    The kernel is renormalized to sum to one; sigma = 0 is the identity.
    Border handling replicates edge pixels, consistent with the mirrored
    stencils above.  The radius may not exceed the image's larger side or
    64, whichever is larger: a wider kernel only adds copies of the edge
    pixels, at a cost that grows with the square of the radius.  The blur is separable: a pass along y (axis 0),
    then one along x.  Each pass computes, per pixel,
    a[x]*k[r] + (a[x-r] + a[x+r])*k[0] + ... + (a[x-1] + a[x+1])*k[r-1],
    accumulated left to right, so the result equals two calls of
    scipy.ndimage.convolve1d(mode="nearest") to the last bit.
    """
    sigma = check_real("sigma", sigma)
    if sigma == 0:
        return f.copy()
    limit = max(f.spec.width, f.spec.height, 64)
    if 3.0 * sigma > limit:
        raise ParameterError(
            f"sigma {sigma:g} gives a blur radius above {limit}, the larger of the "
            f"image's sides and 64")
    return ScalarField(f.spec, _gaussian_blur(f.values, sigma))


def _gaussian_blur(a: np.ndarray, sigma: float) -> np.ndarray:
    """gaussian_smooth on a bare (H, W) array, for sigma > 0.

    The array is edge-padded by r on both axes once, by np.pad.  A
    padding column is a copy of a border column, so
    after the pass along y it holds that column's result: exactly the
    edge padding the pass along x needs.
    """
    r = int(math.ceil(3.0 * sigma))
    xs = np.arange(-r, r + 1, dtype=np.float64)
    # below sigma ~ 1e-154, (xs / sigma)**2 overflows to inf away from
    # the center and exp gives 0 there: the impulse kernel, as it should
    with np.errstate(over="ignore"):
        kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()
    h, w = a.shape
    padded = np.pad(a, r, mode="edge")
    along_y = _symmetric_pass(padded, kernel, step=w + 2 * r)[r:r + h]
    return np.ascontiguousarray(_symmetric_pass(along_y, kernel, step=1)[:, r:r + w])


def edge_map(image: ScalarField, sigma: float = 0.0, sign: str = "attractive") -> ScalarField:
    """Squared gradient magnitude of the (optionally smoothed) image.

    sign="attractive" returns +|grad I|^2, whose gradient points toward
    edges -- the convention needed when the result seeds a diffused
    external force.  sign="potential" returns -|grad I|^2, the snake
    potential convention.
    """
    if sign not in ("attractive", "potential"):
        raise ParameterError(f"unknown edge map sign {sign!r}")
    smoothed = gaussian_smooth(image, sigma)
    g = gradient_central(smoothed)
    e = g.u.values ** 2 + g.v.values ** 2
    if sign == "potential":
        e = -e
    return ScalarField(image.spec, e)


def clamp_magnitude(field: VectorField, cap: float) -> VectorField:
    """Rescale pixel vectors longer than cap down to magnitude cap.

    Direction is preserved; an infinite cap returns field itself, not a
    copy.  Vectors within one part in 1e12 of the cap are left alone,
    which makes the operation exactly idempotent.
    """
    if math.isinf(check_real("cap", cap, above=True, inf=True)):
        return field
    mag = field.magnitude()
    over = mag > cap * (1.0 + _CLAMP_SLACK)
    scale = np.ones_like(mag)
    scale[over] = cap / mag[over]
    return VectorField(field.spec, field.values * scale)
