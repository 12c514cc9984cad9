"""Dense 2D scalar/vector grid primitives.

Field values are float64 arrays of shape (height, width); element
[y, x] is the pixel in column x of row y, so the x axis runs along
array axis 1.  Pixels are unit squares: the stencils use grid spacing
1 along both axes.  Square cells of side s pose the same discrete
problem with the diffusion coefficient g / s^2 in place of g, so no
spacing is carried.

Every stencil uses the mirrored-neighbor border rule: a neighbor that
would fall off the grid is replaced by the border pixel itself.  This
is the flux-free (zero normal derivative) discretization -- with it the
five-point Laplacian sums to zero over the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

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
    """Pair of component ScalarFields on one grid: u along x, v along y."""

    u: ScalarField
    v: ScalarField

    def __post_init__(self):
        if self.u.spec != self.v.spec:
            raise DimensionError("vector components live on different grids")

    @property
    def spec(self) -> GridSpec:
        return self.u.spec

    @classmethod
    def zeros(cls, spec: GridSpec) -> "VectorField":
        return cls(ScalarField.zeros(spec), ScalarField.zeros(spec))

    @classmethod
    def from_arrays(cls, u, v) -> "VectorField":
        return cls(ScalarField.from_array(u), ScalarField.from_array(v))

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.u.values, self.v.values)

    def copy(self) -> "VectorField":
        return VectorField(self.u.copy(), self.v.copy())


# --- the five-point neighbor sum -----------------------------------------------

def _border_views(padded: np.ndarray, periodic: bool) -> list:
    """(destination, source) view pairs that refresh the one-pixel border
    of a (..., H+2, W+2) padded buffer; copy each source onto its
    destination after every change of the interior.

    Edge values implement the mirror rule (an off-grid neighbor is the
    border pixel itself); wrapped values implement periodic borders.
    Corners are never read by the stencils and are left alone.
    """
    first, last = (-2, 1) if periodic else (1, -2)
    return [
        (padded[..., 1:-1, 0], padded[..., 1:-1, first]),
        (padded[..., 1:-1, -1], padded[..., 1:-1, last]),
        (padded[..., 0, 1:-1], padded[..., first, 1:-1]),
        (padded[..., -1, 1:-1], padded[..., last, 1:-1]),
    ]


def _pad_border(a: np.ndarray) -> np.ndarray:
    """Copy of a (..., H, W) array inside a (..., H+2, W+2) buffer with
    a mirror-rule border and zero corners."""
    out = np.zeros(a.shape[:-2] + (a.shape[-2] + 2, a.shape[-1] + 2))
    out[..., 1:-1, 1:-1] = a
    for dst, src in _border_views(out, periodic=False):
        np.copyto(dst, src)
    return out


def _span(padded: np.ndarray) -> slice:
    """The stretch of a flattened (..., H+2, W+2) padded buffer from its
    first interior pixel to its last, border cells in between included."""
    wp = padded.shape[-1]
    return slice(wp + 1, padded.size - wp - 1)


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


def _neighbor_offsets(wp: int) -> tuple[int, int, int, int]:
    """Flat offsets of the x+1, x-1, y+1, y-1 neighbors in a buffer whose
    rows are wp elements long: the one order every neighbor sum adds."""
    return (1, -1, wp, -wp)


def _neighbor_terms(padded: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four shifted views, in _neighbor_offsets order, of the span of
    a contiguous padded (..., H+2, W+2) buffer: element k of each view is
    that neighbor of span element k."""
    flat = padded.reshape(-1)
    span = _span(padded)
    lo, hi = span.start, span.stop
    return tuple(flat[lo + d:hi + d] for d in _neighbor_offsets(padded.shape[-1]))


def _sum_terms(terms, out: np.ndarray) -> np.ndarray:
    """out = ((t0 + t1) + t2) + t3, left to right."""
    t0, t1, t2, t3 = terms
    np.add(t0, t1, out=out)
    np.add(out, t2, out=out)
    np.add(out, t3, out=out)
    return out


def _neighbor_sum(padded: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Four-neighbor sums of the interior pixels of a contiguous padded
    (..., H+2, W+2) buffer whose border is already filled.

    The terms are added in the order x+1, x-1, y+1, y-1.  The result has
    the padded shape and only its interior is meaningful.  The sum runs
    over the flattened buffer, one contiguous pass per term: offsets of
    +-1 and +-(W+2) address the four neighbors, and the border cells in
    between are computed too and simply ignored.
    """
    if out is None:
        out = np.zeros_like(padded)
    _sum_terms(_neighbor_terms(padded), out.reshape(-1)[_span(padded)])
    return out


# --- operators ----------------------------------------------------------------

def gradient_central(f: ScalarField) -> VectorField:
    """Central-difference gradient; mirrored neighbors at the borders."""
    p = _pad_border(f.values)
    u = (p[1:-1, 2:] - p[1:-1, :-2]) / 2.0
    v = (p[2:, 1:-1] - p[:-2, 1:-1]) / 2.0
    return VectorField(ScalarField(f.spec, u), ScalarField(f.spec, v))


def laplacian_5pt(f: ScalarField) -> ScalarField:
    """Five-point Laplacian nb_sum - 4*a, mirrored at the borders."""
    a = f.values
    nb = _neighbor_sum(_pad_border(a))[1:-1, 1:-1]
    return ScalarField(f.spec, nb - 4.0 * a)


def _symmetric_pass(padded: np.ndarray, kernel: np.ndarray, step: int) -> np.ndarray:
    """One pass of an odd, symmetric kernel of radius r over a contiguous
    padded array, along the axis whose elements lie step apart in memory.

    The arithmetic is that of scipy.ndimage's symmetric-kernel loop:
    out = a[x] * k[r], then for j = r, r-1, ..., 1 (outermost pair
    first) out += (a[x-j] + a[x+j]) * k[r-j].  As in _neighbor_sum, each
    term is one contiguous pass over the flattened buffer: a shift of j
    along the axis is an offset of j*step.  The result has the padded
    shape; only the entries at least r*step from both ends of the
    flattened buffer are meaningful.
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
    if not 0 <= sigma < math.inf:
        raise ParameterError(f"sigma must be finite and >= 0, got {sigma!r}")
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

    The array is edge-padded by r on both axes once.  A padding column
    is a copy of a border column, so after the pass along y it holds
    that column's result: exactly the edge padding the pass along x
    needs.
    """
    r = int(math.ceil(3.0 * sigma))
    xs = np.arange(-r, r + 1, dtype=np.float64)
    # below sigma ~ 1e-154, (xs / sigma)**2 overflows to inf away from
    # the center and exp gives 0 there: the impulse kernel, as it should
    with np.errstate(over="ignore"):
        kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()
    h, w = a.shape
    rows = np.clip(np.arange(-r, h + r), 0, h - 1)
    cols = np.clip(np.arange(-r, w + r), 0, w - 1)
    padded = a.take(rows, axis=0).take(cols, axis=1)
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

    Direction is preserved; an infinite cap is the identity.  Vectors
    within one part in 1e12 of the cap are left alone, which makes the
    operation exactly idempotent.
    """
    if not cap > 0:
        raise ParameterError("magnitude cap must be > 0")
    if math.isinf(cap):
        return field.copy()
    mag = field.magnitude()
    over = mag > cap * (1.0 + _CLAMP_SLACK)
    scale = np.ones_like(mag)
    scale[over] = cap / mag[over]
    return VectorField(
        ScalarField(field.spec, field.u.values * scale),
        ScalarField(field.spec, field.v.values * scale),
    )
