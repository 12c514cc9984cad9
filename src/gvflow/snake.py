"""Closed snaxel contours driven by tensile and external field forces.

A snake is an ordered, implicitly closed list of N >= 4 sub-pixel
points.  Each evolution step applies, simultaneously to every snaxel,

    p_i  +=  step * (tensile_sign * b * B_i + gamma * F(p_i)),

where B_i = p_i - (p_{i-1} + p_{i+1})/2 is the tensile force and F is
the external force field sampled bilinearly.  As written, B_i points
away from the neighbor midpoint, so with a positive sign it inflates a
convex polygon; the classic smoothing behavior corresponds to
tensile_sign = -1, which is exposed but not the default.

Iteration stops once the largest snaxel displacement of a step falls
below eps (measured before any resampling).  Optional arc-length
resampling keeps snaxel spacing uniform so the tensile force stays
meaningful while the contour stretches.

A step is a short, fixed sequence of whole-array calls that allocates
nothing.  A workspace (_Workspace), built once per snaxel count, holds
every buffer and view a step touches; a resampling that keeps the count
keeps the workspace.  The contour lives in one of two rings of N + 2
(x, y) rows, used in turn: a step reads one and writes the other.  A
ring's two wrap rows repeat its last and first snaxel, so it gives both
neighbors of every snaxel for the tensile term and, after the update,
the segments for the spacing test and the resampling.  The points, the
neighbors and the step's own arrays are contiguous (N, 2) blocks, so
the elementwise calls on them run as one flat loop; a numpy call on a
strided two-row view costs about twice as much at a few hundred
snaxels.  One take of flat indices fetches the four bilinear corners of
every snaxel, u and v together (_Sampler).  Each clamp is a minimum and
a maximum against the upper corner (w-1, h-1).

The loop runs with numpy's overflow and invalid-value errors raised:
the field and the contour are finite, so a step's displacement is
non-finite exactly when one of its operations overflows or is invalid,
and that error becomes the DivergenceError of the step.

The arithmetic, its order included, is that of the per-snaxel formulas
above, so contours, step counts and displacement histories are
reproducible to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, GeometryError, ParameterError, check_count, check_real
from .grid import VectorField

# Floor used when normalizing field vectors to unit length.
_NORM_FLOOR = 1e-12

# The most snaxels resample_contour makes: 2**20, 16 MiB per coordinate
# array at (2, N) float64.
_MAX_RESAMPLED = 1 << 20


def _constant(x: float) -> np.ndarray:
    """x as a read-only 0-d float64 array, which a ufunc call takes
    faster than a Python float."""
    a = np.array(float(x))
    a.flags.writeable = False
    return a


_ZERO, _HALF, _ONE = _constant(0.0), _constant(0.5), _constant(1.0)


@dataclass
class Snake:
    """Closed contour of (x, y) snaxels, indices modulo N."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ParameterError("snake points must be an (N, 2) array")
        if pts.shape[0] < 4:
            raise ParameterError("a snake needs at least 4 snaxels")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("snake points contain NaN or Inf")
        self.points = pts

    @classmethod
    def circle(cls, cx: float, cy: float, r: float, n: int = 64) -> "Snake":
        if n < 4:
            raise ParameterError("a snake needs at least 4 snaxels")
        if r <= 0:
            raise ParameterError("circle radius must be > 0")
        t = 2.0 * np.pi * np.arange(n) / n
        return cls(np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t)]))

    def __len__(self) -> int:
        return len(self.points)

    def perimeter(self) -> float:
        seg = np.diff(np.vstack([self.points, self.points[:1]]), axis=0)
        return float(np.hypot(seg[:, 0], seg[:, 1]).sum())


@dataclass(frozen=True)
class SnakeParams:
    """Evolution coefficients; all uniform across snaxels.

    step is the evolution step size; resample_spacing = 0 disables
    resampling; normalize rescales the sampled force field to unit
    vectors before use.
    """

    b: float = 0.2
    gamma: float = 1.0
    step: float = 1.0
    eps: float = 0.01
    max_iter: int = 2000
    resample_spacing: float = 2.0
    normalize: bool = False
    tensile_sign: float = 1.0

    def __post_init__(self):
        for name in ("b", "gamma", "step", "eps", "resample_spacing"):
            check_real(name, getattr(self, name), above=name in ("step", "eps"))
        check_count("max_iter", self.max_iter)
        if self.tensile_sign not in (1.0, -1.0):
            raise ParameterError("tensile_sign must be +1 or -1")


@dataclass
class SnakeResult:
    snake: Snake
    iterations: int
    converged: bool
    displacement_history: np.ndarray


def tensile_force(s: Snake, i: int) -> tuple[float, float]:
    """B_i = p_i - (p_{i-1} + p_{i+1})/2, indices modulo N."""
    n = len(s)
    if not 0 <= i < n:
        raise ParameterError(f"snaxel index {i} out of range 0..{n - 1}")
    b = s.points[i] - 0.5 * (s.points[(i - 1) % n] + s.points[(i + 1) % n])
    return float(b[0]), float(b[1])


class _Sampler:
    """Bilinear samples of both field components at n points, with one
    gather, into buffers of its own.

    Points come as an (n, 2) array of (x, y) rows, as the contour holds
    them, and the samples go out as an (n, 2) array of (u, v) rows.  In
    between, the work runs along the n points: the field's values are
    viewed as a (2, H*W) array, and the four corners of every point, u
    and v together, come from one take of a (4, n) array of flat
    indices.  The lower corner is clamped to [0, w-2] x [0, h-2], so
    every index is in range and the take may clip.  The corners are
    weighted and summed in the order w00*c00 + w10*c10 + w01*c01 +
    w11*c11, with c10 one step along x; the sum starts from -0.0, which
    leaves every first term as it is.  The bounds are held at full size
    and the scalars as 0-d arrays: a ufunc call that broadcasts or
    converts a Python float costs more than the arithmetic at a few
    hundred points.
    """

    def __init__(self, field: VectorField, n: int):
        w, h = field.spec.width, field.spec.height
        self._hi = np.repeat([[w - 1.0, h - 1.0]], n, axis=0)
        self._base_hi = np.repeat(np.array([[w - 2, h - 2]], np.intp), n, axis=0)
        self._width = np.array(w, np.intp)
        self._uv = field.values.reshape(2, -1)
        self._corners = np.array([[0], [1], [w], [w + 1]], np.intp)
        self._base = np.empty((n, 2), np.intp)
        self._base_x, self._base_y = self._base.T
        self._row = np.empty(n, np.intp)
        self._index = np.empty((4, n), np.intp)
        # q[0] = (1 - fx, 1 - fy), q[1] = (fx, fy), per point;
        # w[ky, kx] = qy[ky] * qx[kx]
        q = np.empty((2, n, 2))
        self._cofrac, self._frac = q
        self._qy, self._qx = q[:, None, :, 1], q[None, :, :, 0]
        self._weights = np.empty((2, 2, n))
        self._weights4 = self._weights.reshape(4, n)
        self._terms = np.empty((2, 4, n))
        self._out = np.empty((n, 2))
        self._out_t = self._out.T

    def clamp(self, xy: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Points clamped to the pixel-center rectangle [0, w-1] x [0, h-1]."""
        np.minimum(xy, self._hi, out=out)
        return np.maximum(out, _ZERO, out=out)

    def __call__(self, xy: np.ndarray) -> np.ndarray:
        """(n, 2) clamped points in, (n, 2) samples (u, v) out, in a
        buffer that the next call overwrites."""
        base, terms = self._base, self._terms
        # truncation is floor on the clamped, nonnegative coordinates
        np.copyto(base, xy, casting="unsafe")
        np.minimum(base, self._base_hi, out=base)
        np.subtract(xy, base, self._frac)
        np.subtract(_ONE, self._frac, self._cofrac)
        np.multiply(self._qy, self._qx, self._weights)
        np.multiply(self._base_y, self._width, self._row)
        np.add(self._row, self._base_x, self._row)
        np.add(self._row, self._corners, self._index)
        self._uv.take(self._index, axis=1, mode="clip", out=terms)
        np.multiply(self._weights4, terms, terms)
        np.add.reduce(terms, axis=1, out=self._out_t, initial=-0.0)
        return self._out


def sample_field_bilinear(field: VectorField, x: float, y: float) -> tuple[float, float]:
    """Bilinear interpolation of the field at one sub-pixel position;
    a position outside the image is clamped onto it."""
    if math.isnan(x) or math.isnan(y):
        raise ParameterError(f"sample position must not be NaN, got ({x!r}, {y!r})")
    sample = _Sampler(field, 1)
    xy = np.array([[x, y]], dtype=float)
    (u, v), = sample(sample.clamp(xy, xy))
    return float(u), float(v)


def _unit_field(field: VectorField) -> VectorField:
    mag = field.magnitude()
    scale = 1.0 / np.maximum(mag, _NORM_FLOOR)
    scale[mag == 0.0] = 0.0
    return VectorField(field.spec, field.values * scale)


def resample_contour(s: Snake, spacing: float) -> Snake:
    """Redistribute snaxels at uniform arc length along the closed
    polyline, anchored at the current first point; the count is
    max(4, round(perimeter / spacing)), which may not pass 2**20."""
    if not spacing > 0:
        raise ParameterError("spacing must be > 0")
    ring = _Ring(len(s))
    np.copyto(ring.pts, s.points)
    ring.close()
    seg = ring.next - ring.pts
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    perimeter, count = _resample_count(seglen, spacing)
    # compared unrounded, as in snake_evolve, so that inf is caught too
    if not count < _MAX_RESAMPLED + 0.5:
        raise ParameterError(
            f"spacing {spacing:.6g} is too small for a contour of perimeter "
            f"{perimeter:.6g}: {count:.6g} snaxels, past the cap of {_MAX_RESAMPLED}")
    return Snake(_resample(ring.full, seg, seglen, perimeter, count))


def _resample_count(seglen: np.ndarray, spacing: float) -> tuple[float, float]:
    """Perimeter of a closed contour with these segment lengths, and
    perimeter / spacing, the unrounded snaxel count of its resampling
    at this spacing; inf where the division overflows."""
    perimeter = float(seglen.sum())
    if perimeter < 1e-9:
        raise GeometryError("contour has (near) zero perimeter")
    return perimeter, perimeter / spacing


def _resample(ring: np.ndarray, seg: np.ndarray, seglen: np.ndarray,
              perimeter: float, count: float) -> np.ndarray:
    """resample_contour on a closed ring (see _Ring), its (N, 2)
    segments, their lengths and their sum, for a finite unrounded count;
    returns the new (n_new, 2) points, n_new = max(4, round(count))."""
    n_new = max(4, int(round(count)))
    targets = perimeter * np.arange(n_new) / n_new
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seglen) - 1)
    denom = np.where(seglen[idx] > 0, seglen[idx], 1.0)
    frac = (targets - cum[idx]) / denom
    return ring[1 + idx] + seg[idx] * frac[:, None]


class _Ring:
    """A closed ring of n (x, y) points, held as the n + 2 rows p_{n-1},
    p_0 .. p_{n-1}, p_0, with the views a step reads bound once.  Rows i
    and i + 2 are the neighbors of p_i, and row i + 2 less row i + 1 is
    the segment leaving it.  The points, and both neighbors of every
    point, are contiguous blocks."""

    def __init__(self, n: int):
        full = np.empty((n + 2, 2))
        self.full = full
        self.pts = full[1:-1]
        self.prev = full[:-2]
        self.next = full[2:]
        # rows 0 and n + 1 repeat rows n and 1
        self._wraps = full[::n + 1]
        self._wrapped = full[n:0:-(n - 1)]

    def close(self) -> None:
        """Refresh the two wrap rows from the points."""
        np.copyto(self._wraps, self._wrapped)


class _Workspace:
    """Every buffer and view of a snake step at n snaxels.

    The contour lives in one of two rings, used in turn: a step reads
    the current ring and writes the next one.  The move of each snaxel
    and, when resampling is on, the segments of the new contour are
    written one after the other, so that one hypot gives both their
    lengths.  After a resampling, at holds the clamped points where the
    field is sampled at the next step.
    """

    def __init__(self, field: VectorField, n: int, resampling: bool):
        self.n = n
        self.sample = _Sampler(field, n)
        self.rings = (_Ring(n), _Ring(n))
        self.at = np.empty((n, 2))
        self._tens = np.empty((n, 2))
        self._disp = np.empty((n, 2))
        diff = np.empty((2 * n, 2))
        lengths = np.empty(2 * n)
        self._move, self.seg = diff[:n], diff[n:]
        self._moved, self.seglen = lengths[:n], lengths[n:]
        self._resampling = resampling
        span = 2 * n if resampling else n
        self._dx, self._dy = diff[:span].T
        self._lengths = lengths[:span]

    def advance(self, cur: _Ring, new: _Ring, at: np.ndarray, tension: np.ndarray,
                gamma: np.ndarray, step: np.ndarray) -> float:
        """Write into new the contour one step on from cur, whose clamped
        points are at, and return the largest snaxel move; refresh seg
        and seglen when resampling is on.  cur lies in the image
        rectangle (clamped, or interpolated between clamped points) and
        the clamp projects onto it, so no move is longer than its
        displacement."""
        tens, disp = self._tens, self._disp
        np.add(cur.prev, cur.next, tens)
        np.multiply(_HALF, tens, tens)
        np.subtract(cur.pts, tens, tens)
        np.multiply(tension, tens, tens)
        force = self.sample(at)
        np.multiply(gamma, force, force)
        np.add(tens, force, disp)
        np.multiply(step, disp, disp)
        np.add(cur.pts, disp, new.pts)
        self.sample.clamp(new.pts, new.pts)
        np.subtract(new.pts, cur.pts, self._move)
        new.close()
        if self._resampling:
            np.subtract(new.next, new.pts, self.seg)
        np.hypot(self._dx, self._dy, self._lengths)
        return float(np.maximum.reduce(self._moved))


def snake_evolve(s: Snake, field: VectorField, p: SnakeParams) -> SnakeResult:
    """Evolve until the largest per-step displacement drops below eps.

    Updates are simultaneous over snaxels; positions are clamped to the
    image rectangle so an inflating contour cannot escape the grid.
    Initial snaxels outside it are clamped onto it before the first
    step, so that clamp does not count as movement.

    A resampling may not raise the snaxel count past the field's pixel
    count (or the initial count, if larger): a contour that grows past
    it, such as an inflating one zig-zagging against the image border,
    raises DivergenceError instead of exhausting memory.  So does a step
    whose displacement overflows.
    """
    if p.normalize:
        field = _unit_field(field)
    max_snaxels = max(field.spec.width * field.spec.height, len(s))
    resampling = p.resample_spacing > 0
    ws = _Workspace(field, len(s), resampling)
    cur, spare = ws.rings
    # where the field is sampled; every updated point is clamped too
    at = ws.sample.clamp(s.points, cur.pts)
    cur.close()
    tension, gamma, step = map(_constant, (p.tensile_sign * p.b, p.gamma, p.step))
    history: list[float] = []
    converged = False
    iterations = 0
    # The field and the contour are finite, so a displacement is
    # non-finite exactly when an operation of its step overflows or is
    # invalid: trapping those is the divergence check.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for n in range(1, p.max_iter + 1):
                moved = ws.advance(cur, spare, at, tension, gamma, step)
                cur, spare = spare, cur
                at = cur.pts
                iterations = n
                history.append(moved)
                # deformation = applied movement; a border-pinned snaxel is settled
                if moved < p.eps:
                    converged = True
                    break
                if resampling and _spacing_drifted(ws.seglen, p.resample_spacing):
                    perimeter, count = _resample_count(ws.seglen, p.resample_spacing)
                    # compared unrounded, so that an overflow to inf is caught too
                    if not count < max_snaxels + 0.5:
                        raise DivergenceError(
                            f"resampling would grow the contour to {count:.6g} snaxels, "
                            f"past the cap of {max_snaxels}", n
                        )
                    xy = _resample(cur.full, ws.seg, ws.seglen, perimeter, count)
                    if len(xy) != ws.n:
                        ws = _Workspace(field, len(xy), resampling)
                        cur, spare = ws.rings
                    np.copyto(cur.pts, xy)
                    cur.close()
                    at = ws.sample.clamp(xy, ws.at)
    except FloatingPointError:
        raise DivergenceError("non-finite snaxel displacement", n) from None
    return SnakeResult(Snake(cur.pts.copy()), iterations, converged,
                       np.asarray(history))


def _spacing_drifted(seglen: np.ndarray, spacing: float) -> bool:
    """True once any segment length leaves [1/2, 2] times the target
    spacing.

    Resampling only on drift lets a settled contour reach equilibrium:
    redistributing every step would keep displacing snaxels tangentially
    and the termination test could never pass."""
    return bool(np.maximum.reduce(seglen) > 2.0 * spacing
                or np.minimum.reduce(seglen) < 0.5 * spacing)
