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
meaningful while the contour stretches; a contour due for resampling
whose perimeter has shrunk below 1e-9 stops the run as collapsed.

A step is a short sequence of whole-array calls, the same at every step
of a run, and makes no arrays.  A workspace (_Workspace), built once per
snaxel count, owns the contour and every buffer and view a step
touches, and its generator (_Workspace.steps) binds them all as it
starts, so that a step makes the numpy calls of its arithmetic and no
attribute lookup or call of a Python method.  A resampling that keeps
the count writes into the workspace's own buffers and loads the result
into the same workspace, and a new generator steps from it.
The contour lives in one of two rings of N + 2 (x, y) rows, used in
turn: a step reads one and writes the other.  A ring's two wrap rows
repeat its last and first snaxel, so it gives both neighbors of every
snaxel for the tensile term and, after the update, the segments for the
spacing test and the resampling.  The points, the neighbors and the
step's own arrays are contiguous (N, 2) blocks, so the elementwise
calls on them run as one flat loop; a numpy call on a strided two-row
view costs about twice as much at a few hundred snaxels.  One take of
flat indices fetches the four bilinear corners of every snaxel, u and v
together (_bilinear); the lower corner is found in float, truncated and
lowered to (w-2, h-2), and cast to an index once.  Each clamp is a
minimum against the upper corner (w-1, h-1) and a maximum against 0.
One hypot gives the length of every move and of every new segment, and
one maximum.reduceat the largest of each, for the stop test and the
upper spacing bound; the shortest segment is looked for, by argmin,
only when the run resamples, the contour has not settled and no
segment is too long.  A step is 27 numpy calls.  numpy's iterator
still takes a buffer of its own, and returns it, for each call that
broadcasts one operand against another.

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

from .errors import (
    DivergenceError,
    GeometryError,
    ParameterError,
    check_count,
    check_real,
    is_integer,
)
from .grid import VectorField, _constant

# Floor used when normalizing field vectors to unit length.
_NORM_FLOOR = 1e-12

# The most snaxels resample_contour makes: 2**20, 16 MiB per coordinate
# array at (2, N) float64.
_MAX_RESAMPLED = 1 << 20

# The least perimeter a contour is resampled at; below it, it has collapsed.
_MIN_PERIMETER = 1e-9


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
        if not is_integer(n):
            raise ParameterError(f"circle snaxel count n must be an integer, got {n!r}")
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
    collapsed: bool = False


def tensile_force(s: Snake, i: int) -> tuple[float, float]:
    """B_i = p_i - (p_{i-1} + p_{i+1})/2, indices modulo N."""
    n = len(s)
    if not 0 <= i < n:
        raise ParameterError(f"snaxel index {i} out of range 0..{n - 1}")
    b = s.points[i] - 0.5 * (s.points[(i - 1) % n] + s.points[(i + 1) % n])
    return float(b[0]), float(b[1])


def _bilinear(field: VectorField, n: int):
    """sample(xy): bilinear samples of both field components at n points
    of the image rectangle, with one gather, into a buffer of its own
    that the next call overwrites.

    Points come as an (n, 2) array of (x, y) rows, as the contour holds
    them, and the samples go out as an (n, 2) array of (u, v) rows.  In
    between, the work runs along the n points: the field's values are
    viewed as a (2, H*W) array, and the four corners of every point, u
    and v together, come from one take of a (4, n) array of flat
    indices.  The lower corner is found in float: the truncated point,
    lowered to (w-2, h-2) where it is above, so every index is in range
    and the take may clip.  Its flat index is worked out in float too,
    exactly, and cast to intp once, as the four corners are added to it.
    On a clamped point the truncation gives the fractions that a cast of
    the point to an integer gives, signed zeros included: the two differ
    only at -0.0, which the clamp's maximum against 0.0 turns into 0.0.
    The corners are weighted and summed in the order
    w00*c00 + w10*c10 + w01*c01 + w11*c11, with c10 one step along x;
    the sum starts from -0.0, which leaves every first term as it is.
    The bounds are held at full size and the scalars as 0-d arrays: a
    ufunc call that broadcasts or converts a Python float costs more
    than the arithmetic at a few hundred points.
    """
    w, h = field.spec.width, field.spec.height
    base_hi = np.repeat([[w - 2.0, h - 2.0]], n, axis=0)
    width, one = _constant(w), _ONE
    corners = np.array([[0.0], [1.0], [w], [w + 1.0]])
    take = field.values.reshape(2, -1).take
    base = np.empty((n, 2))
    base_x, base_y = base.T
    row = np.empty(n)
    index = np.empty((4, n), np.intp)
    # q[0] = (1 - fx, 1 - fy), q[1] = (fx, fy), per point;
    # w[ky, kx] = qy[ky] * qx[kx]
    q = np.empty((2, n, 2))
    cofrac, frac = q
    qy, qx = q[:, None, :, 1], q[None, :, :, 0]
    weights = np.empty((2, 2, n))
    weights4 = weights.reshape(4, n)
    terms = np.empty((2, 4, n))
    out = np.empty((n, 2))
    out_t = out.T
    trunc, minimum, subtract, multiply, add = (
        np.trunc, np.minimum, np.subtract, np.multiply, np.add)
    add_reduce = np.add.reduce

    def sample(xy: np.ndarray) -> np.ndarray:
        trunc(xy, base)
        minimum(base, base_hi, out=base)
        subtract(xy, base, frac)
        subtract(one, frac, cofrac)
        multiply(qy, qx, weights)
        multiply(base_y, width, row)
        add(row, base_x, row)
        add(row, corners, out=index, casting="unsafe")
        take(index, axis=1, mode="clip", out=terms)
        multiply(weights4, terms, terms)
        add_reduce(terms, axis=1, out=out_t, initial=-0.0)
        return out

    return sample


def _clamp(xy: np.ndarray, hi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Points clamped to the pixel-center rectangle [0, w-1] x [0, h-1],
    whose upper corner is hi."""
    out = np.minimum(xy, hi, out=out)
    return np.maximum(out, _ZERO, out=out)


def sample_field_bilinear(field: VectorField, x: float, y: float) -> tuple[float, float]:
    """Bilinear interpolation of the field at one sub-pixel position;
    a position outside the image is clamped onto it."""
    if math.isnan(x) or math.isnan(y):
        raise ParameterError(f"sample position must not be NaN, got ({x!r}, {y!r})")
    hi = np.array([[field.spec.width - 1.0, field.spec.height - 1.0]])
    (u, v), = _bilinear(field, 1)(_clamp(np.array([[x, y]], dtype=float), hi))
    return float(u), float(v)


def _unit_field(field: VectorField) -> VectorField:
    mag = field.magnitude()
    scale = 1.0 / np.maximum(mag, _NORM_FLOOR)
    scale[mag == 0.0] = 0.0
    return VectorField(field.spec, field.values * scale)


def _snaxel_count(count: float) -> int:
    """The snaxel count of a resampling whose unrounded count is count."""
    return max(4, int(round(count)))


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
    perimeter = float(seglen.sum())
    if perimeter < _MIN_PERIMETER:
        raise GeometryError("contour has (near) zero perimeter")
    count = perimeter / spacing
    # compared unrounded, as in snake_evolve, so that inf is caught too
    if not count < _MAX_RESAMPLED + 0.5:
        raise ParameterError(
            f"spacing {spacing:.6g} is too small for a contour of perimeter "
            f"{perimeter:.6g}: {count:.6g} snaxels, past the cap of {_MAX_RESAMPLED}")
    return Snake(_resampler(len(s), _snaxel_count(count))(ring.full, seg, seglen, perimeter))


def _resampler(n: int, m: int):
    """resample(ring, seg, seglen, perimeter): m points at uniform arc
    length along a closed ring of n points (see _Ring), from its (n, 2)
    segments, their lengths and their sum, into an (m, 2) buffer of its
    own that the next call overwrites.

    Target k lies at arc length perimeter * k / m, on the segment i
    whose cumulative start cum[i] is the last at or before it, at
    fraction (target - cum[i]) / seglen[i] of the segment.  On a
    segment of length 0 the fraction is left as target - cum[i], and
    the point is the segment's start, since the segment vector is 0.
    cum is the running sum of seglen while perimeter is their sum, so a
    target past cum[n - 1] lands on the last segment.  Each per-target
    array is a take of the segment arrays into a buffer, worked on in
    place; only searchsorted, which takes no output array, allocates
    (the segment of each target)."""
    ks = np.arange(m, dtype=np.float64)
    targets, lengths, starts = np.empty((3, m))
    positive = np.empty(m, bool)
    fraction = targets[:, None]
    cum = np.zeros(n + 1)
    cum_from, cum_to = cum[:-1], cum[1:]
    out, gathered = np.empty((m, 2)), np.empty((m, 2))
    count = _constant(m)
    add, subtract, multiply, divide, greater, cumsum = (
        np.add, np.subtract, np.multiply, np.divide, np.greater, np.cumsum)

    def resample(ring: np.ndarray, seg: np.ndarray, seglen: np.ndarray,
                 perimeter: float) -> np.ndarray:
        multiply(ks, perimeter, out=targets)
        divide(targets, count, out=targets)
        cumsum(seglen, out=cum_to)
        idx = cum_from.searchsorted(targets, side="right")
        idx -= 1
        # mode "clip" writes straight into the buffer, where "raise"
        # would copy it; every index is in range
        seglen.take(idx, out=lengths, mode="clip")
        cum.take(idx, out=starts, mode="clip")
        subtract(targets, starts, out=targets)
        greater(lengths, 0.0, out=positive)
        divide(targets, lengths, out=targets, where=positive)
        seg.take(idx, axis=0, out=out, mode="clip")
        multiply(out, fraction, out=out)
        ring[1:-1].take(idx, axis=0, out=gathered, mode="clip")
        add(out, gathered, out=out)
        return out

    return resample


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
        self.wraps = full[::n + 1]
        self.wrapped = full[n:0:-(n - 1)]

    def close(self) -> None:
        """Refresh the two wrap rows from the points."""
        np.copyto(self.wraps, self.wrapped)


class _Workspace:
    """A contour of n snaxels, and every buffer and view of its step.

    The contour lives in one of two rings, used in turn: a step reads
    the current ring and writes the other.  Every step writes the move
    of each snaxel and the segments of the new contour one after the
    other, so that one hypot gives both their lengths and one reduceat
    the largest of each, whether or not the run resamples.  load puts a
    contour in the first ring, and the steps of steps() start from it.
    """

    def __init__(self, field: VectorField, n: int):
        self.n = n
        self.hi = np.repeat([[field.spec.width - 1.0, field.spec.height - 1.0]], n, axis=0)
        self._sample = _bilinear(field, n)
        self._rings = _Ring(n), _Ring(n)
        self._loaded = np.empty((n, 2))
        self._tens = np.empty((n, 2))
        self._disp = np.empty((n, 2))
        diff = np.empty((2 * n, 2))
        self._lengths = np.empty(2 * n)
        self._move, self.seg = diff[:n], diff[n:]
        self.seglen = self._lengths[n:]
        self._dx, self._dy = diff.T
        self._starts = np.array([0, n], np.intp)
        self._tops = np.empty(2)

    def load(self, xy: np.ndarray) -> np.ndarray:
        """Make the n points xy, which lie in the image rectangle up to
        rounding, the contour, and return the ring that holds it; the
        first step of steps() samples the field at their clamped
        copies."""
        ring = self._rings[0]
        np.copyto(ring.pts, xy)
        ring.close()
        _clamp(xy, self.hi, self._loaded)
        return ring.full

    def steps(self, tension: np.ndarray, gamma: np.ndarray, step: np.ndarray):
        """The steps of the loaded contour, one per next(): each moves
        every snaxel, writes the segments of the new contour into seg
        and their lengths into seglen, and yields the largest move, the
        longest segment and the ring that holds the new contour.  Every
        operand and callable is bound once, as the generator starts, so
        that a step makes the numpy calls of its arithmetic, one of them
        through the sampler's closure, and no attribute lookup or call
        of a Python method.  The contour lies in the image rectangle
        (clamped, or interpolated between clamped points) and the clamp
        projects onto it, so no move is longer than its displacement."""
        add, subtract, multiply, minimum, maximum = (
            np.add, np.subtract, np.multiply, np.minimum, np.maximum)
        hypot, copyto, top = np.hypot, np.copyto, np.maximum.reduceat
        half, zero = _HALF, _ZERO
        sample, hi, at = self._sample, self.hi, self._loaded
        tens, disp, move, seg = self._tens, self._disp, self._move, self.seg
        lengths, dx, dy, starts = self._lengths, self._dx, self._dy, self._starts
        tops, tolist = self._tops, self._tops.tolist
        cur, new = ((r.full, r.pts, r.prev, r.next, r.wraps, r.wrapped) for r in self._rings)
        while True:
            _, pts, prev, after, _, _ = cur
            full, out, _, out_next, wraps, wrapped = new
            add(prev, after, tens)
            multiply(half, tens, tens)
            subtract(pts, tens, tens)
            multiply(tension, tens, tens)
            force = sample(at)
            multiply(gamma, force, force)
            add(tens, force, disp)
            multiply(step, disp, disp)
            add(pts, disp, out)
            minimum(out, hi, out=out)
            maximum(out, zero, out=out)
            subtract(out, pts, move)
            copyto(wraps, wrapped)
            subtract(out_next, out, seg)
            hypot(dx, dy, lengths)
            top(lengths, starts, out=tops)
            moved, longest = tolist()
            yield moved, longest, full
            cur, new, at = new, cur, out


def snake_evolve(s: Snake, field: VectorField, p: SnakeParams) -> SnakeResult:
    """Evolve until the largest per-step displacement drops below eps.

    Updates are simultaneous over snaxels; positions are clamped to the
    image rectangle so an inflating contour cannot escape the grid.
    Initial snaxels outside it are clamped onto it before the first
    step, so that clamp does not count as movement.

    Resampling runs only once a segment length leaves [1/2, 2] times the
    target spacing: redistributing every step would keep displacing
    snaxels tangentially, and a settled contour could never pass the
    termination test.  A run that resamples refuses a clamped initial
    contour of (near) zero perimeter (GeometryError), and stops as
    collapsed, not converged, at a step whose contour shrinks to one.

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
    too_long, too_short = 2.0 * p.resample_spacing, 0.5 * p.resample_spacing
    eps = p.eps
    ws = _Workspace(field, len(s))
    # initial snaxels outside the image are clamped onto it, as every
    # updated point is
    ring = ws.load(_clamp(s.points, ws.hi))
    if resampling and Snake(ring[1:-1]).perimeter() < _MIN_PERIMETER:
        raise GeometryError("contour has (near) zero perimeter")
    tension, gamma, step = (_constant(c) for c in (p.tensile_sign * p.b, p.gamma, p.step))
    advance = ws.steps(tension, gamma, step).__next__
    # the shortest segment by argmin, which costs a third of a minimum.reduce
    seglen = ws.seglen
    shortest = seglen.argmin
    history: list[float] = []
    record = history.append
    converged = collapsed = False
    iterations = 0
    # The field and the contour are finite, so a displacement is
    # non-finite exactly when an operation of its step overflows or is
    # invalid: trapping those is the divergence check.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for n in range(1, p.max_iter + 1):
                moved, longest, ring = advance()
                iterations = n
                record(moved)
                # deformation = applied movement; a border-pinned snaxel is settled
                if moved < eps:
                    converged = True
                    break
                if resampling and (longest > too_long or seglen[shortest()] < too_short):
                    perimeter = float(seglen.sum())
                    if perimeter < _MIN_PERIMETER:
                        collapsed = True
                        break
                    count = perimeter / p.resample_spacing
                    # compared unrounded, so that an overflow to inf is caught too
                    if not count < max_snaxels + 0.5:
                        raise DivergenceError(
                            f"resampling would grow the contour to {count:.6g} snaxels, "
                            f"past the cap of {max_snaxels}", n
                        )
                    m = _snaxel_count(count)
                    xy = _resampler(ws.n, m)(ring, ws.seg, seglen, perimeter)
                    if m != ws.n:
                        ws = _Workspace(field, m)
                        seglen = ws.seglen
                        shortest = seglen.argmin
                    # the resampled contour is the current one from here
                    # on, whether or not another step follows; the
                    # resampler's buffers go with xy
                    ring = ws.load(xy)
                    del xy
                    advance = ws.steps(tension, gamma, step).__next__
    except FloatingPointError:
        raise DivergenceError("non-finite snaxel displacement", n) from None
    return SnakeResult(Snake(ring[1:-1].copy()), iterations, converged,
                       np.asarray(history), collapsed)
