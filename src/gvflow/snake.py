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
of a run, and makes no arrays.  One generator (_steps), started once per
snaxel count, makes every buffer and view a step touches, the sampler's
included, as locals, so that a step makes the numpy calls of its
arithmetic and no attribute lookup or call of a Python method.  It
yields, per step, the largest move, the longest segment, the new points
and their segments and lengths.  A resampling is one call of _resample,
which makes a new (M, 2) array of the resampled points and a few
per-target arrays beside it; at the same count the points are sent to
the running generator, which loads them before its next step, and at
another count a new generator starts from them.  The contour lives in
one of two rings of N + 2 (x, y) rows, used in turn: a step reads one
and writes the other.  A ring's two wrap rows repeat its last and first
snaxel, so it gives both neighbors of every snaxel for the tensile term
and, after the update, the segments for the spacing test and the
resampling.  The points, the neighbors and the step's own arrays are
contiguous (N, 2) blocks, so the elementwise calls on them run as one
flat loop; a numpy call on a strided two-row view costs about twice as
much at a few hundred snaxels.  One take of flat indices fetches the
four bilinear corners of every snaxel, u and v together; the lower
corner is found in float, truncated and lowered to (w-2, h-2), and cast
to an index once.  Each clamp is a minimum against the upper corner
(w-1, h-1) and a maximum against 0.  One hypot gives the length of every
move and of every new segment, and one maximum.reduceat the largest of
each, for the stop test and the upper spacing bound; the shortest
segment is looked for, by argmin, only when the run resamples, the
contour has not settled and no segment is too long.  A step is 27 numpy
calls.  numpy's iterator still takes a buffer of its own, and returns
it, for each call that broadcasts one operand against another.
sample_field_bilinear is the sampler's formula for one point, in Python
floats.

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
        """The closed polyline's length; inf past the float range."""
        return _segments(self.points)[2]


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
    if not is_integer(i):
        raise ParameterError(f"snaxel index must be an integer, got {i!r}")
    if not 0 <= i < n:
        raise ParameterError(f"snaxel index {i} out of range 0..{n - 1}")
    b = s.points[i] - 0.5 * (s.points[(i - 1) % n] + s.points[(i + 1) % n])
    return float(b[0]), float(b[1])


def sample_field_bilinear(field: VectorField, x: float, y: float) -> tuple[float, float]:
    """Bilinear interpolation of the field at one sub-pixel position;
    a position outside the image is clamped onto it.

    The arithmetic is that of the snake step's sampler (_steps), in
    Python floats: the lower corner is the truncated point, lowered to
    (w-2, h-2) where it is above, and the corners are weighted and
    summed in the order w00*c00 + w10*c10 + w01*c01 + w11*c11, with c10
    one step along x.  A coordinate at or below 0 clamps to +0.0, as the
    step's maximum against 0.0 clamps -0.0."""
    if math.isnan(x) or math.isnan(y):
        raise ParameterError(f"sample position must not be NaN, got ({x!r}, {y!r})")
    w, h = field.spec.width, field.spec.height
    x = min(float(x), w - 1.0) if x > 0.0 else 0.0
    y = min(float(y), h - 1.0) if y > 0.0 else 0.0
    x0, y0 = min(math.trunc(x), w - 2), min(math.trunc(y), h - 2)
    fx, fy = x - x0, y - y0
    w00, w10, w01, w11 = (1.0 - fy) * (1.0 - fx), (1.0 - fy) * fx, fy * (1.0 - fx), fy * fx
    c = field.values.item
    u, v = (w00 * c(k, y0, x0) + w10 * c(k, y0, x0 + 1) + w01 * c(k, y0 + 1, x0)
            + w11 * c(k, y0 + 1, x0 + 1) for k in (0, 1))
    return u, v


def _unit_field(field: VectorField) -> VectorField:
    mag = field.magnitude()
    scale = 1.0 / np.maximum(mag, _NORM_FLOOR)
    scale[mag == 0.0] = 0.0
    return VectorField(field.spec, field.values * scale)


def _snaxel_count(count: float) -> int:
    """The snaxel count of a resampling whose unrounded count is count."""
    return max(4, int(round(count)))


def _segments(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The (n, 2) segments leaving each point of the closed contour pts,
    their lengths and their sum, the perimeter.  A length or perimeter
    past the float range is inf, without a warning."""
    with np.errstate(over="ignore"):
        seg = np.roll(pts, -1, axis=0) - pts
        seglen = np.hypot(seg[:, 0], seg[:, 1])
        return seg, seglen, float(seglen.sum())


def resample_contour(s: Snake, spacing: float) -> Snake:
    """Redistribute snaxels at uniform arc length along the closed
    polyline, anchored at the current first point; the count is
    max(4, round(perimeter / spacing)), which may not pass 2**20."""
    spacing = check_real("spacing", spacing, above=True, inf=True)
    seg, seglen, perimeter = _segments(s.points)
    if perimeter < _MIN_PERIMETER:
        raise GeometryError("contour has (near) zero perimeter")
    if perimeter == math.inf:
        raise ParameterError("contour perimeter is past the float range")
    count = perimeter / spacing
    # compared unrounded, as in snake_evolve, so that inf is caught too
    if not count < _MAX_RESAMPLED + 0.5:
        raise ParameterError(
            f"spacing {spacing:.6g} is too small for a contour of perimeter "
            f"{perimeter:.6g}: {count:.6g} snaxels, past the cap of {_MAX_RESAMPLED}")
    return Snake(_resample(s.points, seg, seglen, perimeter, _snaxel_count(count)))


def _resample(pts: np.ndarray, seg: np.ndarray, seglen: np.ndarray, perimeter: float,
              m: int) -> np.ndarray:
    """A new (m, 2) array of points at uniform arc length along the
    closed contour of the (n, 2) points pts, from its (n, 2) segments,
    their lengths and their sum.

    Target k lies at arc length perimeter * k / m, on the segment i
    whose cumulative start cum[i] is the last at or before it, at
    fraction (target - cum[i]) / seglen[i] of the segment.  On a
    segment of length 0 the fraction is left as target - cum[i], and
    the point is the segment's start, since the segment vector is 0.
    cum is the running sum of seglen while perimeter is their sum, so a
    target past cum[n - 1] lands on the last segment."""
    targets = np.arange(m, dtype=np.float64)
    targets *= perimeter
    targets /= m
    cum = np.zeros(len(pts) + 1)
    np.cumsum(seglen, out=cum[1:])
    idx = cum[:-1].searchsorted(targets, side="right") - 1
    lengths = seglen.take(idx)
    targets -= cum.take(idx)
    np.divide(targets, lengths, out=targets, where=lengths > 0.0)
    out = seg.take(idx, axis=0)
    out *= targets[:, None]
    out += pts.take(idx, axis=0)
    return out


def _steps(field: VectorField, xy: np.ndarray, tension: np.ndarray, gamma: np.ndarray,
           step: np.ndarray):
    """The steps of the contour of the n points xy, one per next(): each
    moves every snaxel and yields the largest move, the longest segment
    of the new contour, its points, and its (n, 2) segments and their
    lengths.  Points sent to it, send(xy), which like the first lie in
    the image rectangle up to rounding, are the contour of the next
    step; the step samples the field at their clamped copy.

    Every buffer and view of a step is a local, made as the generator
    starts: the clamp's bounds, the sampler's buffers, then the two
    rings and the step's own arrays.  A step reads
    the current ring and writes the other.  A ring holds its n (x, y)
    points as the n + 2 rows p_{n-1}, p_0 .. p_{n-1}, p_0: rows i and
    i + 2 are the neighbors of p_i, row i + 2 less row i + 1 is the
    segment leaving it, and the points and both neighbors of every point
    are contiguous blocks.  Every step writes the move of each snaxel
    and the segments of the new contour one after the other, so that
    one hypot gives both their lengths and one reduceat the largest of
    each.  A step makes the numpy calls of its arithmetic and no
    attribute lookup or call of a Python method.  The contour lies in
    the image rectangle (clamped, or interpolated between clamped
    points) and the clamp projects onto it, so no move is longer than
    its displacement.

    The sampler takes the bilinear samples of both field components at
    the n points with one gather.  The field's values are viewed as a
    (2, H*W) array, and the four corners of every point, u and v
    together, come from one take of a (4, n) array of flat indices.  The
    lower corner is found in float: the truncated point, lowered to
    (w-2, h-2) where it is above, so every index is in range and the
    take may clip.  Its flat index is worked out in float too, exactly,
    and cast to intp once, as the four corners are added to it.  On a
    clamped point the truncation gives the fractions that a cast of the
    point to an integer gives, signed zeros included: the two differ
    only at -0.0, which the clamp's maximum against 0.0 turns into 0.0.
    The corners are weighted and summed in the order
    w00*c00 + w10*c10 + w01*c01 + w11*c11, with c10 one step along x;
    the sum starts from -0.0, which leaves every first term as it is.
    The bounds are held at full size and the scalars as 0-d arrays: a
    ufunc call that broadcasts or converts a Python float costs more
    than the arithmetic at a few hundred points.
    """
    n = len(xy)
    w, h = field.spec.width, field.spec.height
    hi = np.repeat([[w - 1.0, h - 1.0]], n, axis=0)
    base_hi = np.repeat([[w - 2.0, h - 2.0]], n, axis=0)
    width = _constant(w)
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
    force = np.empty((n, 2))
    force_t = force.T
    # per ring: its points, their previous and next neighbors, and the
    # wrap rows 0 and n + 1 with the rows n and 1 they repeat.  Each ring
    # is an array of its own: as the two halves of one (2, n + 2, 2)
    # array, a step ran about 17 % slower
    cur, new = ((r[1:-1], r[:-2], r[2:], r[::n + 1], r[n:0:-(n - 1)])
                for r in (np.empty((n + 2, 2)), np.empty((n + 2, 2))))
    loaded = np.empty((n, 2))
    tens = np.empty((n, 2))
    disp = np.empty((n, 2))
    diff = np.empty((2 * n, 2))
    lengths = np.empty(2 * n)
    move, seg = diff[:n], diff[n:]
    seglen = lengths[n:]
    dx, dy = diff.T
    starts = np.array([0, n], np.intp)
    tops = np.empty(2)
    tolist = tops.tolist
    add, subtract, multiply, minimum, maximum, trunc = (
        np.add, np.subtract, np.multiply, np.minimum, np.maximum, np.trunc)
    hypot, copyto, top, add_reduce = np.hypot, np.copyto, np.maximum.reduceat, np.add.reduce
    one, half, zero = _ONE, _HALF, _ZERO
    while True:
        pts, prev, after, wraps, wrapped = cur
        if xy is not None:
            copyto(pts, xy)
            copyto(wraps, wrapped)
            minimum(xy, hi, out=loaded)
            maximum(loaded, zero, out=loaded)
            at = loaded
            # freed once loaded
            del xy
        out, _, out_next, wraps, wrapped = new
        add(prev, after, tens)
        multiply(half, tens, tens)
        subtract(pts, tens, tens)
        multiply(tension, tens, tens)
        trunc(at, base)
        minimum(base, base_hi, out=base)
        subtract(at, base, frac)
        subtract(one, frac, cofrac)
        multiply(qy, qx, weights)
        multiply(base_y, width, row)
        add(row, base_x, row)
        add(row, corners, out=index, casting="unsafe")
        take(index, axis=1, mode="clip", out=terms)
        multiply(weights4, terms, terms)
        add_reduce(terms, axis=1, out=force_t, initial=-0.0)
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
        xy = yield moved, longest, out, seg, seglen
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
    # initial snaxels outside the image are clamped onto it, as every
    # updated point is
    xy = np.maximum(np.minimum(s.points, [field.spec.width - 1.0, field.spec.height - 1.0]), 0.0)
    if resampling and Snake(xy).perimeter() < _MIN_PERIMETER:
        raise GeometryError("contour has (near) zero perimeter")
    tension, gamma, step = (_constant(c) for c in (p.tensile_sign * p.b, p.gamma, p.step))
    advance = _steps(field, xy, tension, gamma, step).send
    # a resampling at the same count, sent with the next step
    resampled = None
    history: list[float] = []
    record = history.append
    converged = collapsed = False
    # The field and the contour are finite, so a displacement is
    # non-finite exactly when an operation of its step overflows or is
    # invalid: trapping those is the divergence check.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for n in range(1, p.max_iter + 1):
                moved, longest, xy, seg, seglen = advance(resampled)
                resampled = None
                record(moved)
                # deformation = applied movement; a border-pinned snaxel is settled
                if moved < eps:
                    converged = True
                    break
                # the shortest segment by argmin, which costs a third of a
                # minimum.reduce
                if resampling and (longest > too_long or seglen[seglen.argmin()] < too_short):
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
                    # the resampled contour is the current one from here
                    # on, whether or not another step follows
                    xy = _resample(xy, seg, seglen, perimeter, m)
                    if m == len(seg):
                        resampled = xy
                    else:
                        advance = _steps(field, xy, tension, gamma, step).send
    except FloatingPointError:
        raise DivergenceError("non-finite snaxel displacement", n) from None
    return SnakeResult(Snake(xy.copy()), len(history), converged,
                       np.asarray(history), collapsed)
