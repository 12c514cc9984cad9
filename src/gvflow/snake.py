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

A step is a short, fixed sequence of whole-array calls.  The contour is
held component-major, as a (2, N) array of x and y rows, so every call
runs along the snaxels.  One wrapped copy of the ring gives both
neighbors of every snaxel for the tensile term and, after the update,
the segments for the spacing test and the resampling.  The field is laid
out once as a (2, H*W) array, and one take of flat indices fetches the
four bilinear corners of every snaxel, u and v together (_Sampler).
Each clamp is a minimum and a maximum against the per-axis upper corner
(w-1, h-1).  The arithmetic, its order included, is that of the
per-snaxel formulas above, so contours, step counts and displacement
histories are reproducible to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, GeometryError, ParameterError
from .grid import VectorField

# Floor used when normalizing field vectors to unit length.
_NORM_FLOOR = 1e-12


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
        # written so that NaN fails too
        if not (self.b >= 0 and self.gamma >= 0):
            raise ParameterError("b and gamma must be >= 0")
        if not self.step > 0:
            raise ParameterError("step must be > 0")
        if not self.eps > 0:
            raise ParameterError("eps must be > 0")
        if self.max_iter < 1:
            raise ParameterError("max_iter must be >= 1")
        if not self.resample_spacing >= 0:
            raise ParameterError("resample_spacing must be >= 0")
        for name in ("b", "gamma", "step", "eps", "resample_spacing"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
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
    """Bilinear samples of both field components with one gather.

    Points come in component-major, as a (2, N) array of x and y rows,
    so every elementwise call runs along the N snaxels.  The field is
    laid out once as a (2, H*W) array, and the four corners of every
    point, u and v together, come from one take of flat indices.  The
    lower corner is clamped to [0, w-2] x [0, h-2], and the corners are
    weighted and summed in the order w00*c00 + w10*c10 + w01*c01 +
    w11*c11, with c10 one step along x.
    """

    def __init__(self, field: VectorField):
        w = field.spec.width
        self._uv = np.stack((field.u.values.ravel(), field.v.values.ravel()))
        self._hi = np.array([[w - 1.0], [field.spec.height - 1.0]])
        self._base_hi = np.array([[w - 2], [field.spec.height - 2]])
        self._width = w
        self._corners = np.array([[0], [1], [w], [w + 1]])

    def clamp(self, xy: np.ndarray) -> np.ndarray:
        """Points clamped to the pixel-center rectangle [0, w-1] x [0, h-1]."""
        return np.maximum(np.minimum(xy, self._hi), 0.0)

    def __call__(self, xy: np.ndarray) -> np.ndarray:
        """(2, N) clamped points in, (2, N) samples (u, v) out."""
        # truncation is floor on the clamped, nonnegative coordinates
        base = np.minimum(xy.astype(np.intp), self._base_hi)
        frac = xy - base
        # q[0] = (1 - fx, 1 - fy), q[1] = (fx, fy); w[2*ky + kx] = qy[ky] * qx[kx]
        q = np.concatenate((1.0 - frac, frac)).reshape(2, 2, -1)
        w = (q[:, None, 1] * q[None, :, 0]).reshape(4, -1)
        t = w * self._uv.take(base[1] * self._width + base[0] + self._corners, axis=1)
        return t[:, 0] + t[:, 1] + t[:, 2] + t[:, 3]


def sample_field_bilinear(field: VectorField, x: float, y: float) -> tuple[float, float]:
    """Bilinear interpolation of the field at one sub-pixel position."""
    # lays the whole field out again: a spot check, not a loop primitive
    sample = _Sampler(field)
    u, v = sample(sample.clamp(np.array([[x], [y]], dtype=float)))
    return float(u[0]), float(v[0])


def _unit_field(field: VectorField) -> VectorField:
    mag = field.magnitude()
    scale = 1.0 / np.maximum(mag, _NORM_FLOOR)
    scale[mag == 0.0] = 0.0
    out = field.copy()
    out.u.values *= scale
    out.v.values *= scale
    return out


def resample_contour(s: Snake, spacing: float) -> Snake:
    """Redistribute snaxels at uniform arc length along the closed
    polyline, anchored at the current first point; the count is
    max(4, round(perimeter / spacing)), which must be finite."""
    if not spacing > 0:
        raise ParameterError("spacing must be > 0")
    ring = _closed_ring(s.points.T)
    seg = ring[:, 2:] - ring[:, 1:-1]
    seglen = np.hypot(*seg)
    perimeter, count = _resample_count(seglen, spacing)
    if not np.isfinite(count):
        raise ParameterError(
            f"spacing {spacing:.6g} is too small for a contour of perimeter {perimeter:.6g}")
    return Snake(np.ascontiguousarray(_resample(ring, seg, seglen, perimeter, count).T))


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
    """resample_contour on a closed ring (see _closed_ring), its (2, N)
    segments, their lengths and their sum, for a finite unrounded count;
    returns the new (2, n_new) points, n_new = max(4, round(count))."""
    n_new = max(4, int(round(count)))
    targets = perimeter * np.arange(n_new) / n_new
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seglen) - 1)
    denom = np.where(seglen[idx] > 0, seglen[idx], 1.0)
    frac = (targets - cum[idx]) / denom
    return ring[:, 1 + idx] + seg[:, idx] * frac


def _displacement_bound(tens: np.ndarray, force: np.ndarray, p: SnakeParams) -> float:
    """The force budget of one step: no snaxel can move further than
    step * (b * max|B_i| + gamma * max|F(p_i)|)."""
    return p.step * (p.b * np.hypot(*tens).max() + p.gamma * np.hypot(*force).max())


def _closed_ring(xy: np.ndarray) -> np.ndarray:
    """(2, N + 2): p_{N-1}, p_0 .. p_{N-1}, p_0, so that ring[:, i] and
    ring[:, i + 2] are the neighbors of p_i and ring[:, i + 2] -
    ring[:, i + 1] is the segment leaving it."""
    return np.concatenate((xy[:, -1:], xy, xy[:, :1]), axis=1)


def snake_evolve(s: Snake, field: VectorField, p: SnakeParams) -> SnakeResult:
    """Evolve until the largest per-step displacement drops below eps.

    Updates are simultaneous over snaxels; positions are clamped to the
    image rectangle so an inflating contour cannot escape the grid.
    Initial snaxels outside it are clamped onto it before the first
    step, so that clamp does not count as movement.

    A resampling may not raise the snaxel count past the field's pixel
    count (or the initial count, if larger): a contour that grows past
    it, such as an inflating one zig-zagging against the image border,
    raises DivergenceError instead of exhausting memory.
    """
    sample = _Sampler(_unit_field(field) if p.normalize else field)
    max_snaxels = max(field.spec.width * field.spec.height, len(s))
    # where the field is sampled; every updated xy is clamped too
    xy = at = sample.clamp(s.points.T)
    ring = _closed_ring(xy)
    history: list[float] = []
    converged = False
    iterations = 0
    for n in range(1, p.max_iter + 1):
        tens = xy - 0.5 * (ring[:, :-2] + ring[:, 2:])
        force = sample(at)
        disp = p.step * (p.tensile_sign * p.b * tens + p.gamma * force)
        if not np.isfinite(disp).all():
            raise DivergenceError("non-finite snaxel displacement", n)
        bound = _displacement_bound(tens, force, p)
        new_xy = sample.clamp(xy + disp)
        # deformation = applied movement; a border-pinned snaxel is settled
        moved = np.hypot(*(new_xy - xy)).max()
        if not moved <= bound * (1.0 + 1e-9):
            raise DivergenceError(
                f"snaxel moved {moved:.6g} px, past the force bound of {bound:.6g} px", n
            )
        xy = at = new_xy
        iterations = n
        history.append(float(moved))
        if moved < p.eps:
            converged = True
            break
        ring = _closed_ring(xy)
        if p.resample_spacing > 0:
            seg = ring[:, 2:] - ring[:, 1:-1]
            seglen = np.hypot(*seg)
            if _spacing_drifted(seglen, p.resample_spacing):
                perimeter, count = _resample_count(seglen, p.resample_spacing)
                # compared unrounded, so that an overflow to inf is caught too
                if not count < max_snaxels + 0.5:
                    raise DivergenceError(
                        f"resampling would grow the contour to {count:.6g} snaxels, past "
                        f"the cap of {max_snaxels}", n
                    )
                xy = _resample(ring, seg, seglen, perimeter, count)
                at = sample.clamp(xy)
                ring = _closed_ring(xy)
    return SnakeResult(Snake(np.ascontiguousarray(xy.T)), iterations, converged,
                       np.asarray(history))


def _spacing_drifted(seglen: np.ndarray, spacing: float) -> bool:
    """True once any segment length leaves [1/2, 2] times the target
    spacing.

    Resampling only on drift lets a settled contour reach equilibrium:
    redistributing every step would keep displacing snaxels tangentially
    and the termination test could never pass."""
    return bool(seglen.max() > 2.0 * spacing or seglen.min() < 0.5 * spacing)
