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
        if self.tensile_sign not in (1.0, -1.0):
            raise ParameterError("tensile_sign must be +1 or -1")


@dataclass
class SnakeResult:
    snake: Snake
    iterations: int
    converged: bool
    displacement_history: np.ndarray


def _tensile_all(pts: np.ndarray) -> np.ndarray:
    return pts - 0.5 * (np.roll(pts, 1, axis=0) + np.roll(pts, -1, axis=0))


def tensile_force(s: Snake, i: int) -> tuple[float, float]:
    """B_i = p_i - (p_{i-1} + p_{i+1})/2, indices modulo N."""
    n = len(s)
    if not 0 <= i < n:
        raise ParameterError(f"snaxel index {i} out of range 0..{n - 1}")
    b = s.points[i] - 0.5 * (s.points[(i - 1) % n] + s.points[(i + 1) % n])
    return float(b[0]), float(b[1])


def _sample_many(field: VectorField, xs: np.ndarray, ys: np.ndarray):
    """Bilinear samples of both components; coordinates are clamped to
    the pixel-center rectangle [0, w-1] x [0, h-1]."""
    spec = field.spec
    x = np.clip(xs, 0.0, spec.width - 1.0)
    y = np.clip(ys, 0.0, spec.height - 1.0)
    x0 = np.minimum(np.floor(x), spec.width - 2).astype(int)
    y0 = np.minimum(np.floor(y), spec.height - 2).astype(int)
    fx = x - x0
    fy = y - y0
    w00 = (1 - fx) * (1 - fy)
    w10 = fx * (1 - fy)
    w01 = (1 - fx) * fy
    w11 = fx * fy
    out = []
    for comp in (field.u.values, field.v.values):
        out.append(
            w00 * comp[y0, x0]
            + w10 * comp[y0, x0 + 1]
            + w01 * comp[y0 + 1, x0]
            + w11 * comp[y0 + 1, x0 + 1]
        )
    return out[0], out[1]


def sample_field_bilinear(field: VectorField, x: float, y: float) -> tuple[float, float]:
    """Bilinear interpolation of the field at one sub-pixel position."""
    u, v = _sample_many(field, np.asarray([x], dtype=float), np.asarray([y], dtype=float))
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
    max(4, round(perimeter / spacing))."""
    if not spacing > 0:
        raise ParameterError("spacing must be > 0")
    pts = s.points
    closed = np.vstack([pts, pts[:1]])
    seg = np.diff(closed, axis=0)
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    perimeter = float(seglen.sum())
    if perimeter < 1e-9:
        raise GeometryError("contour has (near) zero perimeter")
    n_new = max(4, int(round(perimeter / spacing)))
    targets = perimeter * np.arange(n_new) / n_new
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seglen) - 1)
    denom = np.where(seglen[idx] > 0, seglen[idx], 1.0)
    frac = (targets - cum[idx]) / denom
    new_pts = closed[idx] + seg[idx] * frac[:, None]
    return Snake(new_pts)


def _displacement_bound(tens: np.ndarray, fu: np.ndarray, fv: np.ndarray,
                        p: SnakeParams) -> float:
    """The force budget of one step: no snaxel can move further than
    step * (b * max|B_i| + gamma * max|F(p_i)|)."""
    return p.step * (
        p.b * np.hypot(tens[:, 0], tens[:, 1]).max() + p.gamma * np.hypot(fu, fv).max()
    )


def snake_evolve(s: Snake, field: VectorField, p: SnakeParams) -> SnakeResult:
    """Evolve until the largest per-step displacement drops below eps.

    Updates are simultaneous over snaxels; positions are clamped to the
    image rectangle so an inflating contour cannot escape the grid.
    """
    spec = field.spec
    pts = s.points.copy()
    f = _unit_field(field) if p.normalize else field
    history: list[float] = []
    converged = False
    iterations = 0
    for n in range(1, p.max_iter + 1):
        tens = _tensile_all(pts)
        fu, fv = _sample_many(f, pts[:, 0], pts[:, 1])
        disp = p.step * (
            p.tensile_sign * p.b * tens + p.gamma * np.column_stack([fu, fv])
        )
        if not np.all(np.isfinite(disp)):
            raise DivergenceError("non-finite snaxel displacement", n)
        bound = _displacement_bound(tens, fu, fv, p)
        new_pts = pts + disp
        new_pts[:, 0] = np.clip(new_pts[:, 0], 0.0, spec.width - 1.0)
        new_pts[:, 1] = np.clip(new_pts[:, 1], 0.0, spec.height - 1.0)
        # deformation = applied movement; a border-pinned snaxel is settled
        moved = np.hypot(new_pts[:, 0] - pts[:, 0], new_pts[:, 1] - pts[:, 1]).max()
        if not moved <= bound * (1.0 + 1e-9):
            raise DivergenceError(
                f"snaxel moved {moved:.6g} px, past the force bound of {bound:.6g} px", n
            )
        pts = new_pts
        iterations = n
        history.append(float(moved))
        if moved < p.eps:
            converged = True
            break
        if p.resample_spacing > 0 and _spacing_drifted(pts, p.resample_spacing):
            pts = resample_contour(Snake(pts), p.resample_spacing).points
    return SnakeResult(Snake(pts), iterations, converged, np.asarray(history))


def _spacing_drifted(pts: np.ndarray, spacing: float) -> bool:
    """True once any segment leaves [1/2, 2] times the target spacing.

    Resampling only on drift lets a settled contour reach equilibrium:
    redistributing every step would keep displacing snaxels tangentially
    and the termination test could never pass."""
    closed = np.vstack([pts, pts[:1]])
    seg = np.diff(closed, axis=0)
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    return bool(seglen.max() > 2.0 * spacing or seglen.min() < 0.5 * spacing)
