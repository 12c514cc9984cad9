"""Explicit diffusion-reaction solvers for gradient vector flow fields.

The field v = (u, v) evolves under

    dv/dt = g * Lap(v) + h * (grad_f - v),        v(x, 0) = grad_f,

where grad_f is the (optionally magnitude-capped) gradient of an edge
map f, and g, h are nonnegative diffusion/reaction coefficients, either
constants or per-pixel fields.  One explicit Jacobi step reads

    v_new = (1 - h*dt) * v + h*dt * grad_f + r * (nb_sum - 4 * v),

with r = g*dt (pixels are unit squares; see grid) and nb_sum the
four-neighbor sum.  Neighbors that leave the domain are mirrored onto
the center pixel (zero-flux rule), both at the grid border and at the
boundary of a masked domain; a periodic variant wraps instead and backs
the spectral oracle.

One stencil operator (_Stencil) serves the iteration, gvf_step and
steady_residual, and grid.laplacian_5pt shares its neighbor sum.  Both
components sit in one (2, H, W) array inside a padded buffer, and the
neighbor sum is four shifted views of it.  The stencil builds those
views, and every other view an iteration touches, once: on a small
grid a solve's cost is numpy's per-call overhead, so an iteration makes
only the calls of its arithmetic.  On the full rectangle the one-pixel
border is refreshed before each sum by one gather and one scatter: edge
values give the mirror rule, wrapped values the periodic border.  On a
masked domain one gather of a (4, n) neighbor table fixes up the sum at
the boundary pixels only, and the exterior stays at zero.  Every sum
adds x+1, x-1, y+1, y-1 in that order (grid._neighbor_offsets), so all
results are reproducible to the last bit.  Every buffer the iteration
writes starts its written span on a 64-byte cache line
(grid._aligned_zeros): numpy aligns to 16 bytes only, and a ufunc whose
output is split across cache lines runs about half as fast.

The scheme is stable for r < 1/4; the usual working constraints are
r < 1/4, g*dt < 1, h*dt < 1 and h < g.  Violations can be forced
through (useful to demonstrate divergence), but are never silent.

The generalized variant (GGVF) is the same solve with the per-pixel
pair g(x) = exp(-|grad_f|^2 / K^2), h(x) = 1 - g(x), frozen from the
initial gradient: ggvf_solve resolves its GgvfParams to that GvfParams
in one place and validates the worst case g = 1, whatever the image.

Termination: iteration stops once the largest per-pixel change
|v_new - v|_2 drops below delta.  A converged run's field is an
approximate steady state; two independent oracles (a direct solve and,
for periodic borders, a Fourier-domain solution) pin it down exactly.
The direct solve is block LU of the block-tridiagonal steady-state
system with numpy.linalg alone, one block per grid line (across the
shorter side of a rectangle): O(L * S^3) for L lines of S pixels, and
one factorization serves both components.  No code in gvflow imports
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    DivergenceError,
    ParameterError,
    RankError,
    SizeError,
)
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _aligned_zeros,
    _border_views,
    _neighbor_offsets,
    _neighbor_terms,
    _span,
    _sum_terms,
    clamp_magnitude,
    gradient_central,
    laplacian_5pt,
)

# A run is declared divergent once the per-iteration change grows this
# many times past its first value; the checkerboard mode of an unstable
# run crosses it long before float overflow.
_DIVERGENCE_GROWTH = 1e12

_ORACLE_LIMIT = 4096
# the bound on cond(A) above which direct_steady_solve refines its solution
_REFINE_ABOVE = 1e3


def _check_k(K: float) -> None:
    """ParameterError unless K > 0 and K*K > 0: below about 1.6e-162 K*K
    underflows to 0, and the weight's exponent |grad_f|^2 / K^2 turns
    to inf, or to NaN where the gradient vanishes."""
    if not (K > 0 and K * K > 0):
        raise ParameterError(f"K must be > 0 with K*K > 0, got K = {K!r}")


def _check_run(p) -> None:
    """The checks that GvfParams and GgvfParams share."""
    if not p.dt > 0:
        raise ParameterError("dt must be > 0")
    if not p.delta > 0:
        raise ParameterError("delta must be > 0")
    if not p.cap > 0:
        raise ParameterError("cap must be > 0 (inf disables clamping)")
    if p.max_iter < 1:
        raise ParameterError("max_iter must be >= 1")


@dataclass(frozen=True)
class GvfParams:
    """Coefficients for the constant/per-pixel diffusion-reaction solve.

    g, h may be scalars or ScalarFields (per-pixel).  cap is the
    magnitude bound applied to grad_f before it is used as both the
    initial field and the reaction source (infinity disables it).
    """

    g: float | ScalarField = 2.0
    h: float | ScalarField = 0.02
    dt: float = 0.12
    delta: float = 1e-4
    cap: float = math.inf
    max_iter: int = 20000

    def __post_init__(self):
        _check_run(self)
        for name, c in (("g", self.g), ("h", self.h)):
            if not isinstance(c, ScalarField):
                if not np.isfinite(c) or c < 0:
                    raise ParameterError(f"{name} must be finite and >= 0")
        if (
            not isinstance(self.g, ScalarField)
            and not isinstance(self.h, ScalarField)
            and self.g == 0
            and self.h == 0
        ):
            raise ParameterError("g and h must not both vanish")


@dataclass(frozen=True)
class GgvfParams:
    """Parameters of the generalized (edge-weighted) solve: a GvfParams
    with the per-pixel pair g = ggvf_weight(grad_f, K), h = 1 - g."""

    K: float = 100.0
    dt: float = 0.12
    delta: float = 1e-4
    cap: float = math.inf
    max_iter: int = 20000

    def __post_init__(self):
        _check_k(self.K)
        _check_run(self)


class DomainMask:
    """Per-pixel interior flags for solving on a subdomain.

    The domain may be multiply connected (an outer window minus a
    rectangular hole); every interior pixel whose 4-neighbor falls
    outside gets the mirrored-neighbor treatment, so the zero-flux rule
    holds on all boundary components.
    """

    def __init__(self, spec: GridSpec, inside: np.ndarray):
        inside = np.asarray(inside, dtype=bool)
        if inside.shape != spec.shape:
            raise DimensionError("mask shape does not match grid")
        if not inside.any():
            raise ParameterError("domain mask is empty")
        self.spec = spec
        self.inside = inside

    @classmethod
    def full(cls, spec: GridSpec) -> "DomainMask":
        return cls(spec, np.ones(spec.shape, dtype=bool))

    @classmethod
    def from_rects(
        cls,
        spec: GridSpec,
        outer: tuple[int, int, int, int] | None = None,
        hole: tuple[int, int, int, int] | None = None,
    ) -> "DomainMask":
        """Window (x, y, w, h) minus an optional rectangular hole, clipped."""
        inside = np.zeros(spec.shape, dtype=bool)
        if outer is None:
            inside[:, :] = True
        else:
            x0, y0, w, h = outer
            x1, y1 = min(x0 + w, spec.width), min(y0 + h, spec.height)
            inside[max(y0, 0):max(y1, 0), max(x0, 0):max(x1, 0)] = True
        if hole is not None:
            x0, y0, w, h = hole
            x1, y1 = min(x0 + w, spec.width), min(y0 + h, spec.height)
            inside[max(y0, 0):max(y1, 0), max(x0, 0):max(x1, 0)] = False
        return cls(spec, inside)

    @property
    def is_full(self) -> bool:
        return bool(self.inside.all())

    @property
    def inside_count(self) -> int:
        return int(self.inside.sum())

    def boundary(self) -> np.ndarray:
        """Interior pixels with at least one exterior/off-grid 4-neighbor."""
        east, west, down, up = _neighbor_flags(self.inside)
        return self.inside & ~(east & west & down & up)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an explicit solve.

    change_history[n] is the largest per-pixel step |v^{n+1} - v^n|_2 of
    iteration n+1; energy_history[n] is the sum of the squared steps
    |v^{n+1} - v^n|_2^2 over the domain's pixels.  params are the
    coefficients the solve iterated; for GGVF, the resolved per-pixel
    pair.
    """

    field: VectorField
    iterations: int
    converged: bool
    change_history: np.ndarray
    energy_history: np.ndarray
    inside_count: int
    params: GvfParams

    @property
    def pixel_updates(self) -> int:
        """Interior pixel writes: iterations * |domain|."""
        return self.iterations * self.inside_count


# --- parameter validation ------------------------------------------------------


def _coeff_max(c: float | ScalarField) -> float:
    if isinstance(c, ScalarField):
        return float(c.values.max())
    return float(c)


def _coeff_grid(c: float | ScalarField, spec: GridSpec):
    """Per-pixel coefficient as an (H, W) array; scalars pass through."""
    if isinstance(c, ScalarField):
        if c.spec != spec:
            raise DimensionError("per-pixel coefficient grid does not match field grid")
        if np.any(c.values < 0):
            raise ParameterError("per-pixel coefficients must be >= 0")
        return c.values
    return float(c)


def validate_params(p: GvfParams) -> list[str]:
    """Return the list of violated scheme constraints (empty = ok).

    Per-pixel coefficients are checked through their pixelwise maxima;
    ggvf_solve checks the image-independent worst case g = 1, h = 0 of
    its pair instead.  Violations are data, not errors: a solve may
    force through them.
    """
    gmax = _coeff_max(p.g)
    hmax = _coeff_max(p.h)
    violations = []
    r = gmax * p.dt
    if not r < 0.25:
        violations.append(f"r < 1/4 violated: r = g*dt = {r:.6g}")
    if not gmax * p.dt < 1.0:
        violations.append(f"g*dt < 1 violated: g*dt = {gmax * p.dt:.6g}")
    if not hmax * p.dt < 1.0:
        violations.append(f"h*dt < 1 violated: h*dt = {hmax * p.dt:.6g}")
    if not hmax < gmax:
        violations.append(f"h < g violated: h = {hmax:.6g}, g = {gmax:.6g}")
    return violations


# --- the five-point stencil ---------------------------------------------------------

def _pad_mask(inside: np.ndarray) -> np.ndarray:
    """The mask inside a one-pixel False border (off-grid = exterior)."""
    padded = np.zeros((inside.shape[0] + 2, inside.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = inside
    return padded


def _neighbor_flags(inside: np.ndarray) -> tuple:
    """Per pixel, whether its x+1, x-1, y+1, y-1 neighbor is in the
    domain: four (H, W) views of the padded mask."""
    padded = _pad_mask(inside)
    return padded[1:-1, 2:], padded[1:-1, :-2], padded[2:, 1:-1], padded[:-2, 1:-1]


def _mirror_neighbors(padded: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Flat indices (4, n) into padded, the domain mask from _pad_mask,
    of the x+1, x-1, y+1, y-1 neighbors of the interior pixels at flat
    indices `at`, under the mirror rule: a neighbor outside the domain
    or off the grid is replaced by the pixel itself."""
    flat = padded.reshape(-1)
    nbrs = np.empty((4, at.size), dtype=np.intp)
    for a, step in enumerate(_neighbor_offsets(padded.shape[1])):
        nbrs[a] = at + step * flat[at + step]
    return nbrs


class _Buffer(NamedTuple):
    """A padded (2, H+2, W+2) field buffer and the views of it that the
    stencil reads or writes, all built once."""

    padded: np.ndarray
    span: np.ndarray      # the flat span holding every interior pixel
    flat: np.ndarray      # the whole buffer, flattened
    interior: np.ndarray  # the (2, H, W) field
    terms: tuple          # the four neighbor views of the span


class _Stencil:
    """Five-point stencil on both components of a field at once.

    The (2, H, W) field lives inside a padded (2, H+2, W+2) buffer, and
    the neighbor sum adds four shifted views of its flattened span in
    the order x+1, x-1, y+1, y-1 (grid._neighbor_terms).  There are two
    such buffers, and every view of them, the border index pairs and
    the planes squared_change adds are built once, in __init__: an
    iteration makes no view, reshape or slice.  On the full rectangle
    the one-pixel border is refreshed before each sum by one gather and
    one scatter, with edge values for the mirror rule or wrapped values
    for periodic borders.  On a masked domain the view sum is wrong only
    at mask.boundary() pixels, which count the grid border as exterior;
    one gather of a (4, 2n) table of their mirror-rule neighbors, summed
    in the same order and scattered back, overwrites it there.
    Coefficients are zero outside the domain (coeffs), so exterior
    pixels and the border stay exactly zero.

    All arithmetic runs on the contiguous span of the padded buffers
    that holds every interior pixel, border cells in between included.
    step() writes into the other buffer and swaps, so an iteration
    allocates nothing.  The span of every written buffer (neighbor sum,
    both fields, the coefficients) starts on a 64-byte cache line, since
    split stores cost about twice as much as aligned ones.
    """

    def __init__(self, mask: DomainMask, periodic: bool, field: VectorField):
        if periodic and not mask.is_full:
            raise ParameterError("periodic borders require the full-rectangle domain")
        self._spec = mask.spec
        hh, ww = mask.spec.shape
        shape = (2, hh + 2, ww + 2)
        # W+3 is the first flat element of the span (grid._span)
        self._nb = _aligned_zeros(shape, ww + 3)
        self._span = span = _span(self._nb)
        self._nb_flat = self._nb.reshape(-1)
        self._nb_span = self._nb_flat[span]
        self._nb_planes = (self._nb[0, 1:-1, 1:-1], self._nb[1, 1:-1, 1:-1])
        self._inside = None if mask.is_full else mask.inside
        self._cur, self._old = (
            _Buffer(b, b.reshape(-1)[span], b.reshape(-1), b[:, 1:-1, 1:-1], _neighbor_terms(b))
            for b in (_aligned_zeros(shape, span.start), _aligned_zeros(shape, span.start))
        )
        self.field[0] = field.u.values
        self.field[1] = field.v.values
        if mask.is_full:
            # flat indices of the border cells and of the pixels they copy
            index = np.arange(self._nb.size).reshape(shape)
            pairs = _border_views(index, periodic)
            self._border_at = np.concatenate([dst.ravel() for dst, _ in pairs])
            self._border_from = np.concatenate([src.ravel() for _, src in pairs])
            self._border_vals = np.empty(self._border_from.size)
        else:
            padded = _pad_mask(mask.inside)
            at = np.flatnonzero(_pad_mask(mask.boundary()))
            plane = padded.size
            self._fix_at = np.concatenate([at, at + plane])
            src = _mirror_neighbors(padded, at)
            self._fix_table = np.concatenate([src, src + plane], axis=1)
            self._fix_vals = np.empty(self._fix_table.shape)
            self._fix_rows = tuple(self._fix_vals)

    @property
    def field(self) -> np.ndarray:
        """The current (2, H, W) field, a view into the padded buffer."""
        return self._cur.interior

    def coeffs(self, g, h, dt: float, src: VectorField):
        """The coefficients of step() for g, h (scalars or ScalarFields)
        and the source field: keep = 1 - h*dt, hsrc = h*dt*src and
        rc = g*dt, zero outside the domain and on the border."""
        g = _coeff_grid(g, self._spec)
        hdt = _coeff_grid(h, self._spec) * dt
        hsrc = np.stack([hdt * src.u.values, hdt * src.v.values])
        return self._spread(1.0 - hdt), self._spread(hsrc), self._spread(g * dt)

    def _spread(self, a):
        """Span layout; on the full rectangle a scalar passes through."""
        if self._inside is None and np.ndim(a) == 0:
            return a
        out = _aligned_zeros(self._nb.shape, self._span.start)
        out[:, 1:-1, 1:-1] = a if self._inside is None else np.where(self._inside, a, 0.0)
        return out.reshape(-1)[self._span]

    def neighbor_sum(self) -> np.ndarray:
        """Padded four-neighbor sum of the current field (interior valid)."""
        # "clip" lets take write straight into out; every index is in range
        cur = self._cur
        if self._inside is None:
            cur.flat[self._border_at] = cur.flat.take(
                self._border_from, out=self._border_vals, mode="clip")
        _sum_terms(cur.terms, self._nb_span)
        if self._inside is not None:
            cur.flat.take(self._fix_table, out=self._fix_vals, mode="clip")
            rows = self._fix_rows
            self._nb_flat[self._fix_at] = _sum_terms(rows, rows[0])
        return self._nb

    def step(self, keep, hsrc, rc) -> None:
        """One explicit update keep*c + hsrc + rc*(nb - 4c) of the field,
        with hsrc = h*dt*grad_f; coefficients from coeffs()."""
        # the other buffer receives the new field; until then it is scratch
        old, new, nb = self._cur.span, self._old.span, self._nb_span
        self.neighbor_sum()
        np.multiply(old, 4.0, out=new)
        np.subtract(nb, new, out=nb)
        np.multiply(nb, rc, out=nb)
        np.multiply(old, keep, out=new)
        np.add(new, hsrc, out=new)
        np.add(new, nb, out=new)
        self._cur, self._old = self._old, self._cur

    def squared_change(self, out: np.ndarray) -> np.ndarray:
        """|v_new - v_old|^2 per pixel of the last step, into out (H, W);
        overwrites the neighbor sum."""
        d = np.subtract(self._cur.span, self._old.span, out=self._nb_span)
        np.multiply(d, d, out=d)
        return np.add(*self._nb_planes, out=out)


def _unstack(spec: GridSpec, values: np.ndarray) -> VectorField:
    return VectorField(ScalarField(spec, values[0].copy()), ScalarField(spec, values[1].copy()))


def _domain(mask: DomainMask | None, spec: GridSpec) -> DomainMask:
    """The mask, or the full rectangle for None; its grid must be spec."""
    if mask is None:
        return DomainMask.full(spec)
    if mask.spec != spec:
        raise DimensionError("mask grid does not match field grid")
    return mask


def gvf_step(
    v: VectorField,
    grad_f: VectorField,
    p: GvfParams,
    mask: DomainMask | None = None,
    periodic: bool = False,
) -> VectorField:
    """A single explicit update of v; exterior pixels stay untouched."""
    spec = v.spec
    if grad_f.spec != spec:
        raise DimensionError("field and gradient grids differ")
    mask = _domain(mask, spec)
    stencil = _Stencil(mask, periodic, v)
    stencil.step(*stencil.coeffs(p.g, p.h, p.dt, grad_f))
    out = _unstack(spec, stencil.field)
    for new, old in ((out.u.values, v.u.values), (out.v.values, v.v.values)):
        np.copyto(new, old, where=~mask.inside)
    return out


# a forced run may overflow, which the loop reports as a DivergenceError
@np.errstate(over="ignore", invalid="ignore")
def _iterate(source: VectorField, p: GvfParams, mask: DomainMask, periodic: bool):
    """Run the explicit iteration from v(0) = source until the largest
    per-pixel change drops below p.delta; shared by both solvers.

    source must be zero outside the domain."""
    spec = source.spec
    stencil = _Stencil(mask, periodic, source)
    coeffs = stencil.coeffs(p.g, p.h, p.dt, source)
    # the energy sums interior pixels only, in row-major order
    inside = None if mask.is_full else np.flatnonzero(mask.inside)
    sq = _aligned_zeros(spec.shape)
    # the calls of every iteration, bound once
    step, squared_change = stencil.step, stencil.squared_change
    sq_max, sq_sum, sq_take = sq.max, sq.sum, sq.take

    changes: list[float] = []
    energies: list[float] = []
    converged = False
    iterations = 0
    first_change = None
    for n in range(1, p.max_iter + 1):
        step(*coeffs)
        squared_change(sq)
        change = math.sqrt(float(sq_max()))
        energy = float(sq_sum() if inside is None else sq_take(inside).sum())
        iterations = n
        changes.append(change)
        energies.append(energy)
        if not math.isfinite(change):
            raise DivergenceError("non-finite values in the field", n)
        if first_change is None:
            first_change = change
        elif change > _DIVERGENCE_GROWTH * (first_change + 1e-300):
            raise DivergenceError(
                f"per-iteration change grew past {_DIVERGENCE_GROWTH:g} times its "
                f"initial value ({change:.3g} vs {first_change:.3g})",
                n,
            )
        if change < p.delta:
            converged = True
            break

    return SolveReport(
        field=_unstack(spec, stencil.field),
        iterations=iterations,
        converged=converged,
        change_history=np.asarray(changes),
        energy_history=np.asarray(energies),
        inside_count=mask.inside_count,
        params=p,
    )


def _masked_source(f: ScalarField, cap: float, mask: DomainMask) -> VectorField:
    """Capped gradient of the edge map, zeroed outside the domain."""
    grad = clamp_magnitude(gradient_central(f), cap)
    if not mask.is_full:
        grad.u.values[~mask.inside] = 0.0
        grad.v.values[~mask.inside] = 0.0
    return grad


def gvf_solve(
    f: ScalarField,
    p: GvfParams,
    mask: DomainMask | None = None,
    periodic: bool = False,
    force: bool = False,
) -> SolveReport:
    """Diffuse the capped gradient of f to (near) steady state.

    The magnitude cap applies to the gradient wherever it appears: the
    initial field and the reaction source are the same capped field.
    Raises ParameterError when the scheme constraints fail, unless
    force=True; divergence always raises.
    """
    spec = f.spec
    mask = _domain(mask, spec)
    violations = validate_params(p)
    if violations and not force:
        raise ParameterError("; ".join(violations))
    if np.any((_coeff_grid(p.g, spec) == 0) & (_coeff_grid(p.h, spec) == 0) & mask.inside):
        raise ParameterError("g and h both vanish at an interior pixel")
    return _iterate(_masked_source(f, p.cap, mask), p, mask, periodic)


def ggvf_weight(grad_f: VectorField, K: float) -> ScalarField:
    """Edge-sensitive diffusion weight exp(-|grad_f|^2 / K^2).

    Where the exponent overflows to -inf the weight is exp(-inf) = 0,
    the right limit, so that overflow is not reported.
    """
    _check_k(K)
    with np.errstate(over="ignore"):
        mag2 = grad_f.u.values ** 2 + grad_f.v.values ** 2
        return ScalarField(grad_f.spec, np.exp(-mag2 / (K * K)))


def _resolve(p: GgvfParams, source: VectorField) -> GvfParams:
    """The GvfParams a GGVF solve iterates: g = ggvf_weight(source, K)
    and h = 1 - g, from the capped source zeroed outside the domain."""
    weight = ggvf_weight(source, p.K)
    return GvfParams(
        g=weight, h=ScalarField(source.spec, 1.0 - weight.values),
        dt=p.dt, delta=p.delta, cap=p.cap, max_iter=p.max_iter,
    )


def ggvf_solve(
    f: ScalarField,
    p: GgvfParams,
    mask: DomainMask | None = None,
    periodic: bool = False,
    force: bool = False,
) -> SolveReport:
    """Edge-weighted variant: dv/dt = g(x) Lap(v) + (1 - g(x)) (grad_f - v).

    The weight g(x) is frozen from the (capped) initial gradient; near
    strong edges g ~ 0 pins the field to grad_f, far away g ~ 1 gives
    pure diffusion, which preserves forces inside thin concavities.
    The scheme constraints are checked for the worst case g = 1, h = 0,
    whatever the image; report.params holds the resolved pair.
    """
    spec = f.spec
    mask = _domain(mask, spec)
    violations = validate_params(GvfParams(g=1.0, h=0.0, dt=p.dt))
    if violations and not force:
        raise ParameterError("; ".join(violations) + " (GGVF worst case g = 1, h = 0)")
    source = _masked_source(f, p.cap, mask)
    return _iterate(source, _resolve(p, source), mask, periodic)


# --- steady-state oracles -----------------------------------------------------------


def _check_reaction(inside: np.ndarray, react: np.ndarray) -> None:
    """RankError unless every 4-connected component of the domain holds a
    pixel where react (h > 0) is set.

    On a component without reaction every row of the system sums to
    zero and couples only to the component, so any constant may be added
    there: the steady state is not unique.  The reach of the reaction
    pixels grows one neighbor step at a time until it stops; a pixel it
    never reaches lies on such a component.
    """
    reached = inside & react
    frontier = reached
    while frontier.any():
        east, west, down, up = _neighbor_flags(frontier)
        frontier = inside & ~reached & (east | west | down | up)
        reached |= frontier
    if not np.array_equal(reached, inside):
        raise RankError(
            "h vanishes on a whole connected part of the domain; "
            "the steady state is not unique"
        )


class _LineBlocks:
    """The steady-state system of a domain, factored by block elimination
    with one block per row of inside.

    Row i of the system reads diag_i x_i - sum_j c_i x_j = b_i, summed
    over the interior 4-neighbors j of pixel i (the flags of the padded
    mask), with c = g and diag = h + c * (their count).  Block k holds
    the interior pixels of grid row k, in row-major order, and couples
    only to rows k-1 and k+1: the system is block tridiagonal,

        -U_k x_{k-1} + D_k x_k - L_k x_{k+1} = b_k,

    with D_k tridiagonal and U_k, L_k holding at most one weight per row
    and column.  Block LU (Golub & Van Loan, Matrix Computations, 4.5)
    turns it into x_k = y_k + S_k^-1 L_k x_{k+1} with

        S_k = D_k - U_k S_{k-1}^-1 L_{k-1},   y_k = S_k^-1 (b_k + U_k y_{k-1}),

    and back substitution runs from the last row up.  The factorization
    keeps the S_k^-1 only, so solve() serves any right-hand side, both
    components at once.  Rows without interior pixels are empty blocks.
    With s_k interior pixels in row k it costs O(sum s_k^3) time and
    keeps sum s_k^2 doubles.
    """

    def __init__(self, inside: np.ndarray, c: np.ndarray, h: np.ndarray):
        east, west, below, above = (nb[inside] for nb in _neighbor_flags(inside))
        c = c[inside]
        self._diag = h[inside] + c * (east.astype(np.intp) + west + below + above)
        # weights to the x+1, x-1, y+1, y-1 neighbors: zero where that
        # neighbor is exterior, so every pixel may read a neighbor entry
        # unconditionally, at any valid index where there is none
        self._east, self._west, self._below, self._above = (
            c * flag for flag in (east, west, below, above))
        ys, xs = np.nonzero(inside)
        index = np.cumsum(inside).reshape(inside.shape) - 1
        self._above_at = index[ys - 1, xs]
        self._below_at = index[np.minimum(ys + 1, inside.shape[0] - 1), xs]
        # for U_k S_{k-1}^-1 L_{k-1}: the pixel above as a position in its
        # row, and the weight from above, c of that pixel
        above_in_row = (np.cumsum(inside, axis=1) - 1)[ys - 1, xs]
        from_above = c[self._above_at] * above

        starts = np.concatenate([[0], np.cumsum(inside.sum(axis=1))]).tolist()
        self._spans = list(zip(starts[:-1], starts[1:]))
        self._inverses = []
        inverse = np.zeros((0, 0))
        east, west, above = -self._east, -self._west, self._above[:, None]
        for lo, hi in self._spans:
            s = hi - lo
            S = np.zeros((s, s))
            S.flat[::s + 1] = self._diag[lo:hi]
            S.flat[1::s + 1] = east[lo:hi - 1]
            S.flat[s::s + 1] = west[lo + 1:hi]
            if len(inverse):
                j = above_in_row[lo:hi]
                S -= above[lo:hi] * from_above[lo:hi] * inverse.take(j, 0).take(j, 1)
            inverse = np.linalg.inv(S)
            self._inverses.append(inverse)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b, for b of shape (n, 2)."""
        x = np.zeros_like(b)
        above, above_at = self._above[:, None], self._above_at
        below, below_at = self._below[:, None], self._below_at
        for (lo, hi), inverse in zip(self._spans, self._inverses):
            x[lo:hi] = inverse @ (b[lo:hi] + above[lo:hi] * x[above_at[lo:hi]])
        for (lo, hi), inverse in zip(reversed(self._spans), reversed(self._inverses)):
            x[lo:hi] += inverse @ (below[lo:hi] * x[below_at[lo:hi]])
        return x

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x, for x of shape (n, 2)."""
        ax = (self._diag[:, None] * x - self._above[:, None] * x[self._above_at]
              - self._below[:, None] * x[self._below_at])
        ax[:-1] -= self._east[:-1, None] * x[1:]
        ax[1:] -= self._west[1:, None] * x[:-1]
        return ax


def direct_steady_solve(
    f: ScalarField, p: GvfParams, mask: DomainMask | None = None
) -> VectorField:
    """Exact steady state by block elimination; the brute-force oracle.

    Solves, per component and per interior pixel,

        (h + m*g) v_ij - g * sum(interior neighbors) = h * grad_f

    with m the number of interior neighbors (the mirror rule drops the
    others).  The unknowns of one grid line couple only to the lines
    next to it, so the system is block tridiagonal, and block LU
    (_LineBlocks) solves it with numpy.linalg alone, one dense inverse
    per line for both components.  The lines run along the axis that
    makes sum(s^3) over their interior counts s smaller: on a full
    W x H rectangle they cross the shorter side, for O(max(W, H) *
    min(W, H)^3) time and, at the 4096-pixel limit, at most 2 MiB of
    inverses.  Where g and h allow an ill-conditioned system, one step
    of iterative refinement restores the digits elimination loses.  The
    coefficients come from the mask's neighbor flags, not from the
    stencil's neighbor table, so the oracle shares no code with the
    solver it checks.  Limited to small test-scale domains.

    Raises RankError when the steady state is not unique: g and h both
    vanish at a pixel, or h vanishes on a whole connected component.
    """
    spec = f.spec
    mask = _domain(mask, spec)
    m = mask.inside_count
    if m > _ORACLE_LIMIT:
        raise SizeError(
            f"{m} interior pixels exceed the oracle limit of {_ORACLE_LIMIT}"
        )
    g = _coeff_grid(p.g, spec)
    h = _coeff_grid(p.h, spec)
    source = _masked_source(f, p.cap, mask)
    # every unknown lies in the bounding box of the domain
    ys, xs = np.nonzero(mask.inside)
    box = (slice(ys.min(), ys.max() + 1), slice(xs.min(), xs.max() + 1))
    inside = mask.inside[box]
    grids = np.stack([
        np.broadcast_to(a, spec.shape)[box]
        for a in (g, h, h * source.u.values, h * source.v.values)
    ])
    if np.any((grids[0] == 0) & (grids[1] == 0) & inside):
        raise RankError("g and h both vanish at an interior pixel")
    _check_reaction(inside, grids[1] > 0)

    # the stencil is symmetric in x and y, so the transposed system is
    # the same system, with lines along the other axis
    transpose = (inside.sum(axis=0) ** 3).sum() < (inside.sum(axis=1) ** 3).sum()
    if transpose:
        inside, grids = inside.T, grids.transpose(0, 2, 1)
    c, h, bu, bv = grids
    b = np.stack([bu[inside], bv[inside]], axis=1)
    try:
        system = _LineBlocks(inside, c, h)
    except np.linalg.LinAlgError:
        raise RankError("steady-state system is singular") from None
    x = system.solve(b)
    # Rows are diagonally dominant by h, so cond(A) <= (max h + 8 max c)
    # / min h (Varah's bound), and elimination loses about that many
    # digits where g spans decades more than h.  One step of iterative
    # refinement from the float64 residual wins them back.
    h_in = h[inside]
    if not h_in.max() + 8.0 * c[inside].max() <= _REFINE_ABOVE * h_in.min():
        x += system.solve(b - system.apply(x))
    if not np.all(np.isfinite(x)):
        raise RankError("steady-state system is singular")
    window = np.zeros((2,) + inside.shape)
    window[:, inside] = x.T
    out = np.zeros((2,) + spec.shape)
    out[:, box[0], box[1]] = window.transpose(0, 2, 1) if transpose else window
    return _unstack(spec, out)


@np.errstate(over="ignore")
def steady_residual(
    v: VectorField, f: ScalarField, p: GvfParams, mask: DomainMask | None = None
) -> float:
    """Largest interior residual |g*Lap(v) + h*(grad_f - v)|_2.

    Zero exactly at the steady state; one explicit step moves the field
    by dt times this quantity, so the fixed-point identity is exact.  A
    residual past the float range (g near 1e308, say) is inf.
    """
    spec = v.spec
    if f.spec != spec:
        raise DimensionError("field and edge map grids differ")
    mask = _domain(mask, spec)
    g = _coeff_grid(p.g, spec)
    h = _coeff_grid(p.h, spec)
    grad = _masked_source(f, p.cap, mask)
    source = np.stack([grad.u.values, grad.v.values])
    stencil = _Stencil(mask, False, v)
    c = stencil.field
    lap = stencil.neighbor_sum()[:, 1:-1, 1:-1] - 4.0 * c
    r = g * lap + h * (source - c)
    res_sq = r[0] * r[0] + r[1] * r[1]
    return math.sqrt(float(res_sq[mask.inside].max()))


# --- expansion consistency check ---------------------------------------------------

# Closed forms of the first four iterates as polynomials in the
# Laplacian applied to grad_f; a = g*dt, b = h*dt:
#   v(1) = grad_f + a L grad_f
#   v(2) = grad_f + a(2 - b) L grad_f + a^2 L^2 grad_f
#   v(3) = grad_f + a(3 - 3b + b^2) L + a^2 (3 - 2b) L^2 + a^3 L^3
#   v(4) = grad_f + a(4 - 6b + 4b^2 - b^3) L + a^2 (6 - 8b + 3b^2) L^2
#          + a^3 (4 - 3b) L^3 + a^4 L^4


def _expansion_coeffs(a: float, b: float, n: int) -> list[float]:
    if n == 1:
        return [1.0, a]
    if n == 2:
        return [1.0, a * (2 - b), a**2]
    if n == 3:
        return [1.0, a * (3 - 3 * b + b**2), a**2 * (3 - 2 * b), a**3]
    if n == 4:
        return [
            1.0,
            a * (4 - 6 * b + 4 * b**2 - b**3),
            a**2 * (6 - 8 * b + 3 * b**2),
            a**3 * (4 - 3 * b),
            a**4,
        ]
    raise ParameterError("expansion order must be in 1..4")


def expansion_check(f: ScalarField, p: GvfParams, n: int) -> float:
    """L-infinity gap between n explicit steps and the order-n closed form.

    Requires constant g, h and the full-rectangle domain; the closed
    forms start from the raw gradient, so the magnitude cap is ignored.
    The gap is zero (to rounding) when the step implements the scheme
    correctly, borders included.
    """
    if isinstance(p.g, ScalarField) or isinstance(p.h, ScalarField):
        raise ParameterError("expansion check supports constant coefficients only")
    if n not in (1, 2, 3, 4):
        raise ParameterError("expansion order must be in 1..4")
    spec = f.spec
    grad = gradient_central(f)
    coeffs = _expansion_coeffs(p.g * p.dt, p.h * p.dt, n)

    closed_u = np.zeros(spec.shape)
    closed_v = np.zeros(spec.shape)
    lap_u, lap_v = grad.u, grad.v
    for k, c in enumerate(coeffs):
        if k > 0:
            lap_u = laplacian_5pt(lap_u)
            lap_v = laplacian_5pt(lap_v)
        closed_u += c * lap_u.values
        closed_v += c * lap_v.values

    mask = DomainMask.full(spec)
    stepped = grad
    for _ in range(n):
        stepped = gvf_step(stepped, grad, p, mask)
    gap_u = np.abs(stepped.u.values - closed_u).max()
    gap_v = np.abs(stepped.v.values - closed_v).max()
    return float(max(gap_u, gap_v))
