"""Explicit diffusion-reaction solvers for gradient vector flow fields.

The field v = (u, v) evolves under

    dv/dt = g * Lap(v) + h * (grad_f - v),        v(x, 0) = grad_f,

where grad_f is the (optionally magnitude-capped) gradient of an edge
map f, and g, h are nonnegative diffusion/reaction coefficients, either
constants or per-pixel fields.  One explicit Jacobi step reads

    v_new = (1 - h*dt) * v + h*dt * grad_f + r * (nb_sum - 4 * v),

with r = g*dt/(dx*dy) and nb_sum the four-neighbor sum.  Neighbors that
leave the domain are mirrored onto the center pixel (zero-flux rule),
both at the grid border and at the boundary of a masked domain; a
periodic variant wraps instead and backs the spectral oracle.

One stencil operator (_Stencil) serves the iteration, gvf_step and
steady_residual, and grid.laplacian_5pt shares its neighbor sum.  Both
components sit in one (2, H, W) array inside a padded buffer, and the
neighbor sum is four shifted slices of it.  On the full rectangle the
one-pixel border is refreshed before each sum: edge values give the
mirror rule, wrapped values the periodic border.  On a masked domain a
small gather fixes up the sum at the boundary pixels only, and the
exterior stays at zero.  Every sum adds x+1, x-1, y+1, y-1 in that
order, so all results are reproducible to the last bit.  Every buffer
the iteration writes starts its written span on a 64-byte cache line
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
approximate steady state; two independent oracles (a direct sparse
solve and, for periodic borders, a Fourier-domain solution) pin it
down exactly.  The direct solve imports scipy.sparse when it is called,
not with this module, so only a caller of the oracle loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    _neighbor_sum,
    _span,
    clamp_magnitude,
    gradient_central,
    laplacian_5pt,
)

# A run is declared divergent once the per-iteration change grows this
# many times past its first value; the checkerboard mode of an unstable
# run crosses it long before float overflow.
_DIVERGENCE_GROWTH = 1e12

_DENSE_ORACLE_LIMIT = 4096


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
        if not self.K > 0:
            raise ParameterError("K must be > 0")
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
        padded = _pad_mask(self.inside)
        nb_all = (
            padded[1:-1, 2:] & padded[1:-1, :-2] & padded[2:, 1:-1] & padded[:-2, 1:-1]
        )
        return self.inside & ~nb_all


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an explicit solve.

    change_history[n] is the largest per-pixel step |v^{n+1} - v^n|_2 of
    iteration n+1; energy_history[n] is the cell-area-weighted sum of
    squared steps of that iteration.  params are the coefficients the
    solve iterated; for GGVF, the resolved per-pixel pair.
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


def validate_params(p: GvfParams, spec: GridSpec) -> list[str]:
    """Return the list of violated scheme constraints (empty = ok).

    Per-pixel coefficients are checked through their pixelwise maxima;
    ggvf_solve checks the image-independent worst case g = 1, h = 0 of
    its pair instead.  Violations are data, not errors: a solve may
    force through them.
    """
    gmax = _coeff_max(p.g)
    hmax = _coeff_max(p.h)
    area = spec.cell_area
    violations = []
    r = gmax * p.dt / area
    if not r < 0.25:
        violations.append(f"r < 1/4 violated: r = g*dt/(dx*dy) = {r:.6g}")
    if not gmax * p.dt < 1.0:
        violations.append(f"g*dt < 1 violated: g*dt = {gmax * p.dt:.6g}")
    if not hmax * p.dt < 1.0:
        violations.append(f"h*dt < 1 violated: h*dt = {hmax * p.dt:.6g}")
    if not hmax < gmax:
        violations.append(f"h < g violated: h = {hmax:.6g}, g = {gmax:.6g}")
    if spec.dx != 1.0 or spec.dy != 1.0:
        violations.append(
            f"dx = dy = 1 required by the stencil, got dx = {spec.dx}, dy = {spec.dy}"
        )
    return violations


# --- the five-point stencil ---------------------------------------------------------

def _pad_mask(inside: np.ndarray) -> np.ndarray:
    """The mask inside a one-pixel False border (off-grid = exterior)."""
    padded = np.zeros((inside.shape[0] + 2, inside.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = inside
    return padded


def _mirror_neighbors(padded: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Flat indices (4, n) into padded, the domain mask from _pad_mask,
    of the x+1, x-1, y+1, y-1 neighbors of the interior pixels at flat
    indices `at`, under the mirror rule: a neighbor outside the domain
    or off the grid is replaced by the pixel itself."""
    flat = padded.reshape(-1)
    nbrs = np.empty((4, at.size), dtype=np.intp)
    for a, step in enumerate((1, -1, padded.shape[1], -padded.shape[1])):
        nbrs[a] = at + step * flat[at + step]
    return nbrs


class _Stencil:
    """Five-point stencil on both components of a field at once.

    The (2, H, W) field lives inside a padded (2, H+2, W+2) buffer, and
    the neighbor sum is grid._neighbor_sum: four shifted slices of the
    flattened buffer, added x+1, x-1, y+1, y-1.  On the full rectangle
    the one-pixel border is refreshed before each sum, with edge values
    for the mirror rule or wrapped values for periodic borders.  On a
    masked domain the slice sum is wrong only at mask.boundary() pixels,
    which count the grid border as exterior; a small gather in the same
    order overwrites it there.  Coefficients are zero outside the domain
    (coeffs), so exterior pixels and the border stay exactly zero.

    All arithmetic runs on the contiguous span of the padded buffers
    that holds every interior pixel, border cells in between included.
    step() writes into a second buffer and swaps, so an iteration
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
        # per field buffer: padded array, its span, its interior, its border views
        self._cur, self._old = (
            (b, b.reshape(-1)[span], b[:, 1:-1, 1:-1], _border_views(b, periodic))
            for b in (_aligned_zeros(shape, span.start), _aligned_zeros(shape, span.start))
        )
        self.field[0] = field.u.values
        self.field[1] = field.v.values
        self._nb_span = self._nb.reshape(-1)[span]
        self._inside = None
        if not mask.is_full:
            self._inside = mask.inside
            padded = _pad_mask(mask.inside)
            at = np.flatnonzero(_pad_mask(mask.boundary()))
            src = _mirror_neighbors(padded, at)
            plane = padded.size
            self._fix_at = np.concatenate([at, at + plane])
            self._fix_from = tuple(np.concatenate([s, s + plane]) for s in src)

    @property
    def field(self) -> np.ndarray:
        """The current (2, H, W) field, a view into the padded buffer."""
        return self._cur[2]

    def coeffs(self, g, h, dt: float, src: VectorField):
        """The coefficients of step() for g, h (scalars or ScalarFields)
        and the source field: keep = 1 - h*dt, hsrc = h*dt*src and
        rc = g*dt/(dx*dy), zero outside the domain and on the border."""
        g = _coeff_grid(g, self._spec)
        hdt = _coeff_grid(h, self._spec) * dt
        hsrc = np.stack([hdt * src.u.values, hdt * src.v.values])
        return (self._spread(1.0 - hdt), self._spread(hsrc),
                self._spread(g * dt / self._spec.cell_area))

    def _spread(self, a):
        """Span layout; on the full rectangle a scalar passes through."""
        if self._inside is None and np.ndim(a) == 0:
            return a
        out = _aligned_zeros(self._nb.shape, self._span.start)
        out[:, 1:-1, 1:-1] = a if self._inside is None else np.where(self._inside, a, 0.0)
        return out.reshape(-1)[self._span]

    def neighbor_sum(self) -> np.ndarray:
        """Padded four-neighbor sum of the current field (interior valid)."""
        buf, _, _, border = self._cur
        if self._inside is None:
            for dst, src in border:
                np.copyto(dst, src)
        _neighbor_sum(buf, out=self._nb)
        if self._inside is not None:
            flat = buf.reshape(-1)
            t0, t1, t2, t3 = self._fix_from
            self._nb.reshape(-1)[self._fix_at] = flat[t0] + flat[t1] + flat[t2] + flat[t3]
        return self._nb

    def step(self, keep, hsrc, rc) -> None:
        """One explicit update keep*c + hsrc + rc*(nb - 4c) of the field,
        with hsrc = h*dt*grad_f; coefficients from coeffs()."""
        # the other buffer receives the new field; until then it is scratch
        old, new, nb = self._cur[1], self._old[1], self._nb_span
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
        d = np.subtract(self._cur[1], self._old[1], out=self._nb_span)
        np.multiply(d, d, out=d)
        return np.add(self._nb[0, 1:-1, 1:-1], self._nb[1, 1:-1, 1:-1], out=out)


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


def _iterate(source: VectorField, p: GvfParams, mask: DomainMask, periodic: bool):
    """Run the explicit iteration from v(0) = source until the largest
    per-pixel change drops below p.delta; shared by both solvers.

    source must be zero outside the domain."""
    spec = source.spec
    area = spec.cell_area
    stencil = _Stencil(mask, periodic, source)
    coeffs = stencil.coeffs(p.g, p.h, p.dt, source)
    # the energy sums interior pixels only, in row-major order
    inside = None if mask.is_full else np.flatnonzero(mask.inside)
    sq = _aligned_zeros(spec.shape)

    changes: list[float] = []
    energies: list[float] = []
    converged = False
    iterations = 0
    first_change = None
    for n in range(1, p.max_iter + 1):
        stencil.step(*coeffs)
        stencil.squared_change(sq)
        change = math.sqrt(float(sq.max()))
        energy = float((sq if inside is None else sq.take(inside)).sum()) * area
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
    violations = validate_params(p, spec)
    if violations and not force:
        raise ParameterError("; ".join(violations))
    if np.any((_coeff_grid(p.g, spec) == 0) & (_coeff_grid(p.h, spec) == 0) & mask.inside):
        raise ParameterError("g and h both vanish at an interior pixel")
    return _iterate(_masked_source(f, p.cap, mask), p, mask, periodic)


def ggvf_weight(grad_f: VectorField, K: float) -> ScalarField:
    """Edge-sensitive diffusion weight exp(-|grad_f|^2 / K^2)."""
    if not K > 0:
        raise ParameterError("K must be > 0")
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
    violations = validate_params(GvfParams(g=1.0, h=0.0, dt=p.dt), spec)
    if violations and not force:
        raise ParameterError("; ".join(violations) + " (GGVF worst case g = 1, h = 0)")
    source = _masked_source(f, p.cap, mask)
    return _iterate(source, _resolve(p, source), mask, periodic)


# --- steady-state oracles -----------------------------------------------------------


def direct_steady_solve(
    f: ScalarField, p: GvfParams, mask: DomainMask | None = None
) -> VectorField:
    """Exact steady state by sparse elimination; the brute-force oracle.

    Solves, per component and per interior pixel,

        (h + m*g/(dx*dy)) v_ij - (g/(dx*dy)) * sum(interior neighbors) = h * grad_f

    with m the number of interior neighbors (the mirror rule drops the
    others).  Limited to small test-scale domains.
    """
    # imported here so that importing gvflow does not load scipy
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    spec = f.spec
    mask = _domain(mask, spec)
    center = np.flatnonzero(mask.inside)
    m = center.size
    if m > _DENSE_ORACLE_LIMIT:
        raise SizeError(
            f"{m} interior pixels exceed the oracle limit of {_DENSE_ORACLE_LIMIT}"
        )
    g_in = np.broadcast_to(_coeff_grid(p.g, spec), spec.shape).ravel()[center]
    h_in = np.broadcast_to(_coeff_grid(p.h, spec), spec.shape).ravel()[center]
    if np.any((g_in == 0) & (h_in == 0)):
        raise RankError("g and h both vanish at an interior pixel")
    if not np.any(h_in > 0):
        raise RankError("h vanishes everywhere; the steady state is not unique")

    # the neighbor table indexes the padded mask, whose interior pixels
    # come in the same row-major order as center
    padded = _pad_mask(mask.inside)
    at = np.flatnonzero(padded)
    nbrs = _mirror_neighbors(padded, at)
    pos = np.full(padded.size, -1, dtype=np.intp)
    pos[at] = np.arange(m)
    area = spec.cell_area
    rows = [np.arange(m)]
    cols = [np.arange(m)]
    # mirrored neighbors cancel out of the Laplacian, so the diagonal
    # counts only true interior neighbors
    m_count = (nbrs != at[None, :]).sum(axis=0)
    vals = [h_in + g_in * m_count / area]
    for a in range(4):
        real = nbrs[a] != at
        rows.append(np.nonzero(real)[0])
        cols.append(pos[nbrs[a][real]])
        vals.append(-g_in[real] / area)
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
    )

    source = _masked_source(f, p.cap, mask)
    out = VectorField.zeros(spec)
    for comp, target in ((source.u, out.u), (source.v, out.v)):
        b = h_in * comp.values.ravel()[center]
        x = spsolve(A, b)
        if not np.all(np.isfinite(x)):
            raise RankError("steady-state system is singular")
        flat = target.values.ravel()
        flat[center] = x
        target.values = flat.reshape(spec.shape)
    return out


def steady_residual(
    v: VectorField, f: ScalarField, p: GvfParams, mask: DomainMask | None = None
) -> float:
    """Largest interior residual |g*Lap(v) + h*(grad_f - v)|_2.

    Zero exactly at the steady state; one explicit step moves the field
    by dt times this quantity, so the fixed-point identity is exact.
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
    lap = (stencil.neighbor_sum()[:, 1:-1, 1:-1] - 4.0 * c) / spec.cell_area
    r = g * lap + h * (source - c)
    res_sq = r[0] * r[0] + r[1] * r[1]
    worst = math.sqrt(float(res_sq[mask.inside].max()))
    return worst


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
