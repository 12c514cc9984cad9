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

One stencil operator (_Stencil) serves the iteration, gvf_step,
expansion_check and steady_residual, and grid.laplacian_5pt shares its
neighbor terms and their sum.  The explicit update lives in one generator
(_Stencil.steps), which makes its coefficients, binds its operands once
per solve and measures each step's change and energy; the solve,
gvf_step and expansion_check each make that one call and drive it.  An
iteration makes the numpy calls of its arithmetic, no method call of the
stencil and no attribute lookup but the swap of its two field buffers,
and no code outside the stencil reads its buffers.  On the stencil
one function (_steady_defect) defines h*src - A*v, A the steady-state
operator, for steady_residual and the direct oracle's refinement, both
on the domain's bounding box grown by one pixel, so their cost follows
the domain, not the grid.  Each plane of the field's (2, H, W) array
(grid.VectorField) sits between two zero rows of a (2, H+2, W) buffer,
and the neighbor sum is four shifted views of the buffer's flattened
span.  The stencil builds those views, and every other view an iteration
touches, once: on a small grid a solve's cost is numpy's per-call
overhead, so an iteration makes only the calls of its arithmetic.  The
views are right at every pixel whose four neighbors lie in the
domain.  For the others, the boundary pixels, one table (_border_table)
lists the four neighbors, each one outside the domain replaced by its
stand-in: the pixel itself under the mirror rule, the far end of its row
or column under periodic borders.  The grid border counts as outside, so
on every domain (the full rectangle, a mask, periodic borders) one
gather of that table and one reduction of it fix up the sum at the
boundary pixels, and a mask's exterior stays at zero.  Every sum adds
x+1, x-1, y+1, y-1 in that order (grid._neighbor_offsets), so all
results are reproducible to the last bit.  Every buffer the iteration
writes starts its written span on a 64-byte cache line
(grid._aligned_zeros): numpy aligns to 16 bytes only, and a ufunc whose
output is split across cache lines runs about half as fast.

A solve holds each full-size array once, and makes none that it does
not keep: the field, its spare, the neighbor sum (whose first plane
takes the squared change), the coefficients (_Stencil.coeffs) and a
GGVF solve's g and h.  The capped source, v(0), is freed once copied.

One step scales each cosine mode of the field by a_k = 1 - h*dt -
g*dt*lam_k, with lam_k in [0, 8) the stencil's symbol: with constant
coefficients the scheme is stable iff dt*(h + 8g) < 2, which is
r < 1/4 at h = 0 only.  validate_params carries the rule over to
per-pixel coefficients; its violations can be forced through, to
demonstrate divergence, but are never silent.

The generalized variant (GGVF) is the same solve with the per-pixel
pair g(x) = exp(-|grad_f|^2 / K^2), h(x) = 1 - g(x), frozen from the
initial gradient.  One branch of the one solve function (_solve) checks
a GgvfParams at the worst case g = 1, h = 0, whatever the image, and
resolves it to that GvfParams.

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
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    DivergenceError,
    ParameterError,
    RankError,
    SizeError,
    check_count,
    check_real,
)
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _aligned_zeros,
    _constant,
    _neighbor_offsets,
    _neighbor_terms,
    _term_sum,
    clamp_magnitude,
    gradient_central,
)
from .spectral import _modal_filter, _stencil_symbol

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
    # check_real refuses a K > 0 only past the float range
    k = check_real("K", K, inf=True) if isinstance(K, numbers.Real) and K > 0 else 0.0
    if not k * k > 0:
        raise ParameterError(f"K must be > 0 with K*K > 0, got K = {K!r}")


def _check_run(p) -> None:
    """The checks that GvfParams and GgvfParams share; cap = inf
    disables clamping."""
    check_real("dt", p.dt, above=True)
    check_real("delta", p.delta, above=True, inf=True)
    check_real("cap", p.cap, above=True, inf=True)
    check_count("max_iter", p.max_iter)


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
            if not isinstance(c, (numbers.Real, ScalarField)):
                raise ParameterError(
                    f"g and h must each be a real number or a ScalarField, got {name} = {c!r}")
            if not isinstance(c, ScalarField):
                check_real(name, c)
            elif np.any(c.values < 0):
                raise ParameterError(
                    f"per-pixel {name} must be >= 0, got a minimum of {c.values.min():g}")
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
        inside = np.full(spec.shape, outer is None)
        for rect, value in ((outer, True), (hole, False)):
            if rect is not None:
                x0, y0, w, h = rect
                x1, y1 = min(x0 + w, spec.width), min(y0 + h, spec.height)
                inside[max(y0, 0):max(y1, 0), max(x0, 0):max(x1, 0)] = value
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


def _coeff_grid(c: float | ScalarField, spec: GridSpec | None = None):
    """Per-pixel coefficient as an (H, W) array, on grid spec if one is
    given; scalars pass through.  GvfParams refuses negative values, but
    a ScalarField's array may be written after that, so each use checks
    again, with no full-grid temporary: fmin skips NaN, so its minimum
    is below zero exactly where some value is (-0.0 is not)."""
    if isinstance(c, ScalarField):
        if spec is not None and c.spec != spec:
            raise DimensionError("per-pixel coefficient grid does not match field grid")
        if np.fmin.reduce(c.values, axis=None) < 0:
            raise ParameterError("per-pixel coefficients must be >= 0")
        return c.values
    return float(c)


@np.errstate(over="ignore")
def _instability(g, h, dt: float) -> str | None:
    """validate_params' stability message for the coefficient grids g
    and h, or None where the rule holds."""
    gdt = g * dt
    # half the symbol's peak, at w = (pi, pi): a pixel's own weight in
    # its disc, and the sum of its four neighbours' weights
    half = _stencil_symbol(np.pi, np.pi) / 2.0
    decay = float(np.max(h * dt + half * (gdt + np.sqrt(gdt * (float(np.max(g)) * dt)))))
    if decay < 2.0:
        return None
    return (f"stability violated: dt*max(h + 4g + 4*sqrt(g*max g)) = {decay:.6g} >= 2 "
            f"(r < 1/4 at h = 0)")


@np.errstate(over="ignore")
def validate_params(p: GvfParams) -> list[str]:
    """Return the list of violated scheme constraints (empty = ok).

    Stability: diag(g)*Lap is similar to the symmetric sqrt(g) * Lap *
    sqrt(g), whose Gershgorin discs bound the decay rates h + g*lam of
    the modes by h_i + 4g_i + 4*sqrt(g_i * max g).  dt times that must
    stay below 2: dt*(h + 8g) < 2 for constants, and dt < 1/4 for the
    GGVF worst case g = 1, h = 0 that ggvf_solve checks.  The rule is
    evaluated on g*dt, which does not overflow where g does.  h*dt < 1
    and h < g take the maxima.  Violations are data, not errors: a
    solve may force through them.  A negative per-pixel value, written
    after p was built, is a ParameterError.
    """
    g, h = _coeff_grid(p.g), _coeff_grid(p.h)
    gmax, hmax = float(np.max(g)), float(np.max(h))
    unstable = _instability(g, h, p.dt)
    violations = [unstable] if unstable else []
    if not hmax * p.dt < 1.0:
        violations.append(f"h*dt < 1 violated: h*dt = {hmax * p.dt:.6g}")
    if not hmax < gmax:
        violations.append(f"h < g violated: h = {hmax:.6g}, g = {gmax:.6g}")
    return violations


# --- the five-point stencil ---------------------------------------------------------

def _neighbor_flags(inside: np.ndarray) -> tuple:
    """Per pixel, whether its x+1, x-1, y+1, y-1 neighbor is in the
    domain: four (H, W) views of the mask inside a False border (off the
    grid is outside)."""
    padded = np.pad(inside, 1)
    return padded[1:-1, 2:], padded[1:-1, :-2], padded[2:, 1:-1], padded[:-2, 1:-1]


def _border_table(mask: DomainMask, periodic: bool) -> tuple:
    """The border rule at the mask.boundary() pixels, as flat indices
    into one (H+2, W) buffer plane: the pixels' own, and a (4, n) table
    of their x+1, x-1, y+1, y-1 neighbors with each neighbor outside the
    domain replaced by its stand-in.  Under the mirror rule the stand-in
    is the pixel itself; under periodic borders, the far end of the
    pixel's row or column."""
    hh, ww = mask.spec.shape
    boundary = mask.boundary()
    # below the plane's zero row
    at = np.flatnonzero(boundary) + ww
    steps = np.array(_neighbor_offsets(ww))[:, None]
    # how many steps back from the pixel its stand-in lies
    back = np.array([ww - 1, ww - 1, hh - 1, hh - 1])[:, None] if periodic else 0
    inside = np.array([flag[boundary] for flag in _neighbor_flags(mask.inside)])
    return at, np.where(inside, at + steps, at - steps * back)


class _Buffer(NamedTuple):
    """A (2, H+2, W) field buffer's views that the stencil reads or
    writes, all built once."""

    span: np.ndarray      # the flat span holding every pixel of both planes
    flat: np.ndarray      # the whole buffer, flattened
    interior: np.ndarray  # the (2, H, W) field
    terms: tuple          # the four neighbor views of the span


class _Stencil:
    """Five-point stencil on both components of a field at once.

    Each (H, W) plane of the field lies between a zero pad row above and
    one below, in a (2, H+2, W) buffer, so each plane is contiguous.
    The neighbor sum adds four shifted views of the buffer's flat span,
    from the first pixel of the first plane to the last of the second,
    in the order x+1, x-1, y+1, y-1 (grid._neighbor_terms).  In column 0
    or W-1 the x-1 or x+1 view reads the next row over, and in row 0 or
    H-1 the y-1 or y+1 view reads a pad row; every such pixel is a
    boundary pixel, like every pixel next to a mask's exterior.  There
    one gather of a (4, 2n) table of the neighbors, stand-ins in place
    of the ones outside the domain (_border_table), summed in the same
    order by one reduction and scattered back, overwrites the sum: one
    border mechanism for the full rectangle, masks and periodic borders.
    The neighbor sum's buffer and the field's, their views and the table
    are built once, in __init__; steps() makes the spare field buffer.

    The explicit update is written once, in the generator steps(), which
    makes its coefficients (coeffs()), binds every operand of an iteration
    once per solve and measures each step: the squared change per pixel
    goes into the neighbor sum's buffer, and the step yields its max and
    domain sum.  Its callers drive it, one next() a step.  An iteration
    makes the numpy calls of its arithmetic, through the bound neighbor
    sum (_summer), and no method call of the stencil, view, reshape or
    slice; the only attributes it touches are the two field buffers, which
    it swaps.  All arithmetic runs on the span; the pad rows inside it,
    between the planes, hold scratch values that no result reads.
    Coefficients are zero outside a mask's domain (coeffs), so its
    exterior stays exactly zero.  A step writes into the other buffer and
    swaps, so an iteration allocates nothing.  The span of every written
    buffer (neighbor sum, both fields, the coefficients) starts on a
    64-byte cache line, since split stores cost about twice as much as
    aligned ones.
    """

    def __init__(self, mask: DomainMask, periodic: bool, field: np.ndarray):
        if periodic and not mask.is_full:
            raise ParameterError("periodic borders require the full-rectangle domain")
        self._spec = mask.spec
        hh, ww = mask.spec.shape
        shape, plane = (2, hh + 2, ww), (hh + 2) * ww
        self._span = span = slice(ww, 2 * plane - ww)
        self._nb = _aligned_zeros(shape, ww)
        self._nb_flat = self._nb.reshape(-1)
        self._nb_span = self._nb_flat[span]
        self._nb_field = self._nb[:, 1:-1]
        self._outside = None if mask.is_full else ~mask.inside
        self._cur, self._old = self._buffer(), None
        self.field[...] = field
        at, table = _border_table(mask, periodic)
        self._fix_at = np.concatenate([at, at + plane])
        self._fix_table = np.concatenate([table, table + plane], axis=1)
        self._fix_vals = np.empty(self._fix_table.shape)
        self._fix_sum = np.empty(self._fix_at.shape)

    def _buffer(self) -> _Buffer:
        """A zero (2, H+2, W) field buffer, span on a cache line, and its views."""
        ww = self._spec.width
        b = _aligned_zeros(self._nb.shape, ww)
        flat = b.reshape(-1)
        return _Buffer(flat[self._span], flat, b[:, 1:-1], _neighbor_terms(flat, self._span, ww))

    @property
    def field(self) -> np.ndarray:
        """The current (2, H, W) field, a view into its buffer."""
        return self._cur.interior

    def coeffs(self, g, h, dt: float, src: np.ndarray):
        """The coefficients of steps() for g, h (scalars or ScalarFields)
        and the (2, H, W) source src: keep = 1 - h*dt, hsrc = h*dt*src and
        rc = g*dt, zero outside the domain and in the pad rows.  Each is
        computed in its own span buffer; on the full rectangle a scalar
        keep or rc stays a scalar."""
        g, h = _coeff_grid(g, self._spec), _coeff_grid(h, self._spec)
        full = self._outside is None
        keep = (1.0 - h * dt if full and np.ndim(h) == 0 else self._span_buffer(
            lambda out: np.subtract(1.0, np.multiply(h, dt, out=out), out=out)))
        hsrc = self._span_buffer(
            lambda out: np.multiply(np.multiply(h, dt, out=out), src, out=out))
        rc = (g * dt if full and np.ndim(g) == 0 else self._span_buffer(
            lambda out: np.multiply(g, dt, out=out)))
        return keep, hsrc, rc

    def _span_buffer(self, fill) -> np.ndarray:
        """The span of a new coefficient buffer whose (2, H, W) interior
        fill(interior) writes, zeroed outside the domain."""
        out = _aligned_zeros(self._nb.shape, self._span.start)
        fill(out[:, 1:-1])
        if self._outside is not None:
            np.copyto(out[:, 1:-1], 0.0, where=self._outside)
        return out.reshape(-1)[self._span]

    def _summer(self, buf: _Buffer):
        """The four-neighbor sum of the field in buf, into the neighbor
        sum's span, as a call whose operands are bound."""
        term_sum, nb_flat, at = _term_sum(buf.terms, self._nb_span), self._nb_flat, self._fix_at
        take, table, vals = buf.flat.take, self._fix_table, self._fix_vals
        reduce, fixed = np.add.reduce, self._fix_sum

        def neighbor_sum() -> None:
            term_sum()
            # "clip" lets take write straight into out; every index is in range
            take(table, out=vals, mode="clip")
            # ((t0 + t1) + t2) + t3 to the bit from -0.0, the identity of +
            # (+0.0 + -0.0 is +0.0), so four -0.0 stand-ins sum to -0.0
            reduce(vals, axis=0, out=fixed, initial=-0.0)
            nb_flat[at] = fixed

        return neighbor_sum

    def neighbor_sum(self) -> np.ndarray:
        """The four-neighbor sum of the current field, a (2, H, W) view."""
        self._summer(self._cur)()
        return self._nb_field

    def steps(self, g, h, dt: float, src: np.ndarray):
        """The explicit update keep*c + hsrc + rc*(nb - 4c) of the field
        under g, h and dt, hsrc = h*dt*src for the (2, H, W) source src,
        with the coefficients of coeffs(): each next() makes one step and
        yields its change and energy, the largest per-pixel |v_new - v|_2
        and the sum of |v_new - v|_2^2 over the domain's pixels in
        row-major order.  The first next() makes the coefficients and the
        spare field buffer, which each step writes the new field into."""
        keep, hsrc, rc = self.coeffs(g, h, dt, src)
        keep, rc = (_constant(c) if np.ndim(c) == 0 else c for c in (keep, rc))
        self._old = self._buffer()
        four, multiply, subtract, add = _constant(4.0), np.multiply, np.subtract, np.add
        max_reduce, add_reduce, sqrt = np.maximum.reduce, np.add.reduce, math.sqrt
        nb = self._nb_span
        # the squared change per pixel goes into the neighbor sum's buffer,
        # free until the next step, and its planes are added into the
        # first; its max and sum are those of the flat plane, whose
        # reductions ndarray.max and sum run
        sq, sq_v = self._nb_field
        sq_flat = sq.reshape(-1)
        sq_take = sq_flat.take
        # a mask's energy sums its pixels only, taken into one buffer
        inside = None if self._outside is None else np.flatnonzero(~self._outside)
        taken = None if inside is None else np.empty(inside.size)
        sum_old, sum_new = self._summer(self._cur), self._summer(self._old)
        old, new = self._cur.span, self._old.span
        while True:
            # the other buffer receives the new field; until then it is scratch
            sum_old()
            multiply(old, four, out=new)
            subtract(nb, new, out=nb)
            multiply(nb, rc, out=nb)
            multiply(old, keep, out=new)
            add(new, hsrc, out=new)
            add(new, nb, out=new)
            self._cur, self._old = self._old, self._cur
            subtract(new, old, out=nb)
            multiply(nb, nb, out=nb)
            add(sq, sq_v, out=sq)
            # mode "clip" writes straight into the buffer, where "raise"
            # would copy it; every index is in range
            yield (sqrt(float(max_reduce(sq_flat))),
                   float(add_reduce(sq_flat) if inside is None
                         else add_reduce(sq_take(inside, out=taken, mode="clip"))))
            old, new, sum_old, sum_new = new, old, sum_new, sum_old


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
    stencil = _Stencil(mask, periodic, v.values)
    # the step's measures, unused here, square its change and may overflow
    with np.errstate(over="ignore"):
        next(stencil.steps(p.g, p.h, p.dt, grad_f.values))
    out = stencil.field.copy()
    np.copyto(out, v.values, where=~mask.inside)
    return VectorField(spec, out)


def _masked_source(f: ScalarField, cap: float, mask: DomainMask) -> VectorField:
    """Capped gradient of the edge map, zeroed outside the domain."""
    grad = clamp_magnitude(gradient_central(f), cap)
    if not mask.is_full:
        grad.values[:, ~mask.inside] = 0.0
    return grad


def _solve(f, p: GvfParams | GgvfParams, mask, periodic, force) -> SolveReport:
    """Both solvers: check p, then run the explicit iteration from v(0) =
    the masked source until the largest per-pixel change drops below
    p.delta.  A GgvfParams is checked at its worst case g = 1, h = 0 and
    resolves to the GvfParams iterated: g = ggvf_weight(source, K),
    h = 1 - g.  The source is freed once the stencil has copied it."""
    spec = f.spec
    mask = _domain(mask, spec)
    source = _masked_source(f, p.cap, mask)
    checked, suffix = p, ""
    if isinstance(p, GgvfParams):
        checked, suffix = GvfParams(g=1.0, h=0.0, dt=p.dt), " (GGVF worst case g = 1, h = 0)"
        weight = ggvf_weight(source, p.K)
        p = GvfParams(g=weight, h=ScalarField(spec, 1.0 - weight.values),
                      dt=p.dt, delta=p.delta, cap=p.cap, max_iter=p.max_iter)
    violations = validate_params(checked)
    if violations and not force:
        raise ParameterError("; ".join(violations) + suffix)
    if np.any((_coeff_grid(checked.g, spec) == 0) & (_coeff_grid(checked.h, spec) == 0)
              & mask.inside):
        raise ParameterError("g and h both vanish at an interior pixel")
    # a forced run may overflow, which the loop reports as a DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        stencil = _Stencil(mask, periodic, source.values)
        del source
        steps = stencil.steps(p.g, p.h, p.dt, stencil.field)
        changes: list[float] = []
        energies: list[float] = []
        converged, iterations, first_change = False, 0, None
        # the range comes first, so that no step runs past max_iter
        for n, (change, energy) in zip(range(1, p.max_iter + 1), steps):
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

    # the report's copy of the field is made without the coefficients,
    # which the generator's frame holds
    del steps
    return SolveReport(
        field=VectorField(spec, stencil.field.copy()),
        iterations=iterations,
        converged=converged,
        change_history=np.asarray(changes),
        energy_history=np.asarray(energies),
        inside_count=mask.inside_count,
        params=p,
    )


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
    return _solve(f, p, mask, periodic, force)


def ggvf_weight(grad_f: VectorField, K: float) -> ScalarField:
    """Edge-sensitive diffusion weight exp(-|grad_f|^2 / K^2).

    Where the exponent overflows to -inf the weight is exp(-inf) = 0,
    the right limit, so that overflow is not reported.
    """
    _check_k(K)
    with np.errstate(over="ignore"):
        mag2 = grad_f.u.values ** 2 + grad_f.v.values ** 2
        return ScalarField(grad_f.spec, np.exp(-mag2 / (K * K)))


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
    return _solve(f, p, mask, periodic, force)


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
    components at once.  Rows without interior pixels hold no block, and
    a row after one of them has U_k = 0.  With s_k interior pixels in row
    k it costs O(sum s_k^3) time and keeps sum s_k^2 doubles.
    """

    def __init__(self, inside: np.ndarray, c: np.ndarray, h: np.ndarray):
        east, west, below, above = (nb[inside] for nb in _neighbor_flags(inside))
        c = c[inside]
        diag = h[inside] + c * (east.astype(np.intp) + west + below + above)
        # weights to the x+1, x-1, y+1, y-1 neighbors: zero where that
        # neighbor is exterior, so every pixel may read a neighbor entry
        # unconditionally, at any valid index where there is none
        east, west, self._below, self._above = (c * flag for flag in (east, west, below, above))
        ys, xs = np.nonzero(inside)
        index = np.cumsum(inside).reshape(inside.shape) - 1
        self._above_at = index[ys - 1, xs]
        self._below_at = index[np.minimum(ys + 1, inside.shape[0] - 1), xs]
        # for U_k S_{k-1}^-1 L_{k-1}: the pixel above as a position in its
        # row, and the weight from above, c of that pixel
        above_in_row = (np.cumsum(inside, axis=1) - 1)[ys - 1, xs]
        from_above = c[self._above_at] * above

        counts = inside.sum(axis=1)
        ends = np.cumsum(counts)
        rows = np.flatnonzero(counts)
        self._spans = list(zip((ends - counts)[rows].tolist(), ends[rows].tolist()))
        self._inverses = []
        east, west, above = -east, -west, self._above[:, None]
        # whether the row kept before is the row above
        for (lo, hi), coupled in zip(self._spans, (np.diff(rows, prepend=-2) == 1).tolist()):
            s = hi - lo
            S = np.zeros((s, s))
            S.flat[::s + 1] = diag[lo:hi]
            S.flat[1::s + 1] = east[lo:hi - 1]
            S.flat[s::s + 1] = west[lo + 1:hi]
            if coupled:
                j = above_in_row[lo:hi]
                S -= above[lo:hi] * from_above[lo:hi] * self._inverses[-1].take(j, 0).take(j, 1)
            self._inverses.append(np.linalg.inv(S))

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


def _bounding_box(inside: np.ndarray) -> tuple[slice, slice]:
    """The domain's bounding box grown by one pixel, and to at least 3
    pixels a side, clipped to the grid.  The central differences at the
    domain's pixels read only pixels in it, and at the grid border edge
    padding agrees, so the gradient there is the full grid's."""
    box = []
    for axis, n in ((1, inside.shape[0]), (0, inside.shape[1])):
        at = np.flatnonzero(inside.any(axis=axis))
        lo = max(min(int(at[0]) - 1, n - 3), 0)
        box.append(slice(lo, min(max(int(at[-1]) + 2, lo + 3), n)))
    return box[0], box[1]


def _box_problem(f: ScalarField, p: GvfParams, mask: DomainMask) -> tuple:
    """The problem on the domain's box (_bounding_box): the box, the domain
    on it, g and h (checked on the full grid, then cropped) and the masked
    source of the cropped edge map, the full grid's at the domain."""
    box = _bounding_box(mask.inside)
    g, h = (c if np.ndim(c) == 0 else c[box]
            for c in (_coeff_grid(p.g, f.spec), _coeff_grid(p.h, f.spec)))
    edges = ScalarField.from_array(f.values[box])
    domain = DomainMask(edges.spec, mask.inside[box])
    return box, domain, g, h, _masked_source(edges, p.cap, domain)


def _steady_defect(v, src: np.ndarray, g, h, domain: DomainMask, periodic: bool) -> np.ndarray:
    """h*src - A*v = g*(nb - 4v) + h*(src - v) into src, A = diag(h) -
    diag(g)*Lap the steady-state operator, for the (2, H, W) field v on
    the grid of domain; right at the domain's pixels."""
    stencil = _Stencil(domain, periodic, v)
    c, nb = stencil.field, stencil.neighbor_sum()
    # in place, in src and the neighbor sum, from the operands of every step
    np.multiply(h, np.subtract(src, c, out=src), out=src)
    np.subtract(nb, np.multiply(c, 4.0, out=c), out=nb)
    return np.add(np.multiply(g, nb, out=nb), src, out=src)


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
    of iterative refinement from steady_residual's operator restores
    the digits elimination loses.  The coefficients come from the mask's
    neighbor flags, _neighbor_flags, which the solver's _border_table
    reads too; the tests' pixel-by-pixel scipy assembly checks both.
    Limited to small test-scale domains.

    Raises RankError when the steady state is not unique: g and h both
    vanish at a pixel, or h vanishes on a whole connected component.
    """
    mask = _domain(mask, f.spec)
    if (m := mask.inside_count) > _ORACLE_LIMIT:
        raise SizeError(f"{m} interior pixels exceed the oracle limit of {_ORACLE_LIMIT}")
    box, domain, g, h, source = _box_problem(f, p, mask)
    inside = domain.inside
    g_grid, h_grid = (np.broadcast_to(c, inside.shape) for c in (g, h))
    if np.any((g_grid == 0) & (h_grid == 0) & inside):
        raise RankError("g and h both vanish at an interior pixel")
    _check_reaction(inside, h_grid > 0)

    # the stencil is symmetric in x and y, so the transposed system is
    # the same system, with lines along the other axis
    transpose = (inside.sum(axis=0) ** 3).sum() < (inside.sum(axis=1) ** 3).sum()
    # the domain's pixels in the system's line order, as indices of the box
    at = (slice(None),) + (np.nonzero(inside.T)[::-1] if transpose else np.nonzero(inside))
    try:
        system = _LineBlocks(*(a.T if transpose else a for a in (inside, g_grid, h_grid)))
    except np.linalg.LinAlgError:
        raise RankError("steady-state system is singular") from None
    x = system.solve((h * source.values)[at].T.copy())
    # Rows are diagonally dominant by h, so cond(A) <= (max h + 8 max g)
    # / min h (Varah's bound), and elimination loses about that many
    # digits where g spans decades more than h.  One step of iterative
    # refinement from the float64 residual h*src - A*x wins them back.
    h_in = h_grid[inside]
    if not h_in.max() + 8.0 * g_grid[inside].max() <= _REFINE_ABOVE * h_in.min():
        v = np.zeros((2,) + inside.shape)
        v[at] = x.T
        x += system.solve(_steady_defect(v, source.values, g, h, domain, False)[at].T)
    if not np.all(np.isfinite(x)):
        raise RankError("steady-state system is singular")
    out = np.zeros((2,) + f.spec.shape)
    out[(slice(None),) + box][at] = x.T
    return VectorField(f.spec, out)


@np.errstate(over="ignore")
def steady_residual(
    v: VectorField, f: ScalarField, p: GvfParams, mask: DomainMask | None = None,
    periodic: bool = False,
) -> float:
    """Largest interior residual |g*Lap(v) + h*(grad_f - v)|_2.

    Lap is the solvers' stencil under the same border rule: mirrored, or
    wrapped for periodic=True, which the solvers allow on the full
    rectangle only, whose box is the grid.  Zero exactly at the steady
    state; one explicit step moves the field by dt times this quantity, so
    the fixed-point identity is exact.  A residual past the float range (g
    near 1e308, say) is inf.  It is h*grad_f - A*v (_steady_defect) on the
    domain's box (_box_problem), as in direct_steady_solve's refinement:
    its cost follows the domain, with the full grid's bits.
    """
    if f.spec != v.spec:
        raise DimensionError("field and edge map grids differ")
    mask = _domain(mask, v.spec)
    box, domain, g, h, source = _box_problem(f, p, mask)
    r = _steady_defect(v.values[(slice(None),) + box], source.values, g, h, domain, periodic)
    np.multiply(r, r, out=r)
    res_sq = np.add(r[0], r[1], out=r[0])
    return math.sqrt(float(np.max(res_sq, where=domain.inside, initial=-np.inf)))


# --- expansion consistency check ---------------------------------------------------


def expansion_check(f: ScalarField, p: GvfParams, n: int) -> float:
    """L-infinity gap between n >= 1 explicit steps and their closed form.

    A step scales mode k of the mirror rule (spectral._modal_filter) by
    a_k = 1 - h*dt - g*dt*lam_k, lam_k the stencil's symbol
    (spectral._stencil_symbol), and adds h*dt times the source's mode,
    so n steps from v(0) = grad_f have the gain

        a_k^n + h*dt * sum_{j<n} a_k^j = a_k^n + h*dt * (1 - a_k^n) / (1 - a_k).

    The closed form shares no code with the stencil.  Requires constant
    g, h and the full-rectangle domain; it starts from the raw gradient,
    so the magnitude cap is ignored.  A set that breaks validate_params'
    stability rule is a ParameterError with its message, raised before
    the first step: its modes grow without bound.  Sets that break only
    h*dt < 1 or h < g are checked.  The gap is zero (to rounding) when
    the step implements the scheme correctly, borders included.
    """
    if isinstance(p.g, ScalarField) or isinstance(p.h, ScalarField):
        raise ParameterError("expansion check supports constant coefficients only")
    check_count("expansion order n", n)
    unstable = _instability(p.g, p.h, p.dt)
    if unstable:
        raise ParameterError(unstable)
    grad = gradient_central(f)
    stencil = _Stencil(DomainMask.full(f.spec), False, grad.values)
    # the steps' measures, unused here, square their change and may overflow
    with np.errstate(over="ignore"):
        for _ in zip(range(n), stencil.steps(p.g, p.h, p.dt, grad.values)):
            pass

    hdt = p.h * p.dt

    def gain(w1, w2):
        # 1 - a_k >= h*dt, so the division is safe wherever h > 0
        decay = hdt + p.g * p.dt * _stencil_symbol(w1, w2)
        power = (1.0 - decay) ** n
        return power + hdt * (1.0 - power) / decay if hdt > 0 else power

    closed = _modal_filter(grad.values, False, gain)
    return float(np.abs(stencil.field - closed).max())
