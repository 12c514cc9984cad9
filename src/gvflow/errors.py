"""Exception types shared across the toolkit, and the checks that every
iteration cap and every real parameter share."""

import math
import numbers


class GvfError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(GvfError):
    """Grid too small for a stencil, or grids that must match do not."""


class ParameterError(GvfError):
    """Parameter value outside its documented range."""


def is_integer(n) -> bool:
    """Whether n is an integer; a bool is none."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def check_count(name: str, n) -> None:
    """ParameterError unless n is an integer >= 1."""
    if not is_integer(n) or n < 1:
        raise ParameterError(f"{name} must be an integer >= 1, got {n!r}")


def check_real(name: str, x, above: bool = False, inf: bool = False) -> float:
    """x as a float; ParameterError, naming the parameter, unless x is a
    real number >= 0 (> 0 if above), finite unless inf is allowed.  A
    real past the float range, such as 10**400, is refused as well."""
    try:
        v = float(x) if isinstance(x, numbers.Real) else math.nan
    except OverflowError:
        raise ParameterError(f"{name} is past the float range") from None
    if not ((v > 0 if above else v >= 0) and (inf or v < math.inf)):
        rule = ("" if inf else "finite and ") + ("> 0" if above else ">= 0")
        raise ParameterError(f"{name} must be {rule}, got {x!r}")
    return v


class DivergenceError(GvfError):
    """The explicit iteration blew up (non-finite values or unbounded growth)."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


class FormatError(GvfError):
    """Malformed file content."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class GeometryError(GvfError):
    """Degenerate contour, or a shape that does not fit its grid."""


class SizeError(GvfError):
    """Problem too large for the dense steady-state oracle."""


class RankError(GvfError):
    """Singular steady-state system (diffusion and reaction both vanish)."""
