"""Gradient vector flow toolkit: diffused external-force fields,
steady-state oracles, and snaxel snakes for 2D boundary extraction."""

from .errors import (
    DimensionError,
    DivergenceError,
    FormatError,
    GeometryError,
    GvfError,
    ParameterError,
    RankError,
    SizeError,
)
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    clamp_magnitude,
    edge_map,
    gaussian_smooth,
    gradient_central,
    laplacian_5pt,
)
from .snake import (
    Snake,
    SnakeParams,
    SnakeResult,
    resample_contour,
    sample_field_bilinear,
    snake_evolve,
    tensile_force,
)
from .solver import (
    DomainMask,
    GgvfParams,
    GvfParams,
    SolveReport,
    direct_steady_solve,
    expansion_check,
    ggvf_solve,
    ggvf_weight,
    gvf_solve,
    gvf_step,
    steady_residual,
    validate_params,
)
from .spectral import (
    parseval_energy,
    spectral_steady_state,
    transfer_gain,
)

__version__ = "0.1.0"
