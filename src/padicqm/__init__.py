"""Exact quantum propagators over the real and p-adic completions of Q.

The library evaluates, composes and verifies quadratic-action
path-integral kernels at every place of the rationals using exact
rational arithmetic, with an independent numerical Haar-measure oracle
for cross-checking at the p-adic places.  It has no runtime dependency
outside the standard library.
"""

from .analytic import PadicTruncation, cos_p, digits, sin_p, sqrt_p
from .characters import (
    Amplitude,
    Phase,
    chi,
    lambda_v,
    legendre,
)
from .dynamics import QuadraticActionForm, action_form_constant_field
from .errors import (
    DegenerateFormError,
    DegenerateIntervalError,
    DegenerateQuadraticError,
    DomainError,
    InputError,
    NonSquareError,
    OracleCapError,
    OutputLimitError,
    PadicqmError,
    PartitionError,
    PrecisionError,
    ZeroExpansionError,
)
from .gauss import (
    BallSpec,
    QuadraticCharacter,
    gauss_full,
    haar_oracle,
    minimal_resolution,
    quad_char_integral_ball,
    quadratic_char_fn,
    stabilization_threshold,
)
from .places import (
    Place,
    fractional_part,
    norm,
    valuation,
)
from .propagators import (
    OscillatorBoundaryData,
    PartitionSpec,
    SymbolicKernel,
    compose_kernels,
    desitter_action_form,
    finite_n_propagator,
    k_general_quadratic,
    k_oscillator_td,
    k_oscillator_td_real,
    oscillator_action_form,
    oscillator_precision,
    overlap_ball_integral,
    overlap_vanishing_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "Amplitude",
    "BallSpec",
    "OscillatorBoundaryData",
    "PadicTruncation",
    "PartitionSpec",
    "Phase",
    "Place",
    "QuadraticActionForm",
    "QuadraticCharacter",
    "SymbolicKernel",
    "action_form_constant_field",
    "chi",
    "compose_kernels",
    "cos_p",
    "desitter_action_form",
    "digits",
    "finite_n_propagator",
    "fractional_part",
    "gauss_full",
    "haar_oracle",
    "k_general_quadratic",
    "k_oscillator_td",
    "k_oscillator_td_real",
    "lambda_v",
    "legendre",
    "minimal_resolution",
    "norm",
    "oscillator_action_form",
    "oscillator_precision",
    "overlap_ball_integral",
    "overlap_vanishing_threshold",
    "quad_char_integral_ball",
    "quadratic_char_fn",
    "sin_p",
    "sqrt_p",
    "stabilization_threshold",
    "valuation",
    # errors
    "PadicqmError",
    "InputError",
    "ZeroExpansionError",
    "DegenerateQuadraticError",
    "DegenerateIntervalError",
    "DegenerateFormError",
    "PartitionError",
    "OracleCapError",
    "OutputLimitError",
    "DomainError",
    "NonSquareError",
    "PrecisionError",
]
