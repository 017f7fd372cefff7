"""Exception hierarchy for the padicqm library.

The table in :mod:`padicqm.cli` gives the exit code of each class.
"""


class PadicqmError(Exception):
    """Base class for all library errors."""


class InputError(PadicqmError, ValueError):
    """An argument outside the function's domain; also a ValueError, for callers that catch one."""


class ZeroExpansionError(PadicqmError):
    """Zero has no canonical digit expansion."""


class DegenerateQuadraticError(PadicqmError):
    """The quadratic coefficient of a Gauss integral is zero.

    The full-line integral diverges; use a ball-restricted character
    integral instead.
    """


class DegenerateIntervalError(PadicqmError):
    """A time interval of length zero was supplied."""


class DegenerateFormError(PadicqmError):
    """A quadratic action form with vanishing mixed partial was supplied."""


class PartitionError(PadicqmError):
    """A time partition has fewer than two points, or repeats one."""


class OracleCapError(PadicqmError):
    """A coset enumeration would exceed the cap ``gauss.COSET_CAP``."""


class OutputLimitError(PadicqmError):
    """A resource limit: an input over its bound, or an output field too long to write."""


class DomainError(PadicqmError):
    """Argument outside the convergence domain of a p-adic power series,
    or a nonzero rational outside the normal float range of a float route."""


class NonSquareError(PadicqmError):
    """The argument has no square root in Q_p."""


class PrecisionError(PadicqmError):
    """The working precision cannot pin the requested quantity."""
