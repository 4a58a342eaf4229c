"""Exception and warning types shared across the package."""


class WbidentError(Exception):
    """Base class for all package errors."""


class PoleError(WbidentError):
    """Function evaluated at a pole (e.g. gamma at a nonpositive integer)."""


class ConvergenceError(WbidentError):
    """A series or quadrature failed to converge within its configured budget."""


class DegenerateParameterError(WbidentError):
    """Parameters fall on a degenerate manifold where the formula is invalid
    (e.g. the Whittaker connection formula with 2*mu a nonzero integer)."""


class InputError(WbidentError, ValueError):
    """An argument lies outside the domain an operation accepts (a bad
    order, grid, parameter or configuration); the CLI exits 2 on it."""


class InvariantViolationError(WbidentError):
    """A constructed object violated one of its defining invariants; this
    usually signals a convention or transcription failure upstream."""


class NearDegeneracyWarning(UserWarning):
    """Parameters are close enough to a degenerate manifold that severe
    cancellation is expected."""
