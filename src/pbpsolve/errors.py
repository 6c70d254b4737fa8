"""Error types shared by all pbpsolve modules.

Two failure categories are distinguished: configuration errors (a caller
asked for something outside an operation's contract, e.g. an out-of-range
quadrature order or an unconverged solve handed to a consumer that requires
convergence) and numeric errors (a computation produced or encountered a
non-finite or otherwise unusable value at run time).
"""


class ConfigurationError(ValueError):
    """A precondition on inputs or configuration was violated."""


class NumericError(ArithmeticError):
    """A numeric evaluation failed (non-finite value, missing bracket, ...)."""


class ResolutionError(NumericError, ConfigurationError):
    """No grid within the stated bounds resolves the requested parameters.

    It is a numeric limit that the caller's configuration meets before any
    arithmetic, so it is a configuration error as well."""
