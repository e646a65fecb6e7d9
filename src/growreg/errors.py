"""Exception hierarchy shared across the package.

Two branches matter to callers: ``InputError`` covers anything wrong with
user-supplied data (configs, plan strings, matrices, flag values, a ramp
over budget) and maps to CLI exit code 2; ``ExecutionError`` covers
failures of a valid run (divergence, singular systems, protocol
violations) and maps to exit code 3. Tolerance failures in verification
commands use exit code 4 without a dedicated exception.
"""


class GrowRegError(Exception):
    """Base class for all package errors."""


class InputError(GrowRegError):
    """Invalid user input: configs, plans, matrices, dimensions, domains."""


class ExecutionError(GrowRegError):
    """A valid request that failed while running."""


# -- input side ---------------------------------------------------------

class DimensionError(InputError):
    """Operand shapes or sizes are incompatible."""


class DomainError(InputError):
    """A scalar argument is outside its mathematical domain."""


class PlanError(InputError):
    """Malformed or inconsistent pruning-plan specification."""


class ConfigError(InputError):
    """Invalid experiment/CLI configuration document."""


# -- execution side -----------------------------------------------------

class SingularSystemError(ExecutionError):
    """A linear system to be solved is singular."""


class ConvergenceError(ExecutionError):
    """An iterative solver exhausted its budget; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NumericError(ExecutionError):
    """Non-finite values appeared where finite ones are required."""


class StructureError(ExecutionError):
    """A structural network edit cannot be applied consistently."""


class ScheduleError(ExecutionError):
    """Regularization state machine used outside its contract."""


class ProtocolError(ExecutionError):
    """A controlled-comparison invariant was violated between runs."""
