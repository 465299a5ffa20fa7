"""Exception types shared across the solver.

Each one survives a pickle round trip with its type, message and
attributes: the package runs in one process, but a caller that runs studies
in worker processes of its own gets their failures back intact.
"""


class PnpnsError(Exception):
    """Base class for all solver errors."""


class GridMismatchError(PnpnsError):
    """Operands live on different grids (or have the wrong shape)."""


class NonZeroMeanError(PnpnsError):
    """A zero-mean right-hand side was required but not supplied."""


class NonPositiveConcentrationError(PnpnsError):
    """Ion concentration must be strictly positive (logs are taken)."""


class MassMismatchError(PnpnsError):
    """Candidate fields do not carry the required total mass."""


class NetChargeError(NonZeroMeanError):
    """The ions carry a net charge, so the potential equation has no solution."""


class NoConvergenceError(PnpnsError):
    """An iterative solve exhausted its budget.

    Attributes:
        iterations: iterations performed before giving up.
        residual: residual norm at the last iterate.
    """

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.bare_message = message
        self.iterations = iterations
        self.residual = residual

    def __reduce__(self):
        # args holds only the formatted message; rebuild from the parts instead
        return type(self), (self.bare_message, self.iterations, self.residual), self.__dict__


class ConfigError(PnpnsError):
    """Run configuration is invalid."""


class SnapshotError(PnpnsError):
    """Snapshot file is corrupt, truncated, or incompatible."""


class RejectedGridError(SnapshotError):
    """Snapshot grid size does not match the requesting run."""
