"""Exception taxonomy for the solver stack.

Numerical failures are distinguished from configuration problems so the CLI
can map them to exit codes (2 = validation, 3 = numerics).
"""


class ScjarzError(Exception):
    """Base class for all package errors."""


class ConfigError(ScjarzError):
    """Invalid run configuration; message carries the offending field path."""


class TimeOutOfRange(ScjarzError):
    """Hamiltonian evaluated outside the protocol span."""


class IntegratorDiverged(ScjarzError):
    """Trajectory left the representable domain (non-finite state)."""


class ToleranceExceeded(ScjarzError):
    """A consistency check failed: with ``richardson_check`` set, a flow's
    endpoint or an arc's monodromy moved by more than ``tolerance`` when
    its step count was doubled."""


class CausticEncountered(ScjarzError):
    """Stationary-phase Jacobian degenerated; the solve is refused."""


class NewtonDiverged(ScjarzError):
    """Boundary-value iteration failed to converge within the budget."""


class WorkMismatch(ScjarzError):
    """Path-integrated work disagrees with the endpoint difference."""


class DomainTooSmall(ScjarzError):
    """Quadrature domain fails the boundary-weight check."""


class TruncationInsufficient(ScjarzError):
    """Fock-basis cutoff too low for the requested thermal state."""


class GridTooNarrow(ScjarzError):
    """Position grid does not contain the basis functions."""
