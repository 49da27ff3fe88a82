"""Exception taxonomy shared across the toolkit.

Every error raised on purpose derives from :class:`ToolkitError` so callers
(and the command line driver) can distinguish computational failures from
programming mistakes.
"""


class ToolkitError(Exception):
    """Base class for all deliberate toolkit errors."""


class DimensionMismatch(ToolkitError):
    """Inputs with incompatible shapes."""


class NotSymmetric(ToolkitError):
    """A matrix expected to be symmetric is not."""


class NotPSD(ToolkitError):
    """A matrix expected to be positive semidefinite has a negative eigenvalue."""


class NoBracket(ToolkitError):
    """Root bracketing failed: no sign change across the bracket."""


class MaxIterExceeded(ToolkitError):
    """An iterative routine hit its iteration budget before converging."""


class NumericalFailure(ToolkitError):
    """A linear-algebra or pivoting step lost too much precision to continue."""


class InfeasibleSet(ToolkitError):
    """A set specification describes the empty set."""


class UnsupportedCombination(ToolkitError):
    """A (loss, support, order, norm) combination outside the implemented scope."""


class UnsupportedSupport(ToolkitError):
    """A support set of a kind the requested operation cannot handle."""


class UnsupportedLoss(ToolkitError):
    """A loss of a kind the requested operation cannot handle."""


class UnsupportedCase(ToolkitError):
    """A parameter regime excluded by the underlying guarantee."""


class PairingMismatch(ToolkitError):
    """A loss/order pairing the training routines do not accept."""


class InsufficientData(ToolkitError):
    """Too few samples for the requested split or estimate."""


class SingularBlock(ToolkitError):
    """A matrix block that must be invertible is singular."""


class EmptySample(ToolkitError):
    """An empty sample set where at least one observation is required."""


class UsageError(ToolkitError):
    """Bad command-line or configuration input (exit code 2)."""
