"""Error taxonomy and exit codes: a config rule raises ConfigurationError, an operation's precondition UsageError."""


class FraglabError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(FraglabError):
    """A config rule failed, on any path (file, grid cell, constructor): bad bands, policy name or range."""


class InfeasibleSpecError(ConfigurationError):
    """The workload cannot fit on the volume at all.

    Carries the shortfall so the harness can report required vs available.
    """

    def __init__(self, message, required_clusters=None, available_clusters=None):
        super().__init__(message)
        self.required_clusters = required_clusters
        self.available_clusters = available_clusters


class NoSpaceError(FraglabError):
    """An allocation could not be satisfied from the current free space."""

    def __init__(self, message, requested=None, available=None):
        super().__init__(message)
        self.requested = requested
        self.available = available


class UsageError(FraglabError):
    """The caller violated an operation precondition (duplicate id, bad size); never a config rule."""


class NotFoundError(UsageError):
    """The object id is not live."""


class UndefinedAgeError(FraglabError):
    """Storage age is undefined because no bytes are live."""


class InvariantViolationError(FraglabError):
    """Internal simulator state is inconsistent; the run must abort."""


class CorruptionError(InvariantViolationError):
    """The owner-run scan found an inconsistent layout (gap, duplicate, overlap, orphan)."""

    def __init__(self, message, cluster=None):
        super().__init__(message)
        self.cluster = cluster


class SimulatedAbortError(FraglabError):
    """Raised by a fault-injection hook to abort a safe write mid-protocol."""


# CLI exit codes. 1 is reserved for unexpected failures.
EXIT_OK = 0
EXIT_CONFIG = 2       # invalid or infeasible config, a refused operation, or a bad snapshot
EXIT_NO_SPACE = 3     # the volume ran out of space mid-experiment
EXIT_INVARIANT = 4    # internal inconsistency or scan corruption


# the exit code that reports each error class, for the CLI and for a grid cell
_EXIT_CODES = ((ConfigurationError, EXIT_CONFIG), (UsageError, EXIT_CONFIG),
               (NoSpaceError, EXIT_NO_SPACE), (InvariantViolationError, EXIT_INVARIANT))


def exit_code(exc: FraglabError) -> int:
    return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), 1)
