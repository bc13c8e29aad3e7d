"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for every error raised by this package."""


# entangled-pair layer
class TriggerOnNonIonized(SimError):
    """Only ionized particles accept a spin trigger."""


class PlateAlreadyUsed(SimError):
    """Tx plate already carries data for this generation."""


class MismatchedPlates(SimError):
    """The two plates are not a partnered Tx/Rx pair."""


# frame codec
class LengthOverrun(SimError):
    """A data frame arrived after the message was already complete."""


# base-station protocol
class DuplicateQid(SimError):
    """QID is already registered somewhere in the scenario."""


class DuplicateNode(SimError):
    """Node id is already in use by a station or another user."""


class CallerUnknown(SimError):
    """The acting user is not attached where the operation requires."""


class SelfCall(SimError):
    """A session cannot target the caller's own QID."""


class SessionNotEstablished(SimError):
    """Operation requires an established session."""


class UnknownSession(SimError):
    """Session id does not exist in this run."""


class IllegalTransition(SimError):
    """A session state machine edge outside the legal relation; simulator bug."""


# event engine
class SchedulingError(SimError):
    """An event was scheduled in the past; simulator bug."""


class TickBudgetExceeded(SimError):
    """More events executed within one tick than the configured budget."""


class InvariantViolation(SimError):
    """A whole-run invariant check failed."""


class ValidationError(SimError):
    """Scenario content is invalid; .findings lists one message per problem."""

    def __init__(self, findings):
        self.findings = list(findings)
        super().__init__("; ".join(self.findings) or "invalid scenario")
