"""Exception hierarchy for the toolkit."""


class XbstabError(Exception):
    """Base class for all toolkit errors."""


class InvalidGains(XbstabError):
    """Observer gains violate a Hurwitz or common-Lyapunov condition."""


class NoCertificate(XbstabError):
    """The common Lyapunov equation has no valid solution."""


class StateOutOfDomain(XbstabError):
    """The continuous state left the admissible region z2 > -d/c."""


class IllegalJump(XbstabError):
    """A jump was requested while its guard condition does not hold."""


class BadInitialBall(XbstabError):
    """Initial plant state or estimate violates the configured radii."""


class StepFailure(XbstabError):
    """The adaptive integrator cannot meet the requested tolerances."""


class ZenoSuspected(XbstabError):
    """Too many jumps were observed inside one Zeno-guard window."""


class NoExcitation(XbstabError):
    """No interval of the trajectory exceeds the excitation threshold."""


class CycleNotFound(XbstabError):
    """The requested cycle index is not present in the trajectory."""


class LaneCrashed(XbstabError):
    """A forked sweep lane ended before this variant wrote its report."""
