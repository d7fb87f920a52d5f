"""Exceptions shared across the twrelay package."""

__all__ = [
    "TwrelayError", "RankZeroError", "NonPSDError", "NoConvergenceError", "InvalidStrategyError", "ConfigError",
]


class TwrelayError(Exception):
    """Base class for all twrelay errors."""


class RankZeroError(TwrelayError):
    """A relay-to-node channel has no nonzero singular value.

    The trial is unusable: there is no subchannel to allocate power on in
    that direction. Callers running Monte-Carlo loops should drop the trial.
    """


class NonPSDError(TwrelayError):
    """A covariance matrix has an eigenvalue below -1e-9 times its largest eigenvalue magnitude."""


class NoConvergenceError(TwrelayError):
    """Iterative water-filling did not converge within the sweep budget."""


class InvalidStrategyError(TwrelayError):
    """Source rates are invalid or mutually inconsistent.

    Raised by the rates rule when a rate is not finite or is below -1e-12
    nats (non-finite or negative rates, waterfill._checked), and by the
    order rule when the multiple-access sum-rate exceeds the sum of the
    individual uplink rates or is below one of them, beyond 1e-12 nats.
    Rates that meet the sum (a user whose uplink or budget is zero) are
    valid: there the MA ceiling is redundant.
    """


class ConfigError(TwrelayError):
    """Malformed scenario or system configuration."""
