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
    """Source rates are mutually inconsistent.

    Raised when the multiple-access sum-rate is not strictly below the sum of
    the individual uplink rates or when it is below one of them. Rates
    induced by actual covariances can meet the sum, e.g. single-antenna
    users on orthogonal uplinks or a user whose uplink is zero; the relay
    optimizer rejects those as well.
    """


class ConfigError(TwrelayError):
    """Malformed scenario or system configuration."""
