"""Minimum-power sum-rate-maximizing relay allocation for MIMO DF two-way relaying.

Two source nodes exchange messages through one relay in two time slots:
a multiple-access slot (both sources transmit to the relay, which decodes
both messages) and a broadcast slot (the relay re-encodes both messages
with superposition coding and transmits; each destination cancels its own
message). Given arbitrary source covariances, the relay's optimal strategy
reduces to choosing one water level per direction. This package computes
those levels in closed form, certifies them against a brute-force grid
search, and reproduces the reference Monte-Carlo experiments at desk scale
through the ``twrelay`` CLI.
"""

from .channel import (
    ChannelSet,
    SubchannelGains,
    SystemConfig,
    decompose,
    generate_channels,
    synthetic_gains,
)
from .errors import (
    ConfigError,
    InvalidStrategyError,
    NoConvergenceError,
    NonPSDError,
    RankZeroError,
    TwrelayError,
)
from .ma_phase import (
    SourceRates,
    SourceStrategy,
    logdet_identity_plus,
    max_ma_strategy,
    rate_bar,
    rate_ma,
    strategy_from_covariances,
)
from .oracle import OracleResult, grid_certify, grid_lipschitz_bound
from .relay_opt import (
    RelativeLevels,
    RelaySolution,
    ThresholdLedger,
    classify_case,
    optimize,
    relative_levels,
    relay_covariance,
    thresholds,
    two_way_rate,
)
from .waterfill import (
    LevelAllocation,
    forward_level,
    forward_waterfill,
    inverse_waterfill,
    power_of_level,
    rate_of_level,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSet",
    "ConfigError",
    "InvalidStrategyError",
    "LevelAllocation",
    "NoConvergenceError",
    "NonPSDError",
    "OracleResult",
    "RankZeroError",
    "RelativeLevels",
    "RelaySolution",
    "SourceRates",
    "SourceStrategy",
    "SubchannelGains",
    "SystemConfig",
    "ThresholdLedger",
    "TwrelayError",
    "classify_case",
    "decompose",
    "forward_level",
    "forward_waterfill",
    "generate_channels",
    "grid_certify",
    "grid_lipschitz_bound",
    "inverse_waterfill",
    "logdet_identity_plus",
    "max_ma_strategy",
    "optimize",
    "power_of_level",
    "rate_bar",
    "rate_ma",
    "relative_levels",
    "relay_covariance",
    "strategy_from_covariances",
    "synthetic_gains",
    "thresholds",
    "two_way_rate",
]
