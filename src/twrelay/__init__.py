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

from . import channel, errors, ma_phase, oracle, relay_opt, waterfill
from .channel import *  # noqa: F403
from .errors import *  # noqa: F403
from .ma_phase import *  # noqa: F403
from .oracle import *  # noqa: F403
from .relay_opt import *  # noqa: F403
from .waterfill import *  # noqa: F403

__version__ = "0.1.0"

# Each public name is listed once, in the __all__ of the module that defines it.
_LAYERS = (channel, errors, ma_phase, oracle, relay_opt, waterfill)
__all__ = sorted({name for layer in _LAYERS for name in layer.__all__})
