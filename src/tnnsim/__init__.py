"""Cycle-accurate temporal neural network column simulator.

Spike encoders, ramp-no-leak winner-take-all columns, relaxed gamma-cycle
control, STDP learning, and a comparator-bank hardware cost model.
"""

from .encode import (
    INF,
    EncoderKind,
    Linear,
    Log,
    PosNeg,
    SpikeTime,
    encode_image,
)
from .network import Mode, NetworkConfig, RunSummary, TnnNetwork
from .stdp import StdpParams

__version__ = "0.1.0"

__all__ = [
    "INF",
    "EncoderKind",
    "Linear",
    "Log",
    "Mode",
    "NetworkConfig",
    "PosNeg",
    "RunSummary",
    "SpikeTime",
    "StdpParams",
    "TnnNetwork",
    "encode_image",
    "__version__",
]
