"""Spike-time encoding of pixel intensities.

Three encoder families convert 8-bit intensities into spike times inside a
gamma cycle of ``period`` clock steps. Every family produces a positive and
a negative channel per pixel, the negative channel encoding the reflected
intensity ``255 - v``, so an encoded volley always carries
``2 * pixel_count`` lines (the positive block first, then the negative
block). A volley is a float array of spike times with ``inf`` for no spike.

Reference formulas
------------------
posneg
    pos = 1 iff intensity > threshold, neg = 1 otherwise (equal intensity
    joins the negative side so the channels stay exact complements). A set
    bit spikes at time 0; a clear bit never spikes.
linear
    intensity 0 never spikes; otherwise the intensity is quantized to a
    level ``ceil(v * period / 256)`` in ``1..period`` and the spike lands at
    ``period - level``. Level 1 (the dimmest) spikes at ``period - 1`` and a
    full-scale intensity spikes at time 0.
log
    intensity 0 never spikes; otherwise
    ``time = min(period - 1, floor(log2(255 / v) * (period - 1) / 8))``,
    so each halving of brightness delays the spike by about an eighth of
    the usable window.

Both graded codes are monotone: a brighter pixel never spikes later than a
dimmer one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

INF = float("inf")

SpikeTime = Union[int, float]
"""A spike time is a step of the gamma cycle, or ``INF`` when no spike
occurs; ``spike_steps`` holds every reader to that rule."""


def spike_steps(times, period: int) -> tuple[np.ndarray, np.ndarray]:
    """The one spike-time rule: a time is ``inf`` or a whole step in
    ``0..period - 1``. Any other time (negative, fractional, NaN, ``-inf``,
    or finite at or past the period) raises ``ValueError`` naming it.

    Returns the distinct steps of the 1-D ``times``, increasing, as int64,
    and the ``(steps, len(times))`` mask of the times at each step.
    """
    t = np.asarray(times, dtype=float)
    live = t[t != INF]
    if not live.size:
        return np.empty(0, dtype=np.int64), np.empty((0, t.size), dtype=bool)
    # Bounded first, so a time far past the period never sizes the count.
    lo, hi = np.minimum.reduce(live), np.maximum.reduce(live)  # NaN if any time is
    if 0 <= lo <= hi < period:
        at = live.astype(np.int64)
        steps = np.bincount(at).nonzero()[0]
        # A whole step matches the one step it truncates to, any other time none.
        arrives = t == steps[:, None]
        if np.count_nonzero(arrives) == live.size:
            return steps, arrives
        hi = live[at != live][0]
    bad = lo if not lo >= 0 else hi
    raise ValueError(f"spike time {bad:g} is not inf or a whole step in 0..{period - 1}")


@dataclass(frozen=True)
class PosNeg:
    """Threshold binarizer; both channels spike at time 0 or never."""

    threshold: int = 127

    def __post_init__(self):
        if not 0 <= self.threshold <= 255:
            raise ValueError(f"pixel_threshold must be in 0..255, got {self.threshold}")


@dataclass(frozen=True)
class _Graded:
    """A graded code: brighter pixels spike earlier inside the period."""

    period: int = 16

    def __post_init__(self):
        if self.period < 2:
            raise ValueError(f"period must be >= 2, got {self.period}")


class Linear(_Graded):
    """Intensity quantized to ``period`` levels, spike time linear in level."""


class Log(_Graded):
    """Each halving of intensity delays the spike by ~1/8 of the period."""


EncoderKind = Union[PosNeg, Linear, Log]

# Encoder kinds by the name the config file and the CLI give them.
KINDS = {"posneg": PosNeg, "linear": Linear, "log": Log}


def _graded(v: np.ndarray, kind: Union[Linear, Log]) -> np.ndarray:
    """Spike times of int64 intensities under a graded code."""
    if isinstance(kind, Linear):
        level = (v * kind.period + 255) // 256  # ceil(v * period / 256)
        return np.where(v > 0, kind.period - level, INF)
    if isinstance(kind, Log):
        steps = np.floor(np.log2(255 / np.maximum(v, 1)) * (kind.period - 1) / 8)
        return np.where(v > 0, np.minimum(kind.period - 1, steps), INF)
    raise TypeError(f"unknown encoder {kind!r}")


def encode_image(pixels, kind: EncoderKind) -> np.ndarray:
    """Encode intensities 0..255 into dual-channel spike times.

    ``pixels`` holds one image along its last axis (one row, or a stack of
    rows). The result doubles that axis into float64 times, ``inf`` for no
    spike: the positive block first, then the negative block, so synapse
    line indices are stable across modules.
    """
    # Widened first: in uint8, ``v * period`` wraps.
    v = np.asarray(pixels).astype(np.int64)
    if isinstance(kind, PosNeg):
        on = v > kind.threshold
        return np.concatenate([np.where(on, 0.0, INF), np.where(on, INF, 0.0)], axis=-1)
    return np.concatenate([_graded(v, kind), _graded(255 - v, kind)], axis=-1)


def format_spike_time(t: SpikeTime) -> str:
    return "inf" if t == INF else str(int(t))
