"""Spike-time encoding of pixel intensities.

Three encoder families convert 8-bit intensities into spike times inside a
gamma cycle of ``period`` clock steps. Every family produces a positive and
a negative channel per pixel, the negative channel encoding the reflected
intensity ``255 - v``, so an encoded volley always carries
``2 * pixel_count`` lines (the positive block first, then the negative
block). A volley is a ``Volley``: each line's spike time as a step of the
cycle, ``inf`` for no spike.

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

Every encoder computes each line's step code, an integer, and hands a
``Volley`` built from those codes to the network; its arrival steps, their
line masks and its float times are made only when something asks for them,
except the posneg encoder's one arrival step and mask, which it gives.
Intensities come as ``uint8``, or as other numbers that must be whole and
in 0..255. Raw spike times from anywhere else come in through
``Volley.from_times``, the one door that states the spike-time rule and
keeps only step codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

INF = float("inf")

SpikeTime = Union[int, float]
"""A spike time is a step of the gamma cycle, or ``INF`` when no spike
occurs; ``Volley.from_times`` holds every reader to that rule."""


def check_int(name: str, value, low: int, high: Optional[int] = None) -> None:
    """Raise ``ValueError``, naming ``name`` and ``value``, unless ``value``
    is an integer in ``low..high`` (``>= low`` for no ``high``). Numpy
    integers are integers; a bool, a fraction and NaN are not, since a
    config would write them as text it cannot read back, and ``nan < low``
    is false."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < low
        or (high is not None and value > high)
    ):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def pack_lines(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of an array into ``uint64`` words, one bit per
    entry, set where the entry is nonzero."""
    lines = bits.shape[-1]
    packed = np.zeros(bits.shape[:-1] + (8 * -(-lines // 64),), dtype=np.uint8)
    packed[..., : -(-lines // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view(np.uint64)


class Volley:
    """One volley, checked once, where it is made.

    - ``period``: the length of the cycle its codes count in;
    - ``codes``: each line's spike step, a 1-D array held at
      ``np.min_scalar_type(period)``, the narrowest unsigned width that
      holds the period, equal to ``period`` where the line never spikes;
    - ``steps``: the distinct arrival steps, increasing, as int64;
    - ``masks``: one packed ``uint64`` mask of the lines arriving at each
      step, ``(len(steps), ceil(lines / 64))``, as ``pack_lines`` packs them.

    Its arrays are read-only, and a volley takes no new attributes.
    ``steps`` and ``masks`` are derived from ``codes`` on first use unless
    the maker gave them, and so is ``times``, the float times with ``inf``
    for no spike; ``np.asarray(volley)`` gives the same array.

    The encoders and the layer kernel build their volleys from step codes
    they computed, whole steps by construction, and no reader checks those
    again. Raw times from anywhere else come in through ``from_times``,
    which states the one spike-time rule.
    """

    __slots__ = ("codes", "period", "_steps", "_masks", "_times")

    def __init__(self, codes: np.ndarray, period: int, steps=None, masks=None):
        """A volley from the 1-D step codes its maker computed, in
        ``0..period``, which are not checked. ``steps`` and ``masks``, when
        the maker has them, must be those of ``codes``."""
        codes.setflags(write=False)
        if steps is not None:
            steps.setflags(write=False)
        if masks is not None:
            masks.setflags(write=False)
        init = object.__setattr__
        init(self, "codes", codes)
        init(self, "period", period)
        init(self, "_steps", steps)
        init(self, "_masks", masks)
        init(self, "_times", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Volley is immutable; cannot set {name!r}")

    @classmethod
    def from_times(cls, times, period: int) -> "Volley":
        """The volley of raw spike times, under the one spike-time rule: a
        time is ``inf`` or a whole step in ``0..period - 1``. Any other time
        (negative, fractional, NaN, ``-inf``, or finite at or past the
        period) raises ``ValueError`` naming it, and so do times that are
        not 1-D. A ``Volley`` made for a cycle of at most ``period`` steps
        is returned as it is."""
        if isinstance(times, Volley):
            if times.period > period:
                raise ValueError(
                    f"a volley made for a {times.period}-step cycle cannot arrive "
                    f"in a {period}-step one"
                )
            return times
        t = np.asarray(times, dtype=float)
        if t.ndim != 1:
            raise ValueError(f"spike times must be 1-D, got shape {t.shape}")
        live = t[t != INF]
        if live.size:
            # A time out of range is named before a fractional one.
            lo, hi = np.minimum.reduce(live), np.maximum.reduce(live)  # NaN if any time is
            if 0 <= lo <= hi < period:
                bad = live[np.floor(live) != live]
            else:
                bad = [lo if not lo >= 0 else hi]
            if len(bad):
                raise ValueError(
                    f"spike time {bad[0]:g} is not inf or a whole step in 0..{period - 1}"
                )
        return cls(np.where(t == INF, period, t).astype(np.min_scalar_type(period)), period)

    def _derive(self, name: str, value: np.ndarray) -> np.ndarray:
        value.setflags(write=False)
        object.__setattr__(self, name, value)
        return value

    @property
    def steps(self) -> np.ndarray:
        if self._steps is None:
            counts = np.bincount(self.codes, minlength=self.period + 1)[: self.period]
            return self._derive("_steps", counts.nonzero()[0])
        return self._steps

    @property
    def masks(self) -> np.ndarray:
        if self._masks is None:
            return self._derive("_masks", pack_lines(self.codes == self.steps[:, None]))
        return self._masks

    @property
    def times(self) -> np.ndarray:
        if self._times is None:
            return self._derive("_times", np.where(self.codes < self.period, self.codes, INF))
        return self._times

    def __len__(self) -> int:
        return self.codes.size

    def __array__(self, dtype=None, copy=None):
        times = self.times if dtype is None else self.times.astype(dtype, copy=False)
        return times.copy() if copy else times

    def __repr__(self) -> str:
        return f"Volley({self.times.tolist()!r}, period={self.period})"


# A posneg line spikes at step 0 or never: its volley counts in a one-step
# cycle, which fits every period, and an image's only arrival step is 0.
_POSNEG_STEPS = np.zeros(1, dtype=np.int64)
_POSNEG_STEPS.setflags(write=False)


@dataclass(frozen=True)
class PosNeg:
    """Threshold binarizer; both channels spike at time 0 or never."""

    threshold: int = 127

    def __post_init__(self):
        check_int("pixel_threshold", self.threshold, 0, 255)

    def spikes(self, pixels: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Where each pixel's positive line spikes, ``pixels > threshold``,
        into ``out`` if given; its negative line spikes everywhere else."""
        return np.greater(pixels, self.threshold, out=out)


@dataclass(frozen=True)
class _Graded:
    """A graded code: brighter pixels spike earlier inside the period."""

    period: int = 16

    def __post_init__(self):
        check_int("period", self.period, 2)


class Linear(_Graded):
    """Intensity quantized to ``period`` levels, spike time linear in level."""


class Log(_Graded):
    """Each halving of intensity delays the spike by ~1/8 of the period."""


EncoderKind = Union[PosNeg, Linear, Log]

# Encoder kinds by the name the config file and the CLI give them.
KINDS = {"posneg": PosNeg, "linear": Linear, "log": Log}


def _graded(v: np.ndarray, kind: Union[Linear, Log]) -> np.ndarray:
    """Step codes of int64 intensities under a graded code, ``kind.period``
    for no spike, as whole numbers, which ``encode_image`` narrows."""
    if isinstance(kind, Linear):
        # ceil(v * period / 256), which is 0 for intensity 0: no spike.
        return kind.period - (v * kind.period + 255) // 256
    if isinstance(kind, Log):
        steps = np.floor(np.log2(255 / np.maximum(v, 1)) * (kind.period - 1) / 8)
        return np.where(v > 0, np.minimum(kind.period - 1, steps), kind.period)
    raise TypeError(f"unknown encoder {kind!r}")


def encode_image(pixels, kind: EncoderKind) -> Union[Volley, np.ndarray]:
    """Encode intensities 0..255 into dual-channel spikes: the positive
    block first, then the negative block, so synapse line indices are
    stable across modules.

    ``pixels`` holds one image along its last axis. One row gives its
    ``Volley``; a stack of rows gives the float64 times of each row's
    volley, ``inf`` for no spike, along a last axis twice as long. Pixels
    of any type but ``uint8`` must be whole numbers in 0..255, or
    ``ValueError`` names the first that is not.
    """
    v = np.asarray(pixels)
    if v.dtype != np.uint8:
        bad = v[~((v >= 0) & (v <= 255) & (np.floor(v) == v))]
        if bad.size:
            raise ValueError(f"intensity {bad[0].item()} is not a whole number in 0..255")
        v = v.astype(np.int64)
    if isinstance(kind, PosNeg):
        on = kind.spikes(v)
        spikes = np.concatenate([on, np.logical_not(on)], axis=-1)
        if v.ndim != 1:
            return np.where(spikes, 0.0, INF)
        codes = np.logical_not(spikes).view(np.uint8)
        # An empty row has no arrival step, not step 0.
        if not v.size:
            return Volley(codes, 1)
        return Volley(codes, 1, _POSNEG_STEPS, pack_lines(spikes[None]))
    # Widened first: in uint8, ``v * period`` wraps.
    v = v.astype(np.int64)
    codes = np.concatenate([_graded(v, kind), _graded(255 - v, kind)], axis=-1)
    codes = codes.astype(np.min_scalar_type(kind.period))
    if v.ndim != 1:
        return np.where(codes < kind.period, codes, INF)
    return Volley(codes, kind.period)


def format_spike_time(t: SpikeTime) -> str:
    return "inf" if t == INF else str(int(t))
