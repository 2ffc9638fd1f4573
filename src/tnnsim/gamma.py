"""Relaxed gamma-cycle control in closed form, and the gamma trace.

In hardware the generator is an up counter over a fixed period that pulses
``grst`` when the counter tops out, or early when the controller asserts
control. The controller keeps one latch per monitored column; a latch sets
on the first output spike of its column and holds until reset, and control
goes high once every latch is set (every column has fired at least once).
Every cycle ends on a ``grst`` that zeroes the counter and clears the
latches, so nothing carries into the next cycle: a cycle's length and cause
follow from its columns' first-spike times alone, and ``run_cycle``
computes them directly. The tests keep the clocked, step-by-step model
as the oracle it is checked against.

Timing convention: latches observe step ``k``'s spikes during step ``k``
and the generator samples control on the next step. So when the last
column first fires at step ``t``, the cycle has length ``t + 1`` (steps
``0..t``) and the reset edge lands on the following step, which is already
step 0 of the next cycle. A never-satisfied controller leaves the periodic
rollover in charge and the cycle runs the full period.

``cycle_ends`` states that rule once, over the step codes of any number
of cycles, and ``run_cycle`` is its one-cycle case. A run's ``GammaTrace``
is columnar: arrays of cycle lengths, end causes and per-column step codes,
one row per cycle, the codes the kernel made. Raw times given to
``run_cycle`` go through ``encode.Volley.from_times``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, TextIO, Union

import numpy as np

from .encode import INF, SpikeTime, Volley


class GrstCause(enum.Enum):
    """Why a gamma cycle ended."""

    PERIOD = "period"
    CONTROL = "control"


@dataclass(frozen=True)
class CycleResult:
    length: int
    cause: GrstCause


def cycle_ends(codes: np.ndarray, period: int, relaxed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each cycle's length and whether control ended it, from the step codes
    of its columns: one cycle's codes, or one row per cycle, each column's
    first-spike step and ``period`` where it stayed silent.

    In relaxed mode a cycle ends one step after its last column fires, if
    that lands before the rollover; otherwise, and always in fixed mode, the
    cycle runs the full period.
    """
    # One step after the last column fires; widened first, since a silent
    # uint8 code 255 plus one would wrap to 0.
    end = codes.max(axis=-1).astype(np.int64) + 1
    if not relaxed:
        end = np.full_like(end, period)
    # A silent column's code is the period, so a cycle ends before the
    # rollover, by control, only once every column has fired.
    return np.minimum(end, period), end < period


def run_cycle(
    column_spike_times: Union[Volley, Sequence[SpikeTime]], period: int, relaxed: bool
) -> CycleResult:
    """Length and cause of one gamma cycle, by ``cycle_ends``, from each
    column's first-spike time: the final layer's ``encode.Volley``, or raw
    times, which ``Volley.from_times`` checks.
    """
    if not len(column_spike_times):
        raise ValueError("gamma control must monitor at least one column")
    volley = Volley.from_times(column_spike_times, period)
    codes = volley.codes
    if volley.period < period:
        # A made volley marks silence with its own period: mapped to this
        # period at this period's width, since its own width may not hold it.
        codes = np.where(codes < volley.period, codes.astype(np.min_scalar_type(period)), period)
    length, control = cycle_ends(codes, period, relaxed)
    return CycleResult(int(length), GrstCause.CONTROL if control else GrstCause.PERIOD)


# Trace cause names, indexed by ``control``.
CAUSE_NAMES = (GrstCause.PERIOD.value, GrstCause.CONTROL.value)


@dataclass(eq=False)
class GammaTrace:
    """Columnar per-cycle log, one row per gamma cycle.

    ``lengths[i]`` is cycle ``i``'s length in clock steps, ``control[i]`` is
    true when the controller ended it and false when the period rolled over,
    and ``col_codes[i, c]`` is monitored column ``c``'s first-spike step,
    ``period`` when the column stayed silent. Lengths and codes are held at
    ``np.min_scalar_type(period)``, the narrowest unsigned width that holds
    the period. ``col_times`` gives the codes as float times, ``inf`` for
    silence.
    """

    period: int
    lengths: np.ndarray
    control: np.ndarray
    col_codes: np.ndarray

    def __post_init__(self):
        lengths, codes = np.asarray(self.lengths), np.asarray(self.col_codes)
        self.control = np.asarray(self.control, dtype=bool)
        shapes = (lengths.shape, self.control.shape, codes.shape)
        if codes.ndim != 2 or not codes.shape[1] or not shapes[0] == shapes[1] == shapes[2][:1]:
            raise ValueError(f"trace shapes disagree: lengths, control, col_codes {shapes}")
        # Lengths are checked at the width they came in, before one past the
        # period can wrap to a legal length.
        bad = lengths[(lengths < 1) | (lengths > self.period)]
        if bad.size:
            raise ValueError(f"cycle length {bad[0]} outside 1..{self.period}")
        width = np.min_scalar_type(self.period)
        self.lengths = lengths.astype(width, copy=False)
        # Codes that are integers in 0..period hold their value at its width.
        self.col_codes = codes.astype(width, copy=False)
        if not np.array_equal(self.col_codes, codes) or (self.col_codes > self.period).any():
            raise ValueError(f"column codes must be integers in 0..{self.period}")

    @property
    def col_times(self) -> np.ndarray:
        return np.where(self.col_codes < self.period, self.col_codes, INF)

    @property
    def column_count(self) -> int:
        return self.col_codes.shape[1]

    def __len__(self) -> int:
        return len(self.lengths)


def write_trace_csv(trace: GammaTrace, stream: TextIO) -> None:
    """One row per gamma cycle; firing columns packed as ``col:time`` pairs."""
    stream.write("cycle,length,cause,winners\n")
    rows = zip(trace.lengths.tolist(), trace.control.tolist(), trace.col_codes.tolist())
    for i, (length, control, codes) in enumerate(rows):
        packed = ";".join(f"{c}:{t}" for c, t in enumerate(codes) if t < trace.period)
        stream.write(f"{i},{length},{CAUSE_NAMES[control]},{packed}\n")


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    passed: bool
    detail: str


def verify_scenarios(period: int = 16, column_count: int = 3) -> list[ScenarioResult]:
    """The three functional checks of relaxed gamma control.

    1. Every column fires simultaneously: early reset one step later.
    2. Columns fire one by one: early reset only after the last one.
    3. No column fires: the rollover ends the cycle exactly on the period.
       No latch state carries between cycles, so this cycle needs no
       previous one to prime it.
    """
    if period < 2:
        raise ValueError(f"period must be >= 2 to leave room for an early reset, got {period}")
    if column_count < 1:
        raise ValueError(f"scenarios need at least one column, got {column_count}")
    mid = period // 4
    stagger = [(2 + 3 * i) % (period - 1) for i in range(column_count)]
    table = (
        ("simultaneous-spikes", [mid] * column_count, mid + 1, GrstCause.CONTROL),
        ("staggered-spikes", stagger, max(stagger) + 1, GrstCause.CONTROL),
        ("silent-cycle", [INF] * column_count, period, GrstCause.PERIOD),
    )
    results = []
    for name, times, want, cause in table:
        res = run_cycle(times, period, relaxed=True)
        ok = res.length == want and res.cause is cause
        results.append(
            ScenarioResult(name, ok, f"length {res.length} (want {want}), cause {res.cause.value}")
        )
    return results
