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

A run's ``GammaTrace`` is columnar: arrays of cycle lengths, end causes
and per-column first-spike times, one row per cycle, validated once; its
distinct column times go through ``encode.Volley.from_times``, as raw
times given to ``run_cycle`` do.
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


def run_cycle(
    column_spike_times: Union[Volley, Sequence[SpikeTime]], period: int, relaxed: bool
) -> CycleResult:
    """Length and cause of one gamma cycle from each column's first-spike time.

    The times are the final layer's ``encode.Volley``, or raw times, which
    ``Volley.from_times`` checks. In relaxed mode the cycle ends one step
    after the last column fires, if that lands before the rollover;
    otherwise, and always in fixed mode, the cycle runs the full period.
    """
    if not len(column_spike_times):
        raise ValueError("gamma control must monitor at least one column")
    volley = Volley.from_times(column_spike_times, period)
    # A silent column's code is the volley's period, so the largest code is
    # below it exactly when every column has fired, and is then the last
    # step. Control rises on it, and the cycle ends one step later.
    last = int(volley.codes.max())
    if relaxed and last < volley.period and last + 1 < period:
        return CycleResult(last + 1, GrstCause.CONTROL)
    return CycleResult(period, GrstCause.PERIOD)


# Trace cause names, indexed by ``control``.
CAUSE_NAMES = (GrstCause.PERIOD.value, GrstCause.CONTROL.value)


@dataclass(eq=False)
class GammaTrace:
    """Columnar per-cycle log, one row per gamma cycle.

    ``lengths[i]`` is cycle ``i``'s length in clock steps, ``control[i]`` is
    true when the controller ended it and false when the period rolled over,
    and ``col_times[i, c]`` is monitored column ``c``'s first spike time,
    ``inf`` when the column stayed silent: a time that
    ``encode.Volley.from_times`` takes.
    """

    period: int
    lengths: np.ndarray
    control: np.ndarray
    col_times: np.ndarray

    def __post_init__(self):
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        self.control = np.asarray(self.control, dtype=bool)
        self.col_times = np.asarray(self.col_times, dtype=float)
        shapes = (self.lengths.shape, self.control.shape, self.col_times.shape)
        if self.col_times.ndim != 2 or not self.column_count or not (
            shapes[0] == shapes[1] == shapes[2][:1]
        ):
            raise ValueError(f"trace shapes disagree: lengths, control, col_times {shapes}")
        bad = self.lengths[(self.lengths < 1) | (self.lengths > self.period)]
        if bad.size:
            raise ValueError(f"cycle length {bad[0]} outside 1..{self.period}")
        # The distinct times alone, so a long run checks each time once.
        Volley.from_times(np.unique(self.col_times), self.period)

    @property
    def column_count(self) -> int:
        return self.col_times.shape[1]

    def __len__(self) -> int:
        return len(self.lengths)


def write_trace_csv(trace: GammaTrace, stream: TextIO) -> None:
    """One row per gamma cycle; firing columns packed as ``col:time`` pairs."""
    stream.write("cycle,length,cause,winners\n")
    rows = zip(trace.lengths.tolist(), trace.control.tolist(), trace.col_times.tolist())
    for i, (length, control, times) in enumerate(rows):
        packed = ";".join(f"{c}:{int(t)}" for c, t in enumerate(times) if t != INF)
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
