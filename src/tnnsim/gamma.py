"""Gamma reset generation and relaxed-cycle control.

The generator is an up counter over a fixed period that pulses ``grst``
when the counter tops out, or early when the controller asserts control.
The controller keeps one latch per monitored column; a latch sets on the
first output spike of its column and holds until reset, and control goes
high once every latch is set (every column has fired at least once).

Timing convention: latches observe step ``k``'s spikes during step ``k``
and the generator samples control on the next step. So when the last
column first fires at step ``t``, the cycle has length ``t + 1`` (steps
``0..t``) and the reset edge lands on the following step, which is already
step 0 of the next cycle. A never-satisfied controller leaves the periodic
rollover in charge and the cycle runs the full period.

A run's ``GammaTrace`` is columnar: arrays of cycle lengths, end causes
and per-column first-spike times, one row per cycle, validated once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .encode import INF, SpikeTime


class GrstCause(enum.Enum):
    """Why a gamma cycle ended."""

    PERIOD = "period"
    CONTROL = "control"


@dataclass(frozen=True)
class GeneratorState:
    counter: int = 0
    period: int = 16

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not 0 <= self.counter < self.period:
            raise ValueError(f"counter {self.counter} outside 0..{self.period - 1}")


def generator_step(g: GeneratorState, control: bool) -> tuple[bool, GeneratorState]:
    """Advance the counter one clock step.

    Pulses ``grst`` on rollover or whenever control is asserted; either way
    the counter restarts at 0.
    """
    grst = g.counter == g.period - 1 or bool(control)
    nxt = 0 if grst else g.counter + 1
    return grst, GeneratorState(counter=nxt, period=g.period)


@dataclass(frozen=True)
class ControllerState:
    column_latches: tuple[bool, ...]

    @property
    def column_count(self) -> int:
        return len(self.column_latches)


def make_controller(column_count: int) -> ControllerState:
    """Fresh controller; monitoring zero columns is a configuration error."""
    if column_count < 1:
        raise ValueError(f"controller must monitor at least one column, got {column_count}")
    return ControllerState(column_latches=(False,) * column_count)


def controller_observe(c: ControllerState, spikes: Sequence[bool]) -> ControllerState:
    """Fold one step's per-column output flags into the latches."""
    if len(spikes) != c.column_count:
        raise ValueError(
            f"expected {c.column_count} column flags, got {len(spikes)}"
        )
    return ControllerState(
        column_latches=tuple(
            latch or bool(s) for latch, s in zip(c.column_latches, spikes)
        )
    )


def controller_control(c: ControllerState) -> bool:
    """High once every monitored column has fired this cycle."""
    return all(c.column_latches)


def grst_clear(c: ControllerState) -> ControllerState:
    """Reset every latch for the next gamma cycle."""
    return ControllerState(column_latches=(False,) * c.column_count)


@dataclass(frozen=True)
class CycleResult:
    length: int
    cause: GrstCause
    generator: GeneratorState
    controller: ControllerState


def run_cycle(
    gen: GeneratorState,
    ctrl: ControllerState,
    column_spike_times: Sequence[SpikeTime],
    relaxed: bool,
) -> CycleResult:
    """Simulate one gamma cycle given each column's first-spike time.

    In relaxed mode the cycle ends one step after the last distinct column
    fires (capped at the period); otherwise the periodic rollover always
    ends it. Returns the cycle length, its cause, and the generator and
    controller states carried into the next cycle (latches cleared, counter
    reset by the ending grst).
    """
    if len(column_spike_times) != ctrl.column_count:
        raise ValueError(
            f"expected {ctrl.column_count} column spike times, got {len(column_spike_times)}"
        )
    period = gen.period
    for k in range(period):
        if relaxed and controller_control(ctrl):
            # Control asserted from the previous step's observations: this
            # step carries the early grst edge and opens the next cycle.
            _, gen = generator_step(gen, True)
            return CycleResult(k, GrstCause.CONTROL, gen, grst_clear(ctrl))
        grst, gen = generator_step(gen, False)
        ctrl = controller_observe(ctrl, [t == k for t in column_spike_times])
        if grst:
            return CycleResult(k + 1, GrstCause.PERIOD, gen, grst_clear(ctrl))
    raise AssertionError("generator failed to roll over within its period")


# Trace cause names, indexed by ``control``.
CAUSE_NAMES = (GrstCause.PERIOD.value, GrstCause.CONTROL.value)


@dataclass(eq=False)
class GammaTrace:
    """Columnar per-cycle log, one row per gamma cycle.

    ``lengths[i]`` is cycle ``i``'s length in clock steps, ``control[i]`` is
    true when the controller ended it and false when the period rolled over,
    and ``col_times[i, c]`` is monitored column ``c``'s first spike time,
    ``inf`` when the column stayed silent.
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
        t = self.col_times[self.col_times != INF]
        bad = t[~((t >= 0) & (t < self.period) & (np.floor(t) == t))]
        if bad.size:
            raise ValueError(f"column spike time {bad[0]} not a step in 0..{self.period - 1}")

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
    """The three functional checks for the generator/controller pair.

    1. Every column fires simultaneously: early reset one step later.
    2. Columns fire one by one: early reset only after the last one.
    3. A silent cycle right after a relaxed one: latches must have cleared,
       so the rollover fires exactly on the period.
    """
    results = []
    gen = GeneratorState(period=period)
    ctrl = make_controller(column_count)

    mid = period // 4
    res = run_cycle(gen, ctrl, [mid] * column_count, relaxed=True)
    ok = res.length == mid + 1 and res.cause is GrstCause.CONTROL
    results.append(
        ScenarioResult(
            "simultaneous-spikes",
            ok,
            f"length {res.length} (want {mid + 1}), cause {res.cause.value}",
        )
    )

    gen2 = GeneratorState(period=period)
    ctrl2 = make_controller(column_count)
    stagger = [
        (2 + 3 * i) % (period - 1) for i in range(column_count)
    ]
    last = max(stagger)
    res2 = run_cycle(gen2, ctrl2, stagger, relaxed=True)
    ok2 = res2.length == last + 1 and res2.cause is GrstCause.CONTROL
    results.append(
        ScenarioResult(
            "staggered-spikes",
            ok2,
            f"length {res2.length} (want {last + 1}), cause {res2.cause.value}",
        )
    )

    # Prime with a completed relaxed cycle, then present nothing: a sticky
    # latch would fire control instantly instead of waiting out the period.
    res3 = run_cycle(res.generator, res.controller, [INF] * column_count, relaxed=True)
    ok3 = res3.length == period and res3.cause is GrstCause.PERIOD
    results.append(
        ScenarioResult(
            "silent-cycle",
            ok3,
            f"length {res3.length} (want {period}), cause {res3.cause.value}",
        )
    )
    return results
