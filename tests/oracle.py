"""Scalar reference model: one neuron, one synapse, one rule case at a time.

Tests compare the array kernels (``neuron.layer_spike_times``,
``stdp.update_layer``, ``encode.encode_image``), the run metrics
(``metrics.spike_histogram``, ``purity``, ``cycle_savings``) and the
closed-form ``gamma.run_cycle`` against these plain per-element
restatements of the same rules; gamma control is clocked one step at a time.
A spike time has one reference per form, both read from the raw half-unit
weights and neither from the bit-planes the kernel packs:
``brute_force_spike_time`` walks one neuron's potential step by step in
plain Python, and ``stepwise_spike_times`` tabulates the same steps for a
whole bank at once. ``column_argmin`` reduces a bank's spike times to the
column winners the production kernel returns. ``reference_run`` chains the
pieces into a whole network run, checked against ``TnnNetwork``. Volleys
here are plain sequences of spike times, ``INF`` for no spike.
"""

from __future__ import annotations

import enum
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from tnnsim.encode import INF, EncoderKind, Linear, PosNeg, SpikeTime
from tnnsim.gamma import CycleResult, GrstCause
from tnnsim.network import Mode, NetworkConfig
from tnnsim.stdp import StdpParams


def readme_encode(pixels: Sequence[int], kind: EncoderKind) -> list[SpikeTime]:
    """The README encoder formulas, pixel by pixel: positive block, then the
    negative block of the reflected intensities ``255 - v``."""

    def graded(v: int) -> SpikeTime:
        if v == 0:
            return INF
        if isinstance(kind, Linear):
            return kind.period - math.ceil(v * kind.period / 256)
        return min(kind.period - 1, math.floor(math.log2(255 / v) * (kind.period - 1) / 8))

    if isinstance(kind, PosNeg):
        pos = [0 if v > kind.threshold else INF for v in pixels]
        neg = [INF if v > kind.threshold else 0 for v in pixels]
        return pos + neg
    return [graded(v) for v in pixels] + [graded(255 - v) for v in pixels]


def brute_force_spike_time(weights_hu, times, period, threshold) -> SpikeTime:
    """Reference simulator: tabulate the potential at every step.

    Independent of the library's ramp algebra: it literally walks each
    step and adds one unit per active, unsaturated synapse ramp.
    """
    for t in range(period):
        potential = 0
        for w, s in zip(weights_hu, times):
            if s == INF or t < s:
                continue
            potential += min(t - int(s) + 1, w // 2)
        if potential >= threshold:
            return t
    return INF


def stepwise_spike_times(weights_hu, times, period, threshold):
    """Brute force for a whole bank: tabulate each step's potential until
    every neuron has fired."""
    x = np.asarray(times, dtype=float)
    live = np.isfinite(x)
    arrival = x[live].astype(np.int64)
    cap = np.asarray(weights_hu)[:, live].astype(np.int64) // 2
    threshold = np.broadcast_to(threshold, cap.shape[:1])
    out = np.full(cap.shape[0], np.inf)
    for t in range(period):
        ramp = np.maximum(t - arrival + 1, 0)
        potential = np.minimum(ramp[None, :], cap).sum(axis=1)
        out[np.isinf(out) & (potential >= threshold)] = t
        if np.isfinite(out).all():
            break
    return out


def column_argmin(spike_times: np.ndarray, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-neuron spike times reduced to each column's (winner neuron,
    winner time): the earliest, ties to the lowest index, -1/inf where
    every neuron of the column is silent."""
    by_col = np.asarray(spike_times, dtype=float).reshape(cols, -1)
    idx = by_col.argmin(axis=1)
    win = by_col[np.arange(cols), idx]
    return np.where(np.isinf(win), -1, idx), win


class RuleCase(enum.Enum):
    CAPTURE = "capture"
    BACKOFF_LATE = "backoff_late"
    SEARCH = "search"
    BACKOFF_NOIN = "backoff_noin"
    QUIET = "quiet"


def classify_case(x: SpikeTime, z: SpikeTime) -> RuleCase:
    """Total classification of one (input, output) spike-time pair."""
    x_fires = x != INF
    z_fires = z != INF
    if x_fires and z_fires:
        return RuleCase.CAPTURE if x <= z else RuleCase.BACKOFF_LATE
    if x_fires:
        return RuleCase.SEARCH
    if z_fires:
        return RuleCase.BACKOFF_NOIN
    return RuleCase.QUIET


_DELTAS = {
    RuleCase.CAPTURE: lambda p: p.u_capture,
    RuleCase.BACKOFF_LATE: lambda p: -p.u_backoff,
    RuleCase.SEARCH: lambda p: p.u_search,
    RuleCase.BACKOFF_NOIN: lambda p: -p.u_backoff,
    RuleCase.QUIET: lambda p: p.u_quiet,
}


def apply_update(half_units: int, case: RuleCase, p: StdpParams) -> int:
    """One saturating weight step for the given case."""
    nxt = half_units + _DELTAS[case](p)
    return min(max(nxt, 0), p.half_unit_cap)


# A network winner: (column, neuron, time), or None for a silent presentation.
NetWinner = Optional[tuple[int, int, int]]


def network_winner(times: Sequence[SpikeTime], neurons: Sequence[int]) -> NetWinner:
    """Earliest firing column of one presentation, ties to the lowest index."""
    best = None
    for c, t in enumerate(times):
        if t != INF and (best is None or t < times[best]):
            best = c
    return None if best is None else (best, neurons[best], int(times[best]))


def spike_histogram(winners: Sequence[NetWinner], period: int) -> tuple[tuple[int, ...], int]:
    """(counts per winner time, silent presentations)."""
    counts = [0] * period
    inf_count = 0
    for win in winners:
        if win is None:
            inf_count += 1
        else:
            counts[win[2]] += 1
    return tuple(counts), inf_count


def purity(
    winners: Sequence[NetWinner], labels: Sequence[int], epochs: int
) -> tuple[float, list[tuple[int, int, int, int, int]], int]:
    """(purity, groups as (column, neuron, size, majority label, majority
    count) sorted by (column, neuron), unassigned presentations)."""
    n = len(winners)
    labs = list(labels)
    if len(labs) * epochs == n:
        labs = labs * epochs
    if len(labs) != n:
        raise ValueError(f"{n} presentations but {len(labels)} labels")
    by_group: dict[tuple[int, int], Counter] = defaultdict(Counter)
    unassigned = 0
    for win, lab in zip(winners, labs):
        if win is None:
            unassigned += 1
        else:
            by_group[win[:2]][lab] += 1
    groups = []
    covered = 0
    for (col, neuron), votes in sorted(by_group.items()):
        label, count = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))
        covered += count
        groups.append((col, neuron, sum(votes.values()), label, count))
    return (covered / n if n else 0.0), groups, unassigned


def cycle_savings(
    lengths: Sequence[int], col_times: Sequence[Sequence[SpikeTime]], period: int
) -> tuple[float, float]:
    """(realized, potential) savings; a row with a silent column counts as
    the whole period."""
    last_spikes = []
    for times in col_times:
        if all(t != INF for t in times):
            last_spikes.append(int(max(times)))
        else:
            last_spikes.append(period)
    realized = 1.0 - (sum(lengths) / len(lengths)) / period
    potential = 1.0 - (sum(last_spikes) / len(last_spikes)) / period
    return realized, potential


@dataclass(frozen=True)
class GeneratorState:
    """The gamma generator: an up counter over the period."""

    counter: int = 0
    period: int = 16

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not 0 <= self.counter < self.period:
            raise ValueError(f"counter {self.counter} outside 0..{self.period - 1}")


def generator_step(g: GeneratorState, control: bool) -> tuple[bool, GeneratorState]:
    """Pulse ``grst`` on rollover or on control; either way restart at 0."""
    grst = g.counter == g.period - 1 or bool(control)
    return grst, GeneratorState(0 if grst else g.counter + 1, g.period)


@dataclass(frozen=True)
class ControllerState:
    """One latch per monitored column."""

    column_latches: tuple[bool, ...]


def make_controller(column_count: int) -> ControllerState:
    if column_count < 1:
        raise ValueError(f"controller must monitor at least one column, got {column_count}")
    return ControllerState((False,) * column_count)


def controller_observe(c: ControllerState, spikes: Sequence[bool]) -> ControllerState:
    """OR one step's per-column output flags into the latches."""
    if len(spikes) != len(c.column_latches):
        raise ValueError(f"expected {len(c.column_latches)} column flags, got {len(spikes)}")
    return ControllerState(tuple(a or bool(s) for a, s in zip(c.column_latches, spikes)))


def controller_control(c: ControllerState) -> bool:
    """High once every monitored column has fired this cycle."""
    return all(c.column_latches)


def grst_clear(c: ControllerState) -> ControllerState:
    return ControllerState((False,) * len(c.column_latches))


def clocked_cycle(
    gen: GeneratorState, ctrl: ControllerState, times: Sequence[SpikeTime], relaxed: bool
) -> tuple[CycleResult, GeneratorState, ControllerState]:
    """Clock one gamma cycle; returns its result and the generator and
    controller states it carries into the next cycle."""
    if len(times) != len(ctrl.column_latches):
        raise ValueError(f"expected {len(ctrl.column_latches)} column times, got {len(times)}")
    for k in range(gen.period):
        if relaxed and controller_control(ctrl):
            # Control latched from the previous step's spikes: this step
            # carries the early grst edge and opens the next cycle.
            _, gen = generator_step(gen, True)
            return CycleResult(k, GrstCause.CONTROL), gen, grst_clear(ctrl)
        grst, gen = generator_step(gen, False)
        ctrl = controller_observe(ctrl, [t == k for t in times])
        if grst:
            return CycleResult(k + 1, GrstCause.PERIOD), gen, grst_clear(ctrl)
    raise AssertionError("generator failed to roll over within its period")


def reference_run(config: NetworkConfig, pixels, epochs: int, learn: bool, weights):
    """A whole run of the network from the scalar rules alone.

    Each presentation's ``readme_encode`` volley drives layer 0; each
    layer's ``stepwise_spike_times``, reduced by ``column_argmin``, gives
    its column winners, whose times are the next layer's volley. The final
    layer's times clock one ``clocked_cycle`` from a fresh generator and
    controller. With ``learn``, every layer then takes ``apply_update`` on
    each synapse of each winner's row, or of every row of a silent column.
    Returns the per-cycle rows ``(length, control, column times, column
    neurons)``, each cycle's per-layer winner neurons, and the final
    weights; ``weights`` is left as it is.
    """
    weights = [np.array(w, dtype=np.int64) for w in weights]
    relaxed = config.mode is Mode.RELAXED
    rows, winners = [], []
    for i in range(epochs * len(pixels)):
        x = readme_encode(np.asarray(pixels[i % len(pixels)]).tolist(), config.encoder)
        layers = []
        for w, threshold in zip(weights, config.thresholds):
            times = stepwise_spike_times(w.reshape(-1, w.shape[2]), x, config.period, threshold)
            idx, win = column_argmin(times, w.shape[0])
            layers.append((x, idx, win))
            x = win.tolist()
        gen, ctrl = GeneratorState(0, config.period), make_controller(len(x))
        result = clocked_cycle(gen, ctrl, x, relaxed)[0]
        control = result.cause is GrstCause.CONTROL
        rows.append((result.length, control, x, layers[-1][1].tolist()))
        winners.append([idx for _, idx, _ in layers])
        if not learn:
            continue
        for w, (inputs, idx, win) in zip(weights, layers):
            for c, (n, z) in enumerate(zip(idx.tolist(), win.tolist())):
                for row in [n] if n >= 0 else range(w.shape[1]):
                    w[c, row] = [
                        apply_update(h, classify_case(s, z), config.stdp_params)
                        for h, s in zip(w[c, row].tolist(), inputs)
                    ]
    return rows, winners, weights
