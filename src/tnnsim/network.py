"""Full simulation loop: encoder, column layers, gamma control, learning.

One image is presented per gamma cycle. The encoded volley drives layer 0;
each column's winner-take-all output (the winner's spike time, or silence)
becomes one input line of the next layer. The gamma controller watches the
final layer only, so in relaxed mode a cycle ends one step after the last
final-layer column has fired and inner layers simply free-run.

Everything is deterministic given the config seed: weight initialization
draws from a seeded generator and the simulation itself has no other
randomness, so repeated runs produce identical artifacts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, TextIO, Union

import numpy as np

from . import gamma, stdp
from .dataio import LabeledDataset
from .encode import INF, EncoderKind, PosNeg, encode_image
from .neuron import layer_spike_times


class Mode(enum.Enum):
    FIXED = "fixed"
    RELAXED = "relaxed"


@dataclass(frozen=True)
class NetworkConfig:
    """Shape and knobs for one network instance.

    ``layers`` lists (column count, neurons per column) from input to
    output; ``threshold`` is one firing threshold for every layer or a
    per-layer tuple.
    """

    layers: tuple[tuple[int, int], ...]
    pixel_count: int
    period: int = 16
    threshold: Union[int, tuple[int, ...]] = 2744
    encoder: EncoderKind = PosNeg()
    stdp_params: stdp.StdpParams = stdp.StdpParams()
    mode: Mode = Mode.RELAXED
    seed: int = 0

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for cols, neurons in self.layers:
            if cols < 1 or neurons < 1:
                raise ValueError(f"layer shape ({cols}, {neurons}) must be positive")
        if self.pixel_count < 1:
            raise ValueError(f"pixel_count must be >= 1, got {self.pixel_count}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        th = self.thresholds
        if len(th) != len(self.layers):
            raise ValueError(
                f"{len(th)} thresholds for {len(self.layers)} layers"
            )
        for t in th:
            if t < 1:
                raise ValueError(f"threshold must be >= 1, got {t}")

    @property
    def thresholds(self) -> tuple[int, ...]:
        if isinstance(self.threshold, tuple):
            return self.threshold
        return (self.threshold,) * len(self.layers)

    def fan_in(self, layer: int) -> int:
        """Input line count of one layer: dual-channel pixels, then one
        line per upstream column."""
        if layer == 0:
            return 2 * self.pixel_count
        return self.layers[layer - 1][0]


@dataclass(frozen=True)
class Winner:
    """Network-level output of one presentation."""

    column: int
    neuron: int
    time: int


@dataclass
class RunSummary:
    """Everything a run leaves behind, enough to rebuild every metric."""

    gamma_cycles: int
    total_clock_cycles: int
    trace: gamma.GammaTrace
    winners: list[Optional[Winner]]
    epochs: int
    images: int

    def __post_init__(self):
        if self.total_clock_cycles != sum(self.trace.lengths()):
            raise ValueError("total clock cycles must equal the sum of trace lengths")


@dataclass
class _CycleOutcome:
    length: int
    cause: gamma.GrstCause
    column_times: np.ndarray
    winner: Optional[Winner]


class TnnNetwork:
    """Mutable simulation state: weights plus the gamma machinery."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        cap = config.stdp_params.half_unit_cap
        self.weights: list[np.ndarray] = []
        for k, (cols, neurons) in enumerate(config.layers):
            shape = (cols, neurons, config.fan_in(k))
            self.weights.append(
                rng.integers(0, cap + 1, size=shape, dtype=np.int16)
            )
        self.generator = gamma.GeneratorState(period=config.period)
        self.controller = gamma.make_controller(config.layers[-1][0])

    def run_gamma_cycle(self, volley: np.ndarray, learn: bool) -> _CycleOutcome:
        """Present one volley (layer-0 spike times) for one gamma cycle.

        Returns the cycle outcome; when ``learn`` is set, weights update at
        the closing reset.
        """
        cfg = self.config
        x = np.asarray(volley, dtype=float)
        layer_inputs = []
        layer_winner_idx = []
        layer_winner_time = []
        for k, w in enumerate(self.weights):
            cols, neurons, lines = w.shape
            times = layer_spike_times(
                w.reshape(cols * neurons, lines), x, cfg.period, cfg.thresholds[k]
            ).reshape(cols, neurons)
            idx = np.argmin(times, axis=1)
            win_t = times[np.arange(cols), idx]
            fired = np.isfinite(win_t)
            layer_inputs.append(x)
            layer_winner_idx.append(np.where(fired, idx, -1).astype(np.int64))
            layer_winner_time.append(np.where(fired, win_t, np.inf))
            x = layer_winner_time[-1]

        final_times = layer_winner_time[-1]
        result = gamma.run_cycle(
            self.generator,
            self.controller,
            [t if np.isfinite(t) else INF for t in final_times],
            relaxed=cfg.mode is Mode.RELAXED,
        )
        self.generator = result.generator
        self.controller = result.controller

        if learn:
            for k, w in enumerate(self.weights):
                stdp.update_layer(
                    w,
                    layer_inputs[k],
                    layer_winner_idx[k],
                    layer_winner_time[k],
                    cfg.stdp_params,
                )

        winner = None
        if np.isfinite(final_times).any():
            col = int(np.argmin(final_times))
            winner = Winner(
                column=col,
                neuron=int(layer_winner_idx[-1][col]),
                time=int(final_times[col]),
            )
        return _CycleOutcome(
            length=result.length,
            cause=result.cause,
            column_times=final_times,
            winner=winner,
        )

    def _run(self, dataset: LabeledDataset, epochs: int, learn: bool) -> RunSummary:
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        cfg = self.config
        if dataset.pixels.shape[1] != cfg.pixel_count:
            raise ValueError(
                f"images have {dataset.pixels.shape[1]} pixels, layer 0 expects {cfg.pixel_count}"
            )
        trace = gamma.GammaTrace(period=cfg.period, column_count=cfg.layers[-1][0])
        winners: list[Optional[Winner]] = []
        total = 0
        for _ in range(epochs):
            for pixels in dataset.pixels:
                out = self.run_gamma_cycle(encode_image(pixels, cfg.encoder), learn=learn)
                total += out.length
                pairs = tuple(
                    (c, int(t))
                    for c, t in enumerate(out.column_times)
                    if np.isfinite(t)
                )
                trace.add(
                    gamma.GammaCycleRecord(
                        length=out.length, cause=out.cause, winners=pairs
                    )
                )
                winners.append(out.winner)
        return RunSummary(
            gamma_cycles=len(trace),
            total_clock_cycles=total,
            trace=trace,
            winners=winners,
            epochs=epochs,
            images=len(dataset),
        )

    def train(self, dataset: LabeledDataset, epochs: int) -> RunSummary:
        """Present the whole dataset ``epochs`` times with learning on."""
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        return self._run(dataset, epochs, learn=True)

    def infer(self, dataset: LabeledDataset) -> RunSummary:
        """One pass with frozen weights."""
        return self._run(dataset, 1, learn=False)


def write_summary_csv(summary: RunSummary, stream: TextIO) -> None:
    """One row per presentation; silent presentations carry inf/empty."""
    stream.write("presentation,length,cause,winner_column,winner_neuron,winner_time\n")
    for i, (rec, win) in enumerate(zip(summary.trace.records, summary.winners)):
        if win is None:
            tail = ",,inf"
        else:
            tail = f"{win.column},{win.neuron},{win.time}"
        stream.write(f"{i},{rec.length},{rec.cause.value},{tail}\n")


def save_summary_npz(summary: RunSummary, path) -> None:
    """Compact binary form of the trace, exact enough to rebuild it."""
    records = summary.trace.records
    cols = summary.trace.column_count
    n = len(records)
    col_times = np.full((n, cols), np.inf, dtype=np.float32)
    col_neurons = np.full((n, cols), -1, dtype=np.int16)
    for i, rec in enumerate(records):
        for c, t in rec.winners:
            col_times[i, c] = t
    lengths = np.array([r.length for r in records], dtype=np.int32)
    causes = np.array(
        [1 if r.cause is gamma.GrstCause.CONTROL else 0 for r in records],
        dtype=np.int8,
    )
    win_col = np.array(
        [w.column if w else -1 for w in summary.winners], dtype=np.int32
    )
    win_neuron = np.array(
        [w.neuron if w else -1 for w in summary.winners], dtype=np.int32
    )
    win_time = np.array(
        [w.time if w else np.inf for w in summary.winners], dtype=np.float32
    )
    np.savez_compressed(
        path,
        lengths=lengths,
        causes=causes,
        col_times=col_times,
        col_neurons=col_neurons,
        win_col=win_col,
        win_neuron=win_neuron,
        win_time=win_time,
        meta=np.array(
            [summary.trace.period, cols, summary.epochs, summary.images],
            dtype=np.int64,
        ),
    )


def load_summary_npz(path) -> RunSummary:
    # Each member is read once: every ``data[key]`` lookup decompresses the
    # whole member again.
    with np.load(path) as data:
        period, cols, epochs, images = (int(v) for v in data["meta"])
        col_times, lengths, causes = data["col_times"], data["lengths"], data["causes"]
        win_col, win_neuron, win_time = data["win_col"], data["win_neuron"], data["win_time"]
    trace = gamma.GammaTrace(period=period, column_count=cols)
    for times, length, cause in zip(col_times.tolist(), lengths.tolist(), causes.tolist()):
        trace.add(
            gamma.GammaCycleRecord(
                length=length,
                cause=gamma.GrstCause.CONTROL if cause else gamma.GrstCause.PERIOD,
                winners=tuple((c, int(t)) for c, t in enumerate(times) if t != INF),
            )
        )
    winners = [
        None if c < 0 else Winner(column=c, neuron=n, time=int(t))
        for c, n, t in zip(win_col.tolist(), win_neuron.tolist(), win_time.tolist())
    ]
    return RunSummary(
        gamma_cycles=len(trace),
        total_clock_cycles=int(sum(trace.lengths())),
        trace=trace,
        winners=winners,
        epochs=epochs,
        images=images,
    )


def save_weights_npz(net: TnnNetwork, path) -> None:
    np.savez_compressed(
        path, **{f"layer{k}": w for k, w in enumerate(net.weights)}
    )


def load_weights_npz(net: TnnNetwork, path) -> None:
    """Restore weights into an already-shaped network."""
    with np.load(path) as data:
        for k in range(len(net.weights)):
            key = f"layer{k}"
            if key not in data:
                raise ValueError(f"weight file missing {key}")
            arr = data[key]
            if arr.shape != net.weights[k].shape:
                raise ValueError(
                    f"{key} shape {arr.shape} does not match network {net.weights[k].shape}"
                )
            net.weights[k] = arr.astype(np.int16)
