"""Full simulation loop: encoder, column layers, gamma control, learning.

One image is presented per gamma cycle. The encoded volley drives layer 0;
each column's winner-take-all output (the winner's spike time, or silence)
becomes one input line of the next layer. Gamma control watches the
final layer only, so in relaxed mode a cycle ends one step after the last
final-layer column has fired and inner layers simply free-run. Every cycle
ends on a reset that clears the control state, so the network carries none
from one presentation to the next: only the weights persist.

A run leaves one columnar ``RunSummary``, one row per presentation: the
gamma trace plus each final-layer column's winning neuron. Network
winners, clock totals and every metric derive from these arrays.

Everything is deterministic given the config seed: weight initialization
draws from a seeded generator and the simulation itself has no other
randomness, so repeated runs produce identical artifacts.
"""

from __future__ import annotations

import enum
import json
import tokenize
import zipfile
import zlib
from dataclasses import dataclass, fields
from typing import Mapping, Optional, TextIO, Union

import numpy as np

from . import gamma, stdp
from .dataio import LabeledDataset
from .encode import INF, KINDS, EncoderKind, PosNeg, encode_image
from .neuron import kernel_bytes, layer_spike_times, pack_lines, unpack_weights, weight_planes

# Largest working set one layer's spike-time kernel may need.
KERNEL_BYTES_LIMIT = 1 << 30


class Mode(enum.Enum):
    FIXED = "fixed"
    RELAXED = "relaxed"


def _read_layers(text: str) -> tuple[tuple[int, int], ...]:
    return tuple((int(c), int(n)) for c, _, n in (p.partition("x") for p in text.split(",")))


def _read_threshold(text: str) -> Union[int, tuple[int, ...]]:
    values = tuple(int(part) for part in text.split(","))
    return values[0] if len(values) == 1 else values


_INT = (int, "an integer")
# How each network config key reads, and what its text must look like.
_READERS = {
    "layers": (_read_layers, "COLSxNEURONS[,COLSxNEURONS...]"),
    "period": _INT,
    "threshold": (_read_threshold, "an integer or a comma list of integers"),
    "encoder": (KINDS.__getitem__, " or ".join(KINDS)),
    "pixel_threshold": _INT,
    "mode": (Mode, " or ".join(m.value for m in Mode)),
    "seed": _INT,
    **{f.name: _INT for f in fields(stdp.StdpParams)},
}
# The network config keys, in the order ``NetworkConfig.to_mapping`` writes them.
CONFIG_KEYS = tuple(_READERS)

# The keys a weight file must agree on with the network it loads into: they
# fix what the weights mean. Seed, mode and the learning steps only choose
# how weights start, how cycles end and how weights move.
_WEIGHT_KEYS = ("layers", "period", "threshold", "encoder", "pixel_threshold", "w_max")


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

    @classmethod
    def from_mapping(cls, values: Mapping[str, str], pixel_count: int) -> NetworkConfig:
        """Build a config from flat ``key = value`` strings. Only ``layers``
        is required: a key left out keeps its field default, a value that
        does not parse raises ``ValueError`` naming its key, and keys
        outside ``CONFIG_KEYS`` are ignored."""
        got = {}
        for key, (read, form) in _READERS.items():
            if key in values:
                try:
                    got[key] = read(values[key])
                except (KeyError, ValueError):
                    raise ValueError(f"key {key!r}: {values[key]!r} is not {form}") from None
        if "layers" not in got:
            raise ValueError("key 'layers' is required")
        kind = got.pop("encoder", type(cls.encoder))
        pixel_threshold = got.pop("pixel_threshold", PosNeg.threshold)
        steps = {f.name: got.pop(f.name) for f in fields(stdp.StdpParams) if f.name in got}
        period = got.get("period", cls.period)
        return cls(
            pixel_count=pixel_count,
            encoder=PosNeg(pixel_threshold) if kind is PosNeg else kind(period),
            stdp_params=stdp.StdpParams(**steps),
            **got,  # the keys named after fields: layers, period, threshold, mode, seed
        )

    def to_mapping(self) -> dict[str, str]:
        """The canonical strings ``from_mapping`` reads back: the threshold
        as its per-layer list, ``pixel_threshold`` only for posneg."""
        out = {
            "layers": ",".join(f"{cols}x{neurons}" for cols, neurons in self.layers),
            "period": self.period,
            "threshold": ",".join(map(str, self.thresholds)),
            "encoder": next(name for name, kind in KINDS.items() if type(self.encoder) is kind),
            "pixel_threshold": getattr(self.encoder, "threshold", None),
            "mode": self.mode.value,
            "seed": self.seed,
            **{f.name: getattr(self.stdp_params, f.name) for f in fields(stdp.StdpParams)},
        }
        return {key: str(value) for key, value in out.items() if value is not None}

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        th = self.thresholds
        if len(th) != len(self.layers):
            raise ValueError(
                f"{len(th)} thresholds for {len(self.layers)} layers"
            )
        for t in th:
            if t < 1:
                raise ValueError(f"threshold must be >= 1, got {t}")
        enc_period = getattr(self.encoder, "period", self.period)
        if enc_period != self.period:
            raise ValueError(
                f"encoder period {enc_period} differs from network period {self.period}"
            )
        for k, (cols, neurons) in enumerate(self.layers):
            need = kernel_bytes(cols * neurons, self.fan_in(k), self.plane_depth, self.period)
            if need > KERNEL_BYTES_LIMIT:
                raise ValueError(
                    f"layer {k} ({cols}x{neurons}, {self.fan_in(k)} lines) needs a "
                    f"{need / 2**20:.0f} MiB kernel working set, over the "
                    f"{KERNEL_BYTES_LIMIT // 2**20} MiB limit"
                )

    @property
    def thresholds(self) -> tuple[int, ...]:
        if isinstance(self.threshold, tuple):
            return self.threshold
        return (self.threshold,) * len(self.layers)

    @property
    def plane_depth(self) -> int:
        """Bit-planes per bank: a ramp never runs past the period."""
        return min(self.stdp_params.w_max, self.period)

    def fan_in(self, layer: int) -> int:
        """Input line count of one layer: dual-channel pixels, then one
        line per upstream column."""
        if layer == 0:
            return 2 * self.pixel_count
        return self.layers[layer - 1][0]


@dataclass(eq=False)
class RunSummary:
    """Everything a run leaves behind, enough to rebuild every metric.

    One row per presentation: the gamma trace plus ``col_neurons``, the
    winning neuron of each final-layer column, -1 exactly where the
    column stayed silent. The network winner is the earliest column, ties
    going to the lowest index; ``win_col`` and ``win_neuron`` are -1 and
    ``win_time`` is inf where every column stayed silent.
    """

    trace: gamma.GammaTrace
    col_neurons: np.ndarray
    epochs: int
    images: int

    def __post_init__(self):
        self.col_neurons = np.asarray(self.col_neurons, dtype=np.int64)
        silent = self.trace.col_times == INF
        if not np.array_equal(self.col_neurons == -1, silent) or (self.col_neurons < -1).any():
            raise ValueError(
                "col_neurons must hold a neuron index for every column that "
                "fired and -1 for every silent column"
            )

    @property
    def gamma_cycles(self) -> int:
        return len(self.trace)

    @property
    def total_clock_cycles(self) -> int:
        return int(self.trace.lengths.sum())

    @property
    def win_time(self) -> np.ndarray:
        return self.trace.col_times.min(axis=1)

    @property
    def win_col(self) -> np.ndarray:
        return np.where(self.win_time == INF, -1, self.trace.col_times.argmin(axis=1))

    @property
    def win_neuron(self) -> np.ndarray:
        col = self.trace.col_times.argmin(axis=1)
        return self.col_neurons[np.arange(len(col)), col]


class TnnNetwork:
    """Mutable simulation state: the weights of every layer."""

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

    def pack_planes(self) -> list[np.ndarray]:
        """Each layer's bit-planes, packed from the current weights, with
        every column's neurons stacked into one ``(cols * neurons)`` bank."""
        return [
            weight_planes(w.reshape(-1, w.shape[2]), self.config.plane_depth)
            for w in self.weights
        ]

    def run_gamma_cycle(
        self, volley: np.ndarray, planes: list, learn: bool, parity: Optional[list] = None
    ) -> tuple:
        """Present one volley (layer-0 spike times) for one gamma cycle.

        ``planes`` is ``pack_planes()`` of the current weights. Returns
        the ``gamma.CycleResult`` and the final layer's per-column winner
        times (inf when silent) and neurons (-1 when silent). When
        ``learn`` is set, STDP updates every layer at the closing reset:
        with ``parity``, each layer's packed ``weights & 1``, it shifts the
        planes and parity in place and leaves ``self.weights`` stale; with
        ``parity`` None it updates ``self.weights`` and repacks the planes
        of every rewritten row.
        """
        cfg = self.config
        x = np.asarray(volley, dtype=float)
        layers = []  # (input volley, winner neurons, winner times) per layer
        for k, w in enumerate(self.weights):
            cols, _, lines = w.shape
            idx, win_t = layer_spike_times(planes[k], x, cfg.period, cfg.thresholds[k], lines, cols)
            layers.append((x, idx, win_t))
            x = win_t

        result = gamma.run_cycle(x.tolist(), cfg.period, relaxed=cfg.mode is Mode.RELAXED)

        if learn:
            for k, (w, bank, (inputs, idx, win_t)) in enumerate(zip(self.weights, planes, layers)):
                if parity is None:
                    rows = stdp.update_weights(w, inputs, idx, win_t, cfg.stdp_params)
                    bank[rows] = weight_planes(w.reshape(-1, w.shape[2])[rows], cfg.plane_depth)
                else:
                    state = bank.reshape(w.shape[:2] + bank.shape[1:])
                    stdp.update_layer(state, inputs, idx, win_t, cfg.stdp_params, parity[k])
        return result, x, layers[-1][1]

    def _run(self, dataset: LabeledDataset, epochs: int, learn: bool) -> RunSummary:
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        cfg = self.config
        if dataset.pixels.shape[1] != cfg.pixel_count:
            raise ValueError(
                f"images have {dataset.pixels.shape[1]} pixels, layer 0 expects {cfg.pixel_count}"
            )
        n, cols = epochs * len(dataset), cfg.layers[-1][0]
        lengths = np.empty(n, dtype=np.int64)
        control = np.empty(n, dtype=bool)
        col_times = np.empty((n, cols))
        col_neurons = np.empty((n, cols), dtype=np.int64)
        planes = self.pack_planes()
        # Layers learn on their planes when these hold every weight.
        parity = None
        if learn and cfg.plane_depth == cfg.stdp_params.w_max:
            parity = [pack_lines(w & 1) for w in self.weights]
        try:
            for i in range(n):
                volley = encode_image(dataset.pixels[i % len(dataset)], cfg.encoder)
                result, col_times[i], col_neurons[i] = self.run_gamma_cycle(
                    volley, planes, learn, parity
                )
                lengths[i] = result.length
                control[i] = result.cause is gamma.GrstCause.CONTROL
        finally:
            # The weights of every presentation that finished, even if one raised.
            for w, bank, held in zip(self.weights, planes, parity or ()):
                unpack_weights(bank, held.reshape(-1, held.shape[2]), w.reshape(-1, w.shape[2]))
        return RunSummary(
            trace=gamma.GammaTrace(cfg.period, lengths, control, col_times),
            col_neurons=col_neurons,
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
    trace = summary.trace
    rows = zip(
        trace.lengths.tolist(),
        trace.control.tolist(),
        summary.win_col.tolist(),
        summary.win_neuron.tolist(),
        summary.win_time.tolist(),
    )
    for i, (length, control, col, neuron, t) in enumerate(rows):
        tail = ",,inf" if col < 0 else f"{col},{neuron},{int(t)}"
        stream.write(f"{i},{length},{gamma.CAUSE_NAMES[control]},{tail}\n")


def save_summary_npz(summary: RunSummary, path) -> None:
    """Binary form of the run record, each array at the dtype it holds."""
    trace = summary.trace
    np.savez_compressed(
        path,
        lengths=trace.lengths,
        causes=trace.control,
        col_times=trace.col_times,
        col_neurons=summary.col_neurons,
        meta=np.array(
            [trace.period, trace.column_count, summary.epochs, summary.images],
            dtype=np.int64,
        ),
    )


# What zipfile, zlib and numpy's ``.npy`` header parser raise on damaged
# archive bytes: RuntimeError also covers an unsupported compression method
# or a set encryption flag, TokenError a garbled array header.
_ARCHIVE_ERRORS = (
    OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile, zlib.error,
    tokenize.TokenError,
)


def _read_npz(path) -> dict[str, np.ndarray]:
    """Every member of the ``.npz`` archive at ``path``, each read once.

    A file that is not an intact archive raises ``ValueError`` naming it,
    whether the fault shows on opening it or on reading a member; a file
    that cannot be opened at all stays an ``OSError``.
    """
    with open(path, "rb") as f:
        # The zip signatures ``np.load`` itself tells archives apart by.
        if f.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
            raise ValueError(f"{path} is not an .npz archive")
        f.seek(0)
        try:
            with np.load(f) as data:
                return {key: data[key] for key in data.files}
        except _ARCHIVE_ERRORS as exc:
            raise ValueError(f"{path} is a damaged .npz archive: {exc}") from None


def load_summary_npz(path) -> RunSummary:
    """Rebuild a run record; a damaged file or missing or malformed members
    raise ``ValueError``."""
    data = _read_npz(path)
    members = ("lengths", "causes", "col_times", "col_neurons", "meta")
    missing = [k for k in members if k not in data]
    if missing:
        raise ValueError(f"summary file {path} missing {', '.join(missing)}")
    if data["meta"].shape != (4,):
        raise ValueError(
            f"{path}: member 'meta' holds shape {data['meta'].shape}, a summary needs 4 values"
        )
    period, _, epochs, images = (int(v) for v in data["meta"])
    trace = gamma.GammaTrace(period, data["lengths"], data["causes"], data["col_times"])
    return RunSummary(trace, data["col_neurons"], epochs, images)


def save_weights_npz(net: TnnNetwork, path) -> None:
    """Each layer's weights as ``layer{k}``, and ``config``: the JSON of the
    network's ``to_mapping()``."""
    np.savez_compressed(
        path,
        config=np.array(json.dumps(net.config.to_mapping())),
        **{f"layer{k}": w for k, w in enumerate(net.weights)},
    )


def _check_trained_config(text: str, config: NetworkConfig) -> None:
    try:
        saved = json.loads(text)
    except ValueError:
        saved = None
    if not isinstance(saved, dict):
        raise ValueError("weight file config is not a JSON object")
    ours = config.to_mapping()
    for key in _WEIGHT_KEYS:
        if saved.get(key) != ours.get(key):
            raise ValueError(
                f"weights were trained with {key} = {saved.get(key)}, "
                f"the config has {key} = {ours.get(key)}"
            )


def load_weights_npz(net: TnnNetwork, path) -> None:
    """Restore weights into an already-shaped network, all or nothing.

    The file must record its ``config``, which must agree with the network
    on ``_WEIGHT_KEYS``. Besides it the file must hold exactly the network's
    ``layer{k}`` members, each of the network's shape, integer and in
    ``0..half_unit_cap``. Anything else raises ``ValueError`` before any
    weight is replaced.
    """
    cap = net.config.stdp_params.half_unit_cap
    want = [f"layer{k}" for k in range(len(net.weights))]
    data = _read_npz(path)
    if "config" not in data:
        raise ValueError(f"weight file {path} records no config")
    _check_trained_config(str(data["config"]), net.config)
    held = sorted(set(data) - {"config"})
    if held != sorted(want):
        raise ValueError(
            f"weight file {path} holds {', '.join(held) or 'no layers'}, a "
            f"{len(want)}-layer network needs {', '.join(want)}"
        )
    layers = [data[key] for key in want]
    for key, arr, current in zip(want, layers, net.weights):
        if arr.shape != current.shape:
            raise ValueError(f"{key} shape {arr.shape} does not match network {current.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{key} has dtype {arr.dtype}, weights must be integers")
        bad = arr[(arr < 0) | (arr > cap)]
        if bad.size:
            raise ValueError(f"{key} holds weight {bad[0]} outside 0..{cap}")
    net.weights[:] = [arr.astype(np.int16) for arr in layers]
