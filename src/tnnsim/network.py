"""Full simulation loop: encoder, column layers, gamma control, learning.

One image is presented per gamma cycle. The encoded volley drives layer 0;
each column's winner-take-all output (the winner's spike time, or silence)
becomes one input line of the next layer. Gamma control watches the
final layer only, so in relaxed mode a cycle ends one step after the last
final-layer column has fired and inner layers simply free-run. Every cycle
ends on a reset that clears the control state, so the network carries none
from one presentation to the next: only the weights persist. A run builds
each layer's ``neuron.KernelWorkspace`` from its weights, which packs them
once into planes; while training, the layer's ``stdp.LearningState``, built
from that workspace, moves those planes in place, and unpacks them into the
same weights when the run ends. An inference under the posneg code takes
layer 0 for every image at once, with ``neuron.posneg_spike_times``; each
presentation then runs the layers after it and gamma control.

A run leaves one columnar ``RunSummary``, one row per presentation: the
gamma trace of the final layer's step codes, as the kernel made them, plus
each final-layer column's winning neuron, each at the narrowest width that
holds it. Network winners, clock totals and every metric derive from these
arrays.

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
from .encode import INF, KINDS, EncoderKind, PosNeg, Volley, check_int, encode_image
from .neuron import KernelWorkspace, kernel_bytes, layer_spike_times, posneg_spike_times

# Largest working set the spike-time kernels of all layers may need together.
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
        for shape in self.layers:
            for size in shape:
                check_int("layer size", size, 1)
        check_int("pixel_count", self.pixel_count, 1)
        check_int("period", self.period, 1)
        check_int("seed", self.seed, 0)
        th = self.thresholds
        if len(th) != len(self.layers):
            raise ValueError(
                f"{len(th)} thresholds for {len(self.layers)} layers"
            )
        for t in th:
            check_int("threshold", t, 1)
        enc_period = getattr(self.encoder, "period", self.period)
        if enc_period != self.period:
            raise ValueError(
                f"encoder period {enc_period} differs from network period {self.period}"
            )
        # A run holds every layer's kernel workspace at once.
        total = 0
        for k, (cols, neurons) in enumerate(self.layers):
            need = kernel_bytes(cols * neurons, self.fan_in(k), self.stdp_params.w_max, self.period)
            total += need
            if total > KERNEL_BYTES_LIMIT:
                raise ValueError(
                    f"layer {k} ({cols}x{neurons}, {self.fan_in(k)} lines) needs a "
                    f"{need / 2**20:.0f} MiB kernel working set, {total / 2**20:.0f} MiB "
                    f"with the layers before it, over the {KERNEL_BYTES_LIMIT // 2**20} MiB limit"
                )

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


@dataclass(eq=False)
class RunSummary:
    """Everything a run leaves behind, enough to rebuild every metric.

    One row per presentation: the gamma trace plus ``col_neurons``, the
    winning neuron of each final-layer column, -1 exactly where the
    column stayed silent. The network winner is the column with the
    lowest step code, ties going to the lowest index; ``win_col`` and
    ``win_neuron`` are -1 and ``win_time`` is inf where every column stayed
    silent.
    """

    trace: gamma.GammaTrace
    col_neurons: np.ndarray
    epochs: int
    images: int

    def __post_init__(self):
        self.col_neurons = np.asarray(self.col_neurons)
        silent = self.trace.col_codes == self.trace.period
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
        first = self.trace.col_codes.min(axis=1)
        return np.where(first < self.trace.period, first, INF)

    @property
    def win_col(self) -> np.ndarray:
        return np.where(self.win_time < INF, self.trace.col_codes.argmin(axis=1), -1)

    @property
    def win_neuron(self) -> np.ndarray:
        col = self.trace.col_codes.argmin(axis=1)
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

    def run_gamma_cycle(
        self,
        volley: Volley,
        work: list,
        learning: Optional[list] = None,
        winners: Optional[np.ndarray] = None,
    ) -> tuple:
        """Present one volley to layer 0 for one gamma cycle.

        ``volley`` is an ``encode.Volley``, or raw spike times, which the
        layer kernel checks. ``work`` holds each layer's
        ``neuron.KernelWorkspace``, every column's neurons stacked into one
        bank of planes. Returns the ``gamma.CycleResult``, the final layer's
        output ``Volley`` (one line per column) and its per-column winner
        neurons (-1 when silent). Each layer hands its output volley to the
        next layer, to gamma control and to its own STDP update, and none
        checks it again. Given ``learning``, each layer's
        ``stdp.LearningState``, STDP updates every layer at the closing
        reset: it moves the planes the kernel reads and the parity in place
        and leaves ``self.weights`` stale until the run unpacks them.

        ``work`` may also start past layer 0, with ``volley`` the output of
        the layer before it and ``winners`` that layer's winner neurons,
        which are returned when ``work`` is empty.
        """
        cfg = self.config
        x, idx = volley, winners
        layers = []  # (input volley, winner neurons, output volley) per layer
        for ws in work:
            idx, out = layer_spike_times(ws, x)
            layers.append((x, idx, out))
            x = out

        result = gamma.run_cycle(x, cfg.period, relaxed=cfg.mode is Mode.RELAXED)

        if learning is not None:
            for state, (inputs, idx, out) in zip(learning, layers):
                stdp.update_layer(state, inputs, idx, out)
        return result, x, idx

    def _run(self, dataset: LabeledDataset, epochs: int, learn: bool) -> RunSummary:
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        cfg = self.config
        if dataset.pixels.shape[1] != cfg.pixel_count:
            raise ValueError(
                f"images have {dataset.pixels.shape[1]} pixels, layer 0 expects {cfg.pixel_count}"
            )
        n, (cols, neurons) = epochs * len(dataset), cfg.layers[-1]
        lengths = np.empty(n, dtype=np.min_scalar_type(cfg.period))
        control = np.empty(n, dtype=bool)
        col_codes = np.empty((n, cols), dtype=lengths.dtype)
        col_neurons = np.empty((n, cols), dtype=np.min_scalar_type(-neurons))
        # Each layer's kernel from its weights, planes deep enough to hold
        # every weight, so a layer learns on its planes.
        work = [
            KernelWorkspace(w, cfg.period, th, cfg.stdp_params.w_max)
            for w, th in zip(self.weights, cfg.thresholds)
        ]
        learning = [stdp.LearningState(ws, cfg.stdp_params) for ws in work] if learn else None
        pixels = dataset.pixels
        # With frozen weights, a posneg layer 0 answers for every image at
        # once; each presentation then runs the layers after it.
        batched = learning is None and isinstance(cfg.encoder, PosNeg)
        if batched:
            first_idx, first_codes = posneg_spike_times(work[0], pixels, cfg.encoder)
        try:
            for i in range(n):
                if batched:
                    volley, rest, winners = Volley(first_codes[i], cfg.period), work[1:], first_idx[i]
                else:
                    volley = encode_image(pixels[i % len(pixels)], cfg.encoder)
                    rest, winners = work, None
                result, out, col_neurons[i] = self.run_gamma_cycle(volley, rest, learning, winners)
                col_codes[i] = out.codes
                lengths[i] = result.length
                control[i] = result.cause is gamma.GrstCause.CONTROL
        finally:
            # The weights of every presentation that finished, even if one raised.
            for state in learning or ():
                state.unpack()
        return RunSummary(
            trace=gamma.GammaTrace(cfg.period, lengths, control, col_codes),
            col_neurons=col_neurons,
            epochs=epochs,
            images=len(dataset),
        )

    def train(self, dataset: LabeledDataset, epochs: int) -> RunSummary:
        """Present the whole dataset ``epochs`` times with learning on;
        ``epochs`` must be an integer >= 1."""
        check_int("epochs", epochs, 1)
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
    """Binary form of the run record, in the format it has always had:
    int64 counts and neurons, and float64 column times with ``inf`` for
    silence."""
    trace = summary.trace
    np.savez_compressed(
        path,
        lengths=trace.lengths.astype(np.int64),
        causes=trace.control,
        col_times=trace.col_times,
        col_neurons=summary.col_neurons.astype(np.int64),
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
    """Rebuild a run record. A damaged file, missing or malformed members,
    or a record that no run writes raise ``ValueError`` naming the file."""
    data = _read_npz(path)
    members = ("lengths", "causes", "col_times", "col_neurons", "meta")
    missing = [k for k in members if k not in data]
    if missing:
        raise ValueError(f"summary file {path} missing {', '.join(missing)}")
    if data["meta"].shape != (4,):
        raise ValueError(
            f"{path}: member 'meta' holds shape {data['meta'].shape}, a summary needs 4 values"
        )
    # Counts and indices must be integers and times real: a cast would
    # truncate a fraction or drop an imaginary part silently.
    for key, kinds, noun in (
        ("lengths", "iu", "integers"), ("col_neurons", "iu", "integers"),
        ("meta", "iu", "integers"), ("col_times", "iuf", "real numbers"),
    ):
        if data[key].dtype.kind not in kinds:
            raise ValueError(
                f"{path}: member '{key}' holds {data[key].dtype} values, a summary needs {noun}"
            )
    causes = data["causes"]
    if causes.dtype.kind not in "biu" or not np.isin(causes, (0, 1)).all():
        raise ValueError(f"{path}: member 'causes' must hold bools or integers 0 and 1")
    period, columns, epochs, images = (int(v) for v in data["meta"])
    times, neurons = data["col_times"], data["col_neurons"]
    try:
        # Stored times go through the spike-time rule once, into step codes.
        codes = Volley.from_times(times.ravel(), period).codes.reshape(times.shape)
        trace = gamma.GammaTrace(period, data["lengths"], causes, codes)
        summary = RunSummary(trace, neurons, epochs, images)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # Winners, once checked, at a run's width for the fewest neurons a
    # column the file implies, one more than its largest winner: the file
    # records no neuron count. A run writes them as int64.
    top = int(neurons.max(initial=0))
    if top > np.iinfo(np.int64).max:
        raise ValueError(f"{path}: winner {top} does not fit the int64 a summary holds")
    summary.col_neurons = neurons.astype(np.min_scalar_type(-1 - top))
    if columns != trace.column_count:
        raise ValueError(
            f"{path}: meta records {columns} columns, col_times holds {trace.column_count}"
        )
    if epochs < 1 or images < 1 or epochs * images != len(trace):
        raise ValueError(
            f"{path}: meta records {epochs} epochs of {images} images "
            f"for a trace of {len(trace)} cycles"
        )
    # Cycles end as gamma control ends them; a record with a control cycle
    # is a relaxed run's, and one without may be a fixed run's.
    want = gamma.cycle_ends(trace.col_codes, period, relaxed=trace.control.any())
    bad = np.flatnonzero((trace.lengths != want[0]) | (trace.control != want[1]))
    if bad.size:
        i = bad[0]
        cause = gamma.CAUSE_NAMES[bool(trace.control[i])]
        raise ValueError(
            f"{path}: {cause} cycle {i} has length {trace.lengths[i]}; control ends a cycle one "
            f"step after its last column time ({trace.col_times[i].max():g}), before the period "
            f"{period}, and a cycle it does not end runs the period"
        )
    return summary


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
