"""The three benchmark workloads and one timed repetition of each.

A repetition reads the IDX inputs through ``dataio``, trains, infers and
produces the report tables. ``desk-posneg`` and ``deep-linear`` drive the
library API and render their CSVs in memory; ``cli-pipeline`` runs
``tnnsim train``, ``infer`` and ``report`` through ``cli.main`` and its
artifacts are read back from disk after the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tnnsim import cli, dataio, gamma, metrics, network
from tnnsim.encode import Linear, PosNeg
from tnnsim.stdp import StdpParams

U_BACKOFF = 6
# Set-up samples taken after each untraced repetition. One sample takes
# 0.05-0.7 s and sees the host's noise of that moment, and a run has only
# 3-6 repetitions; the median of several samples per repetition is steadier.
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    layers: tuple[tuple[int, int], ...]
    thresholds: tuple[int, ...]
    encoder: str
    n_train: int
    n_test: int
    via_cli: bool = False
    epochs: int = 1
    period: int = 16
    pixel_threshold: int = 127

    def config(self, pixel_count: int) -> network.NetworkConfig:
        if self.encoder == "posneg":
            kind = PosNeg(threshold=self.pixel_threshold)
        else:
            kind = Linear(period=self.period)
        return network.NetworkConfig(
            layers=self.layers,
            pixel_count=pixel_count,
            period=self.period,
            threshold=self.thresholds,
            encoder=kind,
            stdp_params=StdpParams(u_backoff=U_BACKOFF),
            seed=0,
        )

    def config_text(self, data: pathlib.Path) -> str:
        return (
            f"train_images = {data / 'train-images.idx'}\n"
            f"train_labels = {data / 'train-labels.idx'}\n"
            f"test_images = {data / 'test-images.idx'}\n"
            f"test_labels = {data / 'test-labels.idx'}\n"
            f"layers = {','.join(f'{c}x{n}' for c, n in self.layers)}\n"
            f"period = {self.period}\n"
            f"threshold = {','.join(map(str, self.thresholds))}\n"
            f"encoder = {self.encoder}\n"
            f"pixel_threshold = {self.pixel_threshold}\n"
            f"u_backoff = {U_BACKOFF}\n"
            f"epochs = {self.epochs}\n"
            "seed = 0\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-posneg", ((64, 10),), (3000,), "posneg", 300, 150),
        Workload("deep-linear", ((64, 10), (10, 10)), (3000, 60), "linear", 150, 100),
        Workload("cli-pipeline", ((8, 10),), (3000,), "posneg", 2000, 1000, via_cli=True),
    )
}


@dataclass
class Rep:
    """Host times of one repetition and what it produced."""

    wall_s: float
    train_s: float
    infer_s: float
    artifacts: dict[str, str] = field(repr=False)
    weights: list[np.ndarray] = field(repr=False)
    bytes_written: int = 0


class RepFailed(RuntimeError):
    """A CLI step exited non-zero."""


def _read(path, reader):
    with open(path, "rb") as f:
        return reader(f)


def setup(w: Workload, data: pathlib.Path, weights_path=None):
    """Everything before the first gamma cycle: read the IDX inputs through
    ``dataio`` and build the network.

    ``cli-pipeline`` goes through the CLI's own set-up helpers, as its
    ``train`` and ``infer`` commands do, and loads the trained weights.
    """
    if w.via_cli:
        cfg = cli.parse_config(data / "run.cfg")
        train = cli._load_dataset(cfg, ("train_images", "images"), ("train_labels", "labels"))
        test = cli._load_dataset(
            cfg, ("test_images", "images", "train_images"), ("test_labels", "labels", "train_labels")
        )
        first = train[0]
        net = network.TnnNetwork(cli._network_config(cfg, first.width * first.height))
        network.load_weights_npz(net, weights_path)
        return train, test, test.labels, net
    train = _read(data / "train-images.idx", dataio.read_idx_images)
    test = _read(data / "test-images.idx", dataio.read_idx_images)
    labels = _read(data / "test-labels.idx", dataio.read_idx_labels)
    first = train[0]
    net = network.TnnNetwork(w.config(first.width * first.height))
    return train, test, labels, net


def _render(write, obj) -> str:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


def _library_rep(w: Workload, data: pathlib.Path) -> Rep:
    t0 = perf_counter()
    train, test, labels, net = setup(w, data)
    t1 = perf_counter()
    trained = net.train(train, epochs=w.epochs)
    t2 = perf_counter()
    inferred = net.infer(test)
    t3 = perf_counter()
    artifacts = {
        "train/summary.csv": _render(network.write_summary_csv, trained),
        "train/trace.csv": _render(gamma.write_trace_csv, trained.trace),
        "infer/summary.csv": _render(network.write_summary_csv, inferred),
        "infer/trace.csv": _render(gamma.write_trace_csv, inferred.trace),
        "report/histogram.csv": _render(
            metrics.write_histogram_csv, metrics.spike_histogram(inferred)
        ),
        "report/purity.csv": _render(
            metrics.write_purity_csv, metrics.purity(inferred, labels)
        ),
    }
    realized, potential = metrics.cycle_savings(inferred.trace, inferred.trace.period)
    buf = io.StringIO()
    metrics.write_savings_csv(realized, potential, buf)
    artifacts["report/savings.csv"] = buf.getvalue()
    t4 = perf_counter()
    weights = [np.array(a) for a in net.weights]
    return Rep(t4 - t0, t2 - t1, t3 - t2, artifacts, weights)


def _cli_rep(w: Workload, data: pathlib.Path, out: pathlib.Path) -> Rep:
    steps = (
        ["train", "--config", str(data / "run.cfg"), "--out", str(out / "train")],
        ["infer", "--config", str(data / "run.cfg"),
         "--weights", str(out / "train" / "weights.npz"), "--out", str(out / "infer")],
        ["report", "--summary", str(out / "infer" / "summary.npz"),
         "--labels", str(data / "test-labels.idx"), "--out", str(out / "report")],
    )
    marks = [perf_counter()]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            code = cli.main(argv)
            marks.append(perf_counter())
            if code != 0:
                raise RepFailed(f"tnnsim {argv[0]} exited {code}")
    artifacts = {
        str(p.relative_to(out)): p.read_text() for p in sorted(out.rglob("*.csv"))
    }
    with np.load(out / "train" / "weights.npz") as saved:
        weights = [saved[f"layer{k}"] for k in range(len(w.layers))]
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return Rep(
        marks[3] - marks[0], marks[1] - marks[0], marks[2] - marks[1],
        artifacts, weights, written,
    )


def time_setup(w: Workload, data: pathlib.Path, out: pathlib.Path) -> list[float]:
    """``SETUP_SAMPLES`` timed set-ups after a finished repetition in ``out``.

    They are timed on their own, outside ``wall_s``, because the CLI's
    set-up runs inside ``cli.main``, where no clock outside the program
    reaches it; the library workloads are timed the same way.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        setup(w, data, out / "train" / "weights.npz")
        samples.append(perf_counter() - t0)
    return samples


def run_rep(w: Workload, data: pathlib.Path, out: pathlib.Path) -> Rep:
    return _cli_rep(w, data, out) if w.via_cli else _library_rep(w, data)
