"""Command-line front end.

Subcommands: ``encode`` (images to spike files), ``cost-sweep`` (comparator
bank cost CSV), ``verify-gamma`` (generator/controller functional checks),
``train`` / ``infer`` (simulation runs driven by a config file), ``report``
(histogram, purity, savings tables from a saved run).

Exit codes: 0 success, 1 validation or config error, 2 a verification
scenario failed. Every command is deterministic given its flags and seed;
re-running writes byte-identical artifacts.

The config file is flat ``key = value`` text, ``#`` starts a comment; the
network keys and their defaults belong to ``NetworkConfig.from_mapping``:

    images      = data/train-images.idx
    labels      = data/train-labels.idx
    layers      = 64x10
    threshold   = 3000
    epochs      = 3
"""

from __future__ import annotations

import argparse
import inspect
import pathlib
import sys
from typing import Optional

from . import costmodel, dataio, gamma, metrics, network
from .encode import KINDS, Linear, PosNeg, encode_image


class ConfigError(ValueError):
    """Bad config file contents, with file/line context in the message."""


# The run keys: which images to read and how long to train. Every other key
# configures the network and is read by ``network.NetworkConfig.from_mapping``.
_RUN_KEYS = (
    "images", "labels", "train_images", "train_labels", "test_images", "test_labels",
    "limit", "epochs",
)
_CONFIG_KEYS = frozenset(_RUN_KEYS + network.CONFIG_KEYS)


def parse_config(path: pathlib.Path) -> dict[str, str]:
    """Read a flat key = value file, rejecting unknown or repeated keys."""
    values: dict[str, str] = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeated")
        if not val:
            raise ConfigError(f"{path}:{lineno}: key {key!r} has no value")
        values[key] = val
    return values


def _config_int(cfg: dict[str, str], key: str, default: int) -> int:
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not an integer") from None


def _network_config(cfg: dict[str, str], pixel_count: int) -> network.NetworkConfig:
    return network.NetworkConfig.from_mapping(cfg, pixel_count)


def _load_dataset(
    cfg: dict[str, str], images_keys: tuple[str, ...], labels_keys: tuple[str, ...]
) -> dataio.LabeledDataset:
    img_key = next((k for k in images_keys if k in cfg), None)
    if img_key is None:
        raise ConfigError(f"one of {images_keys} is required")
    with open(cfg[img_key], "rb") as f:
        dataset = dataio.read_idx_images(f)
    lab_key = next((k for k in labels_keys if k in cfg), None)
    if lab_key is not None:
        with open(cfg[lab_key], "rb") as f:
            labels = dataio.read_idx_labels(f)
        dataset = dataio.attach_labels(dataset, labels)
    limit = _config_int(cfg, "limit", 0)
    if limit < 0:
        raise ConfigError(f"key 'limit': {limit} is negative (0 keeps every image)")
    if limit > 0:
        labels = None if dataset.labels is None else dataset.labels[:limit]
        dataset = dataio.LabeledDataset(
            dataset.pixels[:limit], dataset.width, dataset.height, labels
        )
    return dataset


def _cmd_encode(args) -> int:
    files = {"images": args.idx, "labels": args.labels}
    dataset = _load_dataset(files, ("images",), ("labels",) if args.labels else ())
    kind = KINDS[args.encoder]
    kind = PosNeg(args.threshold) if kind is PosNeg else kind(args.period)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    def render(codes) -> str:
        if isinstance(kind, PosNeg):
            # Channel bit: 1 where the line spikes, at step 0.
            return " ".join("1" if c == 0 else "0" for c in codes)
        return " ".join("inf" if c == kind.period else str(c) for c in codes)

    pixel_count = dataset.width * dataset.height
    with open(f"{out}_pos.txt", "w") as pos_f, open(f"{out}_neg.txt", "w") as neg_f:
        for pixels in dataset.pixels:
            codes = encode_image(pixels, kind).codes.tolist()
            pos_f.write(render(codes[:pixel_count]) + "\n")
            neg_f.write(render(codes[pixel_count:]) + "\n")
    if dataset.labels is not None:
        with open(f"{out}_labels.txt", "w") as lab_f:
            lab_f.writelines(f"{lab}\n" for lab in dataset.labels.tolist())
    return 0


def _cmd_cost_sweep(args) -> int:
    base = costmodel.ComparatorBankConfig(
        comparator_count=args.comparators,
        clock_frequency=args.frequency,
        pixels_per_image=args.pixels,
    )
    values = [float(v) for v in args.values.split(",") if v.strip()]
    points = costmodel.sweep(args.axis, values, base)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        costmodel.write_sweep_csv(points, f)
    errors = [p for p in points if p.error is not None]
    for p in errors:
        print(f"value {p.value}: {p.error}", file=sys.stderr)
    return 0


def _cmd_verify_gamma(args) -> int:
    results = gamma.verify_scenarios(period=args.period, column_count=args.columns)
    all_ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name}: {r.detail}")
        all_ok = all_ok and r.passed
    print(f"{sum(r.passed for r in results)}/{len(results)} scenarios passed")
    return 0 if all_ok else 2


def _write_run_artifacts(net, summary, out_dir: pathlib.Path, with_weights: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.csv", "w") as f:
        network.write_summary_csv(summary, f)
    with open(out_dir / "trace.csv", "w") as f:
        gamma.write_trace_csv(summary.trace, f)
    network.save_summary_npz(summary, out_dir / "summary.npz")
    if with_weights:
        network.save_weights_npz(net, out_dir / "weights.npz")


def _cmd_train(args) -> int:
    cfg = parse_config(pathlib.Path(args.config))
    dataset = _load_dataset(
        cfg, ("train_images", "images"), ("train_labels", "labels")
    )
    net = network.TnnNetwork(_network_config(cfg, dataset.width * dataset.height))
    summary = net.train(dataset, epochs=_config_int(cfg, "epochs", 1))
    _write_run_artifacts(net, summary, pathlib.Path(args.out), with_weights=True)
    realized, potential = metrics.cycle_savings(summary.trace, net.config.period)
    print(
        f"trained {summary.images} images x {summary.epochs} epochs: "
        f"{summary.gamma_cycles} gamma cycles, {summary.total_clock_cycles} clock steps, "
        f"realized savings {realized:.1%}"
    )
    return 0


def _cmd_infer(args) -> int:
    cfg = parse_config(pathlib.Path(args.config))
    dataset = _load_dataset(
        cfg, ("test_images", "images", "train_images"), ("test_labels", "labels", "train_labels")
    )
    net = network.TnnNetwork(_network_config(cfg, dataset.width * dataset.height))
    network.load_weights_npz(net, args.weights)
    summary = net.infer(dataset)
    _write_run_artifacts(net, summary, pathlib.Path(args.out), with_weights=False)
    hist = metrics.spike_histogram(summary)
    mode_t, frac = hist.mode_fraction()
    print(
        f"inferred {summary.images} images: busiest spike time {mode_t} "
        f"({frac:.1%} of outputs), {hist.inf_count} silent"
    )
    return 0


def _cmd_report(args) -> int:
    summary = network.load_summary_npz(args.summary)
    # Every input is read and checked before the output directory exists.
    report = None
    if args.labels:
        with open(args.labels, "rb") as f:
            report = metrics.purity(summary, dataio.read_idx_labels(f))
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    hist = metrics.spike_histogram(summary)
    with open(out_dir / "histogram.csv", "w") as f:
        metrics.write_histogram_csv(hist, f)
    (out_dir / "histogram.md").write_text(metrics.histogram_markdown(hist))
    realized, potential = metrics.cycle_savings(summary.trace, summary.trace.period)
    with open(out_dir / "savings.csv", "w") as f:
        metrics.write_savings_csv(realized, potential, f)
    if report is not None:
        with open(out_dir / "purity.csv", "w") as f:
            metrics.write_purity_csv(report, f)
        (out_dir / "purity.md").write_text(metrics.purity_markdown(report))
        print(f"purity {report.purity:.4f} over {len(report.groups)} winner groups")
    print(
        f"cycle savings: realized {realized:.2%}, potential {potential:.2%}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tnnsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_enc = sub.add_parser("encode", help="encode IDX images into spike files")
    p_enc.add_argument("--idx", required=True, help="IDX image file")
    p_enc.add_argument("--labels", help="optional IDX label file")
    p_enc.add_argument("--encoder", required=True, choices=list(KINDS))
    p_enc.add_argument(
        "--threshold", type=int, default=PosNeg.threshold, help="posneg pixel threshold"
    )
    p_enc.add_argument(
        "--period", type=int, default=Linear.period, help="gamma period for graded codes"
    )
    p_enc.add_argument("--out", required=True, help="output path prefix")
    p_enc.set_defaults(func=_cmd_encode)

    p_cost = sub.add_parser("cost-sweep", help="comparator bank cost CSV")
    p_cost.add_argument(
        "--axis", required=True, choices=list(costmodel.SWEEP_AXES)
    )
    p_cost.add_argument("--values", required=True, help="comma-separated sweep values")
    p_cost.add_argument("--comparators", type=int, default=49)
    p_cost.add_argument("--frequency", type=float, default=1e9)
    p_cost.add_argument("--pixels", type=int, default=784)
    p_cost.add_argument("--out", required=True, help="output CSV path")
    p_cost.set_defaults(func=_cmd_cost_sweep)

    p_ver = sub.add_parser("verify-gamma", help="run the generator/controller checks")
    scenario = inspect.signature(gamma.verify_scenarios).parameters
    p_ver.add_argument("--period", type=int, default=scenario["period"].default)
    p_ver.add_argument("--columns", type=int, default=scenario["column_count"].default)
    p_ver.set_defaults(func=_cmd_verify_gamma)

    p_train = sub.add_parser("train", help="train a network from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=_cmd_train)

    p_inf = sub.add_parser("infer", help="run inference with saved weights")
    p_inf.add_argument("--config", required=True)
    p_inf.add_argument("--weights", required=True, help="weights npz from train")
    p_inf.add_argument("--out", required=True, help="output directory")
    p_inf.set_defaults(func=_cmd_infer)

    p_rep = sub.add_parser("report", help="tables from a saved run summary")
    p_rep.add_argument("--summary", required=True, help="summary npz from train/infer")
    p_rep.add_argument("--labels", help="optional IDX label file for purity")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
