"""CLI integration: subcommands, config handling, exit codes, artifacts."""

import importlib.util
import json
import pathlib
import struct
import sys
import zipfile

import numpy as np
import pytest

import tnnsim.gamma
from tnnsim import dataio, synth
from tnnsim.cli import ConfigError, main, parse_config
from tnnsim.encode import INF
from tnnsim.network import NetworkConfig, TnnNetwork, load_summary_npz, save_weights_npz

DATA = pathlib.Path(__file__).parent / "data"


def load_make_golden():
    """Import ``data/make_golden.py`` by path, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location("make_golden", DATA / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


# The runs behind the golden files in tests/data.
GOLDEN = load_make_golden()


def run_cli(argv):
    """main() with argparse's SystemExit folded into the return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def make_images(path, specs, side=4):
    """Write an IDX image file from (fill_value, label) specs."""
    pixels = np.array([pattern for pattern, _ in specs], dtype=np.uint8)
    with open(path, "wb") as f:
        dataio.write_idx_images(dataio.LabeledDataset(pixels, side, side), f)


def make_labels(path, labels):
    with open(path, "wb") as f:
        dataio.write_idx_labels(labels, f)


def two_tone(side=4):
    return [200 if c < side // 2 else 30 for r in range(side) for c in range(side)]


def flat(value, side=4):
    return [value] * (side * side)


@pytest.fixture
def data_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    make_images(
        d / "imgs.idx",
        [(two_tone(), 0), (flat(250), 1), (flat(5), 2), (two_tone(), 0)],
    )
    make_labels(d / "labs.idx", [0, 1, 2, 0])
    return d


def truncate_to(size):
    def damage(path):
        path.write_bytes(path.read_bytes()[:size])

    return damage


def flip_member_byte(path):
    """Flip one byte in the middle of the archive's first member's data."""
    raw = bytearray(path.read_bytes())
    info = zipfile.ZipFile(path).infolist()[0]
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    raw[info.header_offset + 30 + name_len + extra_len + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


def replace_with_npy(path):
    with open(path, "wb") as f:
        np.save(f, np.arange(3))


def short_meta(path):
    with np.load(path) as data:
        members = dict(data)
    members["meta"] = members["meta"][:3]
    np.savez_compressed(path, **members)


def drop_config(path):
    with np.load(path) as data:
        members = dict(data)
    del members["config"]
    np.savez_compressed(path, **members)


# Ways an artifact can be damaged or not be an .npz archive at all; the
# last two apply to summaries and to weights only.
ARCHIVE_DAMAGE = {
    "cut-200": truncate_to(200),
    "cut-300": truncate_to(300),
    "flipped-member-byte": flip_member_byte,
    "npy": replace_with_npy,
    "empty": lambda path: path.write_bytes(b""),
    "text": lambda path: path.write_text("layer0 = 1\n"),
    "short-meta": short_meta,
    "no-config": drop_config,
}


def write_config(path, **keys):
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


class TestParseConfig:
    def test_reads_values_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# a comment\n"
            "layers = 4x3   # trailing comment\n"
            "\n"
            "seed = 9\n"
        )
        assert parse_config(p) == {"layers": "4x3", "seed": "9"}

    def test_unknown_key_reports_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("layers = 4x3\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2.*bogus"):
            parse_config(p)

    def test_repeated_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="repeated"):
            parse_config(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed 1\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(p)

    def test_empty_value_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed =\n")
        with pytest.raises(ConfigError, match="no value"):
            parse_config(p)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")


class TestEncodeCommand:
    def test_posneg_channels_complement(self, data_dir, tmp_path):
        out = tmp_path / "enc" / "spikes"
        rc = run_cli(
            [
                "encode",
                "--idx",
                str(data_dir / "imgs.idx"),
                "--labels",
                str(data_dir / "labs.idx"),
                "--encoder",
                "posneg",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        pos = (tmp_path / "enc" / "spikes_pos.txt").read_text().splitlines()
        neg = (tmp_path / "enc" / "spikes_neg.txt").read_text().splitlines()
        labs = (tmp_path / "enc" / "spikes_labels.txt").read_text().splitlines()
        assert len(pos) == len(neg) == 4
        assert labs == ["0", "1", "2", "0"]
        for p_line, n_line in zip(pos, neg):
            p_bits = p_line.split()
            n_bits = n_line.split()
            assert len(p_bits) == 16
            assert all(
                {pb, nb} == {"0", "1"} for pb, nb in zip(p_bits, n_bits)
            )
        # two-tone: left half bright (pos), right half dark (neg)
        assert pos[0].split() == ["1", "1", "0", "0"] * 4
        assert pos[1].split() == ["1"] * 16
        assert pos[2].split() == ["0"] * 16

    def test_graded_encoder_writes_times(self, data_dir, tmp_path):
        out = tmp_path / "spikes"
        rc = run_cli(
            [
                "encode",
                "--idx",
                str(data_dir / "imgs.idx"),
                "--encoder",
                "linear",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        pos = (tmp_path / "spikes_pos.txt").read_text().splitlines()
        neg = (tmp_path / "spikes_neg.txt").read_text().splitlines()
        # flat 250: level ceil(250*16/256)=16 -> time 0 on the positive side
        assert pos[1].split() == ["0"] * 16
        # its negated value 5: level ceil(5*16/256)=1 -> time 15
        assert neg[1].split() == ["15"] * 16
        # flat 5 positive: time 15; no labels file without --labels
        assert pos[2].split() == ["15"] * 16
        assert not (tmp_path / "spikes_labels.txt").exists()

    def test_posneg_digit4_keeps_its_bytes(self, tmp_path):
        # The synthetic digit-4 sample behind the golden channel files.
        sample = synth.make_dataset(50, seed=7)[4]
        with open(tmp_path / "digit4.idx", "wb") as f:
            pixels = sample.pixels[None]
            dataio.write_idx_images(dataio.LabeledDataset(pixels, sample.width, sample.height), f)
        out = tmp_path / "digit4"
        argv = ["encode", "--idx", str(tmp_path / "digit4.idx"), "--encoder", "posneg"]
        assert run_cli([*argv, "--out", str(out)]) == 0
        for side in ("pos", "neg"):
            got = (tmp_path / f"digit4_{side}.txt").read_bytes()
            assert got == (DATA / f"digit4_{side}.txt").read_bytes(), side

    def test_empty_idx_gives_empty_outputs(self, tmp_path):
        empty = tmp_path / "empty.idx"
        empty.write_bytes(struct.pack(">iiii", 2051, 0, 4, 4))
        out = tmp_path / "spikes"
        rc = run_cli(
            ["encode", "--idx", str(empty), "--encoder", "posneg", "--out", str(out)]
        )
        assert rc == 0
        assert (tmp_path / "spikes_pos.txt").read_text() == ""
        assert (tmp_path / "spikes_neg.txt").read_text() == ""

    def test_missing_idx_exits_one(self, tmp_path, capsys):
        rc = run_cli(
            [
                "encode",
                "--idx",
                str(tmp_path / "nope.idx"),
                "--encoder",
                "posneg",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestCostSweepCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli(
            [
                "cost-sweep",
                "--axis",
                "comparator_count",
                "--values",
                "1,49,784",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("cycles,processing_time,")

    def test_violation_row_reported_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run_cli(
            [
                "cost-sweep",
                "--axis",
                "frequency",
                "--values",
                "1e9,30e9",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "30" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            ("image_size", "inf", "finite, got inf"),
            ("frequency", "nan", "finite, got nan"),
            ("comparator_count", "2.5,2", "whole numbers, got 2.5"),
        ],
    )
    def test_unpriceable_value_exits_one(self, tmp_path, capsys, axis, values, message):
        out = tmp_path / "sweep.csv"
        rc = run_cli(["cost-sweep", "--axis", axis, "--values", values, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_non_finite_base_frequency_exits_one(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run_cli(
            ["cost-sweep", "--axis", "comparator_count", "--values", "1,2",
             "--frequency", "nan", "--out", str(out)]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: clock_frequency must be positive and finite, got nan\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("axis", sorted(GOLDEN.COST_SWEEPS))
    def test_matches_golden_sweep(self, tmp_path, capsys, axis):
        # Every float of the cost model, byte for byte, against files that
        # tests/data/make_golden.py wrote.
        out = tmp_path / "sweep.csv"
        rc = run_cli(
            ["cost-sweep", "--axis", axis, "--values", GOLDEN.COST_SWEEPS[axis], "--out", str(out)]
        )
        assert rc == 0
        golden = DATA / f"cost_sweep_{axis}.csv"
        assert out.read_bytes() == golden.read_bytes()
        assert capsys.readouterr().err == golden.with_suffix(".err").read_text()

    def test_unknown_axis_exits_one(self, tmp_path, capsys):
        rc = run_cli(
            [
                "cost-sweep",
                "--axis",
                "nonsense",
                "--values",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1


class TestVerifyGammaCommand:
    def test_passing_run(self, capsys):
        rc = run_cli(["verify-gamma"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3/3 scenarios passed" in out
        assert "FAIL" not in out

    def test_injected_fault_exits_two(self, capsys, monkeypatch):
        # A closed form that ignores silent columns; the silent-cycle
        # scenario must catch it.
        def wrong(times, period, relaxed):
            g = tnnsim.gamma
            last = max((t for t in times if t != INF), default=0)
            if relaxed and last + 1 < period:
                return g.CycleResult(int(last) + 1, g.GrstCause.CONTROL)
            return g.CycleResult(period, g.GrstCause.PERIOD)

        monkeypatch.setattr(tnnsim.gamma, "run_cycle", wrong)
        rc = run_cli(["verify-gamma"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "FAIL  silent-cycle" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--period", "1"], "period"),
            (["--period", "0"], "period"),
            (["--period", "-3"], "period"),
            (["--columns", "0"], "column"),
        ],
    )
    def test_bad_arguments_exit_one(self, capsys, flags, message):
        rc = run_cli(["verify-gamma", *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_module_entry_point(self):
        import os
        import pathlib
        import subprocess

        # The child imports the package the suite imported, installed or not.
        src = str(pathlib.Path(tnnsim.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "tnnsim.cli", "verify-gamma"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "3/3 scenarios passed" in proc.stdout


class TestTrainInferReport:
    def test_golden_run_keeps_its_bytes(self, tmp_path):
        # A seeded train -> infer -> report writes the CSVs, markdown and
        # weight values whose digests tests/data/make_golden.py recorded.
        recorded = json.loads((DATA / "golden_run.json").read_text())
        assert GOLDEN.golden_run_digests(tmp_path) == recorded

    @pytest.fixture
    def cfg_path(self, data_dir, tmp_path):
        return write_config(
            tmp_path / "run.cfg",
            images=data_dir / "imgs.idx",
            labels=data_dir / "labs.idx",
            layers="3x4",
            threshold=10,
            epochs=2,
            seed=5,
        )

    def test_train_writes_artifacts(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        rc = run_cli(["train", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        for name in ("summary.csv", "trace.csv", "summary.npz", "weights.npz"):
            assert (out / name).exists()
        assert "8 gamma cycles" in capsys.readouterr().out
        summary = load_summary_npz(out / "summary.npz")
        assert summary.gamma_cycles == 8
        assert summary.epochs == 2

    def test_train_then_infer_then_report(self, cfg_path, data_dir, tmp_path):
        train_out = tmp_path / "t"
        rc = run_cli(["train", "--config", str(cfg_path), "--out", str(train_out)])
        assert rc == 0
        infer_out = tmp_path / "i"
        rc = run_cli(
            [
                "infer",
                "--config",
                str(cfg_path),
                "--weights",
                str(train_out / "weights.npz"),
                "--out",
                str(infer_out),
            ]
        )
        assert rc == 0
        assert (infer_out / "summary.csv").exists()
        assert not (infer_out / "weights.npz").exists()

        rep_out = tmp_path / "r"
        rc = run_cli(
            [
                "report",
                "--summary",
                str(infer_out / "summary.npz"),
                "--labels",
                str(data_dir / "labs.idx"),
                "--out",
                str(rep_out),
            ]
        )
        assert rc == 0
        for name in (
            "histogram.csv",
            "histogram.md",
            "savings.csv",
            "purity.csv",
            "purity.md",
        ):
            assert (rep_out / name).exists()
        assert "purity" in (rep_out / "purity.csv").read_text()

    def test_report_rejects_summary_without_column_neurons(
        self, cfg_path, tmp_path, capsys
    ):
        out = tmp_path / "t"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        # Rewrite the summary in the older format: col_neurons all -1.
        with np.load(out / "summary.npz") as data:
            members = dict(data)
        members["col_neurons"] = np.full_like(members["col_neurons"], -1)
        assert np.isfinite(members["col_times"]).any()
        np.savez_compressed(out / "summary.npz", **members)
        rc = run_cli(
            ["report", "--summary", str(out / "summary.npz"), "--out", str(tmp_path / "r")]
        )
        assert rc == 1
        assert "col_neurons" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", ["too-few", "missing"])
    def test_report_labels_error_writes_nothing(self, cfg_path, tmp_path, capsys, labels):
        out = tmp_path / "t"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        path = tmp_path / "labels.idx"
        if labels == "too-few":
            make_labels(path, [0, 1])
        capsys.readouterr()
        rc = run_cli(
            ["report", "--summary", str(out / "summary.npz"), "--labels", str(path),
             "--out", str(tmp_path / "r")]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if labels == "too-few":
            assert captured.err == "error: 8 presentations but 2 labels (epochs=2)\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "member", ["lengths", "causes", "col_times", "col_neurons", "meta"]
    )
    def test_report_names_missing_summary_member(self, cfg_path, tmp_path, capsys, member):
        out = tmp_path / "t"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        with np.load(out / "summary.npz") as data:
            members = dict(data)
        del members[member]
        np.savez_compressed(out / "summary.npz", **members)
        rc = run_cli(
            ["report", "--summary", str(out / "summary.npz"), "--out", str(tmp_path / "r")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and member in err

    @pytest.mark.parametrize(
        "command, damage",
        [
            (c, d)
            for c in ("infer", "report")
            for d in ARCHIVE_DAMAGE
            if (c, d) not in {("infer", "short-meta"), ("report", "no-config")}
        ],
    )
    def test_damaged_archive_exits_one(self, cfg_path, tmp_path, capsys, command, damage):
        train_out = tmp_path / "t"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(train_out)]) == 0
        capsys.readouterr()
        if command == "infer":
            path = train_out / "weights.npz"
            flags = ["--config", str(cfg_path), "--weights", str(path)]
        else:
            path = train_out / "summary.npz"
            flags = ["--summary", str(path)]
        ARCHIVE_DAMAGE[damage](path)
        rc = run_cli([command, *flags, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and str(path) in line
        if damage == "short-meta":
            assert "'meta'" in line
        if damage == "no-config":
            assert line.endswith("records no config")
        assert not (tmp_path / "o").exists()

    def test_infer_rejects_out_of_range_weights(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "t"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        with np.load(out / "weights.npz") as data:
            members = dict(data)
        members["layer0"][0, 0, 0] = 100
        np.savez_compressed(out / "weights.npz", **members)
        rc = run_cli(
            [
                "infer",
                "--config",
                str(cfg_path),
                "--weights",
                str(out / "weights.npz"),
                "--out",
                str(tmp_path / "i"),
            ]
        )
        assert rc == 1
        assert "layer0 holds weight 100" in capsys.readouterr().err
        assert not (tmp_path / "i").exists()

    def test_infer_rejects_weights_trained_under_other_config(self, data_dir, tmp_path, capsys):
        data = {"images": data_dir / "imgs.idx", "labels": data_dir / "labs.idx"}
        trained = write_config(
            tmp_path / "train.cfg", **data, layers="3x4", encoder="posneg", threshold=1500,
            period=16,
        )
        other = write_config(
            tmp_path / "infer.cfg", **data, layers="3x4", encoder="linear", threshold=40,
            period=9,
        )
        assert run_cli(["train", "--config", str(trained), "--out", str(tmp_path / "t")]) == 0
        capsys.readouterr()
        weights = str(tmp_path / "t" / "weights.npz")
        rc = run_cli(
            ["infer", "--config", str(other), "--weights", weights, "--out", str(tmp_path / "i")]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: weights were trained with period = 16, the config has period = 9\n"
        )
        assert not (tmp_path / "i").exists()

    def test_infer_runs_trained_weights_in_fixed_mode(self, cfg_path, tmp_path):
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 0
        fixed = tmp_path / "fixed.cfg"
        fixed.write_text(cfg_path.read_text() + "mode = fixed\n")
        rc = run_cli(
            ["infer", "--config", str(fixed), "--weights", str(tmp_path / "t" / "weights.npz"),
             "--out", str(tmp_path / "i")]
        )
        assert rc == 0
        assert set(load_summary_npz(tmp_path / "i" / "summary.npz").trace.lengths) == {16}

    def test_rerun_is_byte_identical(self, cfg_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("summary.csv", "trace.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        with np.load(outs[0] / "weights.npz") as a, np.load(
            outs[1] / "weights.npz"
        ) as b:
            assert set(a.files) == set(b.files)
            for key in a.files:
                assert np.array_equal(a[key], b[key])

    def test_unknown_config_key_exits_one(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"images = {data_dir / 'imgs.idx'}\nlayers = 3x4\nwat = 1\n")
        rc = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "wat" in capsys.readouterr().err

    def test_missing_layers_exits_one(self, data_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "bad.cfg", images=data_dir / "imgs.idx", threshold=10
        )
        rc = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "layers" in capsys.readouterr().err

    def test_bad_layers_syntax_exits_one(self, data_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "bad.cfg", images=data_dir / "imgs.idx", layers="3by4"
        )
        rc = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize(
        "key, value, message",
        [("w_max", 16384, "w_max"), ("layers", "100000x100", "layer 0 ")],
    )
    def test_oversized_config_exits_one(self, data_dir, tmp_path, capsys, key, value, message):
        keys = {"images": data_dir / "imgs.idx", "layers": "3x4", "threshold": 10, key: value}
        cfg = write_config(tmp_path / "big.cfg", **keys)
        rc = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "o").exists()

    def test_planes_over_the_kernel_bound_exit_one(self, tmp_path, capsys):
        # Planes of depth w_max = 4000 put the paper's 64x10 layer over
        # 784 pixels past the kernel bound, though its period is 16.
        make_images(tmp_path / "imgs.idx", [(flat(0, 28), 0)], side=28)
        keys = {"images": tmp_path / "imgs.idx", "layers": "64x10", "threshold": 10, "w_max": 4000}
        cfg = write_config(tmp_path / "deep.cfg", **keys)
        rc = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: layer 0 (64x10, 1568 lines) needs a")
        assert "kernel working set" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_empty_dataset_exits_one(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.idx"
        empty.write_bytes(struct.pack(">iiii", 2051, 0, 4, 4))
        cfg = write_config(tmp_path / "run.cfg", images=empty, layers="3x4", threshold=10)
        weights = tmp_path / "weights.npz"
        net = TnnNetwork(NetworkConfig(layers=((3, 4),), pixel_count=16, threshold=10))
        save_weights_npz(net, weights)
        extra = ["--weights", str(weights)] if command == "infer" else []
        rc = run_cli([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: dataset is empty\n"
        assert not (tmp_path / "o").exists()

    def test_limit_key_trims_dataset(self, data_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.cfg",
            images=data_dir / "imgs.idx",
            layers="2x2",
            threshold=10,
            limit=2,
        )
        rc = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "trained 2 images" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [("limit", -5), ("limit", -1), ("seed", -1)])
    def test_negative_count_exits_one(self, data_dir, tmp_path, capsys, key, value):
        cfg = write_config(
            tmp_path / "run.cfg",
            images=data_dir / "imgs.idx",
            layers="2x2",
            threshold=10,
            **{key: value},
        )
        rc = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "o").exists()

    def test_epochs_not_an_integer_exits_one(self, data_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.cfg", images=data_dir / "imgs.idx", layers="2x2", threshold=10,
            epochs="x",
        )
        rc = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: key 'epochs': 'x' is not an integer\n"
        assert not (tmp_path / "o").exists()

    def test_record_numpy_cannot_allocate_exits_one(self, data_dir, tmp_path, capsys):
        # 4 images x 2**55 epochs, 8 record bytes each: numpy's MemoryError
        # used to end the command in a traceback with no error line.
        cfg = write_config(
            tmp_path / "run.cfg", images=data_dir / "imgs.idx", layers="3x4", threshold=8,
            epochs=2**55,
        )
        rc = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: the run record of {2**55} epochs x 4 images needs {2**60} bytes, "
            "more than numpy can allocate\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("train", "('train_images', 'images')"),
            ("infer", "('test_images', 'images', 'train_images')"),
        ],
    )
    def test_config_without_images_exits_one(self, tmp_path, capsys, command, keys):
        cfg = write_config(tmp_path / "run.cfg", labels=tmp_path / "labs.idx", layers="2x2")
        weights = tmp_path / "weights.npz"
        save_weights_npz(TnnNetwork(NetworkConfig(layers=((2, 2),), pixel_count=16)), weights)
        extra = ["--weights", str(weights)] if command == "infer" else []
        rc = run_cli([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: one of {keys} is required\n"
        assert not (tmp_path / "o").exists()

    def test_infer_requires_weights_flag(self, cfg_path, tmp_path, capsys):
        rc = run_cli(["infer", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1


class TestSynthScript:
    @pytest.mark.parametrize(
        "flag, value, least", [("--train", "0", 1), ("--test", "0", 1), ("--seed", "-1", 0)]
    )
    def test_bad_flag_exits_one(self, tmp_path, capsys, flag, value, least):
        out = tmp_path / "digits"
        assert synth.main([str(out), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= {least}, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--train", "--test", "--seed"])
    def test_non_integer_flag_exits_one(self, tmp_path, capsys, flag):
        out = tmp_path / "digits"
        with pytest.raises(SystemExit) as exc:
            synth.main([str(out), flag, "x"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"error: argument {flag}: invalid int value: 'x'\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("digit", [10, -1])
    def test_glyph_takes_a_digit(self, digit):
        with pytest.raises(ValueError, match=f"digit must be 0..9, got {digit}"):
            synth.glyph(digit)

    @pytest.mark.parametrize("count", [0, -3])
    def test_make_dataset_takes_a_count(self, count):
        # The script checks its own flags first, so only a library call
        # reaches the dataset's check.
        with pytest.raises(ValueError, match=f"count must be >= 1, got {count}"):
            synth.make_dataset(count, seed=0)

    def test_writes_train_and_test_pairs(self, tmp_path, capsys):
        out = tmp_path / "digits"
        assert synth.main([str(out), "--train", "3", "--test", "2", "--seed", "0"]) == 0
        with open(out / "test-labels.idx", "rb") as f:
            assert dataio.read_idx_labels(f).tolist() == [0, 1]
        assert sorted(p.name for p in out.iterdir()) == [
            "test-images.idx", "test-labels.idx", "train-images.idx", "train-labels.idx"
        ]


class TestTopLevel:
    def test_no_command_exits_one(self, capsys):
        assert run_cli([]) == 1

    def test_unknown_command_exits_one(self, capsys):
        assert run_cli(["frobnicate"]) == 1
