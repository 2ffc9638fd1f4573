"""End-to-end network behavior on small controlled datasets."""

import io

import numpy as np
import pytest

from tnnsim import network, synth
from tnnsim.dataio import LabeledDataset
from tnnsim.encode import Linear, Log, PosNeg
from tnnsim.network import (
    KERNEL_BYTES_LIMIT,
    Mode,
    NetworkConfig,
    TnnNetwork,
    load_summary_npz,
    load_weights_npz,
    save_summary_npz,
    save_weights_npz,
    write_summary_csv,
)
from tnnsim.stdp import StdpParams


def flat_image(value, side=4):
    return [value] * (side * side)


def two_tone_image(side=4):
    # left half bright, right half dark
    return [200 if c < side // 2 else 30 for r in range(side) for c in range(side)]


def dataset_of(images, labels=None, side=4):
    pixels = np.array(images, dtype=np.uint8).reshape(len(images), side * side)
    if labels is not None:
        labels = np.array(labels, dtype=np.int64)
    return LabeledDataset(pixels, side, side, labels)


def tiny_dataset():
    return dataset_of([two_tone_image(), flat_image(250)], labels=[0, 1])


def tiny_config(**over):
    base = dict(
        layers=((3, 4),),
        pixel_count=16,
        period=16,
        threshold=8,
        encoder=PosNeg(),
        seed=0,
    )
    base.update(over)
    return NetworkConfig(**base)


class TestConfig:
    def test_fan_in_chain(self):
        cfg = NetworkConfig(layers=((8, 4), (2, 3)), pixel_count=100, threshold=5)
        assert cfg.fan_in(0) == 200
        assert cfg.fan_in(1) == 8

    def test_threshold_broadcast_and_tuple(self):
        cfg = NetworkConfig(layers=((4, 2), (2, 2)), pixel_count=9, threshold=7)
        assert cfg.thresholds == (7, 7)
        cfg2 = NetworkConfig(
            layers=((4, 2), (2, 2)), pixel_count=9, threshold=(7, 3)
        )
        assert cfg2.thresholds == (7, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(layers=(), pixel_count=9, threshold=5)
        with pytest.raises(ValueError):
            NetworkConfig(layers=((0, 2),), pixel_count=9, threshold=5)
        with pytest.raises(ValueError):
            NetworkConfig(layers=((2, 2),), pixel_count=0, threshold=5)
        with pytest.raises(ValueError):
            NetworkConfig(layers=((2, 2),), pixel_count=9, threshold=(5, 5))

    def test_encoder_period_must_match(self):
        for period, enc in ((8, Linear(period=16)), (16, Linear(period=4)), (8, Log(period=16))):
            with pytest.raises(ValueError, match=f"encoder period {enc.period} .* {period}"):
                tiny_config(period=period, encoder=enc)
        assert tiny_config(period=8, encoder=Linear(period=8)).period == 8

    def test_kernel_working_set_bounded(self):
        # Layer 1 has 4 lines (one word), period 16 and depth min(7, 16):
        # each neuron needs 17 * 7 + 8 * (16 + 7) = 303 bytes.
        most = KERNEL_BYTES_LIMIT // 303
        NetworkConfig(layers=((4, 2), (1, most)), pixel_count=9, threshold=5)
        with pytest.raises(ValueError, match="layer 1 .* 1024 MiB"):
            NetworkConfig(layers=((4, 2), (1, most + 1)), pixel_count=9, threshold=5)
        with pytest.raises(ValueError, match="layer 0 "):
            NetworkConfig(layers=((100000, 100),), pixel_count=784, threshold=5)

    def test_weights_start_inside_cap(self):
        net = TnnNetwork(tiny_config())
        cap = StdpParams().half_unit_cap
        for w in net.weights:
            assert w.min() >= 0
            assert w.max() <= cap


class TestLowThresholdSpikesAtZero:
    def test_every_image_wins_at_time_zero(self):
        # Posneg guarantees one time-0 spike per pixel pair; with enough
        # nonzero weights and a low threshold every column fires at once.
        ds = tiny_dataset()
        cfg = tiny_config(threshold=4)
        net = TnnNetwork(cfg)
        # force all weights live so the potential at t=0 is the number of
        # finite lines times at least 1
        for w in net.weights:
            w[:] = 14
        summary = net.infer(ds)
        assert summary.win_time.tolist() == [0, 0]
        # relaxed mode: a time-0 winner everywhere ends the cycle in 1 step
        assert summary.trace.lengths.tolist() == [1, 1]

    def test_zero_weights_never_spike(self):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        for w in net.weights:
            w[:] = 0
        summary = net.infer(ds)
        assert summary.win_col.tolist() == [-1, -1]
        assert summary.win_neuron.tolist() == [-1, -1]
        assert np.isinf(summary.win_time).all()
        assert summary.trace.lengths.tolist() == [16, 16]


class TestModes:
    def test_fixed_mode_runs_full_period_with_same_winners(self):
        ds = tiny_dataset()
        relaxed = TnnNetwork(tiny_config(mode=Mode.RELAXED))
        fixed = TnnNetwork(tiny_config(mode=Mode.FIXED))
        s_relaxed = relaxed.infer(ds)
        s_fixed = fixed.infer(ds)
        for field in ("win_col", "win_neuron", "win_time"):
            assert np.array_equal(getattr(s_fixed, field), getattr(s_relaxed, field))
        assert (s_fixed.trace.lengths == 16).all()
        assert (s_relaxed.trace.lengths <= 16).all()

    def test_relaxed_cycle_length_is_last_spike_plus_one(self):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        summary = net.infer(ds)
        trace = summary.trace
        for length, times in zip(trace.lengths, trace.col_times):
            if np.isfinite(times).all():
                assert length == min(16, times.max() + 1)


class TestDeterminism:
    def test_same_seed_same_everything(self):
        ds = tiny_dataset()
        outs = []
        for _ in range(2):
            net = TnnNetwork(tiny_config(seed=3))
            net.train(ds, epochs=2)
            summary = net.infer(ds)
            buf = io.StringIO()
            write_summary_csv(summary, buf)
            outs.append((buf.getvalue(), [w.copy() for w in net.weights]))
        assert outs[0][0] == outs[1][0]
        for a, b in zip(outs[0][1], outs[1][1]):
            assert np.array_equal(a, b)

    def test_different_seed_different_weights(self):
        n1 = TnnNetwork(tiny_config(seed=0))
        n2 = TnnNetwork(tiny_config(seed=1))
        assert any(
            not np.array_equal(a, b) for a, b in zip(n1.weights, n2.weights)
        )


class TestLearning:
    def test_training_changes_weights(self):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        before = [w.copy() for w in net.weights]
        net.train(ds, epochs=1)
        assert any(not np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_inference_freezes_weights(self):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        before = [w.copy() for w in net.weights]
        net.infer(ds)
        for a, b in zip(before, net.weights):
            assert np.array_equal(a, b)

    def test_epochs_validated(self):
        net = TnnNetwork(tiny_config())
        with pytest.raises(ValueError):
            net.train(tiny_dataset(), epochs=0)

    def test_empty_dataset_rejected(self):
        net = TnnNetwork(tiny_config())
        with pytest.raises(ValueError):
            net.infer(dataset_of([]))


class TestTwoLayer:
    def test_second_layer_sees_first_layer_winners(self):
        ds = tiny_dataset()
        cfg = NetworkConfig(
            layers=((4, 3), (2, 2)),
            pixel_count=16,
            threshold=(6, 2),
            seed=1,
        )
        net = TnnNetwork(cfg)
        for w in net.weights:
            w[:] = 14
        summary = net.infer(ds)
        # layer 1 fans in from layer 0's four columns
        assert net.weights[1].shape == (2, 2, 4)
        assert np.isfinite(summary.win_time).all()
        # network winner is a layer-1 column
        assert set(summary.win_col.tolist()) <= {0, 1}
        assert summary.col_neurons.shape == (len(ds), 2)


class TestPlanesFollowWeights:
    def test_planes_match_repacked_weights_after_every_cycle(self, monkeypatch):
        """The planes repacked row by row after STDP equal a full repack of
        the weights, through winner rows and silent columns in both layers."""
        cfg = NetworkConfig(
            layers=((6, 4), (3, 3)),
            pixel_count=784,
            threshold=(5000, 12),
            encoder=Linear(period=16),
        )
        net = TnnNetwork(cfg)
        banks = [cols * neurons for cols, neurons in cfg.layers]
        silent, fired, checked = [0, 0], [0, 0], []
        kernel, cycle = network.layer_spike_times, TnnNetwork.run_gamma_cycle

        def count_columns(planes, x, period, threshold, lines):
            times = kernel(planes, x, period, threshold, lines)
            k = banks.index(planes.shape[0])
            dead = np.isinf(times.reshape(net.weights[k].shape[:2])).all(axis=1)
            silent[k] += int(dead.sum())
            fired[k] += int((~dead).sum())
            return times

        def check_planes(tnn, volley, planes, learn):
            out = cycle(tnn, volley, planes, learn)
            for k, want in enumerate(tnn.pack_planes()):
                assert np.array_equal(planes[k], want), (len(checked), k)
            checked.append(learn)
            return out

        monkeypatch.setattr(network, "layer_spike_times", count_columns)
        monkeypatch.setattr(TnnNetwork, "run_gamma_cycle", check_planes)
        ds = synth.make_dataset(12, seed=1)
        net.train(ds, epochs=3)
        assert checked == [True] * 36
        assert min(silent) > 0 and min(fired) > 0, (silent, fired)


class TestWrongVolleySize:
    def test_mismatched_image_rejected(self):
        net = TnnNetwork(tiny_config())
        bad = dataset_of([flat_image(100, side=3)], side=3)
        with pytest.raises(ValueError):
            net.infer(bad)


class TestSummaryArtifacts:
    def test_csv_shape(self):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        for w in net.weights:
            w[:] = 14
        summary = net.infer(ds)
        buf = io.StringIO()
        write_summary_csv(summary, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "presentation,length,cause,winner_column,winner_neuron,winner_time"
        )
        assert len(lines) == 1 + len(ds)

    def test_silent_rows_marked_inf(self):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        for w in net.weights:
            w[:] = 0
        summary = net.infer(ds)
        buf = io.StringIO()
        write_summary_csv(summary, buf)
        for line in buf.getvalue().splitlines()[1:]:
            assert line.endswith(",,inf")

    def test_summary_npz_round_trip(self, tmp_path):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        net.train(ds, epochs=2)
        summary = net.infer(ds)
        path = tmp_path / "summary.npz"
        save_summary_npz(summary, path)
        loaded = load_summary_npz(path)
        for field in ("lengths", "control", "col_times"):
            assert np.array_equal(getattr(loaded.trace, field), getattr(summary.trace, field))
        assert np.array_equal(loaded.col_neurons, summary.col_neurons)
        for field in ("win_col", "win_neuron", "win_time"):
            assert np.array_equal(getattr(loaded, field), getattr(summary, field))
        assert loaded.trace.period == summary.trace.period
        assert loaded.epochs == summary.epochs
        assert loaded.images == summary.images
        assert loaded.total_clock_cycles == summary.total_clock_cycles

    def test_summary_npz_keeps_column_neurons(self, tmp_path):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        w = net.weights[0]
        w[:] = 14
        w[:, 0] = 0  # neuron 0 never fires
        w[1, 1] = 0  # in column 1 neither does neuron 1
        summary = net.infer(ds)
        assert summary.col_neurons.tolist() == [[1, 2, 1], [1, 2, 1]]
        path = tmp_path / "summary.npz"
        save_summary_npz(summary, path)
        with np.load(path) as data:
            assert data["col_neurons"].tolist() == [[1, 2, 1], [1, 2, 1]]
            assert "win_col" not in data.files
        assert load_summary_npz(path).col_neurons.tolist() == [[1, 2, 1], [1, 2, 1]]

    def _write_summary_members(self, summary, path, **over):
        trace = summary.trace
        members = dict(
            lengths=trace.lengths.astype(np.int32),
            causes=trace.control.astype(np.int8),
            col_times=trace.col_times.astype(np.float32),
            col_neurons=summary.col_neurons.astype(np.int16),
            meta=np.array(
                [trace.period, trace.column_count, summary.epochs, summary.images],
                dtype=np.int64,
            ),
        )
        members.update(over)
        np.savez_compressed(path, **members)

    def test_summary_npz_without_column_neurons_rejected(self, tmp_path):
        # The older format: col_neurons always -1, network winners stored
        # in win_col/win_neuron/win_time.
        net = TnnNetwork(tiny_config())
        for w in net.weights:
            w[:] = 14
        summary = net.infer(tiny_dataset())
        path = tmp_path / "summary.npz"
        self._write_summary_members(
            summary,
            path,
            col_neurons=np.full(summary.col_neurons.shape, -1, dtype=np.int16),
            win_col=summary.win_col.astype(np.int32),
            win_neuron=summary.win_neuron.astype(np.int32),
            win_time=summary.win_time.astype(np.float32),
        )
        with pytest.raises(ValueError, match="col_neurons"):
            load_summary_npz(path)

    def test_summary_npz_over_length_cycle_rejected(self, tmp_path):
        summary = TnnNetwork(tiny_config()).infer(tiny_dataset())
        path = tmp_path / "summary.npz"
        lengths = summary.trace.lengths.astype(np.int32)
        lengths[0] = summary.trace.period + 1
        self._write_summary_members(summary, path, lengths=lengths)
        with pytest.raises(ValueError, match="cycle length 17"):
            load_summary_npz(path)

    def test_weights_npz_round_trip(self, tmp_path):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        net.train(ds, epochs=1)
        path = tmp_path / "weights.npz"
        save_weights_npz(net, path)
        other = TnnNetwork(tiny_config(seed=9))
        load_weights_npz(other, path)
        for a, b in zip(net.weights, other.weights):
            assert np.array_equal(a, b)
        got, want = other.infer(ds), net.infer(ds)
        assert np.array_equal(got.trace.col_times, want.trace.col_times)
        assert np.array_equal(got.col_neurons, want.col_neurons)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.int16(100), "layer0 holds weight 100 outside 0..14"),
            (np.int32(65540), "layer0 holds weight 65540 outside 0..14"),
            (np.float64(3.7), "layer0 has dtype float64"),
            (np.int16(-3), "layer0 holds weight -3 outside 0..14"),
        ],
        ids=["above-cap", "wraps-in-int16", "fractional", "negative"],
    )
    def test_weights_out_of_range_rejected(self, tmp_path, bad, message):
        net = TnnNetwork(tiny_config())
        layer = net.weights[0].astype(bad.dtype)
        layer[1, 2, 3] = bad
        path = tmp_path / "weights.npz"
        np.savez_compressed(path, layer0=layer)
        before = net.weights[0].copy()
        with pytest.raises(ValueError, match=message):
            load_weights_npz(net, path)
        assert np.array_equal(net.weights[0], before)

    def test_weights_shape_mismatch_rejected(self, tmp_path):
        net = TnnNetwork(tiny_config())
        path = tmp_path / "weights.npz"
        save_weights_npz(net, path)
        other = TnnNetwork(tiny_config(layers=((2, 2),)))
        with pytest.raises(ValueError):
            load_weights_npz(other, path)


class TestClockAccounting:
    def test_total_equals_sum_of_lengths(self):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        summary = net.train(ds, epochs=3)
        assert summary.total_clock_cycles == sum(summary.trace.lengths.tolist())
        assert summary.gamma_cycles == 3 * len(ds)
        assert summary.epochs == 3
        assert summary.images == len(ds)
