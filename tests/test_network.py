"""End-to-end network behavior on small controlled datasets."""

import io

import numpy as np
import pytest

from tnnsim.dataio import LabeledDataset
from tnnsim.encode import PosNeg
from tnnsim.network import (
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
        assert all(w is not None and w.time == 0 for w in summary.winners)
        # relaxed mode: a time-0 winner everywhere ends the cycle in 1 step
        assert summary.trace.lengths() == [1, 1]

    def test_zero_weights_never_spike(self):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        for w in net.weights:
            w[:] = 0
        summary = net.infer(ds)
        assert all(w is None for w in summary.winners)
        assert summary.trace.lengths() == [16, 16]


class TestModes:
    def test_fixed_mode_runs_full_period_with_same_winners(self):
        ds = tiny_dataset()
        relaxed = TnnNetwork(tiny_config(mode=Mode.RELAXED))
        fixed = TnnNetwork(tiny_config(mode=Mode.FIXED))
        s_relaxed = relaxed.infer(ds)
        s_fixed = fixed.infer(ds)
        assert s_fixed.winners == s_relaxed.winners
        assert all(l == 16 for l in s_fixed.trace.lengths())
        assert all(l <= 16 for l in s_relaxed.trace.lengths())

    def test_relaxed_cycle_length_is_last_spike_plus_one(self):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        summary = net.infer(ds)
        for rec in summary.trace.records:
            if len(rec.winners) == net.config.layers[-1][0]:
                last = max(t for _, t in rec.winners)
                assert rec.length == min(16, last + 1)


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
        assert all(w is not None for w in summary.winners)
        # network winner is a layer-1 column
        assert all(w.column in (0, 1) for w in summary.winners)


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
        assert loaded.winners == summary.winners
        assert loaded.trace.lengths() == summary.trace.lengths()
        assert [r.cause for r in loaded.trace.records] == [
            r.cause for r in summary.trace.records
        ]
        assert [r.winners for r in loaded.trace.records] == [
            r.winners for r in summary.trace.records
        ]
        assert loaded.epochs == summary.epochs
        assert loaded.images == summary.images
        assert loaded.total_clock_cycles == summary.total_clock_cycles

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
        assert other.infer(ds).winners == net.infer(ds).winners

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
        assert summary.total_clock_cycles == sum(summary.trace.lengths())
        assert summary.gamma_cycles == 3 * len(ds)
        assert summary.epochs == 3
        assert summary.images == len(ds)
