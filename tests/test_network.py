"""End-to-end network behavior on small controlled datasets."""

import functools
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tnnsim import gamma, network, stdp, synth
from tnnsim.dataio import LabeledDataset
from tnnsim.encode import KINDS, Linear, Log, PosNeg
from tnnsim.network import (
    CONFIG_KEYS,
    KERNEL_BYTES_LIMIT,
    Mode,
    RunSummary,
    NetworkConfig,
    TnnNetwork,
    load_summary_npz,
    load_weights_npz,
    save_summary_npz,
    save_weights_npz,
    write_summary_csv,
)
from tnnsim.neuron import pack_lines, weight_planes
from tnnsim.stdp import W_MAX_LIMIT, StdpParams


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


def save_layers(path, config, **layers):
    """Write ``layers`` as a weight file trained under ``config``, whatever
    their values."""
    np.savez_compressed(path, config=np.array(json.dumps(config.to_mapping())), **layers)


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
        # each neuron needs 17 * 7 + 8 * 7 + 9 * 16 + 32 = 351 bytes, on top
        # of 4 * (4 + 16) + 32 * 4 + 8 * 16 + 2**17 = 131408 for the volley.
        most = (KERNEL_BYTES_LIMIT - 131408) // 351
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


@st.composite
def configs(draw):
    layers = tuple(
        draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=3))
    )
    period = draw(st.integers(2, 40))
    threshold = draw(
        st.one_of(st.integers(1, 5000), st.tuples(*[st.integers(1, 5000)] * len(layers)))
    )
    kind = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    encoder = PosNeg(draw(st.integers(0, 255))) if kind is PosNeg else kind(period)
    step = st.integers(0, 40)
    params = StdpParams(
        draw(step), draw(step), draw(step), draw(step), draw(st.integers(1, W_MAX_LIMIT))
    )
    return NetworkConfig(
        layers=layers,
        pixel_count=draw(st.integers(1, 50)),
        period=period,
        threshold=threshold,
        encoder=encoder,
        stdp_params=params,
        mode=draw(st.sampled_from(Mode)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestConfigCodec:
    @given(configs())
    def test_round_trip(self, cfg):
        mapping = cfg.to_mapping()
        assert NetworkConfig.from_mapping(mapping, cfg.pixel_count).to_mapping() == mapping
        assert list(mapping) == [
            k for k in CONFIG_KEYS if k != "pixel_threshold" or isinstance(cfg.encoder, PosNeg)
        ]

    def test_round_trip_keeps_config(self):
        cfg = NetworkConfig(
            layers=((12, 5), (3, 2)),
            pixel_count=49,
            period=17,
            threshold=(900, 4),
            encoder=Log(period=17),
            stdp_params=StdpParams(u_capture=40, w_max=20),
            mode=Mode.FIXED,
            seed=3,
        )
        assert NetworkConfig.from_mapping(cfg.to_mapping(), 49) == cfg

    @pytest.mark.parametrize("pixel_count", [1, 784])
    def test_only_layers_gives_field_defaults(self, pixel_count):
        got = NetworkConfig.from_mapping({"layers": "4x3,2x2"}, pixel_count)
        assert got == NetworkConfig(((4, 3), (2, 2)), pixel_count)

    def test_default_mapping(self):
        assert NetworkConfig(((64, 10),), 784).to_mapping() == {
            "layers": "64x10",
            "period": "16",
            "threshold": "2744",
            "encoder": "posneg",
            "pixel_threshold": "127",
            "mode": "relaxed",
            "seed": "0",
            "u_capture": "2",
            "u_backoff": "2",
            "u_search": "2",
            "u_quiet": "1",
            "w_max": "7",
        }

    def test_other_keys_ignored(self):
        got = NetworkConfig.from_mapping({"layers": "2x2", "epochs": "3", "images": "x"}, 4)
        assert got == NetworkConfig(((2, 2),), 4)

    def test_layers_required(self):
        with pytest.raises(ValueError, match="key 'layers' is required"):
            NetworkConfig.from_mapping({"period": "9"}, 4)

    def test_threshold_list_is_per_layer(self):
        cfg = NetworkConfig.from_mapping({"layers": "4x3,2x2", "threshold": "7, 3"}, 4)
        assert cfg.threshold == (7, 3)
        assert cfg.to_mapping()["threshold"] == "7,3"
        one = NetworkConfig.from_mapping({"layers": "4x3,2x2", "threshold": "7"}, 4)
        assert one.threshold == 7 and one.to_mapping()["threshold"] == "7,7"

    def test_graded_encoder_follows_period(self):
        cfg = NetworkConfig.from_mapping(
            {"layers": "2x2", "encoder": "linear", "period": "9", "pixel_threshold": "40"}, 4
        )
        assert cfg.encoder == Linear(period=9)
        assert "pixel_threshold" not in cfg.to_mapping()

    def test_out_of_range_pixel_threshold_names_key(self):
        with pytest.raises(ValueError, match="^pixel_threshold must be in 0..255, got 300"):
            NetworkConfig.from_mapping({"layers": "2x2", "pixel_threshold": "300"}, 4)

    def test_negative_seed_names_key(self):
        # It parses, so the config's own check rejects it, before any
        # generator is seeded.
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1"):
            NetworkConfig.from_mapping({"layers": "2x2", "seed": "-1"}, 4)
        assert NetworkConfig.from_mapping({"layers": "2x2", "seed": "0"}, 4).seed == 0

    MALFORMED = {
        "layers": "3by4",
        "period": "sixteen",
        "threshold": "7,a",
        "encoder": "morse",
        "pixel_threshold": "1.5",
        "mode": "sideways",
        "seed": "s",
        "u_capture": "two",
        "u_backoff": "2.0",
        "u_search": "",
        "u_quiet": "1/2",
        "w_max": "7x",
    }

    def test_malformed_cases_cover_every_key(self):
        assert tuple(self.MALFORMED) == CONFIG_KEYS

    @pytest.mark.parametrize("key", list(MALFORMED))
    def test_malformed_value_names_key(self, key):
        values = {"layers": "2x2", key: self.MALFORMED[key]}
        with pytest.raises(ValueError, match=f"^key '{key}': "):
            NetworkConfig.from_mapping(values, 4)


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
    """While a network trains, its learning state (bit-planes and parity)
    follows an int16 shadow of its weights driven by ``update_weights``
    with the same winners, and the weights it writes back equal the
    shadow's. With ``w_max > period`` the weights are updated directly and
    the rewritten rows repacked, so the planes follow the weights."""

    def train_against_shadow(self, monkeypatch, cfg, ds, epochs):
        """Train a network on ``ds``, checking it against the shadow after
        every cycle; returns which cycles had a parity state, and per layer
        how many columns stayed silent and fired."""
        net = TnnNetwork(cfg)
        shadow = [w.copy() for w in net.weights]
        depth = cfg.plane_depth
        silent, fired = [0] * len(cfg.layers), [0] * len(cfg.layers)
        seen, checked = [], []
        kernel, cycle = network.layer_spike_times, TnnNetwork.run_gamma_cycle

        def record(planes, x, period, threshold, lines, cols):
            idx, win_t = kernel(planes, x, period, threshold, lines, cols)
            seen.append((x, idx, win_t))
            return idx, win_t

        def check_state(tnn, volley, planes, learn, parity):
            seen.clear()
            out = cycle(tnn, volley, planes, learn, parity)
            for k, (x, idx, win_t) in enumerate(seen):
                silent[k] += int((idx == -1).sum())
                fired[k] += int((idx != -1).sum())
                stdp.update_weights(shadow[k], x, idx, win_t, cfg.stdp_params)
                want = weight_planes(shadow[k].reshape(-1, shadow[k].shape[2]), depth)
                assert np.array_equal(planes[k], want), (len(checked), k)
                if parity is None:
                    assert np.array_equal(tnn.weights[k], shadow[k]), (len(checked), k)
                else:
                    want = pack_lines((shadow[k] & 1) == 1)
                    assert np.array_equal(parity[k], want), (len(checked), k)
            checked.append(parity is not None)
            return out

        monkeypatch.setattr(network, "layer_spike_times", record)
        monkeypatch.setattr(TnnNetwork, "run_gamma_cycle", check_state)
        net.train(ds, epochs=epochs)
        for k, (w, want) in enumerate(zip(net.weights, shadow)):
            assert np.array_equal(w, want), k
        return checked, silent, fired

    @pytest.mark.parametrize(
        "encoder", [Linear(period=16), Log(period=16)], ids=["linear", "log"]
    )
    def test_planes_match_repacked_weights_after_every_cycle(self, monkeypatch, encoder):
        """Through winner rows and silent columns in both layers, with 1,568
        lines in layer 0 and 6 in layer 1, neither a whole word."""
        cfg = NetworkConfig(
            layers=((6, 4), (3, 3)),
            pixel_count=784,
            threshold=(5000, 12),
            encoder=encoder,
        )
        ds = synth.make_dataset(12, seed=1)
        checked, silent, fired = self.train_against_shadow(monkeypatch, cfg, ds, 3)
        assert checked == [True] * 36
        assert min(silent) > 0 and min(fired) > 0, (silent, fired)

    @pytest.mark.parametrize(
        "period, params, parity",
        [
            (16, StdpParams(u_capture=3, u_backoff=5, u_search=1, u_quiet=3), True),
            (16, StdpParams(u_capture=40, u_backoff=100, u_search=33, u_quiet=17), True),
            (8, StdpParams(w_max=8), True),
            (8, StdpParams(u_capture=3, u_backoff=5, w_max=12), False),
        ],
        ids=["odd-steps", "steps-above-cap", "w_max-eq-period", "w_max-gt-period"],
    )
    def test_state_follows_int16_rule(self, monkeypatch, period, params, parity):
        cfg = NetworkConfig(
            layers=((6, 4), (3, 3)),
            pixel_count=784,
            period=period,
            threshold=(5000, 12),
            encoder=Linear(period=period),
            stdp_params=params,
        )
        ds = synth.make_dataset(12, seed=1)
        checked, silent, fired = self.train_against_shadow(monkeypatch, cfg, ds, 2)
        assert checked == [parity] * 24
        assert min(silent) > 0 and min(fired) > 0, (silent, fired)

    def test_whole_words_of_lines(self, monkeypatch):
        """64 lines into both layers: the last word has no padding."""
        cfg = NetworkConfig(
            layers=((64, 2), (2, 2)),
            pixel_count=32,
            threshold=(200, 60),
            encoder=Linear(period=16),
        )
        rng = np.random.default_rng(3)
        ds = LabeledDataset(rng.integers(0, 256, size=(12, 32)).astype(np.uint8), 8, 4)
        checked, silent, fired = self.train_against_shadow(monkeypatch, cfg, ds, 2)
        assert [cfg.fan_in(k) for k in (0, 1)] == [64, 64]
        assert checked == [True] * 24
        assert min(silent) > 0 and min(fired) > 0, (silent, fired)


class TestWeightsWrittenBack:
    @pytest.mark.parametrize("w_max", [7, 20], ids=["planes", "int16"])
    def test_presentations_before_a_failure_are_kept(self, monkeypatch, w_max):
        """An encoder that raises at presentation 5 leaves the weights of
        a run over the first 4 presentations."""
        cfg = NetworkConfig(
            layers=((6, 4), (3, 3)),
            pixel_count=784,
            threshold=(5000, 12),
            encoder=Linear(period=16),
            stdp_params=StdpParams(w_max=w_max),
        )
        ds = synth.make_dataset(12, seed=1)
        reference = TnnNetwork(cfg)
        reference.train(LabeledDataset(ds.pixels[:4], ds.width, ds.height), epochs=1)
        encode, calls = network.encode_image, []

        def encode_until_fifth(pixels, kind):
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("encoder failed")
            return encode(pixels, kind)

        monkeypatch.setattr(network, "encode_image", encode_until_fifth)
        net = TnnNetwork(cfg)
        with pytest.raises(RuntimeError, match="encoder failed"):
            net.train(ds, epochs=1)
        for k, (w, want, start) in enumerate(
            zip(net.weights, reference.weights, TnnNetwork(cfg).weights)
        ):
            assert np.array_equal(w, want), k
            assert not np.array_equal(w, start), k


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

    @pytest.mark.parametrize("artifact", ["summary", "weights"])
    def test_every_byte_flip_loads_or_names_the_file(self, tmp_path, artifact):
        # zipfile, zlib and numpy's header parser raise many exception types
        # on damaged bytes; the loaders must turn each into a ValueError
        # that names the file.
        net = TnnNetwork(tiny_config())
        path = tmp_path / "artifact.npz"
        if artifact == "summary":
            save_summary_npz(net.infer(tiny_dataset()), path)
            load = load_summary_npz
        else:
            save_weights_npz(net, path)
            load = functools.partial(load_weights_npz, net)
        raw = path.read_bytes()
        flipped = tmp_path / "flipped.npz"
        for i in range(len(raw)):
            flipped.write_bytes(raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1 :])
            try:
                load(flipped)
            except ValueError as exc:
                assert str(flipped) in str(exc)

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

    def test_summary_npz_keeps_wide_values(self, tmp_path):
        # Both configs are valid: a column wider than int16 holds, and a
        # period past the integers float32 holds exactly.
        NetworkConfig(layers=((1, 70000),), pixel_count=1)
        period = 2**24 + 2
        NetworkConfig(layers=((1, 1),), pixel_count=1, period=period)
        trace = gamma.GammaTrace(
            period, [period, 1, 1], [False, True, True], [[2**24 + 1], [0], [0]]
        )
        summary = RunSummary(trace, [[0], [65541], [40000]], epochs=1, images=3)
        path = tmp_path / "summary.npz"
        save_summary_npz(summary, path)
        loaded = load_summary_npz(path)
        assert loaded.col_neurons.tolist() == [[0], [65541], [40000]]
        assert loaded.trace.col_times.tolist() == [[2**24 + 1], [0], [0]]
        assert loaded.trace.lengths.tolist() == [period, 1, 1]
        assert loaded.trace.control.tolist() == [False, True, True]

    def test_summary_npz_narrow_format_loads(self, tmp_path):
        # Files written with int32/int8/float32/int16 members still load.
        net = TnnNetwork(tiny_config())
        net.train(tiny_dataset(), epochs=2)
        summary = net.infer(tiny_dataset())
        path = tmp_path / "summary.npz"
        self._write_summary_members(summary, path)
        loaded = load_summary_npz(path)
        for field in ("lengths", "control", "col_times"):
            assert np.array_equal(getattr(loaded.trace, field), getattr(summary.trace, field))
        assert np.array_equal(loaded.col_neurons, summary.col_neurons)

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
        save_layers(path, net.config, layer0=layer)
        before = net.weights[0].copy()
        with pytest.raises(ValueError, match=message):
            load_weights_npz(net, path)
        assert np.array_equal(net.weights[0], before)

    def test_weights_file_records_config(self, tmp_path):
        net = TnnNetwork(tiny_config(encoder=PosNeg(100), mode=Mode.FIXED))
        path = tmp_path / "weights.npz"
        save_weights_npz(net, path)
        with np.load(path) as data:
            assert sorted(data.files) == ["config", "layer0"]
            assert json.loads(str(data["config"])) == net.config.to_mapping()

    @pytest.mark.parametrize(
        "key, over, trained, ours",
        [
            ("layers", dict(layers=((3, 4), (2, 2)), threshold=(8, 2)), "3x4", "3x4,2x2"),
            ("period", dict(period=9), "16", "9"),
            ("threshold", dict(threshold=9), "8", "9"),
            ("encoder", dict(encoder=Linear(period=16)), "posneg", "linear"),
            ("pixel_threshold", dict(encoder=PosNeg(100)), "127", "100"),
            ("w_max", dict(stdp_params=StdpParams(w_max=9)), "7", "9"),
        ],
    )
    def test_weights_trained_under_other_config_rejected(
        self, tmp_path, key, over, trained, ours
    ):
        path = tmp_path / "weights.npz"
        save_weights_npz(TnnNetwork(tiny_config()), path)
        net = TnnNetwork(tiny_config(seed=4, **over))
        before = [w.copy() for w in net.weights]
        with pytest.raises(ValueError) as err:
            load_weights_npz(net, path)
        assert str(err.value) == (
            f"weights were trained with {key} = {trained}, the config has {key} = {ours}"
        )
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, before))

    def test_weights_load_under_other_run_settings(self, tmp_path):
        # Seed, mode and learning steps may differ: relaxed-cycle savings
        # are measured by running the same weights under both modes.
        trained = TnnNetwork(tiny_config())
        trained.train(tiny_dataset(), epochs=1)
        path = tmp_path / "weights.npz"
        save_weights_npz(trained, path)
        steps = StdpParams(u_capture=5, u_backoff=6, u_search=3, u_quiet=0)
        net = TnnNetwork(tiny_config(seed=9, mode=Mode.FIXED, stdp_params=steps))
        load_weights_npz(net, path)
        assert np.array_equal(net.weights[0], trained.weights[0])

    def test_weights_missing_layer_rejected(self, tmp_path):
        net = TnnNetwork(tiny_config(layers=((3, 4), (2, 2)), threshold=(8, 2)))
        path = tmp_path / "weights.npz"
        save_layers(path, net.config, layer1=net.weights[1])
        want = "holds layer1, a 2-layer network needs layer0, layer1"
        with pytest.raises(ValueError, match=want):
            load_weights_npz(net, path)

    def test_weights_without_config_rejected(self, tmp_path):
        trained = TnnNetwork(tiny_config())
        path = tmp_path / "weights.npz"
        np.savez_compressed(path, layer0=trained.weights[0])
        net = TnnNetwork(tiny_config(seed=9))
        before = net.weights[0].copy()
        with pytest.raises(ValueError) as err:
            load_weights_npz(net, path)
        assert str(err.value) == f"weight file {path} records no config"
        assert np.array_equal(net.weights[0], before)

    @pytest.mark.parametrize("text", ["not json", "[1, 2]"])
    def test_weights_malformed_config_rejected(self, tmp_path, text):
        net = TnnNetwork(tiny_config())
        path = tmp_path / "weights.npz"
        np.savez_compressed(path, config=np.array(text), layer0=net.weights[0])
        with pytest.raises(ValueError, match="config is not a JSON object"):
            load_weights_npz(net, path)

    def test_weights_load_all_or_nothing(self, tmp_path):
        cfg = tiny_config(layers=((3, 4), (2, 2)), threshold=(8, 2))
        net = TnnNetwork(cfg)
        donor = TnnNetwork(tiny_config(layers=cfg.layers, threshold=cfg.threshold, seed=9))
        bad = donor.weights[1].copy()
        bad[0, 0, 0] = 100
        path = tmp_path / "weights.npz"
        save_layers(path, cfg, layer0=donor.weights[0], layer1=bad)
        before = [w.copy() for w in net.weights]
        with pytest.raises(ValueError, match="layer1 holds weight 100"):
            load_weights_npz(net, path)
        assert not np.array_equal(donor.weights[0], before[0])
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, before))

    def test_weights_deeper_than_network_rejected(self, tmp_path):
        deep = TnnNetwork(tiny_config(layers=((3, 4), (2, 2)), threshold=(8, 2)))
        net = TnnNetwork(tiny_config(seed=9))
        before = net.weights[0].copy()
        path = tmp_path / "weights.npz"
        save_weights_npz(deep, path)
        with pytest.raises(ValueError, match="layers = 3x4,2x2"):
            load_weights_npz(net, path)
        save_layers(path, net.config, layer0=deep.weights[0], layer1=deep.weights[1])
        want = "holds layer0, layer1, a 1-layer network needs layer0$"
        with pytest.raises(ValueError, match=want):
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
