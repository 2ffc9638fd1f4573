"""End-to-end network behavior on small controlled datasets.

``TestReferenceRun`` checks whole ``train`` then ``infer`` runs against
``oracle.reference_run``, built only from the scalar reference pieces: on
eight fixed cases and on 150 seeded random configs. The other tests cover
config validation and its codec, determinism, the run record's artifacts
and the weight files.
"""

import functools
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import oracle
from oracle import reference_run

from tnnsim import gamma, metrics, network, synth
from tnnsim.dataio import LabeledDataset
from tnnsim.encode import INF, KINDS, Linear, Log, PosNeg, Volley, encode_image
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
from tnnsim.neuron import KernelWorkspace, kernel_bytes, layer_spike_times, posneg_spike_times
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

    @pytest.mark.parametrize("bad", [float("nan"), 2.5, True, 0], ids=repr)
    def test_threshold_must_be_an_integer_at_least_one(self, bad):
        # A NaN threshold once passed, since ``nan < 1`` is false, and fired
        # every column at step 0; NaN, a fraction and a bool would each be
        # written as a config ``from_mapping`` refuses.
        for threshold in (bad, (5, bad)):
            with pytest.raises(ValueError, match=f"threshold must be an integer >= 1, got {bad!r}"):
                NetworkConfig(layers=((8, 10), (2, 2)), pixel_count=784, threshold=threshold)
        cfg = NetworkConfig(layers=((8, 10),), pixel_count=784, threshold=np.int64(5))
        assert NetworkConfig.from_mapping(cfg.to_mapping(), 784).thresholds == (5,)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("layers", ((8.5, 10),), "layer size must be an integer >= 1, got 8.5"),
            ("layers", ((8, 10), (2, True)), "layer size must be an integer >= 1, got True"),
            ("pixel_count", 784.0, "pixel_count must be an integer >= 1, got 784.0"),
            ("period", 16.5, "period must be an integer >= 1, got 16.5"),
            ("period", True, "period must be an integer >= 1, got True"),
            ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
            ("seed", float("nan"), "seed must be an integer >= 0, got nan"),
        ],
        ids=["layers-fraction", "layers-bool", "pixel_count", "period-fraction", "period-bool",
             "seed-fraction", "seed-nan"],
    )
    def test_integer_fields_must_be_integers(self, field, value, message):
        # Each was once accepted and failed later with a ``TypeError``, or
        # was written as a config ``from_mapping`` refuses.
        fields = {"layers": ((8, 10),), "pixel_count": 784, "threshold": 5, field: value}
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            NetworkConfig(**fields)
        cfg = NetworkConfig(
            layers=((np.int64(8), 10),), pixel_count=np.int64(784),
            period=np.int64(16), seed=np.int64(3),
        )
        assert NetworkConfig.from_mapping(cfg.to_mapping(), 784) == cfg

    def test_encoder_period_must_match(self):
        for period, enc in ((8, Linear(period=16)), (16, Linear(period=4)), (8, Log(period=16))):
            with pytest.raises(ValueError, match=f"encoder period {enc.period} .* {period}"):
                tiny_config(period=period, encoder=enc)
        assert tiny_config(period=8, encoder=Linear(period=8)).period == 8

    def test_kernel_working_set_bounded(self):
        # Period 16 and depth w_max = 7; both layers fit one word, so each
        # neuron needs 17 * 7 + 24 * 7 + 9 * 16 + 48 = 479 bytes. Layer 1
        # has 4 lines: 4 * (4 + 16) + 8 * 7 * 7 + 32 * 4 + 8 * 16 + 2**17
        # + 5 * (2**20 + 4 * 7 * (4 + 256)) = 5411080 bytes on top. Layer
        # 0's 8 neurons over 18 lines hold 8 * 479 + 16 * (18 + 16)
        # + 8 * 7 * 7 + 32 * 18 + 8 * 16 + 2**17 + 5 * (2**20 + 4 * 7
        # * (18 + 256)) = 5417784 bytes of the limit.
        most = (KERNEL_BYTES_LIMIT - 5417784 - 5411080) // 479
        NetworkConfig(layers=((4, 2), (1, most)), pixel_count=9, threshold=5)
        with pytest.raises(ValueError, match="layer 1 .* 1024 MiB"):
            NetworkConfig(layers=((4, 2), (1, most + 1)), pixel_count=9, threshold=5)
        with pytest.raises(ValueError, match="layer 0 "):
            NetworkConfig(layers=((100000, 100),), pixel_count=784, threshold=5)

    def test_planes_deeper_than_the_period_count_in_full(self):
        # A layer learns on planes of depth w_max, whatever the period, so
        # the paper's 64x10 layer over 784 pixels fits up to w_max 3713.
        shape = dict(layers=((64, 10),), pixel_count=784, threshold=5)
        NetworkConfig(**shape, stdp_params=StdpParams(w_max=3713))
        for w_max in (3714, 4000):
            with pytest.raises(ValueError, match=r"layer 0 \(64x10, 1568 lines\) needs a"):
                NetworkConfig(**shape, stdp_params=StdpParams(w_max=w_max))

    def test_kernel_working_sets_add_up(self):
        # A run holds every layer's workspace at once: each of these layers
        # fits the limit alone, but not both together.
        neurons = (KERNEL_BYTES_LIMIT // 2 + 1) // 479
        needs = [kernel_bytes(neurons, lines, 7, 16) for lines in (18, 1)]
        assert max(needs) <= KERNEL_BYTES_LIMIT < sum(needs)
        NetworkConfig(layers=((1, neurons),), pixel_count=9, threshold=5)
        with pytest.raises(ValueError, match="layer 1 .* with the layers before it, over the 1024 MiB"):
            NetworkConfig(layers=((1, neurons), (1, neurons)), pixel_count=9, threshold=5)

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

    @pytest.mark.parametrize("epochs", [2.5, True, float("nan")])
    def test_epochs_must_be_an_integer(self, epochs):
        # A fraction or NaN used to fail inside numpy, and True to train
        # one epoch recorded as ``epochs=True``.
        net = TnnNetwork(tiny_config())
        message = re.escape(f"epochs must be an integer >= 1, got {epochs!r}")
        with pytest.raises(ValueError, match=message):
            net.train(tiny_dataset(), epochs=epochs)

    def test_empty_dataset_rejected(self):
        net = TnnNetwork(tiny_config())
        with pytest.raises(ValueError):
            net.infer(dataset_of([]))

    @pytest.mark.parametrize("epochs", [2**55, 2**61])
    def test_record_numpy_cannot_allocate_refused(self, epochs):
        # 4 images x 2**55 epochs, 8 record bytes each, is 2**60 bytes, past
        # any 64-bit address space, so the first allocation fails at once:
        # its MemoryError used to escape the run. At 2**61 epochs numpy
        # refuses the shape itself, and the message is the same.
        net = TnnNetwork(tiny_config())
        before = [w.copy() for w in net.weights]
        ds = dataset_of([flat_image(v) for v in (0, 90, 180, 250)])
        message = (
            f"the run record of {epochs} epochs x 4 images needs {epochs * 32} bytes, "
            "more than numpy can allocate"
        )
        with pytest.raises(ValueError, match=message):
            net.train(ds, epochs=epochs)
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))


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
        with pytest.raises(ValueError, match="^pixel_threshold must be an integer in 0..255, got 300"):
            NetworkConfig.from_mapping({"layers": "2x2", "pixel_threshold": "300"}, 4)

    def test_negative_seed_names_key(self):
        # It parses, so the config's own check rejects it, before any
        # generator is seeded.
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1"):
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


def digit_images(pixel_count):
    """Twelve synthetic digits, each cut to ``pixel_count`` strided pixels."""
    pixels = synth.make_dataset(12, seed=1).pixels[:, 2 :: 784 // pixel_count]
    return LabeledDataset(pixels[:, :pixel_count], pixel_count, 1)


def reference_mismatches(cfg, ds, epochs):
    """Train a network on ``ds`` for ``epochs``, then infer, and run
    ``oracle.reference_run`` the same way from the same start weights.
    Returns the outputs that differ, as ``"<run> <output>"``, and the
    reference's training and inference runs."""
    net = TnnNetwork(cfg)
    train = reference_run(cfg, ds.pixels, epochs, True, net.weights)
    infer = reference_run(cfg, ds.pixels, 1, False, train[2])
    differ = []
    for run, summary, (rows, _, weights) in (
        ("train", net.train(ds, epochs), train), ("infer", net.infer(ds), infer)
    ):
        trace = summary.trace
        got = dict(lengths=trace.lengths, control=trace.control, col_times=trace.col_times,
                   col_neurons=summary.col_neurons)
        for (name, have), want in zip(got.items(), zip(*rows)):
            if have.tolist() != list(want):
                differ.append(f"{run} {name}")
        if not all(np.array_equal(w, want) for w, want in zip(net.weights, weights)):
            differ.append(f"{run} weights")
    return differ, train, infer


def two_layer(period=16, encoder=None, **over):
    """6x4 then 3x3 over 70 pixels: layer 0 has 140 lines, two whole words
    and a partial third, and layer 1 has 6."""
    return NetworkConfig(
        layers=((6, 4), (3, 3)), pixel_count=70, period=period, threshold=(450, 12),
        encoder=encoder or Linear(period=period), **over,
    )


def random_case(seed):
    """A small random network, dataset and epoch count: 1-3 layers of 1-4
    columns x 1-4 neurons, 2-120 lines into layer 0, period 2-17, ``w_max``
    1-20, steps up to 3 past the cap, per-layer thresholds, any encoder and
    mode, and 2-6 images with a fifth of their pixels 0."""
    rng = np.random.default_rng(seed)
    layers = tuple(
        (int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(rng.integers(1, 4))
    )
    pixel_count = int(rng.integers(1, 61))
    period = int(rng.integers(2, 18))
    w_max = int(rng.integers(1, 21))
    kind = KINDS[rng.choice(sorted(KINDS))]
    lines = [2 * pixel_count] + [cols for cols, _ in layers[:-1]]
    cfg = NetworkConfig(
        layers=layers,
        pixel_count=pixel_count,
        period=period,
        threshold=tuple(int(rng.integers(1, n * min(w_max, period) // 2 + 2)) for n in lines),
        encoder=PosNeg(int(rng.integers(0, 256))) if kind is PosNeg else kind(period),
        stdp_params=StdpParams(*rng.integers(0, 2 * w_max + 4, size=4).tolist(), w_max=w_max),
        mode=list(Mode)[rng.integers(2)],
        seed=int(rng.integers(0, 2**32)),
    )
    pixels = rng.integers(0, 256, size=(rng.integers(2, 7), pixel_count))
    pixels = np.where(rng.random(pixels.shape) < 0.2, 0, pixels).astype(np.uint8)
    return cfg, LabeledDataset(pixels, pixel_count, 1), int(rng.integers(1, 4))


class TestReferenceRun:
    """Train and then infer equal ``oracle.reference_run`` bit for bit:
    cycle lengths and causes, column times and neurons, and the final
    weights. This checks encode, each layer's kernel and winners, gamma
    control and STDP together, on bit-planes of depth ``w_max`` both at
    most the period and deeper than it."""

    CASES = {
        "linear": (two_layer(), 3),
        "log": (two_layer(encoder=Log(period=16)), 3),
        "odd-steps": (two_layer(stdp_params=StdpParams(3, 5, 1, 3)), 2),
        "steps-above-cap": (two_layer(stdp_params=StdpParams(40, 100, 33, 17)), 2),
        "w_max-eq-period": (two_layer(8, stdp_params=StdpParams(w_max=8)), 2),
        "w_max-gt-period": (two_layer(8, stdp_params=StdpParams(3, 5, w_max=12)), 2),
        "fixed": (two_layer(mode=Mode.FIXED), 2),
        # 64 lines into both layers: the last word has no padding.
        "whole-words": (NetworkConfig(((64, 2), (2, 2)), 32, threshold=(200, 60),
                                      encoder=Linear(period=16)), 2),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_network_equals_reference(self, case):
        cfg, epochs = self.CASES[case]
        ds = digit_images(cfg.pixel_count)
        differ, (_, winners, _), _ = reference_mismatches(cfg, ds, epochs)
        assert differ == []
        # Every layer has both fired and silent columns while it learns.
        for k in range(len(cfg.layers)):
            idx = np.concatenate([cycle[k] for cycle in winners])
            assert (idx >= 0).any() and (idx < 0).any(), k

    FUZZ_CONFIGS = 150

    def test_seeded_random_configs(self, monkeypatch):
        failed = {}
        fired = silent = control = period = changed = deep = 0
        # Every posneg inference takes layer 0 in one batched call.
        batched = []
        batch = network.posneg_spike_times
        monkeypatch.setattr(
            network, "posneg_spike_times", lambda *args: batched.append(1) or batch(*args)
        )
        for seed in range(self.FUZZ_CONFIGS):
            cfg, ds, epochs = random_case(seed)
            differ, (rows, winners, weights), _ = reference_mismatches(cfg, ds, epochs)
            if differ:
                failed[seed] = differ
            idx = np.concatenate([np.concatenate(cycle) for cycle in winners])
            fired += int((idx >= 0).sum())
            silent += int((idx < 0).sum())
            control += sum(row[1] for row in rows)
            period += sum(not row[1] for row in rows)
            start = TnnNetwork(cfg).weights
            changed += any(not np.array_equal(a, b) for a, b in zip(start, weights))
            deep += cfg.stdp_params.w_max > cfg.period
        assert failed == {}
        # In training, seeds 0..149 give 4,744 fired and 1,205 silent
        # columns and 281 CONTROL and 826 PERIOD resets; it changes the
        # weights of all 150 configs, and 74 learn on planes deeper than
        # the period.
        assert min(fired, silent, control, period) > 200, (fired, silent, control, period)
        assert changed > 0.9 * self.FUZZ_CONFIGS, changed
        assert deep > 0.3 * self.FUZZ_CONFIGS, deep
        # The 42 posneg configs, 27 of them with layers after layer 0.
        assert len(batched) == 42, len(batched)


class TestWeightsWrittenBack:
    @pytest.mark.parametrize("w_max", [7, 20], ids=["w_max-le-period", "w_max-gt-period"])
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

    @pytest.mark.parametrize("length", [256, -1])
    def test_summary_npz_length_past_its_width_rejected(self, tmp_path, length):
        # At period 255 a length is held in one byte, where 256 would wrap
        # to 0 and -1 to the legal 255: each is checked, and named, as stored.
        summary = RunSummary(gamma.GammaTrace(255, [255], [False], [[255]]), [[-1]], 1, 1)
        path = tmp_path / "summary.npz"
        self._write_summary_members(summary, path, lengths=np.array([length]))
        with pytest.raises(ValueError, match=f"cycle length {length} outside 1..255"):
            load_summary_npz(path)

    def test_summary_npz_winner_past_its_width_rejected(self, tmp_path):
        # The other winner, 5, fits one byte, where -129 would wrap to the
        # legal 127: it is checked as stored.
        summary = RunSummary(gamma.GammaTrace(16, [4, 4], [True] * 2, [[3], [3]]), [[0], [5]], 1, 2)
        path = tmp_path / "summary.npz"
        self._write_summary_members(summary, path, col_neurons=np.array([[-129], [5]]))
        with pytest.raises(ValueError, match="col_neurons must hold a neuron index"):
            load_summary_npz(path)

    def test_summary_npz_winner_keeps_its_value_past_two_bytes(self, tmp_path):
        # 2**15 would wrap to -2**15 in two bytes; it loads as stored, at
        # the width it needs.
        summary = RunSummary(gamma.GammaTrace(16, [4, 4], [True] * 2, [[3], [3]]), [[0], [5]], 1, 2)
        path = tmp_path / "summary.npz"
        self._write_summary_members(summary, path, col_neurons=np.array([[2**15], [5]]))
        loaded = load_summary_npz(path)
        assert loaded.col_neurons.tolist() == [[2**15], [5]]
        assert loaded.col_neurons.dtype == np.int32

    @pytest.mark.parametrize("winner", [2**63, 2**63 + 5, 2**64 - 1])
    def test_summary_npz_winner_past_int64_rejected(self, tmp_path, winner):
        # A run writes winners as int64; a uint64 one past it is named, not
        # loaded as an object array.
        summary = RunSummary(gamma.GammaTrace(16, [4], [True], [[3]]), [[0]], 1, 1)
        path = tmp_path / "summary.npz"
        self._write_summary_members(summary, path, col_neurons=np.array([[winner]], dtype=np.uint64))
        with pytest.raises(ValueError, match=re.escape(f"{path}: winner {winner} does not fit")):
            load_summary_npz(path)

    def test_summary_npz_winner_at_int64_max_loads(self, tmp_path):
        # The largest winner int64 holds loads with its value, at int64.
        top = np.iinfo(np.int64).max
        summary = RunSummary(gamma.GammaTrace(16, [4], [True], [[3]]), [[0]], 1, 1)
        path = tmp_path / "summary.npz"
        self._write_summary_members(summary, path, col_neurons=np.array([[top]], dtype=np.uint64))
        loaded = load_summary_npz(path)
        assert loaded.col_neurons.tolist() == [[top]] and loaded.col_neurons.dtype == np.int64

    @pytest.mark.parametrize("neurons", [128, 129])
    @pytest.mark.parametrize("period", [255, 256])
    def test_record_widths_at_their_boundaries(self, tmp_path, period, neurons):
        # Codes are uint8 up to period 255 and uint16 from 256, winners int8
        # up to 128 neurons a column and int16 from 129. Three presentations:
        # column 0 first fires on the last step, stays silent, and fires with
        # column 1 halfway through the cycle, which control ends.
        cfg = NetworkConfig(((2, neurons),), 1, period=period, threshold=1, encoder=Linear(period))
        net = TnnNetwork(cfg)
        w = net.weights[0]
        w[:] = 0
        w[0, -1, 0] = w[1, -1, 1] = 2  # column 0 reads the positive line, column 1 the negative
        ds = dataset_of([[1], [0], [128]], labels=[0, 1, 2], side=1)
        run = net.infer(ds)
        code = np.uint8 if period == 255 else np.uint16
        winner = np.int8 if neurons == 128 else np.int16
        assert run.trace.col_codes.dtype == run.trace.lengths.dtype == code
        assert run.col_neurons.dtype == winner
        # Each maker of codes and winners makes them at the record's widths:
        # raw times, both graded encoders, the kernel for a volley with
        # arrivals and for one without, and the batched posneg layer.
        work = KernelWorkspace(w, period, 1, cfg.stdp_params.w_max)
        volleys = [
            Volley.from_times([period - 1, INF], period),
            encode_image(ds.pixels[0], Linear(period)),
            encode_image(ds.pixels[0], Log(period)),
        ]
        volleys += [layer_spike_times(work, v)[1] for v in (volleys[0], [INF, INF])]
        assert [v.codes.dtype for v in volleys] == [code] * 5
        idx, codes = posneg_spike_times(work, ds.pixels, PosNeg())
        assert (idx.dtype, codes.dtype) == (winner, code)
        assert run.trace.col_codes[:2, 0].tolist() == [period - 1, period]
        assert run.trace.control.tolist() == [False, False, True]
        # The same record held at int64, and the reference run's rows.
        trace = gamma.GammaTrace(period, run.trace.lengths, run.trace.control, run.trace.col_codes)
        trace.col_codes = trace.col_codes.astype(np.int64)
        wide = RunSummary(trace, run.col_neurons.astype(np.int64), epochs=1, images=3)
        rows = reference_run(cfg, ds.pixels, 1, False, net.weights)[0]
        assert [list(r) for r in zip(*rows)] == [
            run.trace.lengths.tolist(), run.trace.control.tolist(),
            run.trace.col_times.tolist(), run.col_neurons.tolist(),
        ]
        for codes in (run.trace.col_codes, wide.trace.col_codes):
            lengths, control = gamma.cycle_ends(codes, period, relaxed=True)
            assert lengths.tolist() == run.trace.lengths.tolist()
            assert control.tolist() == run.trace.control.tolist()
        for summary in (run, wide):
            assert metrics.cycle_savings(summary.trace, period) == oracle.cycle_savings(
                run.trace.lengths.tolist(), run.trace.col_times.tolist(), period
            )
        for write in (write_summary_csv, lambda s, f: gamma.write_trace_csv(s.trace, f)):
            texts = [io.StringIO(), io.StringIO()]
            write(run, texts[0])
            write(wide, texts[1])
            assert texts[0].getvalue() == texts[1].getvalue()
        assert metrics.spike_histogram(run) == metrics.spike_histogram(wide)
        path = tmp_path / "summary.npz"
        save_summary_npz(run, path)
        loaded = load_summary_npz(path)
        for field in ("lengths", "control", "col_codes"):
            got, want = getattr(loaded.trace, field), getattr(run.trace, field)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert loaded.col_neurons.dtype == winner
        assert np.array_equal(loaded.col_neurons, run.col_neurons)

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

    @staticmethod
    def two_cycles(lengths=(16, 4), col_codes=((2, 16), (3, 1))):
        """A period cycle and a control cycle of 2 columns, by default as a
        relaxed run writes them."""
        trace = gamma.GammaTrace(16, lengths, (False, True), col_codes)
        neurons = np.where(trace.col_codes == 16, -1, 0)
        return RunSummary(trace, neurons, epochs=1, images=2)

    @pytest.mark.parametrize(
        "member, value, message",
        [
            ("lengths", [15.7, 6.2], "member 'lengths' holds float64 values"),
            ("col_neurons", [[0.9, -1], [1.5, 0]], "member 'col_neurons' holds float64 values"),
            ("meta", [16.0, 2, 1, 2], "member 'meta' holds float64 values"),
            ("col_times", [[2 + 0.5j, INF], [3, 1]], "member 'col_times' holds complex128 values"),
            ("causes", [0.4, 3.0], "member 'causes' must hold bools or integers 0 and 1"),
            ("causes", np.array([0, 2], dtype=np.int8), "member 'causes' must hold"),
            ("meta", [16, 7, 1, 2], "meta records 7 columns, col_times holds 2"),
            ("meta", [16, 2, 5, -3], "meta records 5 epochs of -3 images"),
            ("meta", [16, 2, 0, 2], "meta records 0 epochs of 2 images"),
            ("meta", [16, 2, 1, 1], "1 epochs of 1 images for a trace of 2 cycles"),
        ],
        ids=[
            "fractional-lengths", "fractional-neurons", "fractional-meta", "complex-times",
            "fractional-causes", "cause-2", "meta-columns", "negative-images", "zero-epochs",
            "cycle-count",
        ],
    )
    def test_summary_npz_malformed_member_rejected(self, tmp_path, member, value, message):
        path = tmp_path / "summary.npz"
        self._write_summary_members(self.two_cycles(), path, **{member: np.asarray(value)})
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            load_summary_npz(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "lengths, col_codes",
        [
            ((16, 5), ((2, 16), (10, 2))),
            ((16, 4), ((2, 16), (3, 16))),
            ((16, 16), ((2, 16), (15, 1))),
        ],
        ids=["before-last-time", "silent-column", "at-the-period"],
    )
    def test_summary_npz_control_cycle_ends_after_its_last_time(
        self, tmp_path, lengths, col_codes
    ):
        # run_cycle ends a cycle by control only once every column fired,
        # one step after the last, and only before the period.
        path = tmp_path / "summary.npz"
        save_summary_npz(self.two_cycles(lengths, col_codes=col_codes), path)
        last = max(col_codes[1])
        message = (
            f"{path}: control cycle 1 has length {lengths[1]}; control ends a cycle "
            f"one step after its last column time ({'inf' if last == 16 else last})"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            load_summary_npz(path)

    def test_summary_npz_period_cycle_runs_the_period(self, tmp_path):
        path = tmp_path / "summary.npz"
        save_summary_npz(self.two_cycles(lengths=(9, 4)), path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: period cycle 0 has length 9")):
            load_summary_npz(path)

    def test_column_neurons_below_minus_one_rejected(self):
        # -2 in a column that fired: -1 marks exactly the silent columns, so
        # only the lower bound rejects it.
        with pytest.raises(ValueError, match="col_neurons must hold a neuron index"):
            RunSummary(gamma.GammaTrace(16, [4], [True], [[3, 1]]), [[-2, 0]], epochs=1, images=1)

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
        path = tmp_path / "weights.npz"
        save_weights_npz(TnnNetwork(tiny_config()), path)
        other = TnnNetwork(tiny_config(layers=((2, 2),)))
        with pytest.raises(ValueError, match="trained with layers = 3x4, the config has layers = 2x2"):
            load_weights_npz(other, path)
        # The pixel count is no weight key, so 784-pixel weights pass the
        # config check of a 100-pixel network and meet the shape check.
        save_weights_npz(TnnNetwork(tiny_config(layers=((4, 3),), pixel_count=784)), path)
        net = TnnNetwork(tiny_config(layers=((4, 3),), pixel_count=100, seed=3))
        before = net.weights[0].copy()
        want = re.escape("layer0 shape (4, 3, 1568) does not match network (4, 3, 200)")
        with pytest.raises(ValueError, match=want):
            load_weights_npz(net, path)
        assert np.array_equal(net.weights[0], before)


class TestClockAccounting:
    def test_total_equals_sum_of_lengths(self):
        ds = tiny_dataset()
        net = TnnNetwork(tiny_config())
        summary = net.train(ds, epochs=3)
        assert summary.total_clock_cycles == sum(summary.trace.lengths.tolist())
        assert summary.gamma_cycles == 3 * len(ds)
        assert summary.epochs == 3
        assert summary.images == len(ds)
