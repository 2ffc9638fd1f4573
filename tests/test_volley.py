"""Volleys are checked once, where they are made.

The encoders and the layer kernel build an ``encode.Volley`` from step
codes they computed, and no reader checks it again. Each made volley must
equal the one ``Volley.from_times`` builds from its times under the one
spike-time rule: the same arrival steps, packed masks and times. A run
must not hand ``Volley.from_times`` the times of a volley it made.
"""

import sys

import numpy as np
import pytest
from oracle import readme_encode

from tnnsim import gamma, network, synth
from tnnsim.dataio import LabeledDataset
from tnnsim.encode import INF, Linear, Log, PosNeg, Volley, encode_image
from tnnsim.neuron import KernelWorkspace, layer_spike_times
from tnnsim.stdp import StdpParams


def assert_same_volley(made, checked):
    assert np.array_equal(made.steps, checked.steps)
    assert made.steps.dtype == np.int64
    assert made.masks.dtype == np.uint64
    assert np.array_equal(made.masks, checked.masks)
    assert np.array_equal(made.times, checked.times)
    assert made.times.dtype == np.float64


def kinds(period):
    return [PosNeg(t) for t in (0, 126, 127, 128, 254, 255)] + [Linear(period), Log(period)]


class TestEncodedVolley:
    @pytest.mark.parametrize("period", [2, 5, 16, 64])
    def test_equals_checked_times(self, period):
        rng = np.random.default_rng(period)
        edges = [0, 1, 126, 127, 128, 129, 254, 255]
        # Every intensity once, the edges alone, and random rows of 1-130
        # pixels, so the lines end inside a word and on a word boundary.
        rows = [np.arange(256), np.array(edges), np.array([0]), np.array([255])]
        rows += [rng.integers(0, 256, size=n) for n in (1, 31, 32, 33, 64, 65, 130)]
        for pixels in rows:
            for kind in kinds(period):
                made = encode_image(pixels.astype(np.uint8), kind)
                times = readme_encode(pixels.tolist(), kind)
                assert made.times.tolist() == times, kind
                assert_same_volley(made, Volley.from_times(times, period))

    def test_pixel_types_agree(self):
        pixels = np.arange(256)
        for kind in kinds(16):
            want = encode_image(pixels.astype(np.uint8), kind)
            for got in (encode_image(pixels, kind), encode_image(pixels.tolist(), kind)):
                assert_same_volley(got, want)

    def test_empty_image(self):
        for kind in kinds(16):
            volley = encode_image(np.zeros(0, dtype=np.uint8), kind)
            assert len(volley) == 0 and volley.steps.size == 0


class TestKernelVolley:
    @pytest.mark.parametrize("lines", [3, 64, 130])
    def test_equals_checked_column_times(self, lines):
        rng = np.random.default_rng(lines)
        seen = set()
        for _ in range(60):
            cols, per = (int(v) for v in rng.integers(1, (70, 4)))
            period = int(rng.integers(2, 20))
            weights = rng.integers(0, 15, size=(cols, per, lines))
            th = int(rng.integers(1, lines * min(7, period) // 2 + 2))
            work = KernelWorkspace(weights, period, th, min(7, period))
            times = np.where(rng.random(lines) < 0.3, INF, rng.integers(0, period, lines))
            idx, made = layer_spike_times(work, times)
            assert made.period == period and len(made) == cols
            assert np.array_equal(idx < 0, made.times == INF)
            assert_same_volley(made, Volley.from_times(made.times.tolist(), period))
            seen.add((bool((idx >= 0).any()), bool((idx < 0).any())))
        # Some calls leave columns silent, some fire them all.
        assert {(True, True), (True, False)} <= seen, seen


class TestVolley:
    def test_arrays_are_read_only(self):
        volley = encode_image(np.arange(40, dtype=np.uint8), Linear(16))
        for a in (volley.codes, volley.steps, volley.masks, volley.times):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        with pytest.raises(AttributeError, match="immutable"):
            volley.codes = volley.codes.copy()

    def test_repr_shows_times_and_period(self):
        assert repr(Volley.from_times([3, INF, 0], 16)) == "Volley([3.0, inf, 0.0], period=16)"

    def test_asarray_gives_times(self):
        volley = encode_image(np.array([0, 200, 90], dtype=np.uint8), PosNeg(127))
        assert np.asarray(volley, dtype=float).tolist() == [INF, 0, INF, 0, INF, 0]
        assert np.array_equal(np.asarray(volley), volley.times)

    def test_made_volley_passes_through_a_longer_cycle(self):
        # A posneg volley counts in a one-step cycle, so any period takes it;
        # a volley made for a longer cycle than the reader's is refused.
        posneg = encode_image(np.array([0, 255], dtype=np.uint8), PosNeg(127))
        assert posneg.period == 1
        assert Volley.from_times(posneg, 16) is posneg
        linear = encode_image(np.array([3, 255], dtype=np.uint8), Linear(16))
        assert Volley.from_times(linear, 16) is linear
        with pytest.raises(ValueError, match="16-step cycle cannot arrive in a 8-step one"):
            Volley.from_times(linear, 8)

    def test_silence_counts_in_the_volley_cycle(self):
        # A posneg volley marks silence with code 1, its own period: gamma
        # control must not read that as a spike at step 1.
        one_silent = encode_image(np.array([200], dtype=np.uint8), PosNeg(127))
        both_fired = Volley.from_times([0, 0], 1)
        assert gamma.run_cycle(one_silent, 16, relaxed=True) == gamma.CycleResult(
            16, gamma.GrstCause.PERIOD
        )
        assert gamma.run_cycle(both_fired, 16, relaxed=True) == gamma.CycleResult(
            1, gamma.GrstCause.CONTROL
        )

    @pytest.mark.parametrize("t", [2.5, -1.0, 16.0, np.nan])
    def test_raw_times_are_checked(self, t):
        with pytest.raises(ValueError, match="is not inf or a whole step in 0..15"):
            Volley.from_times([0.0, t], 16)


def test_a_run_checks_no_volley_it_made(monkeypatch):
    """A seeded ``train`` and ``infer`` make no ``Volley.from_times`` call on
    raw times: the volleys the encoder and the kernels made pass through as
    they are, and the run record keeps the final layer's step codes. Both
    weight stores and both codes run."""
    callers = []
    door = Volley.from_times.__func__

    def counting(cls, times, period):
        if not isinstance(times, Volley):
            callers.append(sys._getframe(1).f_code.co_name)
        return door(cls, times, period)

    monkeypatch.setattr(Volley, "from_times", classmethod(counting))
    # The counter sees a raw volley come in, and a made one go through.
    Volley.from_times(Volley.from_times([0, INF], 16), 16)
    assert callers == ["test_a_run_checks_no_volley_it_made"]
    callers.clear()
    ds = synth.make_dataset(12, seed=5)
    ds = LabeledDataset(ds.pixels[:, ::4].copy(), 196, 1, ds.labels)
    configs = [
        network.NetworkConfig(((8, 4),), 196, threshold=300, encoder=PosNeg(100)),
        network.NetworkConfig(((6, 4), (3, 3)), 196, threshold=(250, 4), encoder=Linear(16)),
        network.NetworkConfig(
            ((6, 4), (3, 3)), 196, period=8, threshold=(150, 3), encoder=Log(8),
            stdp_params=StdpParams(w_max=12),
        ),
    ]
    for cfg in configs:
        net = network.TnnNetwork(cfg)
        trained = net.train(ds, epochs=2)
        inferred = net.infer(ds)
        for summary in (trained, inferred):
            assert (summary.col_neurons >= 0).any()
    assert callers == []
