"""Neuron and column behavior, checked against brute-force simulators.

The production layer kernel returns each column's winner. It is checked
against the brute-force simulators, the scalar oracle in ``oracle.py`` and
the oracle's per-neuron kernels (cumsum and bit-plane), each reduced to
column winners by argmin; the oracle's scalar neuron is checked against the
brute force too. A bank of one-neuron columns gives per-neuron times.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    RnlNeuron,
    brute_force_spike_time,
    column_argmin,
    cumsum_spike_times,
    neuron_spike_time,
    plane_spike_times,
    rnl_response,
    weight_cap,
)

from tnnsim.encode import INF
from tnnsim.neuron import kernel_bytes, layer_spike_times, pack_lines, unpack_weights, weight_planes


def column_winners(weights_hu, times, period, threshold, cols, w_max=7):
    """Each column's (winner neuron, winner time) of a ``(neurons, lines)``
    bank, through its bit-planes and the production kernel."""
    weights_hu = np.asarray(weights_hu)
    planes = weight_planes(weights_hu, min(w_max, period))
    return layer_spike_times(planes, times, period, threshold, weights_hu.shape[1], cols)


def bank_spike_times(weights_hu, times, period, threshold, w_max=7):
    """Per-neuron spike times: every neuron its own column, so each
    column's winner time is that neuron's spike time."""
    cols = np.shape(weights_hu)[0]
    return column_winners(weights_hu, times, period, threshold, cols, w_max)[1]


def stepwise_spike_times(weights_hu, times, period, threshold):
    """Brute force for a whole bank: tabulate every step's potential."""
    x = np.asarray(times, dtype=float)
    live = np.isfinite(x)
    arrival = x[live].astype(np.int64)
    cap = np.asarray(weights_hu)[:, live].astype(np.int64) // 2
    threshold = np.broadcast_to(threshold, cap.shape[:1])
    out = np.full(cap.shape[0], np.inf)
    for t in range(period):
        ramp = np.clip(t - arrival + 1, 0, None)
        potential = np.minimum(ramp[None, :], cap).sum(axis=1)
        out[np.isinf(out) & (potential >= threshold)] = t
    return out


def library_spike_time(weights, times, period, threshold):
    """Evaluate one neuron through the library's layer kernel."""
    t = bank_spike_times([weights], times, period, threshold)[0]
    return INF if np.isinf(t) else int(t)


def oracle_spike_time(weights, times, period, threshold):
    """Evaluate one neuron through the scalar oracle."""
    return neuron_spike_time(RnlNeuron(weights=list(weights), threshold=threshold), times, period)


def assert_winners(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (got, want)


class TestRnlResponse:
    def test_unit_ramp_saturates_at_weight(self):
        # weight value 3 (6 half-units), arrival at step 0
        assert [rnl_response(6, 0, t) for t in range(5)] == [1, 2, 3, 3, 3]

    def test_no_spike_no_response(self):
        assert all(rnl_response(6, INF, t) == 0 for t in range(16))

    def test_zero_weight_no_response(self):
        assert all(rnl_response(0, 0, t) == 0 for t in range(16))

    def test_before_arrival_no_response(self):
        assert rnl_response(6, 5, 4) == 0
        assert rnl_response(6, 5, 5) == 1

    def test_half_unit_rounds_down(self):
        # 5 half-units is weight 2.5; the ramp tops out at 2.
        assert [rnl_response(5, 0, t) for t in range(4)] == [1, 2, 2, 2]
        assert weight_cap(1) == 0
        assert weight_cap(14) == 7

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            rnl_response(-1, 0, 0)


class TestNeuronSpikeTime:
    """Each case runs through both the layer kernel and the scalar oracle."""

    def test_time_zero_spike_with_low_threshold(self):
        args = ([2] * 700, [0] * 700, 16, 400)
        assert library_spike_time(*args) == oracle_spike_time(*args) == 0

    def test_saturated_inputs_cross_high_threshold_at_five(self):
        # 700 saturated lines at time 0: potential 700 * min(t+1, 7)
        # first reaches 4000 at t = 5.
        args = ([14] * 700, [0] * 700, 16, 4000)
        assert library_spike_time(*args) == oracle_spike_time(*args) == 5

    def test_unreachable_threshold_never_spikes(self):
        args = ([2] * 4, [0] * 4, 16, 1000)
        assert library_spike_time(*args) == oracle_spike_time(*args) == INF

    def test_length_mismatch_rejected(self):
        n = RnlNeuron(weights=[2] * 4, threshold=1)
        with pytest.raises(ValueError):
            neuron_spike_time(n, [0] * 6, 16)

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(0, 14), min_size=2, max_size=8),
        st.data(),
        st.integers(1, 40),
    )
    def test_matches_brute_force(self, weights, data, threshold):
        times = data.draw(
            st.lists(
                st.one_of(st.integers(0, 15), st.just(INF)),
                min_size=len(weights),
                max_size=len(weights),
            )
        )
        want = brute_force_spike_time(weights, times, 16, threshold)
        assert library_spike_time(weights, times, 16, threshold) == want
        assert oracle_spike_time(weights, times, 16, threshold) == want

    @given(
        st.lists(st.integers(0, 14), min_size=2, max_size=6),
        st.integers(0, 5),
        st.integers(1, 30),
    )
    def test_raising_one_weight_never_delays(self, weights, idx, threshold):
        idx = idx % len(weights)
        times = [0] * len(weights)
        bumped = list(weights)
        bumped[idx] = min(14, bumped[idx] + 2)
        for spike_time in (library_spike_time, oracle_spike_time):
            t1 = spike_time(weights, times, 16, threshold)
            t2 = spike_time(bumped, times, 16, threshold)
            assert t2 <= t1


class TestLayerSpikeTimes:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(7)
        lines, neurons = 12, 20
        weights = rng.integers(0, 15, size=(neurons, lines)).astype(np.int16)
        times = [
            INF if rng.random() < 0.25 else int(rng.integers(0, 16))
            for _ in range(lines)
        ]
        vec = bank_spike_times(weights, times, 16, 25)
        for i in range(neurons):
            want = oracle_spike_time(weights[i].tolist(), times, 16, 25)
            got = INF if np.isinf(vec[i]) else int(vec[i])
            assert got == want

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            lines = int(rng.integers(1, 10))
            neurons = int(rng.integers(1, 6))
            period = int(rng.integers(2, 20))
            weights = rng.integers(0, 15, size=(neurons, lines)).astype(np.int16)
            times = [
                INF if rng.random() < 0.3 else int(rng.integers(0, period))
                for _ in range(lines)
            ]
            thresholds = rng.integers(1, 40, size=neurons)
            vec = bank_spike_times(weights, times, period, thresholds)
            for i in range(neurons):
                want = brute_force_spike_time(
                    weights[i].tolist(), times, period, int(thresholds[i])
                )
                got = INF if np.isinf(vec[i]) else int(vec[i])
                assert got == want

    def test_all_silent_input(self):
        weights = np.full((3, 4), 14, dtype=np.int16)
        idx, win = column_winners(weights, [INF] * 4, 16, 1, 3)
        assert idx.tolist() == [-1] * 3 and np.isinf(win).all()
        assert idx.dtype == np.int64 and win.dtype == float

    def test_per_neuron_thresholds(self):
        weights = np.full((2, 700), 14, dtype=np.int16)
        out = bank_spike_times(weights, [0] * 700, 16, np.array([400, 4000]))
        assert out.tolist() == [0, 5]

    def test_line_count_mismatch(self):
        with pytest.raises(ValueError):
            bank_spike_times(np.zeros((2, 3), dtype=np.int16), [0, 1], 16, 1)
        # Inside one 64-bit word and across a word boundary, both ways.
        for bank, volley in ((64, 63), (63, 64), (65, 64), (64, 65)):
            with pytest.raises(ValueError, match="volley has"):
                bank_spike_times(np.zeros((2, bank), dtype=np.int16), [0] * volley, 16, 1)

    def test_lines_must_fit_the_planes(self):
        planes = weight_planes(np.zeros((2, 64), dtype=np.int16), 7)
        with pytest.raises(ValueError, match="do not pack"):
            layer_spike_times(planes, [0] * 65, 16, 1, 65, 1)

    def test_neurons_must_split_into_columns(self):
        planes = weight_planes(np.zeros((6, 3), dtype=np.int16), 7)
        for cols in (0, 4, 7):
            with pytest.raises(ValueError, match="do not split"):
                layer_spike_times(planes, [0] * 3, 16, 1, 3, cols)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            bank_spike_times(np.zeros((2, 3), dtype=np.int16), [0, -1, INF], 16, 1)

    def test_planes_mark_whole_units(self):
        # half-units 0..5 are weights 0, 0, 1, 1, 2, 2: plane k marks c >= k.
        planes = weight_planes(np.array([[0, 1, 2, 3, 4, 5]]), 3)
        assert planes.shape == (1, 3, 1)
        assert planes.dtype == np.uint64
        assert [int(p) for p in planes[0, :, 0]] == [0b111100, 0b110000, 0]

    def test_planes_are_stored_word_major(self):
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 15, size=(300, 130))
        planes = weight_planes(weights, 7)
        assert planes.shape == (300, 7, 3)
        assert planes.transpose(2, 0, 1).flags.c_contiguous
        # Plane by plane, each row packs its lines 64 to a word, low bit first.
        for k in range(7):
            bits = np.zeros((300, 192), dtype=bool)
            bits[:, :130] = weights // 2 > k
            want = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
            assert np.array_equal(planes[:, k], want), k

    def test_packs_in_blocks_like_one_pass(self, monkeypatch):
        rng = np.random.default_rng(6)
        weights = rng.integers(0, 15, size=(50, 200))
        whole = weight_planes(weights, 7)
        monkeypatch.setattr("tnnsim.neuron._PACK_CHUNK", 7 * 256 * 3)
        assert np.array_equal(weight_planes(weights, 7), whole)

    @pytest.mark.parametrize("chunk", [None, 7 * 256 * 3], ids=["one-pass", "blocks"])
    def test_unpack_inverts_planes_and_parity(self, monkeypatch, chunk):
        # Every half-unit weight up to the cap comes back, across padded
        # words and across row blocks.
        rng = np.random.default_rng(7)
        weights = rng.integers(0, 15, size=(50, 200)).astype(np.int16)
        planes = weight_planes(weights, 7)
        parity = pack_lines((weights & 1) == 1)
        if chunk is not None:
            monkeypatch.setattr("tnnsim.neuron._PACK_CHUNK", chunk)
        out = np.full_like(weights, -1)
        unpack_weights(planes, parity, out)
        assert np.array_equal(out, weights)


class TestColumnKernel:
    """Column winners at the edges of the early stop: the kernel adds
    arrival steps in order and stops once every column has a neuron at
    threshold before the next one. Each case is also checked against the
    oracle's per-neuron kernels reduced by argmin."""

    @staticmethod
    def check(weights, times, threshold, cols, period=16):
        got = column_winners(weights, times, period, threshold, cols)
        for ref in (stepwise_spike_times, cumsum_spike_times):
            assert_winners(got, column_argmin(ref(weights, times, period, threshold), cols))
        return got[0].tolist(), got[1].tolist()

    def test_fires_only_at_last_arrival_step(self):
        # Lines arrive at 0, 4 and 9; column 1 only listens to the line at 9,
        # and its neuron 1 fires the step it arrives.
        times = [0, 0, 4, 9]
        weights = np.array([[14, 14, 0, 0], [0, 0, 14, 0], [0, 0, 0, 14], [0, 0, 0, 2]])
        assert self.check(weights, times, [2, 2, 3, 1], 2) == ([0, 1], [0, 9])

    def test_silent_column_between_fired_ones(self):
        # Potential 1, 3, 6 at t = 0..2 for a neuron with every line.
        weights = np.array([[14] * 4, [0] * 4, [0] * 4, [0] * 4, [0] * 4, [14] * 4])
        assert self.check(weights, [0, 1, 2, 3], 4, 3) == ([0, -1, 1], [2, INF, 2])

    def test_threshold_one_step_before_next_arrival(self):
        # Two saturated lines at step 0: potential 2, 4, 6, 8, 10 at t = 0..4.
        # Both columns answer before the line at 5 arrives.
        weights = np.array([[14, 14, 0], [14, 14, 0]])
        assert self.check(weights, [0, 0, 5], [2, 10], 2) == ([0, 0], [0, 4])

    def test_threshold_at_next_arrival_step(self):
        # Potential 12 first reached at t = 5, the step the third line
        # arrives: the kernel must not stop after step 0.
        weights = np.array([[14, 14, 0], [14, 14, 0]])
        assert self.check(weights, [0, 0, 5], [2, 12], 2) == ([0, 0], [0, 5])
        # Only the line arriving at 5 lifts the second column to threshold.
        weights = np.array([[14, 14, 0], [14, 14, 2]])
        assert self.check(weights, [0, 0, 5], [2, 13], 2) == ([0, 0], [0, 5])

    def test_per_neuron_thresholds(self):
        weights = np.full((4, 8), 14)
        thresholds = np.array([40, 8, 24, 16])
        assert self.check(weights, [0] * 8, thresholds, 2) == ([1, 1], [0, 1])

    def test_tie_breaks_to_lowest_index(self):
        # Neurons 1 and 2 of the column reach threshold together at 3;
        # neuron 2 gets there from the later line, neuron 1 from ramps.
        weights = np.array([[2, 0, 0], [14, 0, 0], [0, 14, 14]])
        assert self.check(weights, [0, 2, 3], [50, 4, 3], 1) == ([1], [3])

    def test_stops_once_every_column_answered(self, monkeypatch):
        counted = []
        popcount = np.bitwise_count

        def counting(*args, **kwargs):
            counted.append(1)
            return popcount(*args, **kwargs)

        monkeypatch.setattr(np, "bitwise_count", counting)
        weights = np.full((4, 6), 14)
        times = [0, 0, 3, 7, 9, 12]
        # The two lines at step 0 give potential 2, 4, 6 at t = 0..2: one
        # neuron per column at threshold just before step 3 ends the work.
        assert self.check(weights, times, [6, 1000, 1000, 6], 2) == ([0, 1], [2, 2])
        assert len(counted) == 1
        counted.clear()
        # One column out of reach: every arrival step is evaluated.
        assert self.check(weights, times, [2, 2, 1000, 1000], 2) == ([0, -1], [0, INF])
        assert len(counted) == 5


class TestWordBoundaries:
    """The column kernel vs the brute force and the oracle's cumsum and
    bit-plane kernels, reduced to column winners, at line counts around the
    64-bit word, weight caps above the period, per-neuron thresholds and
    all-silent and all-live volleys."""

    @pytest.mark.parametrize("lines", [1, 63, 64, 65, 127, 1568])
    def test_matches_references(self, lines):
        rng = np.random.default_rng(1000 + lines)
        fired = silent = 0
        for w_max in (1, 7, 10, 20):
            for period, cols in zip((2, 16, 17, 33), (1, 2, 3, 6)):
                neurons = 6
                weights = rng.integers(0, 2 * w_max + 1, size=(neurons, lines))
                planes = weight_planes(weights, min(w_max, period))
                random = np.where(
                    rng.random(lines) < 0.3, INF, rng.integers(0, period, size=lines)
                ).astype(float)
                volleys = (random, np.full(lines, INF), rng.integers(0, period, size=lines))
                for times in volleys:
                    reach = lines * min(w_max, period)
                    thresholds = rng.integers(1, reach + 2, size=neurons)
                    got = layer_spike_times(planes, times, period, thresholds, lines, cols)
                    for ref in (
                        stepwise_spike_times(weights, times, period, thresholds),
                        cumsum_spike_times(weights, times, period, thresholds),
                        plane_spike_times(planes, times, period, thresholds, lines),
                    ):
                        assert_winners(got, column_argmin(ref, cols))
                    fired += int((got[0] >= 0).sum())
                    silent += int((got[0] < 0).sum())
        # Every shape sees both outcomes in over 20 of its 144 columns, so
        # neither check is vacuous.
        assert fired > 20 and silent > 20, (fired, silent)


class TestKernelBytes:
    """``kernel_bytes`` bounds what a kernel call holds at once: its planes
    plus the peak it allocates, as ``tracemalloc`` sees it."""

    @pytest.mark.parametrize(
        "neurons, cols, lines, w_max, period, threshold, volley",
        [
            (640, 64, 1568, 7, 16, 3000, "graded"),  # deep-linear's first layer
            (640, 64, 1568, 7, 16, 1, "graded"),  # early stop after one step
            (80, 8, 1568, 7, 16, 3000, "time0"),  # a posneg volley
            (20000, 2000, 8, 2, 256, 10**9, "graded"),  # long period, all silent
            (20000, 2000, 8, 2, 256, 3, "spread"),
            (3, 1, 64, 7, 4096, 10**9, "graded"),  # period far over the lines
            (4, 2, 3, 7, 16, 10**9, "graded"),
            (30, 3, 70000, 7, 1024, "per-neuron", "graded"),
        ],
    )
    def test_bounds_measured_peak(self, neurons, cols, lines, w_max, period, threshold, volley):
        rng = np.random.default_rng(neurons + lines + period)
        weights = rng.integers(0, 2 * w_max + 1, size=(neurons, lines), dtype=np.int16)
        depth = min(w_max, period)
        planes = weight_planes(weights, depth)
        times = {
            "graded": rng.integers(0, period, size=lines),
            "time0": np.where(rng.random(lines) < 0.5, 0.0, INF),
            "spread": np.arange(lines) * (period // lines),
        }[volley].astype(float)
        if threshold == "per-neuron":
            threshold = list(rng.integers(1, 10**6, size=neurons))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            idx, _ = layer_spike_times(planes, times, period, threshold, lines, cols)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak + planes.nbytes <= kernel_bytes(neurons, lines, depth, period)
        assert idx.shape == (cols,)
