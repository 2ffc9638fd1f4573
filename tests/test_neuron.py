"""Neuron and column behavior, checked against a brute-force simulator.

The bit-plane layer kernel is checked against the brute-force simulator,
against the scalar oracle in ``oracle.py`` and against the oracle's
cumsum kernel; the oracle's own neuron and column model is checked here
too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    Column,
    ColumnStateError,
    RnlNeuron,
    column_reset,
    column_wta,
    cumsum_spike_times,
    earliest_winner,
    neuron_spike_time,
    rnl_response,
    weight_cap,
)

from tnnsim.encode import INF
from tnnsim.neuron import layer_spike_times, weight_planes


def brute_force_spike_time(weights_hu, times, period, threshold):
    """Reference simulator: tabulate the potential at every step.

    Independent of the library's ramp algebra: it literally walks each
    step and adds one unit per active, unsaturated synapse ramp.
    """
    for t in range(period):
        potential = 0
        for w, s in zip(weights_hu, times):
            if s == INF or t < s:
                continue
            height = t - int(s) + 1
            cap = w // 2
            potential += min(height, cap)
        if potential >= threshold:
            return t
    return INF


def bank_spike_times(weights_hu, times, period, threshold, w_max=7):
    """Evaluate a ``(neurons, lines)`` bank through its bit-planes."""
    weights_hu = np.asarray(weights_hu)
    planes = weight_planes(weights_hu, min(w_max, period))
    return layer_spike_times(planes, times, period, threshold, weights_hu.shape[1])


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


class TestOracleEquivalenceAtScale:
    def test_ten_thousand_random_instances(self):
        rng = np.random.default_rng(42)
        mismatches = 0
        for _ in range(10000):
            lines = int(rng.integers(1, 9))
            weights = rng.integers(0, 15, size=lines).tolist()
            times = [
                INF if rng.random() < 0.3 else int(rng.integers(0, 16))
                for _ in range(lines)
            ]
            threshold = int(rng.integers(1, 60))
            got = library_spike_time(weights, times, 16, threshold)
            want = brute_force_spike_time(weights, times, 16, threshold)
            if got != want:
                mismatches += 1
        assert mismatches == 0


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
        out = bank_spike_times(weights, [INF] * 4, 16, 1)
        assert np.all(np.isinf(out))

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
            layer_spike_times(planes, [0] * 65, 16, 1, 65)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            bank_spike_times(np.zeros((2, 3), dtype=np.int16), [0, -1, INF], 16, 1)

    def test_planes_mark_whole_units(self):
        # half-units 0..5 are weights 0, 0, 1, 1, 2, 2: plane k marks c >= k.
        planes = weight_planes(np.array([[0, 1, 2, 3, 4, 5]]), 3)
        assert planes.shape == (1, 3, 1)
        assert planes.dtype == np.uint64
        assert [int(p) for p in planes[0, :, 0]] == [0b111100, 0b110000, 0]


class TestWordBoundaries:
    """Bit-plane kernel vs the cumsum kernel and the brute force at line
    counts around the 64-bit word, weight caps above the period, per-neuron
    thresholds and all-silent and all-live volleys."""

    @pytest.mark.parametrize("lines", [1, 63, 64, 65, 127, 1568])
    def test_matches_references(self, lines):
        rng = np.random.default_rng(1000 + lines)
        fired = silent = 0
        for w_max in (1, 7, 10, 20):
            for period in (2, 16, 17, 33):
                neurons = 5
                weights = rng.integers(0, 2 * w_max + 1, size=(neurons, lines))
                random = np.where(
                    rng.random(lines) < 0.3, INF, rng.integers(0, period, size=lines)
                ).astype(float)
                volleys = (random, np.full(lines, INF), rng.integers(0, period, size=lines))
                for times in volleys:
                    reach = lines * min(w_max, period)
                    thresholds = rng.integers(1, reach + 2, size=neurons)
                    got = bank_spike_times(weights, times, period, thresholds, w_max)
                    want = stepwise_spike_times(weights, times, period, thresholds)
                    assert np.array_equal(got, want), (w_max, period)
                    assert np.array_equal(
                        got, cumsum_spike_times(weights, times, period, thresholds)
                    )
                    fired += int(np.isfinite(got).sum())
                    silent += int(np.isinf(got).sum())
        # Every shape sees both outcomes, so neither check is vacuous.
        assert fired > 40 and silent > 40


class TestColumnWta:
    def test_earliest_neuron_wins(self):
        # Rig spike times via thresholds over a shared time-0 volley:
        # potential is min(t+1, 7) * lines, so threshold picks the time.
        n_fast = RnlNeuron(weights=[14] * 4, threshold=4 * 4)  # fires t=3
        n_slow = RnlNeuron(weights=[14] * 4, threshold=6 * 4)  # fires t=5
        n_dead = RnlNeuron(weights=[14] * 4, threshold=1000)
        col = Column(neurons=[n_slow, n_fast, n_dead])
        idx, t = column_wta(col, [0] * 4, 16)
        assert (idx, t) == (1, 3)
        assert col.inhibited
        assert col.last_winner == 1

    def test_tie_breaks_to_lowest_index(self):
        n_a = RnlNeuron(weights=[14] * 4, threshold=4 * 4)
        n_b = RnlNeuron(weights=[14] * 4, threshold=4 * 4)
        col = Column(neurons=[n_a, n_b])
        idx, t = column_wta(col, [0] * 4, 16)
        assert (idx, t) == (0, 3)

    def test_silent_column_returns_none(self):
        col = Column(neurons=[RnlNeuron(weights=[0] * 4, threshold=5)])
        idx, t = column_wta(col, [0] * 4, 16)
        assert idx is None
        assert t == INF
        assert not col.inhibited

    def test_inhibited_column_rejects_second_call(self):
        col = Column(neurons=[RnlNeuron(weights=[14] * 4, threshold=1)])
        column_wta(col, [0] * 4, 16)
        with pytest.raises(ColumnStateError):
            column_wta(col, [0] * 4, 16)

    def test_reset_rearms_column(self):
        col = Column(neurons=[RnlNeuron(weights=[14] * 4, threshold=1)])
        column_wta(col, [0] * 4, 16)
        column_reset(col)
        assert not col.inhibited
        assert col.last_winner is None
        idx, _ = column_wta(col, [0] * 4, 16)
        assert idx == 0

    def test_mismatched_neuron_lines_rejected(self):
        with pytest.raises(ValueError):
            Column(
                neurons=[
                    RnlNeuron(weights=[2] * 4, threshold=1),
                    RnlNeuron(weights=[2] * 5, threshold=1),
                ]
            )


class TestEarliestWinner:
    def test_picks_minimum(self):
        idx, t = earliest_winner(np.array([7.0, 3.0, np.inf]))
        assert (idx, t) == (1, 3)

    def test_tie_lowest_index(self):
        idx, t = earliest_winner(np.array([4.0, 4.0]))
        assert (idx, t) == (0, 4)

    def test_all_silent(self):
        idx, t = earliest_winner(np.array([np.inf, np.inf]))
        assert idx is None
        assert t == INF
