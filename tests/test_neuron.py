"""Neuron and column behavior, checked against brute-force simulators.

The production layer kernel returns each column's winner. It is checked
against the two spike-time references in ``oracle.py``, both read from the
raw weights: the scalar ``brute_force_spike_time``, neuron by neuron, and
the bank-wide ``stepwise_spike_times``, reduced to column winners by
``column_argmin``. A bank of one-neuron columns gives per-neuron times.
The batched posneg kernel is checked against the same references, image
by image.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import brute_force_spike_time, column_argmin, readme_encode, stepwise_spike_times

from tnnsim import neuron
from tnnsim.encode import INF, PosNeg, pack_lines
from tnnsim.neuron import (
    KernelWorkspace,
    kernel_bytes,
    layer_spike_times,
    posneg_spike_times,
    unpack_weights,
    weight_planes,
)


def column_winners(weights_hu, times, period, threshold, cols, w_max=7):
    """Each column's (winner neuron, winner time) of a ``(neurons, lines)``
    bank split into ``cols`` columns, through one call of the production
    kernel on a workspace built for it alone, its planes ``w_max`` deep as
    a run packs them."""
    weights_hu = np.asarray(weights_hu)
    bank = weights_hu.reshape(cols, -1, weights_hu.shape[1])
    idx, out = layer_spike_times(KernelWorkspace(bank, period, threshold, w_max), times)
    return idx, out.times


def bank_spike_times(weights_hu, times, period, threshold, w_max=7):
    """Per-neuron spike times: every neuron its own column, so each
    column's winner time is that neuron's spike time."""
    cols = np.shape(weights_hu)[0]
    return column_winners(weights_hu, times, period, threshold, cols, w_max)[1]


def library_spike_time(weights, times, period, threshold):
    """Evaluate one neuron through the library's layer kernel."""
    t = bank_spike_times([weights], times, period, threshold)[0]
    return INF if np.isinf(t) else int(t)


def assert_winners(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (got, want)


class TestNeuronSpikeTime:
    """Single neurons through the layer kernel, each as a one-neuron column."""

    def test_time_zero_spike_with_low_threshold(self):
        args = ([2] * 700, [0] * 700, 16, 400)
        assert library_spike_time(*args) == 0

    def test_saturated_inputs_cross_high_threshold_at_five(self):
        # 700 saturated lines at time 0: potential 700 * min(t+1, 7)
        # first reaches 4000 at t = 5.
        args = ([14] * 700, [0] * 700, 16, 4000)
        assert library_spike_time(*args) == 5

    def test_unreachable_threshold_never_spikes(self):
        args = ([2] * 4, [0] * 4, 16, 1000)
        assert library_spike_time(*args) == INF

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
        t1 = library_spike_time(weights, times, 16, threshold)
        t2 = library_spike_time(bumped, times, 16, threshold)
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
            want = brute_force_spike_time(weights[i].tolist(), times, 16, 25)
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

    def test_silent_past_a_uint16_count(self):
        # A silent neuron's count of steps below threshold is the period,
        # here past what a uint16 holds: it must not wrap into a spike time.
        period = 2**16 + 2
        idx, win = column_winners(np.array([[2], [2]]), [period - 1], period, [1, 2], 2)
        assert idx.tolist() == [0, -1] and win.tolist() == [period - 1, INF]

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
    threshold before the next one. Each case is also checked against
    ``stepwise_spike_times`` reduced by ``column_argmin``."""

    @staticmethod
    def check(weights, times, threshold, cols, period=16):
        got = column_winners(weights, times, period, threshold, cols)
        want = stepwise_spike_times(weights, times, period, threshold)
        assert_winners(got, column_argmin(want, cols))
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
    """The column kernel vs ``stepwise_spike_times`` reduced to column
    winners, at line counts around the 64-bit word, weight caps above the
    period, per-neuron thresholds and all-silent and all-live volleys.
    Banks are packed at depth ``w_max``, as a run packs them, and where
    that is deeper than the period also at the period's depth."""

    @pytest.mark.parametrize("lines", [1, 63, 64, 65, 127, 1568])
    def test_matches_references(self, lines):
        rng = np.random.default_rng(1000 + lines)
        fired = silent = 0
        for w_max in (1, 7, 10, 20):
            for period, cols in zip((2, 16, 17, 33), (1, 2, 3, 6)):
                neurons = 6
                weights = rng.integers(0, 2 * w_max + 1, size=(neurons, lines))
                depths = sorted({min(w_max, period), w_max})
                random = np.where(
                    rng.random(lines) < 0.3, INF, rng.integers(0, period, size=lines)
                ).astype(float)
                volleys = (random, np.full(lines, INF), rng.integers(0, period, size=lines))
                for times in volleys:
                    reach = lines * min(w_max, period)
                    thresholds = rng.integers(1, reach + 2, size=neurons)
                    want = stepwise_spike_times(weights, times, period, thresholds)
                    for depth in depths:
                        got = column_winners(weights, times, period, thresholds, cols, depth)
                        assert_winners(got, column_argmin(want, cols))
                    fired += int((got[0] >= 0).sum())
                    silent += int((got[0] < 0).sum())
        # Every shape sees both outcomes in over 20 of its 144 columns, so
        # neither check is vacuous.
        assert fired > 20 and silent > 20, (fired, silent)

    @pytest.mark.parametrize("lines", [65, 130, 1568])
    def test_clustered_volleys_match_references(self, monkeypatch, lines):
        # Steps that light a few words, so the kernel ANDs only those, in
        # one call sequence with an all-live posneg volley.
        rng = np.random.default_rng(2000 + lines)
        words = -(-lines // 64)
        word = np.arange(lines) // 64
        posneg = np.where(rng.random(lines) < 0.5, 0.0, INF)
        posneg[::64] = 0.0  # a line in every word
        edges = np.full(lines, INF)
        edges[word == 0] = 1  # a step that lights only word 0
        edges[word == words - 1] = 3  # and one that lights only the padded last word
        sprinkled = rng.random(lines) < 0.3
        sprinkled[::64] = True
        anded = []  # per call, the store rows ANDed at each evaluated step
        popcount = np.bitwise_count

        def counting(a, *args, **kwargs):
            anded[-1].append(a.shape[0])
            return popcount(a, *args, **kwargs)

        fired = silent = 0
        for w_max, period in ((7, 16), (20, 5)):
            neurons, cols = 8, 4
            weights = rng.integers(0, 2 * w_max + 1, size=(neurons, lines))
            thresholds = rng.integers(1, lines * min(w_max, period) + 2, size=neurons)
            work = KernelWorkspace(weights.reshape(cols, -1, lines), period, thresholds, w_max)
            clustered = (word % period).astype(float)
            # Gathered steps around one that lights every word.
            mixed = np.where(sprinkled, 2.0, clustered)
            for times in (clustered, posneg, edges, mixed):
                anded.append([])
                monkeypatch.setattr(np, "bitwise_count", counting)
                got = layer_spike_times(work, times)
                monkeypatch.setattr(np, "bitwise_count", popcount)
                want = stepwise_spike_times(weights, times, period, thresholds)
                assert_winners(got, column_argmin(want, cols))
                fired += int((got[0] >= 0).sum())
                silent += int((got[0] < 0).sum())
        # Posneg steps AND every word; a word-0 or last-word step ANDs one.
        assert all(rows == [words] for rows in anded[1::4]), anded
        assert all(rows[0] == 1 for rows in anded[2::4]), anded
        assert fired > 8 and silent > 8, (fired, silent)


class TestWorkspaceReuse:
    """One workspace carries nothing from one call to the next: over
    posneg, graded, all-silent, early-stopping and clustered volleys in
    turn, and across in-place rewrites of the planes as learning makes
    them, each call's winners equal those of a call that builds its own.
    A step that ANDs only its live words leaves the rows past them stale
    from earlier steps and calls."""

    @pytest.mark.parametrize("per_neuron", [False, True], ids=["one-threshold", "per-neuron"])
    def test_matches_fresh_calls(self, monkeypatch, per_neuron):
        rng = np.random.default_rng(31 + per_neuron)
        neurons, cols, lines, period = 24, 6, 130, 16
        weights = rng.integers(0, 15, size=(neurons, lines))
        threshold = rng.integers(1, 700, size=neurons) if per_neuron else 300
        work = KernelWorkspace(weights.reshape(cols, -1, lines), period, threshold, 7)
        anded = []  # store rows ANDed at each arrival step the kernel evaluates
        popcount = np.bitwise_count

        def counting(a, *args, **kwargs):
            anded.append(a.shape[0])
            return popcount(a, *args, **kwargs)

        monkeypatch.setattr(np, "bitwise_count", counting)
        outcomes = Counter()
        for i in range(275):
            kind = ("posneg", "linear", "silent", "early", "clustered")[i % 5]
            if kind == "posneg":
                times = np.where(rng.random(lines) < 0.5, 0.0, INF)
            elif kind == "linear":
                times = np.where(rng.random(lines) < 0.2, INF, rng.integers(0, period, lines))
            elif kind == "silent":
                times = np.full(lines, INF)
            elif kind == "early":
                # Most lines at step 0, the rest at 12 or later: columns
                # often answer before those arrive.
                times = np.where(rng.random(lines) < 0.9, 0.0, rng.integers(12, period, lines))
            else:
                # Each word's lines at a step of its own, which ANDs that
                # word alone, and a fifth of them at one step that lights
                # every word: gathered and full steps alternate.
                times = np.where(
                    rng.random(lines) < 0.2, rng.integers(period), np.arange(lines) // 64 * 5
                ).astype(float)
            if i % 7 == 6:
                # A row rewritten in place, as learning moves it, in the
                # planes the kernel reads and in the bank they came from.
                row = rng.integers(neurons)
                weights[row] = rng.integers(0, 15, size=(1, lines))
                work.planes[row] = weight_planes(weights[row : row + 1], 7)[0]
            want = column_winners(weights, times, period, threshold, cols)
            anded.clear()
            got = layer_spike_times(work, times)
            assert_winners(got, want)
            outcomes["fired"] += int((got[0] >= 0).sum())
            outcomes["silent"] += int((got[0] < 0).sum())
            outcomes["stopped early"] += len(anded) < np.unique(times[times < period]).size
            # 130 lines pack into 3 words.
            outcomes["full and gathered"] += 3 in anded and min(anded) < 3
        # Columns fire and stay silent on live volleys too (all-silent ones
        # give 55 * 6), and of the 165 graded, early and clustered volleys
        # some stop before their last arrival step and some do not. Some
        # calls AND every word at one step and fewer at another.
        assert outcomes["fired"] > 300 and outcomes["silent"] > 400, outcomes
        assert 30 < outcomes["stopped early"] < 165, outcomes
        assert outcomes["full and gathered"] > 20, outcomes


    def test_holds_the_bank_it_was_given(self):
        # The workspace keeps the bank itself, reads its line and column
        # counts from the bank's shape, and packs the bank's planes, in the
        # word-major storage the kernel reads, ``depth`` deep.
        rng = np.random.default_rng(41)
        weights = rng.integers(0, 15, size=(4, 3, 130), dtype=np.int16)
        work = KernelWorkspace(weights, 16, 280, 7)
        assert work.weights is weights
        assert (work.cols, work.lines, work.shape) == (4, 130, (12, 7, 3))
        assert np.array_equal(work.planes, weight_planes(weights.reshape(12, 130), 7))
        assert np.shares_memory(work.store, work.planes)
        assert work.planes.transpose(2, 0, 1).flags.c_contiguous


class TestExactPotential:
    """The potential is held in floating point, exactly: a float32 while
    the reach, ``lines * min(depth, period)``, is below 2**24, else a
    float64."""

    @staticmethod
    def saturated(w_max, threshold, lines=1 << 20):
        # ``lines`` lines at step 0, each at the cap: the potential is
        # (t + 1) * lines until it saturates at w_max * lines.
        weights = np.full((len(threshold), 1, lines), 2 * w_max, dtype=np.int16)
        work = KernelWorkspace(weights, 16, threshold, w_max)
        idx, out = layer_spike_times(work, np.zeros(lines))
        return work.potential.dtype, idx.tolist(), out.times.tolist()

    def test_potential_past_float32(self):
        # The potential reaches 2**24 at t = 15, past what a float32 holds
        # exactly, so 2**24 + 1 stays out of reach.
        top = 1 << 24
        assert self.saturated(16, [top - (1 << 20), top - (1 << 20) + 1, top, top + 1]) == (
            np.float64, [0, 0, 0, -1], [14, 15, 15, INF]
        )

    def test_planes_past_the_period_keep_float32(self):
        # 40 planes over a 16-step cycle: the potential tops out at
        # 16 * 2**19 = 2**23, so a float32 holds it, and 2**23 + 1 stays
        # out of reach.
        top = 1 << 23
        assert self.saturated(40, [top, top + 1], lines=1 << 19) == (
            np.float32, [0, -1], [15, INF]
        )

    def test_fractional_threshold_is_its_ceiling(self):
        # The potential tops out at 2**23, where a float32 steps by whole
        # units: 2**23 + 0.25 must not round down to a threshold it meets.
        top = 1 << 23
        assert self.saturated(8, [top - 0.5, top + 0.25]) == (np.float32, [0, -1], [7, INF])


def posneg_reference(weights_hu, pixels, encoder, period, threshold, cols):
    """Each image's column winners and step codes, ``(images, cols)``, from
    its README posneg times through ``stepwise_spike_times`` and
    ``column_argmin``."""
    idx, codes = [], []
    for row in pixels:
        times = stepwise_spike_times(weights_hu, readme_encode(row.tolist(), encoder), period, threshold)
        winner, time = column_argmin(times, cols)
        idx.append(winner)
        codes.append(np.where(np.isinf(time), period, time))
    return np.array(idx, dtype=np.int64), np.array(codes, dtype=np.int64)


class TestPosnegBatch:
    """``posneg_spike_times`` gives every image the column winners and step
    codes of the stepwise reference, whatever blocks it takes neurons and
    images in: whole columns, several columns, or a few neurons of one
    column at a time, and image blocks the image count does not fill."""

    COLS, PER, PIXELS, IMAGES = 3, 5, 40, 11

    def bank(self, rng, w_max):
        """Column 0's neurons share one row, so they tie, across blocks
        too; column 1 is random; column 2 has no weight and stays silent."""
        weights = rng.integers(0, 2 * w_max + 1, size=(self.COLS, self.PER, 2 * self.PIXELS))
        weights[0] = weights[0, 0]
        weights[2] = 0
        return weights.reshape(self.COLS * self.PER, -1).astype(np.int16)

    def thresholds(self, kind, weights, pixels, encoder, period, rng):
        # A neuron's reach on image 0: each spiking line's unit ramp tops
        # out at its whole-unit weight, or at the period.
        spikes = np.isfinite(np.asarray(readme_encode(pixels[0].tolist(), encoder)))
        reach = (np.minimum(weights // 2, period) * spikes).sum(axis=1)
        return {
            "one": 1,
            "reach": np.maximum(reach, 1),
            "reach+1": reach + 1,
            "per-neuron": rng.integers(1, int(reach.max()) + 2, size=len(weights)),
        }[kind]

    @pytest.mark.parametrize("chunk", [600, 2000, 6000, 1 << 20])
    @pytest.mark.parametrize("threshold", ["one", "reach", "reach+1", "per-neuron"])
    @pytest.mark.parametrize("w_max, period", [(3, 16), (20, 8)], ids=["w_max-lt-period", "w_max-gt-period"])
    def test_matches_reference(self, monkeypatch, chunk, threshold, w_max, period):
        # Four images to a block over 11 images: the last block holds 3. A
        # chunk of 600 bytes takes one neuron at a time, 2000 four of a
        # column's five, 6000 two whole columns, 1 MiB the whole layer.
        monkeypatch.setattr(neuron, "_PACK_CHUNK", chunk)
        monkeypatch.setattr(neuron, "_BATCH_IMAGES", 4)
        rng = np.random.default_rng(chunk + w_max)
        encoder = PosNeg(int(rng.integers(60, 200)))
        pixels = rng.integers(0, 256, size=(self.IMAGES, self.PIXELS), dtype=np.uint8)
        weights = self.bank(rng, w_max)
        th = self.thresholds(threshold, weights, pixels, encoder, period, rng)
        work = KernelWorkspace(weights.reshape(self.COLS, self.PER, -1), period, th, w_max)
        idx, codes = posneg_spike_times(work, pixels, encoder)
        want = posneg_reference(weights, pixels, encoder, period, th, self.COLS)
        assert np.array_equal(idx, want[0]) and np.array_equal(codes, want[1]), (idx, want)
        assert (idx[:, 2] == -1).all() and (codes[:, 2] == period).all()
        if threshold != "per-neuron":
            # Column 0's neurons tie, so its winner is neuron 0.
            assert (idx[:, 0] <= 0).all()
        if threshold == "reach":
            # Image 0 brings every neuron of columns 0 and 1 to threshold
            # on the last step its potential rises, and no further.
            assert (codes[0, :2] < period).all()
        if threshold == "reach+1":
            assert (idx[0] == -1).all()

    def test_every_neuron_and_image_block(self, monkeypatch):
        # One neuron and one image at a time, and 130 images in blocks of
        # 128, against the same call in one block each.
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 15, size=(12, 64), dtype=np.int16)
        pixels = rng.integers(0, 256, size=(130, 32), dtype=np.uint8)
        bank = weights.reshape(4, 3, 64)
        whole = posneg_spike_times(KernelWorkspace(bank, 16, 110, 7), pixels, PosNeg())
        monkeypatch.setattr(neuron, "_PACK_CHUNK", 1)
        monkeypatch.setattr(neuron, "_BATCH_IMAGES", 1)
        single = posneg_spike_times(KernelWorkspace(bank, 16, 110, 7), pixels, PosNeg())
        want = posneg_reference(weights, pixels, PosNeg(), 16, 110, 4)
        for got in (whole, single):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert 0 < (want[0] >= 0).mean() < 1

    def test_matches_layer_kernel(self):
        # Each row is what ``layer_spike_times`` gives that image's volley.
        rng = np.random.default_rng(9)
        weights = rng.integers(0, 15, size=(80, 1568), dtype=np.int16)
        pixels = rng.integers(0, 256, size=(20, 784), dtype=np.uint8)
        work = KernelWorkspace(weights.reshape(8, 10, 1568), 16, 2650, 7)
        idx, codes = posneg_spike_times(work, pixels, PosNeg())
        for row, want_idx, want_codes in zip(pixels, idx, codes):
            got, out = layer_spike_times(work, readme_encode(row.tolist(), PosNeg()))
            assert np.array_equal(got, want_idx) and np.array_equal(out.codes, want_codes)
        assert 0 < (idx >= 0).mean() < 1

    def test_pixel_count_must_fit_the_lines(self):
        work = KernelWorkspace(np.zeros((1, 2, 10), dtype=np.int16), 16, 5, 7)
        with pytest.raises(ValueError, match="images have 4 pixels, the layer has 10 lines"):
            posneg_spike_times(work, np.zeros((3, 4), dtype=np.uint8), PosNeg())


# Bank shapes, volleys and thresholds whose kernel memory is measured.
KERNEL_CASES = [
    (640, 64, 1568, 7, 16, 3000, "graded"),  # deep-linear's first layer
    (640, 64, 1568, 7, 16, 1, "graded"),  # early stop after one step
    (640, 64, 1568, 7, 16, 3000, "clustered"),  # steps that AND one or two words
    (80, 8, 1568, 7, 16, 3000, "time0"),  # a posneg volley
    (20000, 2000, 8, 2, 256, 10**9, "graded"),  # long period, all silent
    (20000, 2000, 8, 2, 256, 3, "spread"),
    (3, 1, 64, 7, 4096, 10**9, "graded"),  # period far over the lines
    (4, 2, 3, 7, 16, 10**9, "graded"),
    (30, 3, 70000, 7, 1024, "per-neuron", "graded"),
    (640, 64, 1568, 40, 16, 3000, "graded"),  # planes deeper than the period
    (4, 2, 3, 2000, 16, 10**9, "graded"),  # far deeper: the ramp keeps 16 rows
]


def kernel_case(neurons, lines, w_max, period, threshold, volley):
    """Weights, volley, threshold and depth of one ``KERNEL_CASES`` row,
    whose planes are packed at depth ``w_max`` as a run packs them."""
    rng = np.random.default_rng(neurons + lines + period)
    weights = rng.integers(0, 2 * w_max + 1, size=(neurons, lines), dtype=np.int16)
    depth = w_max
    times = {
        "graded": rng.integers(0, period, size=lines),
        "time0": np.where(rng.random(lines) < 0.5, 0.0, INF),
        "spread": np.arange(lines) * (period // lines),
        "clustered": np.arange(lines) // 64 % period,
    }[volley].astype(float)
    if threshold == "per-neuron":
        threshold = list(rng.integers(1, 10**6, size=neurons))
    return weights, times, threshold, depth


class TestKernelBytes:
    """``kernel_bytes`` bounds what a layer's kernel holds at once: the
    workspace, with the planes it packs from the weights, and the peak a
    call allocates, as ``tracemalloc`` sees it."""

    @pytest.mark.parametrize("neurons, cols, lines, w_max, period, threshold, volley", KERNEL_CASES)
    def test_bounds_measured_peak(self, neurons, cols, lines, w_max, period, threshold, volley):
        weights, times, threshold, depth = kernel_case(neurons, lines, w_max, period, threshold, volley)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            idx, _ = column_winners(weights, times, period, threshold, cols, depth)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # The peak holds the planes, which the workspace packs.
        assert peak <= kernel_bytes(neurons, lines, depth, period)
        assert idx.shape == (cols,)

    @pytest.mark.parametrize("neurons, cols, lines, w_max, period, threshold, volley", KERNEL_CASES)
    def test_bounds_workspace_and_call(self, neurons, cols, lines, w_max, period, threshold, volley):
        # As a run holds it: the workspace built first, then one call on it.
        weights, times, threshold, depth = kernel_case(neurons, lines, w_max, period, threshold, volley)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            work = KernelWorkspace(weights.reshape(cols, -1, lines), period, threshold, depth)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            idx, _ = layer_spike_times(work, times)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # What the workspace holds includes its planes.
        assert held + peak <= kernel_bytes(neurons, lines, depth, period)
        assert idx.shape == (cols,)

    @pytest.mark.parametrize(
        "neurons, cols, lines, w_max, period, images",
        [
            (640, 64, 1568, 7, 16, 150),  # desk-posneg
            (80, 8, 1568, 7, 16, 300),  # cli-pipeline, three image blocks
            (640, 64, 1568, 40, 16, 100),  # planes deeper than the period
            (2000, 1, 2, 2, 256, 300),  # one pixel, one column of 2000
            (20000, 20000, 2, 7, 16, 1),  # one pixel, one image
            (30, 3, 70000, 7, 1024, 5),  # a neuron's rows fill the block
            (3, 1, 200000, 7, 64, 3),
        ],
    )
    def test_bounds_workspace_and_batched_posneg_call(self, neurons, cols, lines, w_max, period, images):
        # As an inference holds it: the workspace, then one batched call.
        # The call's answers, two ``(images, cols)`` arrays, grow with the
        # image count, as the run's record does, and are not counted.
        rng = np.random.default_rng(neurons + lines)
        weights = rng.integers(0, 2 * w_max + 1, size=(neurons, lines), dtype=np.int16)
        pixels = rng.integers(0, 256, size=(images, lines // 2), dtype=np.uint8)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            work = KernelWorkspace(weights.reshape(cols, -1, lines), period, 3000, w_max)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            idx, codes = posneg_spike_times(work, pixels, PosNeg())
            peak = tracemalloc.get_traced_memory()[1] - before - idx.nbytes - codes.nbytes
        finally:
            tracemalloc.stop()
        assert held + peak <= kernel_bytes(neurons, lines, w_max, period)
        assert idx.shape == codes.shape == (images, cols)
