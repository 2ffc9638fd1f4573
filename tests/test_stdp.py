"""Weight-update rule: case classification, saturation, the layer update.

The layer update (``update_layer`` on a ``LearningState``: bit-planes and
parity) is checked against the scalar rule through a pack -> update ->
unpack round trip, on planes of depth ``w_max`` up to 16383 over a 16-step
layer, and for every weight and step on the packed planes and parity
themselves.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracle import RuleCase, apply_update, classify_case

from tnnsim.encode import INF, Volley, pack_lines
from tnnsim.neuron import KernelWorkspace, layer_spike_times, weight_planes
from tnnsim.stdp import LearningState, StdpParams, update_layer

spike_times = st.one_of(st.integers(0, 15), st.just(INF))


def learning_state(weights, p, period=16, threshold=1):
    """The ``LearningState`` of a ``(cols, neurons, lines)`` half-unit bank,
    on the kernel workspace built from it with planes of depth ``p.w_max``,
    as a run builds them."""
    return LearningState(KernelWorkspace(weights, period, threshold, p.w_max), p)


def packed(weights, w_max):
    """The planes and parity a ``(cols, neurons, lines)`` bank packs to, as
    a ``LearningState`` holds them: one row per neuron."""
    lines = weights.shape[2]
    parity = pack_lines((weights & 1) == 1)
    return weight_planes(weights.reshape(-1, lines), w_max), parity.reshape(-1, parity.shape[2])


def scalar_update(weights, x, winner_idx, z, p):
    """The scalar rule's step on every synapse of each winner's row and
    every row of a silent column, in place."""
    cols, neurons, lines = weights.shape
    for c in range(cols):
        zt = INF if winner_idx[c] < 0 else int(z[c])
        rows = range(neurons) if winner_idx[c] < 0 else [int(winner_idx[c])]
        for n in rows:
            for l in range(lines):
                xt = INF if np.isinf(x[l]) else int(x[l])
                weights[c, n, l] = apply_update(int(weights[c, n, l]), classify_case(xt, zt), p)


def update_on_planes(weights, x, winner_idx, z, p):
    """One cycle's ``update_layer`` by way of the learning state of a
    period-16 layer: build it from the weights, update it, and unpack it
    into ``weights``. Returns the state."""
    state = learning_state(weights, p)
    try:
        update_layer(state, x, winner_idx, z)
    finally:
        # As a run does, even when the update raises.
        state.unpack()
    return state


def update_packed_whole(weights, x, winner_idx, z, p):
    """``update_on_planes``, with the updated planes and parity held whole
    to the packing of the weights they unpack to: the planes stay a
    thermometer code and padding bits stay 0, which the unpacked weights
    cannot show."""
    state = update_on_planes(weights, x, winner_idx, z, p)
    planes, parity = packed(weights, p.w_max)
    assert np.array_equal(state.work.planes, planes)
    assert np.array_equal(state.parity, parity)


class TestClassifyCase:
    def test_all_five_cases(self):
        assert classify_case(3, 5) is RuleCase.CAPTURE
        assert classify_case(5, 5) is RuleCase.CAPTURE
        assert classify_case(6, 5) is RuleCase.BACKOFF_LATE
        assert classify_case(4, INF) is RuleCase.SEARCH
        assert classify_case(INF, 4) is RuleCase.BACKOFF_NOIN
        assert classify_case(INF, INF) is RuleCase.QUIET

    @given(spike_times, spike_times)
    def test_total_over_the_domain(self, x, z):
        # every pair lands in exactly one case, and the case agrees with
        # a from-scratch restatement of the boundaries
        case = classify_case(x, z)
        if x == INF and z == INF:
            assert case is RuleCase.QUIET
        elif x == INF:
            assert case is RuleCase.BACKOFF_NOIN
        elif z == INF:
            assert case is RuleCase.SEARCH
        elif x <= z:
            assert case is RuleCase.CAPTURE
        else:
            assert case is RuleCase.BACKOFF_LATE


class TestApplyUpdate:
    def test_signed_magnitudes(self):
        p = StdpParams()
        assert apply_update(6, RuleCase.CAPTURE, p) == 8
        assert apply_update(6, RuleCase.BACKOFF_LATE, p) == 4
        assert apply_update(6, RuleCase.SEARCH, p) == 8
        assert apply_update(6, RuleCase.BACKOFF_NOIN, p) == 4
        assert apply_update(6, RuleCase.QUIET, p) == 7

    def test_quiet_is_half_a_step(self):
        p = StdpParams()
        assert p.u_quiet * 2 == p.u_capture

    def test_saturates_at_floor_and_cap(self):
        p = StdpParams()
        assert apply_update(1, RuleCase.BACKOFF_LATE, p) == 0
        assert apply_update(0, RuleCase.BACKOFF_LATE, p) == 0
        assert apply_update(13, RuleCase.CAPTURE, p) == 14
        assert apply_update(14, RuleCase.CAPTURE, p) == 14

    @given(st.integers(0, 14), st.sampled_from(list(RuleCase)))
    def test_stays_in_range(self, w, case):
        p = StdpParams()
        assert 0 <= apply_update(w, case, p) <= p.half_unit_cap

    def test_params_validated(self):
        with pytest.raises(ValueError):
            StdpParams(u_capture=-1)
        with pytest.raises(ValueError):
            StdpParams(w_max=0)
        # A NaN step once trained a net and was written as a config no
        # reader takes; a fraction failed inside the update.
        for name, bad in (("u_quiet", float("nan")), ("u_capture", 2.5), ("u_search", True),
                          ("w_max", 7.5)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer .*, got {bad!r}"):
                StdpParams(**{name: bad})
        assert StdpParams(u_quiet=np.int64(3)).u_quiet == 3

    def test_cap_must_fit_int16(self):
        assert StdpParams(w_max=16383).half_unit_cap == np.iinfo(np.int16).max - 1
        with pytest.raises(ValueError, match="w_max"):
            StdpParams(w_max=16384)


class TestUpdateLayer:
    """The layer update read back through the weights it unpacks to;
    ``TestUpdateLayerOnPlanes`` runs the same cases and also holds the
    packed planes and parity to the packing of those weights."""

    update = staticmethod(update_on_planes)

    def rand_inputs(self, rng, cols, neurons, lines):
        weights = rng.integers(0, 15, size=(cols, neurons, lines)).astype(np.int16)
        x = np.where(
            rng.random(lines) < 0.3, np.inf, rng.integers(0, 16, size=lines)
        ).astype(float)
        winner_idx = rng.integers(-1, neurons, size=cols)
        z = np.where(
            winner_idx < 0, np.inf, rng.integers(0, 16, size=cols)
        ).astype(float)
        return weights, x, winner_idx, z

    def test_matches_scalar_column_updates(self):
        rng = np.random.default_rng(5)
        p = StdpParams()
        for _ in range(50):
            cols, neurons, lines = 3, 4, 6
            weights, x, winner_idx, z = self.rand_inputs(rng, cols, neurons, lines)
            expect = weights.copy()
            scalar_update(expect, x, winner_idx, z, p)
            got = weights.copy()
            self.update(got, x, winner_idx, z, p)
            assert np.array_equal(got, expect)

    def test_updates_in_place_and_saturates(self):
        p = StdpParams()
        weights = np.array([[[14, 0]]], dtype=np.int16)
        self.update(weights, np.array([0.0, 5.0]), np.array([0]), np.array([0.0]), p)
        assert weights.tolist() == [[[14, 0]]]

    def test_silent_layer_explores(self):
        p = StdpParams()
        weights = np.zeros((2, 2, 2), dtype=np.int16)
        self.update(
            weights,
            np.array([3.0, np.inf]),
            np.array([-1, -1]),
            np.array([np.inf, np.inf]),
            p,
        )
        assert weights.tolist() == [[[2, 1], [2, 1]], [[2, 1], [2, 1]]]

    def test_custom_magnitudes_respected(self):
        p = StdpParams(u_capture=4, u_backoff=6, u_search=3, u_quiet=2, w_max=10)
        weights = np.full((1, 1, 3), 10, dtype=np.int16)
        self.update(
            weights,
            np.array([1.0, 9.0, np.inf]),
            np.array([0]),
            np.array([4.0]),
            p,
        )
        # capture +4, late backoff -6, no-input backoff -6
        assert weights.tolist() == [[[14, 4, 4]]]

    @pytest.mark.parametrize("bad", [5, 2, -2])
    def test_winner_index_must_name_a_neuron(self, bad):
        # 3 columns of 2 neurons: index 5 once rewrote row 5, column 2's
        # neuron 1, in place of column 0's winner, and -2 passed as silent.
        weights = np.full((3, 2, 4), 5, dtype=np.int16)
        with pytest.raises(ValueError, match=f"winner index {bad} outside -1..1"):
            self.update(weights, np.zeros(4), np.array([bad, 0, 0]), np.zeros(3), StdpParams())
        assert (weights == 5).all()

    def test_volley_must_have_the_bank_lines(self):
        # A 60-line volley once left lines 60-63 of the planes at 6 where a
        # silent column's QUIET step takes them to 7.
        p, silent = StdpParams(), (np.array([-1]), np.array([INF]))
        weights = np.full((1, 2, 64), 6, dtype=np.int16)
        with pytest.raises(ValueError, match="volley has 60 lines, expected 64"):
            self.update(weights, np.full(60, INF), *silent, p)
        assert (weights == 6).all()
        self.update(weights, np.full(64, INF), *silent, p)
        assert (weights == 7).all()

    def test_silent_column_time_is_read_nowhere(self):
        # Column 0 is silent, so its raw time, not a step, is never checked.
        x, winners, p = np.array([0.0, 5.0, INF, 2.0]), np.array([-1, 1]), StdpParams()
        want = np.full((2, 2, 4), 5, dtype=np.int16)
        self.update(want, x, winners, np.array([INF, 2.0]), p)
        for t in (np.nan, 2.5, 99.0):
            weights = np.full((2, 2, 4), 5, dtype=np.int16)
            self.update(weights, x, winners, np.array([t, 2.0]), p)
            assert np.array_equal(weights, want)

    def test_one_winner_and_time_per_column(self):
        weights = np.full((3, 2, 4), 5, dtype=np.int16)
        # One time is not a time for each column either.
        for idx, z in (
            ([0, 0], [0.0, 0.0]), ([0, 0, 0], [0.0, 0.0]), ([-1] * 4, [INF] * 4),
            ([0, 0, 0], [0.0]),
        ):
            with pytest.raises(ValueError, match="for 3 columns"):
                self.update(weights, np.zeros(4), np.array(idx), np.array(z), StdpParams())
        assert (weights == 5).all()


class TestUpdateLayerOnPlanes(TestUpdateLayer):
    update = staticmethod(update_packed_whole)


class TestUpdateLayerInBlocks(TestUpdateLayer):
    """The same cases with the row stack cut to a few hundred bytes, so
    each group's rows step two or three at a time: the blocks must cover
    every row once."""

    update = staticmethod(update_packed_whole)

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr("tnnsim.stdp._PACK_CHUNK", 200)


class TestNoWrap:
    """Steps at or above the int16 range saturate like any other step, on
    planes up to 16383 deep over a 16-step layer."""

    update = staticmethod(update_on_planes)

    @pytest.mark.parametrize("u", [32767, 40000, 10**12])
    def test_huge_capture_saturates(self, u):
        weights = np.array([[[14, 10]]], dtype=np.int16)
        self.update(
            weights, np.array([0.0, 0.0]), np.array([0]), np.array([0.0]), StdpParams(u_capture=u)
        )
        assert weights.tolist() == [[[14, 14]]]

    @pytest.mark.parametrize("w_max", [7, 16383])
    @pytest.mark.parametrize("u", [1, 32767, 40000])
    def test_every_case_matches_scalar_rule(self, w_max, u):
        p = StdpParams(u_capture=u, u_backoff=u, u_search=u, u_quiet=u, w_max=w_max)
        cap = p.half_unit_cap
        start = np.array([0, 1, cap // 2, cap - 1, cap], dtype=np.int16)
        x = np.array([0.0, 0.0, 9.0, np.inf, 0.0])
        # column 0 wins at step 3 on neuron 1; column 1 is silent
        weights = np.stack([np.stack([start, start])] * 2)
        self.update(weights, x, np.array([1, -1]), np.array([3.0, np.inf]), p)
        for c, n, z in ((0, 1, 3), (1, 0, INF), (1, 1, INF)):
            want = [
                apply_update(int(w), classify_case(INF if np.isinf(xt) else int(xt), z), p)
                for w, xt in zip(start, x)
            ]
            assert weights[c, n].tolist() == want
        assert weights[0, 0].tolist() == start.tolist()


class TestNoWrapOnPlanes(TestNoWrap):
    update = staticmethod(update_packed_whole)


class TestBitSlicedSteps:
    """Every step on every weight: the learning state moves exactly as the
    scalar rule moves the weights."""

    @pytest.mark.parametrize("w_max", range(1, 17))
    def test_every_step_on_every_weight(self, w_max):
        cap = 2 * w_max
        hu = np.arange(cap + 1, dtype=np.int16)
        # Column 0's winner captures the first half of the lines and backs
        # off the second; silent column 1 searches the first and is quiet
        # on the second. Each half holds every weight once.
        row = np.concatenate([hu, hu])
        x = np.repeat([0.0, np.inf], cap + 1)
        winner_idx, z = np.array([1, -1]), np.array([0.0, np.inf])
        for u in range(cap + 3):
            # Every step, odd and even, up to two past the cap, on each
            # case; the paired case walks the steps the other way.
            v = cap + 2 - u
            p = StdpParams(u_capture=u, u_backoff=v, u_search=v, u_quiet=u, w_max=w_max)
            want = np.stack([np.stack([row, row])] * 2)
            scalar_update(want, x, winner_idx, z, p)
            state = learning_state(np.stack([np.stack([row, row])] * 2), p)
            update_layer(state, x, winner_idx, z)
            # Packed words compared whole, so padding bits must stay 0.
            planes, parity = packed(want, w_max)
            assert np.array_equal(state.work.planes, planes), u
            assert np.array_equal(state.parity, parity), u

    def test_planes_must_hold_w_max(self):
        work = KernelWorkspace(np.zeros((1, 2, 3), dtype=np.int16), 16, 1, 6)
        with pytest.raises(ValueError, match="6 planes cannot hold weights up to w_max 7"):
            LearningState(work, StdpParams())

    def test_lines_must_fit_the_planes(self):
        state = learning_state(np.zeros((1, 2, 64), dtype=np.int16), StdpParams())
        # The workspace holds the line count the planes hold only to the word.
        with pytest.raises(ValueError, match="volley has 65 lines, expected 64"):
            update_layer(state, [0] * 65, [0], [0.0])

    @pytest.mark.parametrize("z", [2.5, -1.0, INF, np.nan])
    def test_winner_time_must_be_a_whole_step(self, z):
        # Distinct winner times are counted by step, so a time that is not
        # one would be truncated into the wrong line mask. Column 1 is
        # silent: no row changes before the error either.
        state = learning_state(np.full((2, 2, 3), 5, dtype=np.int16), StdpParams())
        held = state.work.planes.copy(), state.parity.copy()
        # A winner at inf is no step either: it names no line mask.
        message = "must be a step, not inf" if z == INF else "not inf or a whole step"
        with pytest.raises(ValueError, match=message):
            update_layer(state, np.array([0, 3, INF]), np.array([1, -1]), np.array([z, INF]))
        assert np.array_equal(state.work.planes, held[0]) and np.array_equal(state.parity, held[1])

    def test_winner_volley_is_held_to_the_layer_period(self):
        # Winner times given as a volley meet the same rule as raw ones: a
        # step of 20 made in a 32-step cycle is no step of a 16-step layer,
        # and no row changes before the error.
        state = learning_state(np.full((2, 2, 3), 5, dtype=np.int16), StdpParams())
        held = state.work.planes.copy(), state.parity.copy()
        z = Volley.from_times([20, INF], 32)
        message = "32-step cycle cannot arrive in a 16-step one"
        with pytest.raises(ValueError, match=message):
            update_layer(state, np.array([0, 3, INF]), np.array([1, -1]), z)
        assert np.array_equal(state.work.planes, held[0]) and np.array_equal(state.parity, held[1])


class TestLearningDynamics:
    def test_repeated_capture_specializes_a_neuron(self):
        """Drive one pattern through the layer kernel and update again and
        again: live lines rise to cap, dead ones fall."""
        p = StdpParams()
        weights = np.full((1, 1, 8), 7, dtype=np.int16)
        pattern = [0, 0, 0, 0, INF, INF, INF, INF]
        state = learning_state(weights, p, threshold=3)
        for _ in range(10):
            idx, win = layer_spike_times(state.work, pattern)
            update_layer(state, pattern, idx, win)
        state.unpack()
        assert weights.ravel().tolist() == [14] * 4 + [0] * 4


class TestLearningState:
    def test_kernel_reads_every_update(self):
        # STDP moves the planes of the layer's own workspace: each cycle's
        # kernel call on it answers as a workspace built afresh from the
        # scalar rule's weights does, with no padding bit set.
        rng = np.random.default_rng(23)
        p = StdpParams()
        cols, neurons, lines, period, threshold = 3, 4, 70, 16, 120
        weights = rng.integers(0, 15, size=(cols, neurons, lines)).astype(np.int16)
        want = weights.copy()
        state = learning_state(weights, p, period, threshold)
        work, seen = state.work, set()
        for i in range(30):
            # From nearly every line live to nearly none.
            x = np.where(rng.random(lines) < i / 30, INF, rng.integers(0, period, lines))
            planes, parity = packed(want, p.w_max)
            assert np.array_equal(work.planes, planes) and np.array_equal(state.parity, parity), i
            fresh = layer_spike_times(KernelWorkspace(want, period, threshold, p.w_max), x)
            idx, out = layer_spike_times(work, x)
            assert np.array_equal(idx, fresh[0]) and np.array_equal(out.times, fresh[1].times), i
            seen.update(idx.tolist())
            update_layer(state, x, idx, out)
            scalar_update(want, x, idx, out.times, p)
        # Silent columns and winners of several neurons both came up.
        assert -1 in seen and len(seen) > 3, seen
        state.unpack()
        assert np.array_equal(weights, want)

    def test_unpack_writes_the_scalar_rule_into_the_bank(self):
        # The weights stay as they were while the planes learn; unpacking
        # writes exactly the scalar rule's weights into the bank the
        # workspace was built from, and into no copy of it.
        rng = np.random.default_rng(29)
        p = StdpParams(u_capture=3, u_backoff=5, u_search=1, u_quiet=1, w_max=6)
        cols, neurons, lines, period = 4, 3, 130, 16
        weights = rng.integers(0, 13, size=(cols, neurons, lines)).astype(np.int16)
        start, want = weights.copy(), weights.copy()
        state = learning_state(weights, p, period)
        assert state.work.weights is weights
        for _ in range(12):
            x = np.where(rng.random(lines) < 0.4, INF, rng.integers(0, period, lines))
            idx = rng.integers(-1, neurons, size=cols)
            z = rng.integers(0, period, size=cols).astype(float)
            update_layer(state, x, idx, z)
            scalar_update(want, x, idx, z, p)
        assert np.array_equal(weights, start) and not np.array_equal(want, start)
        state.unpack()
        assert np.array_equal(weights, want)

    @pytest.mark.parametrize("w_max", [7, 100, 400])
    def test_silent_layer_steps_in_blocks(self, w_max):
        # Every row of the paper's 64x10 layer over 784 pixels steps in an
        # all-silent cycle. A block of rows at a time, the update's peak
        # stays near three times the 1 MiB stack of one block, where the
        # planes take 0.9, 12.2 and 48.8 MiB.
        cols, neurons, lines = 64, 10, 1568
        work = KernelWorkspace(np.zeros((cols, neurons, lines), dtype=np.int16), 16, 1, w_max)
        state = LearningState(work, StdpParams(w_max=w_max))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            update_layer(state, np.full(lines, INF), np.full(cols, -1), np.full(cols, INF))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak
        # QUIET on every line: half a unit each, in the parity alone.
        assert not work.planes.any()
        assert (state.parity == pack_lines(np.ones(lines, dtype=bool))).all()
