"""Weight-update rule: case classification, saturation, the layer update.

The int16 update (``update_weights``) is checked against the scalar rule;
the learning-state update (``update_layer`` on bit-planes and parity) is
checked against both, through a pack -> update -> unpack round trip, and
step by step against the int16 update for every weight and step.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracle import RuleCase, apply_update, classify_case

from tnnsim.encode import INF
from tnnsim.neuron import layer_spike_times, pack_lines, unpack_weights, weight_planes
from tnnsim.stdp import StdpParams, update_layer, update_weights

spike_times = st.one_of(st.integers(0, 15), st.just(INF))


def update_on_planes(weights, x, winner_idx, z, p):
    """``update_weights`` by way of the learning state: pack the weights'
    planes and parity, ``update_layer`` them, and unpack into ``weights``."""
    cols, neurons, lines = weights.shape
    planes = weight_planes(weights.reshape(-1, lines), p.w_max)
    parity = pack_lines((weights & 1) == 1)
    update_layer(planes.reshape(cols, neurons, p.w_max, -1), x, winner_idx, z, p, parity)
    unpack_weights(planes, parity.reshape(cols * neurons, -1), weights.reshape(-1, lines))


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

    def test_cap_must_fit_int16(self):
        assert StdpParams(w_max=16383).half_unit_cap == np.iinfo(np.int16).max - 1
        with pytest.raises(ValueError, match="w_max"):
            StdpParams(w_max=16384)


class TestUpdateLayer:
    """The int16 update; ``TestUpdateLayerOnPlanes`` runs the same cases
    on the learning state."""

    update = staticmethod(update_weights)

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
            for c in range(cols):
                zt = INF if winner_idx[c] < 0 else int(z[c])
                rows = (
                    range(neurons) if winner_idx[c] < 0 else [int(winner_idx[c])]
                )
                for n in rows:
                    for l in range(lines):
                        xt = INF if np.isinf(x[l]) else int(x[l])
                        expect[c, n, l] = apply_update(
                            int(expect[c, n, l]), classify_case(xt, zt), p
                        )
            got = weights.copy()
            rows = self.update(got, x, winner_idx, z, p)
            assert np.array_equal(got, expect)
            if rows is None:  # the learning state names no rows
                continue
            want_rows = [
                c * neurons + n
                for c in range(cols)
                for n in range(neurons)
                if winner_idx[c] in (-1, n)
            ]
            assert rows.tolist() == want_rows

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


class TestUpdateLayerOnPlanes(TestUpdateLayer):
    update = staticmethod(update_on_planes)


class TestNoWrap:
    """Steps at or above the int16 range saturate like any other step."""

    update = staticmethod(update_weights)

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
    update = staticmethod(update_on_planes)


class TestBitSlicedSteps:
    """Every step on every weight: the learning state moves exactly as the
    int16 update moves the weights."""

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
            update_weights(want, x, winner_idx, z, p)
            weights = np.stack([np.stack([row, row])] * 2)
            planes = weight_planes(weights.reshape(4, -1), w_max)
            parity = pack_lines((weights & 1) == 1)
            update_layer(planes.reshape(2, 2, w_max, -1), x, winner_idx, z, p, parity)
            # Packed words compared whole, so padding bits must stay 0.
            assert np.array_equal(planes, weight_planes(want.reshape(4, -1), w_max)), u
            assert np.array_equal(parity, pack_lines((want & 1) == 1)), u

    def test_planes_must_hold_w_max(self):
        planes = weight_planes(np.zeros((2, 3), dtype=np.int16), 6)
        parity = np.zeros((1, 2, 1), dtype=np.uint64)
        with pytest.raises(ValueError, match="w_max"):
            update_layer(planes.reshape(1, 2, 6, 1), [0, 0, 0], [0], [0.0], StdpParams(), parity)

    def test_lines_must_fit_the_planes(self):
        planes = weight_planes(np.zeros((2, 64), dtype=np.int16), 7)
        parity = np.zeros((1, 2, 1), dtype=np.uint64)
        with pytest.raises(ValueError, match="do not pack"):
            update_layer(planes.reshape(1, 2, 7, 1), [0] * 65, [0], [0.0], StdpParams(), parity)


class TestLearningDynamics:
    def test_repeated_capture_specializes_a_neuron(self):
        """Drive one pattern through the layer kernel and update again and
        again: live lines rise to cap, dead ones fall."""
        p = StdpParams()
        weights = np.full((1, 1, 8), 7, dtype=np.int16)
        pattern = [0, 0, 0, 0, INF, INF, INF, INF]
        for _ in range(10):
            planes = weight_planes(weights[0], p.w_max)
            idx, win = layer_spike_times(planes, pattern, 16, 3, 8, 1)
            update_weights(weights, pattern, idx, win, p)
        assert weights.ravel().tolist() == [14] * 4 + [0] * 4
