"""One table of spike times through every reader.

``encode.Volley.from_times`` states the rule: a spike time is ``inf`` or a
whole step in ``0..period - 1``. Each row goes through every module that
reads spike times: the layer kernel (a volley line), the STDP update (a
winner time), gamma control and the run record's loader (a stored column
time). A rejected row raises ``ValueError`` naming the value in each of
them, before anything changes; an accepted row reads as the step it is, as
the oracles read it.
Times that are not 1-D are rejected by every reader too.
"""

import math
import re

import numpy as np
import pytest
from oracle import (
    GeneratorState,
    apply_update,
    classify_case,
    clocked_cycle,
    column_argmin,
    make_controller,
    stepwise_spike_times,
)

from tnnsim.encode import INF, Volley, pack_lines
from tnnsim.gamma import run_cycle
from tnnsim.network import load_summary_npz
from tnnsim.neuron import KernelWorkspace, layer_spike_times, weight_planes
from tnnsim.stdp import LearningState, StdpParams, update_layer

PERIOD = 16

# Each rejected time and how the error names it.
REJECTED = [
    (-1, "-1"),
    (-0.5, "-0.5"),
    (2.5, "2.5"),
    (15.5, "15.5"),
    (math.nan, "nan"),
    (-INF, "-inf"),
    (16, "16"),
    (16.5, "16.5"),
    (40, "40"),
]
ACCEPTED = [0, 15, INF, np.int64(5), np.float64(3.0)]


def rejects(text):
    return pytest.raises(
        ValueError, match=re.escape(f"spike time {text} is not inf or a whole step in 0..15")
    )


def kernel(t, times=None):
    """A three-line volley with ``t`` on line 1, or the given ``times``,
    through the layer kernel; with the oracle's answer for the same volley."""
    weights, times = np.full((2, 3), 14), [0, t, 0] if times is None else times
    got = layer_spike_times(KernelWorkspace(weights[None], PERIOD, 20, 7), times)
    return got, column_argmin(stepwise_spike_times(weights, times, PERIOD, 20), 1)


def learning_state(weights):
    """The ``LearningState`` of a ``(cols, neurons, 3)`` bank, on the
    kernel workspace built from it."""
    return LearningState(KernelWorkspace(weights, PERIOD, 1, 7), StdpParams())


def stdp_update(t, x=(0.0, 3.0, INF)):
    """Column 0 wins on neuron 1 at ``t`` (silent where ``t`` is inf) and
    column 1 is silent, on input volley ``x``: the planes and parity of
    weights all at 5 half-units, and the STDP update of them in place."""
    winners, z = [-1 if t == INF else 1, -1], [t, INF]
    state = learning_state(np.full((2, 2, 3), 5, dtype=np.int16))
    return state.work.planes, state.parity, lambda: update_layer(state, x, winners, z)


def load_record(tmp_path, t):
    """A one-cycle run record whose columns first fire at ``t`` and never,
    saved as a ``summary.npz`` and loaded again."""
    path = tmp_path / "summary.npz"
    np.savez_compressed(
        path, lengths=[PERIOD], causes=[False], col_times=[[t, INF]],
        col_neurons=[[-1 if t == INF else 0, -1]], meta=[PERIOD, 2, 1, 1],
    )
    return load_summary_npz(path)


def clocked(times, relaxed):
    res, _, _ = clocked_cycle(
        GeneratorState(period=PERIOD), make_controller(len(times)), times, relaxed
    )
    return res


@pytest.mark.parametrize("t, text", REJECTED, ids=[text for _, text in REJECTED])
class TestRejected:
    def test_rule(self, t, text):
        with rejects(text):
            Volley.from_times([0, t, INF], PERIOD)

    def test_kernel(self, t, text):
        with rejects(text):
            kernel(t)

    def test_stdp_stores_change_no_row(self, t, text):
        planes, parity, update = stdp_update(t)
        held = planes.copy(), parity.copy()
        with rejects(text):
            update()
        assert np.array_equal(planes, held[0]) and np.array_equal(parity, held[1])

    @pytest.mark.parametrize("relaxed", [True, False])
    def test_run_cycle(self, t, text, relaxed):
        with rejects(text):
            run_cycle([t, 3], PERIOD, relaxed)

    def test_trace(self, t, text, tmp_path):
        with rejects(text):
            load_record(tmp_path, t)


@pytest.mark.parametrize("t", ACCEPTED, ids=repr)
class TestAccepted:
    def test_rule(self, t):
        volley = Volley.from_times([t, 0, INF], PERIOD)
        want = sorted({0} | ({int(t)} if t != INF else set()))
        assert volley.steps.tolist() == want
        arrives = np.array([[t == s, s == 0, False] for s in want]).reshape(-1, 3)
        assert np.array_equal(volley.masks, pack_lines(arrives))

    def test_kernel(self, t):
        got, want = kernel(t)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_stdp_stores(self, t):
        # Every synapse of each updated row takes the scalar rule's step.
        planes, parity, update = stdp_update(t)
        p, x, z = StdpParams(), [0, 3, INF], [INF if t == INF else int(t), INF]
        want = np.full((2, 2, 3), 5, dtype=np.int16)
        for c, n in ((0, 0), (0, 1), (1, 0), (1, 1)):
            if z[c] == INF or n == 1:
                want[c, n] = [apply_update(5, classify_case(xt, z[c]), p) for xt in x]
        update()
        assert np.array_equal(planes, weight_planes(want.reshape(4, 3), 7))
        assert np.array_equal(parity, pack_lines((want & 1) == 1).reshape(4, 1))

    @pytest.mark.parametrize("relaxed", [True, False])
    def test_run_cycle(self, t, relaxed):
        assert run_cycle([t, 3], PERIOD, relaxed) == clocked([t, 3], relaxed)

    def test_trace(self, t, tmp_path):
        trace = load_record(tmp_path, t).trace
        assert trace.col_times.tolist() == [[float(t), INF]]


class TestNotOneDimensional:
    """Three lines given as one column of times, ``(3, 1)``, are not a
    volley: every reader rejects them, before anything changes. The times
    are distinct steps, so a reader that compared them with their own
    steps elementwise would read them as three lines."""

    times = [[0], [3], [5]]

    def rejects(self):
        return pytest.raises(ValueError, match=re.escape("must be 1-D, got shape (3, 1)"))

    def test_rule(self):
        with self.rejects():
            Volley.from_times(self.times, PERIOD)

    def test_kernel(self):
        with self.rejects():
            kernel(None, self.times)

    def test_stdp_stores_change_no_row(self):
        planes, parity, update = stdp_update(2, self.times)
        held = planes.copy(), parity.copy()
        with self.rejects():
            update()
        assert np.array_equal(planes, held[0]) and np.array_equal(parity, held[1])

    @pytest.mark.parametrize("relaxed", [True, False])
    def test_run_cycle(self, relaxed):
        with self.rejects():
            run_cycle(self.times, PERIOD, relaxed)


def test_a_winner_at_inf_is_rejected():
    # A winner at inf would take the line mask of another step. A silent
    # column's time is read nowhere.
    state = learning_state(np.full((2, 1, 3), 5, dtype=np.int16))
    held = state.work.planes.copy(), state.parity.copy()
    for winners, z in (([0, -1], [INF, INF]), ([0, 0], [2.0, INF])):
        with pytest.raises(ValueError, match="a winner's time must be a step, not inf"):
            update_layer(state, np.zeros(3), winners, z)
    assert np.array_equal(state.work.planes, held[0]) and np.array_equal(state.parity, held[1])
