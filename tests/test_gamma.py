"""Closed-form gamma control against the clocked generator/controller oracle."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from oracle import (
    GeneratorState,
    clocked_cycle,
    controller_control,
    controller_observe,
    generator_step,
    grst_clear,
    make_controller,
)
from tnnsim.encode import INF, PosNeg, encode_image
from tnnsim.gamma import (
    GammaTrace,
    GrstCause,
    run_cycle,
    verify_scenarios,
    write_trace_csv,
)


def check_closed_form(period, times, relaxed, want):
    """``run_cycle`` gives the clocked model's ``want``, or rejects a finite
    time at or past the period, which the clocked model never sees fire."""
    if any(period <= t < INF for t in times):
        with pytest.raises(ValueError, match="not inf or a whole step"):
            run_cycle(times, period, relaxed)
    else:
        assert run_cycle(times, period, relaxed) == want


def clocked(period, times, relaxed):
    """The oracle's result for one cycle from the reset state."""
    res, _, _ = clocked_cycle(
        GeneratorState(period=period), make_controller(len(times)), times, relaxed
    )
    return res


class TestGenerator:
    def test_counts_up_and_rolls_over(self):
        g = GeneratorState(period=4)
        seen = []
        for _ in range(8):
            seen.append(g.counter)
            grst, g = generator_step(g, False)
        assert seen == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_grst_fires_only_on_last_step(self):
        g = GeneratorState(period=4)
        pulses = []
        for _ in range(4):
            grst, g = generator_step(g, False)
            pulses.append(grst)
        assert pulses == [False, False, False, True]

    def test_control_forces_early_reset(self):
        g = GeneratorState(counter=1, period=16)
        grst, g2 = generator_step(g, True)
        assert grst
        assert g2.counter == 0

    def test_state_validation(self):
        with pytest.raises(ValueError):
            GeneratorState(period=0)
        with pytest.raises(ValueError):
            GeneratorState(counter=16, period=16)
        with pytest.raises(ValueError):
            GeneratorState(counter=-1, period=16)


class TestController:
    def test_needs_at_least_one_column(self):
        with pytest.raises(ValueError):
            make_controller(0)

    def test_latches_set_and_hold(self):
        c = make_controller(3)
        c = controller_observe(c, [False, True, False])
        assert c.column_latches == (False, True, False)
        # a latch never drops on a spike-free step
        c = controller_observe(c, [False, False, False])
        assert c.column_latches == (False, True, False)

    def test_control_is_and_of_latches(self):
        c = make_controller(2)
        assert not controller_control(c)
        c = controller_observe(c, [True, False])
        assert not controller_control(c)
        c = controller_observe(c, [False, True])
        assert controller_control(c)

    def test_clear_drops_every_latch(self):
        c = controller_observe(make_controller(2), [True, True])
        assert grst_clear(c).column_latches == (False, False)

    def test_observe_length_checked(self):
        with pytest.raises(ValueError):
            controller_observe(make_controller(2), [True])

    @given(st.lists(st.lists(st.booleans(), min_size=3, max_size=3), max_size=10))
    def test_latch_monotone_over_any_schedule(self, steps):
        c = make_controller(3)
        for flags in steps:
            before = c.column_latches
            c = controller_observe(c, flags)
            assert all(b <= a for b, a in zip(before, c.column_latches))
            # OR-fold: set exactly when previously set or flagged now
            assert c.column_latches == tuple(
                b or f for b, f in zip(before, flags)
            )


def check_chained_cycles_reset(seed):
    """Chain the clocked model over random schedules; after every cycle the
    carried counter is 0 and every latch is clear, so a cycle never depends
    on the one before it."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        period = int(rng.integers(2, 21))
        cols = int(rng.integers(1, 7))
        gen, ctrl = GeneratorState(period=period), make_controller(cols)
        for _ in range(5):
            times = [
                INF if rng.random() < 0.2 else int(rng.integers(0, period + 2))
                for _ in range(cols)
            ]
            relaxed = bool(rng.integers(0, 2))
            res, gen, ctrl = clocked_cycle(gen, ctrl, times, relaxed)
            check_closed_form(period, times, relaxed, res)
            assert gen.counter == 0
            assert not any(ctrl.column_latches)


class TestRunCycle:
    def test_simultaneous_spikes_end_one_step_later(self):
        res = run_cycle([4, 4, 4], 16, True)
        assert (res.length, res.cause) == (5, GrstCause.CONTROL)
        assert type(res.length) is int

    def test_last_column_gates_the_reset(self):
        res = run_cycle([2, 9, 5], 16, True)
        assert (res.length, res.cause) == (10, GrstCause.CONTROL)

    def test_silent_column_leaves_periodic_rollover(self):
        res = run_cycle([3, INF], 16, True)
        assert (res.length, res.cause) == (16, GrstCause.PERIOD)

    @pytest.mark.parametrize("period", [16, 300])
    def test_silence_of_a_shorter_cycle_holds_at_any_period(self, period):
        # A posneg volley counts in a one-step cycle, in one-byte codes;
        # its silent lines stay silent past the 255 one byte holds.
        volley = encode_image(np.array([200, 3], dtype=np.uint8), PosNeg())
        res = run_cycle(volley, period, True)
        assert (res.length, res.cause) == (period, GrstCause.PERIOD)

    def test_fixed_mode_always_runs_full_period(self):
        res = run_cycle([0, 0], 16, False)
        assert (res.length, res.cause) == (16, GrstCause.PERIOD)

    def test_spike_on_last_step_cannot_beat_rollover(self):
        res = run_cycle([15], 16, True)
        assert (res.length, res.cause) == (16, GrstCause.PERIOD)

    def test_spike_on_second_to_last_step_just_makes_it(self):
        res = run_cycle([14], 16, True)
        assert (res.length, res.cause) == (15, GrstCause.CONTROL)

    def test_wrong_column_count_rejected(self):
        # Zero columns leave control nothing to watch; arrays count too.
        with pytest.raises(ValueError):
            run_cycle([], 16, True)
        with pytest.raises(ValueError):
            run_cycle(np.array([]), 16, True)

    @pytest.mark.parametrize(
        "times, bad",
        [([-3], "-3"), ([2.5], "2.5"), ([3, np.nan], "nan"), ([np.nan, INF], "nan"),
         ([0, -0.5, 4], "-0.5"), ([15.5, 2], "15.5")],
    )
    def test_times_that_are_not_steps_rejected(self, times, bad):
        # Once they gave length -2, 3 and 4: a time that is not a step
        # has no cycle length, in either mode.
        for relaxed in (True, False):
            with pytest.raises(ValueError, match=f"spike time {bad} is not inf or a whole step"):
                run_cycle(times, 16, relaxed)

    def test_chained_cycles_account_every_clock_step(self):
        gen, ctrl = GeneratorState(), make_controller(2)
        schedules = [[3, 5], [INF, 2], [0, 0], [10, 14]]
        lengths = []
        for times in schedules:
            res, gen, ctrl = clocked_cycle(gen, ctrl, times, True)
            assert res == run_cycle(times, 16, True)
            lengths.append(res.length)
        assert lengths == [6, 16, 1, 15]
        assert sum(lengths) == 6 + 16 + 1 + 15

    def test_chained_cycles_always_reset(self):
        check_chained_cycles_reset(seed=7)

    def test_detects_sticky_latches(self, monkeypatch):
        # Break the oracle's reset path: latches survive across cycles. The
        # chained check must then fail, proving it can catch the fault.
        monkeypatch.setattr(oracle, "grst_clear", lambda c: c)
        with pytest.raises(AssertionError):
            check_chained_cycles_reset(seed=7)

    @given(
        st.integers(2, 20),
        st.data(),
        st.booleans(),
    )
    def test_matches_oracle(self, period, data, relaxed):
        times = data.draw(
            st.lists(
                st.one_of(st.integers(0, 20), st.just(INF)),
                min_size=1,
                max_size=6,
            )
        )
        check_closed_form(period, times, relaxed, clocked(period, times, relaxed))

    @given(st.integers(2, 20), st.data())
    def test_length_never_exceeds_period(self, period, data):
        times = data.draw(
            st.lists(
                st.one_of(st.integers(0, 25), st.just(INF)),
                min_size=1,
                max_size=5,
            )
        )
        res = clocked(period, times, True)
        assert 1 <= res.length <= period
        check_closed_form(period, times, True, res)


class TestTrace:
    def test_rejects_over_length_record(self):
        with pytest.raises(ValueError, match="cycle length 17"):
            GammaTrace(16, [17], [False], [[16, 16]])

    def test_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            GammaTrace(16, [0], [False], [[16, 16]])  # length below 1
        with pytest.raises(ValueError):
            GammaTrace(16, [6, 6], [True], [[1, 2], [1, 2]])  # control too short
        with pytest.raises(ValueError):
            GammaTrace(16, [6], [True], [[1, 2], [1, 2]])  # extra time row
        with pytest.raises(ValueError):
            GammaTrace(16, [6], [True], np.empty((1, 0)))  # no columns

    @pytest.mark.parametrize(
        "period, code", [(16, 17), (16, -1), (16, 2.5), (255, 300), (256, 2**16 + 3)]
    )
    def test_rejects_codes_that_are_not_steps(self, period, code):
        # Past the period, negative, fractional, or wrapped by the narrow width.
        with pytest.raises(ValueError, match=f"column codes must be integers in 0..{period}"):
            GammaTrace(period, [period], [False], [[code, period]])

    def test_lengths_and_csv(self):
        trace = GammaTrace(
            period=16,
            lengths=[6, 16],
            control=[True, False],
            col_codes=[[3, 5], [2, 16]],
        )
        assert trace.lengths.tolist() == [6, 16]
        assert trace.column_count == 2
        assert len(trace) == 2
        out = io.StringIO()
        write_trace_csv(trace, out)
        assert out.getvalue() == (
            "cycle,length,cause,winners\n"
            "0,6,control,0:3;1:5\n"
            "1,16,period,0:2\n"
        )


class TestVerifyScenarios:
    def test_all_three_pass(self):
        results = verify_scenarios()
        assert [r.passed for r in results] == [True, True, True]
        assert [r.name for r in results] == [
            "simultaneous-spikes",
            "staggered-spikes",
            "silent-cycle",
        ]

    def test_respects_period_argument(self):
        for result in verify_scenarios(period=8, column_count=2):
            assert result.passed
