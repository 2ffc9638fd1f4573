"""Gamma generator/controller behavior against a closed-form oracle."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tnnsim.gamma as gamma
from tnnsim.encode import INF
from tnnsim.gamma import (
    GammaTrace,
    GeneratorState,
    GrstCause,
    controller_control,
    controller_observe,
    generator_step,
    grst_clear,
    make_controller,
    run_cycle,
    verify_scenarios,
    write_trace_csv,
)


def oracle_cycle(period, times, relaxed):
    """Closed-form prediction of (length, cause) for one cycle.

    Derived independently of the step loop: with the one-step control
    sampling delay, the last column spike at step t ends the cycle after
    t + 1 steps, unless the periodic rollover gets there first.
    """
    finite = [t for t in times if t != INF and t < period]
    all_fired = len(finite) == len(times)
    if relaxed and all_fired:
        last = max(finite)
        if last + 1 <= period - 1:
            return last + 1, GrstCause.CONTROL
    return period, GrstCause.PERIOD


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


class TestRunCycle:
    def test_simultaneous_spikes_end_one_step_later(self):
        res = run_cycle(GeneratorState(), make_controller(3), [4, 4, 4], True)
        assert (res.length, res.cause) == (5, GrstCause.CONTROL)
        assert res.generator.counter == 0
        assert res.controller.column_latches == (False, False, False)

    def test_last_column_gates_the_reset(self):
        res = run_cycle(GeneratorState(), make_controller(3), [2, 9, 5], True)
        assert (res.length, res.cause) == (10, GrstCause.CONTROL)

    def test_silent_column_leaves_periodic_rollover(self):
        res = run_cycle(GeneratorState(), make_controller(2), [3, INF], True)
        assert (res.length, res.cause) == (16, GrstCause.PERIOD)

    def test_fixed_mode_always_runs_full_period(self):
        res = run_cycle(GeneratorState(), make_controller(2), [0, 0], False)
        assert (res.length, res.cause) == (16, GrstCause.PERIOD)

    def test_spike_on_last_step_cannot_beat_rollover(self):
        res = run_cycle(GeneratorState(), make_controller(1), [15], True)
        assert (res.length, res.cause) == (16, GrstCause.PERIOD)

    def test_spike_on_second_to_last_step_just_makes_it(self):
        res = run_cycle(GeneratorState(), make_controller(1), [14], True)
        assert (res.length, res.cause) == (15, GrstCause.CONTROL)

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ValueError):
            run_cycle(GeneratorState(), make_controller(2), [1], True)

    def test_chained_cycles_account_every_clock_step(self):
        gen, ctrl = GeneratorState(), make_controller(2)
        schedules = [[3, 5], [INF, 2], [0, 0], [10, 14]]
        lengths = []
        for times in schedules:
            res = run_cycle(gen, ctrl, times, True)
            lengths.append(res.length)
            gen, ctrl = res.generator, res.controller
        assert lengths == [6, 16, 1, 15]
        assert sum(lengths) == 6 + 16 + 1 + 15

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
        res = run_cycle(
            GeneratorState(period=period), make_controller(len(times)), times, relaxed
        )
        assert (res.length, res.cause) == oracle_cycle(period, times, relaxed)

    def test_ten_thousand_random_schedules(self):
        rng = np.random.default_rng(2024)
        mismatches = 0
        for _ in range(10000):
            period = int(rng.integers(2, 21))
            cols = int(rng.integers(1, 7))
            times = [
                INF if rng.random() < 0.2 else int(rng.integers(0, period + 2))
                for _ in range(cols)
            ]
            relaxed = bool(rng.integers(0, 2))
            res = run_cycle(
                GeneratorState(period=period),
                make_controller(cols),
                times,
                relaxed,
            )
            if (res.length, res.cause) != oracle_cycle(period, times, relaxed):
                mismatches += 1
        assert mismatches == 0

    @given(st.integers(2, 20), st.data())
    def test_length_never_exceeds_period(self, period, data):
        times = data.draw(
            st.lists(
                st.one_of(st.integers(0, 25), st.just(INF)),
                min_size=1,
                max_size=5,
            )
        )
        res = run_cycle(
            GeneratorState(period=period), make_controller(len(times)), times, True
        )
        assert 1 <= res.length <= period


class TestTrace:
    def test_rejects_over_length_record(self):
        with pytest.raises(ValueError, match="cycle length 17"):
            GammaTrace(16, [17], [False], [[INF, INF]])

    def test_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            GammaTrace(16, [0], [False], [[INF, INF]])  # length below 1
        with pytest.raises(ValueError):
            GammaTrace(16, [6, 6], [True], [[1, 2], [1, 2]])  # control too short
        with pytest.raises(ValueError):
            GammaTrace(16, [6], [True], [[1, 2], [1, 2]])  # extra time row
        with pytest.raises(ValueError):
            GammaTrace(16, [6], [True], np.empty((1, 0)))  # no columns
        for t in (16, -1, 2.5, np.nan, -np.inf):
            with pytest.raises(ValueError):
                GammaTrace(16, [16], [False], [[t, INF]])

    def test_lengths_and_csv(self):
        trace = GammaTrace(
            period=16,
            lengths=[6, 16],
            control=[True, False],
            col_times=[[3, 5], [2, INF]],
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

    def test_detects_sticky_latches(self, monkeypatch):
        # Break the reset path: latches survive across cycles. The silent
        # cycle scenario must then fail, proving it can catch the fault.
        monkeypatch.setattr(gamma, "grst_clear", lambda c: c)
        results = verify_scenarios()
        assert not results[2].passed

    def test_respects_period_argument(self):
        for result in verify_scenarios(period=8, column_count=2):
            assert result.passed
