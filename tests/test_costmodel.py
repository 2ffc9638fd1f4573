"""Comparator-bank cost model: exact arithmetic, invariance, sweeps."""

import io
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tnnsim.costmodel import (
    REPORT_FIELDS,
    ComparatorBankConfig,
    SweepPoint,
    TimingViolationError,
    cost_report,
    sweep,
    write_sweep_csv,
)

GHZ = 1e9


def cfg(comparators, pixels=784, frequency=GHZ):
    return ComparatorBankConfig(
        comparator_count=comparators,
        clock_frequency=frequency,
        pixels_per_image=pixels,
    )


class TestCycles:
    def test_full_bank_single_cycle(self):
        assert cost_report(cfg(784)).cycles == 1

    def test_seven_by_seven_block(self):
        assert cost_report(cfg(49)).cycles == 16

    def test_ragged_division(self):
        assert cost_report(cfg(100)).cycles == 8

    def test_zero_comparators_rejected(self):
        with pytest.raises(ValueError):
            ComparatorBankConfig(0, GHZ, 784)

    @given(st.integers(1, 10000), st.integers(1, 10000))
    def test_matches_ceiling(self, pixels, comps):
        assert cost_report(cfg(comps, pixels)).cycles == math.ceil(pixels / comps)


class TestCostReport:
    def test_49_comparators_at_1ghz(self):
        r = cost_report(cfg(49))
        assert r.cycles == 16
        assert r.processing_time == 16e-9
        assert r.area == 49 * 1.33
        assert r.wasted_comparator_cycles == 0

    def test_single_comparator_takes_784ns(self):
        r = cost_report(cfg(1))
        assert r.cycles == 784
        assert r.processing_time == 784e-9

    def test_ragged_final_cycle_counts_waste(self):
        r = cost_report(cfg(100))
        assert r.cycles == 8
        assert r.wasted_comparator_cycles == 8 * 100 - 784

    def test_energy_identities(self):
        r = cost_report(cfg(49))
        assert r.total_energy == r.dynamic_energy + r.leakage_energy
        assert r.edp == r.total_energy * r.processing_time

    def test_divisor_energy_invariance(self):
        divisors = [1, 2, 4, 8, 16, 49, 196, 784]
        energies = [cost_report(cfg(n)).total_energy for n in divisors]
        base = energies[0]
        for e in energies[1:]:
            assert abs(e - base) / base <= 1e-12

    def test_non_divisors_cost_strictly_more(self):
        base = cost_report(cfg(49)).total_energy
        for n in (100, 250, 400, 625):
            assert cost_report(cfg(n)).total_energy > base

    def test_area_strictly_linear(self):
        unit_area = cost_report(cfg(1)).area
        for n in (2, 3, 10, 49, 784):
            assert cost_report(cfg(n)).area == n * unit_area

    def test_edp_decreases_with_divisor_bank_width(self):
        # Energy is divisor-invariant while processing time shrinks with
        # wider banks, so EDP strictly falls from 49 to 196 to 784.
        e49 = cost_report(cfg(49)).edp
        e196 = cost_report(cfg(196)).edp
        e784 = cost_report(cfg(784)).edp
        assert e49 > e196 > e784

    def test_dynamic_energy_frequency_independent(self):
        slow = cost_report(cfg(49, frequency=100e6))
        fast = cost_report(cfg(49, frequency=10e9))
        assert slow.dynamic_energy == fast.dynamic_energy
        assert slow.leakage_energy > fast.leakage_energy

    def test_clock_faster_than_critical_path_rejected(self):
        with pytest.raises(TimingViolationError):
            cost_report(cfg(49, frequency=30e9))

    def test_clock_at_critical_path_accepted(self):
        r = cost_report(cfg(49, frequency=25e9))
        assert r.cycles == 16


class TestSweep:
    def test_frequency_sweep_energy_monotone_nonincreasing(self):
        freqs = [1e8, 1e9, 5e9, 2.5e10]
        points = sweep("frequency", freqs, cfg(49))
        energies = [p.report.total_energy for p in points]
        for a, b in zip(energies, energies[1:]):
            assert a >= b

    def test_timing_violations_do_not_abort(self):
        points = sweep("frequency", [1e9, 1e11, 2e9], cfg(49))
        assert points[0].report is not None
        assert points[1].report is None
        assert "critical path" in points[1].error
        assert points[2].report is not None

    def test_comparator_sweep_area_linear(self):
        counts = [1, 2, 4, 8]
        points = sweep("comparator_count", counts, cfg(49))
        unit_area = points[0].report.area
        for n, p in zip(counts, points):
            assert p.report.area == n * unit_area

    def test_image_size_sweep_time_ratio(self):
        points = sweep("image_size", [49, 784, 2160], cfg(49))
        t49 = points[0].report.processing_time
        t2160 = points[2].report.processing_time
        # 44x the pixels rounds up to 45 bank cycles against 1.
        assert t2160 / t49 == 45.0

    def test_input_order_preserved(self):
        values = [784, 49, 196]
        points = sweep("comparator_count", values, cfg(49))
        assert [p.value for p in points] == values

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep("frequency", [], cfg(49))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep("voltage", [1.0], cfg(49))

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError):
            sweep("frequency", [1e9, -1.0], cfg(49))

    @pytest.mark.parametrize("axis", ["comparator_count", "frequency", "image_size"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, axis, bad):
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            sweep(axis, [2, bad], cfg(49))

    @pytest.mark.parametrize("axis", ["comparator_count", "image_size"])
    def test_fractional_count_rejected(self, axis):
        with pytest.raises(ValueError, match=f"{axis} values must be whole numbers, got 2.5"):
            sweep(axis, [2.5, 2], cfg(49))

    def test_fractional_frequency_priced(self):
        (point,) = sweep("frequency", [1.5e9], cfg(49))
        assert point.report.cycles == 16

    def test_csv_columns_are_report_fields(self):
        points = sweep("comparator_count", [49, 784], cfg(49))
        buf = io.StringIO()
        write_sweep_csv(points, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(REPORT_FIELDS)
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "16"

    def test_csv_error_rows_left_empty(self):
        points = [SweepPoint(value=1.0, report=None, error="boom")]
        buf = io.StringIO()
        write_sweep_csv(points, buf)
        row = buf.getvalue().splitlines()[1]
        assert row == "," * (len(REPORT_FIELDS) - 1)


class TestValidation:
    def test_config_invariants(self):
        with pytest.raises(ValueError):
            ComparatorBankConfig(0, GHZ, 784)
        with pytest.raises(ValueError):
            ComparatorBankConfig(49, 0.0, 784)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="clock_frequency must be positive and finite"):
                ComparatorBankConfig(49, bad, 784)
        with pytest.raises(ValueError):
            ComparatorBankConfig(49, GHZ, 0)
