"""Histogram, purity, and cycle-savings metrics on fabricated runs."""

import io
import struct

import pytest

from tnnsim.dataio import read_idx_labels
from tnnsim.gamma import GammaCycleRecord, GammaTrace, GrstCause
from tnnsim.metrics import (
    SpikeHistogram,
    cycle_savings,
    histogram_markdown,
    purity,
    purity_markdown,
    spike_histogram,
    write_histogram_csv,
    write_purity_csv,
    write_savings_csv,
)
from tnnsim.network import RunSummary, Winner


def fake_summary(winners, period=16, column_count=3, epochs=1):
    """RunSummary scaffold around a list of network winners (or None)."""
    trace = GammaTrace(period=period, column_count=column_count)
    total = 0
    for w in winners:
        if w is None:
            length, cause, pairs = period, GrstCause.PERIOD, ()
        else:
            length = min(period, w.time + 1)
            cause = GrstCause.CONTROL
            pairs = tuple((c, w.time) for c in range(column_count))
        trace.add(GammaCycleRecord(length=length, cause=cause, winners=pairs))
        total += length
    return RunSummary(
        gamma_cycles=len(winners),
        total_clock_cycles=total,
        trace=trace,
        winners=list(winners),
        epochs=epochs,
        images=len(winners) // epochs,
    )


def w(time, column=0, neuron=0):
    return Winner(column=column, neuron=neuron, time=time)


class TestSpikeHistogram:
    def test_counts_and_mode(self):
        summary = fake_summary([w(5), w(5), w(6), None])
        hist = spike_histogram(summary)
        assert hist.counts[5] == 2
        assert hist.counts[6] == 1
        assert hist.inf_count == 1
        assert hist.total == 4
        assert hist.mode_fraction() == (5, 0.5)

    def test_all_silent(self):
        hist = spike_histogram(fake_summary([None, None]))
        assert hist.mode_fraction() == (None, 0.0)
        assert hist.total == 2

    def test_concentrated_counts_round_trip(self):
        # a heavily concentrated run: 9,922 at one time, 78 one step later
        winners = [w(5) for _ in range(9922)] + [w(6) for _ in range(78)]
        hist = spike_histogram(fake_summary(winners))
        assert hist.counts[5] == 9922
        assert hist.counts[6] == 78
        assert hist.total == 10000
        t, share = hist.mode_fraction()
        assert t == 5
        assert share == 0.9922

    def test_csv_and_markdown(self):
        hist = SpikeHistogram(counts=(1, 0, 2), inf_count=1)
        out = io.StringIO()
        write_histogram_csv(hist, out)
        assert out.getvalue() == (
            "spike_time,count\n0,1\n1,0\n2,2\ninf,1\ntotal,4\n"
        )
        md = histogram_markdown(hist)
        assert "| 2 | 2 |" in md
        assert "| inf | 1 |" in md
        assert "| total | 4 |" in md


class TestPurity:
    def test_five_sample_example_is_exactly_point_eight(self):
        # group (0,0): labels 7,7,3 -> majority 2; group (1,1): labels 2,2
        winners = [
            w(5, 0, 0),
            w(5, 0, 0),
            w(5, 0, 0),
            w(5, 1, 1),
            w(5, 1, 1),
        ]
        labels = [7, 7, 3, 2, 2]
        report = purity(fake_summary(winners), labels)
        assert report.purity == 0.8
        assert report.unassigned == 0
        by_key = {(g.column, g.neuron): g for g in report.groups}
        assert by_key[(0, 0)].majority_label == 7
        assert by_key[(0, 0)].majority_count == 2
        assert by_key[(0, 0)].size == 3
        assert by_key[(1, 1)].majority_label == 2

    def test_no_winner_counts_against(self):
        winners = [w(5, 0, 0), None, None, None]
        report = purity(fake_summary(winners), [1, 1, 1, 1])
        assert report.purity == 0.25
        assert report.unassigned == 3

    def test_majority_tie_breaks_to_lowest_label(self):
        winners = [w(5, 0, 0)] * 4
        report = purity(fake_summary(winners), [5, 3, 5, 3])
        assert report.groups[0].majority_label == 3
        assert report.groups[0].majority_count == 2
        # Labels as read from an IDX file: an unsigned dtype would wrap
        # ``-label`` in the tie-break key and pick 3 here.
        idx = struct.pack(">ii", 2049, 4) + bytes([0, 3, 0, 3])
        report = purity(fake_summary(winners), read_idx_labels(idx))
        assert report.groups[0].majority_label == 0
        assert report.groups[0].majority_count == 2

    def test_labels_tile_across_epochs(self):
        winners = [w(5, 0, 0), w(5, 0, 1), w(5, 0, 0), w(5, 0, 1)]
        report = purity(fake_summary(winners, epochs=2), [4, 9])
        assert report.purity == 1.0

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            purity(fake_summary([w(5)] * 3), [1, 2])

    def test_perfect_and_worst_cases(self):
        winners = [w(5, c, 0) for c in range(3)]
        assert purity(fake_summary(winners), [1, 2, 3]).purity == 1.0
        assert purity(fake_summary([None] * 3), [1, 2, 3]).purity == 0.0

    def test_csv_and_markdown(self):
        report = purity(fake_summary([w(5, 0, 0), w(5, 0, 0)]), [1, 1])
        out = io.StringIO()
        write_purity_csv(report, out)
        text = out.getvalue()
        assert text.startswith("column,neuron,size,majority_label,majority_count\n")
        assert "0,0,2,1,2\n" in text
        assert "purity,,,,1.0\n" in text
        md = purity_markdown(report)
        assert "purity: 1.0000" in md


class TestCycleSavings:
    def make_trace(self, entries, period=16, column_count=3):
        trace = GammaTrace(period=period, column_count=column_count)
        for length, winners in entries:
            cause = (
                GrstCause.PERIOD if length == period else GrstCause.CONTROL
            )
            trace.add(
                GammaCycleRecord(length=length, cause=cause, winners=winners)
            )
        return trace

    def test_uniform_last_spike_at_five(self):
        # every column spikes by step 5; controller delivers 6-step cycles
        all_at_5 = tuple((c, 5) for c in range(3))
        trace = self.make_trace([(6, all_at_5)] * 40)
        realized, potential = cycle_savings(trace, 16)
        assert potential == pytest.approx(0.6875, abs=0)
        assert realized == pytest.approx(0.625, abs=0)

    def test_silent_column_charges_full_period(self):
        # one column missing: nothing could end early
        partial = ((0, 2), (1, 3))
        trace = self.make_trace([(16, partial)])
        realized, potential = cycle_savings(trace, 16)
        assert realized == 0.0
        assert potential == 0.0

    def test_mixed_trace_averages(self):
        all_at_3 = tuple((c, 3) for c in range(3))
        trace = self.make_trace([(4, all_at_3), (16, ())])
        realized, potential = cycle_savings(trace, 16)
        assert realized == 1.0 - (4 + 16) / 2 / 16
        assert potential == 1.0 - (3 + 16) / 2 / 16

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            cycle_savings(GammaTrace(period=16, column_count=1), 16)

    def test_savings_csv(self):
        out = io.StringIO()
        write_savings_csv(0.625, 0.6875, out)
        assert out.getvalue() == (
            "metric,fraction\nrealized_savings,0.625\npotential_savings,0.6875\n"
        )
