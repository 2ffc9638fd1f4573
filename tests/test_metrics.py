"""Histogram, purity, and cycle-savings metrics on fabricated runs."""

import io
import struct
from collections import Counter

import numpy as np
import pytest

import oracle

from tnnsim.dataio import read_idx_labels
from tnnsim.gamma import GammaTrace
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
from tnnsim.network import RunSummary


def fake_summary(winners, period=16, column_count=3, epochs=1):
    """RunSummary scaffold around a list of network winners (or None).

    Each winner's column fires alone at the winner's time.
    """
    n = len(winners)
    col_codes = np.full((n, column_count), period)
    col_neurons = np.full((n, column_count), -1)
    lengths = np.full(n, period)
    for i, win in enumerate(winners):
        if win is not None:
            column, neuron, time = win
            col_codes[i, column] = time
            col_neurons[i, column] = neuron
            lengths[i] = min(period, time + 1)
    trace = GammaTrace(period, lengths, lengths < period, col_codes)
    return RunSummary(trace, col_neurons, epochs=epochs, images=n // epochs)


def w(time, column=0, neuron=0):
    return (column, neuron, time)


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
    def test_empty_record_scores_zero(self):
        report = purity(fake_summary([]), [])
        assert (report.purity, report.groups, report.unassigned) == (0.0, (), 0)

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
        col_codes = np.full((len(entries), column_count), period)
        for i, (_, winners) in enumerate(entries):
            for c, t in winners:
                col_codes[i, c] = t
        lengths = np.array([length for length, _ in entries], dtype=np.int64)
        return GammaTrace(period, lengths, lengths < period, col_codes)

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
            cycle_savings(GammaTrace(16, [], [], np.empty((0, 1))), 16)

    def test_period_must_be_the_traces(self):
        # Against period 8, a 16-step trace once read realized savings -0.25.
        trace = GammaTrace(16, [16, 4], [False, True], [[16, 3], [3, 3]])
        assert cycle_savings(trace, 16) == (1.0 - 10 / 16, 1.0 - 9.5 / 16)
        for period in (8, 32):
            with pytest.raises(ValueError, match=f"against period {period} of a trace with"):
                cycle_savings(trace, period)

    def test_savings_csv(self):
        out = io.StringIO()
        write_savings_csv(0.625, 0.6875, out)
        assert out.getvalue() == (
            "metric,fraction\nrealized_savings,0.625\npotential_savings,0.6875\n"
        )


class TestAgainstPerRowReference:
    """The array metrics equal the per-row loops in ``oracle`` on random
    run records."""

    @staticmethod
    def random_summary(rng):
        period = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 5))
        epochs = int(rng.integers(1, 4))
        images = int(rng.integers(1, 10))
        n = epochs * images
        # Row kinds: every column silent, some silent, none silent.
        kind = rng.integers(0, 3, size=n)
        silent = np.where(
            (kind == 0)[:, None],
            True,
            (kind == 1)[:, None] & (rng.random((n, cols)) < 0.5),
        )
        col_codes = np.where(silent, period, rng.integers(0, period, size=(n, cols)))
        col_neurons = np.where(silent, -1, rng.integers(0, 5, size=(n, cols)))
        lengths = rng.integers(1, period + 1, size=n)
        trace = GammaTrace(period, lengths, rng.random(n) < 0.5, col_codes)
        summary = RunSummary(trace, col_neurons, epochs=epochs, images=images)
        # Few distinct labels, so majority votes often tie.
        labels = rng.integers(0, 3, size=images)
        labels = [labels.astype(np.uint8), labels, labels.tolist()][rng.integers(0, 3)]
        return summary, labels

    def test_random_records(self):
        rng = np.random.default_rng(20)
        seen = Counter()
        for _ in range(2000):
            summary, labels = self.random_summary(rng)
            trace = summary.trace
            winners = [
                oracle.network_winner(times, neurons)
                for times, neurons in zip(
                    trace.col_times.tolist(), summary.col_neurons.tolist()
                )
            ]
            got = list(zip(summary.win_col.tolist(), summary.win_neuron.tolist()))
            assert got == [(-1, -1) if w is None else w[:2] for w in winners]

            hist = spike_histogram(summary)
            assert (hist.counts, hist.inf_count) == oracle.spike_histogram(
                winners, trace.period
            )

            report = purity(summary, labels)
            ref_purity, ref_groups, ref_unassigned = oracle.purity(
                winners, [int(v) for v in labels], summary.epochs
            )
            # repr, not ==: the CSV writer formats with ``!r``.
            assert repr(report.purity) == repr(ref_purity)
            assert [
                (g.column, g.neuron, g.size, g.majority_label, g.majority_count)
                for g in report.groups
            ] == ref_groups
            assert all(
                type(v) is int for g in report.groups for v in vars(g).values()
            )
            assert report.unassigned == ref_unassigned

            savings = cycle_savings(trace, trace.period)
            ref = oracle.cycle_savings(
                trace.lengths.tolist(), trace.col_times.tolist(), trace.period
            )
            assert [repr(v) for v in savings] == [repr(v) for v in ref]

            times = trace.col_times
            seen["all-silent row"] += bool(np.isinf(times).all(axis=1).any())
            seen["partly silent row"] += bool(
                (np.isinf(times).any(axis=1) & np.isfinite(times).any(axis=1)).any()
            )
            seen["multi-epoch tiling"] += summary.epochs > 1
            seen["uint8 labels"] += getattr(labels, "dtype", None) == np.uint8
            votes = {}
            for w, lab in zip(winners, [int(v) for v in labels] * summary.epochs):
                if w is not None:
                    votes.setdefault(w[:2], Counter())[lab] += 1
            seen["label vote tie"] += any(
                len(c) > 1 and c[0] == c[1]
                for c in (sorted(v.values(), reverse=True) for v in votes.values())
            )
        assert min(seen.values()) >= 100, seen
