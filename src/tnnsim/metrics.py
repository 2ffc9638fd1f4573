"""Run analysis: spike-time histograms, winner purity, cycle savings.

Each metric is an array reduction over a run's columnar record; the
reports hold plain Python numbers, so the writers never print numpy reprs.

Purity is standard clustering purity over winner groups: presentations are
grouped by their winning (column, neuron), each group votes its majority
label, and purity is the fraction of presentations covered by those
majorities. Presentations with no winner join no group and score zero,
which keeps a silent network from looking pure.

Cycle savings compares the gamma period against what actually happened:

* realized savings use the cycle lengths the controller delivered,
* potential savings use the last column spike time itself, the bound an
  ideal zero-delay controller would reach.

A cycle in which some monitored column never fired could not have ended
early: its largest step code is the silent column's, the full period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import numpy as np

from .gamma import GammaTrace
from .network import RunSummary


@dataclass(frozen=True)
class SpikeHistogram:
    """Network winner spike-time counts over one run; index t holds time t."""

    counts: tuple[int, ...]
    inf_count: int

    @property
    def total(self) -> int:
        return sum(self.counts) + self.inf_count

    def mode_fraction(self) -> tuple[Optional[int], float]:
        """The busiest finite time and its share of all presentations."""
        if not any(self.counts):
            return None, 0.0
        best = self.counts.index(max(self.counts))
        return best, self.counts[best] / self.total


def spike_histogram(summary: RunSummary) -> SpikeHistogram:
    """Count network winner times over all presentations."""
    period = summary.trace.period
    # A winner's time is its step code; code ``period`` counts the silent ones.
    counts = np.bincount(summary.trace.col_codes.min(axis=1), minlength=period + 1).tolist()
    return SpikeHistogram(counts=tuple(counts[:period]), inf_count=counts[period])


@dataclass(frozen=True)
class GroupStat:
    column: int
    neuron: int
    size: int
    majority_label: int
    majority_count: int


@dataclass(frozen=True)
class PurityReport:
    purity: float
    groups: tuple[GroupStat, ...]
    unassigned: int


def purity(summary: RunSummary, labels: Sequence[int]) -> PurityReport:
    """Clustering purity of winner groups against the true labels.

    ``labels`` covers one dataset pass; multi-epoch summaries tile it.
    Majority ties go to the lowest label.
    """
    n = summary.gamma_cycles
    labs = np.asarray(labels, dtype=np.int64)
    if len(labs) * summary.epochs == n:
        labs = np.tile(labs, summary.epochs)
    if len(labs) != n:
        raise ValueError(
            f"{n} presentations but {len(labels)} labels (epochs={summary.epochs})"
        )
    if n == 0:
        return PurityReport(purity=0.0, groups=(), unassigned=0)
    won = summary.win_col >= 0
    pairs = np.stack([summary.win_col, summary.win_neuron], axis=1)[won]
    groups, group = np.unique(pairs, axis=0, return_inverse=True)
    values, label = np.unique(labs, return_inverse=True)
    votes = np.zeros((len(groups), len(values)), dtype=np.int64)
    # The inverse's shape for ``axis=0`` differs across numpy releases.
    np.add.at(votes, (group.reshape(-1), label[won]), 1)
    # argmax takes the first maximum, so the lowest label wins a tie.
    best = votes.argmax(axis=1)
    majority = votes[np.arange(len(groups)), best]
    # One row per group, in GroupStat's field order.
    table = np.column_stack([groups, votes.sum(axis=1), values[best], majority])
    stats = tuple(GroupStat(*row) for row in table.tolist())
    return PurityReport(int(majority.sum()) / n, stats, unassigned=int((~won).sum()))


def cycle_savings(trace: GammaTrace, period: int) -> tuple[float, float]:
    """(realized, potential) fractional savings against the fixed period,
    which must be the trace's.

    Realized uses delivered cycle lengths; potential uses last-spike steps,
    which charge cycles with silent columns the whole period.
    """
    if period != trace.period:
        raise ValueError(f"savings against period {period} of a trace with period {trace.period}")
    n = len(trace)
    if n == 0:
        raise ValueError("trace is empty")
    realized = 1.0 - (int(trace.lengths.sum()) / n) / period
    potential = 1.0 - (int(trace.col_codes.max(axis=1).sum()) / n) / period
    return realized, potential


def write_histogram_csv(hist: SpikeHistogram, stream: TextIO) -> None:
    stream.write("spike_time,count\n")
    for t, c in enumerate(hist.counts):
        stream.write(f"{t},{c}\n")
    stream.write(f"inf,{hist.inf_count}\n")
    stream.write(f"total,{hist.total}\n")


def histogram_markdown(hist: SpikeHistogram) -> str:
    lines = ["| spike time | occurrences |", "| --- | --- |"]
    for t, c in enumerate(hist.counts):
        lines.append(f"| {t} | {c} |")
    lines.append(f"| inf | {hist.inf_count} |")
    lines.append(f"| total | {hist.total} |")
    return "\n".join(lines) + "\n"


def write_purity_csv(report: PurityReport, stream: TextIO) -> None:
    stream.write("column,neuron,size,majority_label,majority_count\n")
    for g in report.groups:
        stream.write(
            f"{g.column},{g.neuron},{g.size},{g.majority_label},{g.majority_count}\n"
        )
    stream.write(f"unassigned,,{report.unassigned},,\n")
    stream.write(f"purity,,,,{report.purity!r}\n")


def purity_markdown(report: PurityReport) -> str:
    lines = [
        "| column | neuron | size | majority label | majority count |",
        "| --- | --- | --- | --- | --- |",
    ]
    for g in report.groups:
        lines.append(
            f"| {g.column} | {g.neuron} | {g.size} | {g.majority_label} | {g.majority_count} |"
        )
    lines.append(f"| unassigned | | {report.unassigned} | | |")
    lines.append("")
    lines.append(f"purity: {report.purity:.4f}")
    return "\n".join(lines) + "\n"


def write_savings_csv(realized: float, potential: float, stream: TextIO) -> None:
    stream.write("metric,fraction\n")
    stream.write(f"realized_savings,{realized!r}\n")
    stream.write(f"potential_savings,{potential!r}\n")
