"""Mutation check of the test suite: each row of ``MUTANTS`` breaks one
behaviour of ``src/`` and names tests that must catch it.

Run it from any directory, with a Python that has numpy, pytest and
hypothesis:

    python tests/mutants.py

First every listed test runs on an unmutated copy of the checkout, and
must pass. Then, one mutant at a time, the runner copies ``src/``,
``tests/``, ``perfbench/``, ``pyproject.toml`` and ``README.md`` into a
fresh temporary directory (``pyproject.toml`` puts that copy's ``src``
first on pytest's path; ``test_docs.py`` and ``test_bench_contract.py``
read the README and ``perfbench/spans.py``), replaces the row's snippet
with its replacement, and runs the row's tests with ``pytest -x``. A
mutant is killed when that run reports a failing test; it survives when
every test passes. The exit status is 1 if the unmutated copy fails, or if
any mutant survives or its run ends in anything but a test failure (an id
that names no test, say).

The file is not collected by the suite, since its name does not start with
``test_``; ``tests/test_mutants.py`` checks only that every row still
matches the code and names existing tests, so a refactor keeps the table
current without running it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    snippet: str  # occurs exactly once in ``path``
    replacement: str
    tests: tuple[str, ...]  # pytest ids, any of which failing kills it


NEURON = "src/tnnsim/neuron.py"
STDP = "src/tnnsim/stdp.py"
GAMMA = "src/tnnsim/gamma.py"
ENCODE = "src/tnnsim/encode.py"
NETWORK = "src/tnnsim/network.py"
METRICS = "src/tnnsim/metrics.py"
DATAIO = "src/tnnsim/dataio.py"
COSTMODEL = "src/tnnsim/costmodel.py"
CLI = "src/tnnsim/cli.py"
SYNTH = "src/tnnsim/synth.py"

A = "tests/test_acceptance.py::"
C = "tests/test_costmodel.py::"
D = "tests/test_dataio.py::"
E = "tests/test_encode.py::"
G = "tests/test_gamma.py::"
M = "tests/test_metrics.py::"
N = "tests/test_neuron.py::"
S = "tests/test_stdp.py::"
T = "tests/test_spike_times.py::"
V = "tests/test_volley.py::"
W = "tests/test_network.py::"
L = "tests/test_cli.py::"
GOLDEN = L + "TestTrainInferReport::test_golden_run_keeps_its_bytes"

MUTANTS = (
    # The spike-time kernel, neuron.py.
    Mutant(
        "kernel-below-count-less-equal", NEURON,
        "below = np.less(potential[:nxt], th,", "below = np.less_equal(potential[:nxt], th,",
        (
            N + "TestColumnKernel::test_fires_only_at_last_arrival_step",
            N + "TestNeuronSpikeTime::test_matches_brute_force",
            A + "test_criterion_05_rnl_oracle_equivalence",
        ),
    ),
    Mutant(
        "kernel-ties-to-highest-index", NEURON,
        "idx = below.argmin(axis=1)", "idx = below.shape[1] - 1 - below[:, ::-1].argmin(axis=1)",
        (
            N + "TestColumnKernel::test_tie_breaks_to_lowest_index",
            N + "TestWordBoundaries::test_matches_references[63]",
        ),
    ),
    Mutant(
        "kernel-mask-not-gathered", NEURON,
        "mask[touched, None]", "mask[:m, None]",
        (
            N + "TestWordBoundaries::test_clustered_volleys_match_references[65]",
            N + "TestWordBoundaries::test_matches_references[127]",
        ),
    ),
    Mutant(
        "kernel-gather-off-by-one-word", NEURON,
        "np.take(store, touched, axis=0", "np.take(store, touched + 1, axis=0",
        (
            N + "TestWordBoundaries::test_clustered_volleys_match_references[130]",
            N + "TestWorkspaceReuse::test_matches_fresh_calls[one-threshold]",
        ),
    ),
    Mutant(
        "kernel-sums-every-row", NEURON,
        "np.sum(counts[:m], axis=0, out=sums)", "np.sum(counts, axis=0, out=sums)",
        (
            N + "TestWorkspaceReuse::test_matches_fresh_calls[one-threshold]",
            N + "TestWordBoundaries::test_clustered_volleys_match_references[130]",
        ),
    ),
    Mutant(
        "kernel-no-tail-add", NEURON,
        "potential[s + band :] += product[band - 1]", "pass",
        (
            N + "TestNeuronSpikeTime::test_saturated_inputs_cross_high_threshold_at_five",
            N + "TestColumnKernel::test_silent_column_between_fired_ones",
        ),
    ),
    Mutant(
        "kernel-band-one-row-short", NEURON,
        "band = min(depth, period - s)", "band = min(depth - 1, period - s)",
        (
            N + "TestLayerSpikeTimes::test_matches_scalar_path",
            N + "TestLayerSpikeTimes::test_matches_brute_force_random",
        ),
    ),
    Mutant(
        "kernel-no-potential-reset", NEURON,
        "potential.fill(0)", "pass",
        (
            N + "TestWorkspaceReuse::test_matches_fresh_calls[one-threshold]",
            N + "TestColumnKernel::test_stops_once_every_column_answered",
        ),
    ),
    Mutant(
        "kernel-strict-ramp", NEURON,
        "np.greater_equal(np.arange(rows)[:, None]", "np.greater(np.arange(rows)[:, None]",
        (
            N + "TestNeuronSpikeTime::test_time_zero_spike_with_low_threshold",
            N + "TestColumnKernel::test_threshold_one_step_before_next_arrival",
        ),
    ),
    Mutant(
        "kernel-ramp-rows-uncapped", NEURON,
        "rows = min(depth, period)", "rows = depth",
        (
            N + "TestExactPotential::test_planes_past_the_period_keep_float32",
            N + "TestKernelBytes::test_bounds_measured_peak[4-2-3-2000-16-1000000000-graded]",
        ),
    ),
    Mutant(
        "kernel-bytes-ramp-uncapped", NEURON,
        "8 * min(depth, period) * depth", "8 * depth * depth",
        (
            "tests/test_docs.py::test_readme_kernel_bound_matches_code[4-3-7-4]",
            W + "TestConfig::test_planes_deeper_than_the_period_count_in_full",
        ),
    ),
    Mutant(
        "kernel-float32-always", NEURON,
        "dtype = np.float32 if reach < 1 << 24 else np.float64", "dtype = np.float32",
        (N + "TestExactPotential::test_potential_past_float32",),
    ),
    Mutant(
        "kernel-no-threshold-ceiling", NEURON,
        "np.ceil(th.astype(np.float64)).astype(dtype)", "th.astype(dtype)",
        (N + "TestExactPotential::test_fractional_threshold_is_its_ceiling",),
    ),
    Mutant(
        "kernel-threshold-clipped-to-reach", NEURON,
        "(n_neurons,)), reach + 1)", "(n_neurons,)), reach)",
        (
            N + "TestExactPotential::test_potential_past_float32",
            N + "TestLayerSpikeTimes::test_matches_brute_force_random",
        ),
    ),
    Mutant(
        "kernel-count-uint16-always", NEURON,
        "self.count_dtype = np.min_scalar_type(period)", "self.count_dtype = np.uint16",
        (N + "TestLayerSpikeTimes::test_silent_past_a_uint16_count",),
    ),
    Mutant(
        "kernel-sums-one-byte", NEURON,
        "dtype=np.min_scalar_type(lines))", "dtype=np.uint8)",
        (
            N + "TestNeuronSpikeTime::test_saturated_inputs_cross_high_threshold_at_five",
            N + "TestWordBoundaries::test_matches_references[127]",
        ),
    ),
    Mutant(
        "kernel-silent-codes-int64", NEURON,
        "silent = np.full(cols, period, dtype=work.count_dtype)", "silent = np.full(cols, period)",
        (W + "TestSummaryArtifacts::test_record_widths_at_their_boundaries[255-128]",),
    ),
    Mutant(
        "workspace-bank-copied", NEURON,
        "self.weights, self.period, self.lines = weights, period, lines",
        "self.weights, self.period, self.lines = weights.copy(), period, lines",
        (N + "TestWorkspaceReuse::test_holds_the_bank_it_was_given",),
    ),
    Mutant(
        "workspace-cols-from-neurons", NEURON,
        "self.cols, _, lines = weights.shape", "_, self.cols, lines = weights.shape",
        (N + "TestWorkspaceReuse::test_holds_the_bank_it_was_given",),
    ),
    Mutant(
        "kernel-copied-store", NEURON,
        "self.store = self.planes.transpose(2, 0, 1).reshape(words, -1)",
        "self.store = self.planes.transpose(2, 0, 1).reshape(words, -1).copy()",
        (
            S + "TestLearningState::test_kernel_reads_every_update",
            N + "TestWorkspaceReuse::test_matches_fresh_calls[one-threshold]",
        ),
    ),
    Mutant(
        "kernel-bytes-8-period", NEURON,
        "9 * period + 48", "8 * period + 48",
        (
            "tests/test_docs.py::test_readme_kernel_bound_matches_code[4-3-7-4]",
            W + "TestConfig::test_kernel_working_set_bounded",
        ),
    ),
    Mutant(
        "planes-greater-equal", NEURON,
        "np.greater(padded, k, out=stack[k])", "np.greater_equal(padded, k, out=stack[k])",
        (
            N + "TestLayerSpikeTimes::test_planes_mark_whole_units",
            N + "TestNeuronSpikeTime::test_matches_brute_force",
        ),
    ),
    Mutant(
        "config-per-layer-kernel-bound", NETWORK,
        "total += need", "total = need",
        (W + "TestConfig::test_kernel_working_sets_add_up",),
    ),
    Mutant(
        "config-threshold-any-number", NETWORK,
        'check_int("threshold", t, 1)', 'check_int("threshold", t if t < 1 else 1, 1)',
        (
            W + "TestConfig::test_threshold_must_be_an_integer_at_least_one[nan]",
            W + "TestConfig::test_threshold_must_be_an_integer_at_least_one[2.5]",
        ),
    ),
    Mutant(
        "config-integer-takes-floats", ENCODE,
        "not isinstance(value, (int, np.integer))", "not isinstance(value, (int, float, np.integer))",
        (
            W + "TestConfig::test_integer_fields_must_be_integers[period-fraction]",
            S + "TestApplyUpdate::test_params_validated",
        ),
    ),
    Mutant(
        "parity-packed-only-when-planes-fit-the-period", STDP,
        "self.parity = pack_lines(low)",
        "self.parity = pack_lines(low if params.w_max <= work.period else 0 * low)",
        (
            W + "TestReferenceRun::test_network_equals_reference[w_max-gt-period]",
            W + "TestWeightsWrittenBack::test_presentations_before_a_failure_are_kept"
            "[w_max-gt-period]",
        ),
    ),
    Mutant(
        "kernel-early-stop-strict", NEURON,
        "(potential[nxt - 1] >= th)", "(potential[nxt - 1] > th)",
        (N + "TestColumnKernel::test_stops_once_every_column_answered",),
    ),
    Mutant(
        "kernel-rechecks-made-volley", NEURON,
        "volley = Volley.from_times(volley, period)",
        "volley = Volley.from_times(np.asarray(volley, dtype=float), period)",
        (V + "test_a_run_checks_no_volley_it_made",),
    ),
    # Made volleys, encode.Volley and the encoders.
    Mutant(
        "volley-from-times-int64", ENCODE,
        ".astype(np.min_scalar_type(period)), period)", ".astype(np.int64), period)",
        (W + "TestSummaryArtifacts::test_record_widths_at_their_boundaries[256-129]",),
    ),
    Mutant(
        "graded-codes-int64", ENCODE,
        "codes = codes.astype(np.min_scalar_type(kind.period))", "codes = codes.astype(np.int64)",
        (W + "TestSummaryArtifacts::test_record_widths_at_their_boundaries[255-129]",),
    ),
    Mutant(
        "volley-drops-last-step", ENCODE,
        "counts.nonzero()[0])", "counts.nonzero()[0][:-1])",
        (
            V + "TestEncodedVolley::test_equals_checked_times[16]",
            W + "TestReferenceRun::test_network_equals_reference[linear]",
        ),
    ),
    Mutant(
        "posneg-encoder-drops-its-step", ENCODE,
        "Volley(codes, 1, _POSNEG_STEPS,", "Volley(codes, 1, _POSNEG_STEPS[:0],",
        (
            V + "TestEncodedVolley::test_equals_checked_times[16]",
            A + "test_criterion_06_low_threshold_time_zero",
        ),
    ),
    Mutant(
        "volley-codes-writable", ENCODE,
        "codes.setflags(write=False)", "pass",
        (V + "TestVolley::test_arrays_are_read_only",),
    ),
    Mutant(
        "volley-from-a-longer-cycle-accepted", ENCODE,
        "if times.period > period:", "if False:",
        (V + "TestVolley::test_made_volley_passes_through_a_longer_cycle",),
    ),
    # The one spike-time rule, encode.Volley.from_times.
    Mutant(
        "spike-rule-no-upper-bound", ENCODE,
        "if 0 <= lo <= hi < period:", "if 0 <= lo <= hi:",
        (T + "TestRejected::test_rule[16]", G + "TestRunCycle::test_matches_oracle"),
    ),
    Mutant(
        "spike-rule-no-whole-step-check", ENCODE,
        "bad = live[np.floor(live) != live]", "bad = live[:0]",
        (
            T + "TestRejected::test_rule[2.5]",
            S + "TestBitSlicedSteps::test_winner_time_must_be_a_whole_step[2.5]",
        ),
    ),
    Mutant(
        "spike-rule-names-wrong-value", ENCODE,
        "bad = [lo if not lo >= 0 else hi]", "bad = [hi]",
        (T + "TestRejected::test_rule[-1]", T + "TestRejected::test_rule[-inf]"),
    ),
    Mutant(
        "spike-rule-takes-2d-times", ENCODE,
        "if t.ndim != 1:", "if False:",
        (
            T + "TestNotOneDimensional::test_kernel",
            T + "TestNotOneDimensional::test_run_cycle[True]",
        ),
    ),
    # The STDP rule, stdp._groups.
    Mutant(
        "stdp-capture-strict", STDP,
        'side="right"', 'side="left"',
        (
            S + "TestUpdateLayer::test_matches_scalar_column_updates",
            S + "TestUpdateLayerOnPlanes::test_matches_scalar_column_updates",
        ),
    ),
    Mutant(
        "stdp-search-quiet-swapped", STDP,
        "min(p.u_search, cap), min(p.u_quiet, cap)", "min(p.u_quiet, cap), min(p.u_search, cap)",
        (
            S + "TestUpdateLayer::test_silent_layer_explores",
            S + "TestUpdateLayerOnPlanes::test_silent_layer_explores",
        ),
    ),
    Mutant(
        "stdp-quiet-plus-one", STDP,
        "min(p.u_quiet, cap)", "min(p.u_quiet + 1, cap)",
        (
            S + "TestUpdateLayer::test_silent_layer_explores",
            S + "TestUpdateLayerOnPlanes::test_silent_layer_explores",
        ),
    ),
    Mutant(
        "stdp-no-silent-column-update", STDP,
        "if silent.size:", "if False:",
        (
            S + "TestUpdateLayer::test_silent_layer_explores",
            S + "TestUpdateLayerOnPlanes::test_silent_layer_explores",
        ),
    ),
    Mutant(
        "stdp-silent-search-on-every-line", STDP,
        "(rows, captured[-1],", "(rows, ~captured[0],",
        (
            S + "TestUpdateLayer::test_silent_layer_explores",
            S + "TestUpdateLayerOnPlanes::test_silent_layer_explores",
        ),
    ),
    Mutant(
        "stdp-winner-mask-argmin", STDP,
        "searchsorted(at, side", "searchsorted(at.min(), side",
        (
            S + "TestUpdateLayer::test_matches_scalar_column_updates",
            S + "TestUpdateLayerOnPlanes::test_matches_scalar_column_updates",
        ),
    ),
    Mutant(
        "stdp-winner-at-inf-accepted", STDP,
        "if (at >= z.period).any():", "if False:",
        (
            T + "test_a_winner_at_inf_is_rejected",
            S + "TestBitSlicedSteps::test_winner_time_must_be_a_whole_step[inf]",
        ),
    ),
    Mutant(
        "stdp-winner-index-unbounded-above", STDP,
        "(winner_idx < -1) | (winner_idx >= neurons)", "winner_idx < -1",
        (
            S + "TestUpdateLayer::test_winner_index_must_name_a_neuron[5]",
            S + "TestUpdateLayerOnPlanes::test_winner_index_must_name_a_neuron[2]",
        ),
    ),
    Mutant(
        "stdp-volley-lines-unchecked", STDP,
        "if len(x) != lines:", "if False:",
        (
            S + "TestUpdateLayer::test_volley_must_have_the_bank_lines",
            S + "TestUpdateLayerOnPlanes::test_volley_must_have_the_bank_lines",
        ),
    ),
    Mutant(
        "stdp-winner-volley-unchecked", STDP,
        "z = Volley.from_times(z, period)",
        "z = z if isinstance(z, Volley) else Volley.from_times(z, period)",
        (S + "TestBitSlicedSteps::test_winner_volley_is_held_to_the_layer_period",),
    ),
    Mutant(
        "stdp-silent-column-time-read", STDP,
        "z = np.where(winner_idx < 0, INF, z)", "pass",
        (
            S + "TestUpdateLayer::test_silent_column_time_is_read_nowhere",
            S + "TestUpdateLayerOnPlanes::test_silent_column_time_is_read_nowhere",
        ),
    ),
    Mutant(
        "stdp-one-time-for-every-column", STDP,
        "np.shape(z) == winner_idx.shape:", "True:",
        (
            S + "TestUpdateLayer::test_one_winner_and_time_per_column",
            S + "TestUpdateLayerOnPlanes::test_one_winner_and_time_per_column",
        ),
    ),
    Mutant(
        "stdp-accumulate-off-by-one", STDP,
        "out=captured[1:]", "out=captured[:-1]",
        (
            S + "TestUpdateLayer::test_silent_layer_explores",
            S + "TestUpdateLayerOnPlanes::test_matches_scalar_column_updates",
        ),
    ),
    # Its steps on the planes and parity, stdp._step and stdp._update_rows.
    Mutant(
        "planes-capture-backoff-swapped", STDP,
        "_step(at, lo, depth, held, first)", "_step(at, lo, depth, held, second)",
        (
            S + "TestUpdateLayer::test_matches_scalar_column_updates",
            S + "TestNoWrap::test_huge_capture_saturates[40000]",
        ),
    ),
    Mutant(
        "planes-half-unit-past-cap", STDP,
        "parity & plane(m + odd) & ~plane(depth + m + odd)", "parity & plane(m + odd)",
        (
            S + "TestNoWrap::test_every_case_matches_scalar_rule[32767-7]",
            S + "TestBitSlicedSteps::test_every_step_on_every_weight[2]",
        ),
    ),
    Mutant(
        "planes-top-end-misses-odd-step", STDP,
        "~plane(depth + m + odd)", "~plane(depth + m)",
        (S + "TestBitSlicedSteps::test_every_step_on_every_weight[2]",),
    ),
    Mutant(
        "planes-odd-add-parity-dropped", STDP,
        "| (planes & parity)", "",
        (
            S + "TestUpdateLayerOnPlanes::test_matches_scalar_column_updates",
            S + "TestBitSlicedSteps::test_every_step_on_every_weight[1]",
        ),
    ),
    Mutant(
        "planes-odd-step-parity-unflipped", STDP,
        "parity = ~parity", "parity = parity",
        (
            S + "TestUpdateLayerOnPlanes::test_silent_layer_explores",
            S + "TestBitSlicedSteps::test_every_step_on_every_weight[1]",
        ),
    ),
    Mutant(
        "planes-floor-unclipped", STDP,
        "stack[lo + max(k, 0) - 1]", "stack[lo + k - 1]",
        (
            S + "TestUpdateLayerOnPlanes::test_matches_scalar_column_updates",
            S + "TestBitSlicedSteps::test_every_step_on_every_weight[1]",
        ),
    ),
    Mutant(
        # ``lo`` falls to 0 only beside a step of 0, whose parity reads plane 0.
        "stdp-stack-without-plane-0", STDP,
        "lo = max(1, (max(first, second) + 1) // 2)", "lo = max(0, (max(first, second) + 1) // 2)",
        (S + "TestBitSlicedSteps::test_every_step_on_every_weight[1]",),
    ),
    Mutant(
        "stdp-stack-low-pad-rounds-down", STDP,
        "(max(first, second) + 1) // 2", "max(first, second) // 2",
        (
            S + "TestBitSlicedSteps::test_every_step_on_every_weight[2]",
            S + "TestBitSlicedSteps::test_every_step_on_every_weight[3]",
        ),
    ),
    Mutant(
        "stdp-stack-high-pad-rounds-down", STDP,
        "hi = (max(0, -first, -second) + 1) // 2", "hi = max(0, -first, -second) // 2",
        (S + "TestBitSlicedSteps::test_every_step_on_every_weight[1]",),
    ),
    Mutant(
        "planes-first-mask-for-every-winner", STDP,
        "searchsorted(at, side", "searchsorted(at[:1], side",
        (
            S + "TestUpdateLayerOnPlanes::test_matches_scalar_column_updates",
            W + "TestReferenceRun::test_network_equals_reference[linear]",
        ),
    ),
    Mutant(
        "planes-parity-select-dropped", STDP,
        "held_other ^ ((held_first ^ held_other) & sel)", "held_first",
        (
            S + "TestUpdateLayerOnPlanes::test_silent_layer_explores",
            S + "TestBitSlicedSteps::test_every_step_on_every_weight[3]",
        ),
    ),
    Mutant(
        "stdp-row-block-drops-last-row", STDP,
        "part = rows[r : r + block]", "part = rows[r : r + block - 1]",
        (
            S + "TestUpdateLayerInBlocks::test_silent_layer_explores",
            S + "TestLearningState::test_silent_layer_steps_in_blocks[400]",
        ),
    ),
    Mutant(
        "stdp-rows-in-one-block", STDP,
        "block = max(1, _PACK_CHUNK // (8 * (lo + depth + hi) * words))", "block = rows.size",
        (S + "TestLearningState::test_silent_layer_steps_in_blocks[100]",),
    ),
    # The learning state, stdp.LearningState.
    Mutant(
        "learning-state-w-max-unchecked", STDP,
        "if depth != params.w_max:", "if False:",
        (S + "TestBitSlicedSteps::test_planes_must_hold_w_max",),
    ),
    Mutant(
        "learning-state-parity-unpacked", STDP,
        'low = np.bitwise_and(work.weights, 1, dtype=np.uint8, casting="unsafe").view(bool)',
        "low = np.zeros(work.weights.shape, dtype=bool)",
        (
            S + "TestUpdateLayer::test_matches_scalar_column_updates",
            T + "TestAccepted::test_stdp_stores[0]",
        ),
    ),
    Mutant(
        "learning-state-unpacks-a-copy", STDP,
        "work.weights.reshape(-1, work.lines))", "work.weights.reshape(-1, work.lines).copy())",
        (S + "TestLearningState::test_unpack_writes_the_scalar_rule_into_the_bank",),
    ),
    # Gamma control, gamma.py.
    Mutant(
        "gamma-control-at-rollover", GAMMA,
        "end < period", "end <= period",
        (
            G + "TestRunCycle::test_spike_on_last_step_cannot_beat_rollover",
            A + "test_criterion_04_gamma_functional_suite",
        ),
    ),
    Mutant(
        "gamma-control-without-all-fired", GAMMA,
        "if volley.period < period:", "if False:",
        (V + "TestVolley::test_silence_counts_in_the_volley_cycle",),
    ),
    Mutant(
        "gamma-fixed-mode-ends-early", GAMMA,
        "if not relaxed:", "if False:",
        (
            G + "TestRunCycle::test_fixed_mode_always_runs_full_period",
            G + "TestRunCycle::test_matches_oracle",
        ),
    ),
    Mutant(
        "gamma-control-length-short", GAMMA,
        "np.minimum(end, period)", "np.minimum(end - 1, period)",
        (
            G + "TestRunCycle::test_simultaneous_spikes_end_one_step_later",
            G + "TestRunCycle::test_matches_oracle",
        ),
    ),
    Mutant(
        "gamma-reads-first-step", GAMMA,
        "end = codes.max(axis=-1)", "end = codes.min(axis=-1)",
        (
            G + "TestRunCycle::test_last_column_gates_the_reset",
            G + "TestRunCycle::test_matches_oracle",
        ),
    ),
    Mutant(
        "gamma-rule-unwidened", GAMMA,
        ".astype(np.int64) + 1", " + 1",
        (W + "TestSummaryArtifacts::test_record_widths_at_their_boundaries[255-128]",),
    ),
    Mutant(
        "gamma-rule-plus-one-dropped", GAMMA,
        ".astype(np.int64) + 1", ".astype(np.int64)",
        (
            G + "TestRunCycle::test_simultaneous_spikes_end_one_step_later",
            W + "TestSummaryArtifacts::test_record_widths_at_their_boundaries[255-128]",
        ),
    ),
    Mutant(
        "gamma-shorter-cycle-silence-narrow", GAMMA,
        "codes.astype(np.min_scalar_type(period)), period)", "codes, period)",
        (G + "TestRunCycle::test_silence_of_a_shorter_cycle_holds_at_any_period[300]",),
    ),
    Mutant(
        "trace-codes-unchecked", GAMMA,
        "if not np.array_equal(self.col_codes, codes) or (self.col_codes > self.period).any():",
        "if (self.col_codes > self.period).any():",
        (
            G + "TestTrace::test_rejects_codes_that_are_not_steps[16--1]",
            G + "TestTrace::test_rejects_codes_that_are_not_steps[255-300]",
        ),
    ),
    Mutant(
        "trace-codes-one-byte", GAMMA,
        "width = np.min_scalar_type(self.period)", "width = np.uint8",
        (W + "TestSummaryArtifacts::test_record_widths_at_their_boundaries[256-128]",),
    ),
    Mutant(
        "trace-lengths-int64", GAMMA,
        "self.lengths = lengths.astype(width, copy=False)", "self.lengths = lengths.astype(np.int64)",
        (W + "TestSummaryArtifacts::test_record_widths_at_their_boundaries[255-128]",),
    ),
    Mutant(
        "trace-lengths-narrowed-before-check", GAMMA,
        "lengths, codes = np.asarray(self.lengths), np.asarray(self.col_codes)",
        "lengths, codes = np.asarray(self.lengths).astype(np.uint8), np.asarray(self.col_codes)",
        (
            W + "TestSummaryArtifacts::test_summary_npz_length_past_its_width_rejected[256]",
            W + "TestSummaryArtifacts::test_summary_npz_length_past_its_width_rejected[-1]",
        ),
    ),
    Mutant(
        "loader-winners-int64", NETWORK,
        "summary.col_neurons = neurons.astype(", "summary.col_neurons = neurons; (",
        (W + "TestSummaryArtifacts::test_record_widths_at_their_boundaries[255-128]",),
    ),
    Mutant(
        "loader-winners-narrowed-before-check", NETWORK,
        'times, neurons = data["col_times"], data["col_neurons"]',
        'times, neurons = data["col_times"], data["col_neurons"].astype(np.int8)',
        (W + "TestSummaryArtifacts::test_summary_npz_winner_past_its_width_rejected",),
    ),
    Mutant(
        "loader-winners-two-bytes", NETWORK,
        "np.min_scalar_type(-1 - top)", "np.int16",
        (W + "TestSummaryArtifacts::test_summary_npz_winner_keeps_its_value_past_two_bytes",),
    ),
    Mutant(
        "loader-winners-past-int64-unchecked", NETWORK,
        "if top > np.iinfo(np.int64).max:", "if False:",
        (W + "TestSummaryArtifacts::test_summary_npz_winner_past_int64_rejected[9223372036854775813]",),
    ),
    Mutant(
        "loader-winners-int64-max-refused", NETWORK,
        "if top > np.iinfo(np.int64).max:", "if top >= np.iinfo(np.int64).max:",
        (W + "TestSummaryArtifacts::test_summary_npz_winner_at_int64_max_loads",),
    ),
    Mutant(
        "loader-winners-bounded-after-int64-cast", NETWORK,
        "top = int(neurons.max(initial=0))", "top = int(neurons.astype(np.int64).max(initial=0))",
        (W + "TestSummaryArtifacts::test_summary_npz_winner_past_int64_rejected[9223372036854775813]",),
    ),
    Mutant(
        "trace-times-unchecked", NETWORK,
        "Volley.from_times(times.ravel(), period).codes",
        "Volley(np.where(times == INF, period, times).ravel().astype(np.int64), period).codes",
        (T + "TestRejected::test_trace[2.5]", T + "TestRejected::test_trace[16]"),
    ),
    Mutant(
        "summary-loader-rule-unchecked", NETWORK,
        "bad = np.flatnonzero((trace.lengths != want[0]) | (trace.control != want[1]))",
        "bad = np.flatnonzero(want[1] != want[1])",
        (
            W + "TestSummaryArtifacts::test_summary_npz_control_cycle_ends_after_its_last_time",
            W + "TestSummaryArtifacts::test_summary_npz_period_cycle_runs_the_period",
        ),
    ),
    Mutant(
        "run-winners-one-byte", NETWORK,
        "dtype=np.min_scalar_type(-neurons)", "dtype=np.int8",
        (W + "TestSummaryArtifacts::test_record_widths_at_their_boundaries[255-129]",),
    ),
    Mutant(
        "win-col-ties-to-highest", NETWORK,
        "codes.argmin(axis=1), -1)", "codes.shape[1] - 1 - codes[:, ::-1].argmin(axis=1), -1)",
        (M + "TestAgainstPerRowReference::test_random_records",),
    ),
    # The CSV writers.
    Mutant(
        "trace-csv-comma-separated", GAMMA,
        '";".join(', '",".join(',
        (G + "TestTrace::test_lengths_and_csv", GOLDEN),
    ),
    Mutant(
        "summary-csv-silent-tail", NETWORK,
        'tail = ",,inf"', 'tail = ",,"',
        (W + "TestSummaryArtifacts::test_silent_rows_marked_inf", GOLDEN),
    ),
    Mutant(
        "histogram-csv-no-total", METRICS,
        'stream.write(f"total,{hist.total}\\n")', "pass",
        (M + "TestSpikeHistogram::test_csv_and_markdown", GOLDEN),
    ),
    Mutant(
        "purity-csv-rounded", METRICS,
        'f"purity,,,,{report.purity!r}\\n"', 'f"purity,,,,{report.purity:.4f}\\n"',
        (M + "TestPurity::test_csv_and_markdown", GOLDEN),
    ),
    Mutant(
        "savings-csv-rounded", METRICS,
        'f"realized_savings,{realized!r}\\n"', 'f"realized_savings,{realized:.4f}\\n"',
        (M + "TestCycleSavings::test_savings_csv", GOLDEN),
    ),
    # Encoders, run records and input files.
    Mutant(
        "posneg-equal-joins-positive", ENCODE,
        "np.greater(pixels, self.threshold, out=out)",
        "np.greater_equal(pixels, self.threshold, out=out)",
        (
            E + "TestPosNegBits::test_equal_joins_negative_side",
            A + "test_criterion_01_posneg_golden_encoding",
        ),
    ),
    Mutant(
        "linear-level-rounds-up", ENCODE,
        "(v * kind.period + 255) // 256", "(v * kind.period + 256) // 256",
        (
            E + "TestLinear::test_quantization_points",
            E + "TestReadmeFormulas::test_every_intensity_period_and_encoder",
        ),
    ),
    Mutant(
        "encoder-takes-any-intensity", ENCODE,
        "bad = v[~((v >= 0) & (v <= 255) & (np.floor(v) == v))]", "bad = v[:0]",
        (E + "TestEncoderValidation::test_intensities_must_be_whole_numbers_in_range",),
    ),
    Mutant(
        "savings-any-period", METRICS,
        "if period != trace.period:", "if False:",
        (M + "TestCycleSavings::test_period_must_be_the_traces",),
    ),
    Mutant(
        "savings-any-column-fired", METRICS,
        "trace.col_codes.max(axis=1).sum()",
        "np.where(trace.col_codes < period, trace.col_codes, 0).max(axis=1).sum()",
        (
            M + "TestCycleSavings::test_silent_column_charges_full_period",
            M + "TestAgainstPerRowReference::test_random_records",
        ),
    ),
    Mutant(
        "savings-silent-code-uncharged", METRICS,
        "trace.col_codes.max(axis=1).sum()", "(trace.col_codes.max(axis=1) % period).sum()",
        (
            M + "TestCycleSavings::test_silent_column_charges_full_period",
            M + "TestCycleSavings::test_mixed_trace_averages",
        ),
    ),
    Mutant(
        "run-summary-neuron-below-minus-one", NETWORK,
        " or (self.col_neurons < -1).any()", "",
        (W + "TestSummaryArtifacts::test_column_neurons_below_minus_one_rejected",),
    ),
    # The batched posneg layer 0 of an inference, neuron.py and network.py.
    Mutant(
        "posneg-batch-no-period-tail", NEURON,
        "count[below[:, -1]] = period", "pass",
        (
            N + "TestPosnegBatch::test_matches_reference[w_max-lt-period-reach+1-1048576]",
            N + "TestPosnegBatch::test_every_neuron_and_image_block",
        ),
    ),
    Mutant(
        "posneg-batch-below-less-equal", NEURON,
        "below = potential < th[cs, ns]", "below = potential <= th[cs, ns]",
        (
            N + "TestPosnegBatch::test_matches_reference[w_max-lt-period-reach-1048576]",
            N + "TestPosnegBatch::test_matches_reference[w_max-gt-period-reach-600]",
        ),
    ),
    Mutant(
        "posneg-batch-negative-base-dropped", NEURON,
        "potential += base", "pass",
        (
            N + "TestPosnegBatch::test_matches_reference[w_max-lt-period-per-neuron-2000]",
            N + "TestPosnegBatch::test_matches_layer_kernel",
        ),
    ),
    Mutant(
        "posneg-batch-ties-to-highest-index", NEURON,
        "win = count.argmin(axis=2)", "win = count.shape[2] - 1 - count[:, :, ::-1].argmin(axis=2)",
        (
            N + "TestPosnegBatch::test_matches_reference[w_max-lt-period-one-1048576]",
            N + "TestPosnegBatch::test_matches_reference[w_max-gt-period-one-6000]",
        ),
    ),
    Mutant(
        "posneg-batch-later-block-wins-ties", NEURON,
        "better = code < codes[i:j, cs]", "better = code <= codes[i:j, cs]",
        (
            N + "TestPosnegBatch::test_matches_reference[w_max-lt-period-one-600]",
            N + "TestPosnegBatch::test_matches_reference[w_max-gt-period-reach-2000]",
        ),
    ),
    Mutant(
        "posneg-batch-image-block-off-by-one", NEURON,
        "j = min(i + batch, images)", "j = min(i + batch - 1, images)",
        (
            N + "TestPosnegBatch::test_every_neuron_and_image_block",
            N + "TestPosnegBatch::test_matches_reference[w_max-lt-period-one-1048576]",
        ),
    ),
    Mutant(
        "posneg-batch-neuron-block-off-by-one", NEURON,
        "ns = slice(a, a + sub)", "ns = slice(a, a + sub - 1)",
        (
            N + "TestPosnegBatch::test_matches_reference[w_max-lt-period-per-neuron-2000]",
            N + "TestPosnegBatch::test_matches_layer_kernel",
        ),
    ),
    Mutant(
        "posneg-batch-codes-int64", NEURON,
        "codes = np.full((images, cols), period, dtype=work.count_dtype)",
        "codes = np.full((images, cols), period, dtype=np.int64)",
        (W + "TestSummaryArtifacts::test_record_widths_at_their_boundaries[256-128]",),
    ),
    Mutant(
        "posneg-batch-winners-int64", NEURON,
        "dtype=np.min_scalar_type(-per))", "dtype=np.int64)",
        (W + "TestSummaryArtifacts::test_record_widths_at_their_boundaries[255-129]",),
    ),
    Mutant(
        "infer-posneg-unbatched", NETWORK,
        "batched = learning is None and isinstance(cfg.encoder, PosNeg)", "batched = False",
        (W + "TestReferenceRun::test_seeded_random_configs",),
    ),
    Mutant(
        "weights-shape-unchecked", NETWORK,
        "if arr.shape != current.shape:", "if False:",
        (W + "TestSummaryArtifacts::test_weights_shape_mismatch_rejected",),
    ),
    # Comparator-bank counts, costmodel.py.
    Mutant(
        "cost-comparator-count-rounded", COSTMODEL,
        'check_int("comparator_count", self.comparator_count, 1)',
        'check_int("comparator_count", round(self.comparator_count), 1)',
        (C + "TestValidation::test_counts_must_be_integers[comparator_count-2.5]",),
    ),
    Mutant(
        "cost-pixel-count-rounded", COSTMODEL,
        'check_int("pixels_per_image", self.pixels_per_image, 1)',
        'check_int("pixels_per_image", round(self.pixels_per_image), 1)',
        (C + "TestValidation::test_counts_must_be_integers[pixels_per_image-783.5]",),
    ),
    # Mapped IDX files, dataio.py.
    Mutant(
        "idx-file-copied", DATAIO,
        "if stat.S_ISREG(info.st_mode) and", "if False and",
        (D + "TestReadFromFile::test_dataset_outlives_its_file",),
    ),
    Mutant(
        "idx-map-from-file-start", DATAIO,
        "access=mmap.ACCESS_READ))[start:]", "access=mmap.ACCESS_READ))[0:]",
        (D + "TestReadFromFile::test_reads_from_the_stream_position",),
    ),
    Mutant(
        "idx-map-leaves-stream-unread", DATAIO,
        "data.seek(0, io.SEEK_END)", "pass",
        (D + "TestReadFromFile::test_dataset_outlives_its_file",),
    ),
    Mutant(
        "idx-payload-bound-doubled", DATAIO,
        "if need > _MAX_DECLARED:", "if need > 2 * _MAX_DECLARED:",
        ("tests/test_dataio.py::TestReadIdxImages::test_dimension_overflow",),
    ),
    Mutant(
        "labels-magic-unchecked", DATAIO,
        "if magic != IDX_LABEL_MAGIC:", "if False:",
        (D + "TestReadIdxLabels::test_bad_magic_named",),
    ),
    Mutant(
        "labels-negative-count", DATAIO,
        "if count < 0:", "if count > _MAX_DECLARED:",
        (D + "TestReadIdxLabels::test_declared_count_out_of_range[-1]",),
    ),
    # Config reading, cli.py; synthetic digits, synth.py; the rest of a run's
    # rejections and reports.
    Mutant(
        "cli-run-integer-any-text", CLI,
        'raise ConfigError(f"key {key!r}: {cfg[key]!r} is not an integer") from None',
        "return default",
        (L + "TestTrainInferReport::test_epochs_not_an_integer_exits_one",),
    ),
    Mutant(
        "cli-images-key-unchecked", CLI,
        "if img_key is None:", "if False:",
        (L + "TestTrainInferReport::test_config_without_images_exits_one[train-('train_images', 'images')]",),
    ),
    Mutant(
        "train-epochs-any-number", NETWORK,
        'check_int("epochs", epochs, 1)', 'check_int("epochs", epochs if epochs < 1 else 1, 1)',
        (
            W + "TestLearning::test_epochs_must_be_an_integer[2.5]",
            W + "TestLearning::test_epochs_must_be_an_integer[True]",
        ),
    ),
    Mutant(
        "dataset-any-count", SYNTH,
        "if count < 1:", "if False:",
        (L + "TestSynthScript::test_make_dataset_takes_a_count[0]",),
    ),
    Mutant(
        "glyph-any-digit", SYNTH,
        "if digit not in _DIGIT_SEGMENTS:", "if False:",
        (L + "TestSynthScript::test_glyph_takes_a_digit[10]",),
    ),
    Mutant(
        "volley-repr-codes", ENCODE,
        'f"Volley({self.times.tolist()!r}', 'f"Volley({self.codes.tolist()!r}',
        (V + "TestVolley::test_repr_shows_times_and_period",),
    ),
    Mutant(
        "purity-empty-record-divides", METRICS,
        "return PurityReport(purity=0.0, groups=(), unassigned=0)", "pass",
        (M + "TestPurity::test_empty_record_scores_zero",),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {text.count(mutant.snippet)} times")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def run_on_copy(ids, mutant=None) -> subprocess.CompletedProcess:
    """``pytest -x`` on ``ids`` in a fresh copy of the checkout, with
    ``mutant`` applied to it; the copy finds ``tnnsim`` in its own ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".*")
                shutil.copytree(ROOT / name, root / name, ignore=ignore)
            else:
                shutil.copy2(ROOT / name, root / name)
        if mutant is not None:
            apply(mutant, root)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
            cwd=root, env=env, capture_output=True, text=True,
        )


def tail(proc: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-lines:])


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    ids = sorted({i for m in MUTANTS for i in m.tests})
    proc = run_on_copy(ids)
    ok = proc.returncode == 0
    if ok:
        print(f"unmutated copy passes all {len(ids)} tests")
    else:
        print(f"unmutated copy fails its tests (exit {proc.returncode}):\n{tail(proc)}")
    killed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        proc = run_on_copy(mutant.tests, mutant)
        took = time.perf_counter() - start
        # pytest exits 1 when a test failed, 0 when all passed, and with
        # another code when it could not run them.
        if proc.returncode == 1:
            killed += 1
            print(f"killed    {mutant.name} ({took:.1f} s)")
        elif proc.returncode == 0:
            ok = False
            print(f"SURVIVED  {mutant.name} ({took:.1f} s)")
        else:
            ok = False
            print(f"ERROR     {mutant.name} (pytest exit {proc.returncode}):\n{tail(proc)}")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
