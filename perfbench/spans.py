"""Per-module spans recorded from outside the program.

``Tracer.installed()`` rebinds each traced function, in the namespace its
callers look it up in, to a wrapper that records a span (label, start, end,
parent span) in memory and, for some functions, work counts read from the
call's arguments or result. Leaving the context restores the originals.

Layer-indexed functions (the spike-time kernel and the STDP update) get an
``.L<k>`` suffix: ``k`` counts earlier calls of the same function under the
same parent span, which is the layer order of ``run_gamma_cycle``.

A target that no longer exists is listed in ``Tracer.unmeasured`` instead of
failing the run; a count hook that no longer fits the call's arguments is
listed in ``Tracer.uncounted``.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _count_read(counts, layer, args, result):
    src = args[0]
    counts["dataio.bytes_read"] += (
        len(src) if isinstance(src, (bytes, bytearray)) else src.tell()
    )


def _count_encode(counts, layer, args, result):
    times = np.asarray(result.times, dtype=float)
    counts["encode.finite_lines"] += int(np.isfinite(times).sum())
    counts["encode.lines"] += times.size


def _count_kernel(counts, layer, args, result):
    neurons = np.shape(args[0])[0]
    finite = int(np.isfinite(np.asarray(args[1], dtype=float)).sum())
    counts[f"neuron.L{layer}.synapse_evals"] += neurons * finite


def _count_stdp(counts, layer, args, result):
    cols, neurons = np.shape(args[0])[:2]
    won = np.asarray(args[2]) >= 0
    counts[f"stdp.L{layer}.rows_needed"] += int(won.sum() + (~won).sum() * neurons)
    counts[f"stdp.L{layer}.rows_written"] += cols * neurons


def _count_cycle(counts, layer, args, result):
    counts["gamma.sim_steps"] += result.length
    counts[f"gamma.{result.cause.value}_resets"] += 1


# (span name, owner callers look the function up in, attribute, layer-indexed,
# count hook). ``module:Class`` names a class attribute.
TARGETS = (
    ("dataio.read_idx_images", "tnnsim.dataio", "read_idx_images", False, _count_read),
    ("dataio.read_idx_labels", "tnnsim.dataio", "read_idx_labels", False, _count_read),
    ("dataio.attach_labels", "tnnsim.dataio", "attach_labels", False, None),
    ("encode.encode_image", "tnnsim.network", "encode_image", False, _count_encode),
    ("neuron.layer_spike_times", "tnnsim.network", "layer_spike_times", True, _count_kernel),
    ("network.run_gamma_cycle", "tnnsim.network:TnnNetwork", "run_gamma_cycle", False, None),
    ("network.train", "tnnsim.network:TnnNetwork", "train", False, None),
    ("network.infer", "tnnsim.network:TnnNetwork", "infer", False, None),
    ("gamma.run_cycle", "tnnsim.gamma", "run_cycle", False, _count_cycle),
    ("stdp.update_layer", "tnnsim.stdp", "update_layer", True, _count_stdp),
    ("metrics.spike_histogram", "tnnsim.metrics", "spike_histogram", False, None),
    ("metrics.purity", "tnnsim.metrics", "purity", False, None),
    ("metrics.cycle_savings", "tnnsim.metrics", "cycle_savings", False, None),
    ("network.write_summary_csv", "tnnsim.network", "write_summary_csv", False, None),
    ("gamma.write_trace_csv", "tnnsim.gamma", "write_trace_csv", False, None),
    ("network.save_summary_npz", "tnnsim.network", "save_summary_npz", False, None),
    ("network.load_summary_npz", "tnnsim.network", "load_summary_npz", False, None),
    ("network.save_weights_npz", "tnnsim.network", "save_weights_npz", False, None),
    ("network.load_weights_npz", "tnnsim.network", "load_weights_npz", False, None),
    ("cli.main", "tnnsim.cli", "main", False, None),
)


def _owner(path):
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    """Spans and counts of one traced repetition."""

    def __init__(self):
        self.spans: list = []  # (label, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.unmeasured: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list = []  # (span index, Counter of child names seen)
        self._top: Counter = Counter()

    def _wrap(self, name, fn, layered, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            seen = stack[-1][1] if stack else self._top
            layer = seen[name]
            seen[name] += 1
            label = f"{name}.L{layer}" if layered else name
            index = len(spans)
            spans.append(None)
            stack.append((index, Counter()))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, start, end, stack[-1][0] if stack else -1)
            if hook is not None:
                try:
                    hook(self.counts, layer, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.uncounted.add(name)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, owner_path, attr, layered, hook in TARGETS:
                owner = _owner(owner_path)
                fn = vars(owner).get(attr) if owner is not None else None
                if not callable(fn):
                    self.unmeasured.append(name)
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, layered, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def summary(self) -> dict[str, float]:
        """Per-label ``calls``/``busy_s``/``self_s``, counts and ratios.

        ``trace.covered_s`` is the sum of every span's self time, which is
        the time covered by top-level spans.
        """
        child = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (label, start, end, parent) in enumerate(self.spans):
            out[f"{label}.calls"] += 1
            out[f"{label}.busy_s"] += end - start
            out[f"{label}.self_s"] += end - start - child[i]
            out["trace.covered_s"] += end - start - child[i]
        out.update(self.counts)
        if self.counts["encode.lines"]:
            out["encode.finite_line_frac"] = (
                self.counts["encode.finite_lines"] / self.counts["encode.lines"]
            )
        for key, written in self.counts.items():
            if key.endswith(".rows_written") and written:
                stem = key[: -len(".rows_written")]
                out[f"{stem}.useful_row_frac"] = (
                    self.counts[f"{stem}.rows_needed"] / written
                )
        return dict(out)
