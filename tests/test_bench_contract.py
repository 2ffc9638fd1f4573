"""The benchmark's per-module spans still fit the library.

``perfbench/spans.py`` times functions by rebinding them by name, and
counts work from their arguments and results. A refactor that renames,
inlines or re-routes one of them would silently zero a per-module metric.
This runs a tiny two-layer train, an inference, the CSV writers, the npz
round trip and the metrics under its tracer, and checks that every target
was found, counted and numbered by layer.
"""

import importlib.util
import io
import pathlib
import sys

import numpy as np
from oracle import readme_encode, reference_run

from tnnsim import gamma, metrics, network, synth
from tnnsim.encode import Linear

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """Import ``spans.py`` by path without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_spans_cover_a_two_layer_run(tmp_path):
    ds = synth.make_dataset(6, seed=1)
    cfg = network.NetworkConfig(
        layers=((6, 4), (3, 3)),
        pixel_count=784,
        threshold=(2500, 4),
        encoder=Linear(period=16),
    )
    net = network.TnnNetwork(cfg)
    # Each presentation's answering columns, by layer, from the reference
    # run of the same training and inference.
    train = reference_run(cfg, ds.pixels, 2, True, net.weights)
    infer = reference_run(cfg, ds.pixels, 1, False, train[2])
    answered = [np.array([cycle[k] for cycle in train[1] + infer[1]]) >= 0 for k in (0, 1)]
    tracer = load_spans().Tracer()
    with tracer.installed():
        trained = net.train(ds, epochs=2)
        inferred = net.infer(ds)
        for summary in (trained, inferred):
            network.write_summary_csv(summary, io.StringIO())
            gamma.write_trace_csv(summary.trace, io.StringIO())
        network.save_summary_npz(inferred, tmp_path / "summary.npz")
        network.load_summary_npz(tmp_path / "summary.npz")
        metrics.spike_histogram(inferred)
        metrics.purity(inferred, ds.labels)
        metrics.cycle_savings(inferred.trace, inferred.trace.period)
    out = tracer.summary()

    assert tracer.unmeasured == []
    assert tracer.uncounted == set()
    assert out["network.run_gamma_cycle.calls"] == 3 * len(ds)
    # One gamma call per presentation, though the run record already holds
    # what ``gamma.cycle_ends`` needs for a whole run at once: ``gamma.sim_steps``
    # and the reset counts are read from this call. Dropping it is a
    # benchmark change (ROADMAP item 1), which moves those counts with it.
    assert out["gamma.run_cycle.calls"] == 3 * len(ds)
    layered = {
        label.rsplit(".", 1)[1]
        for label, *_ in tracer.spans
        if label.startswith(("neuron.layer_spike_times.", "stdp.update_layer."))
    }
    assert layered == {"L0", "L1"}
    for k in (0, 1):
        assert out[f"neuron.layer_spike_times.L{k}.calls"] == 3 * len(ds)
        assert out[f"stdp.update_layer.L{k}.calls"] == 2 * len(ds)
    # Work counts: every neuron of a layer against each live input line,
    # and the rows STDP must rewrite, from the layer shapes and outputs
    # rather than from the kernel's arguments. Layer 0's live lines are the
    # encoded pixels of three presentations per image, layer 1's the
    # answering layer-0 columns.
    encoded = sum(np.isfinite(readme_encode(p.tolist(), cfg.encoder)).sum() for p in ds.pixels)
    # Three presentations per image, two lines per pixel.
    assert out["encode.finite_lines"] == 3 * encoded
    assert out["encode.lines"] == 3 * 2 * ds.pixels.size
    assert 0 < out["encode.finite_line_frac"] < 1
    live = (3 * encoded, answered[0].sum())
    for k, (cols, neurons) in enumerate(cfg.layers):
        assert out[f"neuron.L{k}.synapse_evals"] == cols * neurons * live[k]
    # Training presentations come first; STDP rewrites a winner's row, or
    # every row of a silent column.
    for k, (cols, neurons) in enumerate(cfg.layers):
        won = answered[k][: 2 * len(ds)]
        assert won.shape == (2 * len(ds), cols)
        assert out[f"stdp.L{k}.rows_needed"] == won.sum() + (~won).sum() * neurons
    assert np.array_equal(answered[1][: 2 * len(ds)], trained.col_neurons >= 0)
    assert out["gamma.sim_steps"] == (
        trained.total_clock_cycles + inferred.total_clock_cycles
    )
    for name in (
        "network.train",
        "network.infer",
        "network.write_summary_csv",
        "gamma.write_trace_csv",
        "network.save_summary_npz",
        "network.load_summary_npz",
        "metrics.spike_histogram",
        "metrics.purity",
        "metrics.cycle_savings",
    ):
        assert out[f"{name}.calls"] >= 1, name
