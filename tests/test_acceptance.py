"""Acceptance gate: the ten headline behaviors, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The desk-scale fixture (criteria 7-9) trains a 64x10 single-layer
network on 1,000 synthetic digits for 3 epochs and evaluates 200 held-out
digits; it is built once per session.
"""

import pathlib
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from oracle import (
    GeneratorState,
    clocked_cycle,
    column_argmin,
    controller_observe,
    make_controller,
)
from tnnsim import costmodel, metrics, synth
from tnnsim.cli import main as cli_main
from tnnsim.encode import INF, PosNeg, encode_image
from tnnsim.gamma import GammaTrace, run_cycle, verify_scenarios
from tnnsim.metrics import purity as purity_metric
from tnnsim.network import NetworkConfig, RunSummary, TnnNetwork
from tnnsim.neuron import layer_spike_times, weight_planes
from tnnsim.stdp import StdpParams

DATA = pathlib.Path(__file__).parent / "data"


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {title}")
        raise
    print(f"PASS  criterion {number:2d}: {title}")


# Desk-scale configuration: threshold 3000 is 0.547 of the 784 * 7 unit
# ceiling a saturated posneg volley can reach, and the back-off step is
# raised to 6 half-units so a neuron that wins on a foreign pattern
# unlearns it quickly enough for the column to differentiate. With the
# deterministic update rule the default back-off leaves one early neuron
# winning everything (concentration is high but grouping never forms).
DESK_THRESHOLD = 3000
DESK_PARAMS = StdpParams(u_backoff=6)


@pytest.fixture(scope="session")
def desk_scale():
    t0 = time.perf_counter()
    train = synth.make_dataset(1000, seed=7)
    test = synth.make_dataset(200, seed=8)
    cfg = NetworkConfig(
        layers=((64, 10),),
        pixel_count=784,
        threshold=DESK_THRESHOLD,
        stdp_params=DESK_PARAMS,
        seed=0,
    )
    net = TnnNetwork(cfg)
    net.train(train, epochs=3)
    summary = net.infer(test)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        net=net,
        summary=summary,
        labels=test.labels,
        elapsed=elapsed,
    )


def test_criterion_01_posneg_golden_encoding():
    with criterion(1, "posneg golden encoding"):
        t0 = time.perf_counter()
        images = synth.make_dataset(50, seed=7)
        for px in images.pixels:
            volley = encode_image(px, PosNeg())
            pos, neg = volley[: len(px)], volley[len(px) :]
            for p, pos_t, neg_t in zip(px.tolist(), pos.tolist(), neg.tolist()):
                if p > 127:
                    assert pos_t == 0 and neg_t == INF
                else:
                    assert pos_t == INF and neg_t == 0
        # bit-exact channel files for the digit-4 sample
        sample = images[4]
        assert sample.label == 4
        volley = encode_image(sample.pixels, PosNeg()).tolist()
        half = len(volley) // 2
        pos_line = " ".join("1" if t == 0 else "0" for t in volley[:half]) + "\n"
        neg_line = " ".join("1" if t == 0 else "0" for t in volley[half:]) + "\n"
        assert pos_line == (DATA / "digit4_pos.txt").read_text()
        assert neg_line == (DATA / "digit4_neg.txt").read_text()
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_pipeline_arithmetic():
    with criterion(2, "comparator pipeline arithmetic"):
        cfg49 = costmodel.ComparatorBankConfig(
            comparator_count=49, clock_frequency=1e9, pixels_per_image=784
        )
        rep49 = costmodel.cost_report(cfg49)
        assert rep49.cycles == 16
        assert rep49.processing_time == 16e-9
        cfg1 = costmodel.ComparatorBankConfig(
            comparator_count=1, clock_frequency=1e9, pixels_per_image=784
        )
        rep1 = costmodel.cost_report(cfg1)
        assert rep1.cycles == 784
        assert rep1.processing_time == 784e-9


def test_criterion_03_divisor_energy_invariance():
    with criterion(3, "divisor energy invariance"):
        def energy(count):
            cfg = costmodel.ComparatorBankConfig(
                comparator_count=count, clock_frequency=1e9, pixels_per_image=784
            )
            return costmodel.cost_report(cfg).total_energy

        reference = energy(784)
        for count in (1, 2, 4, 8, 16, 49, 196, 784):
            assert abs(energy(count) - reference) <= 1e-12 * reference
        for count in (100, 250, 400, 625):
            assert energy(count) > reference


def test_criterion_04_gamma_functional_suite():
    with criterion(4, "gamma generator/controller suite"):
        assert all(r.passed for r in verify_scenarios())
        rng = np.random.default_rng(99)
        for _ in range(10000):
            period = int(rng.integers(2, 21))
            cols = int(rng.integers(1, 7))
            times = [
                INF if rng.random() < 0.2 else int(rng.integers(0, period + 2))
                for _ in range(cols)
            ]
            relaxed = bool(rng.integers(0, 2))
            want, _, _ = clocked_cycle(
                GeneratorState(period=period), make_controller(cols), times, relaxed
            )
            assert run_cycle(times, period, relaxed) == want
        # latch AND/OR semantics: monotone fold, control only when all set
        ctrl = make_controller(4)
        for _ in range(1000):
            flags = rng.random(4) < 0.3
            before = ctrl.column_latches
            ctrl = controller_observe(ctrl, list(flags))
            assert ctrl.column_latches == tuple(
                b or bool(f) for b, f in zip(before, flags)
            )


def _brute_force_spike_time(weights_hu, times, period, threshold):
    for t in range(period):
        total = 0
        for w, s in zip(weights_hu, times):
            if s == INF or t < s:
                continue
            total += min(t - int(s) + 1, w // 2)
        if total >= threshold:
            return t
    return INF


def test_criterion_05_rnl_oracle_equivalence():
    with criterion(5, "ramp-neuron oracle equivalence"):
        # Random layers of 1-3 columns of 1-3 neurons: the column kernel's
        # winners against the brute force reduced by argmin.
        rng = np.random.default_rng(42)
        mismatches = 0
        for _ in range(10000):
            cols, per, lines = (int(v) for v in rng.integers(1, (4, 4, 9)))
            weights = rng.integers(0, 15, size=(cols * per, lines))
            times = [
                INF if rng.random() < 0.3 else int(rng.integers(0, 16))
                for _ in range(lines)
            ]
            threshold = int(rng.integers(1, 60))
            planes = weight_planes(weights, 7)
            idx, win = layer_spike_times(planes, times, 16, threshold, lines, cols)
            spikes = [_brute_force_spike_time(row, times, 16, threshold) for row in weights.tolist()]
            want_idx, want_win = column_argmin(spikes, cols)
            if not (np.array_equal(idx, want_idx) and np.array_equal(win, want_win)):
                mismatches += 1
        assert mismatches == 0


def test_criterion_06_low_threshold_time_zero():
    with criterion(6, "threshold-400 spikes at time zero"):
        images = synth.make_dataset(100, seed=3)
        cfg = NetworkConfig(
            layers=((4, 5),), pixel_count=784, threshold=400, seed=0
        )
        net = TnnNetwork(cfg)
        for w in net.weights:
            w[:] = 2  # every weight nonzero (one whole unit)
        summary = net.infer(images)
        assert (summary.win_time == 0).all()
        # in relaxed mode a universal time-0 volley ends every cycle in 1 step
        assert (summary.trace.lengths == 1).all()


def test_criterion_07_desk_scale_stabilization(desk_scale):
    with criterion(7, "desk-scale winner-time concentration"):
        hist = metrics.spike_histogram(desk_scale.summary)
        mode_t, frac = hist.mode_fraction()
        assert mode_t is not None
        assert mode_t < desk_scale.net.config.period
        assert frac >= 0.90
        assert desk_scale.elapsed < 300.0


def test_criterion_08_cycle_savings(desk_scale):
    with criterion(8, "relaxed-cycle savings"):
        # synthetic: every column's last spike at step 5 under period 16
        trace = GammaTrace(
            period=16,
            lengths=np.full(64, 6),
            control=np.ones(64, dtype=bool),
            col_times=np.full((64, 3), 5.0),
        )
        realized, potential = metrics.cycle_savings(trace, 16)
        assert potential == 0.6875
        assert realized == 0.625
        # trained network: the controller must realize at least half
        desk_realized, _ = metrics.cycle_savings(
            desk_scale.summary.trace, desk_scale.net.config.period
        )
        assert desk_realized >= 0.50


def test_criterion_09_purity_sanity(desk_scale):
    with criterion(9, "winner-group purity"):
        # winners (column, neuron) at time 5: (0,0) three times, (1,1) twice
        col_times = np.array([[5, INF]] * 3 + [[INF, 5]] * 2)
        col_neurons = np.array([[0, -1]] * 3 + [[-1, 1]] * 2)
        trace = GammaTrace(16, np.full(5, 6), np.ones(5, dtype=bool), col_times)
        summary = RunSummary(trace, col_neurons, epochs=1, images=5)
        assert purity_metric(summary, [7, 7, 3, 2, 2]).purity == 0.8
        desk = purity_metric(desk_scale.summary, desk_scale.labels)
        assert 0.0 <= desk.purity <= 1.0
        assert desk.purity > 0.3


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "seeded runs are byte-identical"):
        data = tmp_path / "data"
        data.mkdir()
        synth.write_idx_pair(
            synth.make_dataset(40, seed=7),
            data / "imgs.idx",
            data / "labs.idx",
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"images = {data / 'imgs.idx'}\n"
            f"labels = {data / 'labs.idx'}\n"
            "layers = 16x5\n"
            f"threshold = {DESK_THRESHOLD}\n"
            "u_backoff = 6\n"
            "epochs = 2\n"
            "seed = 11\n"
        )
        artifacts = {}
        for run in ("a", "b"):
            train_out = tmp_path / run / "train"
            infer_out = tmp_path / run / "infer"
            assert cli_main(["train", "--config", str(cfg), "--out", str(train_out)]) == 0
            assert (
                cli_main(
                    [
                        "infer",
                        "--config",
                        str(cfg),
                        "--weights",
                        str(train_out / "weights.npz"),
                        "--out",
                        str(infer_out),
                    ]
                )
                == 0
            )
            artifacts[run] = [
                (train_out / "summary.csv").read_bytes(),
                (train_out / "trace.csv").read_bytes(),
                (infer_out / "summary.csv").read_bytes(),
                (infer_out / "trace.csv").read_bytes(),
            ]
        assert artifacts["a"] == artifacts["b"]
