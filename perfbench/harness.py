"""Phases of one benchmark run: inputs, repetitions, checks and report.

``run.py`` imports this module only after it has capped the BLAS/OpenMP
threads and put the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import check
import spans
import tnnsim
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SAMPLED_WINNERS = 8
COVERAGE_LIMITS = (0.95, 1.0 + 1e-9)


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


@dataclass
class Attempt:
    """One repetition as the check and the report need it. Its artifacts
    and weights are digested as soon as it ends and then dropped, so that
    memory does not grow with the number of repetitions."""

    kind: str
    rep: workloads.Rep | None = None
    digests: dict | None = None
    sim_steps_per_img: float = 0.0
    purity: float = 0.0
    setup_s: tuple[float, ...] = ()  # untraced only
    tracer: spans.Tracer | None = None
    coverage: float = 0.0  # traced only: summed span self time / wall_s
    good: bool = False


class WorkloadRun:
    """One workload, one seed: inputs, repetitions, checks and report."""

    def __init__(self, w, args, tmp: Path):
        self.w, self.args, self.tmp = w, args, tmp
        self.data = tmp / "data"
        self.runs: list[Attempt] = []
        self.latest = None  # (index, artifacts, weights) of the last completed repetition
        self.problems = []
        self.durations = []

    def generate_inputs(self):
        """Seeded digits from ``tnnsim.synth``, in a child process."""
        w = self.w
        subprocess.run(
            [sys.executable, "-m", "tnnsim.synth", str(self.data), "--train", str(w.n_train),
             "--test", str(w.n_test), "--seed", str(self.args.seed)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, stdout=subprocess.DEVNULL,
        )
        (self.data / "run.cfg").write_text(w.config_text(self.data))

    def attempt(self, kind):
        """One repetition. Every repetition starts from a collected heap and
        an empty output directory."""
        a = Attempt(kind, tracer=spans.Tracer() if kind == "traced" else None)
        out = self.tmp / "rep"
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        try:
            with a.tracer.installed() if a.tracer else contextlib.nullcontext():
                a.rep = workloads.run_rep(self.w, self.data, out)
            if kind == "plain":
                a.setup_s = workloads.time_setup(self.w, self.data, out)
        except Exception as exc:  # a failing repetition is counted, not fatal
            a.rep = None
            traceback.print_exc(file=sys.stderr)
            self.problems.append(f"{kind} repetition {len(self.runs)} raised "
                                 f"{type(exc).__name__}: {exc}")
        if a.rep is not None:
            rep = a.rep
            a.digests = check.digests(rep.artifacts, rep.weights)
            lengths = [int(row.split(",")[1])
                       for row in rep.artifacts["infer/summary.csv"].splitlines()[1:]]
            a.sim_steps_per_img = sum(lengths) / len(lengths)
            a.purity = float(rep.artifacts["report/purity.csv"].splitlines()[-1].split(",")[-1])
            self.latest = (len(self.runs), rep.artifacts, rep.weights)
            rep.artifacts = rep.weights = None
        self.runs.append(a)

    def measure(self):
        """Warm-up, then repetitions until ``--seconds`` is used up."""
        self.attempt("warm-up")
        kinds = ("plain", "traced") if self.args.trace else ("plain",)
        min_reps = 4 if self.args.trace else 3
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self.attempt(kinds[len(self.durations) % len(kinds)])
            self.durations.append(perf_counter() - t0)
            if (len(self.durations) >= min_reps
                    and perf_counter() - start + statistics.median(self.durations)
                    > self.args.seconds):
                break
        self.measured_s = perf_counter() - start
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check(self):
        """Digests against the reference, traced span coverage against
        ``COVERAGE_LIMITS``, and sampled winners of the last completed
        repetition against the per-step reference evaluation. Sets
        ``good`` on every attempt."""
        w = self.w
        expected = json.loads((HERE / "expected.json").read_text())
        if self.args.seed == expected["seed"] and w.name in expected["digests"]:
            reference, self.source = expected["digests"][w.name], "expected.json"
        else:
            reference = next((a.digests for a in self.runs if a.digests), {})
            self.source = "first completed repetition"
        for i, a in enumerate(self.runs):
            if a.digests is None:
                continue
            a.good = a.digests == reference
            if not a.good:
                differ = sorted(k for k in a.digests.keys() | reference.keys()
                                if a.digests.get(k) != reference.get(k))
                self.problems.append(f"{a.kind} repetition {i}: digests differ "
                                     f"from {self.source} in {', '.join(differ)}")
            if a.tracer:
                a.coverage = a.tracer.summary().get("trace.covered_s", 0.0) / a.rep.wall_s
                if not COVERAGE_LIMITS[0] <= a.coverage <= COVERAGE_LIMITS[1]:
                    a.good = False
                    self.problems.append(f"traced repetition {i}: spans cover {a.coverage:.4f} "
                                         f"of its wall time, outside {COVERAGE_LIMITS}")
        if self.latest is None:
            return
        checked, artifacts, weights = self.latest
        rng = np.random.default_rng(self.args.seed)
        sample = sorted(rng.choice(w.n_test, size=min(SAMPLED_WINNERS, w.n_test),
                                   replace=False).tolist())
        bad = check.winner_mismatches(artifacts["infer/summary.csv"],
                                      check.read_idx_pixels(self.data / "test-images.idx"),
                                      weights, w, sample)
        if bad:
            # Every repetition with the same digests made the same outputs.
            for a in self.runs:
                a.good = a.good and a.digests != self.runs[checked].digests
            self.problems.extend(f"repetition {checked}: {b}" for b in bad)

    def values(self):
        """Samples per metric name, from the repetitions that passed."""
        w, values = self.w, {}
        plain = [a for a in self.runs if a.good and a.kind == "plain"]
        traced = [a for a in self.runs if a.good and a.kind == "traced"]
        self.unmeasured = sorted({n for a in traced for n in a.tracer.unmeasured})
        self.uncounted = sorted({n for a in traced for n in a.tracer.uncounted})
        self.traced = traced
        if not plain:
            return values
        values.update(
            train_img_per_s=[w.n_train * w.epochs / a.rep.train_s for a in plain],
            infer_img_per_s=[w.n_test / a.rep.infer_s for a in plain],
            wall_s=[a.rep.wall_s for a in plain],
            setup_s=[s for a in plain for s in a.setup_s],
            peak_rss_mb=[self.peak_rss_mb],
            sim_steps_per_img=[plain[0].sim_steps_per_img],
            purity=[plain[0].purity],
        )
        if not traced:
            return values
        per_rep = []
        for a in traced:
            s = a.tracer.summary()
            s["cli.bytes_written"] = a.rep.bytes_written
            s["trace.coverage_frac"] = a.coverage
            per_rep.append(s)
        for key in set().union(*per_rep):
            values[key] = [s.get(key, 0.0) for s in per_rep]
        plain_wall = statistics.median(a.rep.wall_s for a in plain)
        traced_wall = statistics.median(a.rep.wall_s for a in traced)
        values["trace.overhead_s"] = [traced_wall - plain_wall]
        values["trace.overhead_frac"] = [(traced_wall - plain_wall) / plain_wall]
        values["trace.unmeasured_fns"] = [len(self.unmeasured)]
        return values

    def report(self, spec, threads, values) -> dict:
        """Print every listed metric and the run's context; return the
        JSON result."""
        w, args = self.w, self.args
        print(f"# tnnsim benchmark: workload {w.name}, seed {args.seed}, trace {args.trace}, "
              f"{args.seconds:g} s measured ({self.measured_s:.2f} s used)")
        print(f"# provenance: commit {git_commit()}, "
              f"python {platform.python_version()}, numpy {np.__version__}, "
              + ", ".join(f"{k} {v}" for k, v in threads.items()))
        print(f"# inputs: {w.n_train} train x {w.epochs} epoch, {w.n_test} test images, "
              f"layers {w.layers}, thresholds {w.thresholds}, encoder {w.encoder}")
        kinds = [a.kind for a in self.runs]
        print("# repetitions: " + ", ".join(f"{k} {kinds.count(k)}"
                                            for k in ("warm-up", "plain", "traced"))
              + f", set-up samples {len(values.get('setup_s', []))}; durations "
              + " ".join(f"{d:.3f}" for d in self.durations) + " s")
        warm = self.runs[0].rep
        if warm is not None and values:
            print(f"# warm-up wall {warm.wall_s:.3f} s, "
                  f"{warm.wall_s / statistics.median(values['wall_s']):.3f}x "
                  "the measured median (discarded)")
        metrics = {}
        for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
            samples = values.get(m["name"])
            if samples:
                q1, med, q3 = quartiles(samples)
                print(f"{m['name']:<40} {med:.6g} {m['unit']}  "
                      f"(q1 {q1:.6g}, q3 {q3:.6g}, n {len(samples)})")
            else:
                med = 0
                gone = next((n for n in self.unmeasured if m["name"].startswith(n)), None)
                why = f"{gone} no longer exists" if gone else "not exercised by this workload"
                print(f"{m['name']:<40} 0 {m['unit']}  (unmeasured: {why})")
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        attempted = len(self.runs)
        failed = sum(not a.good for a in self.runs)
        print(f"{'fail_frac':<40} {failed / attempted:.6g} ratio  "
              f"({failed} of {attempted} runs)")
        if args.trace:
            print(f"# not wrapped (missing in this version): "
                  f"{', '.join(self.unmeasured) or 'none'}")
            print(f"# counts skipped (arguments changed): "
                  f"{', '.join(self.uncounted) or 'none'}")
            lo, hi = COVERAGE_LIMITS
            coverage = [a.coverage for a in self.runs if a.tracer and a.digests]
            ok = coverage and all(lo <= c <= hi for c in coverage)
            print("# span coverage of traced wall time: "
                  + " ".join(f"{c:.4f}" for c in coverage) + (" -> ok" if ok else " -> FAIL"))
        digests = next((a.digests for a in self.runs if a.digests), None)
        if digests:
            print(f"# digests (checked against {self.source}): "
                  + " ".join(f"{k}={v[:12]}" for k, v in sorted(digests.items())))
        for p in self.problems:
            print(f"# FAILED: {p}")
        return {"correct": failed == 0 and bool(values), "attempted": attempted,
                "failed": failed, "metrics": metrics}

    def write_spans(self, path: Path):
        with open(path, "w") as f:
            f.write("repetition,label,start_s,end_s,parent\n")
            for i, a in enumerate(self.traced):
                for label, start, end, parent in a.tracer.spans:
                    f.write(f"{i},{label},{start!r},{end!r},{parent}\n")


def run_workload(args, spec, threads) -> int:
    """Run one workload; ``threads`` (core count and thread caps) is
    printed with the provenance."""
    if Path(tnnsim.__file__).resolve().parent != SRC / "tnnsim":
        print(f"error: imported tnnsim from {tnnsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        run = WorkloadRun(w, args, tmp)
        run.generate_inputs()
        run.measure()
        run.check()
        values = run.values()
        result = run.report(spec, threads, values)
        if args.trace:
            run.write_spans(WORK / f"spans-{w.name}-seed{args.seed}.csv")
        print(json.dumps(result))
        return 0 if values else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
