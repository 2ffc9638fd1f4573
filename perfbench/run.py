"""tnnsim benchmark: seeded workloads, end-to-end metrics, traced per-module run.

    python3 perfbench/run.py                      # every workload, in turn
    python3 perfbench/run.py --workload desk-posneg --seed 7 --seconds 30 --trace 0

One workload runs in one process. Inputs come from ``tnnsim.synth`` in a
child process before any clock starts and are written as IDX files that
the workload then reads. A run makes one warm-up repetition (checked, not
timed), then repeats the whole workload until ``--seconds`` is used up.
``--trace 1`` alternates untraced and traced repetitions and reports
per-module numbers instead of end-to-end ones.

Every repetition's CSV artifacts and weight values are digested and must
match the digests recorded in ``expected.json`` (default seed) or, on other
seeds, agree with each other; sampled inference winners are recomputed by
``check.py``. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the names listed in
``BENCHMARK.json``). See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def limit_threads() -> dict[str, object]:
    """Cap BLAS/OpenMP threads at the usable core count; numpy reads these
    variables once, when it is first imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return {"nproc": nproc, **{var: os.environ[var] for var in THREAD_VARS}}


def run_all(args, names) -> int:
    """Each workload in its own process, then one combined JSON line."""
    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tnnsim" / "__init__.py").is_file():
        print(f"error: no tnnsim sources at {SRC / 'tnnsim'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names)
    threads = limit_threads()
    sys.path.insert(0, str(SRC))
    import harness  # after the thread cap: numpy reads it on import

    return harness.run_workload(args, spec, threads)


if __name__ == "__main__":
    raise SystemExit(main())
