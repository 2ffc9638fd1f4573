"""Regenerate the golden files in this directory.

* ``digit4_pos.txt`` / ``digit4_neg.txt``: the pos/neg channel files for the
  digit-4 sample. Deliberately bypasses the encoder under test: the channel
  bits are derived with the literal rule (positive = 1 iff pixel > 127,
  negative = complement) applied pixel by pixel. The sample is the fifth
  image of the seed-7 synthetic dataset, which is the first rendering of
  digit 4.
* ``cost_sweep_<axis>.csv`` / ``.err``: the CSV and stderr of one
  ``tnnsim cost-sweep`` per axis at the default base bank. The frequency
  sweep ends on a clock above the critical path, so its ``.err`` holds one
  line. Regenerate these only on purpose: ``tests/test_cli.py`` checks the
  cost model's every float against them.
* ``golden_run.json``: the SHA-256 of every CSV and markdown file of one
  seeded ``tnnsim train`` -> ``infer`` -> ``report`` run on synthetic
  digits, and of each trained layer's int16 weight values. The run keeps
  silent columns and both reset causes in its trace. Regenerate it only
  when a change is meant to move an artifact byte, and say why.

Run from the repository root:

    python3 tests/data/make_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import numpy as np

from tnnsim import synth
from tnnsim.cli import main as cli_main

HERE = pathlib.Path(__file__).parent

COST_SWEEPS = {
    "comparator_count": "1,2,4,8,16,49,100,196,250,784",
    "frequency": "1e8,1e9,1.5e9,5e9,2.5e10,3e10",
    "image_size": "49,784,2160,1000",
}

# The config of the golden run, with ``{work}`` its directory: a two-layer
# linear net in which some columns stay silent, so both reset causes occur.
GOLDEN_RUN_CONFIG = """\
train_images = {work}/train-images.idx
train_labels = {work}/train-labels.idx
test_images = {work}/test-images.idx
test_labels = {work}/test-labels.idx
layers = 16x6,6x4
threshold = 4000,50
encoder = linear
u_backoff = 6
epochs = 2
"""


def golden_run_digests(work: pathlib.Path) -> dict[str, str]:
    """Run the golden ``train`` -> ``infer`` -> ``report`` in ``work`` through
    ``cli.main`` and return the SHA-256 of each artifact it wrote, by path:
    every CSV and markdown file, and each layer of the trained weights."""
    synth.write_idx_pair(
        synth.make_dataset(40, seed=11), work / "train-images.idx", work / "train-labels.idx"
    )
    synth.write_idx_pair(
        synth.make_dataset(20, seed=12), work / "test-images.idx", work / "test-labels.idx"
    )
    config = work / "run.cfg"
    config.write_text(GOLDEN_RUN_CONFIG.format(work=work))
    steps = (
        ["train", "--config", config, "--out", work / "train"],
        ["infer", "--config", config, "--weights", work / "train" / "weights.npz",
         "--out", work / "infer"],
        ["report", "--summary", work / "infer" / "summary.npz",
         "--labels", work / "test-labels.idx", "--out", work / "report"],
    )
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main([str(a) for a in argv]) == 0, argv
    digests = {
        path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.glob("*/*.*"))
        if path.suffix in (".csv", ".md")
    }
    with np.load(work / "train" / "weights.npz") as saved:
        for key in sorted(k for k in saved.files if k.startswith("layer")):
            layer = saved[key]
            assert layer.dtype == np.int16, (key, layer.dtype)
            digests[f"train/weights.npz:{key}"] = hashlib.sha256(layer.tobytes()).hexdigest()
    return digests


def main() -> None:
    image = synth.make_dataset(5, seed=7)[4]
    assert image.label == 4
    pixels = image.pixels.tolist()
    pos_bits = ["1" if p > 127 else "0" for p in pixels]
    neg_bits = ["0" if p > 127 else "1" for p in pixels]
    (HERE / "digit4_pos.txt").write_text(" ".join(pos_bits) + "\n")
    (HERE / "digit4_neg.txt").write_text(" ".join(neg_bits) + "\n")
    print(f"wrote golden channel files for label {image.label}")

    for axis, values in COST_SWEEPS.items():
        out = HERE / f"cost_sweep_{axis}.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli_main(["cost-sweep", "--axis", axis, "--values", values, "--out", str(out)])
        assert rc == 0
        out.with_suffix(".err").write_text(err.getvalue())
    print(f"wrote {len(COST_SWEEPS)} golden cost sweeps")

    with tempfile.TemporaryDirectory() as work:
        digests = golden_run_digests(pathlib.Path(work))
    (HERE / "golden_run.json").write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} golden run digests")


if __name__ == "__main__":
    main()
