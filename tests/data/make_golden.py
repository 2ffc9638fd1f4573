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

Run from the repository root:

    python3 tests/data/make_golden.py
"""

import contextlib
import io
import pathlib

from tnnsim import synth
from tnnsim.cli import main as cli_main

HERE = pathlib.Path(__file__).parent

COST_SWEEPS = {
    "comparator_count": "1,2,4,8,16,49,100,196,250,784",
    "frequency": "1e8,1e9,1.5e9,5e9,2.5e10,3e10",
    "image_size": "49,784,2160,1000",
}


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


if __name__ == "__main__":
    main()
