"""Regenerate the golden pos/neg channel files for the digit-4 sample.

Deliberately bypasses the encoder under test: the channel bits are derived
with the literal rule (positive = 1 iff pixel > 127, negative = complement)
applied pixel by pixel. The sample is the fifth image of the seed-7
synthetic dataset, which is the first rendering of digit 4.

Run from the repository root:

    python3 tests/data/make_golden.py
"""

import pathlib

from tnnsim import synth

HERE = pathlib.Path(__file__).parent


def main() -> None:
    image = synth.make_dataset(5, seed=7)[4]
    assert image.label == 4
    pixels = image.pixels.tolist()
    pos_bits = ["1" if p > 127 else "0" for p in pixels]
    neg_bits = ["0" if p > 127 else "1" for p in pixels]
    (HERE / "digit4_pos.txt").write_text(" ".join(pos_bits) + "\n")
    (HERE / "digit4_neg.txt").write_text(" ".join(neg_bits) + "\n")
    print(f"wrote golden channel files for label {image.label}")


if __name__ == "__main__":
    main()
