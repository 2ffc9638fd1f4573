"""Synthetic 28x28 digit dataset for demos and desk-scale experiments.

Digits are drawn as seven-segment glyphs (bright strokes on a dark
background), shifted by a couple of pixels and perturbed with Gaussian
noise, which gives ten visually distinct classes with MNIST-like framing:
28x28 grayscale, intensities 0..255, labels 0..9. The generator is fully
seeded, so datasets are reproducible byte for byte.

Run as a script to drop IDX files for the CLI:

    python -m tnnsim.synth out_dir --train 1000 --test 200 --seed 7
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

from .cli import _Parser
from .dataio import LabeledDataset, write_idx_images, write_idx_labels

WIDTH = 28
HEIGHT = 28
_STROKE = 220
_BACKGROUND = 20
_NOISE_SIGMA = 30.0
_MAX_SHIFT = 2

# Per-digit frame: (top row, left col, height, width, stroke thickness).
# Each class gets its own position and proportions so the thresholded
# patterns stay far apart in hamming distance even after jitter; with a
# shared frame several digits differ by only one thin segment, which is
# too little signal for a binarized 28x28 canvas.
_FRAMES = {
    0: (3, 3, 22, 14, 3),
    1: (2, 18, 24, 8, 3),
    2: (8, 4, 17, 21, 3),
    3: (4, 11, 20, 12, 4),
    4: (9, 2, 16, 14, 6),
    5: (3, 9, 20, 11, 5),
    6: (9, 14, 17, 12, 5),
    7: (2, 5, 22, 9, 4),
    8: (6, 7, 20, 12, 3),
    9: (2, 15, 18, 9, 4),
}

_DIGIT_SEGMENTS = {
    0: "abcdef",
    1: "bc",
    2: "abged",
    3: "abgcd",
    4: "fgbc",
    5: "afgcd",
    6: "afgedc",
    7: "abc",
    8: "abcdefg",
    9: "abcdfg",
}


def _segment_slices(r0: int, c0: int, h: int, w: int, k: int) -> dict:
    """Row/col slices of the seven segments inside one digit frame."""
    mid = r0 + (h - k) // 2
    full = slice(c0, c0 + w)
    return {
        "a": (slice(r0, r0 + k), full),
        "g": (slice(mid, mid + k), full),
        "d": (slice(r0 + h - k, r0 + h), full),
        "f": (slice(r0, mid + k), slice(c0, c0 + k)),
        "b": (slice(r0, mid + k), slice(c0 + w - k, c0 + w)),
        "e": (slice(mid, r0 + h), slice(c0, c0 + k)),
        "c": (slice(mid, r0 + h), slice(c0 + w - k, c0 + w)),
    }


def glyph(digit: int) -> np.ndarray:
    """Clean, noise-free template for one digit."""
    if digit not in _DIGIT_SEGMENTS:
        raise ValueError(f"digit must be 0..9, got {digit}")
    canvas = np.full((HEIGHT, WIDTH), _BACKGROUND, dtype=np.float64)
    segments = _segment_slices(*_FRAMES[digit])
    for name in _DIGIT_SEGMENTS[digit]:
        rows, cols = segments[name]
        canvas[rows, cols] = _STROKE
    return canvas


def make_digit_image(digit: int, rng: np.random.Generator) -> np.ndarray:
    """One noisy, jittered rendering of a digit as a row-major uint8 row."""
    canvas = glyph(digit)
    dy, dx = rng.integers(-_MAX_SHIFT, _MAX_SHIFT + 1, size=2)
    canvas = np.roll(canvas, (int(dy), int(dx)), axis=(0, 1))
    canvas = canvas + rng.normal(0.0, _NOISE_SIGMA, size=canvas.shape)
    return np.clip(np.rint(canvas), 0, 255).astype(np.uint8).ravel()


def make_dataset(count: int, seed: int) -> LabeledDataset:
    """``count`` labeled digits, classes round-robin so each is covered."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    pixels = np.stack([make_digit_image(i % 10, rng) for i in range(count)])
    labels = np.arange(count, dtype=np.int64) % 10
    return LabeledDataset(pixels, WIDTH, HEIGHT, labels)


def write_idx_pair(dataset: LabeledDataset, images_path, labels_path) -> None:
    with open(images_path, "wb") as f:
        write_idx_images(dataset, f)
    with open(labels_path, "wb") as f:
        write_idx_labels(dataset.labels, f)


def main(argv=None) -> int:
    parser = _Parser(
        prog="python -m tnnsim.synth", description="generate synthetic digit IDX files"
    )
    parser.add_argument("out_dir", type=pathlib.Path)
    parser.add_argument("--train", type=int, default=1000)
    parser.add_argument("--test", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for name, least in (("train", 1), ("test", 1), ("seed", 0)):
        value = getattr(args, name)
        if value < least:
            print(f"error: --{name} must be >= {least}, got {value}", file=sys.stderr)
            return 1
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_idx_pair(
        make_dataset(args.train, args.seed),
        args.out_dir / "train-images.idx",
        args.out_dir / "train-labels.idx",
    )
    write_idx_pair(
        make_dataset(args.test, args.seed + 1),
        args.out_dir / "test-images.idx",
        args.out_dir / "test-labels.idx",
    )
    print(f"wrote {args.train} train and {args.test} test digits to {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
