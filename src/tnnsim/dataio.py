"""Reading and writing image datasets.

The on-disk format is the classic big-endian IDX layout: magic 2051 for
image files, 2049 for label files, 32-bit dimension sizes, then raw
unsigned bytes. Both readers parse that header in one place, which checks
its length, the magic, each declared size and the payload the sizes
promise, and raises an ``IdxFormatError`` (a ``ValueError``) on any fault.

A dataset read from a file on disk maps that file read-only rather than
copying it, so its pixels are the file's pages: the file must not be
rewritten while the dataset lives. No CLI command writes a path it reads.
"""

from __future__ import annotations

import io
import math
import mmap
import os
import stat
import struct
from dataclasses import dataclass
from typing import BinaryIO, Optional, Sequence, Union

import numpy as np

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

# Guard against running off a corrupt header: no sane dataset here declares
# more elements than this.
_MAX_DECLARED = 1 << 31


class IdxFormatError(ValueError):
    """Base class for malformed IDX input."""


class BadMagicError(IdxFormatError):
    """Magic number does not match the expected file kind."""


class TruncatedStreamError(IdxFormatError):
    """Header promises more payload bytes than the stream holds."""


class DimensionOverflowError(IdxFormatError):
    """Declared dimensions are implausibly large or overflow."""


class LabelRangeError(IdxFormatError):
    """A label byte falls outside 0..9."""


@dataclass(frozen=True, eq=False)
class PixelImage:
    """One image of a dataset: its row of intensities and its label."""

    pixels: np.ndarray
    width: int
    height: int
    label: Optional[int] = None


def _check_labels(labels: np.ndarray) -> None:
    bad = np.flatnonzero((labels < 0) | (labels > 9))
    if bad.size:
        i = int(bad[0])
        raise LabelRangeError(f"label {labels[i]} at index {i} outside 0..9")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Images of one size as a ``(N, width * height)`` uint8 array, row-major,
    with an optional int64 label 0..9 per image."""

    pixels: np.ndarray
    width: int
    height: int
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image dimensions must be positive, got {self.width}x{self.height}")
        pix, labels = self.pixels, self.labels
        if not isinstance(pix, np.ndarray) or pix.dtype != np.uint8:
            got = getattr(pix, "dtype", type(pix).__name__)
            raise ValueError(f"pixels must be a uint8 array, got {got}")
        if pix.ndim != 2 or pix.shape[1] != self.width * self.height:
            raise ValueError(
                f"expected pixels of shape (N, {self.width * self.height}), got {pix.shape}"
            )
        if labels is not None:
            if not isinstance(labels, np.ndarray) or labels.dtype != np.int64:
                got = getattr(labels, "dtype", type(labels).__name__)
                raise ValueError(f"labels must be an int64 array, got {got}")
            if labels.shape != (len(pix),):
                raise ValueError(f"{len(pix)} images but {labels.size} labels")
            _check_labels(labels)

    def __len__(self) -> int:
        return len(self.pixels)

    def __getitem__(self, i: int) -> PixelImage:
        label = None if self.labels is None else int(self.labels[i])
        return PixelImage(self.pixels[i], self.width, self.height, label)


def _as_bytes(data: Union[bytes, bytearray, BinaryIO]) -> Union[bytes, memoryview]:
    """The bytes of ``data`` from its position on. A regular file on disk
    with bytes left is mapped read-only and left at its end, as ``read()``
    leaves it; other streams, such as pipes, ``BytesIO`` and empty files,
    are read."""
    if isinstance(data, (bytes, bytearray)):
        return bytes(data)
    if isinstance(getattr(data, "raw", data), io.FileIO):
        info = os.fstat(data.fileno())
        # A pipe has no position: only a regular file is asked for one.
        if stat.S_ISREG(info.st_mode) and info.st_size > (start := data.tell()):
            view = memoryview(mmap.mmap(data.fileno(), 0, access=mmap.ACCESS_READ))[start:]
            data.seek(0, io.SEEK_END)
            return view
    return data.read()


def _read_idx(
    data: Union[bytes, bytearray, BinaryIO], kind: str, magic: int, names: tuple[str, ...]
) -> tuple[list[int], np.ndarray]:
    """The declared sizes, one per name in ``names``, and the uint8 payload
    of an IDX file of ``kind`` ("image" or "label") whose magic must be
    ``magic``. Raises ``TruncatedStreamError``, ``BadMagicError`` or
    ``DimensionOverflowError`` on a malformed header; trailing bytes after
    the declared payload are ignored."""
    raw = _as_bytes(data)
    head = 4 + 4 * len(names)
    if len(raw) < head:
        raise TruncatedStreamError(f"{kind} header needs {head} bytes, stream has {len(raw)}")
    got, *sizes = struct.unpack(f">{1 + len(names)}i", raw[:head])
    if got != magic:
        raise BadMagicError(f"expected {kind} magic {magic}, got {got}")
    for name, dim in zip(names, sizes):
        if dim < 0:
            raise DimensionOverflowError(f"declared {name} {dim} out of range")
    need = math.prod(sizes)
    if need > _MAX_DECLARED:
        raise DimensionOverflowError(f"declared payload of {need} bytes is implausible")
    if len(raw) - head < need:
        raise TruncatedStreamError(f"payload needs {need} bytes, stream has {len(raw) - head}")
    return sizes, np.frombuffer(raw, dtype=np.uint8, count=need, offset=head)


def read_idx_images(data: Union[bytes, bytearray, BinaryIO]) -> LabeledDataset:
    """Parse an IDX image file into an unlabeled dataset, whose pixels are
    read-only.

    ``data`` is the file's bytes or a binary stream, read from its
    position on; a file on disk is mapped, not copied (see the module
    docstring). Raises ``BadMagicError``, ``DimensionOverflowError`` or
    ``TruncatedStreamError`` on malformed input; trailing bytes after the
    declared payload are ignored.
    """
    (count, rows, cols), pixels = _read_idx(
        data, "image", IDX_IMAGE_MAGIC, ("count", "rows", "cols")
    )
    return LabeledDataset(pixels.reshape(count, rows * cols), width=cols, height=rows)


def read_idx_labels(data: Union[bytes, bytearray, BinaryIO]) -> np.ndarray:
    """Parse an IDX label file into an int64 label array.

    Malformed headers raise as ``read_idx_images`` says; any byte outside
    0..9 raises ``LabelRangeError``.
    """
    # Widened so that label arithmetic (negation, sums) cannot wrap.
    labels = _read_idx(data, "label", IDX_LABEL_MAGIC, ("count",))[1].astype(np.int64)
    _check_labels(labels)
    return labels


def write_idx_images(dataset: LabeledDataset, stream: BinaryIO) -> None:
    """Write images back out in IDX layout (inverse of ``read_idx_images``)."""
    if len(dataset) == 0:
        raise ValueError("cannot write an empty dataset")
    stream.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, len(dataset), dataset.height, dataset.width))
    stream.write(dataset.pixels.tobytes())


def write_idx_labels(labels: Sequence[int], stream: BinaryIO) -> None:
    labs = np.asarray(labels, dtype=np.int64)
    _check_labels(labs)
    stream.write(struct.pack(">ii", IDX_LABEL_MAGIC, labs.size))
    stream.write(labs.astype(np.uint8).tobytes())


def attach_labels(dataset: LabeledDataset, labels: Sequence[int]) -> LabeledDataset:
    """Pair each image with its label; counts must match."""
    return LabeledDataset(
        dataset.pixels, dataset.width, dataset.height, np.asarray(labels, dtype=np.int64)
    )
