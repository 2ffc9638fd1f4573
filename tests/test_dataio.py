"""IDX parsing against hand-packed byte layouts, from bytes, streams and
files on disk, which are mapped."""

import io
import mmap
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tnnsim.dataio import (
    BadMagicError,
    DimensionOverflowError,
    IdxFormatError,
    LabeledDataset,
    LabelRangeError,
    TruncatedStreamError,
    attach_labels,
    read_idx_images,
    read_idx_labels,
    write_idx_images,
    write_idx_labels,
)


def pack_images(images, rows, cols):
    """Independent byte-level construction of an IDX image file."""
    blob = struct.pack(">iiii", 2051, len(images), rows, cols)
    for img in images:
        blob += bytes(img)
    return blob


def pack_labels(labels):
    return struct.pack(">ii", 2049, len(labels)) + bytes(labels)


def dataset_of(rows, width, height):
    """An unlabeled dataset from a list of pixel lists."""
    pixels = np.array(rows, dtype=np.uint8).reshape(len(rows), width * height)
    return LabeledDataset(pixels, width=width, height=height)


class TestReadIdxImages:
    def test_two_images_parsed_back(self):
        imgs = [[10, 20, 30, 40, 50, 60], [0, 255, 128, 1, 2, 3]]
        dataset = read_idx_images(pack_images(imgs, rows=2, cols=3))
        assert len(dataset) == 2
        assert dataset.pixels.dtype == np.uint8
        assert dataset.pixels.tolist() == imgs
        assert dataset[1].pixels.tolist() == [0, 255, 128, 1, 2, 3]
        assert dataset[0].width == 3
        assert dataset[0].height == 2
        assert dataset[0].label is None

    def test_accepts_stream(self):
        blob = pack_images([[7, 8, 9, 10]], rows=2, cols=2)
        dataset = read_idx_images(io.BytesIO(blob))
        assert dataset[0].pixels.tolist() == [7, 8, 9, 10]

    def test_empty_file_is_empty_dataset(self):
        dataset = read_idx_images(pack_images([], rows=28, cols=28))
        assert len(dataset) == 0
        assert dataset.pixels.shape == (0, 784)

    def test_trailing_bytes_ignored(self):
        blob = pack_images([[1, 2, 3, 4]], rows=2, cols=2) + b"junk"
        assert read_idx_images(blob)[0].pixels.tolist() == [1, 2, 3, 4]

    def test_bad_magic(self):
        blob = struct.pack(">iiii", 2049, 1, 2, 2) + bytes(4)
        with pytest.raises(BadMagicError):
            read_idx_images(blob)

    def test_truncated_header(self):
        with pytest.raises(TruncatedStreamError):
            read_idx_images(b"\x00\x00\x08\x03\x00")

    def test_truncated_payload(self):
        blob = struct.pack(">iiii", 2051, 2, 2, 2) + bytes(7)
        with pytest.raises(TruncatedStreamError):
            read_idx_images(blob)

    def test_dimension_overflow(self):
        # Far past the payload bound of 2**31 bytes, and just past it.
        for count, rows, cols in ((2**20, 2**10, 2**10), (2**16 + 1, 2**15, 1)):
            blob = struct.pack(">iiii", 2051, count, rows, cols) + bytes(64)
            with pytest.raises(DimensionOverflowError):
                read_idx_images(blob)

    def test_negative_dimension(self):
        blob = struct.pack(">iiii", 2051, -1, 2, 2)
        with pytest.raises(DimensionOverflowError):
            read_idx_images(blob)

    def test_errors_are_value_errors(self):
        assert issubclass(BadMagicError, IdxFormatError)
        assert issubclass(IdxFormatError, ValueError)


class TestReadIdxLabels:
    def test_labels_parsed_back(self):
        labels = read_idx_labels(pack_labels([4, 0, 9, 7]))
        assert labels.dtype == np.int64
        assert labels.tolist() == [4, 0, 9, 7]

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            read_idx_labels(pack_images([[1, 2, 3, 4]], 2, 2))

    def test_bad_magic_named(self):
        blob = struct.pack(">ii", 2050, 1) + bytes(1)
        with pytest.raises(BadMagicError, match="expected label magic 2049, got 2050"):
            read_idx_labels(blob)

    @pytest.mark.parametrize("count", [-1, -(1 << 31)])
    def test_declared_count_out_of_range(self, count):
        # A signed header count; unchecked, -1 would read every byte after it.
        blob = struct.pack(">ii", 2049, count) + bytes(4)
        with pytest.raises(DimensionOverflowError, match=f"declared count {count} out of range"):
            read_idx_labels(blob)

    def test_out_of_range_label(self):
        with pytest.raises(LabelRangeError):
            read_idx_labels(pack_labels([3, 10]))

    def test_truncated_payload(self):
        blob = struct.pack(">ii", 2049, 5) + bytes(3)
        with pytest.raises(TruncatedStreamError):
            read_idx_labels(blob)


def mapped(array) -> bool:
    """Whether ``array`` views a memory map."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap)


class TestReadFromFile:
    """A file on disk is mapped, not copied, and reads as its bytes do."""

    IMAGES = [[10, 20, 30, 40, 50, 60], [0, 255, 128, 1, 2, 3]]

    def write(self, tmp_path, blob, name="data.idx"):
        path = tmp_path / name
        path.write_bytes(blob)
        return path

    def test_dataset_outlives_its_file(self, tmp_path):
        path = self.write(tmp_path, pack_images(self.IMAGES, rows=2, cols=3))
        with open(path, "rb") as f:
            dataset = read_idx_images(f)
            assert f.tell() == os.path.getsize(path)
        assert f.closed and mapped(dataset.pixels)
        assert dataset.pixels.tolist() == self.IMAGES
        assert (dataset.width, dataset.height) == (3, 2)

    def test_pixels_are_read_only(self, tmp_path):
        path = self.write(tmp_path, pack_images(self.IMAGES, rows=2, cols=3))
        with open(path, "rb") as f:
            pixels = read_idx_images(f).pixels
        assert not pixels.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pixels[0, 0] = 1
        assert path.read_bytes() == pack_images(self.IMAGES, rows=2, cols=3)

    def test_reads_from_the_stream_position(self, tmp_path):
        # Two files back to back, the second read from where the first ends.
        first = pack_images(self.IMAGES, rows=2, cols=3)
        second = pack_images([[9, 8, 7, 6]], rows=2, cols=2)
        path = self.write(tmp_path, b"junk" + first + second + pack_labels([3, 1]))
        with open(path, "rb") as f:
            f.seek(4)
            assert read_idx_images(io.BytesIO(f.read(len(first)))).pixels.tolist() == self.IMAGES
            assert read_idx_images(f).pixels.tolist() == [[9, 8, 7, 6]]
            assert f.tell() == os.path.getsize(path)
            f.seek(4 + len(first) + len(second))
            assert read_idx_labels(f).tolist() == [3, 1]

    def test_labels_read_from_file(self, tmp_path):
        path = self.write(tmp_path, pack_labels([4, 0, 9, 7]))
        with open(path, "rb") as f:
            labels = read_idx_labels(f)
        assert labels.dtype == np.int64 and labels.tolist() == [4, 0, 9, 7]

    @pytest.mark.parametrize(
        "reader, blob",
        [
            (read_idx_images, b""),
            (read_idx_images, b"\x00\x00\x08\x03\x00"),
            (read_idx_images, struct.pack(">iiii", 2051, 2, 2, 2)),
            (read_idx_images, struct.pack(">iiii", 2051, 2, 2, 2) + bytes(7)),
            (read_idx_images, struct.pack(">iiii", 2049, 1, 2, 2) + bytes(4)),
            (read_idx_labels, b""),
            (read_idx_labels, struct.pack(">ii", 2049, 5)),
            (read_idx_labels, struct.pack(">ii", 2049, 5) + bytes(3)),
        ],
        ids=[
            "images-empty", "images-short-header", "images-header-only", "images-truncated",
            "images-bad-magic", "labels-empty", "labels-header-only", "labels-truncated",
        ],
    )
    def test_malformed_files_fail_as_their_bytes_do(self, tmp_path, reader, blob):
        with pytest.raises(IdxFormatError) as from_bytes:
            reader(blob)
        path = self.write(tmp_path, blob)
        with open(path, "rb") as f, pytest.raises(IdxFormatError) as from_file:
            reader(f)
        assert type(from_file.value) is type(from_bytes.value)
        assert str(from_file.value) == str(from_bytes.value)

    def test_file_at_its_end_reads_as_empty(self, tmp_path):
        path = self.write(tmp_path, pack_images(self.IMAGES, rows=2, cols=3))
        with open(path, "rb") as f:
            f.seek(0, io.SEEK_END)
            with pytest.raises(TruncatedStreamError, match="stream has 0"):
                read_idx_images(f)

    def test_pipe_is_read(self):
        blob = pack_images(self.IMAGES, rows=2, cols=3)
        read_end, write_end = os.pipe()
        writer = threading.Thread(target=lambda: (os.write(write_end, blob), os.close(write_end)))
        writer.start()
        with open(read_end, "rb") as f:
            dataset = read_idx_images(f)
        writer.join()
        assert not mapped(dataset.pixels) and dataset.pixels.tolist() == self.IMAGES

    def test_bytes_and_streams_are_not_mapped(self):
        blob = pack_images(self.IMAGES, rows=2, cols=3)
        for data in (blob, bytearray(blob), io.BytesIO(blob)):
            pixels = read_idx_images(data).pixels
            assert not mapped(pixels) and pixels.tolist() == self.IMAGES


class TestIdxRoundTrip:
    @given(
        st.lists(
            st.lists(st.integers(0, 255), min_size=6, max_size=6),
            min_size=1,
            max_size=5,
        )
    )
    def test_images_round_trip(self, raw):
        dataset = dataset_of(raw, width=3, height=2)
        buf = io.BytesIO()
        write_idx_images(dataset, buf)
        back = read_idx_images(buf.getvalue())
        assert (back.width, back.height) == (3, 2)
        assert np.array_equal(back.pixels, dataset.pixels)

    def test_labels_round_trip(self):
        buf = io.BytesIO()
        write_idx_labels([0, 1, 9, 9, 4], buf)
        assert read_idx_labels(buf.getvalue()).tolist() == [0, 1, 9, 9, 4]

    def test_write_validates_labels(self):
        with pytest.raises(LabelRangeError):
            write_idx_labels([11], io.BytesIO())

    def test_write_rejects_mixed_dimensions(self):
        # One array holds every image, so rows that do not match the
        # declared size never reach the writer.
        with pytest.raises(ValueError):
            write_idx_images(
                LabeledDataset(np.ones((2, 6), dtype=np.uint8), width=2, height=2),
                io.BytesIO(),
            )
        with pytest.raises(ValueError):
            write_idx_images(dataset_of([], width=2, height=2), io.BytesIO())


class TestAttachLabels:
    def test_pairs_in_order(self):
        dataset = read_idx_images(pack_images([[1] * 4, [2] * 4], 2, 2))
        labeled = attach_labels(dataset, [3, 8])
        assert labeled.labels.tolist() == [3, 8]
        assert labeled.labels.dtype == np.int64
        assert labeled.pixels is dataset.pixels
        assert labeled[0].pixels.tolist() == [1, 1, 1, 1]
        assert labeled[1].label == 8

    def test_count_mismatch(self):
        dataset = read_idx_images(pack_images([[1] * 4], 2, 2))
        with pytest.raises(ValueError):
            attach_labels(dataset, [1, 2])


class TestPixelImage:
    """Image invariants, checked once when the dataset is built."""

    def test_pixel_count_must_match_dims(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((1, 3), dtype=np.uint8), width=2, height=2)
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros(4, dtype=np.uint8), width=2, height=2)
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((1, 0), dtype=np.uint8), width=0, height=2)

    def test_pixel_range_enforced(self):
        # Intensities must already be uint8, so 0..255 holds by type.
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[0, 300, 0, 0]]), width=2, height=2)
        with pytest.raises(ValueError):
            LabeledDataset([[0, 1, 0, 0]], width=2, height=2)

    def test_label_range_enforced(self):
        pixels = np.zeros((2, 4), dtype=np.uint8)
        with pytest.raises(LabelRangeError, match="label 12 at index 1"):
            LabeledDataset(pixels, 2, 2, np.array([3, 12], dtype=np.int64))
        with pytest.raises(LabelRangeError):
            LabeledDataset(pixels, 2, 2, np.array([-1, 3], dtype=np.int64))
        with pytest.raises(ValueError):
            LabeledDataset(pixels, 2, 2, np.array([3, 4], dtype=np.uint8))
        with pytest.raises(ValueError, match="2 images but 1 labels"):
            LabeledDataset(pixels, 2, 2, np.array([3], dtype=np.int64))
