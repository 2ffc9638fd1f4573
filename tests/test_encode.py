"""Encoder behavior: bit channels, graded codes, volley layout."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracle import readme_encode

from tnnsim.dataio import LabeledDataset
from tnnsim.encode import INF, Linear, Log, PosNeg, encode_image


def channels(pixels, kind):
    """(positive, negative) spike-time lists of one image."""
    times = encode_image(np.asarray(pixels, dtype=np.uint8), kind).times.tolist()
    half = len(times) // 2
    return times[:half], times[half:]


def pos_time(v, kind):
    """Positive-channel spike time of a single intensity."""
    return channels([v], kind)[0][0]


def neg_time(v, kind):
    """Negative-channel spike time of a single intensity."""
    return channels([v], kind)[1][0]


class TestPosNegBits:
    def test_above_threshold(self):
        assert channels([200], PosNeg(127)) == ([0], [INF])

    def test_below_threshold(self):
        assert channels([0], PosNeg(127)) == ([INF], [0])

    def test_equal_joins_negative_side(self):
        assert channels([127], PosNeg(127)) == ([INF], [0])

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_channels_complement(self, pixel, threshold):
        pos, neg = channels([pixel], PosNeg(threshold))
        assert {pos[0], neg[0]} == {0, INF}


class TestBitToSpiketime:
    def test_set_bit_spikes_at_zero(self):
        assert pos_time(255, PosNeg(127)) == 0

    def test_clear_bit_never_spikes(self):
        assert pos_time(0, PosNeg(127)) == INF


class TestLevelToTime:
    def test_calibration_vector(self):
        # Intensities at levels 0..5 (ceil(v / 16)) land on
        # [inf, 15, 14, 13, 12, 11].
        pos, _ = channels([0, 1, 17, 33, 49, 65], Linear(16))
        assert pos == [INF, 15, 14, 13, 12, 11]

    def test_full_scale_level_spikes_first(self):
        # 241..255 all reach level 16.
        assert pos_time(241, Linear(16)) == 0
        assert pos_time(255, Linear(16)) == 0

    def test_overflow_clamps_to_zero(self):
        # No intensity reaches past the top level, at any period.
        for period in range(2, 65):
            pos, _ = channels(range(256), Linear(period))
            assert min(pos) == 0


class TestLinear:
    def test_zero_never_spikes(self):
        assert pos_time(0, Linear(16)) == INF

    def test_brightest_spikes_first(self):
        assert pos_time(255, Linear(16)) == 0

    def test_quantization_points(self):
        lin = Linear(16)
        # time = 16 - ceil(v / 16) for the 16-step code
        assert pos_time(1, lin) == 15
        assert pos_time(16, lin) == 15
        assert pos_time(17, lin) == 14
        assert pos_time(128, lin) == 8
        assert pos_time(100, lin) == 9
        assert pos_time(200, lin) == 3

    def test_monotone_nonincreasing_exhaustive(self):
        times, _ = channels(range(256), Linear(16))
        for u in range(1, 255):
            assert times[u] >= times[u + 1]

    def test_times_in_range(self):
        times, _ = channels(range(1, 256), Linear(16))
        assert all(0 <= t <= 15 for t in times)


class TestLog:
    def test_zero_never_spikes(self):
        assert pos_time(0, Log(16)) == INF

    def test_brightest_spikes_first(self):
        assert pos_time(255, Log(16)) == 0

    def test_halving_points(self):
        log = Log(16)
        # floor(log2(255 / v) * 15 / 8), capped at 15
        assert pos_time(128, log) == 1
        assert pos_time(64, log) == 3
        assert pos_time(32, log) == 5
        assert pos_time(16, log) == 7
        assert pos_time(2, log) == 13
        assert pos_time(1, log) == 14

    def test_monotone_nonincreasing_exhaustive(self):
        times, _ = channels(range(256), Log(16))
        for u in range(1, 255):
            assert times[u] >= times[u + 1]

    def test_times_in_range(self):
        times, _ = channels(range(1, 256), Log(16))
        assert all(0 <= t <= 15 for t in times)


class TestNegateThenEncode:
    def test_full_intensity_never_spikes(self):
        assert neg_time(255, Linear(16)) == INF

    def test_zero_intensity_spikes_first(self):
        assert neg_time(0, Linear(16)) == 0

    @given(st.integers(0, 255))
    def test_reflection_identity(self, v):
        lin = Linear(16)
        assert neg_time(v, lin) == pos_time(255 - v, lin)


class TestEncodeImage:
    def test_posneg_all_zero_image(self):
        assert channels([0] * 9, PosNeg(127)) == ([INF] * 9, [0] * 9)

    def test_linear_constant_bright_image(self):
        assert channels([255] * 4, Linear(16)) == ([0] * 4, [INF] * 4)

    def test_length_is_twice_pixels(self):
        pixels = np.arange(30, dtype=np.uint8)
        for kind in (PosNeg(127), Linear(16), Log(16)):
            volley = encode_image(pixels, kind)
            assert len(volley) == 60
            assert volley.times.shape == (60,)
            assert volley.times.dtype == np.float64

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=40))
    def test_posneg_one_finite_spike_per_pixel_at_zero(self, pixels):
        pos, neg = channels(pixels, PosNeg(127))
        for p, n in zip(pos, neg):
            assert (p, n) in ((0, INF), (INF, 0))

    def test_accepts_object_with_pixels(self):
        # A dataset row, or the whole stack of rows at once.
        dataset = LabeledDataset(
            np.array([[0, 255, 3, 200], [255, 0, 0, 0]], dtype=np.uint8), width=2, height=2
        )
        volley = encode_image(dataset[0].pixels, PosNeg(127))
        assert volley.times.tolist() == [INF, 0, INF, 0, 0, INF, 0, INF]
        stacked = encode_image(dataset.pixels, PosNeg(127))
        assert stacked.shape == (2, 8)
        assert np.array_equal(stacked[0], volley)
        for kind in (PosNeg(127), Linear(16), Log(16)):
            stacked = encode_image(dataset.pixels, kind)
            assert stacked.dtype == np.float64
            for row, pixels in zip(stacked, dataset.pixels):
                assert np.array_equal(row, encode_image(pixels, kind).times)

    def test_deterministic(self):
        pixels = np.arange(0, 256, 5, dtype=np.uint8)
        for kind in (PosNeg(127), Linear(16), Log(16)):
            assert np.array_equal(encode_image(pixels, kind), encode_image(pixels, kind))


class TestReadmeFormulas:
    def test_every_intensity_period_and_encoder(self):
        # uint8 input on purpose: the encoder must widen before it computes
        # ``v * period`` or ``255 - v``.
        pixels = np.arange(256, dtype=np.uint8)
        kinds = [PosNeg(t) for t in range(256)]
        kinds += [k(p) for p in range(2, 65) for k in (Linear, Log)]
        for kind in kinds:
            want = readme_encode(range(256), kind)
            assert encode_image(pixels, kind).times.tolist() == want, kind


class TestEncoderValidation:
    def test_posneg_threshold_range(self):
        for bad in (256, 127.5, True):
            with pytest.raises(ValueError, match=f"in 0..255, got {bad!r}"):
                PosNeg(threshold=bad)

    def test_period_minimum(self):
        for bad in (1, 16.5):
            with pytest.raises(ValueError, match=f"period must be an integer >= 2, got {bad}"):
                Linear(period=bad)
        with pytest.raises(ValueError):
            Log(period=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError):
            encode_image(np.zeros(4, dtype=np.uint8), "linear")

    @pytest.mark.parametrize(
        "pixels, text",
        [
            ([300, 10], "300"),
            ([10, -1], "-1"),
            ([np.nan], "nan"),
            ([127.9], "127.9"),
            ([3.0, 255.5], "255.5"),
            ([INF], "inf"),
            ([[0, 1], [2, 256]], "256"),
        ],
        ids=["300", "-1", "nan", "127.9", "255.5", "inf", "stack-256"],
    )
    def test_intensities_must_be_whole_numbers_in_range(self, pixels, text):
        # Before, 300 encoded to a negative code, NaN to a warning and 127.9
        # to the negative side of a 127 threshold.
        for kind in (PosNeg(127), Linear(16), Log(16)):
            with pytest.raises(
                ValueError, match=f"intensity {text} is not a whole number in 0..255"
            ):
                encode_image(pixels, kind)

    def test_whole_floats_encode_as_bytes(self):
        pixels = np.arange(256)
        for kind in (PosNeg(127), Linear(16), Log(16)):
            want = encode_image(pixels.astype(np.uint8), kind).times
            assert np.array_equal(encode_image(pixels.astype(float), kind).times, want)
