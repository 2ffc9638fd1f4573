"""Output checks that do not trust the simulator's own code paths.

``digests`` hashes the CSV artifacts and the weight-array values (not the
``.npz`` bytes, whose container format may change). ``winner_mismatches``
recomputes the network winner of sampled presentations with a plain
per-step potential evaluation and compares it with ``summary.csv``.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def digests(artifacts: dict[str, str], weights: list[np.ndarray]) -> dict[str, str]:
    out = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in sorted(artifacts.items())
    }
    h = hashlib.sha256()
    for k, w in enumerate(weights):
        h.update(f"layer{k}:{w.shape}:".encode())
        h.update(np.ascontiguousarray(w, dtype=np.int64).tobytes())
    out["weights"] = h.hexdigest()
    return out


def read_idx_pixels(path) -> np.ndarray:
    """``(count, rows * cols)`` uint8 pixels of an IDX image file."""
    with open(path, "rb") as f:
        raw = f.read()
    _, count, rows, cols = struct.unpack(">iiii", raw[:16])
    return np.frombuffer(raw[16:], dtype=np.uint8, count=count * rows * cols).reshape(
        count, rows * cols
    )


def encode(pixels: np.ndarray, encoder: str, period: int, pixel_threshold: int):
    """Dual-channel spike times, ``inf`` for no spike (README formulas)."""
    v = pixels.astype(np.int64)
    if encoder == "posneg":
        on = v > pixel_threshold
        return np.concatenate([np.where(on, 0.0, np.inf), np.where(on, np.inf, 0.0)])
    if encoder != "linear":
        raise ValueError(f"no reference encoder for {encoder!r}")

    def channel(x):
        level = (x * period + 255) // 256
        return np.where(level > 0, np.maximum(0, period - level), np.inf)

    return np.concatenate([channel(v), channel(255 - v)])


def spike_times(weights_hu: np.ndarray, x: np.ndarray, period: int, threshold: int):
    """First step whose summed ramp potential reaches ``threshold``."""
    live = np.isfinite(x)
    arrival = x[live].astype(np.int64)
    cap = weights_hu[:, live].astype(np.int64) // 2
    out = np.full(weights_hu.shape[0], np.inf)
    for t in range(period):
        ramp = np.clip(t - arrival + 1, 0, None)
        potential = np.minimum(ramp[None, :], cap).sum(axis=1)
        out[np.isinf(out) & (potential >= threshold)] = t
    return out


def network_winner(weights, x, period, thresholds):
    """``(column, neuron, time)`` of the earliest final-layer column, or None."""
    for w, threshold in zip(weights, thresholds):
        cols, neurons, lines = w.shape
        times = spike_times(w.reshape(cols * neurons, lines), x, period, threshold)
        times = times.reshape(cols, neurons)
        idx = np.argmin(times, axis=1)
        x = times[np.arange(cols), idx]
    if not np.isfinite(x).any():
        return None
    col = int(np.argmin(x))
    return col, int(idx[col]), int(x[col])


def winner_mismatches(summary_csv, pixels, weights, spec, sample) -> list[str]:
    """Sampled presentations whose reference winner differs from the CSV."""
    rows = summary_csv.splitlines()[1:]
    bad = []
    for i in sample:
        _, _, _, col, neuron, time = rows[i].split(",")
        got = None if time == "inf" else (int(col), int(neuron), int(time))
        x = encode(pixels[i], spec.encoder, spec.period, spec.pixel_threshold)
        want = network_winner(weights, x, spec.period, spec.thresholds)
        if got != want:
            bad.append(f"presentation {i}: summary.csv {got}, reference {want}")
    return bad
