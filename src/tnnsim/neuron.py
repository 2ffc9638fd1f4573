"""Ramp-no-leak neurons evaluated a whole bank at a time, on packed bits.

Synapse weights are stored as integer half-units so the smallest learning
step (half a unit) stays exact; a weight's effective value is
``half_units / 2``. The response of one synapse to a spike arriving at
step ``s`` is a unit ramp that starts contributing on the arrival step and
saturates at ``c = floor(weight)``:

    response(t) = min(t - s + 1, c)   for t >= s, else 0

There is no decay, so a neuron's potential is monotone within a cycle. A
neuron spikes at the first step where the summed response reaches its
threshold. Within a column the earliest neuron spike wins and inhibits the
rest until the next gamma reset; ties break to the lowest neuron index so
replays are deterministic.

The kernel rests on ``min(r, c) = sum_k [r >= k][c >= k]`` for ``k >= 1``.
Bit-plane ``k`` of a bank marks the synapses with ``c >= k``, packed 64
lines to a ``uint64`` word. A synapse whose spike arrives at step ``s``
adds one unit from step ``s + k - 1`` on for every plane ``k`` it is in, so
popcounting each plane ANDed with the mask of the lines arriving at ``s``
gives how many units start at each step, and the potential is the running
sum of those onsets. A ramp never runs longer than the period, so
``min(w_max, period)`` planes cover every weight. Everything is integer
arithmetic, so spike times are exact.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .encode import SpikeTime


def kernel_bytes(neurons: int, lines: int, depth: int, period: int) -> int:
    """Working set of one bank's kernel: its packed planes, one ANDed copy
    of them and its popcounts, and the int64 onset histogram."""
    return neurons * (17 * depth * -(-lines // 64) + 8 * (period + depth))


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a bool array into ``uint64`` words."""
    lines = bits.shape[-1]
    packed = np.zeros(bits.shape[:-1] + (8 * -(-lines // 64),), dtype=np.uint8)
    packed[..., : -(-lines // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view(np.uint64)


def weight_planes(weights_hu: np.ndarray, depth: int) -> np.ndarray:
    """Bit-planes of a ``(neurons, lines)`` half-unit bank.

    Returns ``(neurons, depth, ceil(lines / 64))`` ``uint64``; plane ``k``
    (index ``k - 1``) has a bit set where ``weights_hu // 2 >= k``. Planes
    are built one at a time so no bool tensor of the whole stack exists.
    """
    caps = np.asarray(weights_hu) // 2
    planes = np.empty((caps.shape[0], depth, -(-caps.shape[1] // 64)), dtype=np.uint64)
    for k in range(depth):
        planes[:, k] = _pack(caps > k)
    return planes


def layer_spike_times(
    planes: np.ndarray,
    times: Sequence[SpikeTime],
    period: int,
    threshold: Union[int, np.ndarray],
    lines: int,
) -> np.ndarray:
    """Spike times for a whole bank of neurons sharing one input volley.

    ``planes`` is the ``weight_planes`` of a bank with ``lines`` input
    lines; the planes hold the line count only to the word, so it is
    passed with them. Returns a float vector with ``np.inf`` where a
    neuron stays silent.
    """
    n_neurons, depth, words = planes.shape
    t_arr = np.asarray(times, dtype=float)
    if -(-lines // 64) != words:
        raise ValueError(f"{lines} lines do not pack into {words} words")
    if t_arr.shape[0] != lines:
        raise ValueError(f"volley has {t_arr.shape[0]} lines, expected {lines}")
    out = np.full(n_neurons, np.inf)
    # Arrivals at or past the period never contribute inside the cycle.
    steps = np.unique(t_arr[t_arr < period]).astype(np.int64)
    if steps.size == 0:
        return out
    if steps[0] < 0:
        raise ValueError(f"spike time {steps[0]} is negative")
    # onsets[:, t] counts the units that start at step t; a spike at s in
    # plane k (index k - 1) starts one at s + k - 1.
    onsets = np.zeros((n_neurons, period + depth), dtype=np.int64)
    for s, mask in zip(steps.tolist(), _pack(t_arr[None, :] == steps[:, None])):
        onsets[:, s : s + depth] += np.einsum(
            "ijk->ij", np.bitwise_count(planes & mask), dtype=np.int64, casting="safe"
        )
    potential = np.cumsum(onsets[:, :period], axis=1)
    reached = potential >= np.asarray(threshold).reshape(-1, 1)
    fired = reached.any(axis=1)
    out[fired] = np.argmax(reached[fired], axis=1)
    return out
