"""Ramp-no-leak winner-take-all columns evaluated a whole layer at a time,
on packed bits.

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

The planes are stored word-major, ``(words, neurons, depth)``, so one
arrival step is one AND of ``words`` long rows with the step's mask, one
popcount, and one sum down the words. Arrival steps are taken in
increasing order; once step ``s_j`` is in, no later arrival can change a
potential before ``s_{j+1}``, so the kernel stops as soon as every column
has a neuron at threshold before the next arrival step, as the relaxed
gamma clock ends a cycle once every column has answered.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .encode import SpikeTime

# Bytes of the bool plane stack ``weight_planes`` builds at a time.
_PACK_CHUNK = 1 << 20


def kernel_bytes(neurons: int, lines: int, depth: int, period: int) -> int:
    """Working set of one bank's kernel call, an upper bound on what it
    holds at once: per neuron its packed planes, one ANDed copy of them and
    their popcounts, one step's onset sums, the int64 potential and its
    threshold test; per line the volley's arrival test and steps; the
    packed mask of each distinct arrival step, a count per step, and
    numpy's casting buffers."""
    words = -(-lines // 64)
    per_neuron = 17 * depth * words + 8 * depth + 9 * period + 32
    masks = min(period, lines) * (lines + 16 * words)
    return neurons * per_neuron + masks + 32 * lines + 8 * period + (1 << 17)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a bool array into ``uint64`` words."""
    lines = bits.shape[-1]
    packed = np.zeros(bits.shape[:-1] + (8 * -(-lines // 64),), dtype=np.uint8)
    packed[..., : -(-lines // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view(np.uint64)


def weight_planes(weights_hu: np.ndarray, depth: int) -> np.ndarray:
    """Bit-planes of a ``(neurons, lines)`` half-unit bank.

    Returns a ``(neurons, depth, ceil(lines / 64))`` ``uint64`` view of
    word-major ``(words, neurons, depth)`` storage; plane ``k`` (index
    ``k - 1``) has a bit set where ``weights_hu // 2 >= k``. Rows are
    packed a block at a time, so the bool stack of their planes stays near
    ``_PACK_CHUNK`` bytes, and a few rows pack in one pass.
    """
    caps = np.asarray(weights_hu) // 2
    neurons, lines = caps.shape
    words = -(-lines // 64)
    store = np.empty((words, neurons, depth), dtype=np.uint64)
    block = max(1, _PACK_CHUNK // (depth * 64 * words))
    for r in range(0, neurons, block):
        # Rows padded with zero caps to whole words, so every compare
        # writes one contiguous plane and one flat packbits packs them all.
        padded = np.zeros((min(block, neurons - r), 64 * words), dtype=caps.dtype)
        padded[:, :lines] = caps[r : r + block]
        stack = np.empty((depth,) + padded.shape, dtype=bool)
        for k in range(depth):
            np.greater(padded, k, out=stack[k])
        packed = np.packbits(stack, bitorder="little").view(np.uint64)
        store[:, r : r + block] = packed.reshape(depth, -1, words).transpose(2, 1, 0)
    return store.transpose(1, 2, 0)


def layer_spike_times(
    planes: np.ndarray,
    times: Sequence[SpikeTime],
    period: int,
    threshold: Union[int, np.ndarray],
    lines: int,
    cols: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Winner of every column of a layer sharing one input volley.

    ``planes`` is the ``weight_planes`` of a bank with ``lines`` input
    lines whose neurons are ``cols`` columns in order; the planes hold the
    line count only to the word, so it is passed with them. ``threshold``
    is one value or one per neuron, each at least 1. Returns each column's
    winner neuron (-1 where it stays silent) as int64 and its spike time
    (``np.inf`` where silent) as float.
    """
    n_neurons, depth, words = planes.shape
    t_arr = np.asarray(times, dtype=float)
    if -(-lines // 64) != words:
        raise ValueError(f"{lines} lines do not pack into {words} words")
    if t_arr.shape[0] != lines:
        raise ValueError(f"volley has {t_arr.shape[0]} lines, expected {lines}")
    if cols < 1 or n_neurons % cols:
        raise ValueError(f"{n_neurons} neurons do not split into {cols} columns")
    # Arrivals at or past the period never contribute inside the cycle.
    live = t_arr[t_arr < period]
    if live.size == 0:
        return np.full(cols, -1, dtype=np.int64), np.full(cols, np.inf)
    if live.min() < 0:
        raise ValueError(f"spike time {live.min():g} is negative")
    steps = np.flatnonzero(np.bincount(live.astype(np.int64), minlength=period))
    th = np.broadcast_to(np.asarray(threshold), (n_neurons,))
    # A view for planes from ``weight_planes``; other layouts are copied.
    store = planes.transpose(2, 0, 1).reshape(words, n_neurons * depth)
    anded = np.empty_like(store)
    counts = np.empty(store.shape, dtype=np.uint8)
    # A popcount is at most 64 and a plane marks at most ``lines`` bits.
    sum_dtype = np.uint16 if lines < 1 << 16 else np.int64
    # Ramp-unit onsets per step and neuron; rows ``[:done]`` have been
    # summed in place into the (final) potential.
    potential = np.zeros((period, n_neurons), dtype=np.int64)
    nexts = np.append(steps[1:], period).tolist()
    done = 0
    for s, nxt, mask in zip(steps.tolist(), nexts, _pack(t_arr == steps[:, None])):
        np.bitwise_and(store, mask[:, None], out=anded)
        np.bitwise_count(anded, out=counts)
        onsets = counts.sum(axis=0, dtype=sum_dtype).reshape(n_neurons, depth)
        # Plane k (index k - 1) starts its units at s + k - 1.
        end = min(s + depth, period)
        potential[s:end] += onsets[:, : end - s].T
        # Later arrivals start at nxt or after: the potential before nxt is final.
        lo = max(done - 1, 0)
        np.cumsum(potential[lo:nxt], axis=0, out=potential[lo:nxt])
        done = nxt
        if done < period and (potential[done - 1] >= th).reshape(cols, -1).any(axis=1).all():
            break
    # The potential is monotone: a spike time is the count of steps below
    # threshold, and ``done`` for a neuron still below it.
    below = (potential[:done] < th).sum(axis=0).reshape(cols, -1)
    idx = below.argmin(axis=1)
    win = below[np.arange(cols), idx].astype(float)
    silent = win == period
    idx[silent] = -1
    win[silent] = np.inf
    return idx, win
