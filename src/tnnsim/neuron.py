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
gives how many units each plane starts. The potential at step ``t`` is the
sum of the onsets of every plane ``k`` and arrival ``s`` with
``s + k - 1 <= t``. So the product of a 0/1 ramp, ``R[i, k - 1] = [i >=
k - 1]`` for ``i < depth``, with the ``(depth, neurons)`` onsets of step
``s`` is that step's contribution to rows ``s`` to ``s + depth - 1`` of
the ``(period, neurons)`` potential, and its last row, the onsets' total,
is the contribution to every later row: no running sum over time. A ramp
never runs longer than the period, so the ramp keeps only its first
``min(depth, period)`` rows, the ones a cycle reaches, and planes past the
period add nothing. Every value is a whole number of units no larger than
``lines * min(depth, period)``, held exactly in floating point, so spike
times are exact.

The planes are stored word-major, ``(words, neurons, depth)``, so one
arrival step is one AND of ``words`` long rows with the step's mask, one
popcount, and one sum down the words. Arrival steps are taken in
increasing order; once step ``s_j`` is in, no later arrival can change a
potential before ``s_{j+1}``, so the kernel stops as soon as every column
has a neuron at threshold before the next arrival step, as the relaxed
gamma clock ends a cycle once every column has answered.

A mask word with no line arriving adds nothing, and a graded volley
spreads its lines over the cycle, so many of its steps touch only a few
words. Each step copies just the rows of the words its lines touch into
the AND buffer and ANDs, popcounts and sums them alone.

A layer's ``KernelWorkspace`` is built from its ``(columns, neurons,
lines)`` weight bank, which it keeps: it packs the bank's planes, in that
word-major storage, and reads its line and column counts from the bank's
shape, so this module alone knows the layout. It holds everything else a
call reuses, so a call is ``layer_spike_times(work, volley)`` and checks
no shape; STDP moves the same planes in place, so the next call reads
each update.

Under the posneg code every line of layer 0 spikes at step 0 or never, so
with frozen weights ``posneg_spike_times`` answers for a stack of images
at once from the same workspace: one matrix product of the images' 0/1
spikes with the planes' unpacked bits per block of images and neurons.

The kernel reads its input's arrival steps and their packed masks from an
``encode.Volley``, and hands its answer on as one: each column's step
code is its count of steps below threshold, so no reader checks it again.
Raw times come in through ``Volley.from_times``, which rejects a time that
breaks the spike-time rule and times that are not 1-D.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .encode import PosNeg, SpikeTime, Volley, pack_lines

# Bytes of the bool plane stack ``weight_planes`` builds at a time, of the
# stack of planes ``stdp.update_layer`` steps at a time, and of each float
# block ``posneg_spike_times`` multiplies.
_PACK_CHUNK = 1 << 20
# Most images ``posneg_spike_times`` takes in one block.
_BATCH_IMAGES = 128


def kernel_bytes(neurons: int, lines: int, depth: int, period: int) -> int:
    """Working set of one bank's kernel, an upper bound on what its
    ``KernelWorkspace`` and one call hold at once: per neuron its packed
    planes, one ANDed copy of them and their popcounts, the onset sums,
    their float copy and their product with the ramp, the threshold, the
    float potential and its bool below-mask, and the per-column results;
    the ramp; per line the volley's arrival test and steps and the
    ``valid`` plane of the layer's ``stdp.LearningState``; the packed mask
    of each distinct arrival step, a count per step, and numpy's casting
    buffers. A ``posneg_spike_times`` call on the layer adds its blocks:
    the plane differences and potentials of at most ``_PACK_CHUNK`` bytes
    or one neuron's ``min(depth, period)`` rows each, their bits and
    compares, an image block's spikes and the per-column reductions,
    within five times that."""
    words = -(-lines // 64)
    per_neuron = 17 * depth * words + 24 * depth + 9 * period + 48
    masks = min(period, lines) * (lines + 16 * words)
    ramp = 8 * min(depth, period) * depth
    batch = 5 * (_PACK_CHUNK + 4 * min(depth, period) * (lines + 2 * _BATCH_IMAGES))
    return neurons * per_neuron + masks + ramp + batch + 32 * lines + 8 * period + (1 << 17)


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


def unpack_weights(planes: np.ndarray, parity: np.ndarray, out: np.ndarray) -> None:
    """Half-unit weights back from bit-planes and their parity, in place.

    ``planes`` is a ``(neurons, depth, words)`` bank as ``weight_planes``
    returns it, ``parity`` the packed ``weights_hu & 1`` as ``(neurons,
    words)``, and ``out`` the ``(neurons, lines)`` integer bank to write
    ``2 * sum_k plane_k + parity`` into: the weights themselves when no
    whole-unit weight exceeds ``depth``. Rows unpack a block at a time, so
    their unpacked bits stay near ``_PACK_CHUNK`` bytes.
    """
    neurons, depth, words = planes.shape
    lines = out.shape[1]
    block = max(1, _PACK_CHUNK // (depth * 64 * words))
    for r in range(0, neurons, block):
        bits, half = (
            np.unpackbits(
                np.ascontiguousarray(a[r : r + block]).view(np.uint8),
                axis=-1, count=lines, bitorder="little",
            )
            for a in (planes, parity)
        )
        out[r : r + block] = 2 * bits.sum(axis=1, dtype=out.dtype) + half


class KernelWorkspace:
    """One layer's kernel, built from its ``(columns, neurons, lines)``
    half-unit bank ``weights``, which it keeps: the bank's planes
    ``depth`` deep and its column and line counts, the layer's period,
    and what every call reuses: the AND, popcount and onset buffers, the
    potential, the per-neuron thresholds and the ramp.

    The planes are packed once, here, by ``weight_planes``, into its
    word-major storage. ``planes`` is their ``(neurons, depth, words)``
    view, which ``stdp.LearningState`` writes in place, and ``store`` the
    ``(words, neurons * depth)`` view the kernel reads.
    """

    def __init__(
        self, weights: np.ndarray, period: int, threshold: Union[int, np.ndarray], depth: int
    ):
        self.cols, _, lines = weights.shape
        self.weights, self.period, self.lines = weights, period, lines
        self.planes = weight_planes(weights.reshape(-1, lines), depth)
        n_neurons, depth, words = self.shape = self.planes.shape
        self.store = self.planes.transpose(2, 0, 1).reshape(words, -1)
        self.anded = np.empty((words, n_neurons * depth), dtype=np.uint64)
        self.counts = np.empty(self.anded.shape, dtype=np.uint8)
        # A popcount is at most 64 and a plane marks at most ``lines`` bits.
        self.sums = np.empty(n_neurons * depth, dtype=np.min_scalar_type(lines))
        # A ramp runs at most ``period`` steps of a cycle: only its first
        # ``rows`` rows are read, and no synapse adds more than ``rows`` units.
        rows = min(depth, period)
        # A potential is a whole number of units, at most ``lines * rows``:
        # a float32 holds it and every partial sum exactly below 2**24, a
        # float64 below 2**53, past any bank that fits in memory. So does
        # every threshold taken to its ceiling and clipped to one past the
        # reach, which a potential never meets either way.
        reach = lines * rows
        dtype = np.float32 if reach < 1 << 24 else np.float64
        self.onsets = np.empty((n_neurons, depth), dtype=dtype)
        th = np.minimum(np.broadcast_to(np.asarray(threshold), (n_neurons,)), reach + 1)
        self.threshold = np.ceil(th.astype(np.float64)).astype(dtype)
        self.potential = np.empty((period, n_neurons), dtype=dtype)
        self.product = np.empty((rows, n_neurons), dtype=dtype)
        self.below = np.empty(self.potential.shape, dtype=bool)
        # A neuron's count of steps below threshold, its step code, is at
        # most the period.
        self.count_dtype = np.min_scalar_type(period)
        # ``ramp[i, k]`` is 1 where plane ``k + 1`` of an arrival at step
        # ``s`` has started its unit by step ``s + i``; from ``s + depth - 1``
        # on every plane has.
        self.ramp = np.empty((rows, depth), dtype=dtype)
        np.greater_equal(np.arange(rows)[:, None], np.arange(depth), out=self.ramp)


def layer_spike_times(
    work: KernelWorkspace, volley: Union[Volley, Sequence[SpikeTime]]
) -> tuple[np.ndarray, Volley]:
    """Winner of every column of a layer sharing one input volley.

    ``work`` is the layer's ``KernelWorkspace``: its planes, whose neurons
    are ``work.cols`` columns in order, its period, thresholds and line
    count. ``volley`` is an ``encode.Volley``, or raw spike times, which
    ``Volley.from_times`` checks. Returns each column's winner neuron (-1 where it stays silent)
    as int64, and the ``Volley`` of the columns' spikes, one line per
    column, its codes at ``np.min_scalar_type(period)``: the next layer's
    input.
    """
    period, lines, cols = work.period, work.lines, work.cols
    volley = Volley.from_times(volley, period)
    if len(volley) != lines:
        raise ValueError(f"volley has {len(volley)} lines, expected {lines}")
    steps = volley.steps
    if not steps.size:
        silent = np.full(cols, period, dtype=work.count_dtype)
        return np.full(cols, -1, dtype=np.int64), Volley(silent, period)
    depth, store, th = work.shape[1], work.store, work.threshold
    anded, counts, sums = work.anded, work.counts, work.sums
    potential, product, onsets, ramp = work.potential, work.product, work.onsets, work.ramp
    potential.fill(0)
    nexts = steps[1:].tolist() + [period]
    for s, nxt, mask in zip(steps.tolist(), nexts, volley.masks):
        # Only the words some line arrives in can add: gather their store
        # rows into ``anded`` and AND those alone. Indices from nonzero are
        # in range; "clip" only spares the buffered copy of ``out`` that
        # the default "raise" makes.
        touched = mask.nonzero()[0]
        m = touched.size
        np.take(store, touched, axis=0, out=anded[:m], mode="clip")
        np.bitwise_and(anded[:m], mask[touched, None], out=anded[:m])
        np.bitwise_count(anded[:m], out=counts[:m])
        np.sum(counts[:m], axis=0, out=sums)
        onsets.ravel()[:] = sums
        # Plane k (index k - 1) adds one unit from step s + k - 1 on: the
        # ramp's rows give the steps up to s + depth - 1, its last row all
        # those after.
        band = min(depth, period - s)
        np.matmul(ramp[:band], onsets.T, out=product[:band])
        potential[s : s + band] += product[:band]
        potential[s + band :] += product[band - 1]
        # Later arrivals start at nxt or after: the potential before nxt is final.
        if nxt < period and (potential[nxt - 1] >= th).reshape(cols, -1).any(axis=1).all():
            break
    # The potential is monotone: a spike time is the count of steps below
    # threshold, and ``nxt`` for a neuron still below it. A column's count
    # is its step code, the period where it stays silent.
    below = np.less(potential[:nxt], th, out=work.below[:nxt]).view(np.uint8)
    below = below.sum(axis=0, dtype=work.count_dtype).reshape(cols, -1)
    idx = below.argmin(axis=1)
    win = below[np.arange(cols), idx]
    idx[win == period] = -1
    return idx, Volley(win, period)


def posneg_spike_times(
    work: KernelWorkspace, pixels: np.ndarray, encoder: PosNeg
) -> tuple[np.ndarray, np.ndarray]:
    """Winner and step code of every column of layer 0 for a stack of
    images under the posneg code, by one exact matrix product per block.

    ``work`` is the layer's ``KernelWorkspace``, over ``2 * pixels`` lines,
    and ``pixels`` an ``(images, pixels)`` stack. Returns ``(images,
    cols)`` winners (-1 where a column stays silent), at
    ``np.min_scalar_type(-neurons)`` for a column's ``neurons``, and step
    codes at ``np.min_scalar_type(period)``, each row what
    ``layer_spike_times`` gives for that image's volley.

    Every posneg line spikes at step 0 or never, so plane ``k`` adds its
    units from step ``k - 1`` on, and the potential at step ``j - 1`` is
    the sum of the onsets of planes ``1..j``. With ``X`` the 0/1 matrix of
    ``pixels > threshold`` and ``D`` the positive minus the negative lines'
    plane bits, the onsets are ``X @ D`` plus the negative planes' column
    sums, so summing ``D`` and those sums over ``k`` first makes the
    product the potential itself at each of the first ``min(depth,
    period)`` steps, ``rows``; it holds from then on. A neuron's step code
    is its count of those steps below threshold, or, where it is still
    below at the last of them, the period: the ``period - rows`` steps
    after add to the count. Every value is a whole number no larger than
    the workspace's reach, exact in its float type in any summation order.

    Neurons are taken whole columns at a time, or part of one column at a
    time where one column's planes fill a block, and images at most
    ``_BATCH_IMAGES`` at a time, so each float block stays near
    ``_PACK_CHUNK`` bytes. A column's winner is its earliest neuron, ties
    to the lowest index, over every block of the column.
    """
    period, lines, cols = work.period, work.lines, work.cols
    n_neurons, depth, words = work.shape
    images, px = pixels.shape
    if 2 * px != lines:
        raise ValueError(f"images have {px} pixels, the layer has {lines} lines")
    rows, per = min(depth, period), n_neurons // cols
    th = work.threshold.reshape(cols, per)
    dtype = th.dtype
    size = dtype.itemsize
    batch = max(1, min(_BATCH_IMAGES, images, _PACK_CHUNK // (size * px)))
    block = max(1, _PACK_CHUNK // (size * rows * max(px, batch)))
    # Whole columns to a block, or, where one column is larger, part of one.
    sub = min(per, block)
    col_block = block // sub
    planes = work.planes.reshape(cols, per, depth, words)
    negative = pack_lines(np.arange(lines) >= px)
    codes = np.full((images, cols), period, dtype=work.count_dtype)
    idx = np.full((images, cols), -1, dtype=np.min_scalar_type(-per))
    x = np.empty((batch, px), dtype=dtype)
    for c in range(0, cols, col_block):
        cs = slice(c, c + col_block)
        for a in range(0, per, sub):
            ns = slice(a, a + sub)
            # The block's (rows, columns, neurons, words) planes, their
            # positive minus negative bits, and the negative lines' counts,
            # each then summed over the planes up to it.
            packed = np.ascontiguousarray(planes[cs, ns, :rows].transpose(2, 0, 1, 3))
            base = np.bitwise_count(packed & negative).sum(axis=-1, dtype=dtype)
            bits = np.unpackbits(packed.view(np.uint8), axis=-1, count=lines, bitorder="little")
            del packed
            diff = np.subtract(bits[..., :px], bits[..., px:], dtype=np.int8).astype(dtype)
            del bits
            for k in range(1, rows):
                diff[k] += diff[k - 1]
                base[k] += base[k - 1]
            shape = base.shape
            diff = diff.reshape(-1, px)
            for i in range(0, images, batch):
                j = min(i + batch, images)
                on = encoder.spikes(pixels[i:j], out=x[: j - i])
                potential = (on @ diff.T).reshape((j - i,) + shape)
                potential += base
                below = potential < th[cs, ns]
                count = below.sum(axis=1, dtype=work.count_dtype)
                count[below[:, -1]] = period
                win = count.argmin(axis=2)
                code = count.min(axis=2)
                better = code < codes[i:j, cs]
                codes[i:j, cs][better] = code[better]
                idx[i:j, cs][better] = (win + a)[better]
    return idx, codes
