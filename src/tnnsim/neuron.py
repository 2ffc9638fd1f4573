"""Ramp-no-leak neurons evaluated a whole bank at a time.

Synapse weights are stored as integer half-units so the smallest learning
step (half a unit) stays exact; a weight's effective value is
``half_units / 2``. The response of one synapse to a spike arriving at
step ``s`` is a unit ramp that starts contributing on the arrival step and
saturates at ``floor(weight)``:

    response(t) = min(t - s + 1, half_units // 2)   for t >= s, else 0

There is no decay, so a neuron's potential is monotone within a cycle. A
neuron spikes at the first step where the summed response reaches its
threshold. Within a column the earliest neuron spike wins and inhibits the
rest until the next gamma reset; ties break to the lowest neuron index so
replays are deterministic.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .encode import SpikeTime


def layer_spike_times(
    weights_hu: np.ndarray,
    times: Sequence[SpikeTime],
    period: int,
    threshold: Union[int, np.ndarray],
) -> np.ndarray:
    """Spike times for a whole bank of neurons sharing one input volley.

    ``weights_hu`` is ``(neurons, lines)`` in half-units. Returns a float
    vector with ``np.inf`` where a neuron stays silent. The potential is
    built as a double cumsum of ramp start/stop histograms instead of a
    per-step loop.
    """
    weights_hu = np.asarray(weights_hu)
    n_neurons = weights_hu.shape[0]
    t_arr = np.asarray(times, dtype=float)
    if weights_hu.shape[1] != t_arr.shape[0]:
        raise ValueError(
            f"volley has {t_arr.shape[0]} lines but weights have {weights_hu.shape[1]}"
        )
    finite = np.isfinite(t_arr)
    out = np.full(n_neurons, np.inf)
    if not finite.any():
        return out
    s = t_arr[finite].astype(np.int64)
    caps = (weights_hu[:, finite] // 2).astype(np.int64)
    # Each synapse adds +1 slope at its arrival step and -1 where its ramp
    # saturates; steps at or past the period fold into a discard bucket.
    width = period + 1
    starts = np.minimum(s, period)
    ends = np.minimum(s + caps, period)
    row = np.arange(n_neurons, dtype=np.int64)[:, None] * width
    hist = np.bincount(
        (row + starts[None, :]).ravel(), minlength=n_neurons * width
    ) - np.bincount((row + ends).ravel(), minlength=n_neurons * width)
    hist = hist.reshape(n_neurons, width)[:, :period]
    potential = np.cumsum(np.cumsum(hist, axis=1), axis=1)
    reached = potential >= np.asarray(threshold).reshape(-1, 1)
    fired = reached.any(axis=1)
    out[fired] = np.argmax(reached[fired], axis=1)
    return out
