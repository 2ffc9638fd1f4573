"""Spike-time-dependent weight updates applied at each gamma reset.

Every synapse is classified by its input spike time ``x`` against the
column's output spike time ``z``:

    CAPTURE       x <= z, both finite   -> weight grows by u_capture
    BACKOFF_LATE  x > z,  both finite   -> weight shrinks by u_backoff
    SEARCH        x finite, z never     -> weight grows by u_search
    BACKOFF_NOIN  x never, z finite     -> weight shrinks by u_backoff
    QUIET         neither spiked        -> weight grows by u_quiet

All magnitudes are integer half-units; the defaults make the quiet drift
exactly half of the ordinary unit step, which keeps silent synapses slowly
creeping toward participation without ever outrunning real learning.
Updates saturate into ``[0, 2 * w_max]`` half-units. A step larger than
that range saturates the same way, so steps are clamped to it, and sums
are capped first or taken in int32: no magnitude can wrap the int16
weights.

When a column produced a winner, only the winner's row of synapses updates
(the losers were inhibited before they could spike). When nothing in the
column fired, every neuron's row updates under the ``z = INF`` cases, which
is the only way the SEARCH and QUIET cases are ever reached. Only those
rows are read and written.

A training network learns on its bit-planes. Its learning state is the
thermometer planes ``neuron.weight_planes`` builds (plane ``k`` marks
``hu // 2 >= k``) plus one packed parity plane, ``hu & 1``, and
``update_layer`` moves both by word operations: adding ``2a`` half-units
moves plane ``k - a`` up to plane ``k``, subtracting ``2b`` moves plane
``k + b`` down to it, and an odd step carries or borrows through the
parity. The int16 weights are unpacked from the state once, when the run
ends. The planes hold whole units only up to their depth, so this needs
``w_max <= period``; with ``w_max > period`` a network learns with
``update_weights``, the same rule on the int16 weights, and repacks the
rows it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neuron import pack_lines

# Largest w_max whose half-unit cap still fits the int16 weights.
W_MAX_LIMIT = np.iinfo(np.int16).max // 2


@dataclass(frozen=True)
class StdpParams:
    """Update magnitudes in half-units plus the weight cap."""

    u_capture: int = 2
    u_backoff: int = 2
    u_search: int = 2
    u_quiet: int = 1
    w_max: int = 7

    def __post_init__(self):
        for name in ("u_capture", "u_backoff", "u_search", "u_quiet"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 1 <= self.w_max <= W_MAX_LIMIT:
            raise ValueError(f"w_max must be in 1..{W_MAX_LIMIT}, got {self.w_max}")

    @property
    def half_unit_cap(self) -> int:
        return 2 * self.w_max


def update_weights(
    weights_hu: np.ndarray,
    x: np.ndarray,
    winner_idx: np.ndarray,
    z: np.ndarray,
    p: StdpParams,
) -> np.ndarray:
    """One gamma cycle's update of a layer's int16 weights, in place.

    ``weights_hu`` is ``(columns, neurons, lines)`` half-units; ``x`` the
    input spike times, ``winner_idx`` each column's winner (-1 for none),
    ``z`` each column's winner time (inf for none). Returns the indices of
    the rows it rewrote in the ``(columns * neurons, lines)`` view: each
    winner's row and every row of a silent column.
    """
    n_neurons = weights_hu.shape[1]
    cap = p.half_unit_cap
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    winner_idx = np.asarray(winner_idx)
    has_winner = winner_idx >= 0
    won = np.nonzero(has_winner)[0]
    silent = np.nonzero(~has_winner)[0]
    if silent.size:
        # Every neuron explores: SEARCH on live lines, QUIET on dead ones.
        explore = np.where(
            np.isfinite(x), min(p.u_search, cap), min(p.u_quiet, cap)
        ).astype(weights_hu.dtype)
        # Both steps are >= 0: capping first keeps the sum inside the dtype.
        weights_hu[silent] = np.minimum(weights_hu[silent], cap - explore) + explore
    if won.size:
        # Capture early lines, back off late or dead ones. An inf x never
        # compares <= a finite z, so BACKOFF_NOIN falls out of the same
        # branch as BACKOFF_LATE. Winner times take at most ``period``
        # values, so one delta row is built per distinct time and gathered:
        # on a 64x10x1568 layer that is ~30% less update time than one
        # compare per winner row (measured, 2-vCPU VM).
        times, which = np.unique(z[won], return_inverse=True)
        delta = np.where(
            x[None, :] <= times[:, None], min(p.u_capture, cap), -min(p.u_backoff, cap)
        ).astype(np.int32)[which]
        rows = winner_idx[won]
        weights_hu[won, rows] = np.clip(weights_hu[won, rows] + delta, 0, cap)
    return np.flatnonzero(~has_winner[:, None] | (np.arange(n_neurons) == winner_idx[:, None]))


def _reach(u: int) -> int:
    """How many planes a step of ``u`` half-units reads past either end."""
    return (abs(u) + 1) // 2


def _step(stack: np.ndarray, lo: int, depth: int, parity: np.ndarray, u: int) -> tuple:
    """Planes and parity after ``u`` half-units are added (``u >= 0``) or
    taken away (``u < 0``), saturating into ``[0, 2 * depth]``.

    Plane ``k`` of the rows is ``stack[lo + k - 1]``: the stack holds the
    ``depth`` planes between ``lo`` copies of plane 0 (every line) and
    zero planes past the depth, as many as the step reaches.
    """
    whole, odd = divmod(abs(u), 2)

    def plane(k):
        return stack[lo + k - 1]

    def shifted(s):  # planes k + s for k = 1..depth
        return stack[lo + s : lo + s + depth]

    if u >= 0:
        # Units move up ``whole`` planes, an odd half carries one more where
        # the parity was set, and no half-unit survives at the cap.
        top = plane(depth - whole)
        if not odd:
            return shifted(-whole), parity & ~top
        return (
            shifted(-whole) ^ ((shifted(-whole - 1) ^ shifted(-whole)) & parity),
            ~parity & ~top & plane(0),
        )
    # Units move down ``whole`` planes, an odd half borrows one more where
    # the parity was clear, and no half-unit survives at the floor.
    if not odd:
        return shifted(whole), parity & plane(whole)
    return (
        shifted(whole + 1) ^ ((shifted(whole) ^ shifted(whole + 1)) & parity),
        ~parity & plane(whole + 1),
    )


def _update_rows(by_depth, parity, rows, valid, select, first, second) -> None:
    """Step the flat ``rows`` of a ``(depth, rows, words)`` layer view and
    their ``(rows, words)`` parity by ``first`` half-units on the lines set
    in ``select`` and by ``second`` on the rest."""
    depth = by_depth.shape[0]
    lo = max([1] + [_reach(u) for u in (first, second) if u >= 0])
    hi = max([0] + [_reach(u) for u in (first, second) if u < 0])
    stack = np.empty((lo + depth + hi, rows.size, by_depth.shape[2]), dtype=np.uint64)
    stack[:lo] = valid
    stack[lo : lo + depth] = by_depth[:, rows]
    stack[lo + depth :] = 0
    held = parity[rows]
    planes, held_first = _step(stack, lo, depth, held, first)
    other, held_other = _step(stack, lo, depth, held, second)
    # ``other`` where ``select`` is clear, else ``planes``, in one buffer.
    planes = planes ^ other
    planes &= select
    planes ^= other
    by_depth[:, rows] = planes
    parity[rows] = held_other ^ ((held_first ^ held_other) & select)


def update_layer(
    planes: np.ndarray,
    x: np.ndarray,
    winner_idx: np.ndarray,
    z: np.ndarray,
    p: StdpParams,
    parity: np.ndarray,
) -> None:
    """One gamma cycle's update of a layer's learning state, in place.

    ``planes`` is a ``(columns, neurons, depth, words)`` view of the
    layer's ``neuron.weight_planes`` with ``depth == p.w_max``, and
    ``parity`` the packed ``hu & 1`` of its weights, a C-ordered
    ``(columns, neurons, words)`` array; ``x``, ``winner_idx`` and ``z``
    are as for ``update_weights``. Each winner's row and every row of a
    silent column come to hold the planes and parity of the weights
    ``update_weights`` would leave; padding bits stay 0.
    """
    cols, neurons, depth, words = planes.shape
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    winner_idx = np.asarray(winner_idx)
    if depth != p.w_max:
        raise ValueError(f"{depth} planes cannot hold weights up to w_max {p.w_max}")
    if -(-x.shape[0] // 64) != words:
        raise ValueError(f"{x.shape[0]} lines do not pack into {words} words")
    cap = p.half_unit_cap
    valid = pack_lines(np.ones(x.shape, dtype=bool))
    # Depth-major rows, so each plane operation runs over every row at once.
    by_depth = planes.reshape(cols * neurons, depth, words).transpose(1, 0, 2)
    flat_parity = parity.reshape(cols * neurons, words)
    silent = np.flatnonzero(winner_idx < 0)
    if silent.size:
        # Every neuron explores: SEARCH on live lines, QUIET on dead ones.
        rows = (silent[:, None] * neurons + np.arange(neurons)).ravel()
        _update_rows(
            by_depth, flat_parity, rows, valid, pack_lines(np.isfinite(x)),
            min(p.u_search, cap), min(p.u_quiet, cap),
        )
    won = np.flatnonzero(winner_idx >= 0)
    if won.size:
        # Capture early lines, back off late or dead ones, packing one line
        # mask per distinct winner time.
        times, which = np.unique(z[won], return_inverse=True)
        _update_rows(
            by_depth, flat_parity, won * neurons + winner_idx[won], valid,
            pack_lines(x <= times[:, None])[which],
            min(p.u_capture, cap), -min(p.u_backoff, cap),
        )
