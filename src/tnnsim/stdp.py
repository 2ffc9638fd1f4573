"""Spike-time-dependent weight updates applied at each gamma reset: the
online, reset-time STDP of J. E. Smith's temporal neural network
(arXiv:2011.13844), stated once in ``_groups`` and applied by
``update_layer`` to a layer's bit-planes.

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
that range saturates the same way, so steps are clamped to it first: no
magnitude can wrap the int16 weights the planes unpack to.

When a column produced a winner, only the winner's row of synapses updates
(the losers were inhibited before they could spike), by CAPTURE on the
lines with ``x <= z`` and a back-off on the rest. When nothing in the
column fired, every neuron's row updates under the ``z = INF`` cases,
SEARCH on live lines and QUIET on dead ones, which is the only way those
two cases are ever reached. Only those rows are read and written.

The input volley ``x`` and the winner times ``z`` are ``encode.Volley``
objects, as the layer kernel takes and gives them, or raw times, each
checked by one ``Volley.from_times`` call; a silent column's raw time is
set to ``inf`` first, since it is read nowhere.

A layer learns on its learning state: the thermometer planes
``neuron.weight_planes`` builds (plane ``k`` marks ``hu // 2 >= k``), of
depth ``w_max`` whatever the period, plus one packed parity plane, ``hu &
1``, moved by word operations: adding ``2a`` half-units moves plane ``k -
a`` up to plane ``k``, subtracting ``2b`` moves plane ``k + b`` down to it,
and an odd step carries or borrows through the parity. The int16 weights
are unpacked from them once, when the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encode import INF, Volley
from .neuron import KernelWorkspace

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


def _groups(shape, x, winner_idx, z, p: StdpParams, period: int) -> list:
    """The rule for one cycle's outputs, checked before any row changes.

    ``shape`` is the layer's ``(columns, neurons, lines)``; ``x``,
    ``winner_idx`` and ``z`` are as for ``update_layer``, and ``period``
    the layer's. Returns one group for the silent columns and one for the
    winners, leaving out a group with no rows. Each is ``(rows, select,
    first, second)``: its flat ``(columns * neurons)`` rows step by
    ``first`` half-units on the lines set in the packed ``select`` (one
    mask per row, or one that every row shares) and by ``second`` on the
    rest. Steps are capped at the weight range, past which they saturate
    the same way.
    """
    cols, neurons, lines = shape
    x = Volley.from_times(x, period)
    winner_idx = np.asarray(winner_idx)
    if len(x) != lines:
        raise ValueError(f"volley has {len(x)} lines, expected {lines}")
    if not isinstance(z, Volley) and np.shape(z) == winner_idx.shape:
        # A silent column's time is read nowhere.
        z = np.where(winner_idx < 0, INF, z)
    z = Volley.from_times(z, period)
    if winner_idx.shape != (cols,) or len(z) != cols:
        raise ValueError(f"winners {winner_idx.shape} and {len(z)} times for {cols} columns")
    bad = winner_idx[(winner_idx < -1) | (winner_idx >= neurons)]
    if bad.size:
        raise ValueError(f"winner index {bad[0]} outside -1..{neurons - 1}")
    won = np.flatnonzero(winner_idx >= 0)
    at = z.codes[won]
    if (at >= z.period).any():
        raise ValueError("a winner's time must be a step, not inf")
    # ``captured[j]`` marks the lines arriving at the first ``j`` steps, so
    # the last marks every live line.
    captured = np.zeros((x.steps.size + 1, x.masks.shape[1]), dtype=np.uint64)
    np.bitwise_or.accumulate(x.masks, axis=0, out=captured[1:])
    cap = p.half_unit_cap
    groups = []
    silent = np.flatnonzero(winner_idx < 0)
    if silent.size:
        # Every neuron explores: SEARCH on live lines, QUIET on dead ones.
        rows = (silent[:, None] * neurons + np.arange(neurons)).ravel()
        groups.append((rows, captured[-1], min(p.u_search, cap), min(p.u_quiet, cap)))
    if won.size:
        # The winner's row captures the lines at or before its step and
        # backs off late or dead ones: a dead line is in no step's mask, so
        # BACKOFF_NOIN falls out of the same mask as BACKOFF_LATE.
        select = captured[x.steps.searchsorted(at, side="right")]
        groups.append((
            won * neurons + winner_idx[won], select,
            min(p.u_capture, cap), -min(p.u_backoff, cap),
        ))
    return groups


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
    work: KernelWorkspace,
) -> None:
    """One gamma cycle's update of a layer's learning state, in place.

    ``planes`` is a ``(columns, neurons, depth, words)`` view of the
    layer's ``neuron.weight_planes`` with ``depth == p.w_max``, and
    ``parity`` the packed ``hu & 1`` of its weights, a C-ordered
    ``(columns, neurons, words)`` array; ``x`` is the input volley,
    ``winner_idx`` each column's winner (-1 for none) and ``z`` each
    column's winner time, read only where there is a winner. ``x`` and
    ``z`` are ``encode.Volley`` objects, as the layer kernel takes and
    gives them, or raw spike times. ``work`` is the layer's
    ``neuron.KernelWorkspace``: the volley must have its line count, raw
    times are checked against its period, and its packed ``valid`` plane is
    read instead of packing one. Each winner's row and every row of a
    silent column come to hold the planes and parity of its weights after
    the rule's step; padding bits stay 0.
    """
    cols, neurons, depth, words = planes.shape
    if depth != p.w_max:
        raise ValueError(f"{depth} planes cannot hold weights up to w_max {p.w_max}")
    if (cols * neurons, depth, words) != work.shape:
        raise ValueError(f"planes of shape {planes.shape} for a workspace built for {work.shape}")
    # Depth-major rows, so each plane operation runs over every row at once.
    by_depth = planes.reshape(cols * neurons, depth, words).transpose(1, 0, 2)
    flat_parity = parity.reshape(cols * neurons, words)
    groups = _groups((cols, neurons, work.lines), x, winner_idx, z, p, work.period)
    for rows, select, first, second in groups:
        _update_rows(by_depth, flat_parity, rows, work.valid, select, first, second)
