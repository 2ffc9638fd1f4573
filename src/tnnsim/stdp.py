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

A layer learns on its ``LearningState``, built once per run from the
layer's ``neuron.KernelWorkspace``: the thermometer planes the workspace
packed from its weight bank (plane ``k`` marks ``hu // 2 >= k``), of depth
``w_max`` whatever the period, which its kernel reads, plus one packed
parity plane, ``hu & 1``, of that same bank. They move by word operations,
by one rule for either sign: after a step of ``u`` half-units, plane ``k``
marks ``hu + u >= 2k``, and the parity flips with an odd step and clears
where the step saturates (``_step``). The rows a cycle changes step a
block at a time, so their stack stays within ``neuron._PACK_CHUNK`` bytes.
The int16 weights are unpacked from the state into the workspace's bank
once, when the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encode import INF, Volley, check_int, pack_lines
from .neuron import _PACK_CHUNK, KernelWorkspace, unpack_weights

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
            check_int(name, getattr(self, name), 0)
        check_int("w_max", self.w_max, 1, W_MAX_LIMIT)

    @property
    def half_unit_cap(self) -> int:
        return 2 * self.w_max


class LearningState:
    """One layer's learning state, built once per run and updated in place
    by ``update_layer``:

    - ``by_depth``: a depth-major ``(depth, columns * neurons, words)``
      view of the planes of the layer's ``neuron.KernelWorkspace``,
      ``work``, so the kernel reads every update without a rebuild;
    - ``parity``: the packed ``hu & 1`` of the workspace's weight bank,
      one ``(words,)`` row per neuron, in the planes' row order;
    - ``valid``: the packed plane of every line;
    - ``params``: the rule's ``StdpParams``, whose ``w_max`` is the depth.

    ``shape`` is the planes' ``(columns, neurons, depth, words)``.
    """

    def __init__(self, work: KernelWorkspace, params: StdpParams):
        neurons, depth, words = work.shape
        if depth != params.w_max:
            raise ValueError(f"{depth} planes cannot hold weights up to w_max {params.w_max}")
        self.work, self.params = work, params
        self.shape = (work.cols, neurons // work.cols, depth, words)
        # Depth-major rows, so each plane operation runs over every row at once.
        self.by_depth = work.planes.transpose(1, 0, 2)
        # The parity is packed from bools, which packbits takes on its fast
        # path: the low byte of a weight keeps its low bit.
        low = np.bitwise_and(work.weights, 1, dtype=np.uint8, casting="unsafe").view(bool)
        self.parity = pack_lines(low).reshape(neurons, words)
        self.valid = pack_lines(np.ones(work.lines, dtype=bool))

    def unpack(self) -> None:
        """The half-unit weights the planes and parity hold, written into
        the workspace's ``(columns, neurons, lines)`` bank they came from."""
        work = self.work
        unpack_weights(work.planes, self.parity, work.weights.reshape(-1, work.lines))


def _groups(state, x, winner_idx, z) -> list:
    """The rule for one cycle's outputs, checked before any row changes.

    ``state`` is the layer's ``LearningState``, and ``x``, ``winner_idx``
    and ``z`` are as for ``update_layer``. Returns one group for the silent
    columns and one for the winners, leaving out a group with no rows. Each
    is ``(rows, select, first, second)``: its flat ``(columns * neurons)``
    rows step by ``first`` half-units on the lines set in the packed
    ``select`` (one mask per row, or one that every row shares) and by
    ``second`` on the rest. Steps are capped at the weight range, past
    which they saturate the same way.
    """
    (cols, neurons), p = state.shape[:2], state.params
    lines, period = state.work.lines, state.work.period
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


def _step(stack: np.ndarray, lo: int, depth: int, parity: np.ndarray, u: int) -> tuple:
    """Planes and parity after a step of ``u`` half-units, either sign,
    saturating into ``[0, 2 * depth]``.

    Plane ``k`` of the rows is ``stack[lo + k - 1]``: the stack holds the
    ``depth`` planes between ``lo`` copies of plane 0 (every line) and
    zero planes past the depth, as many as the step reaches. After the
    step, plane ``k`` marks ``hu + u >= 2k``, that is ``hu >= 2(k + m) +
    odd`` for ``m, odd = divmod(-u, 2)``: plane ``k + m`` for an even
    step, and for an odd one plane ``k + m + 1`` or, where the parity is
    set, plane ``k + m``. The parity flips with an odd step and clears
    where the step saturates, at ``0`` or ``2 * depth``.
    """
    m, odd = divmod(-u, 2)

    def plane(k):  # every line for k <= 0
        return stack[lo + max(k, 0) - 1]

    planes = stack[lo + m : lo + m + depth]
    if odd:
        planes = stack[lo + m + 1 : lo + m + 1 + depth] | (planes & parity)
        parity = ~parity
    # Where the new parity is set, ``hu`` is odd after an even step and
    # even after an odd one, so each end's test is one plane; the low
    # end's also clears the padding bits an odd step's flip sets.
    return planes, parity & plane(m + odd) & ~plane(depth + m + odd)


def _update_rows(state, rows, select, first, second) -> None:
    """Step the flat ``rows`` of a layer's learning state by ``first``
    half-units on the lines set in ``select`` and by ``second`` on the
    rest, a block of rows at a time, so the stack of their planes stays
    within ``_PACK_CHUNK`` bytes."""
    by_depth, parity = state.by_depth, state.parity
    depth, _, words = by_depth.shape
    # A step of ``u`` reads ``(u + 1) // 2`` planes below plane 1 and
    # ``(1 - u) // 2`` past the depth; ``_step`` reads plane 0 at any step.
    lo = max(1, (max(first, second) + 1) // 2)
    hi = (max(0, -first, -second) + 1) // 2
    block = max(1, _PACK_CHUNK // (8 * (lo + depth + hi) * words))
    # The ``lo`` copies of plane 0 (every line) and the zero planes past the
    # depth are the same for every block.
    stack = np.empty((lo + depth + hi, min(block, rows.size), words), dtype=np.uint64)
    stack[:lo] = state.valid
    stack[lo + depth :] = 0
    for r in range(0, rows.size, block):
        part = rows[r : r + block]
        sel = select if select.ndim == 1 else select[r : r + block]
        held, at = parity[part], stack[:, : part.size]
        at[lo : lo + depth] = by_depth[:, part]
        planes, held_first = _step(at, lo, depth, held, first)
        other, held_other = _step(at, lo, depth, held, second)
        # ``other`` where ``sel`` is clear, else ``planes``, in one buffer.
        planes = planes ^ other
        planes &= sel
        planes ^= other
        by_depth[:, part] = planes
        parity[part] = held_other ^ ((held_first ^ held_other) & sel)
        del planes, other  # before the next block makes its own


def update_layer(
    state: LearningState, x: np.ndarray, winner_idx: np.ndarray, z: np.ndarray
) -> None:
    """One gamma cycle's update of a layer's ``LearningState``, in place.

    ``x`` is the input volley, ``winner_idx`` each column's winner (-1 for
    none) and ``z`` each column's winner time, read only where there is a
    winner. ``x`` and ``z`` are ``encode.Volley`` objects, as the layer
    kernel takes and gives them, or raw spike times, checked against the
    layer's period; the volley must have the layer's line count. Each
    winner's row and every row of a silent column come to hold the planes
    and parity of its weights after the rule's step; padding bits stay 0.
    """
    for rows, select, first, second in _groups(state, x, winner_idx, z):
        _update_rows(state, rows, select, first, second)
