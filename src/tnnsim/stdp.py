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
Updates saturate into ``[0, 2 * w_max]`` half-units.

When a column produced a winner, only the winner's synapses update (the
losers were inhibited before they could spike). When nothing in the column
fired, every neuron updates under the ``z = INF`` rows, which is the only
way the SEARCH and QUIET cases are ever reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        if self.w_max < 1:
            raise ValueError(f"w_max must be >= 1, got {self.w_max}")

    @property
    def half_unit_cap(self) -> int:
        return 2 * self.w_max


def update_layer(
    weights_hu: np.ndarray,
    x: np.ndarray,
    winner_idx: np.ndarray,
    z: np.ndarray,
    p: StdpParams,
) -> None:
    """One gamma cycle's weight update for a whole layer, in place.

    ``weights_hu`` is ``(columns, neurons, lines)`` half-units; ``x`` the
    input spike times, ``winner_idx`` each column's winner (-1 for none),
    ``z`` each column's winner time (inf for none).
    """
    n_cols, n_neurons, n_lines = weights_hu.shape
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    finite_x = np.isfinite(x)
    has_winner = winner_idx >= 0

    delta = np.zeros_like(weights_hu)
    # Silent columns: every neuron explores (SEARCH on live lines, QUIET on
    # dead ones).
    explore = np.where(finite_x, p.u_search, p.u_quiet).astype(weights_hu.dtype)
    delta[~has_winner, :, :] = explore
    # Winning rows: capture early lines, back off late or dead ones. An inf
    # x never compares <= a finite z, so BACKOFF_NOIN falls out of the same
    # branch as BACKOFF_LATE.
    if has_winner.any():
        cols = np.nonzero(has_winner)[0]
        cap = np.where(
            x[None, :] <= z[cols, None], p.u_capture, -p.u_backoff
        ).astype(weights_hu.dtype)
        delta[cols, winner_idx[cols], :] = cap
    np.clip(weights_hu + delta, 0, p.half_unit_cap, out=weights_hu)
