"""The Pattern Analyzer (paper §3.3): per-directory locality factors.

From the cutting-window counters maintained by
:class:`repro.cluster.stats.AccessStats` it derives, per directory:

- ``alpha`` — temporal-locality inclination: the recurrent-visit ratio in
  the recent windows,
- ``beta`` — spatial-locality inclination: unvisited stock (plus freshly
  created inodes, which were unvisited until the instant of creation)
  relative to recent visit volume, capped at 1,
- ``l_t`` — predicted temporally-driven load: visits in the last N windows,
- ``l_s`` — predicted spatially-driven load: first visits plus the sibling
  correlation bonus.

The per-directory migration index is ``alpha * l_t + beta * l_s`` (Eq. 4);
subtree-level aggregation lives in :mod:`repro.core.mindex`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.stats import AccessStats

__all__ = ["PatternSnapshot", "analyze", "analyze_dirs"]


@dataclass
class PatternSnapshot:
    """Vectorized per-directory locality view for one epoch."""

    alpha: np.ndarray
    beta: np.ndarray
    l_t: np.ndarray
    l_s: np.ndarray

    @property
    def mindex(self) -> np.ndarray:
        """Paper Eq. 4, per directory (own files only, not descendants)."""
        return self.alpha * self.l_t + self.beta * self.l_s


def _snapshot(visits: np.ndarray, recurrent: np.ndarray, ls: np.ndarray,
              unvisited: np.ndarray, created: np.ndarray) -> PatternSnapshot:
    """alpha/beta from window sums; every argument is a fresh array."""
    denom = np.maximum(visits, 1.0)
    alpha = recurrent / denom
    # Spatial inclination: how much unvisited (or newly created) territory
    # this directory exposes relative to its recent traffic. A directory
    # with unvisited stock but no traffic yet gets beta = 1 — its sibling
    # bonus l_s is then its entire predicted load.
    spatial_stock = unvisited + created
    beta = np.minimum(1.0, spatial_stock / denom)
    # Fully-scanned directories (no unvisited stock, no creates) must decay
    # to zero even if their visit window still remembers first visits.
    beta[spatial_stock <= 0.0] = 0.0
    return PatternSnapshot(alpha=alpha, beta=beta, l_t=visits, l_s=ls)


def analyze(stats: AccessStats) -> PatternSnapshot:
    """Compute alpha/beta/l_t/l_s for every directory from window sums."""
    arrays = stats.pattern_arrays()
    return _snapshot(arrays["visits"], arrays["recurrent"], arrays["ls"],
                     arrays["unvisited"], arrays["created"])


def analyze_dirs(stats: AccessStats, dirs: np.ndarray) -> PatternSnapshot:
    """:func:`analyze` restricted to ``dirs``, in that order.

    Each entry is computed element-wise from the same window sums, so it
    equals the dense snapshot's entry bit for bit; the cost is
    proportional to ``len(dirs)``, not to the namespace.
    """
    return _snapshot(stats.win_visits[dirs], stats.win_recurrent[dirs],
                     stats.win_ls[dirs], stats.unvisited_of(dirs),
                     stats.win_created[dirs])
