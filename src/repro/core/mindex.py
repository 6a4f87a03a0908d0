"""Per-directory migration index (paper Eq. 4) and helpers.

``mIndex = alpha * l_t + beta * l_s`` estimates each directory's *future*
load: temporal recurrence predicts re-visits; spatial inclination predicts
first visits into unvisited (or newly created) territory. Subtree-level
values are produced by aggregating the per-directory array through
:func:`repro.balancers.candidates.candidates_for`.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.stats import AccessStats
from repro.core.pattern import analyze_dirs

__all__ = ["mindex_per_dir"]


def mindex_per_dir(stats: AccessStats) -> np.ndarray:
    """The migration index of every directory's own files.

    Equal, bit for bit, to ``analyze(stats).mindex``, but Eq. 4 runs only
    on the dirs named by the pattern window: everywhere else ``l_t`` and
    ``l_s`` are zero, so the index is exactly ``0.0``.
    """
    out = np.zeros(stats.tree.n_dirs)
    live = stats.window_dirs()
    if live.size:
        out[live] = analyze_dirs(stats, live).mindex
    return out
