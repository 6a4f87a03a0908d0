"""Serve-path kernel.

The simulator's per-tick hot path (:mod:`repro.kernel.engine`): one
per-op client turn drained round-robin, plus the turbo create tick that
serves a whole create-storm tick in batched steps. Directory authority
comes from the authority map's per-version resolve cache; the only
precomputed tables are the fragment-owner cycles of fragmented
directories (:mod:`repro.kernel.authtable`), so per-tick work scales
with the active clients and fragmented dirs, not with the namespace.
The turbo tick must leave decisions byte-identical to the per-op loop
alone (``SimConfig(engine="scalar")``) — see ``docs/PERFORMANCE.md``.
"""

from repro.kernel.authtable import AuthTable
from repro.kernel.engine import ColumnarEngine

__all__ = ["AuthTable", "ColumnarEngine"]
