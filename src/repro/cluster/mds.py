"""A single metadata server: capacity, per-epoch load accounting."""

from __future__ import annotations

__all__ = ["MDS"]


class MDS:
    """One metadata server daemon.

    ``capacity`` is the maximum metadata ops it can serve per tick (the
    paper's per-MDS maximal IOPS ``C``, scaled to simulation units). The
    simulator refills :attr:`remaining` every tick; migration involvement
    shaves a fraction off via :attr:`migration_penalty`.
    """

    __slots__ = (
        "rank",
        "capacity",
        "remaining",
        "migration_penalty",
        "failed",
        "served_epoch",
        "served_total",
        "forwards_handled",
        "load_history",
    )

    def __init__(self, rank: int, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError("MDS capacity must be positive")
        self.rank = rank
        self.capacity = float(capacity)
        self.remaining = 0.0
        self.migration_penalty = 0.0
        #: a failed MDS serves nothing until a standby takes over its rank
        self.failed = False
        self.served_epoch = 0
        self.served_total = 0
        self.forwards_handled = 0
        #: per-epoch IOPS history (most recent last)
        self.load_history: list[float] = []

    def refill(self) -> None:
        """Start-of-tick capacity refill, net of migration overhead."""
        if self.failed:
            self.remaining = 0.0
            return
        penalty = min(self.migration_penalty, 0.9)
        self.remaining = self.capacity * (1.0 - penalty)

    def serve(self, cost: float = 1.0) -> None:
        self.remaining -= cost
        self.served_epoch += 1
        self.served_total += 1

    def end_epoch(self, epoch_len: int) -> float:
        """Close the epoch; returns and records this epoch's IOPS."""
        iops = self.served_epoch / epoch_len
        self.load_history.append(iops)
        self.served_epoch = 0
        return iops

    @property
    def current_load(self) -> float:
        """Most recent completed epoch's IOPS (0.0 before the first epoch)."""
        return self.load_history[-1] if self.load_history else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MDS(rank={self.rank}, load={self.current_load:.1f})"
