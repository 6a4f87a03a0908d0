"""Namespace builders for the dataset shapes the paper's workloads use.

Each builder returns a :class:`NamespaceTree` plus the directory ids a
workload needs (class dirs, corpus folders, client private dirs, ...). File
counts are scaled-down versions of the paper's datasets; the *shape*
(fan-out, folder-size skew) is what the balancing behaviour depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.namespace.tree import NamespaceTree
from repro.util.rng import substream

__all__ = [
    "BuiltNamespace",
    "build_fanout",
    "build_corpus",
    "build_web",
    "build_private_dirs",
    "merge_builds",
]


@dataclass
class BuiltNamespace:
    """A tree plus the directory ids relevant to its workload."""

    tree: NamespaceTree
    root: int
    dirs: list[int] = field(default_factory=list)
    #: number of files per entry of :attr:`dirs` (parallel list)
    files: list[int] = field(default_factory=list)

    def total_files(self) -> int:
        return sum(self.files)


def build_fanout(n_dirs: int, files_per_dir: int, *, tree: NamespaceTree | None = None,
                 parent: int = 0, prefix: str = "class") -> BuiltNamespace:
    """ImageNet-like layout: one root with ``n_dirs`` equal leaf dirs.

    ILSVRC2012 is 1.28M images over 1000 class directories; pass scaled
    ``n_dirs``/``files_per_dir`` with the same ratio.
    """
    if n_dirs <= 0 or files_per_dir < 0:
        raise ValueError("need at least one directory and non-negative files")
    tree = tree if tree is not None else NamespaceTree()
    root = tree.add_dir(parent, f"{prefix}_root") if prefix else parent
    dirs = list(tree.add_dirs(root, [f"{prefix}_{i:04d}" for i in range(n_dirs)]))
    for d in dirs:
        tree.add_files(d, files_per_dir)
    return BuiltNamespace(tree, root, dirs, [files_per_dir] * n_dirs)


def build_corpus(n_folders: int, total_files: int, *, skew: float = 1.4, seed: int = 0,
                 tree: NamespaceTree | None = None, parent: int = 0,
                 prefix: str = "corpus") -> BuiltNamespace:
    """THUCTC-like corpus: few top-level folders with skewed sizes.

    The real corpus has 836k files in 14 folders whose sizes differ by more
    than an order of magnitude (news categories are not equally common).
    Folder sizes follow a Zipf-like ramp with exponent ``skew``.
    """
    if n_folders <= 0 or total_files < n_folders:
        raise ValueError("need >= 1 folder and >= 1 file per folder")
    tree = tree if tree is not None else NamespaceTree()
    root = tree.add_dir(parent, f"{prefix}_root")
    weights = np.arange(1, n_folders + 1, dtype=np.float64) ** (-skew)
    weights /= weights.sum()
    sizes = np.maximum(1, np.round(weights * total_files).astype(int))
    rng = substream(seed, "builder", "corpus")
    rng.shuffle(sizes)
    dirs = list(tree.add_dirs(root, [f"{prefix}_{i:02d}" for i in range(n_folders)]))
    files = [int(size) for size in sizes]
    for d, size in zip(dirs, files):
        tree.add_files(d, size)
    return BuiltNamespace(tree, root, dirs, files)


def build_web(n_top: int, n_sub_per_top: int, total_files: int, *, seed: int = 0,
              tree: NamespaceTree | None = None, parent: int = 0,
              prefix: str = "web") -> BuiltNamespace:
    """Web-server docroot: two-level nesting with Pareto-ish dir sizes.

    Returns leaf dirs in :attr:`BuiltNamespace.dirs`; a web trace addresses
    files across all of them.
    """
    if n_top <= 0 or n_sub_per_top <= 0:
        raise ValueError("need positive fan-outs")
    tree = tree if tree is not None else NamespaceTree()
    root = tree.add_dir(parent, f"{prefix}_root")
    rng = substream(seed, "builder", "web")
    n_leaf = n_top * n_sub_per_top
    raw = rng.pareto(1.2, size=n_leaf) + 1.0
    sizes = np.maximum(1, np.round(raw / raw.sum() * total_files).astype(int))
    sections = [f"sec{s:03d}" for s in range(n_sub_per_top)]
    dirs: list[int] = []
    for t in range(n_top):
        top = tree.add_dir(root, f"{prefix}_site{t:03d}")
        dirs.extend(tree.add_dirs(top, sections))
    files = [int(size) for size in sizes]
    for d, size in zip(dirs, files):
        tree.add_files(d, size)
    return BuiltNamespace(tree, root, dirs, files)


def build_private_dirs(n_clients: int, files_per_dir: int, *, tree: NamespaceTree | None = None,
                       parent: int = 0, prefix: str = "client") -> BuiltNamespace:
    """Per-client non-shared directories (Filebench Zipf / MDtest layout)."""
    if n_clients <= 0 or files_per_dir < 0:
        raise ValueError("need >= 1 client and non-negative files")
    tree = tree if tree is not None else NamespaceTree()
    root = tree.add_dir(parent, f"{prefix}_root")
    dirs = list(tree.add_dirs(root, [f"{prefix}_{i:03d}" for i in range(n_clients)]))
    for d in dirs:
        tree.add_files(d, files_per_dir)
    return BuiltNamespace(tree, root, dirs, [files_per_dir] * n_clients)


def merge_builds(*parts: BuiltNamespace) -> NamespaceTree:
    """Sanity helper for mixed workloads: all parts must share one tree."""
    if not parts:
        raise ValueError("nothing to merge")
    tree = parts[0].tree
    for p in parts[1:]:
        if p.tree is not tree:
            raise ValueError("mixed-workload parts must be built into one tree")
    return tree
