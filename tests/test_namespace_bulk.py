"""Bulk namespace construction: ``add_dirs`` and the shared leaf entry.

``NamespaceTree.add_dirs`` appends a whole sibling set at once and leaves
every leaf's ``children`` entry as one shared empty tuple. The reference
here is the per-directory build it replaced: a tree whose ``add_dir`` is
the old body (a fresh list per directory, one append per column), so any
interleaving of single, bulk and file additions must leave both trees
equal column by column and under every traversal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.namespace.tree import NamespaceTree
from tests.test_golden_traces import _mega_tree_workload


class PerDirTree(NamespaceTree):
    """Oracle: the per-directory build with a list per directory."""

    def __init__(self) -> None:
        super().__init__()
        self.children = [[]]

    def add_dir(self, parent: int, name: str) -> int:
        self._check_dir(parent)
        dir_id = len(self.parent)
        self.parent.append(parent)
        self.children.append([])
        self.names.append(name)
        self.n_files.append(0)
        self.depth.append(self.depth[parent] + 1)
        self._unvisited.append(0)
        self.children[parent].append(dir_id)
        if dir_id >= self._n_files_arr.size:
            grown = np.zeros(2 * self._n_files_arr.size)
            grown[: self._n_files_arr.size] = self._n_files_arr
            self._n_files_arr = grown
        return dir_id

    def add_dirs(self, parent: int, names) -> range:
        self._check_dir(parent)
        ids = [self.add_dir(parent, name) for name in names]
        return range(ids[0], ids[-1] + 1) if ids else range(self.n_dirs, self.n_dirs)


def apply(tree: NamespaceTree, ops) -> list:
    """Run ``ops`` on ``tree``; parents are picked modulo the live count."""
    out: list = []
    for kind, pick, arg in ops:
        d = pick % tree.n_dirs
        if kind == "dir":
            out.append(tree.add_dir(d, arg))
        elif kind == "dirs":
            out.append(list(tree.add_dirs(d, arg)))
        else:
            out.append(tree.add_files(d, arg))
    return out


def assert_same_tree(tree: NamespaceTree, oracle: NamespaceTree) -> None:
    assert tree.n_dirs == oracle.n_dirs
    assert tree.parent == oracle.parent
    assert tree.names == oracle.names
    assert tree.depth == oracle.depth
    assert tree.n_files == oracle.n_files
    assert np.array_equal(tree.n_files_array(), oracle.n_files_array())
    assert [list(c) for c in tree.children] == [list(c) for c in oracle.children]
    for d in range(tree.n_dirs):
        assert tree.unvisited_files(d) == oracle.unvisited_files(d)


def assert_leaf_contract(tree: NamespaceTree) -> None:
    """Leaves share one empty tuple; exactly the other dirs own a list."""
    leaves = [c for c in tree.children if not c]
    assert all(type(c) is tuple and c is leaves[0] for c in leaves)
    assert all(type(c) is list for c in tree.children if c)


names = st.text(alphabet="abcxyz0189", min_size=1, max_size=4)
op = st.one_of(
    st.tuples(st.just("dir"), st.integers(0, 10_000), names),
    st.tuples(st.just("dirs"), st.integers(0, 10_000),
              st.lists(names, max_size=7)),
    st.tuples(st.just("files"), st.integers(0, 10_000), st.integers(0, 9)),
)


class TestBulkMatchesPerDirBuild:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(op, max_size=40), stop_picks=st.lists(
        st.integers(0, 10_000), max_size=4))
    def test_interleaved_builds_agree(self, ops, stop_picks):
        tree, oracle = NamespaceTree(), PerDirTree()
        assert apply(tree, ops) == apply(oracle, ops)
        assert_same_tree(tree, oracle)
        assert_leaf_contract(tree)
        stop = {p % tree.n_dirs for p in stop_picks}
        for d in range(tree.n_dirs):
            assert list(tree.walk(d)) == list(oracle.walk(d))
            assert tree.subtree_extent(d) == oracle.subtree_extent(d)
            assert (tree.subtree_extent(d, stop)
                    == oracle.subtree_extent(d, stop))
            assert list(tree.ancestors(d)) == list(oracle.ancestors(d))

    def test_large_sibling_set_grows_the_file_count_mirror(self):
        tree, oracle = NamespaceTree(), PerDirTree()
        ops = [("dirs", 0, [f"d{i}" for i in range(1500)]),
               ("files", 1500, 7), ("dirs", 3, ["x"] * 600),
               ("files", 2100, 2)]
        assert apply(tree, ops) == apply(oracle, ops)
        assert_same_tree(tree, oracle)
        assert tree.n_files_array()[-1] == 2.0


class TestLeafContract:
    def test_empty_names_adds_nothing(self):
        tree = NamespaceTree()
        assert tree.add_dirs(0, []) == range(1, 1)
        assert tree.n_dirs == 1
        assert type(tree.children[0]) is tuple

    def test_bad_parent_rejected_before_any_column_moves(self):
        tree = NamespaceTree()
        with pytest.raises(IndexError):
            tree.add_dirs(5, ["a", "b"])
        with pytest.raises(IndexError):
            tree.add_dirs(-1, [])
        assert tree.n_dirs == 1 and tree.names == ["/"]

    def test_stray_append_on_a_leaf_fails_loudly(self):
        tree = NamespaceTree()
        a, b = tree.add_dirs(0, ["a", "b"])
        with pytest.raises(AttributeError):
            tree.children[a].append(99)
        assert tree.children[b] == ()

    def test_shared_name_list_is_only_read(self):
        tree = NamespaceTree()
        shared = ["x", "y"]
        p, q = tree.add_dirs(0, ["p", "q"])
        assert list(tree.add_dirs(p, shared)) == [3, 4]
        assert list(tree.add_dirs(q, shared)) == [5, 6]
        assert shared == ["x", "y"]
        assert tree.children[0] == [1, 2]
        assert tree.children[p] == [3, 4] and tree.children[q] == [5, 6]
        assert_leaf_contract(tree)


def test_wide_namespace_build_equals_the_per_dir_loop():
    """The ``wide_lunule`` golden's namespace, built in bulk, equals the
    nested ``add_dir`` loop it replaced, id for id."""
    workload = _mega_tree_workload()(16, n_cold_dirs=66_000)
    tree = NamespaceTree()
    built = workload.build_namespace(tree, 7)

    oracle = PerDirTree()
    dirs = [oracle.add_dir(0, f"mega{i}") for i in range(16)]
    cold_root = oracle.add_dir(0, "cold")
    for i in range(66_000 // 1000):
        p = oracle.add_dir(cold_root, f"c{i}")
        for j in range(1000):
            oracle.add_dir(p, f"d{j}")

    assert built.root == 0 and built.dirs == dirs
    assert_same_tree(tree, oracle)
    assert list(tree.walk(0)) == list(oracle.walk(0))
    assert_leaf_contract(tree)
