"""Property-based invariants across the authority map, migration and IF model.

These are the safety properties everything else rests on: every directory
always has exactly one authority, fragment files partition exactly, inode
totals are conserved under arbitrary migration sequences, and the IF model
stays in its documented range.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.migration import Migrator
from repro.core.if_model import imbalance_factor
from repro.namespace.builder import build_fanout
from repro.namespace.subtree import AuthorityMap
from repro.namespace.tree import NamespaceTree


def random_tree(draw_dirs: list[int], files: list[int]) -> NamespaceTree:
    """Build a tree where dir i attaches under parent draw_dirs[i] % i."""
    t = NamespaceTree()
    for i, (p, f) in enumerate(zip(draw_dirs, files), start=1):
        parent = p % i  # valid existing id
        d = t.add_dir(parent, f"d{i}")
        t.add_files(d, f)
    return t


tree_strategy = st.tuples(
    st.lists(st.integers(0, 100), min_size=1, max_size=25),
    st.lists(st.integers(0, 20), min_size=1, max_size=25),
).map(lambda pair: random_tree(pair[0], pair[1][: len(pair[0])] +
                               [0] * max(0, len(pair[0]) - len(pair[1]))))


class TestAuthorityPartition:
    @given(tree_strategy, st.lists(st.tuples(st.integers(0, 200), st.integers(0, 4)),
                                   max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_every_dir_always_resolvable(self, tree, assignments):
        am = AuthorityMap(tree, 0)
        for raw_d, mds in assignments:
            am.set_subtree_auth(raw_d % tree.n_dirs, mds)
        for d in range(tree.n_dirs):
            auth, root = am.resolve_dir(d)
            assert 0 <= auth <= 4
            assert am.is_subtree_root(root)

    @given(tree_strategy, st.lists(st.tuples(st.integers(0, 200), st.integers(0, 4)),
                                   max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_extents_partition_namespace(self, tree, assignments):
        am = AuthorityMap(tree, 0)
        for raw_d, mds in assignments:
            am.set_subtree_auth(raw_d % tree.n_dirs, mds)
        seen: list[int] = []
        for root in am.subtree_roots():
            seen.extend(am.extent(root))
        assert sorted(seen) == list(range(tree.n_dirs))

    @given(tree_strategy, st.lists(st.tuples(st.integers(0, 200), st.integers(0, 4)),
                                   max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_inode_total_invariant(self, tree, assignments):
        am = AuthorityMap(tree, 0)
        expected = tree.n_dirs + tree.total_files()
        for raw_d, mds in assignments:
            am.set_subtree_auth(raw_d % tree.n_dirs, mds)
            assert sum(am.inode_distribution(5)) == expected


def extent_walk_distribution(am: AuthorityMap, n_mds: int) -> list[int]:
    """Oracle: inodes per rank by walking every subtree root's extent
    (the per-directory walk ``AuthorityMap.inode_distribution`` replaced)."""
    counts = [0] * n_mds
    for root, auth in am.subtree_roots().items():
        for d in am.extent(root):
            counts[auth] += 1  # the dir inode
            frag = am.frag_state(d)
            if frag is None:
                counts[auth] += am.tree.n_files[d]
            else:
                bits, owners = frag
                full, rem = divmod(am.tree.n_files[d], 1 << bits)
                for frag_no, owner in owners.items():
                    counts[owner] += full + (1 if frag_no < rem else 0)
    return counts


class TestInodeDistributionOracle:
    @given(tree_strategy,
           st.lists(st.tuples(st.integers(0, 200), st.integers(0, 4)), max_size=15),
           st.lists(st.tuples(st.integers(0, 200), st.integers(1, 3),
                              st.lists(st.tuples(st.integers(0, 7),
                                                 st.integers(0, 4)),
                                       max_size=6)),
                    max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_vectorized_distribution_equals_extent_walk(
            self, tree, assignments, splits):
        am = AuthorityMap(tree, 0)
        for raw_d, mds in assignments:  # nested roots, in any order
            am.set_subtree_auth(raw_d % tree.n_dirs, mds)
            assert am.inode_distribution(5) == extent_walk_distribution(am, 5)
        for raw_d, bits, moves in splits:  # fragmented dirs, some exported
            d = raw_d % tree.n_dirs
            frags = am.split_dir(d, bits)
            for raw_f, mds in moves:
                am.set_frag_auth(frags[raw_f % len(frags)], mds)
            assert am.inode_distribution(5) == extent_walk_distribution(am, 5)
        am.merge_redundant_roots()
        assert am.inode_distribution(5) == extent_walk_distribution(am, 5)
        assert sum(am.inode_distribution(5)) == tree.n_dirs + tree.total_files()


class TestFragPartition:
    @given(st.integers(0, 500), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_resplit_preserves_file_routing_totals(self, n_files, bits1, bits2):
        tree = NamespaceTree()
        d = tree.add_dir(0, "big")
        tree.add_files(d, n_files)
        am = AuthorityMap(tree, 0)
        am.split_dir(d, bits1)
        am.frag_state(d)
        owners_before = [am.resolve(d, i) for i in range(n_files)]
        if bits2 > bits1:
            am.split_dir(d, bits2)
            owners_after = [am.resolve(d, i) for i in range(n_files)]
            assert owners_before == owners_after  # re-split never moves files


class TestMigrationConservation:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 3)), min_size=1,
                    max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_export_sequence_conserves_inodes(self, moves):
        built = build_fanout(8, 5)
        am = AuthorityMap(built.tree, 0)
        mig = Migrator(am, rate=1000, commit_latency=0)
        expected = sum(am.inode_distribution(4))
        for raw_d, dst in moves:
            d = raw_d % built.tree.n_dirs
            if d == 0:
                continue
            src = am.resolve_dir(d)[0]
            if src == dst:
                continue
            mig.submit_export(src, dst, d)
            for _ in range(3):
                mig.tick()
            assert sum(am.inode_distribution(4)) == expected
        assert mig.committed_tasks + mig.aborted_tasks <= len(moves)


class TestIfModelProperties:
    @given(st.lists(st.floats(0, 1000), min_size=2, max_size=20),
           st.floats(1.0, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_if_in_unit_interval(self, loads, cap):
        v = imbalance_factor(loads, cap)
        assert 0.0 <= v <= 1.0
        assert not math.isnan(v)

    @given(st.integers(2, 16), st.floats(1.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_single_hot_is_maximal_shape(self, n, load):
        skewed = [load] + [0.0] * (n - 1)
        balanced = [load / n] * n
        cap = load
        assert imbalance_factor(skewed, cap) > imbalance_factor(balanced, cap)

    @given(st.lists(st.floats(1.0, 100.0), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, loads):
        a = imbalance_factor(loads, 200.0)
        b = imbalance_factor(list(reversed(loads)), 200.0)
        assert a == pytest.approx(b)


class TestRouterTotalServed:
    @given(st.integers(2, 6), st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_simulation_op_conservation(self, n_clients, reads):
        from repro.balancers import make_balancer
        from repro.cluster.simulator import SimConfig, Simulator
        from repro.workloads import ZipfWorkload

        wl = ZipfWorkload(n_clients, files_per_dir=10, reads_per_client=reads)
        sim = Simulator(wl.materialize(seed=1), make_balancer("lunule"),
                        SimConfig(n_mds=3, mds_capacity=40, epoch_len=5,
                                  max_ticks=5000))
        res = sim.run()
        assert sum(res.served_per_mds) == n_clients * reads
        assert len(res.completion_ticks) == n_clients
