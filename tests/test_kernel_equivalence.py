"""Scalar/columnar engine equivalence and serve-loop edge cases.

The columnar engine's contract is *decision equivalence*: for any config,
the full balancer-decision trace must be byte-identical to the scalar
reference's. These tests hold that contract over a matrix of workloads,
balancers, and serve-loop edge conditions (rate-limited clients, data-path
stalls, lease expiry, dirfrag redirects), plus the chaos failure path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster.simulator import SimConfig
from repro.experiments.config import BENCH_SIM_CONFIG, ExperimentConfig
from repro.experiments.runner import run_traced

SMALL = SimConfig(n_mds=3, mds_capacity=60.0, epoch_len=5, max_ticks=1200,
                  migration_rate=50, seed=0)

#: name -> (workload, balancer, clients, seed, scale, sim config,
#: workload overrides, data_path)
MATRIX = {
    "mdtest_lunule": ("mdtest", "lunule", 6, 11, 0.12, SMALL, {}, False),
    "mixed_lunule": ("mixed", "lunule", 6, 11, 0.12, SMALL, {}, False),
    "zipf_vanilla": ("zipf", "vanilla", 6, 11, 0.12, SMALL, {}, False),
    # Rate-limited clients: the per-tick op budget forces the turbo tick
    # to fall back to the round-robin loop.
    "rate_limited": ("mdtest", "lunule", 6, 11, 0.12, SMALL,
                     {"client_rate": 2.5, "creates_per_client": 120}, False),
    # Data path on: OSD stalls suspend clients mid-stream (data_window).
    "data_window": ("zipf", "lunule", 6, 11, 0.12, SMALL, {}, True),
    # Aggressive lease expiry: client dentry caches die every 3 ticks, so
    # every stream keeps re-charging its routing entries.
    "lease_churn": ("mdtest", "lunule", 6, 11, 0.12,
                    SMALL.with_(client_lease_ttl=3), {}, False),
    # One client, one MDS: a lone survivor drains in quantum rounds.
    "single_client": ("mdtest", "lunule", 6, 11, 0.12,
                      SMALL.with_(n_mds=1, max_ticks=400), {}, False),
    # Scan workloads at benchmark settings: inputs on which an earlier
    # run-batching serve path decided differently from the reference.
    "nlp_bench": ("nlp", "lunule", 20, 7, 0.12, BENCH_SIM_CONFIG, {}, False),
    "cnn_bench": ("cnn", "lunule", 8, 1001, 0.05, BENCH_SIM_CONFIG, {}, False),
}


def run_engine(name: str, engine: str):
    (workload, balancer, n_clients, seed, scale, sim, overrides,
     data_path) = MATRIX[name]
    cfg = ExperimentConfig(workload=workload, balancer=balancer,
                           n_clients=n_clients, seed=seed, scale=scale,
                           data_path=data_path, sim=sim.with_(engine=engine),
                           workload_overrides=overrides or None)
    return run_traced(cfg)


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_trace_equivalence(name):
    """Scalar and columnar runs produce byte-identical decision traces."""
    result_s, sim_s = run_engine(name, "scalar")
    result_c, sim_c = run_engine(name, "columnar")
    assert sim_s.trace.dumps() == sim_c.trace.dumps()
    assert result_s.meta_ops == result_c.meta_ops
    assert result_s.completion_ticks == result_c.completion_ticks
    assert result_s.served_per_mds == result_c.served_per_mds
    assert result_s.total_forwards == result_c.total_forwards


def test_chaos_trace_equivalence():
    """The chaos failure path (faults, aborts, replays) is engine-neutral."""
    from repro.experiments.chaos import run_chaos

    _, _, sim_s = run_chaos("flap", seed=1, engine="scalar")
    _, _, sim_c = run_chaos("flap", seed=1, engine="columnar")
    assert sim_s.trace.dumps() == sim_c.trace.dumps()


class TestServeLoopEdges:
    """Semantic checks on the edge conditions, run under both engines."""

    @pytest.fixture(params=["scalar", "columnar"])
    def engine(self, request):
        return request.param

    def test_rate_limited_client_spans_ticks(self, engine):
        """A rate-R client is capped at ceil(R) ops per tick, spanning ticks.

        Serving stops once ``rate_served >= rate``, so the op that crosses
        the threshold still completes: rate 2.5 means exactly 3 ops/tick
        for a client with work queued, and 100 creates take ceil(100/3)
        ticks regardless of MDS capacity.
        """
        sim_cfg = SMALL.with_(n_mds=1, max_ticks=600, engine=engine)
        cfg = ExperimentConfig(workload="mdtest", balancer="nop", n_clients=1,
                               seed=3, scale=1.0, sim=sim_cfg,
                               workload_overrides={"client_rate": 2.5,
                                                   "creates_per_client": 100,
                                                   "jitter": 0.0})
        result, sim = run_traced(cfg)
        assert result.meta_ops == 100
        done = list(result.completion_ticks.values())[0]
        assert done + 1 >= math.ceil(100 / 3)  # rate, not capacity, binds

    def test_lease_expiry_recharges_routing(self, engine):
        """Expiring dentry leases prune stale routing, cutting forwards.

        Forwards happen when a client's cached entry still points at the
        pre-migration authority. With expiry off (ttl=0) stale entries
        linger and keep misrouting; a short TTL forces the client to
        re-charge the entry from the current authority map.
        """
        def forwards(ttl):
            sim_cfg = SMALL.with_(client_lease_ttl=ttl, engine=engine)
            cfg = ExperimentConfig(workload="mixed", balancer="lunule",
                                   n_clients=6, seed=11, scale=0.12,
                                   sim=sim_cfg)
            result, _ = run_traced(cfg)
            return result.total_forwards

        assert forwards(3) < forwards(0)  # deterministic at this seed

    def test_data_window_stalls_and_resumes(self, engine):
        """With the data path on, every client still finishes its stream."""
        sim_cfg = SMALL.with_(engine=engine, data_path=True, max_ticks=3000)
        cfg = ExperimentConfig(workload="zipf", balancer="vanilla",
                               n_clients=4, seed=5, scale=0.1,
                               data_path=True, sim=sim_cfg)
        result, sim = run_traced(cfg)
        assert result.data_ops > 0
        assert len(result.completion_ticks) == 4

    def test_frag_redirects_under_fragmentation(self, engine):
        """A fragmenting run routes file ops to frag owners, not dir auth."""
        result, sim = run_engine("mdtest_lunule", engine)
        frags = sim.authmap.fragmented_dirs()
        assert frags, "scenario expected to fragment at least one dir"
        # Fragment ownership actually spread load: some frag owner differs
        # from the dir's subtree authority.
        spread = False
        for d in frags:
            bits, owners = sim.authmap.frag_state(d)
            _, auth = sim.authmap.resolve_dir(d)
            if any(o != auth for o in owners.values()):
                spread = True
        assert spread


class TestTreeAccessHistogram:
    """The incremental epoch histograms behind ``unvisited_array``."""

    def test_matches_brute_force_scan(self):
        from repro.namespace.tree import NEVER_ACCESSED, NamespaceTree

        rng = np.random.default_rng(0)
        tree = NamespaceTree()
        dirs = [tree.add_dir(0, f"d{i}") for i in range(4)]
        for d in dirs:
            tree.add_files(d, 30)
        for epoch in range(12):
            for d in dirs:
                for idx in rng.integers(0, 30, size=8):
                    tree.touch_file(d, int(idx), epoch)
            batch = np.unique(rng.integers(0, 30, size=6))
            tree.touch_file_batch(dirs[0], batch, epoch)
            first = tree.n_files[dirs[1]]
            tree.add_files(dirs[1], 5)
            tree.touch_file_range(dirs[1], first, 5, epoch)
            cutoff = epoch - 3
            got = dict(tree.recently_accessed(cutoff))
            for d in dirs:
                arr = tree._file_last_access[d][: tree.n_files[d]]
                want = int(((arr != NEVER_ACCESSED) & (arr >= cutoff)).sum())
                assert got.get(d, 0) == want, (epoch, d)

    def test_n_files_array_mirrors_list(self):
        from repro.namespace.tree import NamespaceTree

        tree = NamespaceTree()
        a = tree.add_dir(0, "a")
        b = tree.add_dir(a, "b")
        tree.add_files(a, 7)
        tree.add_files(b, 3)
        tree.add_files(a, 2)
        arr = tree.n_files_array()
        assert arr.tolist() == [float(x) for x in tree.n_files]
        arr[a] = 99  # a copy, not a view
        assert tree.n_files[a] == 9


class TestSparseHeatLoads:
    """``ClusterView.heat_loads`` sums only live-heat dirs, bit-exactly."""

    def test_matches_dense_extent_walk(self):
        from repro.core.view import ClusterView, RankView
        from repro.namespace.subtree import AuthorityMap
        from repro.namespace.tree import NamespaceTree

        rng = np.random.default_rng(42)
        for trial in range(15):
            tree = NamespaceTree()
            for i in range(int(rng.integers(20, 200))):
                tree.add_dir(int(rng.integers(tree.n_dirs)), f"d{i}")
            ns = AuthorityMap(tree, 0)
            n_mds = 4
            picks = rng.choice(tree.n_dirs - 1,
                               size=min(6, tree.n_dirs - 1), replace=False)
            for d in picks:
                ns.set_subtree_auth(int(d) + 1, int(rng.integers(n_mds)))
            heat = np.where(rng.random(tree.n_dirs) < 0.4,
                            rng.random(tree.n_dirs) * 5, 0.0)
            sub, frags = ns.snapshot_state()
            view = ClusterView(
                epoch=0,
                ranks=tuple(RankView(r, 0.0, 100.0, False, (), 0.0, 0.0, 0)
                            for r in range(n_mds)),
                default_capacity=100.0, tree=tree, subtree_auth=sub,
                frags=frags, heat=heat)
            authmap = view.authority
            ref = [0.0] * n_mds
            for root, auth in authmap.subtree_roots().items():
                ref[auth] += float(sum(heat[d] for d in authmap.extent(root)))
            assert view.heat_loads() == ref, trial


class TestSparseCandidates:
    """The load-skeleton candidate path agrees with the dense walk."""

    def test_positive_candidates_bit_identical(self):
        import repro.balancers.candidates as cand
        from repro.namespace.builder import build_fanout
        from repro.namespace.subtree import AuthorityMap

        rng = np.random.default_rng(3)
        for _ in range(10):
            b = build_fanout(40, 3)
            tree = b.tree
            for i in range(60):
                tree.add_dir(int(rng.integers(tree.n_dirs)), f"x{i}")
            ns = AuthorityMap(tree, 0)
            for d in rng.choice(tree.n_dirs - 1, size=5, replace=False):
                ns.set_subtree_auth(int(d) + 1, int(rng.integers(3)))
            for d in rng.choice(b.dirs, size=3, replace=False):
                tree.add_files(int(d), 8)
                frags = ns.split_dir(int(d), 1)
                ns.set_frag_auth(frags[1], int(rng.integers(3)))
            load = np.where(rng.random(tree.n_dirs) < 0.3,
                            rng.random(tree.n_dirs) * 10, 0.0)
            for mds in range(3):
                dense = cand.candidates_for(ns, mds, load)
                sparse = cand._candidates_sparse(ns, mds, load)
                key = lambda c: (c.unit, c.load, c.self_load, c.self_files)
                assert ([key(c) for c in dense if c.load > 0 or c.is_frag]
                        == [key(c) for c in sparse if c.load > 0 or c.is_frag])
                assert (cand.scale_to_load(dense, 100.0)
                        == cand.scale_to_load(sparse, 100.0))
