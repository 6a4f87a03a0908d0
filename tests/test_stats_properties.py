"""Property tests of the cutting-window bookkeeping in AccessStats.

The migration index is only as good as these counters; the properties
below pin down the window algebra regardless of access pattern.
"""

import copy

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.stats import AccessStats
from repro.core.mindex import mindex_per_dir
from repro.core.pattern import analyze
from repro.namespace.builder import build_fanout

# an access script: per epoch, a list of (dir_index, file_index) touches
script_strategy = st.lists(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), max_size=30),
    min_size=1, max_size=8,
)


def replay(script, *, windows=3, recurrence=2, sibling=0.0):
    built = build_fanout(5, 10)
    stats = AccessStats(built.tree, recurrence_window=recurrence,
                        pattern_windows=windows,
                        sibling_probability=sibling, seed=1)
    per_epoch = []
    for epoch_ops in script:
        counts = np.zeros(built.tree.n_dirs)
        for di, fi in epoch_ops:
            d = built.dirs[di]
            stats.record_file_access(d, fi)
            counts[d] += 1
        stats.end_epoch()
        per_epoch.append(counts)
    return built, stats, per_epoch


class TestWindowAlgebra:
    @given(script_strategy)
    @settings(max_examples=40, deadline=None)
    def test_window_visits_equal_recent_epoch_sum(self, script):
        built, stats, per_epoch = replay(script, windows=3)
        expected = np.sum(per_epoch[-3:], axis=0)
        assert np.array_equal(stats.pattern_arrays()["visits"], expected)

    @given(script_strategy)
    @settings(max_examples=40, deadline=None)
    def test_visits_partition_into_recurrent_and_first(self, script):
        built, stats, _ = replay(script)
        arrays = stats.pattern_arrays()
        assert np.array_equal(arrays["visits"],
                              arrays["recurrent"] + arrays["first"])

    @given(script_strategy)
    @settings(max_examples=40, deadline=None)
    def test_ls_equals_first_without_sibling_bonus(self, script):
        built, stats, _ = replay(script, sibling=0.0)
        arrays = stats.pattern_arrays()
        assert np.array_equal(arrays["ls"], arrays["first"])

    @given(script_strategy)
    @settings(max_examples=40, deadline=None)
    def test_all_window_sums_non_negative(self, script):
        built, stats, _ = replay(script)
        for name, arr in stats.pattern_arrays().items():
            assert (arr >= 0).all(), name

    @given(script_strategy)
    @settings(max_examples=40, deadline=None)
    def test_unvisited_stock_bounded_by_files(self, script):
        built, stats, _ = replay(script)
        stock = stats.unvisited_array()
        for d in range(built.tree.n_dirs):
            assert 0 <= stock[d] <= built.tree.n_files[d]

    @given(script_strategy, st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_idle_epochs_drain_the_window(self, script, idle):
        built, stats, _ = replay(script, windows=3)
        for _ in range(max(3, idle)):
            stats.end_epoch()
        arrays = stats.pattern_arrays()
        for name in ("visits", "recurrent", "first", "ls", "created"):
            assert np.allclose(arrays[name], 0.0), name


class TestHeatAlgebra:
    @given(script_strategy)
    @settings(max_examples=30, deadline=None)
    def test_heat_is_decayed_visit_sum(self, script):
        built, stats, per_epoch = replay(script)
        decay = stats.heat_decay
        expected = np.zeros(built.tree.n_dirs)
        for counts in per_epoch:
            expected = (expected + counts) * decay
        assert np.allclose(stats.heat_array(), expected)

    @given(script_strategy)
    @settings(max_examples=30, deadline=None)
    def test_heat_never_negative(self, script):
        _, stats, _ = replay(script)
        assert (stats.heat_array() >= 0).all()


# -- sparse windows against the dense algebra they replace -----------------
#
# ``AccessStats.end_epoch`` keeps one *sparse* window entry per epoch and
# ``mindex_per_dir`` evaluates Eq. 4 on the window-live dirs only. The
# oracle below is the dense epoch roll they replaced: full-length per-epoch
# arrays, the sibling bonus drawn from a copy of the stats' own generator.

# one epoch of a growth script: ("file", dir, idx) touches, ("dir", dir)
# dir-level ops, ("create", dir, n) create batches, ("mkdir", parent) growth
_op = st.one_of(
    st.tuples(st.just("file"), st.integers(0, 40), st.integers(0, 9)),
    st.tuples(st.just("dir"), st.integers(0, 40)),
    st.tuples(st.just("create"), st.integers(0, 40), st.integers(1, 4)),
    st.tuples(st.just("mkdir"), st.integers(0, 40)),
)
growth_script = st.lists(st.lists(_op, max_size=25), min_size=1, max_size=9)


def dense_epoch(stats):
    """The epoch ``stats.end_epoch()`` is about to close, as dense arrays
    ``(visits, recurrent, first, ls, created)``; leaves ``stats`` as is."""
    tree = stats.tree
    n = tree.n_dirs
    pad = [0] * (n - len(stats._visits))
    visits = np.array(stats._visits + pad, dtype=float)
    recurrent = np.array(stats._recurrent + pad, dtype=float)
    first = np.array(stats._first + pad, dtype=float)
    created = np.array(stats._created + pad, dtype=float)
    ls = first.copy()
    if stats.sibling_probability > 0.0:
        rng = copy.deepcopy(stats._rng)
        stock = stats.unvisited_array()
        for d in np.nonzero(first)[0]:
            if rng.random() >= stats.sibling_probability:
                continue
            parent = tree.parent[d]
            if parent < 0:
                continue
            siblings = tree.children[parent]
            if len(siblings) < 2:
                continue
            unvisited = [s for s in siblings if s != d and stock[s] > 0]
            pool = unvisited if unvisited else [s for s in siblings if s != d]
            pick = int(pool[rng.integers(len(pool))])
            ls[pick] += min(first[d], stock[pick])
    return visits, recurrent, first, ls, created


def replay_growth(script, *, windows, recurrence, sibling, check):
    """Replay ``script`` epoch by epoch, calling ``check(stats, history)``
    after every ``end_epoch`` with the dense per-epoch history so far."""
    built = build_fanout(6, 8)
    tree = built.tree
    stats = AccessStats(tree, recurrence_window=recurrence,
                        pattern_windows=windows,
                        sibling_probability=sibling, seed=3)
    history = []
    for epoch_ops in script:
        for op in epoch_ops:
            d = op[1] % tree.n_dirs
            if op[0] == "file":
                if tree.n_files[d]:
                    stats.record_file_access(d, op[2] % tree.n_files[d])
            elif op[0] == "dir":
                stats.record_dir_access(d)
            elif op[0] == "create":
                first = tree.add_files(d, op[2])
                stats.record_create_batch(d, first, op[2])
            else:
                child = tree.add_dir(d, f"g{tree.n_dirs}")
                tree.add_files(child, op[1] % 5)
        history.append(dense_epoch(stats))
        stats.end_epoch()
        check(stats, history)
    return stats


def _window_sum(history, windows, k, n):
    total = np.zeros(n)
    for arrays in history[-windows:]:
        total[: arrays[k].size] += arrays[k]
    return total


class TestSparseWindows:
    @given(growth_script, st.integers(1, 4), st.integers(1, 3),
           st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_window_sums_equal_dense_sum_of_last_epochs(
            self, script, windows, recurrence, sibling):
        names = ("win_visits", "win_recurrent", "win_first", "win_ls",
                 "win_created")

        def check(stats, history):
            n = stats.tree.n_dirs
            for k, name in enumerate(names):
                expected = _window_sum(history, windows, k, n)
                assert getattr(stats, name).tobytes() == expected.tobytes(), name
            live = set(stats.window_dirs().tolist())
            assert len(stats._win) == min(windows, len(history))
            assert live == {d for e in stats._win for d in e[0].tolist()}

        replay_growth(script, windows=windows, recurrence=recurrence,
                      sibling=sibling, check=check)

    @given(growth_script, st.integers(1, 4), st.integers(1, 3),
           st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_sparse_mindex_is_bit_equal_to_dense(
            self, script, windows, recurrence, sibling):
        def check(stats, history):
            sparse = mindex_per_dir(stats)
            assert sparse.tobytes() == analyze(stats).mindex.tobytes()

        replay_growth(script, windows=windows, recurrence=recurrence,
                      sibling=sibling, check=check)

    def test_sibling_picks_outside_the_touched_set_enter_the_window(self):
        # every first visit draws a sibling (probability 1); the touched
        # dir's siblings are untouched, so the entry names more dirs than
        # were touched, and those dirs carry l_s but no visits
        built = build_fanout(6, 8)
        stats = AccessStats(built.tree, sibling_probability=1.0, seed=3)
        d = built.dirs[0]
        stats.record_file_access(d, 0)
        stats.end_epoch()
        idx, visits, _, first, ls, _ = stats._win[-1]
        assert idx.tolist()[0] == d and idx.size == 2
        pick = idx.tolist()[1]
        assert pick in built.dirs[1:]
        assert visits.tolist() == [1.0, 0.0] and ls.tolist() == [1.0, 1.0]
        assert mindex_per_dir(stats)[pick] > 0.0
        assert mindex_per_dir(stats).tobytes() == analyze(stats).mindex.tobytes()
