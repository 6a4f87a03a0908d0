"""AuthTable: per-fragmented-dir owner tables, keyed to the map version.

The turbo create tick walks ``frag_seq`` / ``frag_rle`` instead of routing
each op, and remembers warm client caches per ``frag_gen``. So a table
must change exactly when the owners a create stream would meet change —
including the frags that default to the directory's authority — and
stay put otherwise.
"""

from repro.kernel.authtable import AuthTable
from repro.namespace.subtree import AuthorityMap
from repro.namespace.tree import NamespaceTree


def _map():
    """``/a/big`` split 4 ways with frags 2 and 3 absent (they default to
    the dir authority), plus an unrelated ``/b``."""
    tree = NamespaceTree()
    a = tree.add_dir(0, "a")
    big = tree.add_dir(a, "big")
    b = tree.add_dir(0, "b")
    tree.add_files(big, 16)
    am = AuthorityMap.from_state(tree, {0: 0}, {big: (2, {0: 1, 1: 0})})
    return am, a, big, b


def test_tables_cover_fragmented_dirs_only():
    am, _, big, _ = _map()
    table = AuthTable(am)
    table.refresh()
    assert set(table.frag_seq) == {big}
    assert table.frag_seq[big] == [1, 0, 0, 0]
    assert table.frag_rle[big] == ([0, 1], [1, 3], [1, 0])
    assert table.frag_tot[big] == {1: 1, 0: 3}
    assert table.frag_info[big][2] is None  # two owners: not uniform
    assert not hasattr(table, "auth")  # no per-directory array


def test_moving_a_root_above_a_fragmented_dir_refills_its_holes():
    am, a, big, _ = _map()
    table = AuthTable(am)
    table.refresh()
    gen = table.frag_gen[big]
    am.set_subtree_auth(a, 2)
    table.refresh()
    assert table.frag_seq[big] == [1, 0, 2, 2]
    assert table.frag_tot[big] == {1: 1, 0: 1, 2: 2}
    assert table.frag_gen[big] == gen + 1


def test_moving_an_unrelated_root_bumps_nothing():
    am, _, big, b = _map()
    table = AuthTable(am)
    table.refresh()
    gen, seq = table.frag_gen[big], table.frag_seq[big]
    am.set_subtree_auth(b, 3)
    table.refresh()
    assert table.frag_gen[big] == gen
    assert table.frag_seq[big] is seq  # tables kept, not rebuilt


def test_refresh_is_a_no_op_until_the_version_moves():
    am, _, big, _ = _map()
    table = AuthTable(am)
    table.refresh()
    seq = table.frag_seq[big]
    table.refresh()
    assert table.frag_seq[big] is seq
    am.merge_uniform_frags()  # two owners: nothing merges, version stays
    table.refresh()
    assert table.frag_seq[big] is seq


def test_unfragmenting_drops_the_tables_and_bumps_the_generation():
    am, _, big, _ = _map()
    table = AuthTable(am)
    table.refresh()
    gen = table.frag_gen[big]
    am.set_frag_auth(am.split_dir(big, 2)[0], 0)  # every frag on rank 0
    assert am.merge_uniform_frags() == 1
    table.refresh()
    assert big not in table.frag_seq and big not in table.frag_info
    assert table.frag_gen[big] > gen
