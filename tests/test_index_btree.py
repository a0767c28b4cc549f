"""B+-tree substrate."""

import random

import pytest

from repro.core.oid import OID
from repro.errors import KimDBError
from repro.index.btree import BTree, normalize_key


class TestNormalizeKey:
    def test_type_ranks_ordered(self):
        keys = [None, False, True, -5, 2.5, 7, "a", b"b", OID(1)]
        normalized = [normalize_key(k) for k in keys]
        assert normalized == sorted(normalized)

    def test_int_float_interleave(self):
        assert normalize_key(1) < normalize_key(1.5) < normalize_key(2)

    def test_int_equals_equal_float(self):
        assert normalize_key(7500) == normalize_key(7500.0)

    def test_unindexable_value(self):
        with pytest.raises(KimDBError):
            normalize_key([1, 2])


class TestInsertSearch:
    def test_search_empty(self):
        assert BTree().search(5) == []

    def test_single_entry(self):
        tree = BTree()
        tree.insert(5, "A", OID(1))
        assert tree.search(5) == [("A", OID(1))]

    def test_duplicates_same_key(self):
        tree = BTree()
        tree.insert(5, "A", OID(1))
        tree.insert(5, "B", OID(2))
        assert sorted(tree.search(5)) == [("A", OID(1)), ("B", OID(2))]

    def test_many_keys_split(self):
        tree = BTree(order=4)
        for value in range(200):
            tree.insert(value, "A", OID(value + 1))
        assert tree.depth() > 1
        for value in (0, 57, 199):
            assert tree.search(value) == [("A", OID(value + 1))]
        tree.check_invariants()

    def test_random_insert_order(self):
        rng = random.Random(0)
        values = list(range(500))
        rng.shuffle(values)
        tree = BTree(order=8)
        for value in values:
            tree.insert(value, "A", OID(value + 1))
        tree.check_invariants()
        assert list(tree.iter_keys()) == list(range(500))

    def test_mixed_type_keys(self):
        tree = BTree()
        tree.insert("detroit", "A", OID(1))
        tree.insert(42, "A", OID(2))
        tree.insert(None, "A", OID(3))
        tree.check_invariants()
        assert tree.search("detroit") == [("A", OID(1))]
        assert tree.search(None) == [("A", OID(3))]

    def test_order_validation(self):
        with pytest.raises(KimDBError):
            BTree(order=2)


class TestRange:
    @pytest.fixture
    def tree(self):
        tree = BTree(order=4)
        for value in range(0, 100, 10):
            tree.insert(value, "A", OID(value + 1))
        return tree

    def keys(self, result):
        return [key for key, _entries in result]

    def test_full_range(self, tree):
        assert self.keys(tree.range()) == list(range(0, 100, 10))

    def test_bounded_inclusive(self, tree):
        assert self.keys(tree.range(20, 50)) == [20, 30, 40, 50]

    def test_bounded_exclusive(self, tree):
        assert self.keys(tree.range(20, 50, include_low=False, include_high=False)) == [30, 40]

    def test_open_low(self, tree):
        assert self.keys(tree.range(high=25)) == [0, 10, 20]

    def test_open_high(self, tree):
        assert self.keys(tree.range(low=75)) == [80, 90]

    def test_bounds_between_keys(self, tree):
        assert self.keys(tree.range(15, 35)) == [20, 30]

    def test_empty_range(self, tree):
        assert self.keys(tree.range(101, 200)) == []


class TestRemove:
    def test_remove_entry(self):
        tree = BTree()
        tree.insert(5, "A", OID(1))
        assert tree.remove(5, "A", OID(1))
        assert tree.search(5) == []
        assert len(tree) == 0

    def test_remove_one_of_duplicates(self):
        tree = BTree()
        tree.insert(5, "A", OID(1))
        tree.insert(5, "A", OID(2))
        assert tree.remove(5, "A", OID(1))
        assert tree.search(5) == [("A", OID(2))]

    def test_remove_missing_returns_false(self):
        tree = BTree()
        tree.insert(5, "A", OID(1))
        assert not tree.remove(5, "A", OID(99))
        assert not tree.remove(6, "A", OID(1))

    def test_heavy_churn_keeps_invariants(self):
        rng = random.Random(1)
        tree = BTree(order=6)
        live = set()
        for step in range(2000):
            value = rng.randrange(100)
            oid = OID(value + 1)
            if (value, oid.value) in live and rng.random() < 0.5:
                tree.remove(value, "A", oid)
                live.discard((value, oid.value))
            elif (value, oid.value) not in live:
                tree.insert(value, "A", oid)
                live.add((value, oid.value))
        tree.check_invariants()
        assert len(tree) == len(live)

    def test_key_count_tracks_random_inserts_and_removes(self):
        rng = random.Random(7)
        tree = BTree(order=4)
        live = set()  # (key, oid value) pairs, several OIDs per key
        for step in range(3000):
            key = rng.randrange(60)
            oid = OID(rng.randrange(5) + 1)
            if rng.random() < 0.45:
                removed = tree.remove(key, "A", oid)
                assert removed == ((key, oid.value) in live)
                live.discard((key, oid.value))
            elif (key, oid.value) not in live:
                tree.insert(key, "A", oid)
                live.add((key, oid.value))
            if step % 100 == 0:
                tree.check_invariants()
            assert tree.key_count == len({k for k, _ in live})
            assert tree.min_key() == min((k for k, _ in live), default=None)
            assert tree.max_key() == max((k for k, _ in live), default=None)
        # Empty the leaves at both ends: the extremes skip them.
        for key, oid_value in sorted(live):
            if key < 15 or key >= 30:
                assert tree.remove(key, "A", OID(oid_value))
                live.discard((key, oid_value))
        tree.check_invariants()
        assert tree.key_count == len(list(tree.iter_keys())) == len({k for k, _ in live})
        assert tree.min_key() == min(k for k, _ in live)
        assert tree.max_key() == max(k for k, _ in live)

    def test_check_invariants_catches_key_count_drift(self):
        tree = BTree()
        tree.insert(1, "A", OID(1))
        tree._keys += 1
        with pytest.raises(KimDBError, match="key-count drift"):
            tree.check_invariants()

    def test_clear(self):
        tree = BTree()
        for value in range(10):
            tree.insert(value, "A", OID(value + 1))
        tree.clear()
        assert len(tree) == 0
        assert tree.key_count == 0
        assert list(tree.iter_keys()) == []


class TestIterEntries:
    def test_entries_in_key_order(self):
        tree = BTree()
        tree.insert(2, "B", OID(2))
        tree.insert(1, "A", OID(1))
        entries = list(tree.iter_entries())
        assert entries == [(1, ("A", OID(1))), (2, ("B", OID(2)))]


class TestNextGroup:
    def _walk(self, tree, descending):
        keys, after = [], None
        while True:
            found = tree.next_group(after, descending)
            if found is None:
                return keys
            after = found[0]
            keys.append((after[1], found[1]))

    def test_walks_match_range_both_ways_across_emptied_leaves(self):
        rng = random.Random(7)
        tree = BTree(order=4)
        for value in range(300):
            tree.insert(value % 120, "A", OID(value + 1))
        # Remove whole key runs so some leaves are left empty.
        for value in range(300):
            if 30 <= value % 120 < 60 or rng.random() < 0.2:
                tree.remove(value % 120, "A", OID(value + 1))
        expected = list(tree.range())
        assert self._walk(tree, descending=False) == expected
        assert self._walk(tree, descending=True) == expected[::-1]

    def test_resumes_past_a_key_that_is_gone(self):
        tree = BTree(order=4)
        for value in range(20):
            tree.insert(value, "A", OID(value + 1))
        tree.remove(10, "A", OID(11))
        assert tree.next_group(normalize_key(10))[0] == normalize_key(11)
        assert tree.next_group(normalize_key(10), descending=True)[0] == normalize_key(9)
        assert tree.next_group(normalize_key(19)) is None
        assert tree.next_group(normalize_key(0), descending=True) is None

    def test_empty_tree(self):
        assert BTree().next_group(None) is None
        assert BTree().next_group(None, descending=True) is None
