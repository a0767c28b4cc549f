"""Pagers, buffer pool, heap files, serializer, storage manager."""

import pytest

from repro import AttributeDef, Database
from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.errors import ObjectNotFoundError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.heap import RID, HeapFile
from repro.storage.manager import StorageManager
from repro.storage.pager import FilePager, MemoryPager, open_pager
from repro.storage.serializer import decode_object, encode_object


class TestPagers:
    def test_memory_alloc_and_rw(self):
        pager = MemoryPager(page_size=256)
        pid = pager.allocate()
        pager.write_page(pid, b"a" * 256)
        assert pager.read_page(pid) == b"a" * 256

    def test_memory_wrong_size_write(self):
        pager = MemoryPager(256)
        pid = pager.allocate()
        with pytest.raises(StorageError):
            pager.write_page(pid, b"short")

    def test_memory_unknown_page(self):
        with pytest.raises(StorageError):
            MemoryPager(256).read_page(0)

    def test_stats_counted(self):
        pager = MemoryPager(256)
        pid = pager.allocate()
        pager.write_page(pid, bytes(256))
        pager.read_page(pid)
        assert pager.metrics.snapshot("pager.") == {
            "pager.allocations": 1, "pager.reads": 1, "pager.writes": 1
        }

    def test_file_pager_persists(self, tmp_path):
        path = str(tmp_path / "pages.db")
        pager = FilePager(path, page_size=256)
        pid = pager.allocate()
        pager.write_page(pid, b"z" * 256)
        pager.sync()
        pager.close()
        reopened = FilePager(path, page_size=256)
        assert reopened.page_count == 1
        assert reopened.read_page(pid) == b"z" * 256
        reopened.close()

    def test_file_pager_geometry_mismatch(self, tmp_path):
        path = str(tmp_path / "pages.db")
        FilePager(path, page_size=256).close()
        with pytest.raises(StorageError):
            FilePager(path, page_size=512)

    def test_file_pager_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not_a_db"
        path.write_bytes(b"x" * 64)
        with pytest.raises(StorageError):
            FilePager(str(path), page_size=256)

    def test_open_pager_factory(self, tmp_path):
        assert isinstance(open_pager(None), MemoryPager)
        pager = open_pager(str(tmp_path / "f.db"))
        assert isinstance(pager, FilePager)
        pager.close()

    def test_tiny_page_size_rejected(self):
        with pytest.raises(StorageError):
            MemoryPager(16)


class TestBufferPool:
    def test_hit_after_fault(self):
        pool = BufferPool(MemoryPager(256), capacity=4)
        pid = pool.new_page()
        pool.flush_all()
        pool.drop_all()
        pool.get_page(pid)
        pool.get_page(pid)
        assert pool.metrics.value("buffer.faults") == 1
        assert pool.metrics.value("buffer.hits") == 1

    def test_eviction_writes_dirty_pages(self):
        pool = BufferPool(MemoryPager(256), capacity=2)
        pids = []
        for position in range(3):
            pid = pool.new_page()
            page = pool.get_page(pid)
            page.insert(b"rec%d" % position)
            pool.mark_dirty(pid)
            pids.append(pid)
        # Capacity 2 < 3 pages: at least one eviction flushed its data.
        assert pool.metrics.value("buffer.evictions") >= 1
        pool.flush_all()
        pool.drop_all()
        for position, pid in enumerate(pids):
            assert pool.get_page(pid).read(0) == b"rec%d" % position

    def test_lru_order(self):
        pool = BufferPool(MemoryPager(256), capacity=2)
        a = pool.new_page()
        b = pool.new_page()
        pool.get_page(a)  # a becomes most-recent
        pool.new_page()  # evicts b
        assert a in list(pool.resident_pages())
        assert b not in list(pool.resident_pages())

    def test_mark_dirty_nonresident_fails(self):
        pool = BufferPool(MemoryPager(256), capacity=2)
        with pytest.raises(StorageError):
            pool.mark_dirty(99)

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            BufferPool(MemoryPager(256), capacity=0)

    def test_drop_all_forces_cold_cache(self):
        pool = BufferPool(MemoryPager(256), capacity=8)
        pid = pool.new_page()
        pool.drop_all()
        pool.metrics.reset("buffer.")
        pool.get_page(pid)
        assert pool.metrics.value("buffer.faults") == 1


class TestHeapFile:
    @pytest.fixture
    def heap(self):
        return HeapFile(BufferPool(MemoryPager(256), capacity=16), "test")

    def test_insert_read(self, heap):
        rid = heap.insert(b"record")
        assert heap.read(rid) == b"record"

    def test_spills_to_new_pages(self, heap):
        rids = [heap.insert(b"x" * 100) for _ in range(10)]
        assert heap.page_count > 1
        assert len({rid.page_id for rid in rids}) == heap.page_count

    def test_update_in_place_keeps_rid(self, heap):
        rid = heap.insert(b"abc")
        assert heap.update(rid, b"abd") == rid

    def test_update_relocates_when_full(self, heap):
        rid = heap.insert(b"a" * 100)
        heap.insert(b"b" * 100)
        new_rid = heap.update(rid, b"c" * 200)
        assert heap.read(new_rid) == b"c" * 200

    def test_delete(self, heap):
        rid = heap.insert(b"gone")
        heap.delete(rid)
        with pytest.raises(StorageError):
            heap.read(rid)

    def test_scan_in_page_order(self, heap):
        payloads = [b"r%03d" % position for position in range(20)]
        for payload in payloads:
            heap.insert(payload)
        assert [body for _rid, body in heap.scan()] == payloads

    def test_insert_near_collocates(self, heap):
        anchor = heap.insert(b"anchor")
        for _ in range(3):
            heap.insert(b"x" * 120)  # push tail to later pages
        near = heap.insert(b"friend", near=anchor)
        assert near.page_id == anchor.page_id

    def test_foreign_rid_rejected(self, heap):
        with pytest.raises(StorageError):
            heap.read(RID(999, 0))

    def test_insert_near_foreign_rid_uses_own_pages(self, heap):
        rid = heap.insert(b"stray", near=RID(999, 0))
        assert rid.page_id in heap.page_ids
        assert heap.read(rid) == b"stray"

    def test_foreign_rid_rejected_after_reopen_and_recovery(self, tmp_path):
        path = str(tmp_path / "owned.db")
        db = Database(path)
        for name in ("A", "B"):
            db.define_class(name, attributes=[AttributeDef("s", "String")])
        with db.transaction():
            for _ in range(40):
                db.new("A", {"s": "a" * 200})
                db.new("B", {"s": "b" * 200})
        db.close()

        def assert_owned(db):
            heap_a = db.storage.heap_for("A")
            heap_b = db.storage.heap_for("B")
            for oid in db.storage.oids_of_class("B"):
                foreign = db.storage.directory.lookup(oid).rid
                assert heap_b.read(foreign)
                with pytest.raises(StorageError):
                    heap_a.read(foreign)
                with pytest.raises(StorageError):
                    heap_a.update(foreign, b"x")
                with pytest.raises(StorageError):
                    heap_a.delete(foreign)

        reopened = Database(path)
        assert_owned(reopened)
        # Commit more rows (new pages) after the checkpoint, then crash:
        # recovery replays them into heaps rebuilt from the catalog.
        with reopened.transaction():
            for _ in range(40):
                reopened.new("B", {"s": "c" * 200})
        reopened.storage.buffer.flush_all()
        reopened.storage.save_metadata()
        reopened.storage.pager.close()
        reopened.wal.close()
        recovered = Database(path)
        try:
            assert len(recovered.storage.oids_of_class("B")) == 80
            assert_owned(recovered)
        finally:
            recovered.close()


class TestSerializer:
    def test_roundtrip_all_types(self):
        state = ObjectState(
            OID(42, "Vehicle"),
            "Vehicle",
            {
                "i": 12345,
                "neg": -99,
                "big": 2 ** 60,
                "f": 3.25,
                "s": "détroit",
                "b": b"\x00\xff",
                "t": True,
                "fa": False,
                "n": None,
                "ref": OID(7),
                "xs": [1, "two", OID(3), [4, 5]],
            },
        )
        decoded = decode_object(encode_object(state))
        assert decoded.oid == state.oid
        assert decoded.class_name == "Vehicle"
        assert decoded.values == state.values

    def test_empty_values(self):
        state = ObjectState(OID(1), "A", {})
        assert decode_object(encode_object(state)).values == {}

    def test_corrupt_record_raises(self):
        with pytest.raises(StorageError):
            decode_object(b"\x00\x01garbage")

    def test_bool_not_confused_with_int(self):
        state = ObjectState(OID(1), "A", {"x": True, "y": 1})
        decoded = decode_object(encode_object(state))
        assert decoded.values["x"] is True
        assert decoded.values["y"] == 1 and decoded.values["y"] is not True

    def test_unstorable_value_rejected(self):
        state = ObjectState(OID(1), "A", {"x": object()})
        with pytest.raises(StorageError):
            encode_object(state)


class TestStorageManager:
    def test_store_load(self):
        storage = StorageManager()
        state = ObjectState(OID(1), "A", {"x": 1})
        storage.store_new(state)
        assert storage.load(OID(1)).values == {"x": 1}

    def test_duplicate_store_rejected(self):
        storage = StorageManager()
        storage.store_new(ObjectState(OID(1), "A", {}))
        with pytest.raises(StorageError):
            storage.store_new(ObjectState(OID(1), "A", {}))

    def test_overwrite(self):
        storage = StorageManager()
        storage.store_new(ObjectState(OID(1), "A", {"x": 1}))
        storage.overwrite(ObjectState(OID(1), "A", {"x": 2}))
        assert storage.load(OID(1)).values["x"] == 2

    def test_remove_returns_final_state(self):
        storage = StorageManager()
        storage.store_new(ObjectState(OID(1), "A", {"x": 1}))
        removed = storage.remove(OID(1))
        assert removed.values == {"x": 1}
        assert not storage.contains(OID(1))
        with pytest.raises(ObjectNotFoundError):
            storage.load(OID(1))

    def test_scan_class_only_direct_instances(self):
        storage = StorageManager()
        storage.store_new(ObjectState(OID(1), "A", {}))
        storage.store_new(ObjectState(OID(2), "B", {}))
        assert [s.oid for s in storage.scan_class("A")] == [OID(1)]

    def test_class_migration_on_overwrite(self):
        storage = StorageManager()
        storage.store_new(ObjectState(OID(1), "A", {"x": 1}))
        storage.overwrite(ObjectState(OID(1), "B", {"x": 1}))
        assert storage.class_of(OID(1)) == "B"
        assert storage.oids_of_class("A") == []
        assert storage.oids_of_class("B") == [OID(1)]

    def test_durable_roundtrip(self, tmp_path):
        path = str(tmp_path / "store.db")
        storage = StorageManager(path)
        for value in range(50):
            storage.store_new(ObjectState(OID(value + 1), "A", {"x": value}))
        storage.close()
        reopened = StorageManager(path)
        assert len(reopened.directory) == 50
        assert reopened.load(OID(50)).values["x"] == 49
        assert reopened.directory.max_oid_value() == 50
        reopened.close()

    def test_count_class_reads_the_directory_without_sorting(self, monkeypatch):
        storage = StorageManager()
        for value in range(30):
            storage.store_new(ObjectState(OID(value + 1), "A" if value % 3 else "B", {}))

        def materialize(_class_name):
            raise AssertionError("count_class materialized an extent")

        monkeypatch.setattr(storage.directory, "oids_of_class", materialize)
        assert storage.count_class("A") == 20
        assert storage.count_class("B") == 10
        assert storage.count_class("Missing") == 0

    def test_planning_and_cache_hits_never_materialize_an_extent(self, monkeypatch):
        db = Database()
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        for n in range(300):
            db.new("Item", {"n": n})
        db.create_class_index("Item", "n")
        db.analyze()

        def materialize(_class_name):
            raise AssertionError("a point query materialized an extent")

        monkeypatch.setattr(db.storage.directory, "oids_of_class", materialize)
        planned = db.execute("Item where n = 7")
        assert not planned.plan.cached
        hit = db.execute("Item where n = 7")
        assert hit.plan.cached
        assert planned.oids == hit.oids and len(hit.oids) == 1
        # A new constant is a new fingerprint: planned again, still O(1).
        assert len(db.execute("Item where n = 8").oids) == 1

    def test_grown_record_relocation_tracked(self):
        storage = StorageManager(page_size=256)
        storage.store_new(ObjectState(OID(1), "A", {"s": "x"}))
        storage.store_new(ObjectState(OID(2), "A", {"s": "y" * 60}))
        storage.overwrite(ObjectState(OID(1), "A", {"s": "z" * 150}))
        assert storage.load(OID(1)).values["s"] == "z" * 150
