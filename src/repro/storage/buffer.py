"""Buffer manager.

An LRU cache of parsed :class:`~repro.storage.page.SlottedPage` objects in
front of a pager.  The paper (Section 4.2) frames OODB performance partly
in terms of how often object access has to cross into the storage layer;
the buffer pool's ``faults`` counter is the deterministic I/O metric used
by the clustering and traversal experiments (E4, E6).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Iterator, Optional, Set

from ..errors import PageCorruptError, StorageError
from ..obs.metrics import MetricsRegistry
from ..obs.waits import WaitProfiler
from .page import SlottedPage


class BufferPool:
    """LRU buffer pool over a pager."""

    def __init__(
        self,
        pager,
        capacity: int = 256,
        registry: Optional[MetricsRegistry] = None,
        waits: Optional[WaitProfiler] = None,
    ) -> None:
        if capacity < 1:
            raise StorageError("buffer capacity must be >= 1")
        self.pager = pager
        self.capacity = capacity
        self._frames: "OrderedDict[int, SlottedPage]" = OrderedDict()
        self._dirty: Set[int] = set()
        #: Hit/fault counters live in ``buffer.*``; a pool built without
        #: a registry gets a private one, so standalone pools (tests)
        #: stay isolated while a database's pool shares its registry.
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._m_hits = self.metrics.counter("buffer.hits")
        self._m_faults = self.metrics.counter("buffer.faults")
        self._m_evictions = self.metrics.counter("buffer.evictions")
        self._m_flushes = self.metrics.counter("buffer.flushes")
        #: Checksum failures detected on page reads — the engine-side
        #: detection counter of the ``fault.*`` family.
        self._m_corruptions = self.metrics.counter("fault.page_corruptions")
        # Derived, so one snapshot answers "how warm is the pool?"
        # without the hot path paying for a division per access.
        self.metrics.derived("buffer.hit_rate", self._hit_rate)
        self._waits = waits
        # Torn-page protection hooks (attached by the Database once the
        # WAL exists): log a full page image before the page write, and
        # make logged images durable.  Both None when no WAL is wired.
        self._image_log = None
        self._image_sync = None

    def _hit_rate(self) -> float:
        hits = self._m_hits.value
        total = hits + self._m_faults.value
        return hits / total if total else 0.0

    @property
    def page_size(self) -> int:
        return self.pager.page_size

    def new_page(self) -> int:
        """Allocate a fresh page and cache it empty (and dirty)."""
        page_id = self.pager.allocate()
        self._admit(page_id, SlottedPage.empty(self.page_size))
        self._dirty.add(page_id)
        return page_id

    def attach_page_image_log(self, log, sync) -> None:
        """Arm torn-page protection: ``log(page_id, data)`` records a
        full page image, ``sync()`` makes recorded images durable.
        Every dirty write-back then logs its image *before* the page
        write, so a write torn by a crash is repairable from the log."""
        self._image_log = log
        self._image_sync = sync

    def get_page(self, page_id: int) -> SlottedPage:
        frame = self._frames.get(page_id)
        if frame is not None:
            self._frames.move_to_end(page_id)
            self._m_hits.inc()
            return frame
        self._m_faults.inc()
        try:
            if self._waits is None:
                frame = SlottedPage.from_bytes(
                    self.pager.read_page(page_id), page_id=page_id
                )
            else:
                started = time.perf_counter()
                frame = SlottedPage.from_bytes(
                    self.pager.read_page(page_id), page_id=page_id
                )
                self._waits.record(
                    "BufferRead",
                    time.perf_counter() - started,
                    target="page:%d" % page_id,
                )
        except PageCorruptError:
            self._m_corruptions.inc()
            raise
        self._admit(page_id, frame)
        return frame

    def mark_dirty(self, page_id: int) -> None:
        if page_id not in self._frames:
            raise StorageError("page %d is not resident" % page_id)
        self._dirty.add(page_id)

    def _admit(self, page_id: int, frame: SlottedPage) -> None:
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[page_id] = frame
        self._frames.move_to_end(page_id)

    def _write_back(
        self, page_id: int, frame: SlottedPage, image_logged: bool = False
    ) -> None:
        """Write a dirty frame through to the pager (timed as a wait).

        With torn-page protection armed, the page's full image is logged
        and made durable *before* the in-place write — write-ahead at
        the physical level, so recovery can always re-image a page whose
        write tore.  ``image_logged`` skips that when the caller already
        batch-logged (``flush_all``).
        """
        data = frame.to_bytes()
        if self._image_log is not None and not image_logged:
            self._image_log(page_id, data)
            self._image_sync()
        if self._waits is None:
            self.pager.write_page(page_id, data)
        else:
            started = time.perf_counter()
            self.pager.write_page(page_id, data)
            self._waits.record(
                "BufferWrite",
                time.perf_counter() - started,
                target="page:%d" % page_id,
            )

    def _evict_one(self) -> None:
        victim_id, victim = self._frames.popitem(last=False)
        if victim_id in self._dirty:
            self._write_back(victim_id, victim)
            self._dirty.discard(victim_id)
            self._m_flushes.inc()
        self._m_evictions.inc()

    def flush_page(self, page_id: int, image_logged: bool = False) -> None:
        frame = self._frames.get(page_id)
        if frame is not None and page_id in self._dirty:
            self._write_back(page_id, frame, image_logged=image_logged)
            self._dirty.discard(page_id)
            self._m_flushes.inc()

    def flush_all(self) -> None:
        dirty = sorted(self._dirty)
        batch_logged = False
        if self._image_log is not None and dirty:
            # One durability point for the whole batch of images instead
            # of an fsync per page.
            for page_id in dirty:
                frame = self._frames.get(page_id)
                if frame is not None:
                    self._image_log(page_id, frame.to_bytes())
            self._image_sync()
            batch_logged = True
        for page_id in dirty:
            self.flush_page(page_id, image_logged=batch_logged)
        self.pager.sync()

    def invalidate(self, page_id: int) -> None:
        """Drop a frame without writing it back (recovery re-imaged the
        page on disk underneath us; the cached parse is stale)."""
        self._frames.pop(page_id, None)
        self._dirty.discard(page_id)

    def drop_all(self) -> None:
        """Empty the pool *after* flushing — used to simulate a cold cache."""
        self.flush_all()
        self._frames.clear()
        self._dirty.clear()

    def resident_pages(self) -> Iterator[int]:
        return iter(list(self._frames))

    def __len__(self) -> int:
        return len(self._frames)

    def __repr__(self) -> str:
        return "<BufferPool %d/%d pages, %d dirty>" % (
            len(self._frames),
            self.capacity,
            len(self._dirty),
        )
