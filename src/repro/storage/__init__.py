"""Storage substrate: pages, buffer pool, heaps, object directory."""

from .buffer import BufferPool
from .clustering import (
    AttributeClustering,
    ClusteringPolicy,
    CompositeClustering,
    NoClustering,
)
from .directory import DirectoryEntry, ObjectDirectory
from .heap import RID, HeapFile
from .manager import StorageManager, load_state_if_exists
from .page import SlottedPage
from .pager import DEFAULT_PAGE_SIZE, FilePager, MemoryPager, open_pager
from .serializer import decode_object, encode_object

__all__ = [
    "BufferPool",
    "ClusteringPolicy",
    "NoClustering",
    "CompositeClustering",
    "AttributeClustering",
    "DirectoryEntry",
    "ObjectDirectory",
    "RID",
    "HeapFile",
    "StorageManager",
    "load_state_if_exists",
    "SlottedPage",
    "DEFAULT_PAGE_SIZE",
    "FilePager",
    "MemoryPager",
    "open_pager",
    "decode_object",
    "encode_object",
]
