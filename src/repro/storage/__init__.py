"""Secondary-storage substrate.

The paper's Section-4 algorithms are designed to be "efficiently
realizable in secondary storage": the BFS keeps a sliding window of
intervals in memory, and the DFS stores per-node annotations on disk.
This package provides the storage primitives those implementations
use:

* :class:`~repro.storage.iostats.IOStats` — read/write/seek counters so
  benchmarks can report I/O effort independently of wall-clock time.
* :class:`~repro.storage.diskdict.DiskDict` — a disk-backed record
  store mapping keys to serialized values (used for per-node heaps and
  ``maxweight``/``bestpaths`` annotations), written by default with
  the compact varint codec of :mod:`repro.storage.codec`.
* :class:`~repro.storage.backends.StateStore` — the pluggable backend
  protocol the search engines store node annotations through, with
  :class:`~repro.storage.backends.MemoryStore` and the
  hash-partitioned :class:`~repro.storage.backends.ShardedStore`
  implementations (``DiskDict`` conforms as-is).
* :mod:`~repro.storage.recordlog` — framed, crc32-checksummed record
  logs: the durable file format the persistent cluster index
  (:mod:`repro.index`) is built from.
* :class:`~repro.storage.lru.LRUCache` — the bounded, thread-safe
  read cache shared by ``DiskDict``, the index reader, and the query
  refiner.
* :class:`~repro.storage.rwlock.RWLock` — the writer-preferring
  read-write lock the serving tier queries through while a live
  index refresh swaps segments.
"""

from repro.storage.backends import (
    BACKEND_SPECS,
    MemoryStore,
    ShardedStore,
    StateStore,
    open_store,
)
from repro.storage.codec import (
    decode_record,
    encode_compact,
    encode_pickle,
)
from repro.storage.diskdict import DiskDict
from repro.storage.iostats import IOStats
from repro.storage.lru import LRUCache
from repro.storage.recordlog import (
    RecordLogCorruptError,
    append_record,
    frame_record,
    iter_records,
    read_records,
)
from repro.storage.rwlock import RWLock

__all__ = [
    "BACKEND_SPECS",
    "DiskDict",
    "IOStats",
    "LRUCache",
    "RWLock",
    "RecordLogCorruptError",
    "append_record",
    "decode_record",
    "encode_compact",
    "encode_pickle",
    "frame_record",
    "iter_records",
    "read_records",
    "MemoryStore",
    "ShardedStore",
    "StateStore",
    "open_store",
]
