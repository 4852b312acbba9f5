"""Simulated storage substrate: pages, files, indexes, Bloom filters.

This package is the "1986 storage system" the paper's cost model
implicitly assumes: a page-granular disk (``B``-byte blocks at ``c2``
ms per I/O), clustered B+-trees, clustered hash files and
Severance-Lohman Bloom-filtered differential files.  Every page read
and write is counted by a :class:`~repro.storage.pager.CostMeter` so
the running system can be priced with the same constants the analytic
formulas use.  A sequential scan is a scan of the clustered file (the
engine keeps no unordered heap).
"""

from .bloom import BloomFilter, optimal_bits, optimal_hashes
from .bplustree import BPlusTree, TreeStats
from .columnar import ColumnBatch, SelectionVector
from .hashindex import HashFile
from .pager import (
    BufferPool,
    CostMeter,
    Page,
    PageChecksumError,
    PageId,
    PageOverflowError,
    SimulatedDisk,
    page_checksum,
)
from .tuples import Record, Schema, SchemaError

__all__ = [
    "BloomFilter",
    "BPlusTree",
    "BufferPool",
    "ColumnBatch",
    "CostMeter",
    "HashFile",
    "Page",
    "PageChecksumError",
    "PageId",
    "PageOverflowError",
    "Record",
    "Schema",
    "SchemaError",
    "SelectionVector",
    "SimulatedDisk",
    "TreeStats",
    "optimal_bits",
    "optimal_hashes",
    "page_checksum",
]
