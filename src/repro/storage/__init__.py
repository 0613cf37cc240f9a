"""Physical storage structures (Section 4 of the paper).

The paper keeps tree structure as one pre-order linearisation, stored
apart from the content (Section 4.2: "schema information ... and data
information ... are stored separately").  A database version holds that
linearisation once, as the ``level``/``tags``/``kinds`` label columns of
:class:`IntervalDocument` (with ``end``/``parent`` and the leaf values),
next to a separate :class:`ContentStore` that the value indexes key on.

The **succinct storage scheme** — a balanced-parentheses sequence with a
parallel tag array, over the same content store — is the paper's storage
*format*: :class:`SuccinctDocument` encodes a version's columns on demand
for checkpoints and experiment E1, the NoK scan is charged its structure
segment's size, and experiment E7 splices it directly.  The
access-method substrate lives here too: a B+ tree and a counting page
manager that stands in for disk I/O.

Modules
-------

``bitvector``        rank/select bitvector (the succinct primitive)
``balanced_parens``  navigation over a BP sequence (findclose, enclose, ...)
``succinct``         :class:`SuccinctDocument` — BP + tags + content, the
                     storage format, built on demand
``content``          the separated content store (leaf values + owners)
``tagindex``         tag -> pre-order postings (input lists for joins)
``interval``         pre/post/level label columns — each version's structure
``columns``          the columnar view over those columns
``btree``            a from-scratch B+ tree
``pages``            page manager + LRU buffer pool with I/O counters
``stats``            document statistics feeding the cost model
"""

from repro.storage.balanced_parens import BalancedParens
from repro.storage.bitvector import BitVector
from repro.storage.btree import BPlusTree
from repro.storage.content import ContentStore
from repro.storage.interval import IntervalDocument, IntervalNode
from repro.storage.pages import BufferPool, IOCounters, PageManager
from repro.storage.stats import DocumentStatistics
from repro.storage.succinct import SuccinctDocument
from repro.storage.tagindex import TagIndex

__all__ = [
    "BalancedParens",
    "BitVector",
    "BPlusTree",
    "BufferPool",
    "ContentStore",
    "DocumentStatistics",
    "IntervalDocument",
    "IntervalNode",
    "IOCounters",
    "PageManager",
    "SuccinctDocument",
    "TagIndex",
]
