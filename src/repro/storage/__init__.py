"""Physical storage structures (Section 4 of the paper).

The centrepiece is the **succinct storage scheme**: tree structure is
linearised in pre-order as a balanced-parentheses sequence with a parallel
tag array, and element contents are stored *separately* in a content store
(Section 4.2: "schema information ... and data information ... are stored
separately").  The interval (pre-post-level) encoding of the
extended-relational world lives here too, as does the access-method
substrate it shares: a B+ tree and a counting page manager that stands
in for disk I/O.  The shredded node table of the extended-relational
path is a baseline (:mod:`repro.baselines.relational`).

Modules
-------

``bitvector``        rank/select bitvector (the succinct primitive)
``balanced_parens``  navigation over a BP sequence (findclose, enclose, ...)
``succinct``         :class:`SuccinctDocument` — BP + tags + content
``content``          the separated content store with a value index
``tagindex``         tag -> pre-order postings (input lists for joins)
``interval``         pre/post/level interval encoding (relational baseline)
``btree``            a from-scratch B+ tree
``pages``            page manager + LRU buffer pool with I/O counters
``stats``            document statistics feeding the cost model
"""

from repro.storage.balanced_parens import BalancedParens
from repro.storage.bitvector import BitVector, BitVectorBuilder
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
    "BitVectorBuilder",
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
