"""Physical operators (Section 4 of the paper).

The star is the **NoK (next-of-kin) pattern matcher**
(:mod:`repro.physical.nok`): a single-scan navigational evaluator for
patterns built from local structural relationships, running as one scan
of the stored pre-order structure (charged as a read of the succinct
structure segment) — no structural joins.  General patterns are split by the
**partitioner** (:mod:`repro.physical.partition`) into interconnected NoK
units whose partial results are combined with structural joins, "just as
in the join-based approach" (Section 4.2).

Together with the cost-chosen **columnar** path
(:mod:`repro.physical.columnar`, batch semi-joins over label columns) and
the content-index **index-scan** (:mod:`repro.physical.indexscan`, which
verifies its probe hits on the columnar kernels), these are the serving
strategies: the only ones :mod:`repro.physical.planner` prices and picks
for ``auto``.  The join-based and navigational baselines the paper
compares against live in :mod:`repro.baselines`; the planner dispatches
to them by name only.  Every strategy is differential-tested against the
reference evaluator.
"""

from repro.physical.base import MatchRuntime, OperatorStats
from repro.physical.nok import NoKMatcher
from repro.physical.partition import PartitionedMatcher, partition_pattern
from repro.physical.planner import PhysicalPlanner

__all__ = [
    "MatchRuntime",
    "NoKMatcher",
    "OperatorStats",
    "PartitionedMatcher",
    "PhysicalPlanner",
    "partition_pattern",
]
