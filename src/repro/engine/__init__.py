"""The query engine: databases, planning, execution, EXPLAIN.

:class:`~repro.engine.database.Database` is the public facade: load
documents (text, files, or trees), pick an execution strategy, run XPath
and XQuery, inspect EXPLAIN output and per-query metrics.
"""

from repro.engine.cache import PlanCache, PreparedQuery, ResultCache
from repro.engine.database import Database, QueryResult

__all__ = ["Database", "PlanCache", "PreparedQuery", "QueryResult",
           "ResultCache"]
