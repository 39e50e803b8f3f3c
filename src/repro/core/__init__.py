"""Core reuse-distance analysis: the paper's primary contribution.

Per-access, per-granularity online analysis that attributes every reuse to
a ``(destination reference, source scope, carrying scope)`` pattern and
histograms its reuse distances.
"""

from repro.core.analyzer import GranularityState, ReuseAnalyzer
from repro.core.blocktable import FlatBlockTable, HierarchicalBlockTable
from repro.core.context import (
    CallingContextTree, ContextReuseAnalyzer, for_program,
)
from repro.core.fenwick import FenwickEngine
from repro.core.histogram import (
    EXACT_LIMIT, SUBBINS, Histogram, bin_mid, bin_of, bin_range, from_raw,
)
from repro.core.patterns import COLD, PatternDB, PatternKey, ReusePattern
from repro.core.scopestack import ScopeStack
from repro.core.shard import (
    ShardResult, analyze_sharded, analyze_trace_sharded,
    merge_shard_results, record_trace, split_trace,
)
from repro.core.tracestore import (
    StoredShardSlice, StoredTrace, TraceStore, TraceStoreWriter,
    load_trace, record_spilled,
)
from repro.core.treap import TreapEngine

__all__ = [
    "COLD", "CallingContextTree", "ContextReuseAnalyzer", "EXACT_LIMIT",
    "FenwickEngine", "FlatBlockTable", "GranularityState",
    "HierarchicalBlockTable", "Histogram", "PatternDB", "PatternKey",
    "ReuseAnalyzer", "ReusePattern", "SUBBINS",
    "ScopeStack", "ShardResult", "StoredShardSlice",
    "StoredTrace", "TraceStore", "TraceStoreWriter", "TreapEngine",
    "analyze_sharded", "analyze_trace_sharded", "bin_mid", "bin_of",
    "bin_range", "for_program", "from_raw", "load_trace",
    "merge_shard_results", "record_spilled", "record_trace", "split_trace",
]
