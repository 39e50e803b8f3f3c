"""Core reuse-distance analysis: the paper's primary contribution.

Per-access, per-granularity online analysis that attributes every reuse to
a ``(destination reference, source scope, carrying scope)`` pattern and
histograms its reuse distances.
"""

from repro._lazy import lazy_exports

__all__ = [
    "COLD", "CallingContextTree", "ContextReuseAnalyzer", "EXACT_LIMIT",
    "FenwickEngine", "FlatBlockTable", "GranularityState",
    "HierarchicalBlockTable", "Histogram", "PatternDB", "PatternKey",
    "ReuseAnalyzer", "ReusePattern", "SUBBINS",
    "ScopeStack", "ShardResult", "StoredShardSlice",
    "StoredTrace", "TraceStore", "TraceStoreWriter", "TreapEngine",
    "bin_mid", "bin_of", "bin_range", "for_program", "from_raw",
    "load_trace", "merge_shard_results", "record_spilled", "record_trace",
    "split_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "analyzer": ("GranularityState", "ReuseAnalyzer"),
    "blocktable": ("FlatBlockTable", "HierarchicalBlockTable"),
    "context": ("CallingContextTree", "ContextReuseAnalyzer", "for_program"),
    "fenwick": ("FenwickEngine",),
    "histogram": ("EXACT_LIMIT", "SUBBINS", "Histogram", "bin_mid", "bin_of",
                  "bin_range", "from_raw"),
    "patterns": ("COLD", "PatternDB", "PatternKey", "ReusePattern"),
    "scopestack": ("ScopeStack",),
    "shard": ("ShardResult", "merge_shard_results", "record_trace",
              "split_trace"),
    "tracestore": ("StoredShardSlice", "StoredTrace", "TraceStore",
                   "TraceStoreWriter", "load_trace", "record_spilled"),
    "treap": ("TreapEngine",),
})
