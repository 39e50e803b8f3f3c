"""In-memory layer spans, recorded from the benchmark's own code.

The traced run wraps the public entry points of each layer (module
functions and class methods, resolved at call time by the program) so
every call records a span: name, start, end, parent span and request
id.  Nothing inside ``src/`` changes; uninstalling restores the
originals.  Spans stay in memory and are written once, when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: spans that contain layer calls but are not a layer themselves; they
#: do not count toward trace coverage
CONTAINERS = frozenset({"request", "tools.session.run"})

#: (module, attribute path, span name) of every wrapped public call
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.lang.batch", "BatchExecutor.run", "lang.BatchExecutor.run"),
    ("repro.core.shard", "record_trace", "core.shard.record_trace"),
    ("repro.core.shard", "split_trace", "core.shard.split_trace"),
    ("repro.core.shard", "run_shards", "core.shard.run_shards"),
    ("repro.core.shard", "merge_shard_results", "core.shard.merge"),
    ("repro.core.tracestore", "record_spilled",
     "core.tracestore.record_spilled"),
    ("repro.core.tracestore", "split_stored_trace",
     "core.tracestore.split_stored_trace"),
    ("repro.core.analyzer", "ReuseAnalyzer.load_state",
     "core.analyzer.load_state"),
    ("repro.static.profile", "static_profile", "static.profile.static_profile"),
    ("repro.static.profile", "enumerate_program",
     "static.itermodel.enumerate_program"),
    ("repro.static.closedform", "derive", "static.closedform.derive"),
    ("repro.static.closedform", "Derivation.evaluate",
     "static.closedform.evaluate"),
    ("repro.tools.cache", "AnalysisCache.key_for", "tools.cache.key_for"),
    ("repro.tools.cache", "AnalysisCache.get", "tools.cache.get"),
    ("repro.tools.cache", "AnalysisCache.put", "tools.cache.put"),
    ("repro.service.client", "ServiceClient.submit", "service.submit"),
    ("repro.service.client", "ServiceClient.status", "service.status"),
    ("repro.service.client", "ServiceClient.fetch_artifact", "service.fetch"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 request: Optional[str]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, index: int) -> Dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request}


class Recorder:
    """Span recorder; disabled recorders cost one attribute test."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.request: Optional[str] = None
        self._saved: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        sp = Span(name, time.perf_counter(),
                  self._stack[-1] if self._stack else None, self.request)
        self.spans.append(sp)
        self._stack.append(index)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_CALLS`."""
        for module_name, attr, name in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            # None: inherited, so uninstalling deletes the wrapper
            own = owner.__dict__.get(leaf)
            self._saved.append((owner, leaf, own))
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))
        self.enabled = True

    def uninstall(self) -> None:
        for owner, leaf, own in reversed(self._saved):
            if own is None:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, own)
        self._saved.clear()
        self.enabled = False

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, sp in enumerate(self.spans):
                handle.write(json.dumps(sp.to_dict(i)) + "\n")


def request_view(spans: List[Span], request: str) -> Dict[str, float]:
    """Total and self seconds per span name within one request.

    Keys are ``name`` (total duration summed over calls) and
    ``name@self`` (duration minus the part covered by child spans).
    """
    idx = [i for i, sp in enumerate(spans) if sp.request == request]
    child_time: Dict[int, float] = {}
    for i in idx:
        parent = spans[i].parent
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + spans[i].duration
    out: Dict[str, float] = {}
    for i in idx:
        sp = spans[i]
        out[sp.name] = out.get(sp.name, 0.0) + sp.duration
        self_s = sp.duration - child_time.get(i, 0.0)
        out[sp.name + "@self"] = out.get(sp.name + "@self", 0.0) + self_s
    return out


def covered(spans: List[Span], request: str, start: float, end: float
            ) -> float:
    """Seconds of ``[start, end]`` covered by the request's layer spans
    (container spans excluded; overlaps counted once)."""
    intervals = sorted((max(sp.start, start), min(sp.end, end))
                       for sp in spans
                       if sp.request == request and sp.name not in CONTAINERS)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
