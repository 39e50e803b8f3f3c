"""Lightweight metrics registry: counters, gauges, timers, histograms.

The instrumented hot paths (analyzer chunks, executor loops, cache
lookups, sweep tasks) bind their metric objects **once, at construction
time**, via the module-level helpers :func:`counter`, :func:`gauge`,
:func:`timer`, and :func:`histogram`.  While observability is disabled
(the default) those helpers hand out shared null objects whose mutators
are no-ops, so the per-chunk cost of instrumentation is a single bound
no-op call — unmeasurable next to the tens of thousands of accesses each
chunk carries.  :func:`set_enabled` flips the whole subsystem on; objects
constructed afterwards record into the active :class:`MetricsRegistry`.

Registries serialize to plain dicts (:meth:`MetricsRegistry.snapshot`)
and re-aggregate with :meth:`MetricsRegistry.merge`, which is how sweep
worker processes ship their per-task metrics back to the parent, and
:func:`delta` subtracts two snapshots so one run's metrics can be
attributed even when several sessions share a process.

Design rule: metrics observe, never steer.  No analysis result may read a
metric; pattern databases and reports are byte-identical with the
subsystem on or off (enforced by tests/integration/test_obs_equivalence).

Namespaces: counters are dot-qualified by subsystem — ``analyzer.*``,
``batch.*``, ``sim.*``, ``cache.*``, ``sweep.*``, ``shard.*``, and
``trace.*`` (the spillable trace store: ``trace.spill_bytes`` written by
the recorder, ``trace.mmap_opens`` per column a reader maps,
``trace.read_mb`` materialised off the maps).  The
``resil.*`` family (``resil.retries``, ``resil.timeouts``,
``resil.pool_rebuilds``, ``resil.fallbacks``,
``resil.checkpoint_restored`` per task read back from a sweep's record
directory, ``resil.deadline_unsupported``) plus ``cache.quarantined``
record fault-recovery events; they are counted *parent-side* by the sweep
scheduler / session (not in workers), so they survive retried-and-
discarded attempts and worker deaths, and sweep manifests surface them
in a dedicated resilience table (see docs/architecture.md, "Fault
tolerance").  The ``svc.*`` family belongs to the analysis service
(``repro.service``): request/lifecycle counters (``svc.requests``,
``svc.submitted``, ``svc.started``, ``svc.completed``, ``svc.failed``,
``svc.cancelled``, ``svc.rejected``, ``svc.resumed``), artifact-store
counters (``svc.artifacts_published``, ``svc.artifacts_deduped``,
``svc.artifacts_served``), the ``svc.queue_depth``/``svc.running``
gauges, and the ``svc.job_latency`` timer.  Server-side events are
counted in the server process; each job worker ships its own snapshot
back through ``result.json`` and the scheduler merges it parent-side
(workers reset their fork-inherited registry first, so nothing is
double-counted).  ``GET /v1/metrics`` serves the live snapshot.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """Last-written instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Timer:
    """Accumulated wall-time observations (count/total/min/max)."""

    __slots__ = ("name", "count", "total_s", "min_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @contextmanager
    def time(self) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - t0)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return (f"Timer({self.name!r}, n={self.count}, "
                f"total={self.total_s:.6f}s)")


class Histogram:
    """Power-of-two-binned value distribution (distances, latencies).

    Bin ``b`` counts observations with ``floor(log2(v)) == b`` (``v < 1``
    lands in bin ``-1``, zero in bin ``None``-free bin ``-1`` as well), so
    the histogram stays tiny no matter the value range.
    """

    __slots__ = ("name", "bins")

    def __init__(self, name: str) -> None:
        self.name = name
        self.bins: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        b = int(value).bit_length() - 1 if value >= 1 else -1
        self.bins[b] = self.bins.get(b, 0) + 1

    @property
    def count(self) -> int:
        return sum(self.bins.values())

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullTimer:
    __slots__ = ()
    count = 0
    total_s = 0.0
    mean_s = 0.0

    def observe(self, seconds: float) -> None:
        pass

    @contextmanager
    def time(self) -> Iterator[None]:
        yield


class _NullHistogram:
    __slots__ = ()
    count = 0

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_TIMER = _NullTimer()
_NULL_HISTOGRAM = _NullHistogram()

_KINDS = {"counters": Counter, "gauges": Gauge, "timers": Timer,
          "histograms": Histogram}


class MetricsRegistry:
    """Named metric store; one per process (or per sweep task, scoped)."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Dict[str, Any]] = {
            kind: {} for kind in _KINDS
        }

    # -- get-or-create ---------------------------------------------------

    def _get(self, kind: str, name: str):
        table = self._metrics[kind]
        metric = table.get(name)
        if metric is None:
            for other, others in self._metrics.items():
                if other != kind and name in others:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{other[:-1]}")
            metric = _KINDS[kind](name)
            table[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get("counters", name)

    def gauge(self, name: str) -> Gauge:
        return self._get("gauges", name)

    def timer(self, name: str) -> Timer:
        return self._get("timers", name)

    def histogram(self, name: str) -> Histogram:
        return self._get("histograms", name)

    # -- serialization / aggregation -------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain, JSON-serializable dump of every metric."""
        return {
            "counters": {n: c.value
                         for n, c in self._metrics["counters"].items()},
            "gauges": {n: g.value
                       for n, g in self._metrics["gauges"].items()},
            "timers": {
                n: {"count": t.count, "total_s": t.total_s,
                    "min_s": t.min_s if t.count else 0.0, "max_s": t.max_s}
                for n, t in self._metrics["timers"].items()
            },
            "histograms": {
                n: {str(b): c for b, c in sorted(h.bins.items())}
                for n, h in self._metrics["histograms"].items()
            },
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a sweep worker) into this
        registry: counts add, timer min/max widen, gauges last-write."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, t in snapshot.get("timers", {}).items():
            timer = self.timer(name)
            if not t["count"]:
                continue
            timer.count += t["count"]
            timer.total_s += t["total_s"]
            timer.min_s = min(timer.min_s, t["min_s"])
            timer.max_s = max(timer.max_s, t["max_s"])
        for name, bins in snapshot.get("histograms", {}).items():
            hist = self.histogram(name)
            for b, c in bins.items():
                b = int(b)
                hist.bins[b] = hist.bins.get(b, 0) + c

    def reset(self) -> None:
        for table in self._metrics.values():
            table.clear()

    def __len__(self) -> int:
        return sum(len(table) for table in self._metrics.values())

    def __repr__(self) -> str:
        sizes = ", ".join(f"{k}={len(v)}" for k, v in self._metrics.items())
        return f"MetricsRegistry({sizes})"


def delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Per-run attribution: ``after - before`` for two snapshots.

    Counters and timer counts/totals subtract (metrics absent from
    ``before`` pass through); gauges and histograms report their ``after``
    state.  Metrics whose delta is zero are dropped, so a run's manifest
    lists only what that run actually touched.
    """
    out: Dict[str, Any] = {"counters": {}, "gauges": dict(
        after.get("gauges", {})), "timers": {}, "histograms": {}}
    before_c = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        d = value - before_c.get(name, 0)
        if d:
            out["counters"][name] = d
    before_t = before.get("timers", {})
    for name, t in after.get("timers", {}).items():
        prev = before_t.get(name, {"count": 0, "total_s": 0.0})
        if t["count"] - prev["count"]:
            out["timers"][name] = {
                "count": t["count"] - prev["count"],
                "total_s": t["total_s"] - prev["total_s"],
                "min_s": t["min_s"], "max_s": t["max_s"],
            }
    before_h = before.get("histograms", {})
    for name, bins in after.get("histograms", {}).items():
        prev = before_h.get(name, {})
        d_bins = {b: c - prev.get(b, 0) for b, c in bins.items()
                  if c - prev.get(b, 0)}
        if d_bins:
            out["histograms"][name] = d_bins
    return out


# ---------------------------------------------------------------------------
# Module-level switch + active registry
# ---------------------------------------------------------------------------

#: Flipped by set_enabled(); REPRO_OBS=1 pre-enables (lets spawn-based
#: sweep workers and subprocess tests inherit the setting).
_enabled = os.environ.get("REPRO_OBS", "") not in ("", "0")
_registry = MetricsRegistry()


def set_enabled(flag: bool) -> None:
    """Turn the observability subsystem on or off process-wide.

    Only affects metric objects bound *after* the call: instrumented
    components capture their counters at construction time.
    """
    global _enabled
    _enabled = bool(flag)


def is_enabled() -> bool:
    return _enabled


def registry() -> MetricsRegistry:
    """The active registry (even while disabled — for tests/merging)."""
    return _registry


def counter(name: str):
    return _registry.counter(name) if _enabled else _NULL_COUNTER


def gauge(name: str):
    return _registry.gauge(name) if _enabled else _NULL_GAUGE


def timer(name: str):
    return _registry.timer(name) if _enabled else _NULL_TIMER


def histogram(name: str):
    return _registry.histogram(name) if _enabled else _NULL_HISTOGRAM


def snapshot() -> Dict[str, Any]:
    return _registry.snapshot()


def reset() -> None:
    _registry.reset()


@contextmanager
def scoped(fresh: Optional[MetricsRegistry] = None
           ) -> Iterator[MetricsRegistry]:
    """Temporarily swap in a fresh active registry.

    Sweep workers run each task under a scoped registry so the task's
    metrics can be snapshotted into its outcome and merged by the parent;
    tests use it for isolation.  The previous registry is restored even on
    error.
    """
    global _registry
    prev = _registry
    _registry = fresh if fresh is not None else MetricsRegistry()
    try:
        yield _registry
    finally:
        _registry = prev
