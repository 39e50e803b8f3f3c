"""Run manifests: one JSON-serializable record per analysis run.

Every :meth:`repro.tools.session.AnalysisSession.run` produces a
:class:`RunManifest` capturing what ran (program fingerprint, parameters,
machine config, engine and executor selection), how it ran (cache hit or
miss, phase wall times), and what it processed (event totals, analysis
clock), plus the run's metric delta when observability is enabled.  The
CLI surfaces it as the ``--profile`` table, saves it with
``--manifest-out``, and pretty-prints saved files via ``repro stats``.

Manifests are observational only: they are assembled *after* the
analysis, never read by it, so enabling them cannot perturb a result.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Bump when the manifest layout changes.
MANIFEST_VERSION = 1


@dataclass
class RunManifest:
    """Plain-data record of one analysis/measurement run."""

    program: str
    fingerprint: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    config: str = ""
    #: the engine the run asked for
    engine: str = "numpy"
    #: the engine whose code resolved the distances: "numpy" for a
    #: batched fenwick or a sharded run, the rerun's engine after a
    #: fallback, None for a cache hit (and in manifests written before
    #: the field existed)
    engine_ran: Optional[str] = None
    #: time shards the analysis ran across (1 = sequential)
    shards: int = 1
    #: the executor the run asked for ("batch" or "scalar")
    executor: str = "batch"
    #: the walk that produced the accesses: "enumerated" (the static
    #: enumeration fed the numpy window), "batch" or "scalar"; None for
    #: a cache hit or a static run (and in manifests written before the
    #: field existed)
    executor_ran: Optional[str] = None
    miss_model: str = "sa"
    simulate: bool = False
    cache_attached: bool = False
    from_cache: bool = False
    #: accesses / loads / stores / ops / clock
    events: Dict[str, int] = field(default_factory=dict)
    #: phase name -> wall seconds, in execution order
    phases: Dict[str, float] = field(default_factory=dict)
    #: metrics delta for this run (see repro.obs.metrics.delta); empty
    #: while observability is disabled
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: {"from", "to", "error"} when the session degraded to a rerun on
    #: another path mid-run ("to" names its engine); None for a clean run
    fallback: Optional[Dict[str, str]] = None
    created: float = field(default_factory=time.time)
    version: int = MANIFEST_VERSION

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "created": self.created,
            "program": self.program,
            "fingerprint": self.fingerprint,
            "params": dict(self.params),
            "config": self.config,
            "engine": self.engine,
            "engine_ran": self.engine_ran,
            "shards": self.shards,
            "executor": self.executor,
            "executor_ran": self.executor_ran,
            "miss_model": self.miss_model,
            "simulate": self.simulate,
            "cache": {"attached": self.cache_attached,
                      "hit": self.from_cache},
            "events": dict(self.events),
            "phases": {k: round(v, 6) for k, v in self.phases.items()},
            "metrics": self.metrics,
            "fallback": dict(self.fallback) if self.fallback else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def save(self, path: str) -> str:
        # atomic (tmp + rename): manifests are artifacts other tools
        # (repro stats, the service artifact store) read by name
        from repro.tools.atomicio import atomic_write_text
        return atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        cache = data.get("cache", {})
        return cls(
            program=data.get("program", "?"),
            fingerprint=data.get("fingerprint", ""),
            params=dict(data.get("params", {})),
            config=data.get("config", ""),
            engine=data.get("engine", "?"),
            engine_ran=data.get("engine_ran"),
            shards=data.get("shards", 1),
            executor=data.get("executor", "?"),
            executor_ran=data.get("executor_ran"),
            miss_model=data.get("miss_model", "?"),
            simulate=data.get("simulate", False),
            cache_attached=cache.get("attached", False),
            from_cache=cache.get("hit", False),
            events=dict(data.get("events", {})),
            phases=dict(data.get("phases", {})),
            metrics=data.get("metrics", {}),
            fallback=data.get("fallback") or None,
            created=data.get("created", 0.0),
            version=data.get("version", MANIFEST_VERSION),
        )

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # -- presentation ----------------------------------------------------

    def render(self) -> str:
        """Human-readable profile: phases, events, counters, timers."""
        engine = self.engine
        if self.engine_ran is not None and self.engine_ran != engine:
            engine += f" (ran {self.engine_ran})"
        lines = [
            f"run manifest: {self.program}"
            + (f"  [{self.fingerprint[:12]}]" if self.fingerprint else ""),
            f"  engine {engine} / {self.executor} executor, "
            f"miss model {self.miss_model}"
            + (", simulator on" if self.simulate else ""),
        ]
        if self.executor_ran is not None:
            lines.append(f"  executor ran: {self.executor_ran}")
        if self.shards > 1:
            unresolved = self.metrics.get("counters", {}).get(
                "shard.boundary_unresolved")
            lines.append(f"  sharded: {self.shards} time shards"
                         + (f", {unresolved} boundary accesses resolved "
                            "at merge" if unresolved is not None else ""))
        if self.params:
            pairs = ", ".join(f"{k}={v}"
                              for k, v in sorted(self.params.items()))
            lines.append(f"  params: {pairs}")
        if self.cache_attached:
            lines.append("  cache: " + ("hit" if self.from_cache
                                        else "miss"))
        else:
            lines.append("  cache: not attached")
        if self.fallback:
            lines.append(f"  FALLBACK: {self.fallback.get('from', '?')} "
                         f"-> {self.fallback.get('to', '?')} "
                         f"({self.fallback.get('error', '?')})")
        if self.phases:
            lines.append("")
            lines.append(f"  {'phase':<22}{'wall':>12}")
            total = sum(self.phases.values())
            for name, secs in self.phases.items():
                lines.append(f"  {name:<22}{secs * 1e3:>10.2f}ms")
            lines.append(f"  {'total':<22}{total * 1e3:>10.2f}ms")
        if self.events:
            lines.append("")
            lines.append("  events: " + ", ".join(
                f"{k}={v}" for k, v in self.events.items()))
        counters = self.metrics.get("counters", {})
        if counters:
            lines.append("")
            lines.append(f"  {'counter':<34}{'value':>14}")
            for name in sorted(counters):
                lines.append(f"  {name:<34}{counters[name]:>14}")
        timers = self.metrics.get("timers", {})
        if timers:
            lines.append("")
            lines.append(f"  {'timer':<26}{'n':>6}{'total':>12}"
                         f"{'mean':>12}")
            for name in sorted(timers):
                t = timers[name]
                mean = t["total_s"] / t["count"] if t["count"] else 0.0
                lines.append(
                    f"  {name:<26}{t['count']:>6}"
                    f"{t['total_s'] * 1e3:>10.2f}ms"
                    f"{mean * 1e3:>10.2f}ms")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"RunManifest({self.program!r}, "
                f"executor={self.executor!r}, "
                f"from_cache={self.from_cache})")
