"""End-to-end summaries and the per-layer ledger of a traced round."""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Tuple

from spans import Span, covered, request_view


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile: a beta-weighted
    mean of every order statistic.  With a few dozen heterogeneous
    requests a single order statistic jumps between request kinds from
    run to run; this estimate moves smoothly."""
    from scipy.stats.mstats import hdquantiles
    return float(hdquantiles(values, prob=[p])[0])


def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has
    at least ten samples beyond it; the maximum below 11 samples."""
    n = len(values)
    if n < 11:
        return (max(values) if values else 0.0), 100.0, n
    p = (n - 10) / n
    return quantile(values, p), 100.0 * p, n


def end_to_end(results, wall_of) -> Dict[str, float]:
    """Request-level metrics of untraced rounds (all attempts count);
    ``wall_of(result)`` picks the raw or the scaled request time, whose
    sum is the timed region."""
    ok = [r for r in results if r.error is None]
    walls = [wall_of(r) for r in ok]
    timed_s = sum(walls)
    value, pct, n = tail(walls)
    static = [r.band_err for r in ok if r.band_err is not None]
    return {
        "request_p50_s": quantile(walls, 0.5) if walls else 0.0,
        "request_tail_s": value,
        "request_tail_pct": pct,
        "request_samples": n,
        "requests_per_s": len(ok) / timed_s if timed_s > 0 else 0.0,
        "kaccess_per_s": (sum(r.accesses for r in ok) / 1e3 / timed_s
                          if timed_s > 0 else 0.0),
        "error_rate": (len(results) - len(ok)) / max(len(results), 1),
        "fallback_rate": (sum(r.fallback for r in results)
                          / max(len(results), 1)),
        "static_band_err_max": max(static) if static else 0.0,
    }


def _med(views, names, results, when) -> float:
    """Median, over the requests selected by ``when`` in which the
    first of ``names`` ran, of the summed seconds of ``names`` (0 when
    no request qualifies)."""
    vals = [sum(views[r.rid].get(n, 0.0) for n in names)
            for r in results if names[0] in views[r.rid] and when(r)]
    return median(vals)


def per_layer(results, spans: List[Span], obs_delta: Dict[str, int],
              untraced_wall: float, derive_s: float, cache_bytes: int,
              svc_delta: Optional[Dict[str, int]]) -> Dict[str, float]:
    """The per-layer ledger of one traced round.

    Timings are per-request medians over the requests a layer serves;
    counts and byte totals are per-round totals.
    """
    ok = [r for r in results if r.error is None]
    views = {r.rid: request_view(spans, r.rid) for r in ok}
    path = lambda *p: (lambda r: r.req.path in p)  # noqa: E731
    miss = lambda *p: (lambda r: r.req.path in p  # noqa: E731
                       and not r.from_cache)
    dyn_miss = [r for r in ok if r.execute_s is not None]
    run = "tools.session.run"
    every = lambda r: True  # noqa: E731

    def minus_exec(*paths) -> float:
        return median(views[r.rid].get(run, 0.0) - r.execute_s
                      for r in dyn_miss if r.req.path in paths)

    cache_get = [r for r in ok if "tools.cache.get" in views[r.rid]]
    cf = [r for r in ok if "refs" in r.extra]
    wall = sum(r.wall for r in ok)
    cover = sum(covered(spans, r.rid, *_window(spans, r.rid)) for r in ok)
    jobs = len(results)
    m = {
        "lang.execute_s": median(r.execute_s for r in dyn_miss),
        "lang.kaccess_per_s": median(r.accesses / r.execute_s / 1e3
                                     for r in dyn_miss if r.execute_s > 0),
        "core.analyzer.fenwick_s": minus_exec("fenwick"),
        "core.npengine.analyze_s": minus_exec("numpy"),
        "core.npengine.final_flush_s": _med(
            views, ["core.npengine.final_flush"], ok, miss("numpy")),
        "core.shard.record_s": _med(views, ["core.shard.record_trace"], ok,
                                    path("numpy-shards2")),
        "core.shard.split_s": _med(views, ["core.shard.split_trace"], ok,
                                   path("numpy-shards2")),
        "core.shard.analyze_s": _med(
            views, ["core.shard.run_shards"], ok,
            path("numpy-shards2", "numpy-shards2-spill")),
        "core.shard.merge_s": _med(
            views, ["core.shard.merge"], ok,
            path("numpy-shards2", "numpy-shards2-spill")),
        "core.shard.boundaries": obs_delta.get("shard.boundary_unresolved", 0),
        "core.tracestore.record_s": _med(
            views, ["core.tracestore.record_spilled"], ok,
            path("numpy-shards2-spill")),
        "core.tracestore.split_s": _med(
            views, ["core.tracestore.split_stored_trace"], ok,
            path("numpy-shards2-spill")),
        "core.tracestore.spill_bytes": obs_delta.get("trace.spill_bytes", 0),
        "static.itermodel.enumerate_s": _med(
            views, ["static.itermodel.enumerate_program"], ok, every),
        "static.profile.estimate_s": _med(
            views, ["static.profile.static_profile@self"], ok,
            miss("static")),
        "static.closedform.derive_s": derive_s,
        "static.closedform.evaluate_s": _med(
            views, ["static.closedform.evaluate"], ok, path("closed-form")),
        "static.closedform.fallback_refs": sum(
            r.extra["fallback_refs"] for r in cf),
        "static.closedform.pure_ratio": (
            sum(r.extra["pure_refs"] for r in cf)
            / max(sum(r.extra["refs"] for r in cf), 1)),
        "model.predictor.predict_s": _med(
            views, ["model.predictor.predict"], ok, every),
        "tools.report.render_s": _med(views, ["tools.report.render"], ok,
                                      every),
        "tools.xmlout.export_s": _med(views, ["tools.xmlout.export"], ok,
                                      every),
        "tools.xmlout.bytes": sum(r.extra.get("xml_bytes", 0) for r in ok),
        "tools.cache.key_s": _med(views, ["tools.cache.key_for"], ok, every),
        "tools.cache.get_s": _med(views, ["tools.cache.get"], ok, every),
        "tools.cache.put_s": _med(views, ["tools.cache.put"], ok, every),
        "tools.cache.hit_ratio": (sum(r.from_cache for r in cache_get)
                                  / max(len(cache_get), 1)),
        "tools.cache.entry_bytes": cache_bytes,
        "core.analyzer.load_state_s": _med(
            views, ["core.analyzer.load_state"], ok, lambda r: r.from_cache),
        "apps.registry.build_s": _med(
            views, ["apps.registry.build_workload"], ok, every),
        "service.submit_s": _med(views, ["service.submit"], ok,
                                 every),
        "service.fetch_s": _med(views, ["service.fetch"], ok, every),
        "service.polls": sum(1 for sp in spans if sp.name == "service.status"
                             and sp.request is not None),
        "service.queue_wait_s": median(r.extra["queue_wait_s"] for r in ok
                                       if "queue_wait_s" in r.extra),
        "service.run_s": median(r.extra["run_s"] for r in ok
                                if "run_s" in r.extra),
        "service.dedup_ratio": 0.0,
        "service.refused": sum(1 for r in results if r.extra.get("refused")),
        "trace.overhead_share": (wall / untraced_wall - 1.0
                                 if untraced_wall > 0 else 0.0),
        "trace.unattributed_share": 1.0 - cover / wall if wall > 0 else 0.0,
    }
    if svc_delta is not None:
        m["service.dedup_ratio"] = (svc_delta.get("svc.artifacts_deduped", 0)
                                    / max(jobs, 1))
        m["service.refused"] = (svc_delta.get("svc.rejected", 0)
                                + svc_delta.get("svc.shed", 0))
    return m


def _window(spans: List[Span], rid: str) -> Tuple[float, float]:
    for sp in spans:
        if sp.request == rid and sp.name == "request":
            return sp.start, sp.end
    return 0.0, 0.0
