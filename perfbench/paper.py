"""In-process workloads: paper-cold, paper-static and cached-mix.

One request is the call sequence ``repro analyze`` makes
(``cli.cmd_analyze``), through the public API: build the workload, run
an ``AnalysisSession``, read ``.prediction``, render the five reports
the command prints, and export the XML database.  Only that sequence
is timed; checking, reference comparison and the traced run's
decomposition calls happen after the clock stops.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from decks import PAPER_KERNELS, Request
from spans import Recorder
from speed import calibrate, scale, scale_all

#: the report level ``repro analyze`` defaults to
LEVEL = "L2"


@dataclass
class Result:
    """Outcome of one request."""

    req: Request
    rid: str
    wall: float = 0.0
    #: ``wall`` at the reference host speed (``speed.scale_all``)
    scaled: float = 0.0
    accesses: int = 0
    error: Optional[str] = None
    from_cache: bool = False
    fallback: bool = False
    band_err: Optional[float] = None
    #: traced run only: BatchExecutor.run with no analysis handler
    execute_s: Optional[float] = None
    #: per-request extras (closed-form fallback refs, artifact timings)
    extra: Dict = field(default_factory=dict)


def derive_all() -> Tuple[Dict[str, object], float, float]:
    """Closed-form derivations of every paper kernel at its largest
    size — the paper-static set-up.  Returns them with the seconds they
    took, raw and at the reference speed."""
    from repro.static.closedform import derive
    derivations = {}
    raw = scaled = 0.0
    for kernel, free, sizes, fixed in PAPER_KERNELS:
        before = calibrate()
        t0 = time.perf_counter()
        derivations[kernel] = derive(kernel, dict(fixed, **{free: max(sizes)}))
        elapsed = time.perf_counter() - t0
        raw += elapsed
        scaled += scale(elapsed, [before, calibrate()])
    return derivations, raw, scaled


def session_kwargs(req: Request, derivations: Dict, cache,
                   trace_dir: Optional[str]) -> Dict:
    """``AnalysisSession`` arguments of one request path.

    Shards run in-process (``shard_jobs=1``): with a worker pool, the
    pool's teardown SIGTERMs idle workers whose handler raises
    ``SystemExit``, and about one sharded request in a few hundred
    then hangs for good in ``Pool.terminate``.  Fan-out buys nothing
    on the 1-2 CPU hosts this runs on, and a run must finish.
    """
    path = req.path
    if path == "fenwick":
        kw: Dict = {}
    elif path == "numpy":
        kw = {"engine": "numpy"}
    elif path == "numpy-shards2":
        kw = {"engine": "numpy", "shards": 2, "shard_jobs": 1}
    elif path == "numpy-shards2-spill":
        kw = {"engine": "numpy", "shards": 2, "shard_jobs": 1,
              "trace_store": trace_dir}
    elif path == "static":
        kw = {"engine": "static"}
    elif path == "closed-form":
        kw = {"engine": "static", "closed_form": True,
              "closed_form_spec": {"workload": req.kernel,
                                   "params": req.param_dict},
              "derivation": derivations[req.kernel]}
    else:
        raise ValueError(f"unknown path {path!r}")
    if cache is not None:
        kw["cache"] = cache
    return kw


class InProcessRunner:
    """Runs requests in this process and checks each one."""

    def __init__(self, checker, rec: Recorder, workdir: str,
                 derivations: Optional[Dict] = None) -> None:
        self.checker = checker
        self.rec = rec
        self.workdir = workdir
        self.derivations = derivations or {}
        self.cache_bytes = 0
        self._n = 0

    def run(self, req: Request, cache=None) -> Result:
        from repro.apps.registry import build_workload
        from repro.tools.session import AnalysisSession

        self._n += 1
        res = Result(req, rid=f"r{self._n}")
        rec = self.rec
        trace_dir = None
        if req.path.endswith("-spill"):
            trace_dir = os.path.join(self.workdir, f"traces-{res.rid}")
        try:
            kw = session_kwargs(req, self.derivations, cache, trace_dir)
            rec.request = res.rid
            fb0 = _fallback_count()
            t0 = time.perf_counter()
            with rec.span("request"):
                with rec.span("apps.registry.build_workload"):
                    program = build_workload(req.kernel, **req.param_dict)
                session = AnalysisSession(program, **kw)
                with rec.span("tools.session.run"):
                    session.run()
                if (rec.enabled and session.engine == "numpy"
                        and not session.from_cache):
                    # charge the numpy engine's deferred last flush to
                    # the engine, not to the first result read
                    with rec.span("core.npengine.final_flush"):
                        session.analyzer.db(session.analyzer.grans[0].name)
                with rec.span("model.predictor.predict"):
                    session.prediction
                with rec.span("tools.report.render"):
                    texts = [
                        session.render_carried(n=6),
                        session.render_table2(LEVEL, top_scopes=5),
                        session.render_fragmentation(LEVEL, n=6),
                        session.viewer.render_arrays(n=8),
                        session.render_recommendations(LEVEL, top_n=6),
                    ]
                with rec.span("tools.xmlout.export"):
                    xml = session.export_xml(None)
            res.wall = time.perf_counter() - t0
            rec.request = None
            self._check(res, session, texts, xml)
            if rec.enabled:
                res.extra["xml_bytes"] = len(xml.encode())
                if req.path == "closed-form":
                    self._closed_form_extras(res, session,
                                             _fallback_count() - fb0)
                if not req.static and not res.from_cache:
                    res.execute_s = _execute_only(program)
        except Exception as exc:  # a failed request is counted, not fatal
            res.error = f"{type(exc).__name__}: {exc}"
        finally:
            rec.request = None
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
        return res

    def _check(self, res: Result, session, texts: List[str], xml: str) -> None:
        req = res.req
        state = session.analyzer.dump_state()
        res.accesses = session.stats.accesses
        res.from_cache = session.from_cache
        res.fallback = session.fallback is not None
        res.error = (self.checker.check_state(req.key, req.static, state)
                     or self.checker.check_outputs(req.key, req.static,
                                                   texts, xml))
        if req.static:
            res.band_err = self.checker.band_error(req.key, state)

    def _closed_form_extras(self, res: Result, session, fallbacks: int
                            ) -> None:
        """References evaluated without fallback.  ``fallbacks`` is the
        request's ``static.closedform_fallbacks`` counter delta."""
        deriv = session.derivation
        refs = len(session.program.refs)
        in_hull = deriv.xs[0] <= res.req.size <= deriv.xs[-1]
        pure = 0 if (deriv.global_fallback or not in_hull) else refs - fallbacks
        res.extra.update(refs=refs, fallback_refs=refs - pure,
                         pure_refs=pure)


def _fallback_count() -> int:
    from repro.obs import metrics
    return getattr(metrics.counter("static.closedform_fallbacks"),
                   "value", 0)


def _execute_only(program) -> float:
    """BatchExecutor.run with no analysis handler: the executor's own
    address-generation cost for this program."""
    from repro.lang.batch import BatchExecutor
    t0 = time.perf_counter()
    BatchExecutor(program).run()
    return time.perf_counter() - t0


def run_round(runner: InProcessRunner, deck: List[Request],
              cache_dir: Optional[str]) -> List[Result]:
    """One closed-loop pass over ``deck``.  With ``cache_dir``, every
    request shares one ``AnalysisCache`` that starts empty; the bytes
    its entries took are left in ``runner.cache_bytes``."""
    cache = None
    if cache_dir is not None:
        from repro.tools.cache import AnalysisCache
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = AnalysisCache(cache_dir)
    try:
        results, samples = [], []
        for req in deck:
            samples.append(calibrate())
            results.append(runner.run(req, cache=cache))
        samples.append(calibrate())
        for res, scaled in zip(results, scale_all([r.wall for r in results],
                                                  samples)):
            res.scaled = scaled
        return results
    finally:
        if cache_dir is not None:
            runner.cache_bytes = _tree_bytes(cache_dir)
            shutil.rmtree(cache_dir, ignore_errors=True)


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total
