"""AnalysisSession: the one-call front door of the toolkit.

Wires the whole pipeline together the way the paper's tool chain does:
instrumented execution → online reuse-pattern analysis → static analysis →
fragmentation → per-level miss prediction → reports and recommendations.

    session = AnalysisSession(build_my_kernel())
    session.run()
    print(session.render_carried())
    print(session.render_recommendations("L3"))
"""

from __future__ import annotations

import logging
import time
from typing import Dict, List, Optional

from repro.core.analyzer import ReuseAnalyzer
from repro.lang.ast import Program
from repro.lang.batch import BatchExecutor
from repro.lang.executor import Executor, RunStats
from repro.model.config import MachineConfig
from repro.model.predictor import Prediction, predict
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.obs.manifest import RunManifest
from repro.testing import faults as _faults
from repro.tools.resilience import WorkerFailure
from repro.sim.hierarchy import HierarchySim
from repro.static.fragmentation import FragmentationAnalysis
from repro.static.related import StaticAnalysis
import repro.tools.report as report_mod

logger = logging.getLogger("repro.tools.session")
from repro.tools.recommend import recommend as _recommend
from repro.tools.recommend import render as _render_recommendations
from repro.tools.carried import CarriedMisses
from repro.tools.flatdb import FlatDatabase
from repro.tools.scopetree import ScopeTree
from repro.tools.xmlout import export as export_xml


class AnalysisSession:
    """Run the full toolkit on one program."""

    def __init__(self, program: Program,
                 config: Optional[MachineConfig] = None,
                 miss_model: str = "sa",
                 engine: str = "numpy",
                 simulate: bool = False,
                 cache=None,
                 batch: bool = True,
                 shards: int = 1,
                 shard_jobs: Optional[int] = None,
                 trace_store: Optional[str] = None,
                 spill_mb: Optional[float] = None,
                 closed_form: bool = False,
                 closed_form_spec: Optional[Dict] = None,
                 derivation=None) -> None:
        self.program = program
        self.config = config or MachineConfig.scaled_itanium2()
        self.miss_model = miss_model
        self.engine = engine
        self.simulate = simulate
        self.cache = cache
        self.batch = batch
        self.shards = int(shards)
        self.shard_jobs = shard_jobs
        #: directory for the spilled columnar trace store; when set and
        #: the run records (a program the enumeration rejects, or
        #: batch=False), the recording goes to disk and shards read it
        #: via mmap
        self.trace_store = trace_store
        self.spill_mb = spill_mb
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if spill_mb is not None and trace_store is None:
            raise ValueError("spill_mb bounds a trace-store recording; "
                             "it needs trace_store")
        if self.shards > 1 and simulate:
            raise ValueError("sharded analysis cannot drive the simulator "
                             "(LRU state is order-dependent)")
        if trace_store is not None and simulate:
            raise ValueError("spilled traces cannot drive the simulator")
        #: evaluate the cached closed-form derivation instead of
        #: enumerating (engine="static" only); the synthesized state is
        #: byte-identical either way
        self.closed_form = bool(closed_form)
        #: ``{"workload": name, "params": {...}}`` (optional ``free``,
        #: ``samples``) naming the registry workload and the resolved
        #: bounds this program was built with — built programs do not
        #: record their bounds, so closed-form evaluation needs them
        #: spelled out
        self.closed_form_spec = dict(closed_form_spec or {}) or None
        #: pre-built :class:`~repro.static.closedform.Derivation` (sweep
        #: parents derive once and ship it to every unit)
        self.derivation = derivation
        if engine == "static":
            # The static engine never produces an access stream: there is
            # nothing to simulate, shard, or spill.
            if simulate:
                raise ValueError("engine='static' predicts histograms "
                                 "analytically and cannot drive the "
                                 "simulator")
            if self.shards > 1:
                raise ValueError("engine='static' has no trace to shard")
            if trace_store is not None:
                raise ValueError("engine='static' records no trace to "
                                 "spill")
            if self.closed_form and self.closed_form_spec is None:
                raise ValueError(
                    "closed_form=True needs closed_form_spec "
                    "({'workload': ..., 'params': {...}}): built "
                    "programs do not record the bounds they were "
                    "built with")
        elif self.closed_form:
            raise ValueError("closed_form=True requires engine='static'")
        #: the analyzer holding the results, built by run()
        self.analyzer: Optional[ReuseAnalyzer] = None
        #: the engine whose code resolved the distances ("numpy" for a
        #: batched fenwick or a sharded run); None for a cache hit
        self.engine_ran: Optional[str] = None
        #: the walk that produced the accesses: "enumerated" (the static
        #: enumeration's segment table), "batch" or "scalar"; None for a
        #: cache hit or a static run
        self.executor_ran: Optional[str] = None
        self.sim: Optional[HierarchySim] = (
            HierarchySim(self.config) if simulate else None
        )
        self.stats: Optional[RunStats] = None
        self.from_cache = False
        self.manifest: Optional[RunManifest] = None
        #: {"from", "to", "error"} when the session re-ran on another
        #: path ("to": its engine); None for a clean run
        self.fallback: Optional[Dict[str, str]] = None
        #: resolved digest-named store directory when the run recorded
        #: into :attr:`trace_store` (None when it cut a segment table;
        #: trace-gc live-reference tracking)
        self.trace_path: Optional[str] = None
        self._static: Optional[StaticAnalysis] = None
        self._frag: Optional[FragmentationAnalysis] = None
        self._prediction: Optional[Prediction] = None
        self._ran = False

    # -- pipeline ----------------------------------------------------------

    def run(self, **params: int) -> "AnalysisSession":
        """Execute the program once under instrumentation.

        With a :class:`~repro.tools.cache.AnalysisCache` attached (and no
        simulator, whose LRU state is not serialized), a previous identical
        run is restored from disk instead of re-executing the program.

        The run degrades gracefully: if any other path fails for any
        reason, the session re-runs from scratch (see :meth:`_degrade`)
        and annotates :attr:`fallback` and the manifest.  A slower
        answer, never a wrong one.  The scalar fenwick path
        (``batch=False``) has nothing to fall back to, so its failures
        raise.

        Every run leaves a :class:`~repro.obs.manifest.RunManifest` in
        :attr:`manifest` (phase wall times, event totals, cache outcome;
        plus this run's metric delta when observability is enabled).
        """
        if self._ran:
            raise RuntimeError("AnalysisSession.run() may only be called once")
        phases: Dict[str, float] = {}
        obs_before = _obs.snapshot() if _obs.is_enabled() else None
        with _trace.span("session.run", program=self.program.name) as sp:
            key = None
            payload = None
            if self.cache is not None and self.sim is None:
                t0 = time.perf_counter()
                with _trace.span("cache.lookup"):
                    key = self.cache.key_for(self.program, params,
                                             self.config, self.miss_model,
                                             self.engine)
                    payload = self.cache.get(key)
                phases["cache_lookup"] = time.perf_counter() - t0
            if payload is not None:
                self._hold(payload["analyzer_state"])
                self.stats = payload["stats"]
                self.from_cache = True
                self._ran = True
                logger.info("%s restored from analysis cache",
                            self.program.name)
                sp.set(from_cache=True)
            else:
                try:
                    _faults.fire("session.run", program=self.program.name,
                                 engine=self.engine, shards=self.shards)
                    if self.engine == "static":
                        self._run_static(params, phases, key)
                    elif self.shards > 1 or self.trace_store is not None:
                        self._run_sharded(params, phases, key)
                    else:
                        self._run_sequential(params, phases, key,
                                             self.engine, self.batch)
                except Exception as exc:
                    if (self.engine == "fenwick" and not self.batch
                            and self.shards == 1
                            and self.trace_store is None):
                        raise
                    self._degrade(exc, params, phases, key)
            sp.set(accesses=self.stats.accesses)
        self._build_manifest(params, phases, obs_before)
        return self

    def _hold(self, state: Dict) -> None:
        """Load a finished state into a results-only analyzer (its
        engine never runs; numpy's is the cheapest to build)."""
        self.analyzer = ReuseAnalyzer(self.config.granularities(),
                                      engine="numpy").load_state(state)

    def _run_sequential(self, params: Dict[str, int],
                        phases: Dict[str, float],
                        key: Optional[str], engine: str,
                        batch: bool) -> None:
        """Execute the program once into a fresh analyzer.

        The numpy engine's buffered window is the one batched
        implementation, so a batched ``fenwick`` run builds the numpy
        analyzer (byte-identical, and faster on every registry point,
        from 192 accesses up).  Its input comes from the static
        enumeration (:mod:`repro.static.segments`) when the program has
        one and no simulator needs the event stream; otherwise from a
        ``BatchExecutor`` walk.  Scalar runs and ``treap`` keep their
        engine and executor.  The window's last flush runs inside the
        ``execute`` phase, so neither the cache store nor the first
        result read pays for it.
        """
        if batch and engine == "fenwick":
            engine = "numpy"
        self.analyzer = ReuseAnalyzer(self.config.granularities(),
                                      engine=engine)
        t0 = time.perf_counter()
        with _trace.span("execute", engine=engine) as esp:
            table = None
            if engine == "numpy" and batch and self.sim is None:
                table = self._segment_table(params)
            if table is not None:
                self.executor_ran = "enumerated"
                esp.set(executor="enumerated")
                self.stats = table.stats
                self.analyzer._np_state.feed(table)
                del table
            else:
                handlers = [self.analyzer]
                if self.sim is not None:
                    handlers.append(self.sim)
                executor_cls = BatchExecutor if batch else Executor
                self.executor_ran = "batch" if batch else "scalar"
                esp.set(executor=executor_cls.__name__)
                self.stats = executor_cls(self.program,
                                          *handlers).run(**params)
            self.analyzer._flush()
            esp.set(accesses=self.stats.accesses)
        phases["execute"] = time.perf_counter() - t0
        self.engine_ran = engine
        self._ran = True
        logger.info("%s executed: %d accesses",
                    self.program.name, self.stats.accesses)
        if key is not None:
            t0 = time.perf_counter()
            with _trace.span("cache.store"):
                self.cache.put(
                    key, {"analyzer_state":
                          self.analyzer.dump_state(),
                          "stats": self.stats})
            phases["cache_store"] = time.perf_counter() - t0

    def _segment_table(self, params: Dict[str, int]):
        """The numpy window's input built from the static enumeration,
        or None when the enumeration rejects the program (it then runs
        on ``BatchExecutor``; a rejection is not a failure)."""
        from repro.static.itermodel import StaticUnsupported
        from repro.static.segments import build_segments
        t0 = time.perf_counter()
        try:
            return build_segments(self.program, params)
        except StaticUnsupported as exc:
            logger.info("%s: no segment table (%s); walking it",
                        self.program.name, exc)
            return None
        finally:
            _obs.timer("analyzer.np_walk_latency").observe(
                time.perf_counter() - t0)

    def _run_static(self, params: Dict[str, int],
                    phases: Dict[str, float],
                    key: Optional[str]) -> None:
        """Predict the pattern databases analytically — no execution.

        :func:`repro.static.profile.static_profile` enumerates the
        lowered iteration space symbolically and synthesizes the same
        state dict a dynamic run would have produced.  Its cost is linear
        in rows (one per item occurrence × reference), so it grows with
        outer trip counts: Sweep3D mesh 12 is 62,896 rows for 696,496
        accesses, CG grid 48 254,268 for 392,448, GTC micell 6 303,916
        for 799,948.  Only nests whose occurrences collapse into a few
        rows, like the STREAM triad, cost O(symbolic terms).  Loading it
        into the analyzer makes the whole downstream pipeline
        (predictor, scaling, reports, recommendations) work unchanged;
        :attr:`stats` is synthesized to match what an executor would
        have counted.  Programs the iteration model cannot enumerate
        raise :class:`~repro.static.itermodel.StaticUnsupported`, which
        the caller degrades to a run on the default dynamic path.
        """
        from repro.static.profile import static_profile
        t0 = time.perf_counter()
        state = None
        if self.closed_form:
            state = self._closed_form_state()
        if state is not None:
            phases["closedform_evaluate"] = time.perf_counter() - t0
        else:
            with _trace.span("static.estimate",
                             program=self.program.name) as esp:
                state, self.stats = static_profile(
                    self.program, self.config.granularities(),
                    params=params)
                esp.set(accesses=self.stats.accesses)
        self._hold(state)
        phases["static_estimate"] = time.perf_counter() - t0
        self.engine_ran = "static"
        self._ran = True
        logger.info("%s estimated statically: %d accesses modelled",
                    self.program.name, self.stats.accesses)
        if key is not None:
            t0 = time.perf_counter()
            with _trace.span("cache.store"):
                self.cache.put(key, {"analyzer_state": state,
                                     "stats": self.stats})
            phases["cache_store"] = time.perf_counter() - t0

    def _closed_form_state(self) -> Optional[Dict]:
        """Evaluate the closed-form derivation for this session's bounds.

        Resolves the derivation from :attr:`derivation` (shipped by a
        sweep parent), the in-process memo, or the analysis cache —
        deriving fresh only when all three miss.  Returns the state dict
        (byte-identical to enumeration) and sets :attr:`stats`; returns
        None when no derivation can be built, letting the enumerated
        static path take over.
        """
        from repro.static.closedform import (
            ClosedFormUnsupported, get_derivation,
        )
        spec = self.closed_form_spec
        workload = spec["workload"]
        wl_params = dict(spec.get("params") or {})
        try:
            deriv = self.derivation
            if (deriv is not None and deriv.gran_spec
                    != tuple(self.config.granularities().items())):
                # shipped for another machine config: resolve our own
                deriv = None
            if deriv is None:
                with _trace.span("closedform.derive", workload=workload):
                    deriv = get_derivation(
                        workload, wl_params, free=spec.get("free"),
                        granularities=self.config.granularities(),
                        samples=spec.get("samples"), cache=self.cache)
                self.derivation = deriv
            value = wl_params.get(deriv.free)
            if value is None:
                from repro.apps.registry import workload_params
                value = workload_params(workload)[deriv.free]
            value = int(value)
            with _trace.span("closedform.evaluate", workload=workload,
                             value=value) as esp:
                state, self.stats, fallbacks = deriv.evaluate(
                    value, extrapolate=bool(spec.get("extrapolate")))
                esp.set(accesses=self.stats.accesses,
                        fallbacks=fallbacks)
            return state
        except (ClosedFormUnsupported, KeyError) as exc:
            logger.warning("%s: closed-form path unavailable (%s); "
                           "enumerating", self.program.name, exc)
            _obs.counter("static.closedform_fallbacks").inc()
            return None

    def _degrade(self, exc: BaseException, params: Dict[str, int],
                 phases: Dict[str, float], key: Optional[str]) -> None:
        """Re-run a failed path from scratch on another one.

        A failed dynamic run (the numpy window, the shards, treap)
        re-runs on the scalar ``Executor`` with the per-access fenwick
        engine, the one dynamic path sharing no code with the window or
        the shards; a failed static estimate re-runs on the default
        dynamic path.  The rerun gets a fresh analyzer (and simulator —
        partially-fed state would skew results); its state is
        byte-identical, so writing it through under the original cache
        key is safe.  The failure is recorded in :attr:`fallback`, the
        run manifest, and the ``resil.fallbacks`` counter.
        """
        failure = WorkerFailure.from_exception(exc)
        came_from = self.engine
        if self.shards > 1:
            came_from += f"+shards={self.shards}"
        if self.trace_store is not None:
            came_from += "+spill"
        if self.engine == "static":
            engine, batch = "numpy", self.batch
        else:
            engine, batch = "fenwick", False
        logger.warning("%s: %s path failed (%s); falling back to the "
                       "%s %s engine", self.program.name, came_from,
                       failure.summary, "batched" if batch else "scalar",
                       engine)
        _obs.counter("resil.fallbacks").inc()
        self.fallback = {"from": came_from, "to": engine,
                         "error": failure.summary}
        if self.sim is not None:
            self.sim = HierarchySim(self.config)
        self.stats = None
        t0 = time.perf_counter()
        with _trace.span("session.fallback", source=came_from):
            self._run_sequential(params, phases, key, engine, batch)
        phases["fallback"] = time.perf_counter() - t0

    def _run_sharded(self, params: Dict[str, int],
                     phases: Dict[str, float], key: Optional[str]) -> None:
        """Analyze K time shards of one run and merge them byte-identically.

        When the enumeration accepts the program (a batched run whose
        segment table builds, as in :meth:`_run_sequential`), the table
        is cut into at most K slices at segment boundaries and each
        shard is fed its slice's windows: nothing is recorded.
        Otherwise the program is recorded once, spilled to a columnar
        store under :attr:`trace_store` when one is set (the shards then
        read mmap'd file ranges), and cut between ops by the same rule;
        its slices feed their windows the same way.

        The merged state matches a sequential run of any engine exactly,
        so it is stored under the same cache key the sequential path
        uses — sharded and unsharded runs share cache entries.  Per-shard
        partial results are additionally cached under keys derived from
        the table's or the trace's content digest and K, so a re-run
        with the same K resumes from partials even if the merged entry
        is missing, and any program with identical content shares them.
        """
        from repro.core.shard import (
            merge_shard_results, record_trace, run_shards, split_trace,
        )
        t0 = time.perf_counter()
        table = self._segment_table(params) if self.batch else None
        if table is not None:
            self.executor_ran = "enumerated"
            self.stats = table.stats
            accesses = table.accesses
            phases["enumerate"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            slices = table.slices(self.shards)
            digest = table.digest if self.cache is not None else None
        else:
            with _trace.span("shard.record",
                             program=self.program.name) as rsp:
                if self.trace_store is not None:
                    from repro.core.tracestore import record_spilled
                    trace, self.stats = record_spilled(
                        self.program, self.trace_store, batch=self.batch,
                        spill_mb=self.spill_mb, **params)
                    self.trace_path = trace.path
                else:
                    trace, self.stats = record_trace(
                        self.program, batch=self.batch, **params)
                rsp.set(accesses=trace.accesses)
            self.executor_ran = "batch" if self.batch else "scalar"
            accesses = trace.accesses
            digest = trace.digest
            phases["record"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            with _trace.span("shard.split", shards=self.shards):
                slices = split_trace(trace, self.shards)
        grans = self.config.granularities()
        results = [None] * len(slices)
        shard_keys: List[Optional[str]] = [None] * len(slices)
        if self.cache is not None:
            # keyed by K, not by the slice count: a table's cuts collapse
            # (CG grid 6 cuts 28 slices at K = 28 and at K = 29, at
            # different boundaries), and partials of two cuts must not mix
            for sl in slices:
                skey = self.cache.trace_shard_key_for(
                    digest, self.config, self.shards, sl.index)
                shard_keys[sl.index] = skey
                results[sl.index] = self.cache.get(skey)
        todo = [sl for sl in slices if results[sl.index] is None]
        if todo:
            for sl, res in zip(todo,
                               run_shards(todo, grans, jobs=self.shard_jobs)):
                results[sl.index] = res
                skey = shard_keys[sl.index]
                if skey is not None:
                    metrics, res.metrics = res.metrics, None
                    self.cache.put(skey, res)
                    res.metrics = metrics
        phases["shard_analyze"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        with _trace.span("shard.merge", shards=len(results)):
            state = merge_shard_results(results, grans, accesses)
        self._hold(state)
        phases["shard_merge"] = time.perf_counter() - t0
        # every shard runs the numpy window (repro.core.shard)
        self.engine_ran = "numpy"
        self._ran = True
        logger.info("%s analyzed across %d shards: %d accesses",
                    self.program.name, len(results), self.stats.accesses)
        if key is not None:
            t0 = time.perf_counter()
            with _trace.span("cache.store"):
                self.cache.put(key, {"analyzer_state": state,
                                     "stats": self.stats})
            phases["cache_store"] = time.perf_counter() - t0

    def _build_manifest(self, params: Dict[str, int],
                        phases: Dict[str, float], obs_before) -> None:
        from repro.tools.cache import program_fingerprint
        stats = self.stats
        run_metrics: Dict = {}
        if obs_before is not None:
            run_metrics = _obs.delta(obs_before, _obs.snapshot())
        self.manifest = RunManifest(
            program=self.program.name,
            fingerprint=program_fingerprint(self.program),
            params=dict(params),
            config=repr(self.config),
            engine=self.engine,
            engine_ran=self.engine_ran,
            shards=self.shards,
            executor="batch" if self.batch else "scalar",
            executor_ran=self.executor_ran,
            miss_model=self.miss_model,
            simulate=self.simulate,
            cache_attached=self.cache is not None,
            from_cache=self.from_cache,
            events={"accesses": stats.accesses, "loads": stats.loads,
                    "stores": stats.stores, "ops": stats.ops,
                    "clock": self.analyzer.clock},
            phases=phases,
            metrics=run_metrics,
            fallback=dict(self.fallback) if self.fallback else None,
        )

    def _require_run(self) -> None:
        if not self._ran:
            raise RuntimeError("call session.run() first")

    @property
    def static(self) -> StaticAnalysis:
        if self._static is None:
            self._static = StaticAnalysis(self.program)
        return self._static

    @property
    def fragmentation(self) -> FragmentationAnalysis:
        if self._frag is None:
            self._require_run()
            self._frag = FragmentationAnalysis(self.static, self.stats)
        return self._frag

    @property
    def prediction(self) -> Prediction:
        if self._prediction is None:
            self._require_run()
            t0 = time.perf_counter()
            with _trace.span("predict", model=self.miss_model):
                self._prediction = predict(self.analyzer, self.config,
                                           self.program,
                                           model=self.miss_model)
            if self.manifest is not None:
                self.manifest.phases["predict"] = time.perf_counter() - t0
        return self._prediction

    @property
    def carried(self) -> CarriedMisses:
        return CarriedMisses(self.prediction)

    @property
    def flatdb(self) -> FlatDatabase:
        return FlatDatabase(self.prediction)

    @property
    def scope_tree(self) -> ScopeTree:
        return ScopeTree(self.program)

    @property
    def viewer(self):
        from repro.tools.viewer import Viewer
        return Viewer(self.prediction)

    # -- reports ------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        return self.prediction.totals()

    def render_carried(self, levels: Optional[List[str]] = None,
                       n: int = 8) -> str:
        return self.carried.render(levels, n)

    def render_table2(self, level: str = "L2", top_scopes: int = 6) -> str:
        return report_mod.render_table2(self.prediction, level, top_scopes)

    def render_fragmentation(self, level: str = "L3", n: int = 10) -> str:
        return report_mod.render_fragmentation(self.prediction,
                                               self.fragmentation, level, n)

    def render_top_patterns(self, level: str = "L2", n: int = 15) -> str:
        return self.flatdb.render_top(level, n)

    def render_scope_tree(self, level: str = "L2") -> str:
        values = self.prediction.levels[level].by_dest_scope()
        return self.scope_tree.render(values, title=f"{level} misses")

    def recommendations(self, level: str = "L2", top_n: int = 12):
        return _recommend(
            self.flatdb, level, self.static, self.fragmentation, top_n)

    def render_recommendations(self, level: str = "L2", top_n: int = 12) -> str:
        return _render_recommendations(
            self.recommendations(level, top_n), self.flatdb, level)

    def export_xml(self, path: Optional[str] = None) -> str:
        return export_xml(self.prediction, path)

    def export_html(self, path: str) -> str:
        from repro.tools.htmlreport import write_html
        return write_html(self, path)


def analyze(program: Program, config: Optional[MachineConfig] = None,
            **params: int) -> AnalysisSession:
    """Build, run and return a session in one call."""
    session = AnalysisSession(program, config=config)
    session.run(**params)
    return session
