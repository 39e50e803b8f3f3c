"""Ablation: throughput of the trace pipeline and parallel sweeps.

Section VII of the paper reports the tool's slowdown relative to native
execution; everything downstream (multi-config sweeps, scaling-model
training sets) is gated on trace-processing throughput.  This bench
quantifies the repo's answer to that cost:

* **scalar**: the per-access `Executor` + `ReuseAnalyzer.access` path
  (the fenwick engine's inlined closure — the reference every batched
  result is checked against),
* **numpy**: `BatchExecutor` feeding the buffered array engine
  (`engine="numpy"`), the one batched implementation: it resolves whole
  flush windows with vectorised run compression, bit-parallel
  count-smaller distance queries, and bulk Fenwick updates (sessions
  send batched `fenwick` runs through it too),
* **parallel**: the batched pipeline fanned across a mesh sweep by
  `run_sweep` worker processes (always >= 2 workers, so the parallel
  machinery itself is exercised even on small hosts; the per-job rate in
  the JSON makes single-CPU oversubscription visible instead of hiding
  it),
* **sharded**: ONE trace time-sliced into K=4 shards by the *recorded*
  feed (`repro.core.shard`: `record_trace` -> `split_trace` ->
  `run_shards` on a worker pool -> `merge_shard_results`), compared
  against the sequential numpy engine on the same >= 200k-access trace.
  This is the fallback `AnalysisSession(shards=K)` takes only for
  programs the static enumeration rejects; Sweep3D, like every registry
  workload, is cut from its segment table instead (the table slices'
  pool timings are in `docs/architecture.md`, "Sharded analysis").  The
  merged state must be byte-identical (`pickle.dumps` equality, dict
  order included); the >= 1.8x `shard_speedup` gate applies only when
  the host has >= 4 CPUs (`shard_cpus` records what the run actually
  had — on a 1-CPU host the sharded wall time is honestly reported, not
  excused),
* **fan-out**: the same recorded feed, with the workload spilled ONCE
  to the columnar trace store (`repro.core.tracestore`), then cut into
  op-range slices whose windows the shard workers materialise off the
  mmap.  Recording stays outside the timed region — it is paid once per
  trace and amortized over every analysis — so `fanout_speedup` must
  beat `shard_speedup` on *any* host: the fan-out run does strictly
  less work per analysis (no re-record, no pickled column windows to
  the pool).  Byte-identity of the merged state is asserted in smoke
  mode too.

* **static**: no pipeline at all — `repro.static.profile` predicts the
  pattern databases analytically.  Two numbers: the per-analysis cost on
  the same Sweep3D mesh (`static_us_per_analysis`), and the headline
  `static_speedup` on a STREAM triad big enough that the numpy engine
  takes seconds (the largest benched size).  Triad reuse is single-event
  everywhere, so the predicted state must be byte-identical to the
  dynamic one — the speedup provably buys no drift.

* **closed-form**: not even an enumeration — `repro.static.closedform`
  derives the triad's symbolic profile ONCE (polynomials in the bound
  `n`, `closedform_derive_us`) and then synthesizes the state at any
  bounds by polynomial substitution.  The derivation is amortized over
  >= 5 sweep sizes (each checked byte-identical against the enumerated
  static profile at that size, with zero fallbacks — triad is exactly
  polynomial), and the head-to-head leg times evaluation against
  enumerated `static_profile` at the largest triad size:
  `closedform_speedup = static_enum / eval` must clear 50x, i.e. the
  per-evaluation cost (`closedform_us_per_eval`) is microseconds and
  independent of the iteration count *and* of the enumeration's
  symbolic-term count.

* **count-smaller**: the numpy flush's distance kernel on its own
  (`_count_smaller_left`), on a seeded random permutation of one full
  flush window (2**17 elements, every position queried):
  `count_smaller_ms` is the median of >= 5 calls.  Recorded, not gated;
  the smoke form checks a 4,097-element input against brute force.

A further pipeline, **numpy+obs**, re-runs the numpy path with the
observability subsystem enabled (metrics registry + trace spans), to
bound the cost of instrumentation: counters must tick at chunk
granularity (not per access), must cost only a few percent of the numpy
runtime, and must not perturb a single histogram bin.

Timing protocol: every variant is run once untimed (warm the allocator,
import paths, and branch predictors), then the variants are interleaved
for ``repeats`` rounds; garbage collection is paused inside each timed
region (a GC cycle landing in one variant but not its comparator
dominated run-to-run ratio noise).  Throughput rows report each
variant's best time.  The obs overhead is different: it is a near-zero
quantity far below single-run noise, and naive best-of made it swing
negative (or spuriously high) with clock-frequency drift deciding which
variant's best landed in a fast phase.  Each round therefore times a
symmetric numpy/obs/obs/numpy quad and the reported overhead is the
median of the per-round ``(o1+o2)/(b1+b2)`` ratios — drift cancels
within a quad, bursts are discarded by the median.

Acceptance: the numpy engine is >= 6x scalar single-thread on Sweep3D
(``numpy_vs_scalar``), with a byte-identical pattern database (the
speedup must not buy any drift).  Obs is gated on its
*mechanism* — at least 16 accesses per metering call — plus a coarse
wall-clock tripwire: the measured overhead is ~0-5%, but memory-layout
luck can shift a whole session's ratio by ~15% on shared machines,
far above the quantity being measured, so only a mechanism regression
(per-access metering, 50%+ slower) can trip the timing bound.  (A
previously archived ``obs_overhead_pct`` of ~19% on this repo's 1-CPU
container is exactly that layout noise: the mechanism gate — >= 16
accesses per metering call — held, and the per-chunk counter count was
unchanged.  The JSON now carries ``obs_overhead_is_tripwire`` so nobody
reads the field as a measurement again.)  The headline numbers are
archived to ``BENCH_throughput.json`` at the repo root for
EXPERIMENTS.md.

``--smoke`` runs the same experiment on a miniature mesh with one timed
round: every equivalence assertion still holds, the perf thresholds and
the JSON archive are skipped (CI uses this to keep the bench honest
without timing flake).
"""

import gc
import json
import os
import pickle
import statistics
import time

import numpy as np
import pytest

from repro.apps.sweep3d import SweepParams, build_original
from repro.core import ReuseAnalyzer
from repro.lang import BatchExecutor, Executor
from repro.model import MachineConfig
from repro.obs import metrics as obs_metrics
from repro.tools import SweepTask, default_jobs, run_sweep
from conftest import RESULTS_DIR, run_once

CFG = MachineConfig.scaled_itanium2()
PARAMS = SweepParams(n=8, mm=6, nm=3, noct=2)
SMOKE_PARAMS = SweepParams(n=4, mm=4, nm=2, noct=2)
SWEEP_MESHES = (6, 7, 8, 9)
SMOKE_SWEEP_MESHES = (4, 5)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _canonical_db(analyzer):
    """Order-independent serialization of every pattern database."""
    return _canonical_state(analyzer.dump_state())


def _canonical_state(state):
    canon = []
    for gran in state["grans"]:
        raw = sorted((key, tuple(sorted(bins.items())))
                     for key, bins in gran["raw"].items())
        cold = tuple(sorted(gran["cold"].items()))
        canon.append((gran["name"], gran["block_size"], tuple(raw), cold,
                      gran["blocks"]))
    return pickle.dumps((state["clock"], tuple(canon)))


def _run_variant(executor_cls, params, engine):
    """One full analyzer run; returns (seconds, stats, analyzer).

    The timed region includes the analyzer's final flush, so buffered
    engines pay for every access they deferred.
    """
    program = build_original(params)
    analyzer = ReuseAnalyzer(CFG.granularities(), engine=engine)
    executor = executor_cls(program, analyzer)
    # A GC cycle landing inside one variant but not its comparator is the
    # single biggest source of ratio noise; collect first, pause during.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        stats = executor.run()
        analyzer._flush()
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, stats, analyzer


def _run_obs_variant(params):
    """The numpy variant under observability.

    Also reports the metered event count and the number of batch calls —
    the call count is what keeps obs cheap (counters tick per chunk, not
    per access), so the test asserts on it directly.
    """
    obs_metrics.set_enabled(True)
    try:
        with obs_metrics.scoped() as reg:
            elapsed, stats, analyzer = _run_variant(BatchExecutor, params,
                                                    "numpy")
            events = reg.counter("analyzer.batch_events").value
            calls = reg.counter("analyzer.batch_calls").value
    finally:
        obs_metrics.set_enabled(False)
    return elapsed, stats, analyzer, events, calls


def _timed_variants(params, repeats):
    """Warm every variant once, then interleave ``repeats`` timed rounds.

    Returns ``{name: (best_seconds, stats, analyzer)}`` (stats/analyzer
    from the last round), obs metering counts, and the obs/numpy
    overhead ratio.  Throughput numbers use best-of (the floor is what a
    quiet machine delivers).  The obs overhead — a near-zero quantity far
    below single-run noise — is estimated per round from a symmetric
    numpy/obs/obs/numpy quad, ``(o1+o2)/(b1+b2)``, which cancels
    clock-frequency drift exactly for drift linear in time, then the
    median across rounds discards load bursts that land in one round.
    """
    obs_info = {"events": 0, "calls": 0}

    def run_obs():
        elapsed, stats, analyzer, events, calls = _run_obs_variant(params)
        obs_info["events"] = events
        obs_info["calls"] = calls
        return elapsed, stats, analyzer

    run_numpy = lambda: _run_variant(BatchExecutor, params, "numpy")
    variants = {
        "scalar": lambda: _run_variant(Executor, params, "fenwick"),
        "numpy": run_numpy,
        "obs": run_obs,
    }
    for fn in variants.values():
        fn()
    best = {}

    def record(name, result):
        if name not in best or result[0] < best[name][0]:
            best[name] = result
        else:
            best[name] = (best[name][0], result[1], result[2])
        return result[0]

    ratios = []
    for _ in range(repeats):
        record("scalar", variants["scalar"]())
        n1 = record("numpy", run_numpy())
        o1 = record("obs", run_obs())
        o2 = record("obs", run_obs())
        n2 = record("numpy", run_numpy())
        ratios.append((o1 + o2) / (n1 + n2))
    overhead_ratio = statistics.median(ratios)
    return best, obs_info, overhead_ratio


def _sweep_builder(n):
    return build_original(SweepParams(n=n, mm=6, nm=3, noct=2))


def _smoke_sweep_builder(n):
    return build_original(SweepParams(n=n, mm=4, nm=2, noct=2))


SHARD_K = 4

#: the static engine's headline leg: a STREAM triad big enough that the
#: dynamic reference takes seconds while the analytical prediction stays
#: sub-millisecond — and simple enough (single-event reuse everywhere)
#: that the predicted state must be byte-identical, so the speedup is
#: provably not buying any drift
STATIC_TRIAD_N = 2_000_000
SMOKE_STATIC_TRIAD_N = 20_000


def _run_static_leg(params, triad_n, repeats):
    """Time the static engine against the numpy reference.

    Two measurements: ``static_us_per_analysis`` on the same Sweep3D
    mesh the throughput rows use (the realistic per-analysis cost of an
    analytical answer), and the triad speedup leg — the largest benched
    size, where O(symbolic terms) vs O(accesses) is the whole story.
    """
    from repro.apps.kernels import stream_triad
    from repro.static.profile import static_profile

    grans = CFG.granularities()
    sweep_prog = build_original(params)
    static_profile(sweep_prog, grans)  # warm
    sweep_t = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        state, sweep_stats = static_profile(sweep_prog, grans)
        elapsed = time.perf_counter() - t0
        sweep_t = elapsed if sweep_t is None else min(sweep_t, elapsed)

    triad_prog = stream_triad(triad_n, 1)
    analyzer = ReuseAnalyzer(grans, engine="numpy")
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        triad_stats = BatchExecutor(triad_prog, analyzer).run()
        analyzer._flush()
        dynamic_t = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    static_t = None
    static_state = None
    for _ in range(max(repeats, 2)):
        t0 = time.perf_counter()
        state, static_stats = static_profile(stream_triad(triad_n, 1),
                                             grans)
        elapsed = time.perf_counter() - t0
        if static_t is None or elapsed < static_t:
            static_t = elapsed
            static_state = state
    return {
        "static_sweep_accesses": sweep_stats.accesses,
        "static_us_per_analysis": sweep_t * 1e6,
        "static_triad_n": triad_n,
        "static_triad_accesses": triad_stats.accesses,
        "static_dynamic_s": dynamic_t,
        "static_s": static_t,
        "static_speedup": dynamic_t / static_t,
        "static_identical": (
            static_stats.accesses == triad_stats.accesses
            and _canonical_state(static_state)
            == _canonical_db(analyzer)),
    }


#: evaluation rounds per timing sample for the closed-form leg — one
#: substitution is tens of microseconds, so per-call timing would be
#: dominated by perf_counter granularity and cache-line luck
CLOSEDFORM_EVAL_BATCH = 50


def _run_closedform_leg(triad_n, repeats):
    """Derive the triad profile once, evaluate it everywhere.

    The sweep half amortizes one derivation over the last five lattice
    sizes and asserts byte-identity (state) and exact equality (stats)
    against the enumerated static profile at every size.  The
    head-to-head half interleaves best-of rounds of closed-form
    evaluation (batched — see CLOSEDFORM_EVAL_BATCH) and enumerated
    ``static_profile`` at the largest size; program construction is
    inside the enumerated timed region because enumeration cannot start
    without it, while evaluation needs no program at all.
    """
    from repro.apps.registry import build_workload
    from repro.static.closedform import derive
    from repro.static.profile import static_profile

    grans = CFG.granularities()
    deriv = derive("triad", {"n": triad_n, "steps": 1},
                   granularities=grans)
    sweep_ns = deriv.xs[-5:]
    fallbacks = 0
    identical = True
    for n in sweep_ns:
        state, stats, n_fb = deriv.evaluate(int(n))
        fallbacks += n_fb
        ref_state, ref_stats = static_profile(
            build_workload("triad", n=int(n), steps=1), grans)
        identical = identical and (
            pickle.dumps(state) == pickle.dumps(ref_state)
            and vars(stats) == vars(ref_stats))

    eval_t = None
    enum_t = None
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(repeats, 3)):
            t0 = time.perf_counter()
            for _ in range(CLOSEDFORM_EVAL_BATCH):
                deriv.evaluate(triad_n)
            elapsed = (time.perf_counter() - t0) / CLOSEDFORM_EVAL_BATCH
            eval_t = elapsed if eval_t is None else min(eval_t, elapsed)
            t0 = time.perf_counter()
            static_profile(build_workload("triad", n=triad_n, steps=1),
                           grans)
            elapsed = time.perf_counter() - t0
            enum_t = elapsed if enum_t is None else min(enum_t, elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "closedform_derive_us": deriv.derive_s * 1e6,
        "closedform_sweep_sizes": [int(n) for n in sweep_ns],
        "closedform_fallbacks": fallbacks,
        "closedform_identical": identical,
        "closedform_us_per_eval": eval_t * 1e6,
        "closedform_enum_us": enum_t * 1e6,
        "closedform_speedup": enum_t / eval_t,
    }


#: the count-smaller kernel leg: one full numpy flush window of ranks
COUNT_SMALLER_N = 1 << 17
SMOKE_COUNT_SMALLER_N = 4097


def _run_count_smaller_leg(smoke, repeats):
    """Time the numpy flush's count-smaller kernel in isolation.

    Every position of a seeded random permutation is queried, as the
    intra-window pass queries nearly every access.  The smoke form
    checks the result against brute force instead of relying on timing.
    """
    from repro.core.npengine import _count_smaller_left

    n = SMOKE_COUNT_SMALLER_N if smoke else COUNT_SMALLER_N
    ranks = np.random.default_rng(17).permutation(n).astype(np.int64)
    queries = np.arange(n, dtype=np.int64)
    _count_smaller_left(ranks, queries)  # warm
    times = []
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(repeats, 5)):
            t0 = time.perf_counter()
            got = _count_smaller_left(ranks, queries)
            times.append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    leg = {"count_smaller_n": n,
           "count_smaller_ms": statistics.median(times) * 1e3}
    if smoke:
        leg["count_smaller_exact"] = got.tolist() == [
            int((ranks[:i] < ranks[i]).sum()) for i in range(n)]
    return leg


def _run_sharded(params, jobs):
    """One full recorded sharded pipeline (record -> split -> workers ->
    merge)."""
    from repro.core.shard import (
        merge_shard_results, record_trace, run_shards, split_trace,
    )
    program = build_original(params)
    grans = CFG.granularities()
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        trace, stats = record_trace(program)
        results = run_shards(split_trace(trace, SHARD_K), grans, jobs=jobs)
        state = merge_shard_results(results, grans, trace.accesses)
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, stats, state


def _run_fanout(stored, jobs):
    """Split + workers + merge off one already-spilled trace.

    The recording is *not* in the timed region — that is the fan-out
    leg's whole claim: one spilled recording feeds every downstream
    sharded analysis through the page cache, so the marginal cost of an
    additional analysis is the op-range split plus the windows read off
    the mmap, never a re-record or a pickled column window.
    """
    from repro.core.shard import merge_shard_results, run_shards, split_trace
    grans = CFG.granularities()
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        results = run_shards(split_trace(stored, SHARD_K), grans, jobs=jobs)
        state = merge_shard_results(results, grans, stored.accesses)
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, state


def _experiment(smoke=False):
    params = SMOKE_PARAMS if smoke else PARAMS
    repeats = 1 if smoke else 5
    best, obs_info, overhead_ratio = _timed_variants(params, repeats)
    scalar_t, scalar_stats, scalar_an = best["scalar"]
    numpy_t, numpy_stats, numpy_an = best["numpy"]
    obs_t, obs_stats, obs_an = best["obs"]
    accesses = scalar_stats.accesses
    obs_events = obs_info["events"]
    obs_overhead_pct = (overhead_ratio - 1.0) * 100.0

    meshes = SMOKE_SWEEP_MESHES if smoke else SWEEP_MESHES
    builder = _smoke_sweep_builder if smoke else _sweep_builder
    tasks = [SweepTask(key=n, builder=builder, args=(n,),
                       mode="analyze", config=CFG)
             for n in meshes]
    # Always >= 2 workers: a jobs=1 "parallel" leg exercises none of the
    # pool machinery (and that is exactly what a 1-CPU default produced
    # before).  Per-job kps in the JSON exposes oversubscription.
    jobs = max(2, default_jobs(4))
    manifest_path = os.path.join(RESULTS_DIR, "sweep_manifest.json")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    t0 = time.perf_counter()
    outcomes = run_sweep(tasks, jobs=jobs, manifest_out=manifest_path)
    sweep_t = time.perf_counter() - t0
    sweep_accesses = sum(out.stats.accesses for out in outcomes)
    with open(manifest_path, encoding="utf-8") as fh:
        sweep_manifest = json.load(fh)

    # Sharded leg: the SAME trace the numpy row analyzed sequentially,
    # cut into SHARD_K time shards across a worker pool; best-of timing
    # like the other variants (one warm run first).
    cpus = os.cpu_count() or 1
    shard_jobs = min(SHARD_K, cpus)
    _run_sharded(params, shard_jobs)
    shard_t = None
    shard_state = None
    for _ in range(repeats):
        elapsed, shard_stats, state = _run_sharded(params, shard_jobs)
        if shard_t is None or elapsed < shard_t:
            shard_t = elapsed
            shard_state = state
    shard_identical = (pickle.dumps(shard_state)
                       == pickle.dumps(numpy_an.dump_state()))

    # Fan-out leg: the SAME workload spilled ONCE to the columnar trace
    # store, then repeatedly cut into op-range slices whose windows the
    # workers read off the mmap.  Recording happens outside the timed region
    # (it is paid once per trace, amortized over every analysis), so
    # fanout_s is the marginal cost the sharded leg re-pays per run.
    from repro.core.tracestore import record_spilled
    trace_root = os.path.join(RESULTS_DIR, "tracestore")
    t0 = time.perf_counter()
    stored, _rec_stats = record_spilled(build_original(params),
                                        trace_root, spill_mb=1.0)
    fanout_record_s = time.perf_counter() - t0
    with open(os.path.join(stored.path, "meta.json"),
              encoding="utf-8") as fh:
        trace_spill_bytes = json.load(fh)["bytes"]
    _run_fanout(stored, shard_jobs)
    fanout_t = None
    fanout_state = None
    for _ in range(repeats):
        elapsed, state = _run_fanout(stored, shard_jobs)
        if fanout_t is None or elapsed < fanout_t:
            fanout_t = elapsed
            fanout_state = state
    fanout_identical = (pickle.dumps(fanout_state)
                        == pickle.dumps(numpy_an.dump_state()))

    triad_n = SMOKE_STATIC_TRIAD_N if smoke else STATIC_TRIAD_N
    static_leg = _run_static_leg(params, triad_n, repeats)
    closedform_leg = _run_closedform_leg(triad_n, repeats)
    count_smaller_leg = _run_count_smaller_leg(smoke, repeats)

    return {
        "accesses": accesses,
        "scalar_s": scalar_t,
        "numpy_s": numpy_t,
        "numpy_obs_s": obs_t,
        "obs_overhead_pct": obs_overhead_pct,
        "obs_events_counted": obs_events,
        "obs_batch_calls": obs_info["calls"],
        "scalar_kps": accesses / scalar_t / 1e3,
        "numpy_kps": accesses / numpy_t / 1e3,
        "numpy_vs_scalar": scalar_t / numpy_t,
        "stats_equal": (vars(scalar_stats) == vars(numpy_stats)
                        == vars(obs_stats)),
        "dbs_identical": (_canonical_db(scalar_an) == _canonical_db(numpy_an)
                          == _canonical_db(obs_an)),
        "sweep_jobs": jobs,
        "sweep_accesses": sweep_accesses,
        "parallel_kps": sweep_accesses / sweep_t / 1e3,
        "parallel_kps_per_job": sweep_accesses / sweep_t / 1e3 / jobs,
        "sweep_manifest_tasks": sweep_manifest["tasks"],
        "sweep_cache_hit_rate": sweep_manifest["cache"]["hit_rate"],
        "shard_k": SHARD_K,
        "shard_cpus": cpus,
        "shard_jobs": shard_jobs,
        "shard_s": shard_t,
        "shard_kps": accesses / shard_t / 1e3,
        "shard_speedup": numpy_t / shard_t,
        "shard_identical": shard_identical,
        "fanout_s": fanout_t,
        "fanout_record_s": fanout_record_s,
        "fanout_kps": accesses / fanout_t / 1e3,
        "fanout_speedup": numpy_t / fanout_t,
        "fanout_identical": fanout_identical,
        "trace_spill_bytes": trace_spill_bytes,
        # obs_overhead_pct is a *tripwire*, not a measurement of metering
        # cost: the quantity is ~0-5% but allocator/layout luck shifts a
        # whole session's ratio by ~15% on shared or 1-CPU hosts.  The
        # real gate is the metering mechanism (obs_events_counted /
        # obs_batch_calls >= 16, i.e. counters tick per chunk); the
        # wall-clock bound only catches a 50%+ per-access regression.
        "obs_overhead_is_tripwire": True,
        **static_leg,
        **closedform_leg,
        **count_smaller_leg,
        "smoke": smoke,
    }


def _pin_to_one_cpu():
    """Pin this process (and its future children) to its lowest allowed
    CPU.  Returns the original affinity set to restore, or ``None`` if
    the platform has no affinity control (macOS) or the call failed."""
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        return allowed
    except (AttributeError, OSError):
        return None


@pytest.mark.benchmark(group="ablation")
def test_ablation_batch_throughput(benchmark, record, request):
    smoke = request.config.getoption("--smoke")
    original_affinity = None
    pinned = False
    if request.config.getoption("--pin-cpu"):
        original_affinity = _pin_to_one_cpu()
        pinned = original_affinity is not None
    try:
        r = run_once(benchmark, lambda: _experiment(smoke=smoke))
    finally:
        if original_affinity is not None:
            os.sched_setaffinity(0, original_affinity)
    r["bench_pinned"] = pinned
    n = (SMOKE_PARAMS if smoke else PARAMS).n
    lines = [
        "Ablation: trace-pipeline throughput on Sweep3D "
        f"(n={n}, {r['accesses']} accesses)"
        + (" [smoke]" if smoke else ""),
        f"{'pipeline':<22}{'kaccesses/s':>13}{'speedup':>9}",
        "-" * 44,
        f"{'scalar (per-access)':<22}{r['scalar_kps']:>13.0f}"
        f"{1.0:>8.2f}x",
        f"{'numpy (array engine)':<22}{r['numpy_kps']:>13.0f}"
        f"{r['numpy_vs_scalar']:>8.2f}x",
        f"{'numpy + obs':<22}"
        f"{r['accesses'] / r['numpy_obs_s'] / 1e3:>13.0f}"
        f"{r['scalar_s'] / r['numpy_obs_s']:>8.2f}x",
        f"{'sweep (%d proc)' % r['sweep_jobs']:<22}"
        f"{r['parallel_kps']:>13.0f}"
        f"{r['parallel_kps'] / r['scalar_kps']:>8.2f}x",
        f"{'sharded rec (K=%d,%dp)' % (r['shard_k'], r['shard_jobs']):<22}"
        f"{r['shard_kps']:>13.0f}"
        f"{r['scalar_s'] / r['shard_s']:>8.2f}x",
        f"{'fan-out (spilled)':<22}{r['fanout_kps']:>13.0f}"
        f"{r['scalar_s'] / r['fanout_s']:>8.2f}x",
        "",
        f"pattern databases byte-identical: {r['dbs_identical']} "
        "(scalar = numpy = numpy+obs)",
        f"run statistics identical: {r['stats_equal']}",
        f"sharded (recorded feed) vs numpy sequential: "
        f"{r['shard_speedup']:.2f}x "
        f"on {r['shard_cpus']} CPU(s), merged state byte-identical: "
        f"{r['shard_identical']}",
        f"fan-out from one spilled trace ({r['trace_spill_bytes']} "
        f"bytes, recorded once in {r['fanout_record_s']:.3f}s): "
        f"{r['fanout_speedup']:.2f}x vs numpy sequential, "
        f"{r['shard_s'] / r['fanout_s']:.2f}x vs re-recording sharded, "
        f"merged state byte-identical: {r['fanout_identical']}",
        f"static engine: {r['static_us_per_analysis']:.0f} us per "
        f"analysis on the Sweep3D mesh "
        f"({r['static_sweep_accesses']} accesses modelled); triad "
        f"n={r['static_triad_n']}: {r['static_speedup']:.0f}x over the "
        f"numpy engine ({r['static_dynamic_s']:.2f}s -> "
        f"{r['static_s'] * 1e3:.1f}ms), predicted state byte-identical: "
        f"{r['static_identical']}",
        f"closed-form: derived once in {r['closedform_derive_us']:.0f} us "
        f"(amortized over sizes {r['closedform_sweep_sizes']}), then "
        f"{r['closedform_us_per_eval']:.1f} us per evaluation — "
        f"{r['closedform_speedup']:.0f}x over enumerated static "
        f"({r['closedform_enum_us']:.0f} us) at n={r['static_triad_n']}; "
        f"byte-identical: {r['closedform_identical']}, "
        f"fallbacks: {r['closedform_fallbacks']}",
        f"count-smaller kernel: {r['count_smaller_ms']:.1f} ms per call "
        f"(median) on a random permutation of {r['count_smaller_n']}",
        f"obs overhead: {r['obs_overhead_pct']:+.2f}% "
        f"({r['obs_events_counted']} events metered; tripwire only — "
        "the gate is chunk-level metering, see module docstring)",
        f"sweep roll-up: {r['sweep_manifest_tasks']} tasks, "
        f"cache hit rate {r['sweep_cache_hit_rate']:.0%} "
        "(benchmarks/results/sweep_manifest.json)",
        f"(parallel row: aggregate over meshes "
        f"{SMOKE_SWEEP_MESHES if smoke else SWEEP_MESHES}, "
        f"analysis sessions in {r['sweep_jobs']} processes, "
        f"{r['parallel_kps_per_job']:.0f} kps/job)",
    ]
    record("\n".join(lines))

    # The speedup must not buy any drift — smoke mode included.
    assert r["dbs_identical"]
    assert r["stats_equal"]
    assert r["shard_identical"]
    assert r["fanout_identical"]
    assert r["static_identical"]
    # Closed-form evaluation must agree byte-for-byte with the
    # enumerated static profile at every sweep size — and the triad is
    # exactly polynomial, so it must do it without a single fallback.
    assert r["closedform_identical"]
    assert r["closedform_fallbacks"] == 0
    assert len(r["closedform_sweep_sizes"]) >= 5
    assert r["obs_events_counted"] > 0

    if smoke:
        assert r["count_smaller_exact"]
        return  # miniature mesh: timing thresholds are meaningless

    with open(os.path.join(REPO_ROOT, "BENCH_throughput.json"), "w") as fh:
        json.dump({k: round(v, 3) if isinstance(v, float) else v
                   for k, v in r.items()}, fh, indent=2)
        fh.write("\n")

    # The one batched implementation must clear 6x over the scalar
    # per-access path (the product of the two former gates: batched
    # closure >= 3x scalar, numpy >= 2x that closure).
    assert r["numpy_vs_scalar"] >= 6.0
    # Observability must be near-free.  What keeps it so is chunk-level
    # metering: assert the mechanism directly (Sweep3D's short inner
    # loops average ~30 accesses per counter tick; a regression to
    # per-access metering drops this to 1).  The wall-clock bound is a
    # coarse tripwire only: measured overhead is ~0-5%, but allocator
    # layout luck can inflate a whole session's obs runs by ~15% on
    # shared machines, while a real mechanism regression (per-access
    # metering) costs 50%+.
    assert r["obs_events_counted"] / max(r["obs_batch_calls"], 1) >= 16
    assert r["obs_overhead_pct"] < 25.0
    # Sharding pays off only when the shards actually run concurrently:
    # the trace is >= 200k accesses and K=4, so on a >= 4-CPU host the
    # sharded pipeline must beat the sequential numpy engine by 1.8x.
    # On smaller hosts the (honest) slowdown is recorded, not gated.
    assert r["accesses"] >= 200_000
    if r["shard_cpus"] >= 4:
        assert r["shard_speedup"] >= 1.8
    # Fanning out from one spilled trace must beat the record-every-run
    # sharded pipeline on any host: the timed region drops the record
    # phase entirely and ships offset slices, not column windows, so if
    # this fails reading windows off the store is slower than
    # re-recording.
    assert r["fanout_speedup"] > r["shard_speedup"]
    assert r["trace_spill_bytes"] > 0
    # The static engine's claim is asymptotic: O(symbolic terms) vs
    # O(accesses).  At the largest benched size it must clear 100x over
    # the fastest dynamic engine — with a byte-identical prediction
    # (asserted above), so the speedup cannot be buying drift.
    assert r["static_speedup"] >= 100.0
    # Derive-once / evaluate-anywhere: substituting the bound into the
    # fitted polynomials must clear 50x over re-enumerating the static
    # profile at the same bounds (byte-identity asserted above, so the
    # speedup cannot be buying drift — same bar as every other leg).
    assert r["closedform_speedup"] >= 50.0
