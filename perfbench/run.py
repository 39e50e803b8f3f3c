#!/usr/bin/env python3
"""Paper-workload benchmark of the reuse-analysis toolkit.

Runs the paper's analyses (Sweep3D, GTC, CG) as a seeded closed-loop
request stream and prints every metric by name with its unit; the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 3 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(times scaled to a reference host speed, see ``speed.py``);
``--trace 1`` runs one untraced and one traced round and reports the
per-layer ledger.  Full details (host, seed, request mix, per-request
rows; spans when traced) go to ``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: fresh-interpreter set-ups timed per run (setup_s is their median)
SETUP_PROBES = 3
IN_PROCESS = ("paper-cold", "paper-static", "cached-mix")
#: a run that has not finished by now is abandoned (the contract is a
#: result within 180 s; a hung program must not hang the benchmark)
RUN_LIMIT_S = 170


class Overtime(BaseException):
    """Raised by the run-limit alarm; not an ``Exception``, so no
    per-request handler swallows it."""


def _overtime(_signum, _frame):
    raise Overtime(f"run exceeded {RUN_LIMIT_S} s")


#: what a fresh interpreter does before an in-process request is ready
PROBE_CODE = """\
import sys
sys.path.insert(0, {src!r})
import numpy
from repro.apps.registry import build_workload
from repro.tools.session import AnalysisSession
{extra}
build_workload({kernel!r}, **{params!r})
print("ready", flush=True)
"""
PROBE_EXTRA = {
    "paper-static": "from repro.static.closedform import derive",
    "cached-mix": "from repro.tools.cache import AnalysisCache",
}


def host_info() -> Dict:
    import numpy
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": "unknown (not a git checkout)",
    }
    if os.path.exists(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        if out.returncode == 0:
            info["commit"] = out.stdout.strip()
    return info


def child_env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC)


def probe_setup(workload: str, req) -> Tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its first request
    being ready (imports plus building the request's program), raw and
    at the reference speed."""
    from speed import calibrate, scale
    code = PROBE_CODE.format(src=SRC, extra=PROBE_EXTRA.get(workload, ""),
                             kernel=req.kernel, params=req.param_dict)
    before = calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, scale(elapsed, [before, calibrate()])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def by_kind(results) -> Dict[str, float]:
    """Median request seconds per kernel point and path."""
    from ledger import median
    groups: Dict[str, List[float]] = {}
    for r in results:
        if r.error is None:
            groups.setdefault(str(r.req), []).append(r.wall)
    return {k: median(v) for k, v in sorted(groups.items())}


class Run:
    """One benchmark invocation: set-up, rounds, summary."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> None:
        from checks import Checker
        from decks import deck_for
        from spans import Recorder
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.deck = deck_for(workload, seed)
        self.checker = Checker()
        self.rec = Recorder()
        #: (raw, scaled) seconds of each set-up
        self.setup_samples: List[Tuple[float, float]] = []
        self.derive_s = (0.0, 0.0)
        self.results = []       # every checked request, warm-up included
        self.timed = []         # untraced timed requests
        self.traced = []        # traced round
        self.rounds = 0
        self.layers: Dict[str, float] = {}

    # -- in-process workloads -------------------------------------------

    def run_in_process(self) -> None:
        from decks import warmup
        from paper import InProcessRunner, derive_all, run_round
        import repro.tools.session  # noqa: F401  (compiled before probing)
        for _ in range(SETUP_PROBES):
            self.setup_samples.append(probe_setup(self.workload, self.deck[0]))
        derivations = {}
        if self.workload == "paper-static":
            derivations, *self.derive_s = derive_all()
        runner = InProcessRunner(self.checker, self.rec, self.workdir,
                                 derivations)
        cache_dir = (os.path.join(self.workdir, "cache")
                     if self.workload == "cached-mix" else None)
        warm = warmup(self.deck)
        # a cached warm-up misses then hits each of its keys
        self.results += run_round(runner, warm * (2 if cache_dir else 1),
                                  cache_dir)
        if not self.trace:
            self.timed = self._rounds(lambda: run_round(runner, self.deck,
                                                        cache_dir))
            return
        from repro.obs import metrics
        untraced = run_round(runner, self.deck, cache_dir)
        # the traced round may read the program's existing counters
        metrics.set_enabled(True)
        before = metrics.snapshot()["counters"]
        try:
            self.rec.install()
            self.traced = run_round(runner, self.deck, cache_dir)
        finally:
            self.rec.uninstall()
            after = metrics.snapshot()["counters"]
            metrics.set_enabled(False)
        delta = {k: v - before.get(k, 0) for k, v in after.items()}
        self.results += untraced + self.traced
        self._ledger(untraced, delta, runner.cache_bytes, None)

    # -- service workload ----------------------------------------------

    def run_service(self) -> None:
        import svc
        for i in range(SETUP_PROBES - 1):
            self.setup_samples.append(svc.probe(ROOT, self.workdir, i))
        index = iter(range(1 << 30))

        def one_round():
            results, ready, delta = svc.run_round(
                ROOT, self.workdir, next(index), self.deck, self.checker,
                self.rec)
            self.setup_samples.append(ready)
            return results, delta

        if not self.trace:
            self.timed = self._rounds(lambda: one_round()[0])
            return
        untraced, _ = one_round()
        try:
            self.rec.install()
            self.traced, delta = one_round()
        finally:
            self.rec.uninstall()
        self.results += untraced + self.traced
        self._ledger(untraced, {}, 0, delta)

    # -- shared ------------------------------------------------------------

    def _rounds(self, one_round) -> list:
        """Whole rounds until the requests' summed wall time reaches
        ``--seconds`` (at least one), so every run serves whole decks."""
        timed = []
        while True:
            timed += one_round()
            self.rounds += 1
            if sum(r.wall for r in timed) >= self.seconds:
                break
        self.results += timed
        return timed

    def _ledger(self, untraced, obs_delta, cache_bytes, svc_delta) -> None:
        from ledger import end_to_end, per_layer
        self.rounds = 2
        untraced_wall = sum(r.wall for r in untraced if r.error is None)
        self.layers = per_layer(self.traced, self.rec.spans, obs_delta,
                                untraced_wall, self.derive_s[0], cache_bytes,
                                svc_delta)
        e2e = end_to_end(untraced + self.traced, lambda r: r.wall)
        for name in ("error_rate", "fallback_rate", "static_band_err_max"):
            self.layers[name] = e2e[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure ({SRC}/repro missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(whys)}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from decks import mix_of
    from speed import pin_to_one_cpu

    host = host_info()
    # the service runs unpinned: a server, its worker and the client
    # sharing one CPU serve repeats several times slower than on the
    # host's CPUs, which is not the deployment being measured
    host["pinned_cpu"] = (pin_to_one_cpu() if args.workload in IN_PROCESS
                          else None)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR, prefix="work-")
    # the program's own temp files (cache writes, pools) stay in the root
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              workdir)
    signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(RUN_LIMIT_S)
    try:
        if args.workload in IN_PROCESS:
            run.run_in_process()
        else:
            run.run_service()
    except Overtime as exc:
        print(f"perfbench: {exc}; no result", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    return report(run, spec, host, whys[args.workload], mix_of(run.deck))


def report(run: Run, spec: Dict, host: Dict, why: str,
           mix: Dict[str, int]) -> int:
    from ledger import end_to_end, median
    failed = sum(r.error is not None for r in run.results)
    attempted = len(run.results)
    raw = {}
    if run.trace:
        values = run.layers
        entries = spec["per_layer"]
    else:
        values = end_to_end(run.timed, lambda r: r.scaled)
        values["setup_s"] = (median(s for _, s in run.setup_samples)
                             + run.derive_s[1])
        values["peak_rss_mb"] = peak_rss_mb()
        raw = end_to_end(run.timed, lambda r: r.wall)
        raw["setup_s"] = (median(w for w, _ in run.setup_samples)
                          + run.derive_s[0])
        entries = spec["end_to_end"]
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
               for e in entries}
    details = {
        "workload": run.workload, "seed": run.seed, "why": why,
        "trace": run.trace, "mix": mix, "rounds": run.rounds,
        "host": host, "setup_samples_s": run.setup_samples,
        "derive_s": run.derive_s, "values": values, "raw_wall": raw,
        "by_kind": by_kind(run.traced or run.timed),
        "closed_form": {str(r.req): r.extra for r in run.traced
                        if "refs" in r.extra},
        "requests": [{"request": str(r.req), "rid": r.rid, "wall_s": r.wall,
                      "scaled_s": r.scaled, "from_cache": r.from_cache,
                      "error": r.error}
                     for r in run.results],
    }
    stem = os.path.join(OUT_DIR, f"{run.workload}-seed{run.seed}"
                        f"-trace{int(run.trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    if run.trace:
        run.rec.write_jsonl(stem + ".spans.jsonl")

    print(f"host: nproc={host['nproc']} cpu_count={host['cpu_count']} "
          f"affinity={host['affinity']} python={host['python']} "
          f"numpy={host['numpy']} commit={host['commit']} "
          f"pinned_cpu={host['pinned_cpu']}")
    print(f"workload: {run.workload} seed={run.seed} rounds={run.rounds} "
          f"mix={mix}")
    print(f"why: {why}")
    failures = [r for r in run.results if r.error is not None]
    for r in failures[:10]:
        print(f"FAILED {r.req}: {r.error}")
    if len(failures) > 10:
        print(f"... and {len(failures) - 10} more failures")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    if not run.trace:
        print(f"  (times at the reference host speed, see speed.py; "
              f"request_tail_s is p{values['request_tail_pct']:.1f} of "
              f"{values['request_samples']} requests; setup_s is the median "
              f"of {len(run.setup_samples)} set-ups"
              + (f" + {run.derive_s[1]:.3f} s of closed-form derivation"
                 if run.derive_s[1] else "") + ")")
        print("  raw wall: " + " ".join(
            f"{k}={raw[k]:.6g}" for k in ("setup_s", "request_p50_s",
                                          "request_tail_s", "requests_per_s",
                                          "kaccess_per_s")))
        for name in ("error_rate", "fallback_rate", "static_band_err_max"):
            print(f"{name} = {values[name]:.6g} ratio")
    print(f"details: {stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
