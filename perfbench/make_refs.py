#!/usr/bin/env python3
"""Regenerate ``refs.json``, the benchmark's correctness references.

Dynamic references come from the scalar ``Executor`` on the treap
engine, a path no workload times, so a bug in any timed engine cannot
also be baked into its reference.  Run from the repository root (a few
minutes; the scalar path is slow by design)::

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    import numpy
    from repro.apps.registry import build_workload
    from repro.tools.session import AnalysisSession

    from checks import REFS_PATH, band_masses, state_digest
    from decks import reference_points, service_specs
    from svc import spec_key

    points = {}
    for kernel, _free, params in reference_points():
        program = build_workload(kernel, **dict(params))
        ref = AnalysisSession(program, engine="treap", batch=False).run()
        est = AnalysisSession(program, engine="static").run()
        state = ref.analyzer.dump_state()
        key = kernel + ":" + ",".join(f"{k}={v}" for k, v in params)
        points[key] = {
            "accesses": ref.stats.accesses,
            "dynamic": state_digest(state),
            "static": state_digest(est.analyzer.dump_state()),
            "bands": band_masses(state),
        }
        print(f"{key}: {ref.stats.accesses} accesses", flush=True)

    service = {}
    for req in service_specs():
        if spec_key(req) in service:
            continue
        program = build_workload(req.kernel, **req.param_dict)
        direct = AnalysisSession(program, engine=req.path).run()
        digest = state_digest(direct.analyzer.dump_state())
        want = points[req.key]["static" if req.static else "dynamic"]
        if digest != want:
            raise SystemExit(f"{spec_key(req)}: direct run disagrees with "
                             "the reference")
        service[spec_key(req)] = digest

    refs = {"python": platform.python_version(), "numpy": numpy.__version__,
            "points": points, "service": service}
    with open(REFS_PATH, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
