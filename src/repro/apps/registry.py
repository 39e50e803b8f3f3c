"""Workload registry: every analyzable kernel, buildable by name.

The CLI, the sweep drivers, and the analysis service all need to turn a
plain string (``"sweep3d"``) plus a parameter dict into a
:class:`~repro.lang.ast.Program`.  This module is the one place that
mapping lives, so a new workload added here is immediately reachable
from ``repro analyze``, ``repro sweep``, and a service job submission
alike.

Builders validate their parameters strictly — an unknown key raises
``ValueError`` rather than being ignored — because job specs arrive
from untrusted HTTP clients and a silently-dropped typo ("meshh") would
analyze the wrong problem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - loads with the first build
    from repro.lang.ast import Program

#: workload name -> one-line description (the ``repro list`` view).
WORKLOADS: Dict[str, str] = {
    "fig1": "the paper's Fig 1(a) interchange example",
    "fig2": "the paper's Fig 2 fragmentation example",
    "triad": "STREAM triad over time steps",
    "gather": "irregular indirect gather",
    "cg": "sparse CG solver on a badly-ordered CSR matrix",
    "sweep3d": "Sweep3D wavefront kernel (original)",
    "gtc": "GTC particle-in-cell kernel (original)",
}

#: workload name -> (allowed parameter names, defaults).
_PARAMS: Dict[str, Dict[str, Any]] = {
    "fig1": {"n": 96, "m": 96},
    "fig2": {"n": 128, "m": 64},
    "triad": {"n": 4096, "steps": 2},
    "gather": {"n": 2048, "m": 8192},
    "cg": {"grid": 24, "ordering": "shuffled"},
    "sweep3d": {"mesh": 8, "mm": 6, "nm": 3, "noct": 2, "kb": 1,
                "timesteps": 1},
    "gtc": {"micell": 6, "mpsi": 16, "mtheta": 24, "mzeta": 8,
            "timesteps": 2},
}


def workload_names() -> Tuple[str, ...]:
    return tuple(sorted(WORKLOADS))


def workload_params(name: str) -> Dict[str, Any]:
    """The accepted parameter names and their defaults for one workload."""
    if name not in _PARAMS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"known: {', '.join(workload_names())}")
    return dict(_PARAMS[name])


def _resolve(name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    allowed = workload_params(name)
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(
            f"workload {name!r} does not accept parameter(s) "
            f"{', '.join(unknown)}; accepted: {', '.join(sorted(allowed))}")
    allowed.update(params)
    return allowed


def build_workload(name: str, **params: Any) -> Program:
    """Build one named workload with parameter overrides.

    Raises ``ValueError`` for an unknown workload name or an unaccepted
    parameter key — service job validation depends on that strictness.
    """
    p = _resolve(name, params)
    if name == "fig1":
        from repro.apps.kernels import fig1_interchange
        return fig1_interchange(p["n"], p["m"])
    if name == "fig2":
        from repro.apps.kernels import fig2_fragmentation
        return fig2_fragmentation(p["n"], p["m"])
    if name == "triad":
        from repro.apps.kernels import stream_triad
        return stream_triad(p["n"], p["steps"])
    if name == "gather":
        from repro.apps.kernels import irregular_gather
        return irregular_gather(p["n"], p["m"])
    if name == "cg":
        from repro.apps.spcg import build_cg
        return build_cg(grid=p["grid"], ordering=p["ordering"])
    if name == "sweep3d":
        from repro.apps.sweep3d import SweepParams, build_original
        return build_original(SweepParams(
            n=p["mesh"], mm=p["mm"], nm=p["nm"], noct=p["noct"],
            kb=p["kb"], timesteps=p["timesteps"]))
    if name == "gtc":
        from repro.apps.gtc import GTCParams, build_gtc
        return build_gtc(None, GTCParams(
            micell=p["micell"], mpsi=p["mpsi"], mtheta=p["mtheta"],
            mzeta=p["mzeta"], timesteps=p["timesteps"]))
    raise ValueError(f"unknown workload {name!r}")  # pragma: no cover
