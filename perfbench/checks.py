"""Correctness references and the checker every timed request passes.

``refs.json`` (written by ``make_refs.py``) holds, per kernel point:

* ``dynamic``: sha256 of the pickled ``dump_state()`` of a scalar
  ``Executor`` run on the treap engine — a path no workload times;
* ``static``: the same digest for the enumerated static engine, which
  closed-form evaluations must match byte for byte;
* ``accesses``: the modelled access count;
* ``bands``: the dynamic state's capacity-band masses per granularity
  (``repro.static.validate`` bands), for the static band error;

and per service spec the digest of a direct ``AnalysisSession`` run,
which the job's ``patterns`` artifact must match.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import Dict, List, Optional

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "refs.json")


def state_bytes(state: Dict) -> bytes:
    """The canonical bytes of an analyzer state (the service's
    ``patterns`` artifact encoding)."""
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def state_digest(state: Dict) -> str:
    return digest(state_bytes(state))


def band_masses(state: Dict) -> Dict[str, List[float]]:
    """Capacity-band masses (+ cold) per granularity of one state."""
    from repro.static.validate import BAND_EDGES, DEFAULT_EDGES, _band_masses
    return {g["name"]: _band_masses(g, BAND_EDGES.get(g["name"],
                                                      DEFAULT_EDGES))
            for g in state["grans"]}


def band_error(static_state: Dict, dynamic_bands: Dict[str, List[float]]
               ) -> float:
    """Worst gated relative band error of a static state against the
    dynamic reference masses, as ``repro validate`` gates it."""
    from repro.static.validate import MIN_SHARE
    worst = 0.0
    for name, sta in band_masses(static_state).items():
        dyn = dynamic_bands[name]
        total = sum(dyn) or 1.0
        for d, s in zip(dyn, sta):
            if d / total >= MIN_SHARE:
                worst = max(worst, abs(s - d) / max(d, 1.0))
    return worst


class Checker:
    """Checks request outputs against the committed references.

    Also enforces that every request on one kernel point renders the
    same reports and XML, whatever engine or path produced its state.
    """

    def __init__(self, refs: Optional[Dict] = None) -> None:
        if refs is None:
            with open(REFS_PATH, encoding="utf-8") as handle:
                refs = json.load(handle)
        self.refs = refs
        self._outputs: Dict[str, str] = {}

    def point(self, key: str) -> Dict:
        return self.refs["points"][key]

    def check_state(self, key: str, static: bool, state: Dict) -> Optional[str]:
        """None when ``state`` matches its reference, else the reason."""
        ref = self.point(key)
        want = ref["static" if static else "dynamic"]
        got = state_digest(state)
        if got != want:
            kind = "enumerated-static" if static else "treap reference"
            return f"{key}: state digest {got[:12]} != {kind} {want[:12]}"
        return None

    def check_outputs(self, key: str, static: bool, texts: List[str],
                      xml: str) -> Optional[str]:
        """Reports and XML must be non-empty and agree across paths."""
        if not all(texts) or not xml:
            return f"{key}: empty report or XML"
        joined = digest("\x00".join(texts + [xml]).encode())
        slot = f"{key}|{'static' if static else 'dynamic'}"
        seen = self._outputs.setdefault(slot, joined)
        if seen != joined:
            return f"{key}: reports differ between paths"
        return None

    def check_artifact(self, spec_key: str, data: bytes) -> Optional[str]:
        want = self.refs["service"][spec_key]
        got = digest(data)
        if got != want:
            return f"{spec_key}: patterns artifact {got[:12]} != {want[:12]}"
        return None

    def band_error(self, key: str, static_state: Dict) -> float:
        return band_error(static_state, self.point(key)["bands"])
