"""XML export of the scope tree and metrics (hpcviewer-style).

Section IV: "we output all metrics described in the previous sections in
XML format, and we use the hpcviewer user interface ... to explore the
data."  The schema here follows the same shape: a nested scope tree whose
elements carry per-metric attributes, plus a flat section for the reuse
patterns (which hpcviewer-style hierarchical aggregation cannot express).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, Optional

from repro.lang.ast import Program
from repro.model.predictor import Prediction
from repro.tools.atomicio import atomic_write_text
from repro.tools.carried import CarriedMisses
from repro.tools.flatdb import FlatDatabase
from repro.tools.scopetree import ROOT, ScopeTree


def export(prediction: Prediction, path: Optional[str] = None) -> str:
    """Serialize predictions to XML; returns the document text.

    If ``path`` is given the document is also written there.
    """
    program = prediction.program
    tree = ScopeTree(program)
    carried = CarriedMisses(prediction)
    flat = FlatDatabase(prediction)

    root = ET.Element("LocalityDatabase", program=program.name)
    scopes_el = ET.SubElement(root, "ScopeTree")

    dest_metrics = {
        name: pred.by_dest_scope() for name, pred in prediction.levels.items()
    }
    inclusive = {
        name: tree.inclusive(values) for name, values in dest_metrics.items()
    }

    def emit(sid: int, parent: ET.Element) -> None:
        if tree.is_file(sid):
            el = ET.SubElement(parent, "File", name=tree.name(sid))
            for child in tree.children.get(sid, ()):
                emit(child, el)
            return
        info = program.scope(sid)
        el = ET.SubElement(
            parent, "Scope",
            name=info.name, kind=info.kind, id=str(sid), loc=info.loc,
        )
        for level in prediction.levels:
            ET.SubElement(
                el, "Metric",
                name=f"{level}_misses",
                exclusive=f"{dest_metrics[level].get(sid, 0.0):.1f}",
                inclusive=f"{inclusive[level].get(sid, 0.0):.1f}",
                carried=f"{carried.carried[level].get(sid, 0.0):.1f}",
            )
        for child in tree.children.get(sid, ()):
            emit(child, el)

    for top in tree.children[ROOT]:
        emit(top, scopes_el)
    # emit's cell refers to emit itself: unbind it so the prediction it
    # closes over is freed by reference counting, not by the collector
    emit = None

    patterns_el = ET.SubElement(root, "ReusePatterns")
    for row in flat.rows:
        p_el = ET.SubElement(
            patterns_el, "Pattern",
            array=row.array,
            dest=flat.scope_label(row.dest_sid),
            source=flat.scope_label(row.src_sid),
            carrier=flat.scope_label(row.carry_sid),
        )
        for level, misses in row.misses.items():
            p_el.set(f"{level}_misses", f"{misses:.1f}")

    ET.indent(root)
    text = ET.tostring(root, encoding="unicode")
    if path is not None:
        # tmp + atomic rename: a crashed exporter never leaves a torn
        # XML database for a viewer (or a resumed service job) to choke on
        atomic_write_text(path, text)
    return text
