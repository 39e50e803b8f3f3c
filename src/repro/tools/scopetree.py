"""Program scope tree with inclusive/exclusive metric aggregation.

Section IV: "For all metrics we compute aggregated values at each level of
the program scope tree ... We can visualize both the exclusive and the
inclusive values of the metrics at each level."

The tree follows the paper exactly: program root → source files → routines
→ loops (nested by source structure).  File nodes are synthesized from the
routines' source locations ("On the second level of the tree we have
source code files").  Any ``{scope id: value}`` metric can be aggregated;
carried-miss metrics are deliberately *not* aggregated hierarchically (the
paper argues this is meaningless) — they are reported flat, per scope.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.lang.ast import Program, ScopeInfo

#: Scope id of the synthetic whole-program root.
ROOT = -2
#: Synthetic file-node ids start below this (ROOT and -1 stay reserved).
_FILE_BASE = -10


class ScopeTree:
    """Static scope hierarchy of one program."""

    def __init__(self, program: Program, group_by_file: bool = True) -> None:
        self.program = program
        self.children: Dict[int, List[int]] = {ROOT: []}
        #: synthetic file-node id -> file name
        self.files: Dict[int, str] = {}
        file_ids: Dict[str, int] = {}
        for info in program.scopes:
            self.children.setdefault(info.sid, [])
            if info.parent >= 0:
                parent = info.parent
            elif group_by_file:
                file_name = _file_of(info)
                if file_name not in file_ids:
                    fid = _FILE_BASE - len(file_ids)
                    file_ids[file_name] = fid
                    self.files[fid] = file_name
                    self.children[fid] = []
                    self.children[ROOT].append(fid)
                parent = file_ids[file_name]
            else:
                parent = ROOT
            self.children.setdefault(parent, []).append(info.sid)

    def walk(self, sid: int = ROOT) -> Iterator[int]:
        """Pre-order scope ids (the root itself is not yielded)."""
        for child in self.children.get(sid, ()):
            yield child
            yield from self.walk(child)

    def inclusive(self, exclusive: Dict[int, float]) -> Dict[int, float]:
        """Inclusive values: own contribution plus all descendants'."""
        out: Dict[int, float] = {}

        def total(sid: int) -> float:
            value = exclusive.get(sid, 0.0)
            for child in self.children.get(sid, ()):
                value += total(child)
            out[sid] = value
            return value

        root_total = 0.0
        for top in self.children[ROOT]:
            root_total += total(top)
        total = None  # break the self-reference (freed by refcount)
        out[ROOT] = root_total + exclusive.get(ROOT, 0.0)
        return out

    def name(self, sid: int) -> str:
        if sid == ROOT:
            return "<program>"
        if sid in self.files:
            return self.files[sid]
        if sid < 0:
            return "<none>"
        info = self.program.scope(sid)
        if info.kind == "routine":
            return info.name
        return f"{info.routine}:{info.name}"

    def is_file(self, sid: int) -> bool:
        return sid in self.files

    def depth(self, sid: int) -> int:
        if sid in self.files:
            return 0
        if sid < 0:
            return 0
        info = self.program.scope(sid)
        return info.depth + 1

    def render(self, exclusive: Dict[int, float], title: str = "metric",
               min_value: float = 0.0) -> str:
        """Indented text rendering with inclusive and exclusive columns."""
        inclusive = self.inclusive(exclusive)
        lines = [f"{'scope':<44} {'inclusive':>12} {'exclusive':>12}"]
        lines.append("-" * 70)

        def emit(sid: int, indent: int) -> None:
            inc = inclusive.get(sid, 0.0)
            exc = exclusive.get(sid, 0.0)
            if inc < min_value and exc < min_value:
                return
            label = ("  " * indent) + self.name(sid)
            lines.append(f"{label:<44} {inc:>12.0f} {exc:>12.0f}")
            for child in self.children.get(sid, ()):
                emit(child, indent + 1)

        lines.insert(0, f"== {title} ==")
        for top in self.children[ROOT]:
            emit(top, 0)
        emit = None  # break the self-reference (freed by refcount)
        return "\n".join(lines)


def _file_of(info: ScopeInfo) -> str:
    """Source file of a routine, from its location string."""
    loc = info.loc or info.name
    return loc.split(":", 1)[0]
