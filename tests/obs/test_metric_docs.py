"""Every metric the package emits is listed in docs/architecture.md."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "architecture.md"
KINDS = {"counter", "timer", "gauge", "histogram"}


def _literals(node):
    """The string values an expression can evaluate to (literals and
    conditional expressions of literals)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _literals(node.body) | _literals(node.orelse)
    return set()


def _emitted_names():
    """String literals passed as the name to ``counter(``, ``timer(``,
    ``gauge(`` or ``histogram(`` anywhere under ``src/repro``.

    A name passed through a variable resolves to the literals assigned to
    that variable in the same file (``Supervisor.check`` picks
    ``svc.rss_killed`` or ``svc.stuck_killed`` that way).
    """
    names = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assigned = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, set()).update(
                            _literals(node.value))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            kind = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if kind not in KINDS:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Name):
                names |= assigned.get(arg.id, set())
            else:
                names |= _literals(arg)
    return names


def test_every_emitted_metric_is_documented():
    names = _emitted_names()
    assert {"svc.rss_killed", "svc.stuck_killed",
            "analyzer.np_flush_latency",
            "analyzer.np_count_smaller_latency"} <= names
    assert len(names) >= 65
    doc = DOC.read_text(encoding="utf-8")
    missing = sorted(
        n for n in names
        if not re.search(r"(?<![\w.])" + re.escape(n) + r"(?![\w.])", doc))
    assert not missing, f"metrics missing from {DOC.name}: {missing}"
