"""Calling-context extension (the paper's Section IV sketch)."""

import pytest

from repro.core import ReuseAnalyzer
from repro.core.context import CallingContextTree, for_program
from repro.lang import (
    MemoryLayout, Var, call, load, loop, program, routine, run_program,
    run_program_batched, stmt,
)


def _two_caller_prog(n=16):
    """`kernel` is called from two different routines touching one array."""
    lay = MemoryLayout()
    a = lay.array("A", n)
    kernel = routine("kernel",
                     loop("k", 1, n, stmt(load(a, Var("k"))), name="K"))
    caller1 = routine("caller1", call("kernel"))
    caller2 = routine("caller2", call("kernel"))
    main = routine("main",
                   loop("t", 1, 3, call("caller1"), call("caller2"),
                        name="T"))
    return program("p", lay, [main, caller1, caller2, kernel])


class TestCallingContextTree:
    def test_interning(self):
        cct = CallingContextTree()
        a = cct.child(0, 5)
        b = cct.child(0, 5)
        assert a == b
        c = cct.child(a, 7)
        assert c != a
        assert cct.path(c) == [5, 7]

    def test_root_path_empty(self):
        assert CallingContextTree().path(0) == []

    def test_label(self):
        prog = _two_caller_prog()
        cct = CallingContextTree()
        main = prog.scope_named("main").sid
        kernel = prog.scope_named("kernel").sid
        ctx = cct.child(cct.child(0, main), kernel)
        assert cct.label(ctx, prog) == "main -> kernel"


class TestContextAnalyzer:
    """Context-keyed analysis driven by the scalar executor; the subclass
    below drives the same cases through ``BatchExecutor``."""

    run = staticmethod(run_program)

    def test_collapse_matches_plain_analyzer(self):
        prog = _two_caller_prog()
        plain = ReuseAnalyzer({"line": 64})
        run_program(prog, plain)
        ctx_an = for_program(_two_caller_prog(), {"line": 64})
        self.run(_two_caller_prog(), ctx_an)
        collapsed = ctx_an.collapsed_db("line")
        assert collapsed.raw == plain.db("line").raw
        assert collapsed.cold == plain.db("line").cold

    def test_distinct_contexts_recorded(self):
        prog = _two_caller_prog()
        analyzer = for_program(prog, {"line": 64})
        self.run(prog, analyzer)
        # find the pattern(s) for the kernel's load and check they split
        # across (at least) the two caller contexts
        contexts = set()
        for (rid, _src, _carry, ctx) in analyzer.db("line").raw:
            contexts.add(ctx)
        labels = {analyzer.cct.label(c, prog) for c in contexts}
        assert "main -> caller1 -> kernel" in labels
        assert "main -> caller2 -> kernel" in labels

    def test_contexts_of_counts(self):
        prog = _two_caller_prog()
        analyzer = for_program(prog, {"line": 64})
        self.run(prog, analyzer)
        # pick the heaviest collapsed pattern and split it by context
        collapsed = analyzer.collapsed_db("line")
        key = max(collapsed.raw, key=lambda k: sum(collapsed.raw[k].values()))
        split = analyzer.contexts_of("line", *key)
        assert sum(split.values()) == sum(collapsed.raw[key].values())
        assert len(split) >= 2  # reuse seen from both callers

    def test_cct_stays_small(self):
        """Contexts are interned: size ~ distinct call paths, not calls."""
        prog = _two_caller_prog()
        analyzer = for_program(prog, {"line": 64})
        self.run(prog, analyzer)
        # main, caller1, caller2, kernel-under-1, kernel-under-2 (+root)
        assert len(analyzer.cct) <= 8


class TestContextAnalyzerBatched(TestContextAnalyzer):
    """Every batched loop must reach the context-aware ``access``."""

    run = staticmethod(run_program_batched)

    def test_batched_keys_carry_context(self):
        prog = _two_caller_prog()
        analyzer = for_program(prog, {"line": 64})
        self.run(prog, analyzer)
        assert analyzer.db("line").raw
        assert all(len(key) == 4 for key in analyzer.db("line").raw)


def test_numpy_engine_rejected():
    with pytest.raises(ValueError, match="calling context"):
        for_program(_two_caller_prog(), {"line": 64}, engine="numpy")
