"""Batched trace pipeline: affinity detection and executor equivalence."""

import pytest

from repro.apps.gtc import VARIANTS, GTCParams, build_gtc
from repro.apps.spcg import build_cg
from repro.apps.sweep3d import SweepParams, build_variant
from repro.core import ReuseAnalyzer
from repro.lang import (
    BatchExecutor, Executor, FloorDiv, Max, MemoryLayout, Min, Mod,
    TraceRecorder, Var, assign, call, compile_loop, idx, load, loop, program,
    routine, run_program, run_program_batched, stmt, store,
)
from repro.core.tracestore import StreamRecorder
from tests.helpers import fed_analyzer

#: The paper's irregular kernels, at the engine-equivalence test sizes.
GTC_SMALL = GTCParams(mpsi=4, mtheta=6, micell=2, mzeta=2, timesteps=1)
IRREGULAR = {
    "gtc": lambda: build_gtc(None, GTC_SMALL),
    "gtc-tuned": lambda: build_gtc(VARIANTS[-1], GTC_SMALL),
    "cg": lambda: build_cg(grid=10, iterations=2),
}


def _finalized_loop(body_builder):
    """Build a one-routine program around a loop and return the Loop node."""
    lay = MemoryLayout()
    nest = body_builder(lay)
    prog = program("p", lay, [routine("main", nest)])
    return prog.routines["main"].body[0], prog


class TestAffinity:
    """Which plan kind a loop compiles to.

    Bodies that are not affine-batchable compile to a gather plan; only a
    nested loop, a call or an access-free body keeps the scalar walk
    (``compile_loop`` -> None).
    """

    def test_affine_subscripts_batchable(self):
        i = Var("i")
        lp, prog = _finalized_loop(lambda lay: loop(
            "i", 1, 8,
            stmt(load(lay.array("A", 16), i),
                 store(lay.array("B", 16, 4), i + 2, 3), ops=2)))
        plan = compile_loop(lp, prog)
        assert plan is not None and plan.kind == "affine"
        assert plan.k == 2
        assert plan.stores == (False, True)
        assert plan.n_loads == 1 and plan.n_stores == 1
        assert plan.ops == 2

    def test_indirect_subscript_not_batchable(self):
        i = Var("i")
        lp, prog = _finalized_loop(lambda lay: loop(
            "i", 1, 8,
            stmt(load(lay.array("A", 64),
                      idx(lay.index_array("P", 8), i)))))
        plan = compile_loop(lp, prog)
        assert plan.kind == "gather"
        assert plan.k == 2 and plan.n_loads == 2  # P(i), then A(P(i))

    def test_quadratic_subscript_not_batchable(self):
        i = Var("i")
        lp, prog = _finalized_loop(lambda lay: loop(
            "i", 1, 4, stmt(load(lay.array("A", 32), i * i))))
        assert compile_loop(lp, prog).kind == "gather"

    def test_scalar_assign_body_not_batchable(self):
        lp, prog = _finalized_loop(lambda lay: loop(
            "i", 1, 4, assign("t", Var("i")),
            stmt(load(lay.array("A", 8), Var("t")), ops=3)))
        plan = compile_loop(lp, prog)
        assert plan.kind == "gather"
        assert plan.k == 1 and plan.ops == 1 + 3

    def test_nested_loop_not_batchable(self):
        lp, prog = _finalized_loop(lambda lay: loop(
            "i", 1, 4, loop("j", 1, 4,
                            stmt(load(lay.array("A", 8, 8),
                                      Var("i"), Var("j"))))))
        assert compile_loop(lp, prog) is None
        # ... but its innermost loop is.
        assert compile_loop(lp.body[0], prog).kind == "affine"

    def test_call_not_batchable(self):
        lay = MemoryLayout()
        a = lay.array("A", 8)
        prog = program("p", lay, [
            routine("main", loop("i", 1, 4, stmt(load(a, Var("i"))),
                                 call("leaf"))),
            routine("leaf", stmt(store(a, 1))),
        ])
        assert compile_loop(prog.routines["main"].body[0], prog) is None

    def test_access_free_body_not_batchable(self):
        lp, prog = _finalized_loop(lambda lay: loop(
            "i", 1, 4, assign("t", Var("i") * 2), stmt(ops=2)))
        assert compile_loop(lp, prog) is None

    def test_floordiv_of_loop_var_not_batchable(self):
        i = Var("i")
        lp, prog = _finalized_loop(lambda lay: loop(
            "i", 1, 8, stmt(load(lay.array("A", 8),
                                 FloorDiv(i, 2) + 1))))
        assert compile_loop(lp, prog).kind == "gather"

    def test_env_invariant_floordiv_batchable(self):
        i, b = Var("i"), Var("blk")
        lp, prog = _finalized_loop(lambda lay: loop(
            "i", 1, 8, stmt(load(lay.array("A", 64),
                                 i + FloorDiv(b, 2)))))
        prog.params["blk"] = 4
        assert compile_loop(lp, prog).kind == "affine"


def _scalar_vs_batched(build):
    """Assert scalar and batched runs of fresh ``build()`` programs agree.

    Compares the full event stream and ``RunStats``, with the default
    chunk size and with 7-access chunks, so most loops span many chunks.
    """
    ref = TraceRecorder()
    ref_stats = vars(Executor(build(), ref).run())
    for chunk in (None, 7):
        rec = TraceRecorder()
        kwargs = {} if chunk is None else {"chunk_accesses": chunk}
        stats = BatchExecutor(build(), rec, **kwargs).run()
        assert rec.events == ref.events
        assert vars(stats) == ref_stats
    return ref


class TestExecutorEquivalence:
    @pytest.mark.parametrize("variant", ["original", "block2",
                                         "block6+dimic"])
    def test_sweep3d_identical_analysis(self, variant):
        params = SweepParams(n=5, mm=6, nm=2, noct=1)
        a1 = ReuseAnalyzer({"line": 64, "page": 512})
        s1 = Executor(build_variant(variant, params), a1).run()
        a2 = ReuseAnalyzer({"line": 64, "page": 512})
        s2 = BatchExecutor(build_variant(variant, params), a2).run()
        assert a2.dump_state() == a1.dump_state()
        assert vars(s2) == vars(s1)

    def test_event_stream_identical(self):
        params = SweepParams(n=4, mm=3, nm=2, noct=1)
        r1, r2 = TraceRecorder(), TraceRecorder()
        run_program(build_variant("original", params), r1)
        run_program_batched(build_variant("original", params), r2)
        assert r2.events == r1.events

    def test_negative_step_and_env_restore(self):
        def build(lay):
            a = lay.array("A", 16)
            return loop("i", 10, 2, stmt(load(a, Var("i"))), step=-2)
        _, prog = _finalized_loop(build)

        def build2(lay):
            a = lay.array("A", 16)
            return loop("i", 10, 2, stmt(load(a, Var("i"))), step=-2)
        _, prog2 = _finalized_loop(build2)
        r1, r2 = TraceRecorder(), TraceRecorder()
        assert vars(run_program(prog, r1)) == vars(
            run_program_batched(prog2, r2))
        assert r2.events == r1.events

    def test_zero_trip_loop_events_only(self):
        def build(lay):
            a = lay.array("A", 8)
            return loop("i", 5, 4, stmt(load(a, Var("i"))))
        _, prog = _finalized_loop(build)
        rec = TraceRecorder()
        stats = run_program_batched(prog, rec)
        assert stats.accesses == 0
        assert [e[0] for e in rec.events] == ["enter", "enter", "exit",
                                              "exit"]

    def test_chunking_preserves_results(self):
        params = SweepParams(n=4, mm=3, nm=2, noct=1)
        a1 = ReuseAnalyzer({"line": 64})
        BatchExecutor(build_variant("original", params), a1).run()
        a2 = ReuseAnalyzer({"line": 64})
        BatchExecutor(build_variant("original", params), a2,
                      chunk_accesses=7).run()
        assert a2.dump_state() == a1.dump_state()

    @pytest.mark.slow
    def test_sweep3d_production_mesh_equivalence(self):
        params = SweepParams(n=8, mm=6, nm=3, noct=2)
        a1 = ReuseAnalyzer({"line": 64, "page": 512})
        s1 = Executor(build_variant("original", params), a1).run()
        a2 = ReuseAnalyzer({"line": 64, "page": 512})
        s2 = BatchExecutor(build_variant("original", params), a2).run()
        assert a2.dump_state() == a1.dump_state()
        assert vars(s2) == vars(s1)

    def test_plan_cache_shared_per_program(self):
        params = SweepParams(n=4, mm=3, nm=2, noct=1)
        prog = build_variant("original", params)
        ex1 = BatchExecutor(prog, TraceRecorder())
        ex1.run()
        assert ex1._plans  # populated during the first run
        ex2 = BatchExecutor(prog, TraceRecorder())
        assert ex2._plans is ex1._plans

    @pytest.mark.parametrize("app", sorted(IRREGULAR))
    def test_irregular_identical_analysis(self, app):
        a1 = ReuseAnalyzer({"line": 64, "page": 512})
        s1 = Executor(IRREGULAR[app](), a1).run()
        a2 = ReuseAnalyzer({"line": 64, "page": 512})
        s2 = BatchExecutor(IRREGULAR[app](), a2).run()
        assert a2.dump_state() == a1.dump_state()
        assert vars(s2) == vars(s1)

    @pytest.mark.parametrize("app", sorted(IRREGULAR))
    def test_irregular_event_stream_identical(self, app):
        _scalar_vs_batched(IRREGULAR[app])

    @pytest.mark.parametrize("app", sorted(IRREGULAR))
    def test_irregular_chunking_preserves_results(self, app):
        a1 = ReuseAnalyzer({"line": 64})
        Executor(IRREGULAR[app](), a1).run()
        a2 = ReuseAnalyzer({"line": 64})
        BatchExecutor(IRREGULAR[app](), a2, chunk_accesses=7).run()
        assert a2.dump_state() == a1.dump_state()
        # the numpy engine, fed a recording of the same 7-access chunks
        rec = StreamRecorder()
        BatchExecutor(IRREGULAR[app](), rec, chunk_accesses=7).run()
        a3 = fed_analyzer(rec.finish(), {"line": 64})
        assert a3.dump_state() == a1.dump_state()


def _gather_program(body_builder, trailer_builder=None):
    """A one-routine program builder: ``body_builder``'s nodes, then
    ``trailer_builder``'s (statements that read what the loop left).

    ``body_builder(lay, P, Q)`` returns the routine's leading nodes; ``P``
    is an index array holding a shuffled permutation of 1..16 and ``Q``
    one holding negative and positive values, so gathers are irregular
    and integer division/modulo see both signs.
    """
    def build():
        lay = MemoryLayout()
        P = lay.index_array("P", 16)
        P.values[:] = [5, 12, 1, 16, 9, 3, 14, 7, 2, 11, 6, 15, 4, 13, 8, 10]
        Q = lay.index_array("Q", 16)
        Q.values[:] = [-7, 3, -1, 0, 12, -13, 5, -2, 8, -9, 1, -4, 6, -11,
                       2, -5]
        nodes = list(body_builder(lay, P, Q))
        if trailer_builder is not None:
            nodes += trailer_builder(lay)
        return program("p", lay, [routine("main", *nodes)])
    return build


class TestGatherLoops:
    """Synthetic gather loops: the edge cases of the batched gather plan."""

    @pytest.mark.parametrize("lo,hi,step", [
        (5, 4, 1), (3, 3, 1), (1, 16, 1), (16, 1, -3), (2, 15, 4),
        (9, 9, -1), (1, 2, -1),
    ])
    def test_trip_counts_and_steps(self, lo, hi, step):
        i = Var("i")
        trips = len(range(lo, hi + (1 if step > 0 else -1), step))

        def trailer(lay):
            # The loop variable is bound only once the loop has run.
            return [stmt(load(lay.get("A"), i))] if trips else []
        build = _gather_program(lambda lay, P, Q: [loop(
            "i", lo, hi,
            assign("t", idx(P, i)),
            stmt(load(lay.array("A", 16), Var("t")),
                 store(lay.array("B", 16), i), ops=3),
            step=step)], trailer)
        rec = _scalar_vs_batched(build)
        assert len(rec.accesses()) == 3 * trips + (1 if trips else 0)

    def test_load_directly_in_stmt_subscript(self):
        i = Var("i")
        build = _gather_program(lambda lay, P, Q: [loop(
            "i", 1, 15,
            stmt(load(lay.array("A", 16), idx(P, i)),
                 load(lay.array("C", 16, 4), idx(P, i + 1), 2),
                 store(lay.array("B", 16), idx(P, 17 - i)), ops=2))])
        rec = _scalar_vs_batched(build)
        assert len(rec.accesses()) == 15 * 6

    def test_scalar_assign_integer_semantics(self):
        i, t, u = Var("i"), Var("t"), Var("u")
        build = _gather_program(lambda lay, P, Q: [loop(
            "i", 1, 16,
            assign("t", FloorDiv(idx(Q, i) - 3, 4)),
            assign("u", Mod(idx(Q, i) * 5, -3) + Mod(t, 3)),
            assign("v", Max(Min(t, u, idx(Q, 17 - i)), -6)),
            stmt(load(lay.array("A", 64), t + 32),
                 load(lay.array("A2", 64), FloorDiv(u - 7, 2) + 32),
                 store(lay.array("B", 64), Var("v") + Mod(i - 9, 5) + 32),
                 ops=4))])
        rec = _scalar_vs_batched(build)
        # The expected values, evaluated with Python's floor semantics:
        q = [-7, 3, -1, 0, 12, -13, 5, -2, 8, -9, 1, -4, 6, -11, 2, -5]
        prog = build()
        a_rid = next(r.rid for r in prog.refs if r.array == "A")
        seen = [e[2] for e in rec.accesses() if e[1] == a_rid]
        base_a = prog.layout.get("A").base
        assert seen == [base_a + ((qi - 3) // 4 + 32 - 1) * 8 for qi in q]

    def test_non_affine_subscripts(self):
        i = Var("i")
        build = _gather_program(lambda lay, P, Q: [loop(
            "i", 12, -3, stmt(
                load(lay.array("A", 256), i * i + 1),
                load(lay.array("C", 64), FloorDiv(i, 2) + 8),
                store(lay.array("D", 64), Mod(i - 9, 4) + Max(i, 0)
                      + Min(i, -1) + 20), ops=2),
            step=-1)])
        _scalar_vs_batched(build)

    def test_body_reassigns_loop_variable(self):
        i = Var("i")
        build = _gather_program(lambda lay, P, Q: [loop(
            "i", 1, 6,
            stmt(load(lay.array("A", 64), i)),
            assign("i", idx(P, i) * 2 + 1),
            stmt(load(lay.get("A"), i), store(lay.array("B", 64), i)))],
            lambda lay: [stmt(load(lay.get("A"), Var("i")))])
        rec = _scalar_vs_batched(build)
        # Six iterations despite the reassignment, and the trailer reads
        # the last reassigned value: P(6) * 2 + 1 = 7.
        assert len(rec.accesses()) == 6 * 4 + 1
        a = build().layout.get("A")
        assert rec.accesses()[-1][2] == a.base + (7 - 1) * 8

    def test_scalar_read_after_loop(self):
        i = Var("i")
        build = _gather_program(lambda lay, P, Q: [
            assign("s", 3),
            loop("i", 2, 9,
                 stmt(load(lay.array("A", 32), Var("s"))),
                 assign("s", idx(P, i) + Var("s")),
                 stmt(store(lay.array("B", 64), Var("s")))),
        ], lambda lay: [stmt(load(lay.get("A"), Var("s") - 40),
                             store(lay.get("B"), Var("i")))])
        rec = _scalar_vs_batched(build)
        a = build().layout.get("A")
        # s = 3 + P(2) + ... + P(9)
        s = 3 + sum([12, 1, 16, 9, 3, 14, 7, 2])
        assert rec.accesses()[-2][2] == a.base + (s - 40 - 1) * 8

    def test_gather_inside_outer_loop_with_call(self):
        i, j = Var("i"), Var("j")

        def build():
            lay = MemoryLayout()
            P = lay.index_array("P", 4, 4)
            P.values[:] = [3, 1, 4, 2, 2, 4, 1, 3, 4, 3, 2, 1, 1, 2, 3, 4]
            A = lay.array("A", 4, 4)
            helper = routine("helper", stmt(store(A, 1, 1), ops=0))
            main = routine("main", loop(
                "j", 1, 4,
                assign("n", idx(P, 1, j)),
                loop("i", 1, "n",
                     stmt(load(A, idx(P, i, j), j), store(A, i, j))),
                call("helper")))
            return program("p", lay, [main, helper])
        _scalar_vs_batched(build)
