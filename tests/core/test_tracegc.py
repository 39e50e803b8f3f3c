"""Trace stores in the one GC pass (:func:`repro.tools.gc.collect`).

A store counts against the pass's budget at its size on disk, the
coldest stores go first, and a store that a live service job replays is
pinned.  Ranking against cache entries, junk dirs and the counters are
in tests/tools/test_gc.py.
"""

import json
import os

from repro.cli import main
from repro.service.jobs import JobSpec
from repro.tools.atomicio import atomic_write_text
from repro.tools.gc import collect
from tests.helpers import (
    LONG_AGO, removed_paths, service_state, spilled_store, tree_bytes,
)


def _replaying(store, path):
    """A started job whose ``status.json`` names the store it replays."""
    job = store.submit("t", JobSpec.from_dict(
        {"workload": "fig1", "use_trace_store": True}))
    store.mark_started(job.id)
    atomic_write_text(store.status_path(job.id), json.dumps(
        {"phase": "analyze", "trace_path": path}))
    return job


class TestScan:
    def test_scan_lists_stores_with_sizes(self, tmp_path):
        old = spilled_store(tmp_path, 8, LONG_AGO)
        new = spilled_store(tmp_path, 12, LONG_AGO + 100)
        sizes = [tree_bytes(old), tree_bytes(new)]
        result = collect(trace_dir=str(tmp_path), max_bytes=0)
        # coldest first, each at its size on disk
        assert result.removed == [("store", old, sizes[0]),
                                  ("store", new, sizes[1])]
        assert all(size > 0 for size in sizes)
        assert result.budgeted_before == sum(sizes)
        assert result.budgeted_after == 0


class TestGC:
    def test_under_budget_evicts_nothing(self, tmp_path):
        store = spilled_store(tmp_path, 8, LONG_AGO)
        total = tree_bytes(store)
        result = collect(trace_dir=str(tmp_path), max_bytes=total)
        assert result.removed == []
        assert result.freed_bytes == 0
        assert result.budgeted_after == total
        assert os.path.exists(store)

    def test_protected_stores_survive_even_over_budget(self, tmp_path):
        state, store, _cache = service_state(tmp_path)
        traces = os.path.join(state, "traces")
        cold = spilled_store(traces, 8, LONG_AGO)
        hot = spilled_store(traces, 12, LONG_AGO + 100)
        _replaying(store, cold)
        result = collect(state, max_bytes=0)
        assert removed_paths(result, "store") == [hot]
        assert not os.path.exists(hot)
        assert os.path.exists(cold)
        assert result.budgeted_after == tree_bytes(cold) > 0  # cold stayed

    def test_dry_run_deletes_nothing(self, tmp_path):
        cold = spilled_store(tmp_path, 8, LONG_AGO)
        result = collect(trace_dir=str(tmp_path), max_bytes=0, dry_run=True)
        assert result.removed == [("store", cold, tree_bytes(cold))]
        assert os.path.exists(cold)


class TestCLI:
    def test_trace_gc_command(self, tmp_path, capsys):
        cold = spilled_store(tmp_path, 8, LONG_AGO)
        hot = spilled_store(tmp_path, 12, LONG_AGO + 100)
        assert main(["gc", "--trace-dir", str(tmp_path),
                     "--max-gb", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 item(s)" in out
        assert out.index(f"- store {cold}") < out.index(f"- store {hot}")
        assert not os.path.exists(cold)

    def test_trace_gc_protects_live_service_jobs(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        live = spilled_store(trace_dir, 8, LONG_AGO)
        dead = spilled_store(trace_dir, 12, LONG_AGO + 100)
        state, store, _cache = service_state(tmp_path)
        _replaying(store, live)
        assert main(["gc", "--state-dir", state, "--trace-dir",
                     str(trace_dir), "--max-gb", "0"]) == 0
        assert os.path.exists(live)
        assert not os.path.exists(dead)
