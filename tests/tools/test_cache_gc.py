"""Analysis-cache entries in the one GC pass: evicted under a size budget.

Coldest-first ranking, quarantined and temp files, and the writer lock
are in tests/tools/test_gc.py.
"""

import os

from repro.cli import main
from repro.tools import AnalysisCache
from repro.tools.gc import collect
from tests.helpers import cache_entries, removed_paths


class TestGcEntries:
    def test_under_budget_is_noop(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        keys = cache_entries(cache, 3)
        result = collect(cache_dir=str(tmp_path), max_bytes=1024 ** 3)
        assert result.removed == []
        assert result.freed_bytes == 0
        assert result.budgeted_after == result.budgeted_before > 0
        assert all(cache.get(k) is not None for k in keys)

    def test_dry_run_deletes_nothing(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        keys = cache_entries(cache, 4)
        result = collect(cache_dir=str(tmp_path), max_bytes=0, dry_run=True)
        assert removed_paths(result, "entry") == [cache._path(k)
                                                  for k in keys]
        for key in keys:
            assert os.path.exists(cache._path(key))

    def test_result_accounting(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        keys = cache_entries(cache, 6)
        before = sum(os.path.getsize(cache._path(k)) for k in keys)
        result = collect(cache_dir=str(tmp_path), max_bytes=before // 2)
        assert result.budgeted_before == before
        assert result.budgeted_after <= before // 2
        assert result.freed_bytes == (result.budgeted_before
                                      - result.budgeted_after)


class TestCacheGcCli:
    def test_gc_reports_and_evicts(self, tmp_path, capsys):
        cache = AnalysisCache(str(tmp_path))
        keys = cache_entries(cache, 5)
        assert main(["gc", "--max-gb", "0",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 5 item(s)" in out
        assert f"- entry {cache._path(keys[0])}" in out
        assert len(AnalysisCache(str(tmp_path))) == 0

    def test_gc_dry_run(self, tmp_path, capsys):
        cache = AnalysisCache(str(tmp_path))
        keys = cache_entries(cache, 3)
        assert main(["gc", "--max-gb", "0", "--dry-run",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "(dry run)" in out
        for key in keys:
            assert os.path.exists(cache._path(key))
