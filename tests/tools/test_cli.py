"""Command-line interface."""

import json
import logging
import os

import pytest

from repro import obs
from repro.cli import build_parser, main


@pytest.fixture
def reset_obs():
    """Restore the obs-disabled default after CLI runs that enable it."""
    yield
    obs.set_enabled(False)
    obs.registry().reset()
    obs.tracer().reset()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "fig1"])
        args_gtc = build_parser().parse_args(
            ["analyze", "gtc", "--micell", "3", "--level", "L3"])
        assert args.workload == "fig1"
        assert args.level == "L2"
        assert args_gtc.micell == 3
        assert args_gtc.level == "L3"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "bogus"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sweep3d" in out and "gtc" in out
        assert "block6+dimic" in out

    def test_analyze_fig2(self, capsys):
        assert main(["analyze", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "predicted misses" in out
        assert "carrying scope" in out
        assert "fragmentation" in out

    def test_analyze_cg_grid(self, tmp_path, capsys):
        from repro.apps.registry import build_workload
        from repro.lang.executor import run_program
        path = str(tmp_path / "run.json")
        assert main(["analyze", "cg", "--grid", "12", "--no-cache",
                     "--manifest-out", path]) == 0
        assert "predicted misses" in capsys.readouterr().out
        want = run_program(build_workload("cg", grid=12)).accesses
        assert json.load(open(path))["events"]["accesses"] == want
        # no flag: the registry's grid
        assert build_parser().parse_args(["analyze", "cg"]).grid is None

    def test_analyze_with_xml(self, tmp_path, capsys):
        xml = tmp_path / "db.xml"
        assert main(["analyze", "fig1", "--xml", str(xml)]) == 0
        assert xml.exists()
        assert "<LocalityDatabase" in xml.read_text()

    def test_measure_sweep3d(self, capsys):
        assert main(["measure", "sweep3d", "--mesh", "6"]) == 0
        out = capsys.readouterr().out
        assert "block6+dimic" in out
        assert "speedup" in out

    def test_measure_gtc(self, capsys):
        assert main(["measure", "gtc", "--micell", "2"]) == 0
        out = capsys.readouterr().out
        assert "+zion transpose" in out
        assert "+pushi tiling/fusion" in out

    def test_measure_parallel_jobs(self, capsys):
        assert main(["measure", "sweep3d", "--mesh", "4", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["measure", "sweep3d", "--mesh", "4", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial  # workers change nothing but wall clock

    def test_analyze_cache_roundtrip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["analyze", "fig1"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "fig1"]) == 0   # cache hit
        second = capsys.readouterr().out
        assert second == first
        assert any(f.endswith(".pkl") for _, _, fs in os.walk(str(tmp_path))
                   for f in fs)

    def test_analyze_no_cache_writes_nothing(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["analyze", "fig1", "--no-cache"]) == 0
        assert "predicted misses" in capsys.readouterr().out
        assert not any(fs for _, _, fs in os.walk(str(tmp_path)))


class TestSweepCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "sweep3d"])
        assert args.mesh == [6, 8]
        assert args.retries == 2
        assert args.timeout is None
        assert not args.resume

    def test_sweep_smoke(self, capsys):
        assert main(["sweep", "sweep3d", "--mesh", "4"]) == 0
        captured = capsys.readouterr()
        assert "sweep3d-n4" in captured.out
        assert "ok" in captured.out
        assert "sweeping 1 sweep3d task(s)" in captured.err

    def test_manifest_out_and_stats_view(self, tmp_path, capsys,
                                         reset_obs):
        path = str(tmp_path / "sweep.json")
        assert main(["sweep", "sweep3d", "--mesh", "4",
                     "--manifest-out", path]) == 0
        capsys.readouterr()
        data = json.load(open(path))
        assert data["kind"] == "sweep"
        assert data["tasks"] == 1
        assert data["failures"] == 0
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "sweep manifest: 1 task(s), 0 failed" in out
        assert "sweep3d-n4" in out

    def test_resume_requires_checkpoint_flag(self):
        with pytest.raises(SystemExit, match="requires --checkpoint"):
            main(["sweep", "sweep3d", "--resume"])

    def test_existing_checkpoint_requires_resume(self, tmp_path):
        ckpt = tmp_path / "ck"
        ckpt.mkdir()
        with pytest.raises(SystemExit, match="already exists"):
            main(["sweep", "sweep3d", "--checkpoint", str(ckpt)])

    def test_resume_without_file_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="nothing to resume"):
            main(["sweep", "sweep3d", "--resume",
                  "--checkpoint", str(tmp_path / "missing")])

    def test_checkpoint_file_is_a_usage_error(self, tmp_path, capsys):
        # a JSONL journal written before record files is not read
        journal = tmp_path / "ck.jsonl"
        journal.write_text('{"kind": "sweep-checkpoint", "version": 1}\n')
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "sweep3d", "--mesh", "4",
                  "--checkpoint", str(journal), "--resume"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not a directory" in err and str(journal) in err
        assert "sweeping" not in err  # refused before any task ran

    def test_checkpoint_then_resume_roundtrip(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ck")
        assert main(["sweep", "sweep3d", "--mesh", "4",
                     "--checkpoint", ckpt]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "sweep3d", "--mesh", "4",
                     "--checkpoint", ckpt, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == first  # restored units render identically


class TestObservability:
    def test_analyze_profile_prints_manifest(self, capsys, reset_obs):
        assert main(["analyze", "fig1", "--no-cache", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "run manifest: fig1a" in out
        assert "execute" in out
        assert "accesses=" in out
        assert "analyzer.batch_events" in out
        # the default path builds its input from the enumeration: no
        # BatchExecutor walk, so no batch.* counters
        assert "executor ran: enumerated" in out
        assert "analyzer.np_walk_latency" in out
        assert "batch.fallback_loops" not in out

    def test_profile_with_cache_shows_hit_miss(self, tmp_path, monkeypatch,
                                               capsys, reset_obs):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["analyze", "fig1", "--profile"]) == 0
        assert "cache: miss" in capsys.readouterr().out
        assert main(["analyze", "fig1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cache: hit" in out
        assert "cache.hits" in out

    def test_manifest_out_and_stats_roundtrip(self, tmp_path, capsys,
                                              reset_obs):
        path = str(tmp_path / "run.json")
        assert main(["analyze", "fig1", "--no-cache",
                     "--manifest-out", path]) == 0
        capsys.readouterr()
        data = json.load(open(path))
        assert data["program"] == "fig1a"
        assert data["events"]["accesses"] > 0
        assert data["executor_ran"] == "enumerated"
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "run manifest: fig1a" in out
        assert "execute" in out
        assert "executor ran: enumerated" in out

    def test_trace_out_writes_jsonl_spans(self, tmp_path, capsys,
                                          reset_obs):
        path = str(tmp_path / "run.trace.jsonl")
        assert main(["analyze", "fig1", "--no-cache",
                     "--trace-out", path]) == 0
        spans = [json.loads(line)
                 for line in open(path).read().splitlines()]
        names = [s["name"] for s in spans]
        assert "session.run" in names
        assert "execute" in names

    def test_profile_output_identical_reports(self, tmp_path, monkeypatch,
                                              capsys, reset_obs):
        # reports themselves must not change when obs is on
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c1"))
        assert main(["analyze", "fig2"]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c2"))
        assert main(["analyze", "fig2", "--profile"]) == 0
        profiled = capsys.readouterr().out
        assert profiled.startswith(plain)
        assert "run manifest" in profiled[len(plain):]

    def test_verbosity_flags_set_logger_level(self, reset_obs):
        assert main(["-v", "list"]) == 0
        assert logging.getLogger("repro").level == logging.INFO
        assert main(["-vv", "list"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        assert main(["-q", "list"]) == 0
        assert logging.getLogger("repro").level == logging.ERROR
        assert main(["list"]) == 0
        assert logging.getLogger("repro").level == logging.WARNING


class TestStaticCli:
    def test_analyze_static_engine(self, capsys):
        assert main(["analyze", "sweep3d", "--mesh", "6",
                     "--engine", "static", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "estimating sweep3d-original analytically" in captured.err
        assert "predicted misses" in captured.out

    def test_validate_single_workload(self, capsys):
        assert main(["validate", "triad",
                     "--param", "n=64", "--param", "steps=2"]) == 0
        out = capsys.readouterr().out
        assert "triad(n=64, steps=2): PASS" in out
        assert "1/1 validation size(s) within tolerance" in out

    def test_validate_bad_param(self):
        with pytest.raises(SystemExit):
            main(["validate", "triad", "--param", "n64"])

    def test_validate_impossible_tolerance_fails(self, capsys):
        # sweep3d is approximate, so a zero tolerance must exit nonzero
        assert main(["validate", "sweep3d", "--param", "mesh=6",
                     "--tolerance", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out
