"""Resilience primitives: policies, deadlines, failures, checkpoints."""

import json
import os
import pickle
import time

import pytest

from repro.apps.sweep3d import SweepParams, build_original
from repro.tools.resilience import (
    DEFAULT_POLICY, DeadlineExceeded, FailureKind, RetryPolicy,
    SweepCheckpoint, WorkerFailure, classify, deadline, retry_call,
)
from repro.tools.sweep import SweepTask


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)
        assert policy.backoff(3) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_jitter_is_seeded_and_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=42)
        a = [policy.backoff(i, policy.rng()) for i in range(3)]
        b = [policy.backoff(i, policy.rng()) for i in range(3)]
        assert a == b
        # jitter only ever adds, bounded by jitter * base
        assert all(0.1 * 2 ** i <= v <= 0.15 * 2 ** i
                   for i, v in enumerate(a))

    def test_should_retry_taxonomy(self):
        policy = RetryPolicy(retries=2)
        assert policy.should_retry(FailureKind.TRANSIENT, 0)
        assert policy.should_retry(FailureKind.TRANSIENT, 1)
        assert not policy.should_retry(FailureKind.TRANSIENT, 2)
        assert policy.should_retry(FailureKind.POISON, 0)
        assert not policy.should_retry(FailureKind.FATAL, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)

    def test_default_policy_has_no_deadline(self):
        assert DEFAULT_POLICY.timeout is None
        assert DEFAULT_POLICY.retries == 2


class TestClassify:
    @pytest.mark.parametrize("exc", [
        OSError("io"), EOFError(), TimeoutError(), MemoryError(),
        DeadlineExceeded("slow"), pickle.UnpicklingError("bad"),
    ])
    def test_transient(self, exc):
        assert classify(exc) is FailureKind.TRANSIENT

    @pytest.mark.parametrize("exc", [
        ValueError("bad"), KeyError("k"), AssertionError(),
        ZeroDivisionError(),
    ])
    def test_fatal(self, exc):
        assert classify(exc) is FailureKind.FATAL


class TestWorkerFailure:
    def test_from_exception_captures_everything(self):
        try:
            raise ValueError("kaboom")
        except ValueError as exc:
            failure = WorkerFailure.from_exception(exc, retries=3,
                                                   duration=1.25)
        assert failure.kind == "fatal"
        assert failure.summary == "ValueError: kaboom"
        assert failure.render().startswith("ValueError: kaboom\n")
        assert "Traceback" in failure.render()
        assert failure.retries == 3
        d = failure.to_dict()
        assert d["kind"] == "fatal" and d["duration"] == 1.25

    def test_kind_override(self):
        failure = WorkerFailure.from_exception(ValueError("x"),
                                               kind=FailureKind.POISON)
        assert failure.kind == "poison"


class TestDeadline:
    def test_interrupts_sleep(self):
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with deadline(0.05):
                time.sleep(5.0)
        assert time.monotonic() - t0 < 2.0

    def test_noop_when_disabled(self):
        with deadline(None):
            pass
        with deadline(0):
            pass

    def test_fast_block_unaffected(self):
        with deadline(5.0):
            x = sum(range(1000))
        assert x == 499500

    def test_restores_outer_timer(self):
        # the inner deadline must not disarm the outer one
        with pytest.raises(DeadlineExceeded):
            with deadline(0.2):
                with deadline(5.0):
                    pass
                time.sleep(5.0)

    def test_unsupported_host_degrades_loudly(self, obs_on, monkeypatch,
                                              caplog):
        from repro.tools import resilience
        monkeypatch.setattr(resilience, "_deadline_usable", lambda: False)
        monkeypatch.setattr(resilience, "_deadline_warned", False)
        with caplog.at_level("WARNING", logger="repro.tools.resilience"):
            with deadline(0.01):
                time.sleep(0.05)  # would raise if enforced
            with deadline(0.01):
                pass
        snap = obs_on.snapshot()
        assert snap["counters"]["resil.deadline_unsupported"] == 2
        warned = [r for r in caplog.records
                  if "cannot be enforced" in r.getMessage()]
        assert len(warned) == 1  # once per process, not per unit


class TestRetryCall:
    def test_retries_transient_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("hiccup")
            return "ok"

        slept = []
        result = retry_call(flaky, RetryPolicy(retries=3, jitter=0.0),
                            sleep=slept.append)
        assert result == "ok"
        assert len(calls) == 3
        assert len(slept) == 2

    def test_fatal_raises_immediately(self):
        calls = []

        def bad():
            calls.append(1)
            raise ValueError("no")

        with pytest.raises(ValueError):
            retry_call(bad, RetryPolicy(retries=5), sleep=lambda _s: None)
        assert len(calls) == 1

    def test_budget_exhaustion_propagates(self):
        def always():
            raise OSError("down")

        with pytest.raises(OSError):
            retry_call(always, RetryPolicy(retries=2, jitter=0.0),
                       sleep=lambda _s: None)


def _task(n=4, **kw):
    return SweepTask(key=n, builder=build_original,
                     args=(SweepParams(n=n, mm=3, nm=2, noct=1),),
                     mode="analyze", **kw)


class TestSweepCheckpoint:
    def test_round_trip(self, tmp_path):
        import hashlib

        ckpt = SweepCheckpoint(str(tmp_path / "ck.jsonl"))
        digest = SweepCheckpoint.unit_digest(_task())
        assert ckpt.load() == {}
        payload = {"totals": {"L2": 7}}
        ckpt.record(digest, "unit-4", payload)
        journal = ckpt.load()
        # payloads are named by content hash (for dedup), not unit digest
        content = hashlib.sha256(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        ).hexdigest()
        assert journal == {digest: content + ".pkl"}
        assert ckpt.restore(digest, journal[digest]) == payload

    def test_digest_changes_with_recipe(self):
        base = SweepCheckpoint.unit_digest(_task(4))
        assert SweepCheckpoint.unit_digest(_task(5)) != base
        assert SweepCheckpoint.unit_digest(_task(4, shards=2)) != base
        assert (SweepCheckpoint.unit_digest(_task(4, engine="fenwick"))
                != base)
        assert SweepCheckpoint.unit_digest(_task(4)) == base

    def test_digest_matches_earlier_journals(self):
        # the digest a task had when sweeps still split sharded tasks
        # into one pool unit per shard: journals written then resume
        assert SweepCheckpoint.unit_digest(_task(4)) == (
            "391f3d6083cfd19819ad8228dd7224df"
            "3545353304a46a74b1d9999c413b0bde")

    def test_truncated_final_line_skipped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ckpt = SweepCheckpoint(str(path))
        d1 = SweepCheckpoint.unit_digest(_task(4))
        d2 = SweepCheckpoint.unit_digest(_task(5))
        ckpt.record(d1, "a", 1)
        after_first = ckpt.load()
        ckpt.record(d2, "b", 2)
        text = path.read_text()
        path.write_text(text[:-20])  # crash mid-append of the last line
        assert ckpt.load() == after_first
        assert set(after_first) == {d1}

    def test_missing_payload_degrades_to_recompute(self, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "ck.jsonl"))
        digest = SweepCheckpoint.unit_digest(_task())
        ckpt.record(digest, "a", {"x": 1})
        journal = ckpt.load()
        assert digest in journal
        os.unlink(os.path.join(ckpt.payload_dir, journal[digest]))
        assert ckpt.restore(digest, journal[digest]) is None

    def test_corrupt_payload_degrades_to_recompute(self, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "ck.jsonl"))
        digest = SweepCheckpoint.unit_digest(_task())
        ckpt.record(digest, "a", {"x": 1})
        payload_path = os.path.join(ckpt.payload_dir, digest + ".pkl")
        with open(payload_path, "wb") as fh:
            fh.write(b"\x00garbage")
        assert ckpt.restore(digest, digest + ".pkl") is None

    def test_version_mismatch_invalidates_journal(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ckpt = SweepCheckpoint(str(path))
        digest = SweepCheckpoint.unit_digest(_task())
        ckpt.record(digest, "a", 1)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 999
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert ckpt.load() == {}

    def test_fsync_mode_round_trips(self, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "ck.jsonl"), fsync=True)
        digest = SweepCheckpoint.unit_digest(_task())
        ckpt.record(digest, "a", [1, 2, 3])
        journal = ckpt.load()
        assert ckpt.restore(digest, journal[digest]) == [1, 2, 3]

    def test_identical_payloads_share_one_sidecar(self, obs_on, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "ck.jsonl"))
        d1 = SweepCheckpoint.unit_digest(_task(4))
        d2 = SweepCheckpoint.unit_digest(_task(5))
        payload = {"totals": {"L2": 7}}
        ckpt.record(d1, "a", payload)
        ckpt.record(d2, "b", payload)
        journal = ckpt.load()
        assert journal[d1] == journal[d2]
        assert len(os.listdir(ckpt.payload_dir)) == 1
        snap = obs_on.snapshot()
        assert snap["counters"]["resil.checkpoint_dedup"] == 1
        assert ckpt.restore(d1, journal[d1]) == payload
        assert ckpt.restore(d2, journal[d2]) == payload

    def test_cache_backed_payloads(self, obs_on, tmp_path):
        from repro.tools.cache import AnalysisCache
        cache = AnalysisCache(str(tmp_path / "cache"))
        ckpt = SweepCheckpoint(str(tmp_path / "ck.jsonl"), cache=cache)
        d1 = SweepCheckpoint.unit_digest(_task(4))
        d2 = SweepCheckpoint.unit_digest(_task(5))
        ckpt.record(d1, "a", {"x": 1})
        ckpt.record(d2, "b", {"x": 1})
        journal = ckpt.load()
        assert journal[d1].startswith("cache:")
        assert journal[d1] == journal[d2]
        # payloads live in the cache blob store, not a sidecar dir
        assert not os.path.exists(ckpt.payload_dir)
        snap = obs_on.snapshot()
        assert snap["counters"]["resil.checkpoint_dedup"] == 1
        assert ckpt.restore(d1, journal[d1]) == {"x": 1}
        # a resume without the cache attached degrades to recompute
        bare = SweepCheckpoint(str(tmp_path / "ck.jsonl"))
        assert bare.restore(d1, journal[d1]) is None

    def test_legacy_unit_named_payload_restores(self, tmp_path):
        # journals written before content addressing named payloads by
        # the unit digest; restore must still read them
        ckpt = SweepCheckpoint(str(tmp_path / "ck.jsonl"))
        digest = SweepCheckpoint.unit_digest(_task())
        os.makedirs(ckpt.payload_dir, exist_ok=True)
        with open(os.path.join(ckpt.payload_dir, digest + ".pkl"),
                  "wb") as fh:
            fh.write(pickle.dumps({"x": 2}))
        assert ckpt.restore(digest, digest + ".pkl") == {"x": 2}
