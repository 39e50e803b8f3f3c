"""Resilience primitives: policies, deadlines, failures, checkpoints."""

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
        ckpt = SweepCheckpoint(str(tmp_path / "ck"))
        digest = SweepCheckpoint.unit_digest(_task())
        assert ckpt.restore(digest) is None
        ckpt.record(digest, {"totals": {"L2": 7}})
        # one file per task, named by the task's digest
        assert os.listdir(ckpt.path) == [digest + ".pkl"]
        assert ckpt.restore(digest) == {"totals": {"L2": 7}}

    def test_rerecord_replaces_the_record(self, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "ck"))
        digest = SweepCheckpoint.unit_digest(_task())
        ckpt.record(digest, {"gen": 1})
        ckpt.record(digest, {"gen": 2})
        assert os.listdir(ckpt.path) == [digest + ".pkl"]
        assert ckpt.restore(digest) == {"gen": 2}

    def test_digest_changes_with_recipe(self):
        base = SweepCheckpoint.unit_digest(_task(4))
        assert SweepCheckpoint.unit_digest(_task(5)) != base
        assert SweepCheckpoint.unit_digest(_task(4, shards=2)) != base
        assert (SweepCheckpoint.unit_digest(_task(4, engine="fenwick"))
                != base)
        assert SweepCheckpoint.unit_digest(_task(4)) == base

    def test_digest_tags_the_record_format(self, monkeypatch):
        from repro.tools import resilience
        base = SweepCheckpoint.unit_digest(_task(4))
        monkeypatch.setattr(resilience, "CHECKPOINT_VERSION",
                            resilience.CHECKPOINT_VERSION + 1)
        assert SweepCheckpoint.unit_digest(_task(4)) != base

    def test_missing_payload_degrades_to_recompute(self, tmp_path, caplog):
        ckpt = SweepCheckpoint(str(tmp_path / "ck"))
        digest = SweepCheckpoint.unit_digest(_task())
        ckpt.record(digest, {"x": 1})
        os.unlink(os.path.join(ckpt.path, digest + ".pkl"))
        # a writer killed before its rename leaves only a .tmp-* file
        with open(os.path.join(ckpt.path, ".tmp-x.pkl"), "wb") as fh:
            fh.write(pickle.dumps({"x": 1})[:5])
        with caplog.at_level("WARNING", logger="repro.tools.resilience"):
            assert ckpt.restore(digest) is None
        assert caplog.text == ""  # as if the task never finished

    def test_corrupt_payload_degrades_to_recompute(self, tmp_path, caplog):
        ckpt = SweepCheckpoint(str(tmp_path / "ck"))
        digest = SweepCheckpoint.unit_digest(_task())
        path = os.path.join(ckpt.path, digest + ".pkl")
        ckpt.record(digest, {"x": list(range(100))})
        data = open(path, "rb").read()
        for damaged in (data[:len(data) // 2], b"\x00garbage"):
            with open(path, "wb") as fh:
                fh.write(damaged)
            caplog.clear()
            with caplog.at_level("WARNING",
                                 logger="repro.tools.resilience"):
                assert ckpt.restore(digest) is None
            assert "unreadable" in caplog.text and path in caplog.text

    def test_fsync_mode_round_trips(self, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "ck"), fsync=True)
        digest = SweepCheckpoint.unit_digest(_task())
        ckpt.record(digest, [1, 2, 3])
        assert ckpt.restore(digest) == [1, 2, 3]

    def test_path_that_is_not_a_directory_is_refused(self, tmp_path):
        # a JSONL journal written before record files is not read
        journal = tmp_path / "ck.jsonl"
        journal.write_text('{"kind": "sweep-checkpoint", "version": 1}\n')
        with pytest.raises(ValueError, match="not a directory") as err:
            SweepCheckpoint(str(journal))
        assert str(journal) in str(err.value)
