"""Tests of the benchmark itself: request streams, checker, summaries.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

import copy
import json
import os
from collections import Counter

import pytest

import decks
import ledger
from checks import Checker, state_digest
from spans import Recorder, Span, covered, request_view

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _stream(workload, seed):
    return [str(r) for r in decks.deck_for(workload, seed)]


@pytest.mark.parametrize("workload", sorted(decks.DECKS))
def test_same_seed_same_stream(workload):
    assert _stream(workload, 7) == _stream(workload, 7)


@pytest.mark.parametrize("workload", sorted(decks.DECKS))
def test_other_seed_other_stream_same_work(workload):
    a, b = _stream(workload, 7), _stream(workload, 8)
    assert a != b
    # the seed orders the deck; the work in it is the same
    assert Counter(a) == Counter(b)


def test_cached_mix_is_skewed_with_ninety_percent_hits():
    deck = decks.deck_for("cached-mix", 1)
    counts = Counter(str(r) for r in deck)
    assert len(counts) == 18
    assert counts.most_common(1)[0][1] >= 10 * min(counts.values())
    assert (len(deck) - len(counts)) / len(deck) == pytest.approx(0.9,
                                                                  abs=0.01)


def test_service_deck_submits_every_spec_three_times():
    deck = decks.deck_for("service-roundtrip", 1)
    assert set(Counter(str(r) for r in deck).values()) == {3}


def test_warmup_uses_the_cheapest_point_on_every_path():
    deck = decks.deck_for("paper-cold", 3)
    warm = decks.warmup(deck)
    assert {r.key for r in warm} == {"cg:grid=24"}
    assert {r.path for r in warm} == set(decks.COLD_PATHS)


@pytest.fixture(scope="module")
def small_state():
    from repro.apps.registry import build_workload
    from repro.tools.session import AnalysisSession
    session = AnalysisSession(build_workload("cg", grid=12), engine="numpy")
    return session.run().analyzer.dump_state()


def test_checker_accepts_the_reference_state(small_state):
    assert Checker().check_state("cg:grid=12", False, small_state) is None


def test_checker_rejects_one_perturbed_histogram_bin(small_state):
    bad = copy.deepcopy(small_state)
    bins = next(iter(bad["grans"][0]["raw"].values()))
    first = next(iter(bins))
    bins[first] += 1
    reason = Checker().check_state("cg:grid=12", False, bad)
    assert reason is not None and "digest" in reason
    assert state_digest(bad) != state_digest(small_state)


def test_checker_rejects_reports_that_differ_between_paths():
    checker = Checker()
    assert checker.check_outputs("k", False, ["a", "b"], "<x/>") is None
    assert checker.check_outputs("k", False, ["a", "b"], "<x/>") is None
    assert checker.check_outputs("k", False, ["a", "c"], "<x/>")
    assert checker.check_outputs("k", False, ["", "b"], "<x/>")


def test_band_error_is_zero_against_itself(small_state):
    from checks import band_error, band_masses
    assert band_error(small_state, band_masses(small_state)) == 0.0


def test_tail_leaves_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    value, pct, n = ledger.tail(values)
    assert n == 100 and pct == 90.0
    assert sum(v > value for v in values) == 10
    assert ledger.tail([1.0, 2.0]) == (2.0, 100.0, 2)
    assert ledger.quantile(values, 0.5) == pytest.approx(49.5)


def test_coverage_counts_overlapping_spans_once():
    spans = [Span("request", 0.0, None, "r"), Span("a", 1.0, 0, "r"),
             Span("b", 2.0, 1, "r"), Span("c", 6.0, 0, "r")]
    for sp, end in zip(spans, (10.0, 5.0, 3.0, 7.0)):
        sp.end = end
    assert covered(spans, "r", 0.0, 10.0) == pytest.approx(5.0)
    view = request_view(spans, "r")
    assert view["a"] == pytest.approx(4.0)
    assert view["a@self"] == pytest.approx(3.0)


def test_recorder_restores_wrapped_calls():
    from repro.lang.batch import BatchExecutor
    from repro.tools.cache import AnalysisCache
    before = (BatchExecutor.run, AnalysisCache.get)
    rec = Recorder()
    rec.install()
    try:
        assert BatchExecutor.run is not before[0]
    finally:
        rec.uninstall()
    assert (BatchExecutor.run, AnalysisCache.get) == before
    assert "run" not in BatchExecutor.__dict__


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(decks.DECKS)
    e2e = set(ledger.end_to_end([], lambda r: r.wall)) | {"setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} <= e2e
    layers = set(ledger.per_layer([], [], {}, 0.0, 0.0, 0, None))
    layers |= {"error_rate", "fallback_rate", "static_band_err_max"}
    assert {m["name"] for m in spec["per_layer"]} == layers


def test_references_cover_every_requested_point():
    refs = Checker().refs
    for kernel, _free, params in decks.reference_points():
        key = kernel + ":" + ",".join(f"{k}={v}" for k, v in params)
        assert set(refs["points"][key]) == {"accesses", "bands", "dynamic",
                                             "static"}
    from svc import spec_key
    assert set(refs["service"]) == {spec_key(r) for r in decks.service_specs()}
