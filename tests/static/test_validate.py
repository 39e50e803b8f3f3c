"""Static engine cross-validation against dynamic ground truth.

The gating contract lives in :mod:`repro.static.validate`: every
capacity band carrying at least 2% of a granularity's dynamic mass must
agree within 10% relative error.  These tests pin that contract on the
paper applications at two sizes each, and pin *exactness* — raw-dict
equality, not band agreement — on a nest simple enough to hand-check.
"""

import pytest

from repro.static.validate import (
    VALIDATION_MATRIX, BandReport, compare_states, validate_workload,
)


def _case_id(case):
    name, params = case
    return name + "-" + "-".join(str(v) for _, v in sorted(params.items()))


class TestValidationMatrix:
    """The CI grid: paper applications at small-to-medium sizes."""

    @pytest.mark.parametrize("case", VALIDATION_MATRIX, ids=_case_id)
    def test_within_tolerance(self, case):
        name, params = case
        report = validate_workload(name, params)
        assert report.passed, "\n" + report.render()
        assert report.accesses > 0
        # every granularity contributes at least one gated band — an
        # empty gate set would pass vacuously
        gated = {b.granularity for b in report.bands if b.gated}
        assert gated == {b.granularity for b in report.bands}


class TestTriadExact:
    """STREAM triad is single-event per (ref, scope): the static model
    must reproduce the dynamic histograms *exactly*, bin for bin."""

    def test_raw_dicts_identical(self):
        from repro.apps.registry import build_workload
        from repro.core.shard import record_trace
        from repro.model.config import MachineConfig
        from repro.static.profile import static_profile
        from tests.helpers import fed_analyzer

        grans = MachineConfig.scaled_itanium2().granularities()
        program = build_workload("triad", n=64, steps=2)

        dynamic = fed_analyzer(record_trace(program)[0], grans).dump_state()
        static, stats = static_profile(program, grans)

        assert stats.accesses == dynamic["clock"]
        for gd, gs in zip(dynamic["grans"], static["grans"]):
            assert gs["name"] == gd["name"]
            assert gs["raw"] == gd["raw"]
            assert gs["cold"] == gd["cold"]
            assert gs["blocks"] == gd["blocks"]


class TestBandComparison:
    """compare_states on hand-built states, independent of any engine."""

    @staticmethod
    def _state(line_raw, line_cold):
        return {
            "version": 1, "clock": 0,
            "grans": [{"name": "line", "block_size": 64,
                       "raw": {(0, 0, -1): line_raw},
                       "cold": line_cold, "blocks": len(line_cold)}],
        }

    def test_identical_states_zero_error(self):
        state = self._state({0: 100, 40: 50}, {0: 7})
        bands = compare_states(state, self._state({0: 100, 40: 50}, {0: 7}))
        assert all(b.rel_err == 0.0 for b in bands)
        assert [b.band for b in bands] == ["<64", "64-511", ">=512", "cold"]

    def test_low_share_band_not_gated(self):
        # 1 count out of 1001 in the >=512 band: share ~0.1%, so a huge
        # relative error there must not gate
        from repro.core.histogram import bin_of
        far = bin_of(1024)
        dyn = self._state({0: 1000, far: 1}, {})
        sta = self._state({0: 1000, far: 5}, {})
        bands = {b.band: b for b in compare_states(dyn, sta)}
        assert not bands[">=512"].gated
        assert bands[">=512"].rel_err == pytest.approx(4.0)
        assert bands["<64"].gated

    def test_gated_band_over_tolerance_fails(self):
        dyn = self._state({0: 100}, {0: 50})
        sta = self._state({0: 100}, {0: 80})
        bands = compare_states(dyn, sta)
        cold = next(b for b in bands if b.band == "cold")
        assert cold.gated and cold.rel_err == pytest.approx(0.6)

    def test_bin_midpoint_banding(self):
        # bin 24 covers [64, 80): midpoint 72 >= 64 lands in band 1,
        # even though the bin's low edge touches the boundary
        from repro.core.histogram import bin_of, bin_range
        b = bin_of(64)
        lo, hi = bin_range(b)
        assert lo == 64
        dyn = self._state({b: 10}, {})
        bands = {r.band: r for r in compare_states(dyn, dyn)}
        assert bands["64-511"].dynamic == 10
        assert bands["<64"].dynamic == 0


class TestReportShape:
    def test_report_fields_and_render(self):
        report = validate_workload("triad", {"n": 64, "steps": 2})
        assert report.workload == "triad"
        assert report.params == {"n": 64, "steps": 2}
        assert report.static_s > 0 and report.dynamic_s >= 0
        assert report.max_gated_err == 0.0
        text = report.render()
        assert "triad(n=64, steps=2): PASS" in text
        assert all(isinstance(b, BandReport) for b in report.bands)

    def test_dynamic_clock_includes_deferred_flush(self, monkeypatch):
        """The numpy engine resolves a small run in one window, the
        last thing the dynamic side does; the dynamic time must include
        it."""
        import re
        import time

        from repro.core.npengine import NumpyBatchState

        delay = 0.2
        resolve = NumpyBatchState._resolve

        def slow_resolve(self, win, end):
            time.sleep(delay)
            resolve(self, win, end)

        monkeypatch.setattr(NumpyBatchState, "_resolve", slow_resolve)
        report = validate_workload("triad", {"n": 64, "steps": 2})
        assert report.dynamic_s >= delay
        assert re.search(r" \d+\.\dx\]", report.render())
