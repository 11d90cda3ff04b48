"""SLO evaluation: percentiles, rule families, missing-input semantics."""

import json
import math

import pytest

from repro.obs.metrics import Histogram
from repro.obs.slo import (
    evaluate,
    exact_percentile,
    load_spec,
    render_report,
    stage_durations,
)


def _span(name, dur_ms):
    return {"type": "span", "name": name, "span_id": "1-1",
            "parent_id": None, "dur_ms": dur_ms, "pid": 1, "tid": 1,
            "status": "ok"}


class TestExactPercentile:
    def test_empty_returns_zero(self):
        assert exact_percentile([], 0.95) == 0.0

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert exact_percentile(values, 0.95) == 95.0
        assert exact_percentile(values, 0.5) == 50.0
        assert exact_percentile(values, 1.0) == 100.0

    def test_single_sample(self):
        assert exact_percentile([7.0], 0.99) == 7.0


class TestStageRules:
    def test_passing_stage_rule(self):
        events = [_span("s", d) for d in (1.0, 2.0, 3.0)]
        report = evaluate({"stages": {"s": {"p95_ms": 10.0}}}, events=events)
        assert report["passed"]
        (check,) = report["checks"]
        assert check["kind"] == "stage"
        assert check["value"] == 3.0
        assert check["margin"] == pytest.approx(0.7)

    def test_breaching_stage_rule(self):
        events = [_span("s", 100.0)]
        report = evaluate({"stages": {"s": {"p95_ms": 10.0}}}, events=events)
        assert not report["passed"]
        assert report["n_failed"] == 1
        assert report["checks"][0]["margin"] == pytest.approx(-9.0)

    def test_missing_stage_fails_with_none_value(self):
        report = evaluate({"stages": {"ghost": {"p99_ms": 5.0}}}, events=[])
        (check,) = report["checks"]
        assert not check["passed"]
        assert check["value"] is None

    def test_unknown_latency_key_raises(self):
        with pytest.raises(ValueError, match="unknown latency rule"):
            evaluate({"stages": {"s": {"mean_ms": 1.0}}}, events=[])


class TestHistogramRules:
    def _metrics(self, values):
        h = Histogram(buckets=(1.0, 10.0, 100.0))
        for v in values:
            h.observe(v)
        return {"histograms": {"h": h.to_dict()}}

    def test_histogram_percentile_upper_bound(self):
        report = evaluate(
            {"histograms": {"h": {"p95_ms": 10.0}}},
            metrics=self._metrics([0.5] * 90 + [5.0] * 10),
        )
        (check,) = report["checks"]
        assert check["passed"]
        assert check["value"] == 10.0  # bucket upper edge, conservative

    def test_overflow_bucket_fails(self):
        report = evaluate(
            {"histograms": {"h": {"p95_ms": 1000.0}}},
            metrics=self._metrics([5000.0]),
        )
        (check,) = report["checks"]
        assert not check["passed"]
        assert check["value"] == math.inf

    def test_empty_histogram_fails_as_missing(self):
        report = evaluate(
            {"histograms": {"h": {"p95_ms": 10.0}}}, metrics=self._metrics([])
        )
        assert report["checks"][0]["value"] is None
        assert not report["passed"]


class TestOpsRules:
    def test_throughput_floor(self):
        spec = {"ops": {"k": {"min_rows_per_s": 100.0}}}
        assert evaluate(spec, perf={"k": 250.0})["passed"]
        report = evaluate(spec, perf={"k": 50.0})
        assert not report["passed"]
        assert report["checks"][0]["margin"] == pytest.approx(-0.5)

    def test_missing_op_fails(self):
        report = evaluate({"ops": {"k": {"min_rows_per_s": 1.0}}}, perf={})
        assert not report["passed"]
        assert report["checks"][0]["value"] is None

    def test_unknown_ops_rule_raises(self):
        with pytest.raises(ValueError, match="unknown ops rule"):
            evaluate({"ops": {"k": {"max_rows_per_s": 1.0}}}, perf={})


class TestServeRules:
    def _load_report(self, **overrides):
        report = {"p50_ms": 20.0, "p95_ms": 60.0, "p99_ms": 90.0,
                  "req_per_s": 40.0}
        report.update(overrides)
        return report

    def test_latency_ceilings_and_rate_floor_pass(self):
        spec = {"serve": {"load": {"p50_ms": 50.0, "p99_ms": 100.0,
                                   "min_req_per_s": 10.0}}}
        report = evaluate(spec, serve={"load": self._load_report()})
        assert report["passed"]
        kinds = {c["metric"]: c for c in report["checks"]}
        assert kinds["p50_ms"]["value"] == 20.0
        assert kinds["min_req_per_s"]["margin"] == pytest.approx(3.0)
        assert all(c["kind"] == "serve" for c in report["checks"])

    def test_latency_breach_fails(self):
        spec = {"serve": {"load": {"p99_ms": 50.0}}}
        report = evaluate(spec, serve={"load": self._load_report()})
        assert not report["passed"]
        assert report["checks"][0]["margin"] == pytest.approx(-0.8)

    def test_rate_floor_breach_fails(self):
        spec = {"serve": {"load": {"min_req_per_s": 100.0}}}
        report = evaluate(
            spec, serve={"load": self._load_report(req_per_s=25.0)}
        )
        assert not report["passed"]
        assert report["checks"][0]["margin"] == pytest.approx(-0.75)

    def test_missing_load_run_fails_with_none(self):
        spec = {"serve": {"load": {"p99_ms": 50.0,
                                   "min_req_per_s": 1.0}}}
        report = evaluate(spec, serve={})
        assert not report["passed"]
        assert all(c["value"] is None for c in report["checks"])

    def test_unknown_serve_rule_raises(self):
        with pytest.raises(ValueError, match="unknown serve rule"):
            evaluate({"serve": {"load": {"mean_ms": 1.0}}}, serve={})

    def test_multiple_named_runs(self):
        spec = {"serve": {"c1": {"p99_ms": 100.0},
                          "c8": {"p99_ms": 400.0}}}
        report = evaluate(spec, serve={
            "c1": self._load_report(p99_ms=90.0),
            "c8": self._load_report(p99_ms=350.0),
        })
        assert report["passed"]
        assert {c["name"] for c in report["checks"]} == {"c1", "c8"}


class TestSpecIO:
    def test_load_spec_round_trip(self, tmp_path):
        spec = {
            "stages": {"executor.chunk": {"p95_ms": 2000.0}},
            "histograms": {"executor.worker_busy_ms": {"p95_ms": 5000.0}},
            "ops": {"int8_linear_block597": {"min_rows_per_s": 1.0e5}},
            "serve": {"load": {"p99_ms": 1000.0, "min_req_per_s": 15.0}},
        }
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(spec))
        assert load_spec(path) == spec

    def test_load_spec_rejects_unknown_section(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"latencies": {}}))
        with pytest.raises(ValueError, match="unknown SLO spec section"):
            load_spec(path)


class TestRenderReport:
    def test_render_marks_breaches(self):
        report = evaluate(
            {"stages": {"s": {"p95_ms": 1.0}}}, events=[_span("s", 5.0)]
        )
        text = render_report(report)
        assert text.startswith("SLO report: FAIL (1 breached)")
        assert "BREACH" in text

    def test_render_pass_and_missing(self):
        report = evaluate(
            {"stages": {"s": {"p95_ms": 10.0}, "ghost": {"p95_ms": 1.0}}},
            events=[_span("s", 5.0)],
        )
        text = render_report(report)
        assert "ok" in text
        assert "missing" in text
