"""Metrics registry: counters, gauges, histogram bucket edges, merging."""

import math

import pytest

import repro.obs as obs
from repro.obs.metrics import REGISTRY, Histogram, is_peak_gauge


class TestGuard:
    def test_disabled_records_nothing(self):
        obs.inc("c")
        obs.set_gauge("g", 1.0)
        obs.observe("h", 5.0)
        snap = REGISTRY.dump()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_enabled_records(self):
        obs.enable()
        obs.inc("c")
        obs.inc("c", 4)
        obs.set_gauge("g", 2.5)
        obs.observe("h", 5.0)
        snap = REGISTRY.dump()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["histograms"]["h"]["count"] == 1


class TestHistogramBuckets:
    def test_sample_on_bound_joins_that_bucket(self):
        h = Histogram(buckets=(1.0, 10.0, 100.0))
        h.observe(1.0)   # exactly on first bound -> bucket 0
        h.observe(10.0)  # exactly on second bound -> bucket 1
        assert h.counts == [1, 1, 0, 0]

    def test_below_first_and_above_last(self):
        h = Histogram(buckets=(1.0, 10.0))
        h.observe(0.0)
        h.observe(10.000001)
        h.observe(1e9)
        assert h.counts == [1, 0, 2]

    def test_total_and_count(self):
        h = Histogram(buckets=(5.0,))
        for v in (1.0, 2.0, 30.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(33.0)

    def test_round_trip_dict(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.5)
        h2 = Histogram.from_dict(h.to_dict())
        assert h2.buckets == h.buckets
        assert h2.counts == h.counts
        assert h2.total == h.total
        assert h2.count == h.count

    def test_round_trip_preserves_boundary_counts(self):
        # Samples exactly on bucket bounds must survive a JSONL round
        # trip in the same buckets (the merge protocol depends on it).
        import json

        h = Histogram(buckets=(1.0, 10.0, 100.0))
        for v in (1.0, 1.0, 10.0, 100.0, 100.5):
            h.observe(v)
        restored = Histogram.from_dict(json.loads(json.dumps(h.to_dict())))
        assert restored.counts == [2, 1, 1, 1]
        assert restored.counts == h.counts
        assert restored.percentile(0.5) == h.percentile(0.5)


class TestHistogramPercentile:
    def test_empty_histogram_returns_zero(self):
        assert Histogram(buckets=(1.0, 10.0)).percentile(0.95) == 0.0

    def test_returns_bucket_upper_edge(self):
        h = Histogram(buckets=(1.0, 10.0, 100.0))
        for v in (0.5,) * 90 + (50.0,) * 10:
            h.observe(v)
        assert h.percentile(0.5) == 1.0
        assert h.percentile(0.95) == 100.0

    def test_overflow_bucket_returns_inf(self):
        h = Histogram(buckets=(1.0,))
        h.observe(99.0)
        assert h.percentile(0.95) == math.inf

    def test_extreme_quantiles_clamp_to_valid_ranks(self):
        h = Histogram(buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        assert h.percentile(0.0) == 1.0   # rank floors at 1
        assert h.percentile(1.0) == 10.0  # rank caps at count


class TestMerge:
    def test_histogram_merge_adds_bucketwise(self):
        a = Histogram(buckets=(1.0, 10.0))
        b = Histogram(buckets=(1.0, 10.0))
        a.observe(0.5)
        b.observe(5.0)
        b.observe(50.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3

    def test_histogram_merge_rejects_different_buckets(self):
        a = Histogram(buckets=(1.0,))
        b = Histogram(buckets=(2.0,))
        with pytest.raises(ValueError, match="buckets"):
            a.merge(b)

    def test_registry_merge_semantics(self):
        obs.enable()
        obs.inc("n", 2)
        obs.set_gauge("g", 1.0)
        obs.observe("h", 3.0)
        snap = {
            "counters": {"n": 3, "other": 1},
            "gauges": {"g": 9.0},
            "histograms": {
                "h": {"buckets": list(REGISTRY.histograms["h"].buckets),
                      "counts": REGISTRY.histograms["h"].counts[:],
                      "total": 3.0, "count": 1},
            },
        }
        REGISTRY.merge(snap)
        out = REGISTRY.dump()
        assert out["counters"] == {"n": 5, "other": 1}  # counters add
        assert out["gauges"] == {"g": 9.0}              # last writer wins
        assert out["histograms"]["h"]["count"] == 2     # histograms add


class TestPeakGaugeMerge:
    def test_is_peak_gauge_matches_final_segment_only(self):
        assert is_peak_gauge("res.rss_peak_mb")
        assert is_peak_gauge("rss_peak")
        assert not is_peak_gauge("res.rss_mb")
        assert not is_peak_gauge("peak.rss_mb")

    def test_peak_gauge_merges_with_max(self):
        obs.enable()
        obs.set_gauge("res.rss_peak_mb", 120.0)
        REGISTRY.merge({"gauges": {"res.rss_peak_mb": 80.0}})   # lower: kept
        assert REGISTRY.dump()["gauges"]["res.rss_peak_mb"] == 120.0
        REGISTRY.merge({"gauges": {"res.rss_peak_mb": 300.0}})  # higher: wins
        assert REGISTRY.dump()["gauges"]["res.rss_peak_mb"] == 300.0

    def test_peak_gauge_unknown_locally_takes_incoming(self):
        obs.enable()
        REGISTRY.merge({"gauges": {"res.rss_peak_mb": 55.0}})
        assert REGISTRY.dump()["gauges"]["res.rss_peak_mb"] == 55.0

    def test_peak_gauge_never_decreases_until_reset(self):
        obs.enable()
        obs.set_gauge("res.rss_peak_mb", 234.0)
        obs.set_gauge("res.rss_peak_mb", 34.0)  # lower own sample: kept
        assert REGISTRY.dump()["gauges"]["res.rss_peak_mb"] == 234.0
        obs.set_gauge("res.rss_peak_mb", 300.0)
        assert REGISTRY.dump()["gauges"]["res.rss_peak_mb"] == 300.0
        REGISTRY.reset()
        obs.set_gauge("res.rss_peak_mb", 34.0)
        assert REGISTRY.dump()["gauges"]["res.rss_peak_mb"] == 34.0

    def test_plain_gauge_still_last_writer_wins(self):
        obs.enable()
        obs.set_gauge("res.rss_mb", 120.0)
        REGISTRY.merge({"gauges": {"res.rss_mb": 80.0}})
        assert REGISTRY.dump()["gauges"]["res.rss_mb"] == 80.0
