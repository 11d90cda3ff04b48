"""Resource monitor: procfs readings, gauge recording, lifecycle."""

import time

import repro.obs as obs
from repro.obs import aggregate as obs_aggregate
from repro.obs import resources
from repro.obs.metrics import REGISTRY, is_peak_gauge
from repro.obs.resources import (
    ResourceMonitor,
    cpu_seconds,
    gc_collections,
    read_rss_mb,
    shm_segment_count,
)


class TestReadings:
    def test_rss_positive_on_linux(self):
        rss_mb, peak_mb = read_rss_mb()
        assert rss_mb > 0
        assert peak_mb >= rss_mb

    def test_cpu_seconds_monotonic(self):
        a = cpu_seconds()
        sum(i * i for i in range(200_000))
        assert cpu_seconds() >= a

    def test_gc_collections_nonnegative(self):
        assert gc_collections() >= 0

    def test_shm_segment_count_zero_without_segments(self):
        assert shm_segment_count() == 0


class TestSampleNow:
    def test_records_all_gauges_when_enabled(self):
        obs.enable()
        readings = ResourceMonitor().sample_now()
        gauges = REGISTRY.dump()["gauges"]
        assert set(readings) == {
            "res.rss_mb", "res.rss_peak_mb", "res.cpu_s",
            "res.gc_collections", "res.shm_segments",
        }
        for name, value in readings.items():
            assert gauges[name] == value

    def test_peak_gauge_name_is_peak_styled(self):
        assert is_peak_gauge("res.rss_peak_mb")
        assert not is_peak_gauge("res.rss_mb")
        assert not is_peak_gauge("peak.rss_mb")  # only the final segment

    def test_records_nothing_when_disabled(self):
        ResourceMonitor().sample_now()
        assert REGISTRY.dump()["gauges"] == {}


class TestWorkerPeakSurvivesParentSamples:
    def test_merged_worker_peak_outlives_parent_samples_and_stop(self):
        """Two workers each allocated ~200 MB more than the parent ever did:
        the parent's own later samples must not lower the merged peak."""
        obs.enable()
        own_peak = read_rss_mb()[1]
        for extra in (200.0, 180.0):
            gauges = {"res.rss_peak_mb": own_peak + extra}
            obs_aggregate.merge_snapshot({"events": [], "metrics": {"gauges": gauges}})
        assert REGISTRY.dump()["gauges"]["res.rss_peak_mb"] == own_peak + 200.0
        monitor = ResourceMonitor()
        monitor.sample_now()
        assert REGISTRY.dump()["gauges"]["res.rss_peak_mb"] == own_peak + 200.0
        monitor.start(interval_s=60.0)
        monitor.stop()
        gauges = REGISTRY.dump()["gauges"]
        assert gauges["res.rss_peak_mb"] == own_peak + 200.0
        assert gauges["res.rss_mb"] < own_peak + 200.0  # plain gauges: own


class TestLifecycle:
    def test_start_samples_periodically_and_stop_joins(self):
        obs.enable()
        monitor = ResourceMonitor()
        monitor.start(interval_s=0.02)
        assert monitor.running
        time.sleep(0.1)
        monitor.stop()
        assert not monitor.running
        assert REGISTRY.dump()["gauges"]["res.rss_mb"] > 0

    def test_stop_records_final_sample(self):
        obs.enable()
        monitor = ResourceMonitor()
        monitor.start(interval_s=60.0)  # no tick will fire on its own
        monitor.stop()
        assert "res.cpu_s" in REGISTRY.dump()["gauges"]

    def test_stop_without_start_is_noop(self):
        ResourceMonitor().stop()

    def test_module_level_start_stop(self):
        obs.enable()
        resources.start(interval_s=0.05)
        assert resources.is_running()
        resources.stop()
        assert not resources.is_running()
