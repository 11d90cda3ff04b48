"""Cross-process telemetry: worker snapshots merge into one parent trace.

The contract under test: a 4-worker campaign yields the same instrumented
span counts as a serial run (every trial's spans arrive, none duplicated),
worker metrics fold into the parent registry, and — critically — enabling
telemetry changes no campaign output bit.
"""

from collections import Counter

import numpy as np
import pytest

import repro.obs as obs
from repro.obs.metrics import REGISTRY


#: Span names emitted per trial by the instrumented hot path, independent
#: of whether the trial ran in-process or in a worker.
PER_TRIAL_SPANS = (
    "trials.trial",
    "sources.generate",
    "physics.transport",
    "response.digitize",
    "localize.localize_rings",
    "reconstruct.prepare_rings",
)


def _run(geometry, response, n_workers):
    from repro.experiments.trials import TrialConfig, run_trials

    return run_trials(
        geometry,
        response,
        seed=321,
        n_trials=8,
        config=TrialConfig(fluence_mev_cm2=0.5, polar_angle_deg=20.0),
        n_workers=n_workers,
    )


def _span_counts():
    return Counter(
        ev["name"] for ev in obs.events() if ev["type"] == "span"
    )


class TestMergedTelemetry:
    def test_4worker_span_counts_match_serial(self, geometry, response):
        obs.enable()
        serial_out = _run(geometry, response, n_workers=1)
        serial_counts = _span_counts()
        serial_metrics = REGISTRY.dump()

        obs.enable()  # reset buffers
        pooled_out = _run(geometry, response, n_workers=4)
        pooled_counts = _span_counts()
        pooled_metrics = REGISTRY.dump()

        np.testing.assert_array_equal(serial_out, pooled_out)
        for name in PER_TRIAL_SPANS:
            assert serial_counts[name] > 0
            assert pooled_counts[name] == serial_counts[name], name
        # Worker-side counters merged into the parent registry.
        for name in (
            "transport.photons",
            "transport.rays_walked",
            "transport.rays_full_walk",
            "transport.generations",
            "response.hits",
            "response.hits_merged",
            "response.hits_measured",
        ):
            assert (pooled_metrics["counters"][name]
                    == serial_metrics["counters"][name]), name
        # Some hits merge, and only photons with two or more merged hits
        # are measured.
        counters = serial_metrics["counters"]
        assert 0 < counters["response.hits_merged"] < counters["response.hits"]
        assert 0 < counters["response.hits_measured"] < counters["response.hits"]
        # At least one generation per trial, at most the cap.
        assert 8 <= counters["transport.generations"] <= 8 * 12
        # Most walked rays are settled in the slab they enter first.
        walked = serial_metrics["counters"]["transport.rays_walked"]
        full = serial_metrics["counters"]["transport.rays_full_walk"]
        assert 0 < full < walked / 2
        assert (pooled_metrics["counters"]["localize.calls"]
                == serial_metrics["counters"]["localize.calls"])
        # Executor-only telemetry exists only in the pooled run.
        assert "executor.chunks" not in serial_metrics["counters"]
        assert pooled_metrics["counters"]["executor.chunks"] > 0
        assert "executor.worker_busy_ms" in pooled_metrics["histograms"]

    def test_worker_spans_reparent_under_executor_map(self, geometry, response):
        obs.enable()
        _run(geometry, response, n_workers=4)
        events = obs.events()
        by_id = {ev["span_id"]: ev for ev in events if ev["type"] == "span"}
        map_ids = {
            ev["span_id"] for ev in events
            if ev["type"] == "span" and ev["name"] == "executor.map"
        }
        assert map_ids
        chunk_spans = [
            ev for ev in events
            if ev["type"] == "span" and ev["name"] == "executor.chunk"
        ]
        assert chunk_spans
        for ev in chunk_spans:
            assert ev["parent_id"] in map_ids
        # Every span resolves to a parent in the merged buffer or is a
        # parent-process root: one coherent tree, no orphans.
        for ev in events:
            if ev["type"] == "span" and ev["parent_id"] is not None:
                assert ev["parent_id"] in by_id


class TestBitIdentity:
    def test_traced_and_untraced_outputs_identical(self, geometry, response):
        untraced = _run(geometry, response, n_workers=4)
        obs.enable()
        traced = _run(geometry, response, n_workers=4)
        obs.disable()
        again_untraced = _run(geometry, response, n_workers=4)
        np.testing.assert_array_equal(untraced, traced)
        np.testing.assert_array_equal(untraced, again_untraced)

    def test_cache_tokens_unaffected_by_telemetry(self, geometry, response):
        from repro.experiments.trials import TrialConfig
        from repro.parallel import config_token

        config = TrialConfig(fluence_mev_cm2=1.0)
        t0 = config_token(1, 4, config, geometry, response, None)
        obs.enable()
        t1 = config_token(1, 4, config, geometry, response, None)
        obs.disable()
        assert t0 == t1


def _gauge_task(x):
    """Worker task recording a peak-style and a plain gauge."""
    obs.set_gauge("task.value_peak", float(x))
    obs.set_gauge("task.value", float(x))
    return x


class TestMultiWorkerGaugeMerge:
    def test_peak_gauge_takes_campaign_max_across_workers(self):
        # Regression: peak gauges used to merge last-writer-wins, so the
        # merged value depended on chunk arrival order.  With max-merge
        # the campaign-wide peak is deterministic regardless of timing.
        from repro.parallel.executor import CampaignExecutor

        obs.enable()
        ex = CampaignExecutor(n_workers=4)
        try:
            values = list(range(1, 33))
            assert ex.map(_gauge_task, values) == values
        finally:
            ex.close()
        gauges = REGISTRY.dump()["gauges"]
        assert gauges["task.value_peak"] == 32.0
        # The plain gauge keeps last-writer-wins: some worker's value.
        assert gauges["task.value"] in [float(v) for v in values]


class TestWorkerFlags:
    def test_flags_none_while_disabled(self):
        assert obs.worker_flags() is None

    def test_flags_mirror_live_subsystems(self):
        obs.enable()
        assert obs.worker_flags() == {
            "trace": True, "profile_hz": None, "resources_s": None,
        }
        obs.profile.start(hz=50)
        obs.resources.start(interval_s=0.5)
        try:
            flags = obs.worker_flags()
            assert flags["profile_hz"] == 50.0
            assert flags["resources_s"] == 0.5
        finally:
            obs.profile.stop()
            obs.resources.stop()

    def test_apply_flags_starts_and_stops_subsystems(self):
        obs.apply_worker_flags(
            {"trace": True, "profile_hz": 50.0, "resources_s": 0.5}
        )
        try:
            assert obs.is_enabled()
            assert obs.profile.is_running()
            assert obs.resources.MONITOR.running
        finally:
            obs.apply_worker_flags(None)
        assert not obs.is_enabled()
        assert not obs.profile.is_running()
        assert not obs.resources.MONITOR.running

    def test_apply_none_when_disabled_is_noop(self):
        obs.apply_worker_flags(None)
        assert not obs.is_enabled()


class TestCacheCounters:
    def test_hit_miss_corrupt_counters(self, tmp_path):
        from repro.parallel import StageCache

        cache = StageCache(tmp_path)
        obs.enable()
        assert cache.load("stage", "tok") is None          # miss
        cache.store("stage", "tok", {"x": 1})              # store
        assert cache.load("stage", "tok") == {"x": 1}      # hit
        cache.path_for("stage", "tok").write_bytes(b"not a pickle")
        assert cache.load("stage", "tok") is None          # corrupt
        counters = REGISTRY.dump()["counters"]
        assert counters["cache.miss"] == 1
        assert counters["cache.store"] == 1
        assert counters["cache.hit"] == 1
        assert counters["cache.corrupt"] == 1
