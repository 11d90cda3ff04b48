"""Tests of the benchmark harness: ``python -m pytest bench -q``."""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

from bench import ROOT, use_checkout_sources

use_checkout_sources()

from bench import alert, campaign, serve  # noqa: E402
from bench.core import (  # noqa: E402
    LAYER_GROUPS,
    RunResult,
    percentile,
    poisson_schedule,
    subrun_medians,
    tail_percentile,
)
from repro.serve import ServerOverloaded  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


class TestPercentiles:
    def test_nearest_rank(self):
        samples = list(range(10, 0, -1))
        assert percentile(samples, 0.5) == 5
        assert percentile(samples, 0.95) == 10
        assert percentile(samples, 0.01) == 1
        with pytest.raises(ValueError):
            percentile([], 0.5)

    @pytest.mark.parametrize(
        "n, rank",
        [
            (1000, 950),  # p95 has 50 samples beyond it
            (200, 190),  # exactly ten beyond
            (100, 90),  # p95 would leave 5 beyond: lowered to p90
            (30, 20),
            (12, 6),  # no percentile above the median has ten beyond
            (1, 1),
        ],
    )
    def test_tail_keeps_ten_samples_beyond(self, n, rank):
        samples = np.arange(1, n + 1, dtype=float)[::-1]
        value, level = tail_percentile(samples, 0.95)
        assert value == rank
        assert level == pytest.approx(rank / n)
        assert n - rank >= min(10, n - math.ceil(n / 2))


def test_subrun_medians_ignore_one_slow_subrun():
    fast, slow = 0.010, 0.030
    durations = np.array([fast] * 300 + [slow] * 100 + [fast] * 100)  # 4th of 5 is slow
    ends = np.cumsum(durations)
    ops = list(zip(ends - durations, ends))
    timing = subrun_medians(ops)
    assert timing["throughput_per_s"] == pytest.approx(1 / fast)
    assert timing["latency_p50_ms"] == pytest.approx(fast * 1e3)
    assert timing["latency_tail_ms"] == pytest.approx(fast * 1e3)
    assert timing["level"] == pytest.approx(0.9)  # 100 per sub-run: p90 keeps ten beyond


def test_poisson_schedule_is_deterministic():
    a = poisson_schedule(7, 400, 100.0)
    np.testing.assert_array_equal(a, poisson_schedule(7, 400, 100.0))
    assert not np.array_equal(a, poisson_schedule(8, 400, 100.0))
    assert np.all(np.diff(a) > 0)
    assert 3.0 < a[-1] < 5.0  # 400 arrivals at 100/s


def test_open_loop_times_a_stall_from_the_due_time():
    """A request stuck behind a stalled loop is late by the stall."""
    async def submit(k, _rng):
        if k == 0:
            time.sleep(0.2)  # blocks the event loop, as a long flush does
        if k == 2:
            raise ServerOverloaded("full")
        return k

    due = np.array([0.0, 0.05, 0.3])
    _, results, lateness = asyncio.run(
        serve.open_loop(submit, lambda k: (k, None), due)
    )
    assert results[0][1] == 0 and results[1][1] == 1
    assert results[1][0] >= 0.14  # due at 50 ms, sent after the 200 ms stall
    assert lateness[1] >= 0.14
    assert results[2] is None  # refused at admission


def _check(result: RunResult) -> None:
    assert all(result.gates.values()), result.notes
    assert {"errors_valid", "traced_equals_untraced", "layer_keys"} <= result.gates.keys()
    result.check_metrics(result.e2e, E2E_UNITS, positive=True)
    result.check_metrics(result.layers, LAYER_UNITS, positive=False)
    assert result.gates["metric_keys"] and result.gates["metric_values"], result.notes
    assert result.attempted > 0 and result.failed == 0


@pytest.mark.parametrize("instrument", ["adapt", "apt"])
def test_tiny_campaign(instrument):
    spec = campaign.CampaignSpec(instrument, (0.6, 1.2), 2, 30.0)
    result = campaign.run(spec, seed=3, seconds=0.0, trace=True, setup_repeats=1)
    _check(result)
    assert result.attempted == 4
    assert result.gates["serial_parity"]
    assert result.layers["infer.ms"] == 0.0  # inference is bypassed
    assert result.layers["physics.transport_ms"] > 0


def test_tiny_alert():
    spec = alert.AlertSpec(pool_size=2, warmup=1, min_alerts=4)
    result = alert.run(spec, seed=3, seconds=0.0, trace=True, setup_repeats=1)
    _check(result)
    assert result.attempted == 4
    assert result.gates["skymap_present"]
    assert result.layers["physics.transport_ms"] == 0.0  # physics is bypassed
    assert result.layers["localization.skymap_ms"] > 0


def test_tiny_serve():
    spec = serve.ServeSpec(pool_size=2, warmup=1, min_closed_per_client=2,
                           burst_requests=8, burst_rate_per_s=200.0)
    result = serve.run(spec, seed=3, seconds=0.0, trace=True, setup_repeats=1)
    _check(result)
    assert result.attempted == 4 + 8
    assert result.gates["served_equals_localize_many"]
    assert result.layers["physics.transport_ms"] == 0.0
    assert result.layers["localization.skymap_ms"] == 0.0  # no sky search


def test_stop_children_leaves_no_process_running():
    """Workers and the resource tracker they start are gone, and reaped."""
    from bench.__main__ import _stop_children
    from repro.parallel.executor import get_executor

    assert get_executor(2).map(abs, [-1, 2, -3]) == [1, 2, 3]
    tracker = resource_tracker._resource_tracker
    assert tracker._pid is not None  # spawning the workers launched it
    _stop_children()
    assert multiprocessing.active_children() == []
    assert tracker._pid is None and tracker._fd is None


class TestKeyUnion:
    def test_declared_layers_are_the_groups(self):
        grouped = [key for keys in LAYER_GROUPS.values() for key in keys]
        assert sorted(grouped) == sorted(LAYER_UNITS)
        assert len(set(grouped)) == len(grouped)

    def test_missing_key_fails(self):
        result = RunResult()
        metrics = dict.fromkeys(E2E_UNITS, 1.0)
        del metrics["setup_s"]
        result.check_metrics(metrics, E2E_UNITS, positive=True)
        assert not result.gates["metric_keys"]

    def test_undeclared_key_fails(self):
        result = RunResult()
        metrics = dict.fromkeys(E2E_UNITS, 1.0) | {"latency_p99_ms": 1.0}
        result.check_metrics(metrics, E2E_UNITS, positive=True)
        assert not result.gates["metric_keys"]

    def test_zero_end_to_end_value_fails(self):
        result = RunResult()
        result.check_metrics(dict.fromkeys(E2E_UNITS, 0.0), E2E_UNITS, positive=True)
        assert result.gates["metric_keys"] and not result.gates["metric_values"]

    def test_unmeasured_layer_key_fails_instead_of_reading_zero(self):
        result = RunResult()
        measured = dict.fromkeys(LAYER_GROUPS["rings"] + LAYER_GROUPS["run"], 1.0)
        result.set_layers(measured, ("trial", "rings", "run"))
        assert not result.gates["layer_keys"]
        assert result.layers.keys() == LAYER_UNITS.keys() - set(LAYER_GROUPS["trial"])
