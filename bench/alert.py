"""Alert workload: ``alert_skymap``.

One caller localizes alerts back to back with ``MLPipeline.localize``, the
planned float32 engine and a 0.25-degree hierarchical sky map, over a
pre-simulated exposure pool: physics and the serve layer are not in the
loop.  The traced pass drives ``localize_requests`` itself, timing each
generator step apart from the engine; ring building, localization and the
sky search are also timed by separate calls on each pool exposure.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

import numpy as np

from bench.core import (
    SUBRUNS,
    RunResult,
    SpanLog,
    TimedEngine,
    errors_valid,
    outcomes_equal,
    repeated_setup,
    rss_peak_mb,
    subrun_medians,
)
from bench.inputs import exposure_pool, instrument, op_rng, small_pipeline
from repro.experiments.containment import containment
from repro.infer import build_engine
from repro.infer.engine import evaluate_request
from repro.localization.hierarchy import SkymapConfig, hierarchical_skymap
from repro.localization.pipeline import localize_rings, prepare_rings

_WARMUP_STREAM, _ALERT_STREAM, _PROBE_STREAM = 4, 5, 6


@dataclass(frozen=True)
class AlertSpec:
    """Sizes of the alert workload.

    Attributes:
        pool_size: Pre-simulated exposures (alerts cycle through them).
        warmup: Untimed alerts at the end of each set-up.
        min_alerts: Timed alerts even when the time is up first (enough
            for a p95 with ten samples beyond it).
        resolution_deg: Target sky-map resolution.
    """

    pool_size: int = 32
    warmup: int = 8
    min_alerts: int = 200
    resolution_deg: float = 0.25


ALERT = AlertSpec()


def run(spec: AlertSpec, seed: int, seconds: float, trace: bool,
        setup_repeats: int = 3) -> RunResult:
    """Run the alert workload; see the module docstring."""
    res = RunResult()
    geometry, response, _ = instrument("adapt")
    pipeline = small_pipeline(geometry, response)
    pool = exposure_pool(geometry, response, seed, spec.pool_size)
    skymap = SkymapConfig(resolution_deg=spec.resolution_deg)

    def build():
        alert_pipeline = replace(pipeline, config=replace(pipeline.config, skymap=skymap))
        engine = build_engine(pipeline, "planned", dtype="float32")
        for k in range(spec.warmup):
            alert_pipeline.localize(
                pool[k % len(pool)].events, op_rng(seed, _WARMUP_STREAM, k), engine=engine
            )
        return alert_pipeline, engine

    setup_s, (alert_pipeline, engine) = repeated_setup(build, setup_repeats)

    outcomes, ops = [], []
    t_start = time.perf_counter()
    while len(outcomes) < spec.min_alerts or time.perf_counter() - t_start < seconds:
        k = len(outcomes)
        t0 = time.perf_counter()
        outcomes.append(alert_pipeline.localize(
            pool[k % len(pool)].events, op_rng(seed, _ALERT_STREAM, k), engine=engine
        ))
        ops.append((t0, time.perf_counter()))
    wall = time.perf_counter() - t_start
    res.attempted = len(outcomes)

    errors = np.array([
        o.error_degrees(pool[k % len(pool)].source_direction)
        for k, o in enumerate(outcomes)
    ])
    res.gate("errors_valid", errors_valid(errors), "an error is non-finite or outside [0, 180]")
    areas = np.array([
        o.sky.credible_region_area_deg2(0.9) if o.sky is not None else 0.0
        for o in outcomes
    ])
    res.gate("skymap_present", bool(np.all(areas > 0)),
             f"{int(np.sum(areas <= 0))} alerts without a positive 90% region")
    if trace:
        _traced_pass(res, alert_pipeline, engine, pool, skymap, seed, outcomes, wall)

    timing = subrun_medians(ops)
    level = timing.pop("level")
    res.e2e = {"setup_s": setup_s, "rss_peak_mb": rss_peak_mb(), **timing}
    head = errors[: spec.min_alerts]
    res.notes += [
        f"{len(outcomes)} alerts in {wall:.2f} s; medians over {SUBRUNS} sub-runs, "
        f"latency_tail at p{100 * level:.0f}; median 90% area {np.median(areas):.2f} deg^2",
        f"first {head.size} alerts: containment68 {containment(head, 0.68):.4f} deg, "
        f"errors_sha256 {hashlib.sha256(head.tobytes()).hexdigest()}",
    ]
    return res


def _drive(pipeline, events, rng, engine, log: SpanLog, k: int):
    """``MLPipeline.localize`` by hand: one span per generator step."""
    gen = pipeline.localize_requests(events, rng)
    payload, step = None, 0
    while True:
        with log.span("pipeline.step", "alert", k) as record:
            record["step"] = step
            try:
                request = next(gen) if payload is None else gen.send(payload)
            except StopIteration as stop:
                record["final"] = True
                return stop.value
        payload = evaluate_request(engine, request)
        step += 1


def _traced_pass(res: RunResult, alert_pipeline, engine, pool, skymap, seed: int,
                 outcomes: list, untraced_wall: float) -> None:
    """Replay every alert with spans; probe the layers on each pool exposure."""
    log = SpanLog()
    timed = TimedEngine(engine, log)
    timed.parent = "alert"
    traced = []
    t_start = time.perf_counter()
    for k in range(len(outcomes)):
        timed.id = k
        with log.span("alert", None, k):
            traced.append(_drive(
                alert_pipeline, pool[k % len(pool)].events,
                op_rng(seed, _ALERT_STREAM, k), timed, log, k,
            ))
    traced_wall = time.perf_counter() - t_start
    mismatched = sum(not outcomes_equal(a, b) for a, b in zip(traced, outcomes))
    res.gate("traced_equals_untraced", mismatched == 0,
             f"{mismatched} traced alerts differ from untraced")

    probes = []
    for i, exposure in enumerate(pool):
        with log.span("reconstruction.rings", "probe", i):
            rings = prepare_rings(exposure.events)
        with log.span("localization.localize", "probe", i):
            located = localize_rings(rings, op_rng(seed, _PROBE_STREAM, i))
        with log.span("localization.skymap", "probe", i):
            searched = hierarchical_skymap(rings, skymap)
        probes.append((rings.num_rings, located.iterations, searched.cells_evaluated))
    res.spans = log.spans

    n = len(traced)
    steps = log.named("pipeline.step")
    infer = log.named("infer")
    per_alert_ms = {
        name: log.total_s(name) / n * 1e3 for name in ("alert", "pipeline.step", "infer")
    }
    per_probe_ms = {
        name: log.total_s(name) / len(pool) * 1e3
        for name in ("reconstruction.rings", "localization.localize", "localization.skymap")
    }
    res.set_layers(
        {
            "infer.ms": per_alert_ms["infer"],
            "infer.calls": len(infer) / n,
            "infer.rows_per_call": sum(s["rows"] for s in infer) / len(infer),
            "pipeline.ms": per_alert_ms["pipeline.step"],
            "pipeline.first_step_ms": _mean_ms([s for s in steps if s["step"] == 0]),
            "pipeline.last_step_ms": _mean_ms([s for s in steps if s.get("final")]),
            "pipeline.iterations": sum(o.iterations for o in traced) / n,
            "pipeline.ring_keep_frac": sum(o.rings_kept for o in traced)
            / sum(o.rings_in for o in traced),
            "localization.skymap_ms": per_probe_ms["localization.skymap"],
            "localization.skymap_cells": float(np.mean([p[2] for p in probes])),
            "reconstruction.rings_ms": per_probe_ms["reconstruction.rings"],
            "reconstruction.rings_kept": float(np.mean([p[0] for p in probes])),
            "localization.localize_ms": per_probe_ms["localization.localize"],
            "localization.iterations": float(np.mean([p[1] for p in probes])),
            "trace_overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
        },
        ("alert", "rings", "run"),
    )
    res.notes.append(
        f"shares of alert time ({per_alert_ms['alert']:.2f} ms): infer "
        f"{100 * per_alert_ms['infer'] / per_alert_ms['alert']:.1f}%, pipeline "
        f"{100 * per_alert_ms['pipeline.step'] / per_alert_ms['alert']:.1f}%"
    )


def _mean_ms(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans) / len(spans) * 1e3
