"""Campaign workloads: ``fig9_campaign`` and ``apt_dim_campaign``.

A *stage* is one ``run_trials`` call (one fluence, ``trials_per_stage``
trials) on a warm 2-worker ``CampaignExecutor``.  Stages cycle through the
fluences; a run measures whole cycles until its time is up (at least one).
The traced pass maps :func:`traced_trial` over the same seeds on the same
executor.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from bench import N_WORKERS
from bench.core import (
    RunResult,
    SpanLog,
    errors_valid,
    percentile,
    repeated_setup,
    rss_peak_mb,
    tail_percentile,
)
from bench.inputs import instrument
from repro.experiments.containment import containment
from repro.experiments.trials import TrialConfig, run_trials
from repro.localization.pipeline import localize_rings, prepare_rings
from repro.parallel import CampaignExecutor, CampaignWorkerError
from repro.physics.transport import transport_photons
from repro.sources.background import BackgroundModel
from repro.sources.grb import GRBSource, PhotonBatch


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign workload.

    Attributes:
        instrument: ``"adapt"`` or ``"apt"`` (see :func:`bench.inputs.instrument`).
        fluences: Stage fluences, MeV/cm^2, cycled in order.
        trials_per_stage: Trials per ``run_trials`` call.
        polar_deg: Burst polar angle.
    """

    instrument: str
    fluences: tuple[float, ...]
    trials_per_stage: int
    polar_deg: float


#: The paper's Fig. 9 sweep: 12 fluence stages x 8 trials, ADAPT, polar 30.
FIG9 = CampaignSpec("adapt", tuple(round(0.1 * i, 1) for i in range(1, 13)), 8, 30.0)
#: Dim bursts on the 20-layer APT instrument: 4 stages x 24 trials.
APT_DIM = CampaignSpec("apt", (0.05, 0.1, 0.2, 0.3), 24, 20.0)

_LAYERS = (
    "sources.generate",
    "physics.transport",
    "detector.digitize",
    "reconstruction.rings",
    "localization.localize",
)


def stage_seed(seed: int, k: int) -> int:
    """Master seed of stage ``k`` (stage -1 warms the executor)."""
    return int(np.random.SeedSequence([seed, 2, k + 1]).generate_state(1)[0])


def traced_trial(common: tuple, seed_seq) -> tuple[float, list[dict], dict]:
    """One baseline trial through the layer entry points, with spans.

    Replays ``repro.experiments.trials.trial_error``'s call order so the
    error is bit-identical to an untraced ``run_trials`` trial.

    Args:
        common: ``run_trials``' executor payload
            ``(geometry, response, config, ml_pipeline, engine)``.
        seed_seq: The trial's ``SeedSequence``.

    Returns:
        ``(error_deg, spans, counts)``.
    """
    geometry, response, config, _, _ = common
    log = SpanLog()
    rng = np.random.default_rng(seed_seq)
    with log.span("trial"):
        with log.span("sources.generate", "trial"):
            grb = GRBSource(
                fluence_mev_cm2=config.fluence_mev_cm2,
                polar_angle_deg=config.polar_angle_deg,
                azimuth_deg=float(rng.uniform(0.0, 360.0)),
            )
            background = config.background or BackgroundModel()
            batch = PhotonBatch.concatenate(
                [grb.generate(geometry, rng), background.generate(geometry, rng)]
            )
        with log.span("physics.transport", "trial"):
            transport = transport_photons(
                geometry, batch.origins, batch.directions, batch.energies, rng
            )
        with log.span("detector.digitize", "trial"):
            events = response.digitize(transport, batch, rng, min_hits=config.min_hits)
        with log.span("reconstruction.rings", "trial"):
            rings = prepare_rings(events)
        with log.span("localization.localize", "trial"):
            outcome = localize_rings(rings, rng)
    counts = {
        "photons": transport.num_photons,
        "hits": transport.num_hits,
        "events": events.num_events,
        "rings": rings.num_rings,
        "iterations": outcome.iterations,
    }
    return outcome.error_degrees(grb.source_direction), log.spans, counts


def run(spec: CampaignSpec, seed: int, seconds: float, trace: bool,
        setup_repeats: int = 3) -> RunResult:
    """Run one campaign workload; see the module docstring."""
    res = RunResult()
    geometry, response, background = instrument(spec.instrument)
    configs = [
        TrialConfig(fluence_mev_cm2=f, polar_angle_deg=spec.polar_deg, background=background)
        for f in spec.fluences
    ]
    n = spec.trials_per_stage

    def stage(k: int, executor, trials: int = n) -> np.ndarray:
        return run_trials(
            geometry, response, stage_seed(seed, k), trials, configs[k % len(configs)],
            executor=executor,
        )

    def build() -> CampaignExecutor:
        executor = CampaignExecutor(N_WORKERS)
        try:
            stage(-1, executor, trials=N_WORKERS)
        except BaseException:
            executor.close()
            raise
        return executor

    setup_s, executor = repeated_setup(build, setup_repeats, CampaignExecutor.close)
    try:
        stages: list[np.ndarray | None] = []
        latencies = []
        t_start = time.perf_counter()
        # Whole cycles only, so every run weighs the fluences alike.
        while (not stages or len(stages) % len(configs)
               or time.perf_counter() - t_start < seconds):
            t0 = time.perf_counter()
            try:
                stages.append(stage(len(stages), executor))
            except CampaignWorkerError as exc:
                stages.append(None)
                res.failed += n
                res.notes.append(f"stage {len(stages) - 1} failed: {exc}")
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_start
        res.attempted += n * len(stages)

        with CampaignExecutor(1) as serial:
            serial_errors = stage(0, serial)
        res.gate(
            "serial_parity",
            stages[0] is not None and np.array_equal(serial_errors, stages[0]),
            "2-worker stage 0 differs from the serial run",
        )
        done = [e for e in stages if e is not None]
        res.gate("errors_valid", all(errors_valid(e) for e in done),
                 "an error is non-finite or outside [0, 180]")
        if trace:
            _traced_pass(res, executor, geometry, response, configs, seed, n,
                         stages, wall)
    finally:
        executor.close()

    # A stage's cost depends on its fluence, and the host slows down in
    # bursts: take each fluence's median (and tail) stage, then average
    # over the fluences.
    by_fluence = [latencies[i::len(configs)] for i in range(len(configs))]
    stage_s = float(np.mean([percentile(f, 0.5) for f in by_fluence]))
    tail_s = float(np.mean([tail_percentile(f)[0] for f in by_fluence]))
    res.e2e = {
        "setup_s": setup_s,
        "rss_peak_mb": rss_peak_mb(),
        "throughput_per_s": n / stage_s,
        "latency_p50_ms": stage_s * 1e3,
        "latency_tail_ms": tail_s * 1e3,
    }
    res.notes.append(
        f"{len(stages)} stages x {n} trials in {wall:.2f} s "
        f"({sum(e.size for e in done) / wall:.2f} trials/s overall); "
        f"{len(by_fluence[0])} stages per fluence"
    )
    first_cycle = stages[: len(configs)]
    if all(e is not None for e in first_cycle):
        errors = np.concatenate(first_cycle)
        res.notes.append(
            f"first cycle ({errors.size} trials): containment68 "
            f"{containment(errors, 0.68):.4f} deg, errors_sha256 "
            f"{hashlib.sha256(errors.tobytes()).hexdigest()}"
        )
    return res


def _traced_pass(res: RunResult, executor, geometry, response, configs, seed: int,
                 n: int, stages: list, untraced_wall: float) -> None:
    """Re-run every stage through :func:`traced_trial`; derive per-layer metrics."""
    counts: list[dict] = []
    log = SpanLog()
    t_start = time.perf_counter()
    for k, untraced in enumerate(stages):
        seeds = np.random.SeedSequence(stage_seed(seed, k)).spawn(n)
        common = (geometry, response, configs[k % len(configs)], None, None)
        try:
            out = executor.map(traced_trial, seeds, common=common)
        except CampaignWorkerError as exc:
            res.gate("traced_equals_untraced", False, f"traced stage {k} failed: {exc}")
            return
        errors = np.array([error for error, _, _ in out])
        res.gate(
            "traced_equals_untraced",
            untraced is None or np.array_equal(errors, untraced),
            f"stage {k} errors differ",
        )
        for i, (_, spans, c) in enumerate(out):
            for span in spans:
                span["id"] = k * n + i
            log.spans.extend(spans)
            counts.append(c)
    traced_wall = time.perf_counter() - t_start
    res.spans = log.spans

    trials = len(counts)
    trial_s = log.total_s("trial")
    layer_ms = {name: log.total_s(name) / trials * 1e3 for name in _LAYERS}
    mean = {key: sum(c[key] for c in counts) / trials for key in counts[0]}
    busy_s = N_WORKERS * traced_wall
    res.set_layers(
        {
            "trial.ms": trial_s / trials * 1e3,
            "trial.unattributed_ms": trial_s / trials * 1e3 - sum(layer_ms.values()),
            "sources.generate_ms": layer_ms["sources.generate"],
            "sources.photons": mean["photons"],
            "physics.transport_ms": layer_ms["physics.transport"],
            "physics.us_per_photon": log.total_s("physics.transport") * 1e6
            / sum(c["photons"] for c in counts),
            "physics.hits": mean["hits"],
            "detector.digitize_ms": layer_ms["detector.digitize"],
            "detector.events": mean["events"],
            "reconstruction.rings_ms": layer_ms["reconstruction.rings"],
            "reconstruction.rings_kept": mean["rings"],
            "localization.localize_ms": layer_ms["localization.localize"],
            "localization.iterations": mean["iterations"],
            "parallel.efficiency": trial_s / busy_s,
            "parallel.overhead_ms_per_trial": (busy_s - trial_s) / trials * 1e3,
            "parallel.failures": float(sum(executor.stats.values())),
            "trace_overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
        },
        ("trial", "rings", "run"),
    )
    shares = dict(layer_ms, unattributed=res.layers["trial.unattributed_ms"])
    res.notes.append("shares of trial time: " + ", ".join(
        f"{name} {100 * ms / res.layers['trial.ms']:.1f}%" for name, ms in shares.items()
    ))
