"""Localization-trial runner.

One *trial* = simulate an exposure (GRB + background), digitize, localize
with a chosen pipeline condition, and record the angular error.  The paper
runs 1000 trials x 10 meta-trials per experimental point; the runner
exposes those counts as parameters and can fan trials out over processes.

Conditions:

* ``"baseline"`` — the pre-ML pipeline.
* ``"no_background"`` — oracle removal of background rings (Fig. 4).
* ``"true_deta"`` — oracle true ``eta`` errors as ``d eta`` (Fig. 4).
* ``"ml"`` — the full Fig. 6 neural-network pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detector.perturb import perturb_events
from repro.detector.response import DetectorResponse
from repro.geometry.tiles import DetectorGeometry
from repro.infer.engine import PLANNED_DTYPES, build_engine
from repro.localization.pipeline import localize_baseline
from repro.pipeline.ml_pipeline import MLPipeline
from repro.sources.background import BackgroundModel
from repro.sources.exposure import simulate_exposure
from repro.sources.grb import GRBSource

CONDITIONS = ("baseline", "no_background", "true_deta", "ml")


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of one experimental point.

    Attributes:
        fluence_mev_cm2: GRB fluence.
        polar_angle_deg: GRB polar angle.
        condition: One of :data:`CONDITIONS`.
        background: Background model (default model if None).
        epsilon_percent: Fig. 10 input-perturbation level.
        min_hits: Event-multiplicity cut at digitization.
        halt_after: Anytime knob forwarded to the ML pipeline.
    """

    fluence_mev_cm2: float = 1.0
    polar_angle_deg: float = 0.0
    condition: str = "baseline"
    background: BackgroundModel | None = None
    epsilon_percent: float = 0.0
    min_hits: int = 2
    halt_after: int | None = None
    #: Optional event-builder coincidence window (None = perfect photon
    #: separation; see repro.detector.coincidence).
    coincidence_window_s: float | None = None
    #: Events localized per lock-step batched inference group
    #: (repro.infer.localize_many).  1 = per-event inference (the
    #: bit-identical default); >1 gathers ring blocks across events into
    #: one planned pass per round (ulp-level deviations possible — see
    #: docs/inference.md).
    event_batch: int = 1
    #: Compute dtype of the compiled float plans the ML condition runs
    #: (a quantized pipeline's background plan is INT8 either way).
    #: Campaigns default to "float64", which gives the eager bundles'
    #: results bit for bit; "float32" is the runtime-default deployment
    #: dtype (sgemm, half the arena bytes) with ulp-level deviations.
    infer_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.condition not in CONDITIONS:
            raise ValueError(f"condition must be one of {CONDITIONS}")
        if self.infer_dtype not in PLANNED_DTYPES:
            raise ValueError(
                f"infer_dtype must be one of {PLANNED_DTYPES}"
            )
        if self.event_batch < 1:
            raise ValueError("event_batch must be >= 1")
        if self.condition != "ml":
            if self.infer_dtype != "float64":
                raise ValueError(
                    "infer_dtype only applies to the 'ml' condition"
                )
            if self.event_batch != 1:
                raise ValueError(
                    "event_batch only applies to the 'ml' condition"
                )


def _simulate_trial(
    geometry: DetectorGeometry,
    response: DetectorResponse,
    rng: np.random.Generator,
    config: TrialConfig,
):
    """Simulate + digitize one trial; returns ``(events, grb)``.

    Factored out of :func:`trial_error` so the batched-inference path can
    simulate several trials before localizing them as one lock-step group
    — the simulation consumes ``rng`` in exactly the same order either
    way.
    """
    grb = GRBSource(
        fluence_mev_cm2=config.fluence_mev_cm2,
        polar_angle_deg=config.polar_angle_deg,
        # The source azimuth is arbitrary in flight; randomizing it per
        # trial keeps the evaluation honest about the azimuth-canonical
        # feature frame.
        azimuth_deg=float(rng.uniform(0.0, 360.0)),
    )
    background = config.background or BackgroundModel()
    exposure = simulate_exposure(geometry, rng, grb, background)
    transport, batch = exposure.transport, exposure.batch
    if config.coincidence_window_s is not None:
        from repro.detector.coincidence import (
            CoincidenceConfig,
            build_events_with_pileup,
        )

        rebuilt = build_events_with_pileup(
            transport, batch, CoincidenceConfig(config.coincidence_window_s)
        )
        transport, batch = rebuilt.transport, rebuilt.batch
    events = response.digitize(
        transport, batch, rng, min_hits=config.min_hits
    )
    if config.epsilon_percent > 0:
        events = perturb_events(events, config.epsilon_percent, rng)
    return events, grb


def trial_error(
    geometry: DetectorGeometry,
    response: DetectorResponse,
    rng: np.random.Generator,
    config: TrialConfig,
    ml_pipeline: MLPipeline | None = None,
    engine=None,
) -> float:
    """Run one trial and return the localization error in degrees.

    Args:
        geometry: Detector geometry.
        response: Detector response.
        rng: Trial generator.
        config: Experimental point.
        ml_pipeline: Required when ``config.condition == "ml"``.
        engine: Optional pre-built inference engine (see
            ``repro.infer.build_engine``); None = the pipeline's eager
            bundles.

    Returns:
        Angular error in degrees (180 on localization failure).

    Raises:
        ValueError: If the ML condition is requested without a pipeline.
    """
    events, grb = _simulate_trial(geometry, response, rng, config)

    if config.condition == "ml":
        if ml_pipeline is None:
            raise ValueError("ml condition requires a trained MLPipeline")
        outcome = ml_pipeline.localize(
            events, rng, halt_after=config.halt_after, engine=engine
        )
        return outcome.error_degrees(grb.source_direction)

    outcome = localize_baseline(
        events,
        rng,
        drop_background=(config.condition == "no_background"),
        true_deta=(config.condition == "true_deta"),
    )
    return outcome.error_degrees(grb.source_direction)


def run_trials(
    geometry: DetectorGeometry,
    response: DetectorResponse,
    seed: int,
    n_trials: int,
    config: TrialConfig,
    ml_pipeline: MLPipeline | None = None,
    n_workers: int = 1,
    executor=None,
    cache=None,
) -> np.ndarray:
    """Run ``n_trials`` independent trials of one experimental point.

    Per-trial generators are spawned from ``seed`` so results do not
    depend on ``n_workers`` (or on executor chunking).

    Args:
        geometry: Detector geometry.
        response: Detector response.
        seed: Master seed for this trial set.
        n_trials: Number of independent trials.
        config: Experimental point.
        ml_pipeline: Required when ``config.condition == "ml"``.
        n_workers: Fan-out over the persistent campaign executor (the
            process-wide pool for this worker count is created on first
            use and reused by every later campaign stage).
        executor: Explicit :class:`~repro.parallel.CampaignExecutor` to
            run on (overrides ``n_workers``); lets sweeps share one pool.
        cache: Deterministic stage cache — True for the default
            ``.campaign_cache/``, a path or :class:`StageCache` for a
            custom location, None to disable.  Keyed by seed and every
            result-affecting input, never by ``n_workers``.

    Returns:
        ``(n_trials,)`` array of angular errors, degrees.

    Raises:
        CampaignWorkerError: A trial raised (same exception at every
            worker count), or a chunk of trials repeatedly crashed its
            workers.  Worker crashes below the executor's retry budget
            are recovered transparently — the chunk is redispatched and
            the returned errors stay bit-identical to a serial run.
            Nothing is cached on failure.
    """
    from repro.obs import trace as obs_trace
    from repro.parallel import get_executor, resolve_cache
    from repro.experiments._campaign_worker import (
        trial_block_worker,
        trial_worker,
    )

    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    with obs_trace.span("trials.run_trials"):
        stage_cache = resolve_cache(cache)
        token = None
        if stage_cache is not None:
            from repro.parallel import config_token

            # Telemetry never feeds the token: keys stay a pure function
            # of the experiment inputs, so traced and untraced runs share
            # cache entries bit-for-bit.
            token = config_token(
                seed, n_trials, config, geometry, response, ml_pipeline
            )
            hit = stage_cache.load("trials", token)
            if hit is not None:
                return hit
        # The inference plan is compiled once here in the parent and
        # rides the executor's broadcast-once common payload; workers
        # rebuild only the (cheap) activation arenas locally.
        engine = None
        if config.condition == "ml" and ml_pipeline is not None:
            engine = build_engine(
                ml_pipeline, "planned", dtype=config.infer_dtype
            )
        seeds = np.random.SeedSequence(seed).spawn(n_trials)
        ex = executor if executor is not None else get_executor(n_workers)
        common = (geometry, response, config, ml_pipeline, engine)
        if config.event_batch > 1:
            blocks = [
                tuple(seeds[i : i + config.event_batch])
                for i in range(0, n_trials, config.event_batch)
            ]
            errors = np.array(
                [
                    e
                    for block in ex.map(trial_block_worker, blocks, common=common)
                    for e in block
                ]
            )
        else:
            errors = np.array(ex.map(trial_worker, seeds, common=common))
        if stage_cache is not None:
            stage_cache.store("trials", token, errors)
        return errors


def run_meta_trials(
    geometry: DetectorGeometry,
    response: DetectorResponse,
    seed: int,
    n_trials: int,
    n_meta: int,
    config: TrialConfig,
    ml_pipeline: MLPipeline | None = None,
    n_workers: int = 1,
    executor=None,
    cache=None,
) -> list[np.ndarray]:
    """Run ``n_meta`` independent trial sets (for containment error bars)."""
    if n_meta < 1:
        raise ValueError("n_meta must be >= 1")
    meta_seeds = np.random.SeedSequence(seed).spawn(n_meta)
    out = []
    for ms in meta_seeds:
        sub_seed = int(ms.generate_state(1)[0])
        out.append(
            run_trials(
                geometry,
                response,
                sub_seed,
                n_trials,
                config,
                ml_pipeline,
                n_workers,
                executor=executor,
                cache=cache,
            )
        )
    return out
