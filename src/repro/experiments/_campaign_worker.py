"""Module-level worker functions for multiprocessing campaigns.

Workers must be importable (picklable by reference) for
``multiprocessing``; lambdas/closures inside the campaign functions would
fail under the spawn start method.

Every worker takes ``(common, task)``: the campaign-constant context
(geometry, response, models, ...) arrives via the executor's broadcast
channel once per campaign, and only the tiny per-task payload (seed,
angle) crosses the pipe per task.
"""

from __future__ import annotations

import numpy as np

from repro.obs import trace as obs_trace


def _annotate(exc: BaseException, context: str) -> None:
    """Attach task context to an exception about to cross the process
    boundary, so the remote traceback in ``CampaignWorkerError`` names
    the exact campaign point that failed."""
    if hasattr(exc, "add_note"):  # Python >= 3.11
        exc.add_note(context)


def collect_worker(common: tuple, task: tuple) -> "object":
    """Run one training-campaign exposure.

    Args:
        common: ``(geometry, response, fluence, background, jitter)``.
        task: ``(polar_deg, seed_sequence)``.
    """
    from repro.experiments.datasets import collect_exposure_rings

    geometry, response, fluence, background, jitter = common
    polar, seed_seq = task
    rng = np.random.default_rng(seed_seq)
    try:
        with obs_trace.span("datasets.exposure"):
            return collect_exposure_rings(
                geometry,
                response,
                rng,
                polar_deg=polar,
                fluence_mev_cm2=fluence,
                background=background,
                polar_jitter_deg=jitter,
            )
    except Exception as exc:
        _annotate(exc, f"campaign task: exposure at polar={polar} deg, "
                       f"fluence={fluence} MeV/cm^2")
        raise


def trial_worker(common: tuple, seed_seq) -> float:
    """Run one localization trial.

    Args:
        common: ``(geometry, response, config, ml_pipeline, engine)`` —
            ``engine`` is the ML condition's pre-compiled inference
            engine (None for the other conditions); its plans ship
            pickled without arenas, which are rebuilt lazily in this
            process.
        seed_seq: The trial's ``SeedSequence``.
    """
    from repro.experiments.trials import trial_error

    geometry, response, config, ml_pipeline, engine = common
    try:
        with obs_trace.span("trials.trial"):
            return trial_error(
                geometry,
                response,
                np.random.default_rng(seed_seq),
                config,
                ml_pipeline,
                engine=engine,
            )
    except Exception as exc:
        _annotate(exc, f"campaign task: trial with config={config!r}")
        raise


def calibration_worker(common: tuple, seed_seq) -> np.ndarray:
    """Run one containment-calibration trial.

    Args:
        common: ``(geometry, response, config, skymap, ml_pipeline,
            engine)`` — see :func:`repro.experiments.calibration.run_calibration`.
        seed_seq: The trial's ``SeedSequence``.

    Returns:
        One ``(5,)`` row in ``calibration.TRIAL_FIELDS`` order.
    """
    from repro.experiments.calibration import calibration_trial

    geometry, response, config, skymap, ml_pipeline, engine = common
    try:
        with obs_trace.span("calibration.trial"):
            return calibration_trial(
                geometry,
                response,
                np.random.default_rng(seed_seq),
                config,
                skymap,
                ml_pipeline,
                engine=engine,
            )
    except Exception as exc:
        _annotate(exc, f"campaign task: calibration trial with config={config!r}")
        raise


def trial_block_worker(common: tuple, seed_block: tuple) -> list[float]:
    """Run a block of localization trials with lock-step batched inference.

    Simulates every trial in the block first (each from its own spawned
    generator, in the same order as the per-trial path), then localizes
    them together via :func:`repro.infer.localize_many`, which gathers
    feature blocks across events into one planned forward pass per
    localization round.

    Args:
        common: ``(geometry, response, config, ml_pipeline, engine)``.
        seed_block: Tuple of per-trial ``SeedSequence`` objects.

    Returns:
        Angular errors in degrees, one per seed in order.
    """
    from repro.experiments.trials import _simulate_trial
    from repro.infer import localize_many

    geometry, response, config, ml_pipeline, engine = common
    if ml_pipeline is None:
        raise ValueError("ml condition requires a trained MLPipeline")
    try:
        with obs_trace.span("trials.block"):
            rngs = [np.random.default_rng(s) for s in seed_block]
            event_sets = []
            grbs = []
            for rng in rngs:
                events, grb = _simulate_trial(geometry, response, rng, config)
                event_sets.append(events)
                grbs.append(grb)
            outcomes = localize_many(
                ml_pipeline,
                event_sets,
                rngs,
                engine=engine,
                halt_after=config.halt_after,
            )
            return [
                outcome.error_degrees(grb.source_direction)
                for outcome, grb in zip(outcomes, grbs)
            ]
    except Exception as exc:
        _annotate(
            exc,
            f"campaign task: trial block of {len(seed_block)} "
            f"with config={config!r}",
        )
        raise
