"""Containment-calibration campaigns for sky-map credible regions.

A credible region is only useful if it is *calibrated*: over many
bursts, the 90% region should contain the true origin ~90% of the time.
This module measures that directly — simulate N independent trials,
localize each with the hierarchical sky search attached, and record for
every trial whether the true origin's pixel fell inside the 68% and 90%
regions (plus the region areas and the point-estimate error).

Calibration holds exactly when the ring noise model holds, i.e. when
``d eta`` is the true per-ring error scale — the paper's ``true_deta``
oracle condition (the regime the dEta network approaches).  The default
campaign therefore runs that condition; running ``condition="baseline"``
instead measures how badly the *propagated* widths miscalibrate the
regions, which is the paper's motivating gap in region form.  See
``docs/localization.md`` for the methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.detector.response import DetectorResponse
from repro.experiments.report import ExperimentRecord
from repro.experiments.trials import TrialConfig, _simulate_trial
from repro.geometry.tiles import DetectorGeometry
from repro.infer.engine import build_engine
from repro.localization.hierarchy import SkymapConfig
from repro.localization.pipeline import localize_baseline
from repro.pipeline.ml_pipeline import MLPipeline

#: Columns of one calibration-trial row, in order (see
#: :func:`calibration_trial`).
TRIAL_FIELDS = (
    "error_deg",
    "area68_deg2",
    "area90_deg2",
    "contained68",
    "contained90",
)


def calibration_trial(
    geometry: DetectorGeometry,
    response: DetectorResponse,
    rng: np.random.Generator,
    config: TrialConfig,
    skymap: SkymapConfig,
    ml_pipeline: MLPipeline | None = None,
    engine=None,
) -> np.ndarray:
    """Run one trial and score its credible regions against the truth.

    Args:
        geometry: Detector geometry.
        response: Detector response.
        rng: Trial generator.
        config: Experimental point (any :data:`~repro.experiments.trials.CONDITIONS`).
        skymap: Hierarchical search parameters.
        ml_pipeline: Required for the ``"ml"`` condition.
        engine: Optional pre-built inference engine for the ML condition.

    Returns:
        ``(5,)`` float array in :data:`TRIAL_FIELDS` order.  Failed
        localizations (no usable rings) score 180 degrees, NaN areas,
        and non-containment at both levels.

    Raises:
        ValueError: If the ML condition is requested without a pipeline.
    """
    events, grb = _simulate_trial(geometry, response, rng, config)
    truth = grb.source_direction
    if config.condition == "ml":
        if ml_pipeline is None:
            raise ValueError("ml condition requires a trained MLPipeline")
        pipeline = MLPipeline(
            background_net=ml_pipeline.background_net,
            deta_net=ml_pipeline.deta_net,
            config=replace(ml_pipeline.config, skymap=skymap),
        )
        outcome = pipeline.localize(
            events, rng, halt_after=config.halt_after, engine=engine
        )
    else:
        outcome = localize_baseline(
            events,
            rng,
            drop_background=(config.condition == "no_background"),
            true_deta=(config.condition == "true_deta"),
            skymap=skymap,
        )
    error = outcome.error_degrees(truth)
    sky = outcome.sky
    if sky is None:
        return np.array([error, np.nan, np.nan, 0.0, 0.0])
    return np.array(
        [
            error,
            sky.credible_region_area_deg2(0.68),
            sky.credible_region_area_deg2(0.90),
            float(sky.contains(truth, 0.68)),
            float(sky.contains(truth, 0.90)),
        ]
    )


@dataclass
class CalibrationReport:
    """Campaign-level containment-calibration statistics.

    Attributes:
        errors_deg: ``(n,)`` per-trial point-estimate errors.
        area68_deg2: ``(n,)`` 68% credible-region areas (NaN on failure).
        area90_deg2: ``(n,)`` 90% credible-region areas (NaN on failure).
        contained68: ``(n,)`` truth-in-68%-region flags.
        contained90: ``(n,)`` truth-in-90%-region flags.
    """

    errors_deg: np.ndarray
    area68_deg2: np.ndarray
    area90_deg2: np.ndarray
    contained68: np.ndarray
    contained90: np.ndarray

    @property
    def n_trials(self) -> int:
        """Trials in the campaign."""
        return int(self.errors_deg.shape[0])

    def fraction(self, level: float) -> float:
        """Observed containment fraction at a supported level (0.68/0.9).

        A calibrated map returns ~``level``.  Failed localizations count
        as non-contained, so the statistic penalizes rather than drops
        them.

        Raises:
            ValueError: For levels other than 0.68 and 0.9.
        """
        if abs(level - 0.68) < 1e-9:
            flags = self.contained68
        elif abs(level - 0.9) < 1e-9:
            flags = self.contained90
        else:
            raise ValueError("calibration campaigns record levels 0.68 and 0.9")
        return float(np.mean(flags)) if flags.size else float("nan")

    def summary(self) -> dict:
        """JSON-able summary of the campaign's coverage, areas and errors."""
        ok = np.isfinite(self.area90_deg2)
        return {
            "n_trials": self.n_trials,
            "n_localized": int(ok.sum()),
            "fraction68": self.fraction(0.68),
            "fraction90": self.fraction(0.9),
            "median_area68_deg2": float(np.median(self.area68_deg2[ok]))
            if ok.any()
            else float("nan"),
            "median_area90_deg2": float(np.median(self.area90_deg2[ok]))
            if ok.any()
            else float("nan"),
            "median_error_deg": float(np.median(self.errors_deg)),
        }

    def to_record(self, parameters: dict | None = None) -> ExperimentRecord:
        """Package the campaign as a persistable experiment record."""
        return ExperimentRecord(
            experiment="skymap_calibration",
            parameters=dict(parameters or {}),
            results={
                **self.summary(),
                "errors_deg": self.errors_deg,
                "area90_deg2": self.area90_deg2,
                "contained90": self.contained90,
            },
        )


#: Candidate likelihood temperatures tried by :func:`fit_temperature`,
#: coldest first.
DEFAULT_TEMPERATURES = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0)


def fit_temperature(
    geometry: DetectorGeometry,
    response: DetectorResponse,
    seed: int,
    n_trials: int,
    config: TrialConfig | None = None,
    skymap: SkymapConfig | None = None,
    ml_pipeline: MLPipeline | None = None,
    level: float = 0.9,
    temperatures: tuple[float, ...] = DEFAULT_TEMPERATURES,
    n_workers: int = 1,
    executor=None,
) -> tuple[float, "CalibrationReport"]:
    """Fit the likelihood temperature on a seeded calibration campaign.

    Classic temperature scaling, adapted to regions: run the campaign at
    each candidate temperature (coldest first) and keep the first whose
    observed containment fraction reaches ``level`` — the least
    smoothing that makes the ``level`` region honest.  Evaluate the
    fitted temperature on a *held-out* seed to quote unbiased coverage
    (``tests/experiments/test_calibration.py`` holds out seed 123 against
    the ``T = 2.5`` fitted at seed 77).

    Args:
        geometry: Detector geometry.
        response: Detector response.
        seed: Master seed of the fitting campaign.
        n_trials: Trials per candidate temperature.
        config: Experimental point (``true_deta`` condition by default).
        skymap: Search parameters; each candidate overrides only
            ``temperature``.
        ml_pipeline: Required for the ``"ml"`` condition.
        level: Credible level to calibrate (0.68 or 0.9).
        temperatures: Candidate grid, tried in ascending order.
        n_workers: Executor fan-out.
        executor: Explicit executor (overrides ``n_workers``).

    Returns:
        ``(temperature, report)`` — the fitted temperature and the
        fitting-campaign report at that temperature.  Falls back to the
        hottest candidate when none reaches ``level``.

    Raises:
        ValueError: For an empty candidate grid.
    """
    if not temperatures:
        raise ValueError("need at least one candidate temperature")
    base = skymap or SkymapConfig()
    picked: tuple[float, CalibrationReport] | None = None
    for temperature in sorted(temperatures):
        report = run_calibration(
            geometry,
            response,
            seed,
            n_trials,
            config=config,
            skymap=replace(base, temperature=temperature),
            ml_pipeline=ml_pipeline,
            n_workers=n_workers,
            executor=executor,
        )
        picked = (float(temperature), report)
        if report.fraction(level) >= level:
            break
    assert picked is not None
    return picked


def run_calibration(
    geometry: DetectorGeometry,
    response: DetectorResponse,
    seed: int,
    n_trials: int,
    config: TrialConfig | None = None,
    skymap: SkymapConfig | None = None,
    ml_pipeline: MLPipeline | None = None,
    n_workers: int = 1,
    executor=None,
) -> CalibrationReport:
    """Run a containment-calibration campaign.

    Trials are seeded by ``SeedSequence.spawn`` exactly like
    :func:`~repro.experiments.trials.run_trials`, so the report is
    bit-identical at every worker count.

    Args:
        geometry: Detector geometry.
        response: Detector response.
        seed: Master seed.
        n_trials: Independent trials.
        config: Experimental point; defaults to the ``true_deta``
            condition, the regime where the ring noise model (and thus
            calibration) holds — see the module docstring.
        skymap: Hierarchical search parameters (defaults).
        ml_pipeline: Required for the ``"ml"`` condition.
        n_workers: Fan-out over the persistent campaign executor.
        executor: Explicit executor (overrides ``n_workers``).

    Returns:
        A :class:`CalibrationReport`.

    Raises:
        ValueError: For a non-positive trial count.
    """
    from repro.experiments._campaign_worker import calibration_worker
    from repro.obs import trace as obs_trace
    from repro.parallel import get_executor

    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    config = config or TrialConfig(condition="true_deta")
    skymap = skymap or SkymapConfig()
    with obs_trace.span("calibration.run_calibration"):
        engine = None
        if config.condition == "ml" and ml_pipeline is not None:
            engine = build_engine(
                ml_pipeline, "planned", dtype=config.infer_dtype
            )
        seeds = np.random.SeedSequence(seed).spawn(n_trials)
        ex = executor if executor is not None else get_executor(n_workers)
        common = (geometry, response, config, skymap, ml_pipeline, engine)
        rows = np.array(ex.map(calibration_worker, seeds, common=common))
        return CalibrationReport(
            errors_deg=rows[:, 0],
            area68_deg2=rows[:, 1],
            area90_deg2=rows[:, 2],
            contained68=rows[:, 3].astype(bool),
            contained90=rows[:, 4].astype(bool),
        )
