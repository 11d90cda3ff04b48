"""Baseline (pre-ML) localization pipeline and its oracle variants.

``localize_baseline`` is the paper's prior pipeline: reconstruct rings,
filter, approximate, refine.  Two oracle switches reproduce the paper's
Fig. 4 diagnostic conditions:

* ``drop_background=True`` removes every true background ring before
  localization (Fig. 4 middle group);
* ``true_deta=True`` replaces the propagated ``d eta`` with each ring's
  true ``eta`` error (Fig. 4 right group).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detector.response import EventSet
from repro.localization.approximation import approximate_source
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.localization.hierarchy import SkymapConfig, hierarchical_skymap
from repro.localization.likelihood import capped_chi_square
from repro.localization.refinement import RefinementConfig, refine_source
from repro.localization.skymap import SkyMap
from repro.reconstruction.error_propagation import DETA_FLOOR
from repro.reconstruction.filters import FilterConfig, quality_filter
from repro.reconstruction.rings import RingSet, build_rings
from repro.sources.grb import LABEL_GRB


@dataclass(frozen=True)
class BaselineConfig:
    """Parameters of the baseline localization pipeline.

    Attributes:
        filter_config: Ring quality-filter thresholds.
        refinement: Robust least-squares parameters.
        approx_sample_size: Rings sampled by the approximation stage.
        approx_n_azimuth: Cone discretization of the approximation stage.
    """

    filter_config: FilterConfig = field(default_factory=FilterConfig)
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    approx_sample_size: int = 12
    approx_n_azimuth: int = 72
    #: Number of approximation seeds refined; the result with the best
    #: robust score wins.  Multi-start costs ~2x and removes most
    #: wrong-basin failures.
    num_seeds: int = 3


@dataclass
class LocalizationOutcome:
    """Result of localizing one exposure.

    Attributes:
        direction: ``(3,)`` estimated unit source direction, or None when
            localization could not run (no usable rings).
        rings: The rings that entered localization (post-filter).
        used: Mask over ``rings`` of those in the final solve.
        iterations: Refinement iterations executed.
        converged: Refinement convergence flag.
        sky: Optional posterior sky map with credible regions (present
            when the caller requested one via a
            :class:`~repro.localization.hierarchy.SkymapConfig`).
    """

    direction: np.ndarray | None
    rings: RingSet
    used: np.ndarray
    iterations: int
    converged: bool
    sky: SkyMap | None = None

    def error_degrees(self, true_direction: np.ndarray) -> float:
        """Angular error versus the true source direction, degrees.

        Failed localizations are scored at the worst possible error (180),
        so containment statistics penalize rather than silently drop them.
        """
        if self.direction is None:
            return 180.0
        c = float(np.clip(np.dot(self.direction, true_direction), -1.0, 1.0))
        return float(np.degrees(np.arccos(c)))


@obs_trace.traced("localize.localize_rings")
def localize_rings(
    rings: RingSet,
    rng: np.random.Generator,
    config: BaselineConfig | None = None,
    initial: np.ndarray | None = None,
    skymap: SkymapConfig | None = None,
) -> LocalizationOutcome:
    """Approximate + refine over a prepared ring set.

    Args:
        rings: Rings entering localization (already filtered).
        rng: Random generator (approximation sampling).
        config: Pipeline parameters.
        initial: Optional seed direction; approximation is skipped when
            provided.
        skymap: When set, also run the hierarchical sky search over
            ``rings`` and attach the posterior map (with 68/90% credible
            regions) to the outcome's ``sky`` field.

    Returns:
        A :class:`LocalizationOutcome`.

    Raises:
        ValueError: If a ring has a non-finite axis, eta or deta (the
            message counts them), or no refined candidate scores finite.
    """
    obs_metrics.inc("localize.calls")
    cfg = config or BaselineConfig()
    if rings.num_rings == 0:
        return LocalizationOutcome(
            direction=None,
            rings=rings,
            used=np.zeros(0, dtype=bool),
            iterations=0,
            converged=False,
        )
    # Every value is checked once, before any arithmetic: a NaN makes
    # every score NaN, but an infinite axis can score finite (the cap
    # absorbs it), so the scores cannot stand in for this check.  The
    # rings are counted on the failure path only.
    if not (
        np.isfinite(rings.axis).all()
        and np.isfinite(rings.eta).all()
        and np.isfinite(rings.deta).all()
    ):
        bad = ~(
            np.isfinite(rings.axis).all(axis=1)
            & np.isfinite(rings.eta)
            & np.isfinite(rings.deta)
        )
        raise ValueError(
            f"cannot localize: {int(bad.sum())} of {rings.num_rings} rings "
            f"have a non-finite axis, eta or deta"
        )
    if initial is not None:
        seeds = np.atleast_2d(np.asarray(initial, dtype=np.float64))
    else:
        with obs_trace.span("localize.approximate"):
            found = approximate_source(
                rings,
                rng,
                sample_size=cfg.approx_sample_size,
                n_azimuth=cfg.approx_n_azimuth,
                top_k=cfg.num_seeds,
            )
        if found is None:
            return LocalizationOutcome(
                direction=None,
                rings=rings,
                used=np.zeros(rings.num_rings, dtype=bool),
                iterations=0,
                converged=False,
            )
        seeds = np.atleast_2d(found)

    # Refine every seed, then score all refined candidates with a single
    # batched capped-chi-square evaluation (one (m, k) residual matrix
    # instead of k separate (m, 1) passes).
    with obs_trace.span("localize.refine"):
        results = [refine_source(rings, seed, cfg.refinement) for seed in seeds]
        candidates = np.stack([r.direction for r in results], axis=0)
        scores = capped_chi_square(rings, candidates)
    best = None
    best_score = np.inf
    for result, score in zip(results, scores):
        if score < best_score:
            best_score = float(score)
            best = result
    if best is None:
        raise ValueError("no refined candidate has a finite score")
    sky = None
    if skymap is not None:
        sky = hierarchical_skymap(rings, skymap).sky
    return LocalizationOutcome(
        direction=best.direction,
        rings=rings,
        used=best.used,
        iterations=best.iterations,
        converged=best.converged,
        sky=sky,
    )


def prepare_rings(
    events: EventSet,
    config: BaselineConfig | None = None,
    drop_background: bool = False,
    true_deta: bool = False,
) -> RingSet:
    """Reconstruct, filter, and optionally apply the Fig. 4 oracles.

    Args:
        events: Digitized events.
        config: Pipeline parameters (filter thresholds).
        drop_background: Remove rings from true background photons.
        true_deta: Replace propagated ``d eta`` with the true ``eta`` error
            (floored at the propagation floor).

    Returns:
        The ring set entering localization.
    """
    cfg = config or BaselineConfig()
    with obs_trace.span("reconstruct.prepare_rings"):
        rings = build_rings(events)
        n_built = rings.num_rings
        rings = rings.select(quality_filter(rings, events, cfg.filter_config))
        obs_metrics.inc("rings.built", n_built)
        obs_metrics.inc("rings.rejected", n_built - rings.num_rings)
    if drop_background:
        rings = rings.select(rings.labels == LABEL_GRB)
    if true_deta and rings.num_rings > 0:
        if rings.source_direction is None:
            raise ValueError("true_deta oracle requires a true source direction")
        rings = rings.with_deta(np.maximum(rings.true_eta_errors(), DETA_FLOOR))
    return rings


def localize_baseline(
    events: EventSet,
    rng: np.random.Generator,
    config: BaselineConfig | None = None,
    drop_background: bool = False,
    true_deta: bool = False,
    skymap: SkymapConfig | None = None,
) -> LocalizationOutcome:
    """Run the full baseline pipeline on digitized events.

    Args:
        events: Digitized events from one exposure.
        rng: Random generator.
        config: Pipeline parameters.
        drop_background: Oracle — remove true background rings (Fig. 4).
        true_deta: Oracle — use true ``eta`` errors as ``d eta`` (Fig. 4).
        skymap: When set, attach a hierarchical posterior sky map to the
            outcome (see :func:`localize_rings`).

    Returns:
        A :class:`LocalizationOutcome`.
    """
    cfg = config or BaselineConfig()
    rings = prepare_rings(
        events, cfg, drop_background=drop_background, true_deta=true_deta
    )
    return localize_rings(rings, rng, cfg, skymap=skymap)
