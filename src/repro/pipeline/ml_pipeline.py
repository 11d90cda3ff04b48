"""The iterative ML localization pipeline of paper Fig. 6.

Because the networks take the source's polar angle as an input — and the
polar angle is only known once a source estimate exists — the models are
applied *in the middle* of localization:

1. Localize once without ML to get an initial estimate ``s_hat``.
2. Iterate (at most ``max_iterations``, paper: 5): compute the polar angle
   of ``s_hat``; classify every ring with the background network at that
   angle (per-bin threshold); drop the rings called background; re-localize
   the survivors seeded at ``s_hat``.  Stop early when the estimate stops
   moving.
3. Overwrite the survivors' ``d eta`` with the dEta network's prediction
   and run a final localization seeded at the last ``s_hat``.

The iteration is *anytime*: if the system is loaded, the loop can halt
after any step and report the current ``s_hat`` (`halt_after` exposes this
for the efficiency/accuracy trade-off study).

**Multi-hypothesis iteration.**  Classification given a *wrong* estimate
is self-reinforcing: the network keeps exactly the rings consistent with
that wrong direction, so the iteration polishes the wrong basin.  (We
verified this empirically: at a wrong seed, ~80% of true GRB rings get
discarded; at the true direction, ~30%.)  The pipeline therefore runs the
Fig. 6 iteration independently from a handful of initial hypotheses (the
baseline estimate plus the approximation stage's top candidate basins) and
keeps the hypothesis whose final direction best explains the *full* ring
population under a robust capped chi-square — the same anytime structure,
a constant factor more work, and immune to a bad first estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detector.response import EventSet
from repro.localization.approximation import approximate_source
from repro.localization.hierarchy import SkymapConfig, hierarchical_skymap
from repro.localization.likelihood import capped_chi_square
from repro.localization.pipeline import (
    BaselineConfig,
    localize_rings,
    prepare_rings,
)
from repro.localization.skymap import SkyMap
from repro.infer.engine import EagerEngine, InferRequest, evaluate_request
from repro.models.background import BackgroundNet
from repro.models.deta import DEtaNet
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.models.features import (
    azimuth_angle_of,
    features_from_block,
    polar_angle_of,
    ring_feature_block,
)
from repro.reconstruction.rings import RingSet


@dataclass(frozen=True)
class MLPipelineConfig:
    """Parameters of the iterative scheme.

    Attributes:
        baseline: Underlying approximation/refinement parameters.
        max_iterations: Background-rejection iterations (paper: 5).
        convergence_deg: Stop iterating when the estimate moves less than
            this between iterations.
        min_rings: Never let background rejection leave fewer rings than
            this; if it would, the rings with *lowest* background
            probability are retained instead.
    """

    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    max_iterations: int = 5
    convergence_deg: float = 0.5
    min_rings: int = 8
    #: Independent iteration hypotheses (see module docstring).
    num_hypotheses: int = 3
    #: Optional anytime accuracy target: halt iterating once the
    #: Fisher-information predicted 1-sigma error of the current estimate
    #: drops below this (paper: "if our models suggest that further
    #: iteration is not needed to achieve a given level of accuracy ...
    #: we may at any point halt").  None disables the check.
    accuracy_target_deg: float | None = None
    #: How the dEta network's output is applied: "replace" overwrites the
    #: propagated width wholesale (the paper's scheme); "widen_only"
    #: takes max(network, propagated) — conservative, protecting bright
    #: bursts where propagation is already adequate.
    deta_mode: str = "replace"
    #: Optional hierarchical sky-map stage: when set, every outcome
    #: carries a posterior :class:`~repro.localization.skymap.SkyMap`
    #: (68/90% credible regions) computed over the final surviving rings
    #: — pure NumPy, no extra network requests, so the InferRequest
    #: stream (and its bit-parity guarantees) is unchanged.  None
    #: (the default) skips the stage.
    skymap: SkymapConfig | None = None


@dataclass
class MLPipelineOutcome:
    """Result of the ML pipeline on one exposure.

    Attributes:
        direction: Final unit source direction (None if unlocalizable).
        iterations: Background-rejection iterations executed.
        converged: Whether the iteration stopped on the motion criterion.
        rings_in: Ring count entering the ML stage.
        rings_kept: Ring count surviving background rejection.
        background_removed_correct: Of the rings removed, how many were
            truly background (diagnostics).
        intermediate_directions: ``s_hat`` after each iteration (for the
            anytime-trade-off study).
        sky: Posterior sky map over the final ring set, when the
            pipeline config enables the skymap stage (None otherwise).
    """

    direction: np.ndarray | None
    iterations: int
    converged: bool
    rings_in: int
    rings_kept: int
    background_removed_correct: int
    intermediate_directions: list[np.ndarray]
    sky: SkyMap | None = None

    def error_degrees(self, true_direction: np.ndarray) -> float:
        """Angular error versus truth (180 for failed localizations)."""
        if self.direction is None:
            return 180.0
        c = float(np.clip(np.dot(self.direction, true_direction), -1.0, 1.0))
        return float(np.degrees(np.arccos(c)))


@dataclass
class MLPipeline:
    """Bundles the two networks with the localization machinery.

    Attributes:
        background_net: Trained background classifier.
        deta_net: Trained dEta regressor.
        config: Iteration parameters.
    """

    background_net: BackgroundNet
    deta_net: DEtaNet
    config: MLPipelineConfig = field(default_factory=MLPipelineConfig)

    def _classify_background(self, block: np.ndarray, s_hat: np.ndarray):
        """Background mask over the rings of ``block`` at an estimate.

        ``block`` is the rings' :func:`ring_feature_block`, built once
        per alert; only the azimuth rotation and the polar column are
        redone per call.  A generator: yields one ``InferRequest`` for
        the ring features and receives the per-ring background
        probabilities from whatever engine is driving the loop; returns
        the boolean mask.  The probabilities are evaluated once and
        reused for the ``min_rings`` fallback (bit-identical to
        thresholding and re-predicting — the features are unchanged).
        """
        polar_deg = polar_angle_of(s_hat)
        feats = features_from_block(
            block,
            polar_guess_deg=polar_deg,
            include_polar=self.background_net.include_polar,
            azimuth_deg=azimuth_angle_of(s_hat),
        )
        prob = yield InferRequest("background", feats)
        polar = np.full(prob.shape[0], float(polar_deg))
        mask = self.background_net.thresholds.classify(prob, polar)
        m = block.shape[0]
        if (~mask).sum() < self.config.min_rings and m > 0:
            order = np.argsort(prob)
            mask = np.ones(m, dtype=bool)
            mask[order[: min(self.config.min_rings, m)]] = False
        return mask

    def _skymap(self, rings: RingSet) -> SkyMap | None:
        """Posterior map over the final ring set (None when disabled).

        Runs after the networks have cleaned the rings, so the map's
        credible regions reflect the ML-corrected ``d eta`` widths —
        this is what makes them calibratable (see docs/localization.md).
        """
        if self.config.skymap is None or rings.num_rings == 0:
            return None
        return hierarchical_skymap(rings, self.config.skymap).sky

    def _iterate(
        self,
        all_rings: RingSet,
        block: np.ndarray,
        seed_direction: np.ndarray,
        rng: np.random.Generator,
        halt_after: int | None,
    ):
        """One Fig. 6 background-rejection iteration chain from one seed.

        A generator (network evaluations arrive via ``yield from``);
        returns (final s_hat, survivor mask over ``all_rings``,
        survivors, iterations, converged, intermediate directions).
        """
        cfg = self.config
        s_hat = np.asarray(seed_direction, dtype=np.float64)
        keep = np.ones(all_rings.num_rings, dtype=bool)
        survivors = all_rings
        intermediates: list[np.ndarray] = []
        converged = False
        iterations = 0
        for iterations in range(1, cfg.max_iterations + 1):
            obs_metrics.inc("ml.iterations")
            with obs_trace.span("ml.iteration"):
                bkg_mask = yield from self._classify_background(block, s_hat)
                keep = ~bkg_mask
                survivors = all_rings.select(keep)
                outcome = localize_rings(
                    survivors, rng, cfg.baseline, initial=s_hat
                )
            if outcome.direction is None:
                break
            step = np.degrees(
                np.arccos(np.clip(np.dot(s_hat, outcome.direction), -1.0, 1.0))
            )
            s_hat = outcome.direction
            intermediates.append(s_hat)
            if halt_after is not None and iterations >= halt_after:
                break
            if step < cfg.convergence_deg:
                converged = True
                break
            if cfg.accuracy_target_deg is not None:
                from repro.localization.uncertainty import predicted_error_deg

                predicted = predicted_error_deg(
                    survivors, s_hat, used=outcome.used
                )
                if predicted <= cfg.accuracy_target_deg:
                    converged = True
                    break
        return s_hat, keep, survivors, iterations, converged, intermediates

    def localize_requests(
        self,
        events: EventSet,
        rng: np.random.Generator,
        halt_after: int | None = None,
    ):
        """The Fig. 6 loop as a request generator (advanced coroutine API).

        Yields :class:`~repro.infer.engine.InferRequest` items whenever a
        network evaluation is needed and expects the prediction array
        back via ``send``; the final :class:`MLPipelineOutcome` is the
        generator's return value (``StopIteration.value``).  This is the
        seam the batched campaign front-end
        (:func:`repro.infer.localize_many`) uses to gather feature blocks
        across many events into one planned pass per round — all
        localization math and RNG draws stay inside the generator, in
        exactly the order of a solo run.

        Args:
            events: Digitized events.
            rng: Random generator (approximation sampling).
            halt_after: Anytime knob — stop after this many
                background-rejection iterations (skipping the dEta stage)
                and report the current estimate; None runs to completion.
        """
        cfg = self.config
        all_rings = prepare_rings(events, cfg.baseline)
        initial = localize_rings(all_rings, rng, cfg.baseline)
        if initial.direction is None:
            return MLPipelineOutcome(
                direction=None,
                iterations=0,
                converged=False,
                rings_in=all_rings.num_rings,
                rings_kept=all_rings.num_rings,
                background_removed_correct=0,
                intermediate_directions=[],
            )

        # Direction-independent ring features, shared by every background
        # classification and the dEta stage of this alert.
        block = ring_feature_block(all_rings, events)

        # Hypothesis seeds: the baseline estimate plus the approximation
        # stage's top mutually-separated candidate basins.
        seeds: list[np.ndarray] = [initial.direction]
        extra = approximate_source(
            all_rings,
            rng,
            sample_size=cfg.baseline.approx_sample_size,
            n_azimuth=cfg.baseline.approx_n_azimuth,
            top_k=cfg.num_hypotheses,
        )
        if extra is not None:
            for s in np.atleast_2d(extra):
                if all(
                    np.degrees(np.arccos(np.clip(float(s @ t), -1.0, 1.0))) > 5.0
                    for t in seeds
                ):
                    seeds.append(s)
        seeds = seeds[: cfg.num_hypotheses]

        best: tuple | None = None
        best_score = np.inf
        for seed_dir in seeds:
            result = yield from self._iterate(
                all_rings, block, seed_dir, rng, halt_after
            )
            score = float(
                capped_chi_square(all_rings, result[0][None, :], cap=4.0)[0]
            )
            if score < best_score:
                best_score = score
                best = result
        assert best is not None
        s_hat, keep, survivors, iterations, converged, intermediates = best

        removed = all_rings.num_rings - survivors.num_rings
        removed_correct = 0
        if removed > 0:
            bkg_mask = yield from self._classify_background(block, s_hat)
            removed_correct = int(np.sum(bkg_mask & (all_rings.labels == 1)))

        if halt_after is not None and not converged:
            return MLPipelineOutcome(
                direction=s_hat,
                iterations=iterations,
                converged=converged,
                rings_in=all_rings.num_rings,
                rings_kept=survivors.num_rings,
                background_removed_correct=removed_correct,
                intermediate_directions=intermediates,
                sky=self._skymap(survivors),
            )

        # dEta stage: overwrite survivors' ring widths, re-localize from
        # the last estimate.
        if survivors.num_rings > 0:
            feats = features_from_block(
                block[keep],
                polar_guess_deg=polar_angle_of(s_hat),
                include_polar=self.deta_net.include_polar,
                azimuth_deg=azimuth_angle_of(s_hat),
            )
            predicted = yield InferRequest("deta", feats)
            if cfg.deta_mode == "widen_only":
                predicted = np.maximum(predicted, survivors.deta)
            elif cfg.deta_mode != "replace":
                raise ValueError(
                    f"unknown deta_mode {cfg.deta_mode!r}; use 'replace' or "
                    f"'widen_only'"
                )
            survivors = survivors.with_deta(predicted)
            final = localize_rings(survivors, rng, cfg.baseline, initial=s_hat)
            if final.direction is not None:
                s_hat = final.direction

        return MLPipelineOutcome(
            direction=s_hat,
            iterations=iterations,
            converged=converged,
            rings_in=all_rings.num_rings,
            rings_kept=survivors.num_rings,
            background_removed_correct=removed_correct,
            intermediate_directions=intermediates,
            sky=self._skymap(survivors),
        )

    @obs_trace.traced("ml.localize")
    def localize(
        self,
        events: EventSet,
        rng: np.random.Generator,
        halt_after: int | None = None,
        engine=None,
    ) -> MLPipelineOutcome:
        """Run the full Fig. 6 pipeline on one exposure's events.

        Answers each request as it comes, one event at a time: this is
        the per-event reference the batched paths are tested against.

        Args:
            events: Digitized events.
            rng: Random generator (approximation sampling).
            halt_after: Anytime knob — stop after this many
                background-rejection iterations (skipping the dEta stage)
                and report the current estimate; None runs to completion.
            engine: Inference backend answering the network requests
                (see :func:`repro.infer.build_engine`); None evaluates
                the bundles eagerly through an
                :class:`~repro.infer.engine.EagerEngine`.  A float64
                planned engine is bit-identical to it on per-event
                blocks (pinned by ``tests/infer``).

        Returns:
            An :class:`MLPipelineOutcome`.
        """
        if engine is None:
            engine = EagerEngine(self.background_net, self.deta_net)
        gen = self.localize_requests(events, rng, halt_after=halt_after)
        try:
            request = next(gen)
            while True:
                request = gen.send(evaluate_request(engine, request))
        except StopIteration as stop:
            return stop.value
