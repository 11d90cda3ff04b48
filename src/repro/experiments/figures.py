"""Reproduction drivers: one function per paper figure/table.

Every driver returns structured results and has a ``print_*`` companion
emitting the same rows/series the paper reports.  Scale (trial counts,
meta-trials, angle grids) is configurable; defaults are sized for a
single-core machine (the paper's 1000 x 10 trials would take hours).

Set the environment variable ``REPRO_BENCH_SCALE`` (float, default 1.0)
to proportionally scale trial counts in the benchmark suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from repro.detector.response import DetectorResponse
from repro.experiments.containment import containment_with_errorbars
from repro.experiments.modelzoo import TrainedModels, get_or_train_pipeline
from repro.experiments.trials import TrialConfig, run_meta_trials
from repro.fpga.hls_model import (
    PAPER_NUM_RINGS,
    KernelReport,
    synthesize_kernel,
)
from repro.geometry.tiles import DetectorGeometry, adapt_geometry
from repro.models.quantized import quantize_background_net
from repro.pipeline.ml_pipeline import MLPipeline
from repro.platforms.platforms import ATOM, RPI3B_PLUS, PlatformModel, STAGE_NAMES
from repro.sources.grb import LABEL_BACKGROUND


def bench_scale() -> float:
    """Trial-count multiplier from ``REPRO_BENCH_SCALE`` (default 1)."""
    try:
        return max(0.05, float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


@dataclass
class ExperimentScale:
    """Trial sizing for one experiment run.

    Attributes:
        n_trials: Trials per experimental point (paper: 1000).
        n_meta: Meta-trials for error bars (paper: 10).
        polar_angles: Polar-angle grid for angle sweeps (paper: 0..80
            step 10; default here is a coarser grid for runtime).
        fluences: Fluence grid for Fig. 9.
        seed: Master seed.
        n_workers: Process fan-out for trials; every figure point shares
            one persistent pool per worker count.
        cache: Deterministic stage cache for trial sets (True uses the
            repo-local ``.campaign_cache/``; results are bit-identical
            hit or miss, so figures can be re-rendered for free).
        infer_dtype: Float-plan compute dtype for ML-condition points
            ("float64" gives the eager results bit for bit; "float32" is
            the faster deployment dtype); ignored by non-ML conditions.
    """

    n_trials: int = 30
    n_meta: int = 2
    polar_angles: tuple[float, ...] = (0.0, 20.0, 40.0, 60.0, 80.0)
    fluences: tuple[float, ...] = (0.5, 0.75, 1.0, 2.0, 4.0)
    seed: int = 7
    n_workers: int = 1
    cache: object = None
    infer_dtype: str = "float64"

    @staticmethod
    def from_env() -> "ExperimentScale":
        s = bench_scale()
        return ExperimentScale(
            n_trials=max(10, int(round(30 * s))),
            n_meta=2 if s < 3 else 3,
        )


@dataclass
class ContainmentPoint:
    """68%/95% containment with error bars at one experimental point."""

    mean68: float
    std68: float
    mean95: float
    std95: float

    @staticmethod
    def from_error_sets(error_sets: list[np.ndarray]) -> "ContainmentPoint":
        m68, s68 = containment_with_errorbars(error_sets, 0.68)
        m95, s95 = containment_with_errorbars(error_sets, 0.95)
        return ContainmentPoint(mean68=m68, std68=s68, mean95=m95, std95=s95)

    def row(self) -> str:
        """One formatted 68%/95% containment line."""
        return (
            f"68%: {self.mean68:6.2f} +- {self.std68:4.2f} deg   "
            f"95%: {self.mean95:6.2f} +- {self.std95:4.2f} deg"
        )


def _point(
    geometry: DetectorGeometry,
    response: DetectorResponse,
    config: TrialConfig,
    scale: ExperimentScale,
    ml_pipeline: MLPipeline | None = None,
    seed_offset: int = 0,
) -> ContainmentPoint:
    if config.condition == "ml":
        config = replace(config, infer_dtype=scale.infer_dtype)
    sets = run_meta_trials(
        geometry,
        response,
        scale.seed + seed_offset,
        scale.n_trials,
        scale.n_meta,
        config,
        ml_pipeline,
        scale.n_workers,
        cache=scale.cache,
    )
    return ContainmentPoint.from_error_sets(sets)


# --------------------------------------------------------------------------
# Figure 4: baseline limits
# --------------------------------------------------------------------------


def figure4(
    scale: ExperimentScale | None = None,
    fluence: float = 1.0,
) -> dict[str, ContainmentPoint]:
    """Fig. 4 — impact of background and ``d eta`` error on the baseline.

    Conditions: the full baseline pipeline, the background-removal oracle,
    and the true-``d eta`` oracle, all at a normally incident burst.
    """
    scale = scale or ExperimentScale.from_env()
    geometry = adapt_geometry()
    response = DetectorResponse(geometry)
    out: dict[str, ContainmentPoint] = {}
    for i, condition in enumerate(("baseline", "no_background", "true_deta")):
        cfg = TrialConfig(
            fluence_mev_cm2=fluence, polar_angle_deg=0.0, condition=condition
        )
        out[condition] = _point(geometry, response, cfg, scale, seed_offset=i)
    return out


def print_figure4(results: dict[str, ContainmentPoint]) -> None:
    """Print the Fig. 4 condition rows."""
    names = {
        "baseline": "Background + estimated dEta (full)",
        "no_background": "Background removed (oracle)",
        "true_deta": "True dEta substituted (oracle)",
    }
    print("\nFigure 4 — baseline localization limits (1 MeV/cm^2, polar 0)")
    for key, point in results.items():
        print(f"  {names[key]:38s} {point.row()}")


# --------------------------------------------------------------------------
# Figures 8 & 9: ML pipeline vs baseline
# --------------------------------------------------------------------------


def figure8(
    scale: ExperimentScale | None = None,
    models: TrainedModels | None = None,
    fluence: float = 1.0,
) -> dict[float, dict[str, ContainmentPoint]]:
    """Fig. 8 — accuracy vs polar angle, baseline vs NN pipeline."""
    scale = scale or ExperimentScale.from_env()
    models = models or get_or_train_pipeline()
    geometry = adapt_geometry()
    response = DetectorResponse(geometry)
    out: dict[float, dict[str, ContainmentPoint]] = {}
    for i, polar in enumerate(scale.polar_angles):
        base_cfg = TrialConfig(
            fluence_mev_cm2=fluence, polar_angle_deg=polar, condition="baseline"
        )
        ml_cfg = TrialConfig(
            fluence_mev_cm2=fluence, polar_angle_deg=polar, condition="ml"
        )
        out[polar] = {
            "baseline": _point(
                geometry, response, base_cfg, scale, seed_offset=10 + i
            ),
            "ml": _point(
                geometry,
                response,
                ml_cfg,
                scale,
                ml_pipeline=models.pipeline,
                seed_offset=10 + i,
            ),
        }
    return out


def print_figure8(results: dict[float, dict[str, ContainmentPoint]]) -> None:
    """Print the Fig. 8 polar-angle series."""
    print("\nFigure 8 — accuracy vs polar angle (1 MeV/cm^2)")
    for polar, conditions in results.items():
        print(f"  polar {polar:4.0f} deg:")
        print(f"    without NN: {conditions['baseline'].row()}")
        print(f"    with NN:    {conditions['ml'].row()}")


def figure9(
    scale: ExperimentScale | None = None,
    models: TrainedModels | None = None,
) -> dict[float, dict[str, ContainmentPoint]]:
    """Fig. 9 — accuracy vs fluence (normal incidence)."""
    scale = scale or ExperimentScale.from_env()
    models = models or get_or_train_pipeline()
    geometry = adapt_geometry()
    response = DetectorResponse(geometry)
    out: dict[float, dict[str, ContainmentPoint]] = {}
    for i, fluence in enumerate(scale.fluences):
        base_cfg = TrialConfig(
            fluence_mev_cm2=fluence, polar_angle_deg=0.0, condition="baseline"
        )
        ml_cfg = TrialConfig(
            fluence_mev_cm2=fluence, polar_angle_deg=0.0, condition="ml"
        )
        out[fluence] = {
            "baseline": _point(
                geometry, response, base_cfg, scale, seed_offset=30 + i
            ),
            "ml": _point(
                geometry,
                response,
                ml_cfg,
                scale,
                ml_pipeline=models.pipeline,
                seed_offset=30 + i,
            ),
        }
    return out


def print_figure9(results: dict[float, dict[str, ContainmentPoint]]) -> None:
    """Print the Fig. 9 fluence series."""
    print("\nFigure 9 — accuracy vs fluence (polar 0)")
    for fluence, conditions in results.items():
        print(f"  fluence {fluence:4.2f} MeV/cm^2:")
        print(f"    without NN: {conditions['baseline'].row()}")
        print(f"    with NN:    {conditions['ml'].row()}")


# --------------------------------------------------------------------------
# Figure 7: polar-angle input ablation
# --------------------------------------------------------------------------


def figure7(
    scale: ExperimentScale | None = None,
) -> dict[float, dict[str, ContainmentPoint]]:
    """Fig. 7 — NN pipeline with vs without the polar-angle input."""
    scale = scale or ExperimentScale.from_env()
    with_polar = get_or_train_pipeline(include_polar=True)
    no_polar = get_or_train_pipeline(include_polar=False)
    geometry = adapt_geometry()
    response = DetectorResponse(geometry)
    out: dict[float, dict[str, ContainmentPoint]] = {}
    for i, polar in enumerate(scale.polar_angles):
        cfg = TrialConfig(
            fluence_mev_cm2=1.0, polar_angle_deg=polar, condition="ml"
        )
        out[polar] = {
            "polar": _point(
                geometry,
                response,
                cfg,
                scale,
                ml_pipeline=with_polar.pipeline,
                seed_offset=50 + i,
            ),
            "no_polar": _point(
                geometry,
                response,
                cfg,
                scale,
                ml_pipeline=no_polar.pipeline,
                seed_offset=50 + i,
            ),
        }
    return out


def print_figure7(results: dict[float, dict[str, ContainmentPoint]]) -> None:
    """Print the Fig. 7 polar-input comparison."""
    print("\nFigure 7 — impact of the polar-angle input (1 MeV/cm^2)")
    for polar, conditions in results.items():
        print(f"  polar {polar:4.0f} deg:")
        print(f"    Polar:    {conditions['polar'].row()}")
        print(f"    No Polar: {conditions['no_polar'].row()}")


# --------------------------------------------------------------------------
# Figure 10: perturbation robustness
# --------------------------------------------------------------------------


def figure10(
    scale: ExperimentScale | None = None,
    models: TrainedModels | None = None,
    epsilons: tuple[float, ...] = (0.0, 1.0, 5.0, 10.0),
) -> dict[float, dict[str, ContainmentPoint]]:
    """Fig. 10 — accuracy under Gaussian input perturbation."""
    scale = scale or ExperimentScale.from_env()
    models = models or get_or_train_pipeline()
    geometry = adapt_geometry()
    response = DetectorResponse(geometry)
    out: dict[float, dict[str, ContainmentPoint]] = {}
    for i, eps in enumerate(epsilons):
        base_cfg = TrialConfig(
            fluence_mev_cm2=1.0,
            polar_angle_deg=0.0,
            condition="baseline",
            epsilon_percent=eps,
        )
        ml_cfg = TrialConfig(
            fluence_mev_cm2=1.0,
            polar_angle_deg=0.0,
            condition="ml",
            epsilon_percent=eps,
        )
        out[eps] = {
            "baseline": _point(
                geometry, response, base_cfg, scale, seed_offset=70 + i
            ),
            "ml": _point(
                geometry,
                response,
                ml_cfg,
                scale,
                ml_pipeline=models.pipeline,
                seed_offset=70 + i,
            ),
        }
    return out


def print_figure10(results: dict[float, dict[str, ContainmentPoint]]) -> None:
    """Print the Fig. 10 perturbation series."""
    print("\nFigure 10 — accuracy with perturbed inputs (1 MeV/cm^2, polar 0)")
    for eps, conditions in results.items():
        print(f"  epsilon {eps:4.1f}%:")
        print(f"    without NN: {conditions['baseline'].row()}")
        print(f"    with NN:    {conditions['ml'].row()}")


# --------------------------------------------------------------------------
# Figure 11: quantized background model
# --------------------------------------------------------------------------


def build_int8_pipeline(
    seed: int = 2024, exposures_per_angle: int = 20
) -> tuple[MLPipeline, MLPipeline]:
    """Train the swapped model, quantize it, and build both pipelines.

    Returns:
        ``(fp32_pipeline, int8_pipeline)`` sharing the same dEta model,
        mirroring the paper's Fig. 11 setup.
    """
    swapped = get_or_train_pipeline(seed=seed, swapped=True,
                                    exposures_per_angle=exposures_per_angle)
    rng = np.random.default_rng(seed + 99)
    data = swapped.data
    int8_net = quantize_background_net(
        swapped.background_net,
        data.features,
        (data.labels == LABEL_BACKGROUND).astype(np.float64),
        data.polar_true,
        rng,
    )
    fp32_pipeline = swapped.pipeline
    int8_pipeline = MLPipeline(
        background_net=int8_net,  # type: ignore[arg-type]
        deta_net=swapped.deta_net,
        config=swapped.pipeline.config,
    )
    return fp32_pipeline, int8_pipeline


def figure11(
    scale: ExperimentScale | None = None,
) -> dict[float, dict[str, ContainmentPoint]]:
    """Fig. 11 — INT8-quantized vs FP32 background model across angles."""
    scale = scale or ExperimentScale.from_env()
    fp32_pipeline, int8_pipeline = build_int8_pipeline()
    geometry = adapt_geometry()
    response = DetectorResponse(geometry)
    out: dict[float, dict[str, ContainmentPoint]] = {}
    for i, polar in enumerate(scale.polar_angles):
        cfg = TrialConfig(
            fluence_mev_cm2=1.0, polar_angle_deg=polar, condition="ml"
        )
        out[polar] = {
            "fp32": _point(
                geometry,
                response,
                cfg,
                scale,
                ml_pipeline=fp32_pipeline,
                seed_offset=90 + i,
            ),
            "int8": _point(
                geometry,
                response,
                cfg,
                scale,
                ml_pipeline=int8_pipeline,
                seed_offset=90 + i,
            ),
        }
    return out


def print_figure11(results: dict[float, dict[str, ContainmentPoint]]) -> None:
    """Print the Fig. 11 INT8-vs-FP32 series."""
    print("\nFigure 11 — quantized background model (1 MeV/cm^2)")
    for polar, conditions in results.items():
        print(f"  polar {polar:4.0f} deg:")
        print(f"    FP32: {conditions['fp32'].row()}")
        print(f"    INT8: {conditions['int8'].row()}")


# --------------------------------------------------------------------------
# Tables I & II: platform timing
# --------------------------------------------------------------------------


def timing_table(platform: PlatformModel) -> list[tuple[str, float, float, float]]:
    """One platform's Table I/II rows at the paper-nominal workload.

    Returns:
        Rows of ``(stage, mean_ms, min_ms, max_ms)`` plus the 5-iteration
        total as the final row.
    """
    times = platform.predict()
    rows = [
        (stage, times.mean_ms[stage], *times.range_ms[stage])
        for stage in STAGE_NAMES
    ]
    lo, hi = times.total_range()
    rows.append(("Total (Max 5 iter)", times.total_mean(), lo, hi))
    return rows


def print_timing_table(platform: PlatformModel) -> None:
    """Print one platform's Table I/II rows."""
    print(f"\nTiming results on {platform.name}")
    print(f"  {'Stage':22s} {'Mean (ms)':>10s} {'Range (ms)':>14s}")
    for stage, mean, lo, hi in timing_table(platform):
        print(f"  {stage:22s} {mean:10.1f} {lo:6.0f}-{hi:.0f}")


def table1() -> list[tuple[str, float, float, float]]:
    """Table I — RPi 3B+ stage timings."""
    return timing_table(RPI3B_PLUS)


def table2() -> list[tuple[str, float, float, float]]:
    """Table II — Atom stage timings."""
    return timing_table(ATOM)


# --------------------------------------------------------------------------
# Table III: FPGA synthesis
# --------------------------------------------------------------------------


def table3() -> dict[str, KernelReport]:
    """Table III — INT8 vs FP32 kernel synthesis estimates."""
    return {
        "int8": synthesize_kernel(dtype="int8"),
        "fp32": synthesize_kernel(dtype="fp32"),
    }


def print_table3(reports: dict[str, KernelReport] | None = None) -> None:
    """Print the Table III statistic rows."""
    reports = reports or table3()
    r8, r32 = reports["int8"], reports["fp32"]
    print("\nTable III — quantization results on FPGA (model estimates)")
    rows = [
        ("Latency (cycles)", r8.latency_cycles, r32.latency_cycles),
        ("Initiation Interval (cycles)", r8.ii_cycles, r32.ii_cycles),
        ("BRAM Blocks", r8.bram, r32.bram),
        ("DSP Slices", r8.dsp, r32.dsp),
        ("Flip-Flops", r8.ff, r32.ff),
        ("Lookup Tables", r8.lut, r32.lut),
        (
            f"Latency (ms) for {PAPER_NUM_RINGS} rings",
            round(r8.batch_latency_ms(PAPER_NUM_RINGS), 2),
            round(r32.batch_latency_ms(PAPER_NUM_RINGS), 2),
        ),
    ]
    print(f"  {'Statistic':32s} {'INT8':>12s} {'FP32':>12s}")
    for name, a, b in rows:
        print(f"  {name:32s} {a:>12} {b:>12}")
