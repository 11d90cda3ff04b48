"""Registered microbenchmarks for every inference kernel.

One entry per hot kernel, at the paper's workload shape: the
first-background-iteration ring block (597 rows — see
``fpga.PAPER_NUM_RINGS``) pushed through the widest background-net
stage (13 -> 256), the localization kernels (approximate/refine,
sky search) over a synthetic ring block of the same size, and source
generation, photon transport and digitization of one simulated ADAPT
exposure.  Importing this module
populates the registry in :mod:`repro.perf.registry`; ``repro.perf``
does so on import.

Workloads are built deterministically (fixed seeds) inside each
``build`` factory, so registering is free and nothing heavy happens
until a runner asks for numbers.
"""

from __future__ import annotations

import numpy as np

from repro.perf.registry import register

#: Paper block regime: rings in the first background iteration.
BLOCK_ROWS = 597
#: Widest background-net stage (input features -> first hidden layer).
IN_WIDTH = 13
OUT_WIDTH = 256


def _rng(seed: int) -> np.random.Generator:
    """Benchmark-workload generator.

    Fixed seeds are the point here: every run must time *identical*
    work, and these draws are benchmark fixtures, never campaign
    physics, so the campaign SeedSequence rule does not apply.
    """
    return np.random.default_rng(seed)  # reprolint: disable=RNG001 -- benchmark fixture; identical workload every run is the requirement


def _linear_op(dtype):
    from repro.infer.plan import LinearOp

    rng = _rng(11)
    return LinearOp(
        weight=rng.normal(size=(IN_WIDTH, OUT_WIDTH)).astype(dtype),
        bias=rng.normal(size=OUT_WIDTH).astype(dtype),
        activation="relu",
    )


def _quantized_layer():
    """A paper-shaped per-channel ``QuantizedLinear`` (13 -> 256)."""
    from repro.quantization.int8 import QuantizedLinear

    rng = _rng(13)
    w = rng.normal(size=(IN_WIDTH, OUT_WIDTH))
    return QuantizedLinear.from_float(
        weight=w,
        bias=rng.normal(size=OUT_WIDTH),
        weight_scale=np.maximum(np.abs(w).max(axis=0), 1e-12) / 127.0,
        in_scale=0.05,
        in_zero_point=128,
        out_scale=0.1,
        out_zero_point=128,
        relu=True,
    )


def _quantized_input(rows: int = BLOCK_ROWS):
    from repro.quantization.fake_quant import UINT8_MAX, UINT8_MIN, quantize

    rng = _rng(17)
    x = rng.normal(size=(rows, IN_WIDTH))
    return quantize(x, 0.05, 128, UINT8_MIN, UINT8_MAX)


@register("linear_f32_block597", op="LinearOp")
def _bench_linear_f32():
    op = _linear_op(np.float32)
    x = _rng(3).normal(size=(BLOCK_ROWS, IN_WIDTH))
    x = x.astype(np.float32)
    out = np.empty((BLOCK_ROWS, OUT_WIDTH), dtype=np.float32)
    return (lambda: op.apply(x, out)), BLOCK_ROWS


@register("linear_f64_block597", op="LinearOp")
def _bench_linear_f64():
    op = _linear_op(np.float64)
    x = _rng(3).normal(size=(BLOCK_ROWS, IN_WIDTH))
    out = np.empty((BLOCK_ROWS, OUT_WIDTH), dtype=np.float64)
    return (lambda: op.apply(x, out)), BLOCK_ROWS


@register("affine_f64_block597", op="AffineOp")
def _bench_affine():
    from repro.infer.plan import AffineOp

    rng = _rng(5)
    op = AffineOp(
        mean=rng.normal(size=IN_WIDTH),
        inv_std=1.0 / (0.5 + rng.uniform(size=IN_WIDTH)),
        gamma=rng.normal(size=IN_WIDTH),
        beta=rng.normal(size=IN_WIDTH),
        activation="none",
    )
    x = rng.normal(size=(BLOCK_ROWS, IN_WIDTH))
    out = np.empty_like(x)
    return (lambda: op.apply(x, out)), BLOCK_ROWS


@register("activation_sigmoid_block597", op="ActivationOp")
def _bench_activation():
    from repro.infer.plan import ActivationOp

    op = ActivationOp(activation="sigmoid", width=OUT_WIDTH)
    x = _rng(7).normal(size=(BLOCK_ROWS, OUT_WIDTH))
    out = np.empty_like(x)
    return (lambda: op.apply(x, out)), BLOCK_ROWS


@register("quantize_block597", op="QuantizeOp")
def _bench_quantize():
    from repro.infer.plan import QuantizeOp

    op = QuantizeOp(scale=0.05, zero_point=128, width=IN_WIDTH)
    x = _rng(9).normal(size=(BLOCK_ROWS, IN_WIDTH))
    return (lambda: op.apply(x, None)), BLOCK_ROWS


@register("int8_linear_block597", op="Int8LinearOp")
def _bench_int8_linear():
    from repro.infer.plan import Int8LinearOp

    op = Int8LinearOp(_quantized_layer())
    x_q = _quantized_input()
    return (lambda: op.apply(x_q, None)), BLOCK_ROWS


@register("int8_linear_reference_block597", op="Int8LinearOp")
def _bench_int8_linear_reference():
    # The retained pre-rework int64 kernel, tracked so the report keeps
    # quantifying the fixed-point path's speedup over it.
    layer = _quantized_layer()
    x_q = _quantized_input()
    return (lambda: layer._reference_forward_int(x_q)), BLOCK_ROWS


@register("dequantize_block597", op="DequantizeOp")
def _bench_dequantize():
    from repro.infer.plan import DequantizeOp

    layer = _quantized_layer()
    op = DequantizeOp(layer)
    y_q = layer.forward_int(_quantized_input())
    return (lambda: op.apply(y_q, None)), BLOCK_ROWS


def _ring_block(n: int = BLOCK_ROWS):
    """Synthetic paper-shaped ring set (``n`` rings around one source).

    Built directly as arrays (no detector simulation) so the skymap
    kernels time pure likelihood evaluation at the paper's ring count.
    """
    from repro.reconstruction.rings import RingSet

    rng = _rng(23)
    source = np.array([0.35, -0.12, 0.93])
    source /= np.linalg.norm(source)
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    deta = np.full(n, 0.03)
    eta = axes @ source + rng.normal(size=n) * deta
    return RingSet(
        axis=axes,
        eta=eta,
        deta=deta,
        event_index=np.arange(n),
        first_hit=np.zeros(n, dtype=np.int64),
        second_hit=np.ones(n, dtype=np.int64),
        ordering_score=np.full(n, np.nan),
        labels=np.zeros(n, dtype=np.int64),
        ordering_correct=np.ones(n, dtype=bool),
        source_direction=source,
    )


@register("localization_refine_block597", op="localization.refine_source")
def _bench_refine_source():
    # One refinement call of the approximate/refine step: gate-and-solve
    # rounds over the paper-shaped ring block from a seed ~4 degrees off
    # the source.  rows = rings per call.
    from repro.localization.refinement import refine_source

    rings = _ring_block()
    start = rings.source_direction + np.array([0.05, 0.03, -0.02])
    return (lambda: refine_source(rings, start)), rings.num_rings


@register("localization_capped_chi2_block597", op="localization.capped_chi_square")
def _bench_capped_chi_square():
    # Approximation-stage scoring: the above-horizon cone candidates of 12
    # sampled rings (72 azimuths each) against every ring of the block.
    # rows = candidates scored per call.
    from repro.localization.approximation import HORIZON_MIN_Z, cone_points
    from repro.localization.likelihood import capped_chi_square

    rings = _ring_block()
    candidates = cone_points(rings.axis[:12], rings.eta[:12], 72)
    candidates = candidates[candidates[:, 2] >= HORIZON_MIN_Z]
    return (
        lambda: capped_chi_square(rings, candidates, cap=4.0)
    ), candidates.shape[0]


@register("skymap_evaluate_coarse8deg", op="skymap.evaluate_cells")
def _bench_skymap_coarse():
    # Level-0 of the hierarchical sky search: 597 rings against every
    # coarse cell of the 8-degree hemisphere pixelization.  rows = cells
    # evaluated per call.
    from repro.localization.hierarchy import coarse_cells, evaluate_cells

    rings = _ring_block()
    cells = coarse_cells(8.0, 95.0)
    return (lambda: evaluate_cells(rings, cells, 25.0)), cells.num_cells


@register("skymap_refine_level16", op="skymap.refine_level")
def _bench_skymap_refine():
    # One refine step at the default frontier: select top-16 + margin,
    # split into children, evaluate, merge.  rows = starting cells.
    from repro.localization.hierarchy import (
        SkymapConfig,
        coarse_cells,
        evaluate_cells,
        refine_level,
    )

    cfg = SkymapConfig()
    rings = _ring_block()
    cells = coarse_cells(cfg.coarse_resolution_deg, cfg.max_polar_deg)
    log_like, log_post = evaluate_cells(rings, cells, cfg.cap)
    return (
        lambda: refine_level(rings, cells, log_like, log_post, cfg)
    ), cells.num_cells


@register("gather_scatter_block40x16", op="GatherScratch")
def _bench_gather_scatter():
    # localize_many's lock-step round: gather 16 events' small blocks
    # into one batch, then scatter row slices back out (the slices are
    # views; the copy cost is all in the gather).
    from repro.infer.batch import GatherScratch

    rng = _rng(19)
    blocks = [rng.normal(size=(40, IN_WIDTH)) for _ in range(16)]
    lengths = [b.shape[0] for b in blocks]
    offsets = np.cumsum([0] + lengths)
    scratch = GatherScratch()

    def run():
        merged = scratch.gather(blocks)
        return [
            merged[offsets[j] : offsets[j + 1]] for j in range(len(blocks))
        ]

    return run, int(offsets[-1])


def _adapt_exposure_sources():
    """``(geometry, grb, background)`` of the registry's ADAPT exposure: a
    1 MeV/cm^2 burst at polar 30 degrees plus the default atmospheric
    background, ~130k photons of which more than half miss the stack."""
    from repro.geometry.tiles import adapt_geometry
    from repro.sources.background import BackgroundModel
    from repro.sources.grb import GRBSource

    grb = GRBSource(fluence_mev_cm2=1.0, polar_angle_deg=30.0, azimuth_deg=40.0)
    return adapt_geometry(), grb, BackgroundModel()


def _generate_adapt_exposure(geometry, grb, background):
    """The exposure's photon batch, from a freshly seeded generator."""
    from repro.sources.grb import PhotonBatch

    rng = _rng(29)
    return PhotonBatch.concatenate(
        [grb.generate(geometry, rng), background.generate(geometry, rng)]
    )


@register("sources_generate_exposure", op="sources.generate")
def _bench_sources():
    # Source generation of the ADAPT exposure: the burst's plane wave and
    # the background's per-photon planes.  rows = photons per call.
    sources = _adapt_exposure_sources()
    return (
        lambda: _generate_adapt_exposure(*sources)
    ), _generate_adapt_exposure(*sources).num_photons


@register("physics_transport_exposure", op="physics.transport")
def _bench_transport():
    # The ADAPT exposure through the slab stack.  Each call reseeds its
    # generator, so every call follows the same histories.  rows =
    # photons per call.
    from repro.physics.transport import transport_photons

    geometry, grb, background = _adapt_exposure_sources()
    batch = _generate_adapt_exposure(geometry, grb, background)
    return (
        lambda: transport_photons(
            geometry, batch.origins, batch.directions, batch.energies, _rng(31)
        )
    ), batch.num_photons


def _apt_exposure():
    """``(geometry, batch)`` of the registry's APT exposure: a 0.15
    MeV/cm^2 burst at polar 20 degrees plus the quiet L2 background, the
    campaign recipe of apt_dim_campaign."""
    from repro.geometry.tiles import apt_geometry
    from repro.sources.background import BackgroundModel
    from repro.sources.grb import GRBSource, PhotonBatch

    geometry = apt_geometry()
    rng = _rng(41)
    grb = GRBSource(fluence_mev_cm2=0.15, polar_angle_deg=20.0, azimuth_deg=40.0)
    background = BackgroundModel(flux_per_cm2_s=1.0, cos_polar_min=0.0)
    batch = PhotonBatch.concatenate(
        [grb.generate(geometry, rng), background.generate(geometry, rng)]
    )
    return geometry, batch


@register("physics_transport_apt_exposure", op="physics.transport")
def _bench_transport_apt():
    # The APT exposure through its 20 layers.  Each call reseeds its
    # generator.  rows = photons per call.
    from repro.physics.transport import transport_photons

    geometry, batch = _apt_exposure()
    return (
        lambda: transport_photons(
            geometry, batch.origins, batch.directions, batch.energies, _rng(43)
        )
    ), batch.num_photons


@register("detector_digitize_apt_exposure", op="detector.digitize")
def _bench_digitize_apt():
    # The APT exposure's hits through the flight response (2000 pe/MeV,
    # halved tail and gain variation), keeping events of two or more hits.
    # APT merges about three times ADAPT's share of hits and looks layers
    # up over 40 faces.  Each call reseeds its generator.  rows =
    # transported hits per call.
    from repro.detector.response import DetectorResponse, ResponseConfig
    from repro.physics.transport import transport_photons

    geometry, batch = _apt_exposure()
    transport = transport_photons(
        geometry, batch.origins, batch.directions, batch.energies, _rng(43)
    )
    response = DetectorResponse(
        geometry,
        ResponseConfig(
            pe_per_mev=2000.0, tail_probability=0.05, nonuniformity_amplitude=0.03
        ),
    )
    return (
        lambda: response.digitize(transport, batch, _rng(47), min_hits=2)
    ), transport.num_hits


@register("detector_digitize_exposure", op="detector.digitize")
def _bench_digitize():
    # The ADAPT exposure's hits through the default response, keeping
    # events of two or more hits (the campaigns' setting).  Each call
    # reseeds its generator.  rows = transported hits per call.
    from repro.detector.response import DetectorResponse
    from repro.physics.transport import transport_photons

    geometry, grb, background = _adapt_exposure_sources()
    batch = _generate_adapt_exposure(geometry, grb, background)
    transport = transport_photons(
        geometry, batch.origins, batch.directions, batch.energies, _rng(31)
    )
    response = DetectorResponse(geometry)
    return (
        lambda: response.digitize(transport, batch, _rng(37), min_hits=2)
    ), transport.num_hits
