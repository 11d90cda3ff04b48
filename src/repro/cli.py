"""Command-line interface.

The subcommands cover the common workflows without writing any Python:

* ``python -m repro.cli simulate`` — one burst, baseline localization.
* ``python -m repro.cli train`` — run the training campaign, train both
  networks, and save the pipeline to disk.
* ``python -m repro.cli localize`` — load a trained pipeline and run
  ML-pipeline trials at a chosen experimental point.
* ``python -m repro.cli figure`` — reproduce one paper figure.
* ``python -m repro.cli serve`` — stream simulated event-set chunks
  through the micro-batching localization server (docs/serving.md).
* ``python -m repro.cli serve-load`` — closed-loop load generator:
  sustained req/s and latency percentiles at N concurrent clients.
* ``python -m repro.cli trace-summary`` — render the per-stage table of a
  trace captured with ``--trace`` (``--json`` for the machine form).
* ``python -m repro.cli profile-summary`` — render the sampling-profiler
  tables of a trace captured with ``--trace --profile`` (``--folded``
  writes flamegraph input).

Campaign subcommands (``train``, ``localize``, ``figure``) accept
``--workers N`` to fan Monte-Carlo exposures/trials out over the
persistent campaign executor, plus the crash-recovery knobs
``--max-retries`` (chunk redispatches after a worker crash) and
``--task-timeout`` (soft per-task timeout before a hung worker is killed
and its chunk retried).  Every workload subcommand accepts
``--trace out.jsonl`` (record a telemetry trace, merged across worker
processes) and ``--quiet`` (suppress stderr status lines; stdout carries
only machine-readable results).  On top of a trace, ``--profile``
samples every process's stacks (``--profile-hz`` sets the rate) and
``--resources`` records RSS/CPU/GC/shm gauges; independently of
tracing, ``--metrics-out live.jsonl`` streams cumulative registry
snapshots every ``--metrics-interval`` seconds while the command runs.

ML campaigns always run the compiled inference plans (docs/inference.md):
``localize`` and ``figure`` accept ``--infer-dtype {float64,float32}``
for their float plans (float64, the default, gives the eager results
bit for bit), and ``localize`` accepts ``--event-batch N`` to gather
ring features across N events into one planned forward pass per
localization round.

``simulate`` and ``localize`` accept the sky-map family
(docs/localization.md): ``--skymap`` attaches the hierarchical
coarse-to-fine posterior map, ``--skymap-resolution DEG`` sets its
target pixel scale and ``--skymap-temperature T`` the likelihood
temperature (fit one with
``repro.experiments.calibration.fit_temperature``).  On
``simulate`` the credible-region areas are printed for the one burst;
on ``localize`` the trial campaign becomes a containment-calibration
campaign reporting observed 68%/90% coverage and median region areas.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.obs import log


def _skymap_config(args: argparse.Namespace):
    """Build a ``SkymapConfig`` from the ``--skymap`` flag family.

    Returns ``None`` when ``--skymap`` was not passed, which keeps the
    localization paths on their map-free default.
    """
    if not getattr(args, "skymap", False):
        return None
    from repro.localization.hierarchy import SkymapConfig

    return SkymapConfig(
        resolution_deg=args.skymap_resolution,
        temperature=args.skymap_temperature,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.detector.response import DetectorResponse
    from repro.geometry.tiles import adapt_geometry
    from repro.localization.pipeline import localize_baseline
    from repro.sources.background import BackgroundModel
    from repro.sources.exposure import simulate_exposure
    from repro.sources.grb import GRBSource

    geometry = adapt_geometry()
    response = DetectorResponse(geometry)
    rng = np.random.default_rng(args.seed)
    grb = GRBSource(
        fluence_mev_cm2=args.fluence,
        polar_angle_deg=args.polar,
        azimuth_deg=args.azimuth,
    )
    log.status(f"simulating one burst (fluence {args.fluence}, "
               f"polar {args.polar} deg, seed {args.seed})")
    exposure = simulate_exposure(geometry, rng, grb, BackgroundModel())
    events = response.digitize(
        exposure.transport, exposure.batch, rng, min_hits=2
    )
    outcome = localize_baseline(events, rng, skymap=_skymap_config(args))
    log.result(
        f"photons={exposure.batch.num_photons} events={events.num_events} "
        f"rings={outcome.rings.num_rings}"
    )
    log.result(f"localization error: "
               f"{outcome.error_degrees(grb.source_direction):.2f} deg")
    if outcome.sky is not None:
        sky = outcome.sky
        log.result(
            f"credible regions: 68% = "
            f"{sky.credible_region_area_deg2(0.68):.2f} deg^2, 90% = "
            f"{sky.credible_region_area_deg2(0.90):.2f} deg^2 "
            f"(truth inside 90%: {sky.contains(grb.source_direction, 0.9)})"
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.experiments.datasets import generate_training_rings
    from repro.experiments.modelzoo import train_models
    from repro.detector.response import DetectorResponse
    from repro.geometry.tiles import adapt_geometry
    from repro.io.datasets import save_pipeline

    geometry = adapt_geometry()
    response = DetectorResponse(geometry)
    log.status(f"generating training rings "
               f"({args.exposures_per_angle} exposures/angle, "
               f"{args.workers} workers)")
    data = generate_training_rings(
        geometry,
        response,
        seed=args.seed,
        exposures_per_angle=args.exposures_per_angle,
        n_workers=args.workers,
    )
    log.status(f"training both networks on {data.num_rings} rings")
    models = train_models(
        geometry=geometry,
        response=response,
        seed=args.seed,
        exposures_per_angle=args.exposures_per_angle,
        data=data,
    )
    save_pipeline(models.pipeline, args.output)
    log.result(f"trained on {models.data.num_rings} rings; "
               f"pipeline saved to {args.output}")
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    from repro.detector.response import DetectorResponse
    from repro.experiments.containment import containment
    from repro.experiments.trials import TrialConfig, run_trials
    from repro.geometry.tiles import adapt_geometry
    from repro.io.datasets import load_pipeline

    pipeline = load_pipeline(args.pipeline)
    geometry = adapt_geometry()
    response = DetectorResponse(geometry)
    config = TrialConfig(
        fluence_mev_cm2=args.fluence,
        polar_angle_deg=args.polar,
        condition="ml",
        infer_dtype=args.infer_dtype,
        event_batch=args.event_batch,
    )
    if args.skymap:
        from repro.experiments.calibration import run_calibration

        log.status(f"running {args.trials} ML calibration trials "
                   f"({args.workers} workers, seed {args.seed})")
        report = run_calibration(
            geometry,
            response,
            seed=args.seed,
            n_trials=args.trials,
            config=config,
            skymap=_skymap_config(args),
            ml_pipeline=pipeline,
            n_workers=args.workers,
        )
        s = report.summary()
        log.result(f"{args.trials} trials at {args.fluence} MeV/cm^2, "
                   f"polar {args.polar} deg "
                   f"(T={args.skymap_temperature}):")
        log.result(f"  median error: {s['median_error_deg']:.2f} deg")
        log.result(f"  68% region: observed coverage {s['fraction68']:.2f}, "
                   f"median area {s['median_area68_deg2']:.2f} deg^2")
        log.result(f"  90% region: observed coverage {s['fraction90']:.2f}, "
                   f"median area {s['median_area90_deg2']:.2f} deg^2")
        return 0
    log.status(f"running {args.trials} ML trials "
               f"({args.workers} workers, seed {args.seed})")
    errors = run_trials(
        geometry,
        response,
        seed=args.seed,
        n_trials=args.trials,
        config=config,
        ml_pipeline=pipeline,
        n_workers=args.workers,
    )
    log.result(f"{args.trials} trials at {args.fluence} MeV/cm^2, "
               f"polar {args.polar} deg:")
    log.result(f"  68% containment: {containment(errors, 0.68):.2f} deg")
    log.result(f"  95% containment: {containment(errors, 0.95):.2f} deg")
    return 0


#: Figure name -> (driver, printer) from repro.experiments.figures.
FIGURES = ("fig4", "fig7", "fig8", "fig9", "fig10", "fig11")


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import figures

    scale = figures.ExperimentScale(
        n_trials=args.trials,
        n_meta=args.meta,
        seed=args.seed,
        n_workers=args.workers,
        cache=args.cache if args.cache else None,
        infer_dtype=args.infer_dtype,
    )
    number = args.name.removeprefix("fig")
    driver = getattr(figures, f"figure{number}")
    printer = getattr(figures, f"print_figure{number}")
    log.status(f"reproducing {args.name} ({args.trials} trials x "
               f"{args.meta} meta, {args.workers} workers)")
    printer(driver(scale=scale))
    return 0


def _build_serve_parts(args: argparse.Namespace):
    from repro.infer import build_engine
    from repro.io.datasets import load_pipeline
    from repro.serve import BatchPolicy, ServeConfig

    pipeline = load_pipeline(args.pipeline)
    engine = build_engine(pipeline, "planned", dtype=args.infer_dtype)
    config = ServeConfig(
        queue_limit=args.queue_limit,
        policy=BatchPolicy(
            max_rows=args.max_rows,
            max_requests=args.max_requests,
            deadline_s=args.deadline_ms / 1e3,
        ),
    )
    return pipeline, engine, config


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import LocalizationServer, synthetic_event_pool

    pipeline, engine, config = _build_serve_parts(args)
    log.status(f"simulating {args.chunks} chunks x {args.chunk_size} "
               f"event sets (seed {args.seed})")
    pool = synthetic_event_pool(
        args.chunks * args.chunk_size, args.seed,
        fluence=args.fluence, polar_deg=args.polar,
    )
    rng_seqs = np.random.SeedSequence(args.seed + 1).spawn(len(pool))
    chunks = [
        [(pool[c * args.chunk_size + i],
          np.random.default_rng(rng_seqs[c * args.chunk_size + i]))
         for i in range(args.chunk_size)]
        for c in range(args.chunks)
    ]
    log.status(f"serving (deadline {args.deadline_ms} ms, "
               f"max {args.max_requests} requests/batch, "
               f"queue limit {config.queue_limit})")

    async def _stream():
        server = LocalizationServer(pipeline, engine=engine, config=config)
        async with server:
            n = 0
            async for results in server.localize_stream(
                chunks, halt_after=args.halt_after
            ):
                n += 1
                log.result(f"chunk {n}: {len(results)} localizations")
        return server.stats()

    stats = asyncio.run(_stream())
    rounds = stats["rounds"]
    mean_rows = stats["rows_flushed"] / rounds if rounds else 0.0
    reasons = ", ".join(
        f"{k}={v}" for k, v in sorted(stats["flush_reasons"].items())
    ) or "none"
    log.result(f"served {stats['admission']['accepted']} requests in "
               f"{rounds} fused rounds "
               f"(mean {mean_rows:.1f} rows/round; flushes: {reasons})")
    return 0


def _cmd_serve_load(args: argparse.Namespace) -> int:
    import json

    from repro.serve import run_load, synthetic_event_pool

    pipeline, engine, config = _build_serve_parts(args)
    log.status(f"simulating event pool ({args.pool} sets, seed {args.seed})")
    pool = synthetic_event_pool(
        args.pool, args.seed, fluence=args.fluence, polar_deg=args.polar
    )
    log.status(f"load: {args.clients} clients x {args.requests} requests "
               f"(deadline {args.deadline_ms} ms)")
    report = run_load(
        pipeline,
        pool,
        seed=args.seed + 1,
        n_clients=args.clients,
        requests_per_client=args.requests,
        engine=engine,
        config=config,
        halt_after=args.halt_after,
    )
    if args.json:
        log.result(json.dumps(report.to_dict(), indent=2))
        return 0
    log.result(f"{report.completed} requests in {report.wall_s:.2f} s: "
               f"{report.req_per_s:.1f} req/s")
    log.result(f"  latency p50/p95/p99/max: {report.p50_ms:.1f} / "
               f"{report.p95_ms:.1f} / {report.p99_ms:.1f} / "
               f"{report.max_ms:.1f} ms")
    log.result(f"  batching: {report.rounds} rounds, "
               f"mean {report.mean_batch_rows:.1f} rows/round")
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    import json

    from repro.obs.summary import summary_dict
    from repro.obs.trace import load_jsonl

    if args.json:
        log.result(json.dumps(summary_dict(load_jsonl(args.trace_file)),
                              indent=2))
        return 0
    from repro.obs.summary import render_file

    log.result(render_file(args.trace_file))
    return 0


def _cmd_profile_summary(args: argparse.Namespace) -> int:
    from repro.obs import profile
    from repro.obs.trace import load_jsonl

    events = load_jsonl(args.trace_file)
    log.result(profile.render_table(events, top=args.top))
    if args.folded:
        n = profile.write_folded(events, args.folded)
        log.status(f"profile: {n} folded stacks written to {args.folded}")
    return 0


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """Telemetry/verbosity flags shared by every workload subcommand."""
    p.add_argument("--trace", metavar="OUT.JSONL", default=None,
                   help="record a telemetry trace (spans + metrics, merged "
                        "across workers) to this JSONL file")
    p.add_argument("--profile", action="store_true",
                   help="sample python stacks in every process while the "
                        "command runs (requires --trace; render with "
                        "`repro profile-summary`)")
    p.add_argument("--profile-hz", type=float, default=None, metavar="HZ",
                   help="profiler sampling rate (default 100; implies "
                        "--profile)")
    p.add_argument("--resources", action="store_true",
                   help="record RSS/CPU/GC/shm gauges in every process "
                        "(requires --trace)")
    p.add_argument("--metrics-out", metavar="LIVE.JSONL", default=None,
                   help="stream cumulative metric snapshots to this JSONL "
                        "file while the command runs")
    p.add_argument("--metrics-interval", type=float, default=1.0,
                   metavar="SEC",
                   help="seconds between --metrics-out flushes (default 1)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress stderr status output")


def _add_serve_flags(p: argparse.ArgumentParser) -> None:
    """Pipeline/batching knobs shared by ``serve`` and ``serve-load``."""
    p.add_argument("--pipeline", default="pipeline.pkl",
                   help="trained pipeline file")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--fluence", type=float, default=0.6,
                   help="simulated burst fluence, MeV/cm^2")
    p.add_argument("--polar", type=float, default=30.0,
                   help="simulated source polar angle, degrees")
    p.add_argument("--deadline-ms", dest="deadline_ms", type=float,
                   default=2.0, metavar="MS",
                   help="micro-batch coalescing deadline: the oldest "
                        "pending request waits at most this long before "
                        "a flush (default 2 ms)")
    p.add_argument("--max-requests", dest="max_requests", type=int,
                   default=64, metavar="N",
                   help="flush as soon as N requests are pending "
                        "(default 64)")
    p.add_argument("--max-rows", dest="max_rows", type=int, default=65536,
                   metavar="N",
                   help="flush as soon as N feature rows are pending "
                        "(default 65536)")
    p.add_argument("--queue-limit", dest="queue_limit", type=int,
                   default=256, metavar="N",
                   help="admission limit on in-flight requests "
                        "(default 256)")
    p.add_argument("--halt-after", dest="halt_after", type=int, default=None,
                   metavar="N",
                   help="anytime knob: stop each localization after N "
                        "refinement iterations")
    p.add_argument("--infer-dtype", dest="infer_dtype",
                   choices=("float32", "float64"), default="float64",
                   help="planned-engine compute dtype")


def _add_skymap_flags(p: argparse.ArgumentParser) -> None:
    """Hierarchical sky-map knobs shared by ``simulate`` and ``localize``."""
    p.add_argument("--skymap", action="store_true",
                   help="attach the hierarchical coarse-to-fine posterior "
                        "sky map with 68%%/90%% credible regions "
                        "(docs/localization.md)")
    p.add_argument("--skymap-resolution", dest="skymap_resolution",
                   type=float, default=0.5, metavar="DEG",
                   help="target pixel scale of the refined map "
                        "(default 0.5 deg)")
    p.add_argument("--skymap-temperature", dest="skymap_temperature",
                   type=float, default=1.0, metavar="T",
                   help="likelihood temperature; >1 widens the regions "
                        "toward honest coverage (fit one with "
                        "repro.experiments.calibration.fit_temperature; "
                        "default 1.0)")


def _add_fault_flags(p: argparse.ArgumentParser) -> None:
    """Crash-recovery knobs for subcommands that fan out over workers."""
    p.add_argument("--max-retries", type=int, default=None, metavar="N",
                   help="redispatches allowed per chunk after a worker "
                        "crash before the campaign fails (default 2)")
    p.add_argument("--task-timeout", type=float, default=None, metavar="SEC",
                   help="soft per-task timeout; a chunk of k tasks may run "
                        "k*SEC seconds before its worker is killed and the "
                        "chunk retried (default: no timeout)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ADAPT GRB-localization reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate and localize one burst")
    p.add_argument("--fluence", type=float, default=1.0,
                   help="burst fluence, MeV/cm^2")
    p.add_argument("--polar", type=float, default=0.0,
                   help="source polar angle, degrees")
    p.add_argument("--azimuth", type=float, default=0.0,
                   help="source azimuth, degrees")
    p.add_argument("--seed", type=int, default=0)
    _add_skymap_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train the two networks")
    p.add_argument("--output", default="pipeline.pkl",
                   help="output pipeline file")
    p.add_argument("--exposures-per-angle", type=int, default=20)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--workers", type=int, default=1,
                   help="campaign fan-out over worker processes")
    _add_fault_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("localize", help="run ML-pipeline trials")
    p.add_argument("--pipeline", default="pipeline.pkl",
                   help="trained pipeline file")
    p.add_argument("--fluence", type=float, default=1.0)
    p.add_argument("--polar", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=1,
                   help="trial fan-out over worker processes")
    p.add_argument("--infer-dtype", dest="infer_dtype",
                   choices=("float32", "float64"), default="float64",
                   help="float-plan compute dtype: float64 gives the eager "
                        "results bit for bit, float32 is the faster "
                        "deployment dtype")
    p.add_argument("--event-batch", dest="event_batch", type=int, default=1,
                   metavar="N",
                   help="localize N events per lock-step batched inference "
                        "group (1 = per-event, the bit-identical default)")
    _add_skymap_flags(p)
    _add_fault_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("figure", help="reproduce one paper figure")
    p.add_argument("name", choices=FIGURES,
                   help="which figure to reproduce")
    p.add_argument("--trials", type=int, default=30,
                   help="trials per experimental point")
    p.add_argument("--meta", type=int, default=2,
                   help="meta-trials for error bars")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=1,
                   help="trial fan-out over worker processes")
    _add_fault_flags(p)
    p.add_argument("--infer-dtype", dest="infer_dtype",
                   choices=("float32", "float64"), default="float64",
                   help="float-plan compute dtype for ML-condition points")
    p.add_argument("--cache", action="store_true",
                   help="cache trial sets in .campaign_cache/")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "serve",
        help="stream simulated event chunks through the batching server",
    )
    p.add_argument("--chunks", type=int, default=4,
                   help="stream chunks to serve (default 4)")
    p.add_argument("--chunk-size", dest="chunk_size", type=int, default=4,
                   help="concurrent event sets per chunk (default 4)")
    _add_serve_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "serve-load",
        help="closed-loop load benchmark against the batching server",
    )
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent closed-loop clients (default 8)")
    p.add_argument("--requests", type=int, default=4,
                   help="sequential requests per client (default 4)")
    p.add_argument("--pool", type=int, default=8, metavar="N",
                   help="pre-simulated event sets cycled through "
                        "round-robin (default 8)")
    p.add_argument("--json", action="store_true",
                   help="emit the full LoadReport as JSON")
    _add_serve_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_serve_load)

    p = sub.add_parser(
        "trace-summary",
        help="render the per-stage table of a --trace JSONL file",
    )
    p.add_argument("trace_file", help="trace file written by --trace")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as JSON (stages, coverage, "
                        "counters, gauges, histograms) instead of a table")
    p.add_argument("--quiet", action="store_true",
                   help="suppress stderr status output")
    p.set_defaults(func=_cmd_trace_summary)

    p = sub.add_parser(
        "profile-summary",
        help="render the sampling-profiler tables of a --trace --profile "
             "JSONL file",
    )
    p.add_argument("trace_file", help="trace file written by --trace "
                                      "--profile")
    p.add_argument("--top", type=int, default=15, metavar="N",
                   help="functions shown in the flat self-time table "
                        "(default 15)")
    p.add_argument("--folded", metavar="OUT.TXT", default=None,
                   help="also write merged folded stacks ('stack count' "
                        "lines) for flamegraph/speedscope tooling")
    p.add_argument("--quiet", action="store_true",
                   help="suppress stderr status output")
    p.set_defaults(func=_cmd_profile_summary)
    return parser


def _run_with_telemetry(args: argparse.Namespace) -> int:
    """Run one workload command under the requested telemetry stack.

    ``--trace`` enables the span tracer and metrics registry around the
    command (root span ``cli.<command>``) and writes the merged JSONL
    trace afterwards; ``--profile`` / ``--resources`` additionally run
    the sampling profiler and resource monitor (mirrored into workers);
    ``--metrics-out`` streams registry snapshots while the command runs.
    """
    import repro.obs as obs

    trace_path = args.trace
    profile_hz = getattr(args, "profile_hz", None)
    want_profile = bool(getattr(args, "profile", False) or profile_hz)
    want_resources = bool(getattr(args, "resources", False))
    metrics_out = getattr(args, "metrics_out", None)

    obs.enable()
    stream = None
    try:
        if want_profile:
            obs.profile.start(hz=profile_hz or obs.profile.DEFAULT_HZ)
        if want_resources:
            obs.resources.start()
        if metrics_out is not None:
            stream = obs.export.MetricsStream(
                metrics_out, interval_s=args.metrics_interval
            )
            stream.start()
        with obs.span(f"cli.{args.command}"):
            rc = args.func(args)
        obs.profile.PROFILER.stop()
        obs.resources.MONITOR.stop()
        if trace_path is not None:
            extra = obs.metric_events() + obs.profile.profile_events()
            n = obs.flush_jsonl(trace_path, extra_events=extra)
            log.status(f"trace: {n} events written to {trace_path} "
                       f"(render with `repro trace-summary {trace_path}`)")
    finally:
        if stream is not None:
            stream.stop()
            log.status(f"metrics: {stream.lines_written} snapshots "
                       f"streamed to {metrics_out}")
        obs.disable()
    return rc


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Handles the cross-cutting flags: the telemetry family (``--trace``,
    ``--profile``, ``--resources``, ``--metrics-out`` — see
    :func:`_run_with_telemetry`), the executor fault knobs, and
    ``--quiet`` (silences stderr status lines).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    log.set_quiet(getattr(args, "quiet", False))
    if (getattr(args, "profile", False) or getattr(args, "profile_hz", None)
            or getattr(args, "resources", False)) \
            and getattr(args, "trace", None) is None:
        parser.error("--profile/--resources require --trace (their output "
                     "rides the trace file)")
    if getattr(args, "max_retries", None) is not None \
            or getattr(args, "task_timeout", None) is not None:
        from repro.parallel import executor as campaign_executor

        kwargs = {}
        if args.max_retries is not None:
            kwargs["max_retries"] = args.max_retries
        if args.task_timeout is not None:
            kwargs["task_timeout"] = args.task_timeout
        campaign_executor.configure(**kwargs)
    try:
        if getattr(args, "trace", None) is None \
                and getattr(args, "metrics_out", None) is None:
            return args.func(args)
        return _run_with_telemetry(args)
    except BrokenPipeError:
        # The stdout consumer went away (`repro trace-summary ... | head`).
        # Point stdout at devnull so interpreter shutdown doesn't complain,
        # and exit with the conventional SIGPIPE-ish success for filters.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
