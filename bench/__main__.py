"""``python3 -m bench --workload NAME --seed N [--seconds S] [--trace 0|1]``.

One workload runs in this interpreter and prints, as its last line, the
JSON result ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a
traced replay.  Several ``--workload`` flags, or none, run each named (or
every) workload in a fresh interpreter, one after another.  The exit code
is non-zero when a correctness gate fails or the checkout has no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import os

from bench import THREAD_ENV

os.environ.update(THREAD_ENV)  # before anything imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402

from bench import DEFAULT_SEED, N_CLIENTS, N_WORKERS, ROOT, use_checkout_sources  # noqa: E402

#: Where traced runs write their spans (ignored by git).
SPAN_DIR = ROOT / ".bench_out"


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload in this process; returns its ``RunResult``."""
    if name in ("fig9_campaign", "apt_dim_campaign"):
        from bench import campaign

        spec = campaign.FIG9 if name == "fig9_campaign" else campaign.APT_DIM
        return campaign.run(spec, seed, seconds, trace)
    if name == "alert_skymap":
        from bench import alert

        return alert.run(alert.ALERT, seed, seconds, trace)
    if name == "serve_load":
        from bench import serve

        return serve.run(serve.SERVE, seed, seconds, trace)
    raise ValueError(f"unknown workload {name!r}")


def _report(name: str, seed: int, trace: bool, result, metrics: dict[str, float],
            units: dict[str, str]) -> None:
    threads = " ".join(f"{k}={os.environ[k]}" for k in THREAD_ENV)
    print(f"bench {name} seed={seed} trace={int(trace)}: nproc={os.cpu_count()} "
          f"workers={N_WORKERS} clients={N_CLIENTS} {threads} "
          f"python={platform.python_version()}")
    for line in result.notes:
        print(f"  {line}")
    for key in sorted(metrics):
        print(f"  {key:36s} {metrics[key]:14.6g} {units.get(key, '?')}")
    for gate, ok in sorted(result.gates.items()):
        print(f"  gate {gate}: {'pass' if ok else 'FAIL'}")
    if trace and result.spans:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"{name}-seed{seed}.spans.jsonl"
        with path.open("w") as out:
            for span in result.spans:
                out.write(json.dumps(span) + "\n")
        print(f"  spans: {path.relative_to(ROOT)} ({len(result.spans)})")


def _stop_children() -> None:
    """Stop every process the workload started and wait for each to end.

    Closes any pool left in ``repro``'s executor registry, reaps stray
    workers, then stops multiprocessing's resource tracker, which the
    ``spawn`` start method launches and would otherwise leave running
    after this interpreter exits.
    """
    executor = sys.modules.get("repro.parallel.executor")
    if executor is not None:
        executor.shutdown_executors()
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    resource_tracker._resource_tracker._stop()


def _run_each(names: list[str], args) -> int:
    """Run every named workload in its own interpreter; first failure wins."""
    status = 0
    for name in names:
        cmd = [sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = status or subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description="Benchmark workloads of the localization system."
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="measured time per pass")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics of a traced replay")
    args = parser.parse_args(argv)
    selected = args.workload or names
    if len(selected) > 1:
        return _run_each(selected, args)

    try:
        use_checkout_sources()
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        result = run_workload(selected[0], args.seed, args.seconds, trace)
    finally:
        _stop_children()
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    metrics = result.layers if trace else result.e2e
    result.check_metrics(metrics, units, positive=not trace)
    _report(selected[0], args.seed, trace, result, metrics, units)

    correct = all(result.gates.values())
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            key: {"value": value if math.isfinite(value) else None, "unit": units[key]}
            for key, value in metrics.items()
            if key in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
