"""Declarative SLOs evaluated from traces, histograms, and perf results.

An SLO spec is a plain dict (JSON-loadable, see :func:`load_spec`) with
four optional rule families::

    {"stages":     {"executor.chunk": {"p95_ms": 500.0, "p99_ms": 900.0}},
     "histograms": {"executor.worker_busy_ms": {"p95_ms": 800.0}},
     "ops":        {"int8_linear_block597": {"min_rows_per_s": 2.0e6}},
     "serve":      {"load": {"p99_ms": 2000.0, "min_req_per_s": 10.0}}}

* ``stages`` — per-span-name latency ceilings, checked against the exact
  per-span ``dur_ms`` values in a trace event stream (nearest-rank
  percentile over the raw durations; no bucketing error).
* ``histograms`` — latency ceilings checked against a metrics-registry
  histogram via :meth:`repro.obs.metrics.Histogram.percentile` (an
  upper-bound estimate, so a pass here is conservative).
* ``ops`` — throughput floors checked against a ``name -> rows/s`` dict
  from :func:`repro.perf.registry.run_all`.
* ``serve`` — per-load-run latency ceilings (``pNN_ms``) and sustained
  request-rate floors (``min_req_per_s``) checked against named
  :class:`repro.serve.load.LoadReport` dicts (``p50_ms``/``p95_ms``/
  ``p99_ms``/``req_per_s`` keys).

:func:`evaluate` returns a report dict with one entry per check
(``value``, ``limit``, ``margin``, ``passed``) plus an overall verdict,
and :func:`render_report` prints it as a table.  A rule naming a
stage/histogram/op absent from the inputs fails with ``value: None`` —
a vanished metric is a telemetry regression, not a pass.
"""

from __future__ import annotations

import json
import math
import os

from repro.obs.metrics import Histogram


def load_spec(path: str | os.PathLike) -> dict:
    """Read an SLO spec from a JSON file (shape as in the module doc)."""
    with open(path) as f:
        spec = json.load(f)
    for key in spec:
        if key not in ("stages", "histograms", "ops", "serve"):
            raise ValueError(f"unknown SLO spec section {key!r}")
    return spec


def exact_percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of raw samples (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def stage_durations(events: list[dict]) -> dict[str, list[float]]:
    """Per-span-name lists of ``dur_ms`` from a trace event stream."""
    out: dict[str, list[float]] = {}
    for ev in events:
        if ev.get("type") == "span":
            out.setdefault(ev["name"], []).append(float(ev["dur_ms"]))
    return out


def _percentile_rules(rules: dict) -> list[tuple[str, float, float]]:
    """``p95_ms``-style keys parsed to ``(metric, quantile, limit)``."""
    parsed = []
    for key, limit in rules.items():
        if not (key.startswith("p") and key.endswith("_ms")):
            raise ValueError(f"unknown latency rule {key!r}")
        parsed.append((key, float(key[1:-3]) / 100.0, float(limit)))
    return parsed


def evaluate(spec: dict,
             events: list[dict] | None = None,
             metrics: dict | None = None,
             perf: dict[str, float] | None = None,
             serve: dict[str, dict] | None = None) -> dict:
    """Check every rule in ``spec`` against the supplied measurements.

    Args:
        spec: SLO spec dict (see the module doc).
        events: Trace event stream for ``stages`` rules.
        metrics: :meth:`MetricsRegistry.dump` snapshot for ``histograms``
            rules.
        perf: ``name -> rows/s`` for ``ops`` rules.
        serve: ``name -> load-report dict`` for ``serve`` rules (the
            :meth:`repro.serve.load.LoadReport.to_dict` shape).

    Returns:
        ``{"passed": bool, "checks": [...], "n_failed": int}`` where each
        check records ``kind``, ``name``, ``metric``, ``limit``,
        ``value`` (None when the input lacks the name), ``margin``
        (positive = headroom, as a fraction of the limit), ``passed``.
    """
    checks: list[dict] = []
    durations = stage_durations(events or [])
    for name, rules in spec.get("stages", {}).items():
        samples = durations.get(name)
        for metric, q, limit in _percentile_rules(rules):
            value = exact_percentile(samples, q) if samples else None
            checks.append(_latency_check("stage", name, metric, limit, value))
    hists = (metrics or {}).get("histograms", {})
    for name, rules in spec.get("histograms", {}).items():
        hist_dict = hists.get(name)
        hist = Histogram.from_dict(hist_dict) if hist_dict else None
        for metric, q, limit in _percentile_rules(rules):
            value = hist.percentile(q) if hist and hist.count else None
            checks.append(_latency_check("histogram", name, metric, limit, value))
    for name, rules in spec.get("ops", {}).items():
        value = (perf or {}).get(name)
        for metric, limit in rules.items():
            if metric != "min_rows_per_s":
                raise ValueError(f"unknown ops rule {metric!r}")
            limit = float(limit)
            ok = value is not None and value >= limit
            margin = (value / limit - 1.0) if value is not None else None
            checks.append({"kind": "op", "name": name, "metric": metric,
                           "limit": limit, "value": value,
                           "margin": _round(margin), "passed": ok})
    for name, rules in spec.get("serve", {}).items():
        report = (serve or {}).get(name)
        for metric, limit in rules.items():
            limit = float(limit)
            if metric == "min_req_per_s":
                value = None if report is None else report.get("req_per_s")
                ok = value is not None and value >= limit
                margin = (value / limit - 1.0) if value is not None else None
                checks.append({"kind": "serve", "name": name,
                               "metric": metric, "limit": limit,
                               "value": _round(value),
                               "margin": _round(margin), "passed": ok})
            elif metric.startswith("p") and metric.endswith("_ms"):
                value = None if report is None else report.get(metric)
                checks.append(
                    _latency_check("serve", name, metric, limit, value)
                )
            else:
                raise ValueError(f"unknown serve rule {metric!r}")
    n_failed = sum(1 for c in checks if not c["passed"])
    return {"passed": n_failed == 0, "n_failed": n_failed, "checks": checks}


def _latency_check(kind: str, name: str, metric: str,
                   limit: float, value: float | None) -> dict:
    """One latency-ceiling check record (missing/inf values fail)."""
    ok = value is not None and math.isfinite(value) and value <= limit
    margin = (1.0 - value / limit) if ok or (
        value is not None and math.isfinite(value)) else None
    return {"kind": kind, "name": name, "metric": metric, "limit": limit,
            "value": _round(value), "margin": _round(margin), "passed": ok}


def _round(value: float | None) -> float | None:
    """Round to 4 decimals, passing None/inf through unchanged."""
    if value is None or not math.isfinite(value):
        return value
    return round(value, 4)


def render_report(report: dict) -> str:
    """Human-readable table of an :func:`evaluate` report."""
    lines = ["SLO report: " + ("PASS" if report["passed"] else
                               f"FAIL ({report['n_failed']} breached)")]
    lines.append(f"{'kind':<10} {'name':<34} {'metric':<16} "
                 f"{'value':>12} {'limit':>12}  status")
    for c in report["checks"]:
        value = "missing" if c["value"] is None else f"{c['value']:.6g}"
        status = "ok" if c["passed"] else "BREACH"
        lines.append(f"{c['kind']:<10} {c['name']:<34} {c['metric']:<16} "
                     f"{value:>12} {c['limit']:>12.6g}  {status}")
    return "\n".join(lines)
