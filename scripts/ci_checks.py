#!/usr/bin/env python
"""One-shot CI gate: reprolint + shm-leak + docstrings + docs + perf + obs.

Runs the repository's repo-hygiene checks and exits non-zero if any
fails:

1. **reprolint (changed files)** — fast pre-gate: ``repro.analysis
   --changed`` reports only findings in files changed since the merge
   base with ``main``, so the common failure mode (a finding in the
   code you just touched) surfaces in seconds.  Outside a git checkout
   this falls back to the full run and the full gate below still
   covers everything.
2. **reprolint** — ``repro.analysis`` over ``src/`` against the
   checked-in baseline (``.reprolint-baseline.json``).
3. **rule/docs agreement** — the registered rule ids and the catalogue
   table in ``docs/static_analysis.md`` must match exactly in both
   directions: a rule without a documented row fails, and a documented
   row without a registered rule fails.
4. **shm leak check** — ``scripts/check_shm.py``: no orphaned
   ``repro-shm-*`` segments left in ``/dev/shm``.
5. **docstring coverage** — every public module, top-level class and
   top-level function under ``src/repro`` carries a docstring (an
   AST-level complement to ``tests/test_docstrings.py``, which checks
   the *imported* surface).
6. **docs health** — every fenced ``python`` code block in ``docs/``,
   ``README.md`` & friends parses (``ast.parse``), and every intra-repo
   markdown link target resolves to a real file.
7. **perf registry coverage** — every op class in ``repro.infer.plan``
   has a registered microbenchmark in ``repro.perf`` (and every
   registered benchmark's factory builds), so no kernel can ship
   untracked.
8. **obs overhead** — the telemetry layer's *disabled* path must cost
   under 2% of a micro end-to-end campaign.  Deterministic by
   construction: instrumentation call sites are *counted* in one traced
   run, the per-call disabled cost is measured in a tight loop, and the
   product is compared against the untraced wall-clock — no noisy
   A/B timing of two full runs.

Performance and calibration are not gated here: ``python3 -m bench``
measures the end-to-end workloads on the code as it stands, and the
tier-1 tests pin the sky-search cost, the oracle containment window and
the op throughput floors.

Usage:

    python scripts/ci_checks.py            # run all checks
    python scripts/ci_checks.py --skip shm # skip a check by name
"""

from __future__ import annotations

import argparse
import ast
import re
import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))

from repro.analysis.cli import main as reprolint_main  # noqa: E402

#: Check names accepted by ``--skip``.
CHECK_NAMES = (
    "lint-changed",
    "lint",
    "rules",
    "shm",
    "docstrings",
    "docs",
    "perf",
    "obs",
)


def check_lint_changed() -> int:
    """Fast pre-gate: reprolint findings in files changed since main.

    ``--changed`` still analyzes the whole project (the concurrency
    rules need the whole-program call graph) but reports only findings
    in files the current branch touched, so the feedback names exactly
    the code under review.  Redundant with the full ``lint`` gate by
    construction — it exists to fail *first* with a focused report.
    """
    return reprolint_main(
        [
            str(_REPO / "src"),
            "--changed",
            "--baseline",
            str(_REPO / ".reprolint-baseline.json"),
        ]
    )


def check_lint() -> int:
    """Run reprolint over ``src/`` with the checked-in baseline."""
    return reprolint_main(
        [
            str(_REPO / "src"),
            "--baseline",
            str(_REPO / ".reprolint-baseline.json"),
        ]
    )


#: A catalogue table row: ``| DET001 | error | ... |``.
_CATALOGUE_ROW_RE = re.compile(r"^\|\s*([A-Z]{3}\d{3})\s*\|", re.MULTILINE)


def check_rules_docs() -> int:
    """Registered rules and the docs catalogue must agree exactly.

    Parses the ``docs/static_analysis.md`` rule-catalogue table and
    compares the set of documented ids against
    ``repro.analysis.core.rule_ids()`` in both directions, so a new
    rule cannot land without a catalogue row and a deleted rule cannot
    leave a ghost row behind.
    """
    from repro.analysis.core import rule_ids

    doc = _REPO / "docs" / "static_analysis.md"
    documented = set(_CATALOGUE_ROW_RE.findall(
        doc.read_text(encoding="utf-8")
    ))
    registered = set(rule_ids())
    failures = []
    for rid in sorted(registered - documented):
        failures.append(
            f"rule {rid} is registered but has no catalogue row in "
            f"{doc.relative_to(_REPO)}"
        )
    for rid in sorted(documented - registered):
        failures.append(
            f"catalogue row {rid} in {doc.relative_to(_REPO)} matches "
            "no registered rule"
        )
    for line in failures:
        print(f"rules: {line}")
    print(
        f"rules: {len(registered)} registered, {len(documented)} documented"
    )
    return 1 if failures else 0


def check_shm() -> int:
    """Run the shm-orphan gate as a subprocess (it inspects /dev/shm)."""
    proc = subprocess.run(
        [sys.executable, str(_REPO / "scripts" / "check_shm.py")],
        check=False,
    )
    return proc.returncode


def _missing_docstrings(tree: ast.Module) -> list[str]:
    """Public top-level defs in ``tree`` lacking a docstring."""
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append("<module>")
    for node in tree.body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if node.name.startswith("_"):
            continue
        if ast.get_docstring(node) is None:
            missing.append(node.name)
    return missing


def check_docstrings() -> int:
    """Require docstrings on every public top-level def under src/repro."""
    total = 0
    missing_total = 0
    failures: list[str] = []
    for path in sorted((_REPO / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _missing_docstrings(tree)
        documented = 1 + sum(
            isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            and not n.name.startswith("_")
            for n in tree.body
        )
        total += documented
        missing_total += len(names)
        rel = path.relative_to(_REPO)
        failures += [f"{rel}: {name}" for name in names]
    for line in failures:
        print(f"docstrings: missing on {line}")
    covered = total - missing_total
    pct = 100.0 * covered / total if total else 100.0
    print(f"docstrings: {covered}/{total} public defs documented ({pct:.1f}%)")
    return 1 if failures else 0


#: Markdown files covered by the docs gate: everything in docs/ plus the
#: top-level narrative documents.
_DOC_GLOBS = ("docs/*.md", "README.md", "DESIGN.md", "EXPERIMENTS.md")

#: ``[text](target)`` — target captured without surrounding whitespace.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: ``[[path]]`` wiki-style references (used by some design notes).
_WIKILINK_RE = re.compile(r"\[\[([^\]|#]+)(?:#[^\]]*)?\]\]")
#: Fenced code blocks: ``` or ~~~ fences with an optional info string.
_FENCE_RE = re.compile(
    r"^(?P<fence>```+|~~~+)[ \t]*(?P<info>[^\n]*)$"
)


def _doc_files() -> list[Path]:
    """All markdown files the docs gate covers, in stable order."""
    files: list[Path] = []
    for pattern in _DOC_GLOBS:
        files.extend(sorted(_REPO.glob(pattern)))
    return [f for f in files if f.is_file()]


def _iter_code_blocks(text: str):
    """Yield ``(first_line_number, info_string, code)`` per fenced block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        match = _FENCE_RE.match(lines[i])
        if not match:
            i += 1
            continue
        fence, info = match.group("fence"), match.group("info").strip()
        body: list[str] = []
        i += 1
        start = i + 1  # 1-indexed first body line
        while i < len(lines) and not lines[i].startswith(fence):
            body.append(lines[i])
            i += 1
        i += 1  # closing fence (or EOF)
        yield start, info.lower(), "\n".join(body)


def _strip_code(text: str) -> str:
    """Markdown with fenced blocks and inline code spans removed.

    Link checking must not trip over ``dict[str](...)``-looking text
    inside code, so code is blanked before the link regexes run.
    """
    out: list[str] = []
    in_fence: str | None = None
    for line in text.splitlines():
        match = _FENCE_RE.match(line)
        if match and in_fence is None:
            in_fence = match.group("fence")
            continue
        if in_fence is not None:
            if line.startswith(in_fence):
                in_fence = None
            continue
        out.append(re.sub(r"`[^`]*`", "", line))
    return "\n".join(out)


def _check_link(doc: Path, target: str) -> str | None:
    """Return a failure message for an unresolvable intra-repo link."""
    if target.startswith(("http://", "https://", "mailto:")):
        return None
    path_part = target.split("#", 1)[0]
    if not path_part:  # pure anchor into the same file
        return None
    resolved = (doc.parent / path_part).resolve()
    if not resolved.exists():
        rel = doc.relative_to(_REPO)
        return f"{rel}: broken link target {target!r}"
    return None


def check_docs() -> int:
    """Parse fenced python blocks and resolve intra-repo links in docs."""
    failures: list[str] = []
    blocks = 0
    links = 0
    for doc in _doc_files():
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(_REPO)
        for line_no, info, code in _iter_code_blocks(text):
            lang = info.split()[0] if info else ""
            if lang not in ("python", "py"):
                continue
            blocks += 1
            try:
                ast.parse(code)
            except SyntaxError as exc:
                failures.append(
                    f"{rel}:{line_no}: python block does not parse: {exc.msg}"
                )
        prose = _strip_code(text)
        targets = _LINK_RE.findall(prose) + _WIKILINK_RE.findall(prose)
        for target in targets:
            links += 1
            message = _check_link(doc, target)
            if message is not None:
                failures.append(message)
    for line in failures:
        print(f"docs: {line}")
    print(
        f"docs: {len(_doc_files())} files, {blocks} python blocks parsed, "
        f"{links} links checked"
    )
    return 1 if failures else 0


def check_perf() -> int:
    """Every ``repro.infer.plan`` op class must have a benchmark.

    Coverage is discovered by inspection (see
    ``repro.perf.registry.plan_op_names``), so adding a new op class
    without registering a microbenchmark fails CI here.  Each
    registered benchmark's ``build`` factory is also exercised once —
    a registered-but-broken entry must not pass.
    """
    import repro.perf as perf

    failures: list[str] = []
    missing = sorted(perf.missing_ops())
    for op in missing:
        failures.append(f"op class {op} has no registered microbenchmark")
    for bench in perf.registered():
        try:
            fn, rows = bench.build()
        except Exception as exc:  # pragma: no cover - diagnostic path
            failures.append(f"benchmark {bench.name!r} failed to build: {exc}")
            continue
        if not callable(fn) or int(rows) <= 0:
            failures.append(
                f"benchmark {bench.name!r} build() must return "
                f"(callable, positive rows); got rows={rows!r}"
            )
    for line in failures:
        print(f"perf: {line}")
    print(
        f"perf: {len(perf.registered())} benchmarks cover "
        f"{len(perf.required_ops())} required ops "
        f"({len(perf.plan_op_names())} plan op classes + extras)"
    )
    return 1 if failures else 0


#: Disabled-path telemetry budget as a fraction of micro-e2e wall-clock.
_OBS_OVERHEAD_BUDGET = 0.02

#: Calibration loop length for the per-call disabled cost measurement.
_OBS_CALIBRATION_CALLS = 100_000


def _obs_workload():
    """One tiny serial campaign exercising the instrumented hot path."""
    from repro.detector.response import DetectorResponse
    from repro.experiments.trials import TrialConfig, run_trials
    from repro.geometry.tiles import adapt_geometry

    geometry = adapt_geometry()
    response = DetectorResponse(geometry)

    def run():
        return run_trials(
            geometry,
            response,
            seed=99,
            n_trials=2,
            config=TrialConfig(fluence_mev_cm2=0.3, polar_angle_deg=10.0),
            n_workers=1,
        )

    return run


def check_obs_overhead() -> int:
    """Bound the telemetry layer's disabled-path cost on a micro e2e run.

    Naive A/B wall-clock comparison of a traced vs untraced run is too
    noisy to gate on, so the budget is computed from three deterministic
    ingredients: ``T`` — the untraced workload wall-clock (best of 3);
    ``N`` — the exact number of instrumentation calls the workload makes
    (span events counted from one traced run, metric calls counted by
    shimming the registry); and ``c`` — the measured per-call cost of
    the *disabled* ``span()`` / ``inc()`` fast path.  The gate asserts
    ``N * c < 2% of T``: even if every one of those call sites ran its
    disabled branch, the campaign would not notice.
    """
    import time

    import repro.obs as obs
    from repro.obs.metrics import REGISTRY

    run = _obs_workload()
    run()  # warm imports and caches outside the timed region

    obs.disable()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    t_base = min(times)

    # Count instrumentation call sites exercised by one traced run.
    metric_calls = 0
    real = {
        name: getattr(REGISTRY, name)
        for name in ("inc", "set_gauge", "observe")
    }

    def _counting(fn):
        def inner(*args, **kwargs):
            nonlocal metric_calls
            metric_calls += 1
            return fn(*args, **kwargs)
        return inner

    obs.enable()
    try:
        for name, fn in real.items():
            setattr(REGISTRY, name, _counting(fn))
        run()
        n_spans = sum(1 for ev in obs.events() if ev["type"] == "span")
    finally:
        for name in real:
            delattr(REGISTRY, name)  # restore class-level methods
        obs.disable()
    n_calls = n_spans + metric_calls

    # Per-call disabled cost, measured on the real fast path.
    t0 = time.perf_counter()
    for _ in range(_OBS_CALIBRATION_CALLS):
        with obs.span("ci.calibrate"):
            pass
        obs.inc("ci.calibrate")
    per_call_s = (time.perf_counter() - t0) / (2 * _OBS_CALIBRATION_CALLS)

    overhead = n_calls * per_call_s / t_base
    print(
        f"obs: {n_calls} instrumentation calls ({n_spans} spans, "
        f"{metric_calls} metric updates) x {per_call_s * 1e9:.0f} ns "
        f"disabled cost = {100.0 * overhead:.3f}% of {t_base:.3f}s "
        f"micro e2e (budget {100.0 * _OBS_OVERHEAD_BUDGET:.0f}%)"
    )
    if overhead >= _OBS_OVERHEAD_BUDGET:
        print("obs: disabled-path telemetry overhead exceeds budget")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run every check; return the number of failing checks."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip",
        action="append",
        default=[],
        choices=CHECK_NAMES,
        help="skip a check (repeatable)",
    )
    args = parser.parse_args(argv)

    checks = {
        "lint-changed": check_lint_changed,
        "lint": check_lint,
        "rules": check_rules_docs,
        "shm": check_shm,
        "docstrings": check_docstrings,
        "docs": check_docs,
        "perf": check_perf,
        "obs": check_obs_overhead,
    }
    failed = []
    for name, fn in checks.items():
        if name in args.skip:
            print(f"ci-checks: {name} SKIPPED")
            continue
        code = fn()
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"ci-checks: {name} {status}")
        if code != 0:
            failed.append(name)
    if failed:
        print(f"ci-checks: {len(failed)} check(s) failed: {', '.join(failed)}")
    return len(failed)


if __name__ == "__main__":
    sys.exit(main())
