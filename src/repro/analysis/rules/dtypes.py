"""Dtype-discipline rules (``DTY``) for the INT8/FPGA path.

The quantized inference path (paper §FPGA, Fig. 6) is only faithful to
the hardware when every array's width is chosen on purpose: narrowing
casts must be clipped to the target range first (the FPGA saturates;
NumPy wraps), and array constructors must say which width they mean
instead of inheriting float64 by default.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext, _expr_token
from repro.analysis.core import Finding, Rule, Severity, register

#: Packages where the dtype rules apply.
DTYPE_PACKAGES = frozenset({"quantization", "fpga", "infer"})

#: Narrow integer targets whose ``astype`` wraps on overflow.
NARROW_INT_DTYPES = frozenset(
    {
        "numpy.int8",
        "numpy.uint8",
        "numpy.int16",
        "numpy.uint16",
        "numpy.int32",
        "numpy.uint32",
    }
)

#: String forms of the same dtypes (``x.astype("int8")``).
NARROW_INT_STRINGS = frozenset(
    {"int8", "uint8", "int16", "uint16", "int32", "uint32"}
)

#: Array constructors that silently default to float64.
IMPLICIT_DTYPE_CTORS = frozenset(
    {
        "numpy.asarray",
        "numpy.array",
        "numpy.zeros",
        "numpy.ones",
        "numpy.empty",
        "numpy.full",
        "numpy.zeros_like",
        "numpy.ones_like",
        "numpy.empty_like",
        "numpy.full_like",
    }
)

#: ``*_like`` constructors inherit their prototype's dtype — that is an
#: explicit choice, so they are exempt from DTY002.
_LIKE_CTORS = frozenset(
    {"numpy.zeros_like", "numpy.ones_like", "numpy.empty_like", "numpy.full_like"}
)

#: Widening targets whose per-call ``astype`` allocates and copies the
#: whole operand (the first INT8 engine's slowdown came from exactly
#: this: ``.astype(np.int64)`` per forward call).
WIDE_DTYPES = frozenset(
    {"numpy.int64", "numpy.uint64", "numpy.float32", "numpy.float64"}
)

#: String forms of the same dtypes.
WIDE_DTYPE_STRINGS = frozenset({"int64", "uint64", "float32", "float64"})

#: Per-call kernel entry points (the hot path).  Reference
#: implementations kept for parity (``_reference_forward_int``) are
#: deliberately *not* matched.
HOT_PATH_FUNCTIONS = frozenset({"forward", "forward_int", "apply"})


@register
class UnguardedNarrowingCastRule(Rule):
    """DTY001: clip before narrowing to an int dtype."""

    rule_id = "DTY001"
    title = "unclipped narrowing int cast"
    severity = Severity.ERROR
    rationale = (
        "astype(int8/int32/...) wraps out-of-range values modulo 2^n; the "
        "FPGA saturates instead.  Every narrowing cast in the quantized "
        "path must be np.clip-ed to the target range first or the "
        "software model diverges from the hardware exactly when it "
        "matters (overflow)."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag narrowing ``astype`` with no clip on the casted value."""
        if not ctx.in_packages(DTYPE_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "astype"):
                continue
            if not node.args:
                continue
            target = node.args[0]
            resolved = ctx.resolve(target)
            is_narrow = resolved in NARROW_INT_DTYPES or (
                isinstance(target, ast.Constant)
                and target.value in NARROW_INT_STRINGS
            )
            if not is_narrow:
                continue
            value = func.value
            if ctx.contains_guard(value):
                continue
            scope = ctx.enclosing_scope(node)
            guarded = ctx.guarded_names(scope)
            token = _expr_token(value)
            if token is not None and (
                token in guarded or token.split(".")[0] in guarded
            ):
                continue
            dtype_name = resolved or str(getattr(target, "value", "?"))
            yield self.finding(
                ctx,
                node,
                f"narrowing cast to {dtype_name} without np.clip to the "
                "target range; NumPy wraps where the FPGA saturates",
            )


@register
class HotPathWideningCastRule(Rule):
    """DTY003: no per-call widening ``astype`` in kernel hot paths."""

    rule_id = "DTY003"
    title = "per-call widening cast in a kernel hot path"
    severity = Severity.ERROR
    rationale = (
        "astype(int64/float64/...) inside forward/forward_int/apply "
        "allocates and copies the operand on every call; widened views "
        "of construction-time constants (weights, biases, requant "
        "parameters) must be precomputed once at construction and "
        "cached.  The first INT8 engine ran 8x slower than eager float "
        "for exactly this reason."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag widening ``astype`` calls inside hot-path functions."""
        if not ctx.in_packages(DTYPE_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name not in HOT_PATH_FUNCTIONS:
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if not (
                    isinstance(func, ast.Attribute) and func.attr == "astype"
                ):
                    continue
                if not call.args:
                    continue
                target = call.args[0]
                resolved = ctx.resolve(target)
                is_wide = resolved in WIDE_DTYPES or (
                    isinstance(target, ast.Constant)
                    and target.value in WIDE_DTYPE_STRINGS
                )
                if not is_wide:
                    continue
                dtype_name = resolved or str(getattr(target, "value", "?"))
                yield self.finding(
                    ctx,
                    call,
                    f"widening cast to {dtype_name} inside "
                    f"{node.name}(); precompute the widened array at "
                    "construction instead of per call",
                )


@register
class ImplicitDtypeRule(Rule):
    """DTY002: array constructors must name their dtype."""

    rule_id = "DTY002"
    title = "array constructor without explicit dtype"
    severity = Severity.WARNING
    rationale = (
        "np.asarray/np.zeros default to float64 (or input-inferred) "
        "widths; in the int8 path that is a silent promotion that hides "
        "accumulator-width bugs.  Say dtype=... so the width is a "
        "reviewed decision."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag dtype-less array constructors in quantization/fpga."""
        if not ctx.in_packages(DTYPE_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved not in IMPLICIT_DTYPE_CTORS or resolved in _LIKE_CTORS:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            # Positional dtype: np.zeros(shape, np.int8) / np.full(s, v, d).
            n_positional = 3 if resolved == "numpy.full" else 2
            if len(node.args) >= n_positional:
                continue
            yield self.finding(
                ctx,
                node,
                f"{resolved.rsplit('.', 1)[1]}(...) without an explicit "
                "dtype in the quantized path; width must be a reviewed "
                "decision",
            )
