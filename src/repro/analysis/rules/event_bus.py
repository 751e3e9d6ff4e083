"""Rules ``unguarded-emit`` / ``unguarded-span``: gated observability.

Both rules enforce the same fast-path idiom for instrumentation on the
per-page/per-step hot path: pay one predicate when nobody is watching,
never an allocation or method call.

``unguarded-emit``: constructing an event dataclass for nobody costs an
allocation per record.  Every ``emit(SomeEvent(...))`` call site must
therefore sit inside an ``if`` whose test calls ``has_subscribers`` (the
event-bus fast path), so the dataclass is never built when no consumer
is attached:

    if self.events.has_subscribers(RequestPreempted):
        self.events.emit(RequestPreempted(...))

Calls that pass a pre-built event object (``emit(event)``) are not
flagged -- the construction cost was already paid.

``unguarded-span``: in hot modules, span primitives on a ``tracer``
receiver must sit inside an ``if`` testing the tracer's ``.enabled``
flag (the tracer's null fast path):

    if self.tracer is not None and self.tracer.enabled:
        self.tracer.instant("queue/push", args={"depth": len(self._heap)})
"""

from __future__ import annotations

import ast

from ..engine import Context, Rule
from ..manifest import EVENT_CLASSES, SPAN_METHODS

__all__ = ["UnguardedEmitRule", "UnguardedSpanRule"]


def _guarded(ctx: Context) -> bool:
    """Whether an enclosing ``if`` body tests ``has_subscribers``."""
    for if_node in ctx.if_stack:
        for sub in ast.walk(if_node.test):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "has_subscribers"
            ):
                return True
    return False


class UnguardedEmitRule(Rule):
    name = "unguarded-emit"

    def visit_Call(self, node: ast.Call, ctx: Context) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
            return
        for arg in node.args:
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id in EVENT_CLASSES
            ):
                if not _guarded(ctx):
                    ctx.report(
                        self.name,
                        node,
                        f"emit({arg.func.id}(...)) constructs an event "
                        "unconditionally; guard the call site with "
                        f"has_subscribers({arg.func.id}) so the dataclass is "
                        "not built when nobody listens",
                    )
                return


def _receiver_is_tracer(func: ast.Attribute) -> bool:
    """Whether the call receiver is a ``tracer`` name or attribute."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id == "tracer"
    if isinstance(value, ast.Attribute):
        return value.attr == "tracer"
    return False


def _span_guarded(ctx: Context) -> bool:
    """Whether an enclosing ``if`` tests the tracer's null fast path.

    Accepts an ``.enabled`` attribute access anywhere in the test (covers
    ``tracer.enabled`` and ``self.tracer.enabled``) or the conventional
    hoisted predicate ``if tracing:``.
    """
    for if_node in ctx.if_stack:
        for sub in ast.walk(if_node.test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Name) and sub.id == "tracing":
                return True
    return False


class UnguardedSpanRule(Rule):
    name = "unguarded-span"

    def visit_Call(self, node: ast.Call, ctx: Context) -> None:
        if not ctx.is_hot:
            return
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in SPAN_METHODS):
            return
        if not _receiver_is_tracer(func):
            return
        if not _span_guarded(ctx):
            ctx.report(
                self.name,
                node,
                f"tracer.{func.attr}(...) runs unconditionally on a hot "
                "path; guard the call site with the tracer's `.enabled` "
                "null fast path so a disabled tracer costs one predicate",
            )
