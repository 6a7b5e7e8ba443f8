"""Explicit-stack driver for the branching recursion.

Solver recursion depth grows like n * log(N) * k through alternating branch
and family-growth steps, far past CPython's recursion limit, so the shared
recursion of pkfree.py is written as a generator. A generator yields one
batch (a list) of child instances whenever it needs their results, receives
the list of results via send(), and returns its own result through
StopIteration. The driver keeps the frames on an explicit stack and runs a
batch's children one after another, in batch order, so every counter comes
out the same on every run.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

Expand = Callable[[Any, Any], Generator[list[Any], list[Any], Any]]


class _Frame:
    __slots__ = ("gen", "pending", "results", "started")

    def __init__(self, gen: Generator):
        self.gen = gen
        self.pending: list[Any] | None = None
        self.results: list[Any] | None = None
        self.started = False


def drive(root: Any, expand: Expand, ctx: Any) -> Any:
    """Run expand(root, ctx) to completion on an explicit stack.

    ctx.stats, when not None, gets the deepest stack height in max_depth.
    """
    stack = [_Frame(expand(root, ctx))]
    stats = ctx.stats
    if stats is not None and stats.max_depth < 1:
        stats.max_depth = 1
    send_value: Any = None
    final: Any = None
    while stack:
        frame = stack[-1]

        if frame.pending:
            stack.append(_Frame(expand(frame.pending.pop(), ctx)))
            if stats is not None and len(stack) > stats.max_depth:
                stats.max_depth = len(stack)
            continue

        if frame.results is not None:
            send_value = frame.results
            frame.pending = None
            frame.results = None

        try:
            if frame.started:
                batch = frame.gen.send(send_value)
            else:
                frame.started = True
                batch = frame.gen.send(None)
        except StopIteration as stop:
            stack.pop()
            if stack:
                stack[-1].results.append(stop.value)
            else:
                final = stop.value
            send_value = None
            continue

        send_value = None
        frame.results = []
        # Reversed, so pop() hands out the children in batch order.
        frame.pending = batch[::-1]
    return final
