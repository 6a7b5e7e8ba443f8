"""Explicit-stack driver for the branching recursion.

Solver recursion depth grows like n * log(N) * k through alternating branch
and family-growth steps, far past CPython's recursion limit, so the shared
recursion of pkfree.py is written as a generator. A generator yields one
batch (a list) of child instances whenever it needs their results, receives
the list of results via send(), and returns its own result through
StopIteration. The driver keeps the frames on an explicit stack and runs a
batch's children one after another, in batch order, so every counter comes
out the same on every run.

expand may also return a finished answer instead of a generator, as the
path scheme does for graphs of at most one vertex. The driver then hands
that answer to the parent without making a frame, and counts its depth as
if it had made one.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Generator

Expand = Callable[[Any, Any], Generator[list[Any], list[Any], Any] | Any]


def drive(root: Any, expand: Expand, ctx: Any) -> Any:
    """Run expand(root, ctx) to completion on an explicit stack.

    ctx.stats gets the deepest stack height in max_depth, where an answer
    returned without a generator counts as one frame.
    """
    stats = ctx.stats
    deepest = 1
    # A frame is [generator, children still to run (reversed), their results].
    stack: list[list[Any]] = []
    try:
        answer = expand(root, ctx)
        if type(answer) is GeneratorType:
            stack.append([answer, None, None])
        while stack:
            frame = stack[-1]
            pending = frame[1]
            if pending:
                if len(stack) >= deepest:
                    deepest = len(stack) + 1
                answer = expand(pending.pop(), ctx)
                if type(answer) is GeneratorType:
                    stack.append([answer, None, None])
                else:
                    frame[2].append(answer)
                continue
            try:
                # A fresh generator gets None, a resumed one its batch's results.
                batch = frame[0].send(frame[2])
            except StopIteration as stop:
                stack.pop()
                if stack:
                    stack[-1][2].append(stop.value)
                else:
                    answer = stop.value
                continue
            # Reversed, so pop() hands out the children in batch order.
            frame[1] = batch[::-1]
            frame[2] = []
        return answer
    finally:
        if deepest > stats.max_depth:
            stats.max_depth = deepest
