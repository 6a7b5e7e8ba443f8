"""Direct tests of the recursion driver."""

import pytest

from qmwis._engine import drive
from qmwis.instrumentation import RunStats


class Ctx:
    def __init__(self):
        self.stats = RunStats()


def doubling_tree(n, ctx):
    """2^n leaves, each worth 1."""
    ctx.stats.on_call(n, 0)
    if n == 0:
        return 1
    results = yield [n - 1, n - 1]
    return sum(results)


def test_drive_sequential_tree():
    ctx = Ctx()
    assert drive(4, doubling_tree, ctx) == 16
    assert ctx.stats.calls == 2**5 - 1
    assert ctx.stats.max_depth == 5


def test_drive_linear_chain_depth():
    def chain(n, ctx):
        ctx.stats.on_call(n, 0)
        if n == 0:
            return 0
        results = yield [n - 1]
        return results[0] + 1

    ctx = Ctx()
    assert drive(7, chain, ctx) == 7
    assert ctx.stats.max_depth == 8


def test_drive_return_without_yield():
    def leaf(inst, ctx):
        ctx.stats.on_call(0, 0)
        return inst * 2
        yield  # makes this a generator; never reached

    ctx = Ctx()
    assert drive(21, leaf, ctx) == 42


def test_drive_empty_batch():
    def expand(inst, ctx):
        results = yield []
        return (inst, results)

    assert drive(5, expand, Ctx()) == (5, [])


def test_drive_multiple_yields_per_frame():
    def expand(inst, ctx):
        if inst == 0:
            return 1
            yield
        first = yield [0]
        second = yield [0, 0]
        return sum(first) + sum(second)

    assert drive(9, expand, Ctx()) == 3


def test_drive_propagates_exceptions():
    def expand(inst, ctx):
        if inst == 13:
            raise RuntimeError("unlucky")
        results = yield [13]
        return results

    with pytest.raises(RuntimeError, match="unlucky"):
        drive(1, expand, Ctx())


def test_results_arrive_in_batch_order():
    def expand(inst, ctx):
        if isinstance(inst, tuple):
            # children of different depths still report in batch order
            if inst[1]:
                results = yield [(inst[0], inst[1] - 1)]
                return results[0]
            return inst[0]
        results = yield [("a", 2), ("b", 0), ("c", 1)]
        return results

    assert drive("root", expand, Ctx()) == ["a", "b", "c"]


def test_answers_returned_without_a_frame_match_the_generator_form():
    # A leaf may return its answer instead of a generator; results, batch
    # order and max_depth must equal those of a generator that returns it.
    def tree(inst, ctx):
        ctx.stats.on_call(0, 0)
        results = yield [(inst, j) for j in range(inst)]
        return [inst, results]

    def leaf(inst, ctx):
        ctx.stats.on_call(0, 0)
        return inst

    def leaf_generator(inst, ctx):
        return leaf(inst, ctx)
        yield

    def as_generator(inst, ctx):
        return (leaf_generator if isinstance(inst, tuple) else tree)(inst, ctx)

    def as_answer(inst, ctx):
        return (leaf if isinstance(inst, tuple) else tree)(inst, ctx)

    for root in (0, 3, (5, 5)):
        outcomes = []
        for expand in (as_generator, as_answer):
            ctx = Ctx()
            outcomes.append((drive(root, expand, ctx), ctx.stats.calls, ctx.stats.max_depth))
        assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ((5, 5), 1, 1)
    ctx = Ctx()
    assert drive(3, as_answer, ctx) == [3, [(3, 0), (3, 1), (3, 2)]]
    assert (ctx.stats.calls, ctx.stats.max_depth) == (4, 2)
