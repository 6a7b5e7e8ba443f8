import pytest

from qmwis import (
    RULE_ADD_NEIGHBORHOOD,
    RULE_ADD_SEPARATOR,
    RULE_BRANCH_DELETE,
    RULE_BRANCH_TAKE,
    RULE_COMPONENT,
    InvariantViolation,
    VertexMultiFamily,
    assert_recurrence_step,
    max_measure_h,
    max_measure_k,
    measure_h,
    measure_k,
)
from qmwis.instrumentation import check_level_growth, check_level_sizes
from qmwis.pkfree import Scheme, _check_call, _check_edge

EMPTY = VertexMultiFamily()


def test_measure_k_two_vertex_example():
    # 400*25*1*(2+2) = 40000, levels empty, 16*5*2*1*(50-0) = 8000
    assert measure_k(2, 2, EMPTY, 5) == 48000


def test_measure_k_with_family():
    fam = VertexMultiFamily([{1, 2}, {2}])
    # separator 400*4*7, levels 2*1 + 1*2, family 16*4*2*(20-2)
    assert measure_k(3, 4, fam, 1) == 11200 + 4 + 2304


def test_measure_k_single_vertex_capacity_has_no_slack():
    # log(1) = 0 wipes both the separator and family terms
    assert measure_k(1, 1, EMPTY, 3) == 0


def test_measure_k_family_overflow_raises():
    fam = VertexMultiFamily([{1}] * 11)
    with pytest.raises(InvariantViolation) as err:
        measure_k(1, 2, fam, 1)
    assert err.value.rule == "family-size"
    assert str(err.value) == "family-size: |F| = 11 exceeds 10k log(N) = 10"
    assert err.value.details == {"family_size": 11, "bound": 10, "N": 2, "k": 1}


def test_measure_k_validates_arguments():
    with pytest.raises(ValueError):
        measure_k(1, 1, EMPTY, 0)
    with pytest.raises(ValueError):
        measure_k(1, 0, EMPTY, 1)


def test_measure_h_empty_graph_example():
    # size 0, levels empty, family 2*4*2*1*8
    assert measure_h(0, 2, EMPTY, 4, 2) == 128


def test_measure_h_counts_graph_size_directly():
    # levels: L1 = {1}, L2 = {1} -> 1 + 2 = 3; slack = 2*1*3 - 2 = 4,
    # family 2*2*8*3*4 = 384
    assert measure_h(7, 8, VertexMultiFamily([{1}, {1}]), 2, 1) == 7 + 3 + 384


def test_measure_h_family_overflow_raises():
    fam = VertexMultiFamily([{1}, {2}])
    with pytest.raises(InvariantViolation) as err:
        measure_h(1, 2, fam, 1, 1)
    assert err.value.rule == "family-size"
    assert str(err.value) == "family-size: |F| = 2 exceeds |H| c log(N) = 1"
    assert err.value.details == {"family_size": 2, "bound": 1, "N": 2}


def test_family_bound_is_not_checked_at_single_vertex_capacity():
    # log(1) = 0 zeroes the family term, so no family outgrows it
    assert measure_k(1, 1, VertexMultiFamily([{1}, {1}, {1}]), 3) == 7
    assert measure_h(1, 1, VertexMultiFamily([{1}]), 1, 1) == 2


def test_measure_h_validates_arguments():
    with pytest.raises(ValueError):
        measure_h(1, 1, EMPTY, 0, 1)
    with pytest.raises(ValueError):
        measure_h(1, 1, EMPTY, 1, 0)
    with pytest.raises(ValueError):
        measure_h(1, 0, EMPTY, 1, 1)


PAIR = VertexMultiFamily([{1, 2}])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: measure_k(3, 8, PAIR, True), "k must be an integer, got True"),
        (lambda: measure_k(3, 8, PAIR, 2.5), "k must be an integer, got 2.5"),
        (lambda: measure_k(3, 8, PAIR, "4"), "k must be an integer, got '4'"),
        (lambda: measure_k(3, 8.0, PAIR, 2), "N must be an integer, got 8.0"),
        (lambda: measure_k(3, True, PAIR, 2), "N must be an integer, got True"),
        (lambda: max_measure_k(8, 2.5), "k must be an integer, got 2.5"),
        (lambda: max_measure_k(8, True), "k must be an integer, got True"),
        (lambda: max_measure_k("8", 2), "N must be an integer, got '8'"),
        (lambda: max_measure_k(0, 2), "N must be >= 1, got 0"),
        (lambda: measure_h(3, 8, PAIR, 2.5, 1), "pattern size must be an integer, got 2.5"),
        (lambda: measure_h(3, 8, PAIR, True, 1), "pattern size must be an integer, got True"),
        (lambda: measure_h(3, 8, PAIR, 2, "1"), "pattern components must be an integer, got '1'"),
        (lambda: measure_h(3, 8.0, PAIR, 2, 1), "N must be an integer, got 8.0"),
        (lambda: max_measure_h(8, 2, 1.0), "pattern components must be an integer, got 1.0"),
        (lambda: max_measure_h(True, 2, 1), "N must be an integer, got True"),
    ],
    ids=[
        "k-bool",
        "k-float",
        "k-str",
        "N-float",
        "N-bool",
        "max-k-float",
        "max-k-bool",
        "max-N-str",
        "max-N-zero",
        "h-size-float",
        "h-size-bool",
        "h-components-str",
        "h-N-float",
        "max-h-components-float",
        "max-h-N-bool",
    ],
)
def test_potentials_refuse_non_integer_parameters(call, message):
    # A bool would be read as 1 and a float would give a float potential;
    # both are refused, as solve_pkfree refuses them for k_hint and N.
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_potentials_take_int_subclasses_other_than_bool():
    class Count(int):
        pass

    assert measure_k(3, Count(8), PAIR, Count(2)) == measure_k(3, 8, PAIR, 2)
    assert measure_h(3, Count(8), PAIR, Count(2), Count(1)) == measure_h(3, 8, PAIR, 2, 1)


def test_max_measures():
    assert max_measure_k(2, 5) == 1050 * 25 * 2
    assert max_measure_k(1, 5) == 0
    assert max_measure_h(2, 4, 2) == 4 * 16 * 2 * 2
    assert measure_k(2, 2, EMPTY, 5) <= max_measure_k(2, 5)
    assert measure_h(0, 2, EMPTY, 4, 2) <= max_measure_h(2, 4, 2)


def test_recurrence_component_rule():
    assert_recurrence_step(20, 19, RULE_COMPONENT, {"k": 1})
    with pytest.raises(InvariantViolation):
        assert_recurrence_step(20, 20, RULE_COMPONENT, {"k": 1})


def test_recurrence_branch_delete():
    assert_recurrence_step(10, 9, RULE_BRANCH_DELETE, {"k": 2})
    with pytest.raises(InvariantViolation):
        assert_recurrence_step(10, 10, RULE_BRANCH_DELETE, {"k": 2})


def test_recurrence_branch_take_k_form():
    # mu = 1024, L = 10, k = 1: D = 210000; the step must lose mu/D
    assert_recurrence_step(1024, 1023, RULE_BRANCH_TAKE, {"k": 1})
    with pytest.raises(InvariantViolation):
        assert_recurrence_step(1024, 1024, RULE_BRANCH_TAKE, {"k": 1})


def test_recurrence_branch_take_pattern_form():
    params = {"pattern_size": 2, "pattern_components": 1}
    assert_recurrence_step(1024, 1023, RULE_BRANCH_TAKE, params)
    with pytest.raises(InvariantViolation):
        assert_recurrence_step(1024, 1024, RULE_BRANCH_TAKE, params)


def test_recurrence_add_separator():
    assert_recurrence_step(1024, 1023, RULE_ADD_SEPARATOR, {"k": 1})
    with pytest.raises(InvariantViolation):
        assert_recurrence_step(1024, 1024, RULE_ADD_SEPARATOR, {"k": 1})


def test_recurrence_add_neighborhood():
    params = {"pattern_size": 2, "pattern_components": 1}
    # D = 4*2*1*10 = 80: mu' = 1011 still passes, 1012 does not
    assert_recurrence_step(1024, 1011, RULE_ADD_NEIGHBORHOOD, params)
    with pytest.raises(InvariantViolation):
        assert_recurrence_step(1024, 1012, RULE_ADD_NEIGHBORHOOD, params)


def test_recurrence_tiny_parent_fails_scaled_rules():
    # log(1) = 0 gives an empty decrease budget
    with pytest.raises(InvariantViolation):
        assert_recurrence_step(1, 0, RULE_ADD_SEPARATOR, {"k": 1})


def test_recurrence_unknown_rule():
    with pytest.raises(ValueError):
        assert_recurrence_step(10, 9, "teleport", {"k": 1})


def test_run_stats_counters_and_maxima():
    # The per-call check counts each call and keeps the graph and family maxima.
    scheme = Scheme(0)
    _check_call(None, 5, 5, 3, VertexMultiFamily([{1}, {2}]), scheme)
    _check_call(None, 3, 5, 3, VertexMultiFamily([{1}] * 4), scheme)
    s = scheme.stats
    assert s.calls == 2
    assert s.max_graph_size == 5
    assert s.max_family_size == 4
    s.record_oracle_call(0)
    s.record_oracle_call(0)
    s.record_oracle_call(1)
    assert s.oracle_calls == 3
    assert s.oracle_calls_by_index == {0: 2, 1: 1}
    s.record_levels(VertexMultiFamily([{1, 2, 3}, {3}]).level_sizes())
    assert s.max_level_occupancy == {1: 3, 2: 1}


class Steps(Scheme):
    """A paranoid scheme whose potential is the graph size, so step() makes
    _check_edge record exactly the step it is given."""

    params = {"k": 1}

    def __init__(self):
        super().__init__(2)

    def potential(self, n, n_cap, family):
        return n


def step(scheme: Steps, rule: str, parent: int, child: int) -> None:
    _check_edge(parent, child, child, EMPTY, rule, scheme)


def test_run_stats_trace_ring_buffer():
    # Every audited edge is one measure step; the trace keeps the last 4,096.
    scheme = Steps()
    for n in range(4096):
        step(scheme, RULE_BRANCH_DELETE, n + 1, n)
    s = scheme.stats
    assert (len(s.measure_trace), s.measure_steps) == (4096, 4096)
    assert s.measure_trace[0] == ("branch-delete", 1, 0)
    step(scheme, RULE_COMPONENT, 20, 19)
    assert (len(s.measure_trace), s.measure_steps) == (4096, 4097)
    assert s.measure_trace[0] == ("branch-delete", 2, 1)
    assert s.measure_trace[-1] == ("component-recurse", 20, 19)


@pytest.mark.parametrize("steps", [0, 1, 1000, 4096, 5000])
def test_replayed_measure_steps_leave_the_ring_as_recording_them(steps):
    # A subtree's counts and steps, taken after a 3,000-step prefix and
    # replayed after another, leave the counters, the ring and the step
    # count as recording them there would, plus one memo hit; past 4,096
    # steps only the tail survives either way.
    subtree = [(RULE_BRANCH_TAKE, n + 2, n + 1) for n in range(steps)]
    stored, recorded, replayed = Steps(), Steps(), Steps()
    for n in range(3000):
        step(stored, RULE_BRANCH_DELETE, n + 1, n)
        step(recorded, RULE_ADD_SEPARATOR, n + 2, n)
        step(replayed, RULE_ADD_SEPARATOR, n + 2, n)
    mark = stored.stats.mark()
    for scheme in (stored, recorded):
        for entry in subtree:
            step(scheme, *entry)
        s = scheme.stats
        s.calls, s.component_recursions, s.branch_steps = 5, 1, 2
        s.separators_added, s.assertions_checked = 3, 4
    record = stored.stats.since(mark)
    assert record[:6] == (5, 1, 2, 3, 4, steps) and list(record[6]) == subtree[-4096:]
    replayed.stats.replay(record)
    r, s = replayed.stats, recorded.stats
    assert r.mark() == s.mark() == (5, 1, 2, 3, 4, 3000 + steps)
    assert r.measure_trace == s.measure_trace
    assert (r.memo_hits, r.memo_calls, s.memo_hits) == (1, 5, 0)
    assert "measure_steps" not in r.to_dict()


def test_run_stats_to_dict_round_trips_through_json():
    import json

    scheme = Steps()
    s = scheme.stats
    s.calls = 1
    s.record_oracle_call(1)
    step(scheme, RULE_BRANCH_DELETE, 9, 8)
    d = s.to_dict()
    assert d["calls"] == 1
    assert d["oracle_calls_by_index"] == {"1": 1}
    assert d["measure_trace_tail"] == [["branch-delete", 9, 8]]
    json.dumps(d, sort_keys=True)


def test_invariant_violation_carries_rule_and_details():
    err = InvariantViolation("demo", "broke", {"x": 1})
    assert isinstance(err, AssertionError)
    assert err.rule == "demo"
    assert err.details == {"x": 1}
    assert "demo" in str(err) and "broke" in str(err)


def test_level_size_bound():
    family = VertexMultiFamily([{1, 2, 3}, {1, 2}])  # levels {1, 2, 3} and {1, 2}
    check_level_sizes(family.level_sizes(), len(family), 2, "|H|")  # 3 <= 2 * 2 and 2 * 2 <= 2 * 2
    with pytest.raises(InvariantViolation) as info:
        check_level_sizes(family.level_sizes(), len(family), 1, "|H|")
    assert str(info.value) == "level-size: |L(F, 1)| = 3 exceeds its |H| bound"
    assert info.value.details == {"level": 1, "occupancy": 3, "family_size": 2}


def test_level_growth_bound():
    family = VertexMultiFamily([{1, 2, 3}])
    grown = family.add({1, 2})  # level 1 unchanged, level 2 gains {1, 2}
    before, after = family.level_sizes(), grown.level_sizes()
    check_level_growth(before, after, 4, "8k", {"N": 4, "k": 1})
    with pytest.raises(InvariantViolation) as info:
        check_level_growth(before, after, 3, "8k", {"N": 4, "k": 1})
    assert str(info.value) == "level-growth: level 2 grew by 2, over its 8k bound"
    assert info.value.details == {"level": 2, "growth": 2, "N": 4, "k": 1}
