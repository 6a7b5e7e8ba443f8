"""Potential measures, per-step decrease assertions, and run statistics.

Both solvers carry an integer potential over their instances that strictly
decreases along every recursion edge by a rule-specific margin. The
functions here compute the potentials exactly, check the per-edge decrease
inequalities in cross-multiplied integer form, and accumulate counters for
a whole run. All logarithms are ceil(log2 ...); the potentials are plain
integers and are independent of the weight function.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any

from .graph import _check_positive
from .levels import VertexMultiFamily


class InvariantViolation(AssertionError):
    """A proven run invariant failed; carries the offending rule and data."""

    def __init__(self, rule: str, message: str, details: dict[str, Any] | None = None):
        super().__init__(f"{rule}: {message}")
        self.rule = rule
        self.details = details or {}


def _potential(
    size_term: int,
    family: VertexMultiFamily,
    unit: int,
    bound: int,
    label: str,
    capacity_n: int,
    k: int | None = None,
) -> int:
    # The family term's sign is tested, not |F| > bound: at N = 1 unit and
    # bound are both 0, and no family outgrows them. The details are built
    # only for a violation.
    family_size = len(family._raw)
    family_term = unit * (bound - family_size)
    if family_term < 0:
        details = {"family_size": family_size, "bound": bound, "N": capacity_n}
        if k is not None:
            details["k"] = k
        raise InvariantViolation(
            "family-size", f"|F| = {family_size} exceeds {label} = {bound}", details
        )
    level_term = 0
    for i, size in enumerate(family.level_sizes()):
        level_term += size << i
    return size_term + level_term + family_term


def measure_k(
    graph_size: int,
    capacity_n: int,
    family: VertexMultiFamily,
    k: int,
) -> int:
    """Exact potential of an instance (|V(G)|, N, F) for parameter k.

    The potential is separator_term + level_term + family_term where
      separator_term = 400 k^2 log^2(N) (N + |V(G)|)
      level_term     = sum_i |L(F, i)| 2^(i-1)
      family_term    = 16 k N log(N) (10 k log(N) - |F|)

    k and N must be ints >= 1; a bool, float or str raises ValueError.

    Raises InvariantViolation if the family term is negative, which would
    mean the family outgrew its proven size bound.
    """
    # One type test per value on the per-edge path; _check_positive, which
    # also passes an int subclass other than bool, only when one fails.
    if type(k) is not int or type(capacity_n) is not int or k < 1 or capacity_n < 1:
        _check_positive("k", k)
        _check_positive("N", capacity_n)
    log_n = (capacity_n - 1).bit_length()
    separator_term = 400 * k * k * log_n * log_n * (capacity_n + graph_size)
    unit, bound = 16 * k * capacity_n * log_n, 10 * k * log_n
    return _potential(separator_term, family, unit, bound, "10k log(N)", capacity_n, k)


def measure_h(
    graph_size: int,
    capacity_n: int,
    family: VertexMultiFamily,
    pattern_size: int,
    pattern_components: int,
) -> int:
    """Exact potential of a pattern-solver instance.

    pattern_size is |H| (total vertices over all components) and
    pattern_components is the number of components c. The potential is
    |V(G)| + level_term + family_term, with measure_k's level_term and
      family_term = 2 |H| N log(N) (|H| c log(N) - |F|)

    N and both pattern totals must be ints >= 1; a bool, float or str
    raises ValueError.

    Raises InvariantViolation if the family term is negative.
    """
    if (
        type(pattern_size) is not int
        or type(pattern_components) is not int
        or type(capacity_n) is not int
        or pattern_size < 1
        or pattern_components < 1
        or capacity_n < 1
    ):
        _check_positive("pattern size", pattern_size)
        _check_positive("pattern components", pattern_components)
        _check_positive("N", capacity_n)
    log_n = (capacity_n - 1).bit_length()
    unit, bound = 2 * pattern_size * capacity_n * log_n, pattern_size * pattern_components * log_n
    return _potential(graph_size, family, unit, bound, "|H| c log(N)", capacity_n)


def max_measure_k(capacity_n: int, k: int) -> int:
    """Proven ceiling 1050 k^2 N log^2(N) for the path-solver potential.

    N and k must be ints >= 1, as for measure_k.
    """
    _check_positive("N", capacity_n)
    _check_positive("k", k)
    log_n = (capacity_n - 1).bit_length()
    return 1050 * k * k * capacity_n * log_n * log_n


def max_measure_h(capacity_n: int, pattern_size: int, pattern_components: int) -> int:
    """Proven ceiling 4 |H|^2 c N log^2(N) for the pattern-solver potential.

    N and both pattern totals must be ints >= 1, as for measure_h.
    """
    _check_positive("N", capacity_n)
    _check_positive("pattern size", pattern_size)
    _check_positive("pattern components", pattern_components)
    log_n = (capacity_n - 1).bit_length()
    return 4 * pattern_size * pattern_size * pattern_components * capacity_n * log_n * log_n


def check_level_sizes(sizes: tuple[int, ...], family_size: int, bound: int, label: str) -> None:
    """Raise unless |L(F, i)| 2^(i-1) <= bound |F| on every level.

    sizes is F's level_sizes() and family_size is |F|.
    """
    limit = bound * family_size
    for i, size in enumerate(sizes, 1):
        if size << (i - 1) > limit:
            raise InvariantViolation(
                "level-size",
                f"|L(F, {i})| = {size} exceeds its {label} bound",
                {"level": i, "occupancy": size, "family_size": family_size},
            )


def check_level_growth(
    before: tuple[int, ...], after: tuple[int, ...], bound: int, label: str, details: dict
) -> None:
    """Raise unless every level size in after exceeds before's by at most bound / 2^(i-1).

    before and after are the level_sizes() of a family and of the family
    grown by one member.
    """
    for i, size in enumerate(after, 1):
        growth = size - (before[i - 1] if i <= len(before) else 0)
        if growth << (i - 1) > bound:
            raise InvariantViolation(
                "level-growth",
                f"level {i} grew by {growth}, over its {label} bound",
                {"level": i, "growth": growth, **details},
            )


RULE_COMPONENT = "component-recurse"
RULE_BRANCH_DELETE = "branch-delete"
RULE_BRANCH_TAKE = "branch-take"
RULE_ADD_SEPARATOR = "add-separator"
RULE_ADD_NEIGHBORHOOD = "add-neighborhood"


def assert_recurrence_step(
    parent_measure: int,
    child_measure: int,
    rule: str,
    params: dict[str, int],
) -> None:
    """Check one recursion edge's potential decrease in integer arithmetic.

    params carries "k" for path-solver edges, or "pattern_size" and
    "pattern_components" for pattern-solver edges. The inequalities, with
    mu the parent potential, mu' the child potential, and L = ceil(log2 mu):

      component-recurse   20 mu' <= 19 mu
      branch-delete       mu' <= mu - 1
      branch-take         mu' D <= mu (D - 1),  D = 2100 k^2 L^2
                          (pattern: D = 8 |H|^2 c L^2)
      add-separator       mu' D <= mu (D - 1),  D = 200 k L
      add-neighborhood    mu' D <= mu (D - 1),  D = 4 |H| c L

    Raises:
        InvariantViolation: when the inequality fails.
    """
    mu = parent_measure
    mu_child = child_measure
    if rule == RULE_COMPONENT:
        if 20 * mu_child > 19 * mu:
            raise _recurrence_failure(rule, mu, mu_child, params, "20 mu' <= 19 mu")
        return
    if rule == RULE_BRANCH_DELETE:
        if mu_child > mu - 1:
            raise _recurrence_failure(rule, mu, mu_child, params, "mu' <= mu - 1")
        return

    # ceil(log2 mu), as ceil_log2 computes it for mu >= 1.
    log_mu = (mu - 1).bit_length() if mu >= 1 else 0
    if rule == RULE_BRANCH_TAKE:
        if "k" in params:
            denom = 2100 * params["k"] ** 2 * log_mu * log_mu
        else:
            denom = 8 * params["pattern_size"] ** 2 * params["pattern_components"] * log_mu * log_mu
    elif rule == RULE_ADD_SEPARATOR:
        denom = 200 * params["k"] * log_mu
    elif rule == RULE_ADD_NEIGHBORHOOD:
        denom = 4 * params["pattern_size"] * params["pattern_components"] * log_mu
    else:
        raise ValueError(f"unknown recursion rule {rule!r}")

    if denom <= 0:
        raise _recurrence_failure(
            rule, mu, mu_child, params, "positive decrease denominator (parent potential too small)"
        )
    if mu_child * denom > mu * (denom - 1):
        raise _recurrence_failure(rule, mu, mu_child, params, f"mu' <= mu (1 - 1/{denom})")


def _recurrence_failure(
    rule: str, mu: int, mu_child: int, params: dict[str, int], expected: str
) -> InvariantViolation:
    return InvariantViolation(
        rule,
        f"potential did not decrease as proven: mu = {mu}, mu' = {mu_child}, "
        f"required {expected}",
        {"parent": mu, "child": mu_child, "rule": rule, **params},
    )


class RunStats:
    """Exact counters for one solver run.

    Mutable during a run. The counters describe the recursion tree of the
    paper's algorithm, the quantity its bounds are about, memo hits
    included (see drive). memo_hits counts those hits, memo_calls the calls
    they replayed (included in calls) and measure_steps every potential
    step recorded or replayed; none of the three is in to_dict().
    measure_trace is a ring buffer of the last 4,096 recorded steps, so
    deep runs stay bounded in memory. Each statistic is set where it
    changes: the recursion's per-call check counts calls; drive sets
    max_graph_size from the root and max_family_size from the root family
    and each growth, at "paranoid" folds their levels into
    max_level_occupancy, and keeps max_depth; the root entry sets
    assertions_checked, the checked calls, to calls at "fair" and
    "paranoid" when the run returns (0 at "off" and after a raise).
    """

    def __init__(self) -> None:
        self.calls = 0
        self.component_recursions = 0
        self.branch_steps = 0
        self.separators_added = 0
        self.neighborhoods_added_count = 0
        self.oracle_calls_by_index: dict[int, int] = {}
        self.max_family_size = 0
        self.max_depth = 0
        self.max_graph_size = 0
        self.max_level_occupancy: dict[int, int] = {}
        self.assertions_checked = 0
        self.measure_trace: deque = deque(maxlen=4096)
        self.memo_hits = 0
        self.memo_calls = 0
        self.measure_steps = 0

    def record_levels(self, sizes: tuple[int, ...]) -> None:
        """Fold a family's level_sizes() into max_level_occupancy."""
        for i, size in enumerate(sizes, 1):
            if size > self.max_level_occupancy.get(i, 0):
                self.max_level_occupancy[i] = size

    def mark(self) -> tuple[int, ...]:
        """The five counters a memo hit replays, as they stand: the four a
        path-scheme subtree moves (drive and the root entry set the others),
        and measure_steps. since and replay spell them out in this order; each
        then runs about 1 us faster than a loop over their names would
        (CPython 3.11.7)."""
        return (
            self.calls, self.component_recursions, self.branch_steps,
            self.separators_added, self.measure_steps,
        )

    def since(self, mark: tuple[int, ...]) -> tuple:
        """What each counter of mark grew by since, then the trace entries
        the new measure steps left (at most 4,096): the record replay takes."""
        calls, comps, branches, seps, steps = mark
        steps = self.measure_steps - steps
        trace = self.measure_trace
        return (
            self.calls - calls, self.component_recursions - comps, self.branch_steps - branches,
            self.separators_added - seps, steps,
            list(islice(reversed(trace), min(steps, trace.maxlen)))[::-1] if steps else (),
        )

    def replay(self, record: tuple) -> None:
        """Count one memo hit and add record's counts and steps again: the
        ring ends as if each step were recorded here."""
        calls, comps, branches, seps, steps, tail = record
        self.calls += calls
        self.component_recursions += comps
        self.branch_steps += branches
        self.separators_added += seps
        self.measure_steps += steps
        self.measure_trace.extend(tail)
        self.memo_hits += 1
        self.memo_calls += calls

    @property
    def oracle_calls(self) -> int:
        """Every oracle call, summed over the component indices."""
        return sum(self.oracle_calls_by_index.values())

    def record_oracle_call(self, index: int) -> None:
        self.oracle_calls_by_index[index] = self.oracle_calls_by_index.get(index, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        """Stable-key snapshot for reports."""
        return {
            "calls": self.calls,
            "component_recursions": self.component_recursions,
            "branch_steps": self.branch_steps,
            "separators_added": self.separators_added,
            "neighborhoods_added": self.neighborhoods_added_count,
            "oracle_calls": self.oracle_calls,
            "oracle_calls_by_index": {str(k): v for k, v in sorted(self.oracle_calls_by_index.items())},
            "max_family_size": self.max_family_size,
            "max_depth": self.max_depth,
            "max_graph_size": self.max_graph_size,
            "max_level_occupancy": {str(k): v for k, v in sorted(self.max_level_occupancy.items())},
            "assertions_checked": self.assertions_checked,
            "measure_trace_tail": [list(t) for t in self.measure_trace],
        }
