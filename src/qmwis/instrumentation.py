"""Potential measures, per-step decrease assertions, and run statistics.

Both solvers carry an integer potential over their instances. The potential
is built from three addends (a size term, a weighted sum of level-set sizes,
and a slack term for how much the family may still grow) and strictly
decreases along every recursion edge by a rule-specific margin. The
functions here compute the potentials exactly, check the per-edge decrease
inequalities in cross-multiplied integer form, and accumulate counters for a
whole run.

All logarithms are ceil(log2 ...); the potentials are plain integers and are
independent of the weight function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from .levels import VertexMultiFamily, ceil_log2


class InvariantViolation(AssertionError):
    """A proven run invariant failed; carries the offending rule and data."""

    def __init__(self, rule: str, message: str, details: dict[str, Any] | None = None):
        super().__init__(f"{rule}: {message}")
        self.rule = rule
        self.details = details or {}


def _level_term(family: VertexMultiFamily) -> int:
    return sum(size << i for i, size in enumerate(family.level_sizes()))


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

    Raises InvariantViolation if the family term is negative, which would
    mean the family outgrew its proven size bound.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if capacity_n < 1:
        raise ValueError(f"N must be >= 1, got {capacity_n}")
    log_n = ceil_log2(capacity_n)
    separator_term = 400 * k * k * log_n * log_n * (capacity_n + graph_size)
    level_term = _level_term(family)
    slack = 10 * k * log_n - len(family)
    family_term = 16 * k * capacity_n * log_n * slack
    if family_term < 0:
        raise InvariantViolation(
            "family-size",
            f"|F| = {len(family)} exceeds 10k log(N) = {10 * k * log_n}",
            {"family_size": len(family), "bound": 10 * k * log_n, "N": capacity_n, "k": k},
        )
    return separator_term + level_term + family_term


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
    |V(G)| + level_term + family_term where
      level_term  = sum_i |L(F, i)| 2^(i-1)
      family_term = 2 |H| N log(N) (|H| c log(N) - |F|)

    Raises InvariantViolation if the family term is negative.
    """
    if pattern_size < 1 or pattern_components < 1:
        raise ValueError("pattern totals must be >= 1")
    if capacity_n < 1:
        raise ValueError(f"N must be >= 1, got {capacity_n}")
    log_n = ceil_log2(capacity_n)
    level_term = _level_term(family)
    slack = pattern_size * pattern_components * log_n - len(family)
    family_term = 2 * pattern_size * capacity_n * log_n * slack
    if family_term < 0:
        raise InvariantViolation(
            "family-size",
            f"|F| = {len(family)} exceeds |H| c log(N) = "
            f"{pattern_size * pattern_components * log_n}",
            {
                "family_size": len(family),
                "bound": pattern_size * pattern_components * log_n,
                "N": capacity_n,
            },
        )
    return graph_size + level_term + family_term


def max_measure_k(capacity_n: int, k: int) -> int:
    """Proven ceiling 1050 k^2 N log^2(N) for the path-solver potential."""
    log_n = ceil_log2(capacity_n)
    return 1050 * k * k * capacity_n * log_n * log_n


def max_measure_h(capacity_n: int, pattern_size: int, pattern_components: int) -> int:
    """Proven ceiling 4 |H|^2 c N log^2(N) for the pattern-solver potential."""
    log_n = ceil_log2(capacity_n)
    return 4 * pattern_size * pattern_size * pattern_components * capacity_n * log_n * log_n


def check_level_sizes(family: VertexMultiFamily, bound: int, label: str) -> None:
    """Raise unless |L(F, i)| 2^(i-1) <= bound |F| on every level."""
    for i, size in enumerate(family.level_sizes(), 1):
        if size << (i - 1) > bound * len(family):
            raise InvariantViolation(
                "level-size",
                f"|L(F, {i})| = {size} exceeds its {label} bound",
                {"level": i, "occupancy": size, "family_size": len(family)},
            )


def check_level_growth(
    family: VertexMultiFamily, grown: VertexMultiFamily, bound: int, label: str, details: dict
) -> None:
    """Raise unless every level of grown exceeds family's by at most bound / 2^(i-1)."""
    before = family.level_sizes()
    for i, size in enumerate(grown.level_sizes(), 1):
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

    def fail(expected: str) -> None:
        raise InvariantViolation(
            rule,
            f"potential did not decrease as proven: mu = {mu}, mu' = {mu_child}, "
            f"required {expected}",
            {"parent": mu, "child": mu_child, "rule": rule, **params},
        )

    if rule == RULE_COMPONENT:
        if 20 * mu_child > 19 * mu:
            fail("20 mu' <= 19 mu")
        return
    if rule == RULE_BRANCH_DELETE:
        if mu_child > mu - 1:
            fail("mu' <= mu - 1")
        return

    log_mu = ceil_log2(mu) if mu >= 1 else 0
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
        fail("positive decrease denominator (parent potential too small)")
    if mu_child * denom > mu * (denom - 1):
        fail(f"mu' <= mu (1 - 1/{denom})")


@dataclass
class RunStats:
    """Exact counters for one solver run.

    Mutable during a run. measure_trace is a ring buffer of the last 4,096
    recorded potential steps, so deep runs stay bounded in memory.
    """

    calls: int = 0
    component_recursions: int = 0
    branch_steps: int = 0
    separators_added: int = 0
    neighborhoods_added_count: int = 0
    oracle_calls: int = 0
    oracle_calls_by_index: dict[int, int] = field(default_factory=dict)
    max_family_size: int = 0
    max_depth: int = 0
    max_graph_size: int = 0
    max_level_occupancy: dict[int, int] = field(default_factory=dict)
    assertions_checked: int = 0
    measure_trace: deque = field(default_factory=lambda: deque(maxlen=4096))

    def on_call(self, graph_size: int, family_size: int) -> None:
        # max_depth is maintained by the stack driver, not per call.
        self.calls += 1
        if family_size > self.max_family_size:
            self.max_family_size = family_size
        if graph_size > self.max_graph_size:
            self.max_graph_size = graph_size

    def record_levels(self, family: VertexMultiFamily) -> None:
        for i, size in enumerate(family.level_sizes(), 1):
            if size > self.max_level_occupancy.get(i, 0):
                self.max_level_occupancy[i] = size

    def record_measure(self, rule: str, parent_value: int, child_value: int) -> None:
        self.measure_trace.append((rule, parent_value, child_value))

    def record_oracle_call(self, index: int) -> None:
        self.oracle_calls += 1
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
