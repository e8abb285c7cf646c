"""Sufficient conditions for fractional ID-[a,b]-factor-criticality.

Three conditions on a graph of order n together guarantee criticality:

    order:         b*n >= (a+2b)(2a+2b-3) + 1
    minimum degree: (a+2b) * delta(G) >= b*n + a(a+2b)
    neighborhoods: (a+2b) * |N(x) | N(y)| >= (a+b) * n
                   for every pair of nonadjacent vertices x, y

Everything is kept in cross-multiplied integer form; no floats, no rounding.
On a complete graph the neighborhood condition has nothing to quantify over
and counts as (vacuously) satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .factor import FactorParams
from .graphs import Graph


def order_threshold(params: FactorParams) -> int:
    """Value b*n must reach for the order condition."""
    a, b = params.a, params.b
    return (a + 2 * b) * (2 * a + 2 * b - 3) + 1


def order_condition_holds(n: int, params: FactorParams) -> bool:
    return params.b * n >= order_threshold(params)


def degree_condition_holds(n: int, min_degree: int, params: FactorParams) -> bool:
    a, b = params.a, params.b
    return (a + 2 * b) * min_degree >= b * n + a * (a + 2 * b)


def neighborhood_condition_holds(n: int, union_size: int, params: FactorParams) -> bool:
    a, b = params.a, params.b
    return (a + 2 * b) * union_size >= (a + b) * n


@dataclass(frozen=True)
class ConditionReport:
    """Pass/fail for each condition plus exact integer slack.

    Margins are left-hand side minus right-hand side of the integer form,
    so zero means the bound is met exactly. worst_pair is the nonadjacent
    pair minimizing the neighborhood union (lexicographically first among
    ties); it stays None on complete graphs, where the neighborhood
    condition holds vacuously.
    """

    a: int
    b: int
    n: int
    min_degree: int
    order_ok: bool
    min_degree_ok: bool
    neighborhood_ok: bool
    order_margin: int
    min_degree_margin: int
    worst_pair: tuple[int, int] | None = None
    worst_union_size: int | None = None
    neighborhood_margin: int | None = None

    @property
    def all_ok(self) -> bool:
        return self.order_ok and self.min_degree_ok and self.neighborhood_ok

    def to_dict(self) -> dict:
        out = {
            "a": self.a,
            "b": self.b,
            "n": self.n,
            "min_degree": self.min_degree,
            "order_ok": self.order_ok,
            "min_degree_ok": self.min_degree_ok,
            "neighborhood_ok": self.neighborhood_ok,
            "all_ok": self.all_ok,
            "order_margin": self.order_margin,
            "min_degree_margin": self.min_degree_margin,
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
            "worst_union_size": self.worst_union_size,
            "neighborhood_margin": self.neighborhood_margin,
        }
        return out


def check_criticality_conditions(g: Graph, params: FactorParams) -> ConditionReport:
    """Evaluate all three conditions on g with exact arithmetic."""
    if g.n < 1:
        raise InputError("conditions are defined for graphs with at least one vertex")
    a, b = params.a, params.b
    n = g.n
    min_degree = g.min_degree()

    masks = g.adjacency_masks()
    worst_pair = None
    worst_size = None
    for u in range(n):
        mask_u = masks[u]
        rest = ~mask_u & ((1 << n) - (2 << u))  # the nonadjacent v > u
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            size = (mask_u | masks[v]).bit_count()
            if worst_size is None or size < worst_size:
                worst_size = size
                worst_pair = (u, v)

    order_margin = b * n - order_threshold(params)
    degree_margin = (a + 2 * b) * min_degree - (b * n + a * (a + 2 * b))
    neighborhood_margin = (
        None if worst_size is None else (a + 2 * b) * worst_size - (a + b) * n
    )
    return ConditionReport(
        a=a,
        b=b,
        n=n,
        min_degree=min_degree,
        order_ok=order_margin >= 0,
        min_degree_ok=degree_margin >= 0,
        neighborhood_ok=neighborhood_margin is None or neighborhood_margin >= 0,
        order_margin=order_margin,
        min_degree_margin=degree_margin,
        worst_pair=worst_pair,
        worst_union_size=worst_size,
        neighborhood_margin=neighborhood_margin,
    )


@dataclass(frozen=True)
class KFactorThresholds:
    """The a = b = k specialization: the least order the order condition admits."""

    k: int
    min_order: int


def k_factor_thresholds(k: int) -> KFactorThresholds:
    """Thresholds for fractional k-factors (a = b = k).

    min_order is the least n with k*n >= order_threshold(FactorParams(k, k)),
    which simplifies to 12k - 8.
    """
    if not isinstance(k, int) or k < 1:
        raise InputError(f"k must be a positive integer, got {k!r}")
    min_order = -(-order_threshold(FactorParams(k, k)) // k)
    return KFactorThresholds(k=k, min_order=min_order)


@dataclass(frozen=True)
class DeletionCheck:
    """Derived consequences of the conditions for one independent set X.

    When all three conditions hold, any independent X must satisfy
    (a+2b)|X| <= b*n, and G - X must keep minimum degree >= a. A failure
    here cannot come from the inputs; it means the implementation is
    inconsistent with itself.
    """

    set_size: int
    size_ok: bool
    size_margin: int
    deleted_min_degree: int | None
    min_degree_ok: bool
    min_degree_margin: int | None

    @property
    def consistent(self) -> bool:
        return self.size_ok and self.min_degree_ok

    def to_dict(self) -> dict:
        return {
            "set_size": self.set_size,
            "size_ok": self.size_ok,
            "size_margin": self.size_margin,
            "deleted_min_degree": self.deleted_min_degree,
            "min_degree_ok": self.min_degree_ok,
            "min_degree_margin": self.min_degree_margin,
            "consistent": self.consistent,
        }


def check_deletion_invariants(
    g: Graph,
    params: FactorParams,
    ind_set: object,
    conditions: ConditionReport | None = None,
) -> DeletionCheck:
    """Audit the two derived bounds for an independent set of a passing graph.

    conditions, when given, is check_criticality_conditions(g, params) as the
    caller already holds it; it is evaluated here otherwise.
    """
    x = g.vertex_subset(ind_set)
    masks = g.adjacency_masks()
    x_mask = sum(1 << v for v in x)
    if any(masks[v] & x_mask for v in x):
        raise InputError("the audited vertex set must be independent")
    report = check_criticality_conditions(g, params) if conditions is None else conditions
    if (report.n, report.a, report.b) != (g.n, params.a, params.b):
        raise InputError("the condition report is for another order or (a, b) pair")
    if not report.all_ok:
        raise InputError(
            "deletion invariants only apply when the order, degree and "
            "neighborhood conditions all hold"
        )
    a, b = params.a, params.b
    size_margin = b * g.n - (a + 2 * b) * len(x)
    size_ok = size_margin >= 0

    kept = ~x_mask
    degrees = [(m & kept).bit_count() for v, m in enumerate(masks) if kept >> v & 1]
    if not degrees:
        deleted_min_degree = None
        degree_ok = False
        degree_margin = None
    else:
        deleted_min_degree = min(degrees)
        degree_margin = deleted_min_degree - a
        degree_ok = degree_margin >= 0
    return DeletionCheck(
        set_size=len(x),
        size_ok=size_ok,
        size_margin=size_margin,
        deleted_min_degree=deleted_min_degree,
        min_degree_ok=degree_ok,
        min_degree_margin=degree_margin,
    )
