"""Sufficient conditions for fractional ID-[a,b]-factor-criticality.

Three conditions on a graph of order n together guarantee criticality:

    order:         b*n >= (a+2b)(2a+2b-3) + 1
    minimum degree: (a+2b) * delta(G) >= b*n + a(a+2b)
    neighborhoods: (a+2b) * |N(x) | N(y)| >= (a+b) * n
                   for every pair of nonadjacent vertices x, y

Everything is kept in cross-multiplied integer form; no floats, no rounding.
Each inequality is written once, as a margin (left-hand side minus right-hand
side), and every verdict is that margin compared with 0.
On a complete graph the neighborhood condition has nothing to quantify over
and counts as (vacuously) satisfied.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import InputError
from .factor import FactorParams
from .graphs import Graph


def order_margin(n: int, params: FactorParams) -> int:
    """b*n - ((a+2b)(2a+2b-3) + 1): at least 0 exactly when the order condition holds."""
    a, b = params.a, params.b
    return b * n - (a + 2 * b) * (2 * a + 2 * b - 3) - 1


def degree_margin(n: int, min_degree: int, params: FactorParams) -> int:
    """(a+2b)*delta - (b*n + a(a+2b)): at least 0 exactly when the degree condition holds."""
    a, b = params.a, params.b
    return (a + 2 * b) * min_degree - b * n - a * (a + 2 * b)


def neighborhood_margin(n: int, union_size: int, params: FactorParams) -> int:
    """(a+2b)*|N(x) | N(y)| - (a+b)*n: at least 0 exactly when the pair x, y meets the bound."""
    a, b = params.a, params.b
    return (a + 2 * b) * union_size - (a + b) * n


@dataclass(frozen=True)
class ConditionReport:
    """Exact integer slack of each condition; every pass/fail is read off it.

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
    order_margin: int
    min_degree_margin: int
    worst_pair: tuple[int, int] | None = None
    worst_union_size: int | None = None
    neighborhood_margin: int | None = None

    @property
    def order_ok(self) -> bool:
        return self.order_margin >= 0

    @property
    def min_degree_ok(self) -> bool:
        return self.min_degree_margin >= 0

    @property
    def neighborhood_ok(self) -> bool:
        return self.neighborhood_margin is None or self.neighborhood_margin >= 0

    @property
    def all_ok(self) -> bool:
        return self.order_ok and self.min_degree_ok and self.neighborhood_ok

    def to_dict(self) -> dict:
        return asdict(self) | {
            "order_ok": self.order_ok,
            "min_degree_ok": self.min_degree_ok,
            "neighborhood_ok": self.neighborhood_ok,
            "all_ok": self.all_ok,
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
        }


def check_criticality_conditions(g: Graph, params: FactorParams) -> ConditionReport:
    """Evaluate all three conditions on g with exact arithmetic."""
    if g.n < 1:
        raise InputError("conditions are defined for graphs with at least one vertex")
    n = g.n
    min_degree = g.min_degree()
    worst_pair, worst_size = g.least_union_pair() or (None, None)
    return ConditionReport(
        a=params.a,
        b=params.b,
        n=n,
        min_degree=min_degree,
        order_margin=order_margin(n, params),
        min_degree_margin=degree_margin(n, min_degree, params),
        worst_pair=worst_pair,
        worst_union_size=worst_size,
        neighborhood_margin=(
            None if worst_size is None else neighborhood_margin(n, worst_size, params)
        ),
    )


@dataclass(frozen=True)
class DeletionCheck:
    """Derived consequences of the conditions for one independent set X.

    When all three conditions hold, any independent X must satisfy
    (a+2b)|X| <= b*n, and G - X must keep minimum degree >= a. A failure
    here cannot come from the inputs; it means the implementation is
    inconsistent with itself.
    """

    set_size: int
    size_margin: int
    deleted_min_degree: int | None
    min_degree_margin: int | None

    @property
    def size_ok(self) -> bool:
        return self.size_margin >= 0

    @property
    def min_degree_ok(self) -> bool:
        return self.min_degree_margin is not None and self.min_degree_margin >= 0

    @property
    def consistent(self) -> bool:
        return self.size_ok and self.min_degree_ok

    def to_dict(self) -> dict:
        return asdict(self) | {
            "size_ok": self.size_ok,
            "min_degree_ok": self.min_degree_ok,
            "consistent": self.consistent,
        }


def check_deletion_invariants(
    g: Graph, params: FactorParams, ind_set: object, conditions: ConditionReport
) -> DeletionCheck:
    """Audit the two derived bounds for an independent set of a passing graph.

    conditions is check_criticality_conditions(g, params) as the caller holds
    it. Only its order, (a, b) pair and verdict are checked here, so a passing
    report of another graph may reach X = V, where deleted_min_degree is None.
    X's vertex ids are checked first, then its independence, then the report.
    One pass over the masks tests independence and finds delta(G - X).
    """
    n = g.n
    x_mask = 0
    for v in ind_set:
        if type(v) is not int or not 0 <= v < n:  # a bool is refused too
            raise InputError(f"vertex {v!r} out of range for {n} vertices")
        x_mask |= 1 << v
    kept = ~x_mask
    deleted_min_degree = None
    for v, mask in enumerate(g.adjacency_masks()):
        if x_mask >> v & 1:
            if mask & x_mask:
                raise InputError("the audited vertex set must be independent")
        else:
            degree = (mask & kept).bit_count()
            if deleted_min_degree is None or degree < deleted_min_degree:
                deleted_min_degree = degree
    if (conditions.n, conditions.a, conditions.b) != (n, params.a, params.b):
        raise InputError("the condition report is for another order or (a, b) pair")
    if not conditions.all_ok:
        raise InputError(
            "deletion invariants only apply when the order, degree and "
            "neighborhood conditions all hold"
        )
    size = x_mask.bit_count()
    return DeletionCheck(
        set_size=size,
        size_margin=params.b * n - (params.a + 2 * params.b) * size,
        deleted_min_degree=deleted_min_degree,
        min_degree_margin=None if deleted_min_degree is None else deleted_min_degree - params.a,
    )
