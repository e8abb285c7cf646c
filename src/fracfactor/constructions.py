"""Graph generators: two extremal families and seeded random graphs.

The two deterministic families exhibit, for given (a, b, t), how tight the
criticality conditions are:

* the neighborhood-extremal family misses the neighborhood condition by
  less than one unit of the scaled bound and is not criticality-safe;
* the degree-extremal family sits exactly one below the minimum-degree
  bound while satisfying the neighborhood condition, and again fails
  criticality after deleting its designated independent set.

Generated graphs carry labels naming their construction parts, so tests and
the CLI can refer to "the btK1 part" instead of raw index ranges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .criticality import is_fractional_id_factor_critical
from .conditions import check_criticality_conditions
from .errors import ConstructionError, InputError, ResourceLimitError
from .factor import FactorParams, Infeasible, delta_st, find_fractional_factor
from .graphs import Graph, complete_multipartite_graph

KIND_NEIGHBORHOOD = "neighborhood-extremal"
KIND_DEGREE = "degree-extremal"
KIND_RANDOM = "random"

GENERATED_KINDS = (KIND_NEIGHBORHOOD, KIND_DEGREE)


@dataclass(frozen=True)
class ConstructionLabels:
    """Named parts of a generated graph.

    part_map partitions the vertex set; markers holds auxiliary selections
    that overlap parts (such as the designated low-degree attachment
    vertices inside a part).
    """

    n: int
    part_map: dict[str, frozenset[int]]
    markers: dict[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        covered: set[int] = set()
        for name, part in self.part_map.items():
            if part & covered:
                raise InputError(f"part {name!r} overlaps another part")
            covered |= part
        if covered != set(range(self.n)):
            raise InputError("parts must partition the vertex set")

    def to_dict(self) -> dict:
        def as_range(vs: frozenset[int]) -> list[int]:
            # all construction parts occupy consecutive indices
            lo, hi = min(vs), max(vs)
            if len(vs) != hi - lo + 1:
                raise InputError("part is not a consecutive index range")
            return [lo, hi + 1]

        return {
            "n": self.n,
            "parts": {name: as_range(vs) for name, vs in self.part_map.items() if vs},
            "markers": {name: as_range(vs) for name, vs in self.markers.items() if vs},
        }


def neighborhood_extremal_graph(
    params: FactorParams, t: int
) -> tuple[Graph, ConstructionLabels]:
    """Complete tripartite graph with parts of sizes a*t, b*t and b*t + 1.

    Its order is (a+2b)t + 1, every pair of nonadjacent vertices inside the
    largest part has a neighborhood union of exactly (a+b)t, and deleting
    the middle part leaves a graph with no fractional [a,b]-factor.
    """
    if not isinstance(t, int) or t < 1:
        raise InputError(f"t must be a positive integer, got {t!r}")
    a, b = params.a, params.b
    sizes = (a * t, b * t, b * t + 1)
    g = complete_multipartite_graph(sizes)
    at = a * t
    bt = b * t
    labels = ConstructionLabels(
        n=g.n,
        part_map={
            "atK1": frozenset(range(0, at)),
            "btK1": frozenset(range(at, at + bt)),
            "bt1K1": frozenset(range(at + bt, g.n)),
        },
    )
    assert g.n == (a + 2 * b) * t + 1
    return g, labels


def min_degree_extremal_graph(
    params: FactorParams, t: int
) -> tuple[Graph, ConstructionLabels]:
    """Order-(a+2b)t graph whose minimum degree is exactly b*t + a - 1.

    Three fully joined blocks, bt isolated-vertex block, an (at-1) block and
    bt/2 disjoint edges, plus one extra vertex u adjacent to all of the
    first block and to the first a-1 vertices of the second. The minimum
    degree sits at u, one below the degree bound, and deleting the first
    block strands u with degree a - 1 < a.
    """
    if not isinstance(t, int) or t < 1:
        raise InputError(f"t must be a positive integer, got {t!r}")
    a, b = params.a, params.b
    bt = b * t
    at = a * t
    if bt % 2 != 0:
        raise InputError(f"this family needs b*t even, got b*t = {bt}")
    if at < 2:
        raise InputError(f"this family needs a*t >= 2, got a*t = {at}")

    block1 = range(0, bt)                       # bt isolated vertices
    block2 = range(bt, bt + at - 1)             # at-1 isolated vertices
    block3 = range(bt + at - 1, 2 * bt + at - 1)  # bt/2 disjoint edges
    u = 2 * bt + at - 1
    n = u + 1

    edges: list[tuple[int, int]] = []
    blocks = (block1, block2, block3)
    for i in range(3):
        for j in range(i + 1, 3):
            edges += [(x, y) for x in blocks[i] for y in blocks[j]]
    edges += [(block3[i], block3[i + 1]) for i in range(0, bt, 2)]
    edges += [(x, u) for x in block1]
    xs = [block2[i] for i in range(a - 1)]
    edges += [(x, u) for x in xs]

    g = Graph(n, edges)
    labels = ConstructionLabels(
        n=n,
        part_map={
            "btK1": frozenset(block1),
            "at1K1": frozenset(block2),
            "K2s": frozenset(block3),
            "u": frozenset([u]),
        },
        markers={"x": frozenset(xs)},
    )
    assert n == (a + 2 * b) * t
    return g, labels


def random_graph(n: int, p: Fraction | float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed.

    Pairs are visited in fixed lexicographic order, so the same seed always
    produces the same graph, bit for bit.
    """
    if not isinstance(n, int) or n < 0:
        raise InputError(f"n must be a nonnegative integer, got {n!r}")
    if isinstance(p, float):
        p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


@dataclass(frozen=True)
class SharpnessCheck:
    name: str
    passed: bool
    required: bool
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "required": self.required,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SharpnessReport:
    """Per-claim audit of one extremal instance.

    Required checks are identities that hold at every valid t; their failure
    raises ConstructionError since it can only mean a generator bug.
    Non-required checks record which of the three criticality conditions the
    instance happens to satisfy at this particular t.
    """

    kind: str
    a: int
    b: int
    t: int
    n: int
    checks: tuple[SharpnessCheck, ...]
    criticality_skipped: bool = False

    @property
    def required_ok(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "a": self.a,
            "b": self.b,
            "t": self.t,
            "n": self.n,
            "criticality_skipped": self.criticality_skipped,
            "checks": [c.to_dict() for c in self.checks],
        }


def verify_sharpness(kind: str, params: FactorParams, t: int) -> SharpnessReport:
    """Regenerate an extremal instance and audit every claim made about it.

    The not-critical check runs only when the criticality check accepts the
    order; otherwise the report is marked criticality_skipped.
    """
    if kind == KIND_NEIGHBORHOOD:
        report = _verify_neighborhood_extremal(params, t)
    elif kind == KIND_DEGREE:
        report = _verify_degree_extremal(params, t)
    else:
        raise InputError(f"unknown construction kind {kind!r}")
    if not report.required_ok:
        failed = [c.name for c in report.checks if c.required and not c.passed]
        raise ConstructionError(
            f"{kind} (a={params.a}, b={params.b}, t={t}) failed required "
            f"checks: {', '.join(failed)}"
        )
    return report


def _check(name: str, passed: bool, required: bool, detail: str) -> SharpnessCheck:
    return SharpnessCheck(name=name, passed=bool(passed), required=required, detail=detail)


def _not_critical_check(g: Graph, params: FactorParams) -> SharpnessCheck | None:
    """The not-critical check, or None when g is above the criticality cap."""
    try:
        crit = is_fractional_id_factor_critical(g, params)
    except ResourceLimitError:
        return None
    return _check(
        "not-critical",
        crit.verdict is False,
        True,
        f"failing set {sorted(crit.failing_set or ())}",
    )


def _verify_neighborhood_extremal(params: FactorParams, t: int) -> SharpnessReport:
    a, b = params.a, params.b
    g, labels = neighborhood_extremal_graph(params, t)
    n = g.n
    cond = check_criticality_conditions(g, params)
    checks: list[SharpnessCheck] = []

    checks.append(
        _check("order-formula", n == (a + 2 * b) * t + 1, True, f"n = {n}")
    )

    bt1_part = labels.part_map["bt1K1"]
    want_union = (a + b) * t
    pair_ok = (
        cond.worst_union_size == want_union
        and cond.worst_pair is not None
        and set(cond.worst_pair) <= bt1_part
    )
    checks.append(
        _check(
            "worst-pair-union",
            pair_ok,
            True,
            f"min union {cond.worst_union_size} at {cond.worst_pair}, expected {want_union} inside the largest part",
        )
    )

    u_size = cond.worst_union_size or 0
    window = (
        (a + 2 * b) * u_size < (a + b) * n < (a + 2 * b) * (u_size + 1)
    )
    checks.append(
        _check(
            "neighborhood-margin-window",
            window,
            True,
            f"(a+2b)*{u_size} < (a+b)*{n} < (a+2b)*{u_size + 1}",
        )
    )

    sub, remap = g.delete_vertices(labels.part_map["btK1"])
    s_in_sub = frozenset(remap[v] for v in labels.part_map["atK1"])
    t_expected = frozenset(remap[v] for v in bt1_part)
    t_got, delta = delta_st(sub, params, s_in_sub)
    checks.append(
        _check(
            "designated-deletion-delta",
            delta == -a and t_got == t_expected,
            True,
            f"delta = {delta}, expected {-a}",
        )
    )

    infeasible = isinstance(find_fractional_factor(sub, params), Infeasible)
    checks.append(
        _check("designated-deletion-infeasible", infeasible, True, "flow solver verdict")
    )

    checks.append(
        _check("order-condition", cond.order_ok, False, f"margin {cond.order_margin}")
    )
    checks.append(
        _check(
            "degree-condition",
            cond.min_degree_ok,
            False,
            f"margin {cond.min_degree_margin}",
        )
    )

    crit_check = _not_critical_check(g, params)
    if crit_check is not None:
        checks.append(crit_check)
    return SharpnessReport(
        kind=KIND_NEIGHBORHOOD,
        a=a,
        b=b,
        t=t,
        n=n,
        checks=tuple(checks),
        criticality_skipped=crit_check is None,
    )


def _verify_degree_extremal(params: FactorParams, t: int) -> SharpnessReport:
    a, b = params.a, params.b
    g, labels = min_degree_extremal_graph(params, t)
    n = g.n
    bt = b * t
    cond = check_criticality_conditions(g, params)
    (u_vertex,) = labels.part_map["u"]
    checks: list[SharpnessCheck] = []

    checks.append(_check("order-formula", n == (a + 2 * b) * t, True, f"n = {n}"))

    want_delta = bt + a - 1
    checks.append(
        _check(
            "min-degree-value",
            g.min_degree() == want_delta and g.degree(u_vertex) == want_delta,
            True,
            f"min degree {g.min_degree()}, expected {want_delta} at the extra vertex",
        )
    )

    checks.append(
        _check(
            "degree-one-below-bound",
            cond.min_degree_margin == -(a + 2 * b),
            True,
            f"scaled margin {cond.min_degree_margin}, expected {-(a + 2 * b)}",
        )
    )

    checks.append(
        _check(
            "neighborhood-condition-holds",
            cond.neighborhood_ok,
            True,
            f"margin {cond.neighborhood_margin}",
        )
    )

    sub, remap = g.delete_vertices(labels.part_map["btK1"])
    u_in_sub = remap[u_vertex]
    checks.append(
        _check(
            "designated-deletion-degree",
            sub.degree(u_in_sub) == a - 1 and sub.min_degree() == a - 1,
            True,
            f"stranded degree {sub.degree(u_in_sub)}, expected {a - 1}",
        )
    )

    infeasible = isinstance(find_fractional_factor(sub, params), Infeasible)
    checks.append(
        _check("designated-deletion-infeasible", infeasible, True, "flow solver verdict")
    )

    checks.append(
        _check("order-condition", cond.order_ok, False, f"margin {cond.order_margin}")
    )

    crit_check = _not_critical_check(g, params)
    if crit_check is not None:
        checks.append(crit_check)
    return SharpnessReport(
        kind=KIND_DEGREE,
        a=a,
        b=b,
        t=t,
        n=n,
        checks=tuple(checks),
        criticality_skipped=crit_check is None,
    )
