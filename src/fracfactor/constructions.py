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

import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .criticality import first_failing_set
from .conditions import check_criticality_conditions
from .errors import ConstructionError, InputError, ResourceLimitError
from .factor import FactorParams, delta_st, has_fractional_factor
from .graphs import Graph, complete_multipartite_graph, require_order

KIND_NEIGHBORHOOD = "neighborhood-extremal"
KIND_DEGREE = "degree-extremal"
KIND_RANDOM = "random"


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


def _require_scale(t: int) -> None:
    if type(t) is not int or t < 1:  # a bool is refused too
        raise InputError(f"t must be a positive integer, got {t!r}")


def neighborhood_extremal_graph(
    params: FactorParams, t: int
) -> tuple[Graph, ConstructionLabels]:
    """Complete tripartite graph with parts of sizes a*t, b*t and b*t + 1.

    Its order is (a+2b)t + 1, every pair of nonadjacent vertices inside the
    largest part has a neighborhood union of exactly (a+b)t, and deleting
    the middle part leaves a graph with no fractional [a,b]-factor.
    """
    _require_scale(t)
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
    _require_scale(t)
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
    require_order(n)

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


GENERATED_KINDS = {  # extremal kind -> generator, in the order the CLI lists them
    KIND_NEIGHBORHOOD: neighborhood_extremal_graph,
    KIND_DEGREE: min_degree_extremal_graph,
}


def random_graph(n: int, p: Fraction | float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed.

    Pairs are visited in fixed lexicographic order, so the same seed always
    produces the same graph, bit for bit.
    """
    if type(n) is not int or n < 0:  # a bool is refused too
        raise InputError(f"n must be a nonnegative integer, got {n!r}")
    require_order(n)
    if not 0 <= p <= 1:
        raise InputError(f"edge probability must be in [0, 1], got {p}")
    # random() returns k / 2^53 for an integer k, so random() < p holds exactly
    # when k < ceil(p * 2^53), that is when random() < ceil(p * 2^53) / 2^53,
    # a float the division leaves exact: the same graph, with no Fraction per pair.
    cut = math.ceil(p * 2**53) / 2**53
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < cut
    ]
    return Graph(n, edges)


def parse_probability(token: str) -> Fraction:
    """Read an edge probability such as 1/2 or 25e-2 exactly; |exponent| <= 100."""
    _, e, exponent = token.lower().rpartition("e")
    try:
        if not e or abs(int(exponent)) <= 100:
            return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"edge probability {token!r} is not a fraction") from exc
    raise InputError(f"edge probability {token!r} has an exponent beyond +-100")


@dataclass(frozen=True)
class SharpnessCheck:
    name: str
    passed: bool
    required: bool
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


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
        return asdict(self) | {"checks": [c.to_dict() for c in self.checks]}


def verify_sharpness(kind: str, params: FactorParams, t: int) -> SharpnessReport:
    """Regenerate an extremal instance and audit every claim made about it.

    Both families share the audit: the order formula, the family's own
    claims, infeasibility after deleting the btK1 part, the conditions the
    instance happens to meet, and last the not-critical check. When that
    check trips CRITICALITY_BUDGET, the report is marked criticality_skipped.
    """
    a, b = params.a, params.b
    if kind not in GENERATED_KINDS:
        raise InputError(f"unknown construction kind {kind!r}")
    g, labels = GENERATED_KINDS[kind](params, t)
    n = g.n
    cond = check_criticality_conditions(g, params)
    sub, remap = g.delete_vertices(labels.part_map["btK1"])
    want_n = (a + 2 * b) * t + (1 if kind == KIND_NEIGHBORHOOD else 0)
    checks = [_check("order-formula", n == want_n, True, f"n = {n}")]
    if kind == KIND_NEIGHBORHOOD:
        bt1_part = labels.part_map["bt1K1"]
        want_union = (a + b) * t
        u_size = cond.worst_union_size or 0
        s_in_sub = frozenset(remap[v] for v in labels.part_map["atK1"])
        t_got, delta = delta_st(sub, params, s_in_sub)
        checks += [
            _check(
                "worst-pair-union",
                cond.worst_union_size == want_union
                and cond.worst_pair is not None
                and set(cond.worst_pair) <= bt1_part,
                True,
                f"min union {cond.worst_union_size} at {cond.worst_pair}, expected {want_union} inside the largest part",
            ),
            _check(
                "neighborhood-margin-window",
                -(a + 2 * b) < cond.neighborhood_margin < 0,
                True,
                f"(a+2b)*{u_size} < (a+b)*{n} < (a+2b)*{u_size + 1}",
            ),
            _check(
                "designated-deletion-delta",
                delta == -a and t_got == frozenset(remap[v] for v in bt1_part),
                True,
                f"delta = {delta}, expected {-a}",
            ),
        ]
    else:
        (u_vertex,) = labels.part_map["u"]
        want_delta = b * t + a - 1
        stranded = sub.degree(remap[u_vertex])
        checks += [
            _check(
                "min-degree-value",
                cond.min_degree == want_delta and g.degree(u_vertex) == want_delta,
                True,
                f"min degree {cond.min_degree}, expected {want_delta} at the extra vertex",
            ),
            _check(
                "degree-one-below-bound",
                cond.min_degree_margin == -(a + 2 * b),
                True,
                f"scaled margin {cond.min_degree_margin}, expected {-(a + 2 * b)}",
            ),
            _check(
                "neighborhood-condition-holds",
                cond.neighborhood_ok,
                True,
                f"margin {cond.neighborhood_margin}",
            ),
            _check(
                "designated-deletion-degree",
                stranded == a - 1 and sub.min_degree() == a - 1,
                True,
                f"stranded degree {stranded}, expected {a - 1}",
            ),
        ]

    infeasible = not has_fractional_factor(sub, params)
    checks += [
        _check("designated-deletion-infeasible", infeasible, True, "b-matching search verdict"),
        _check("order-condition", cond.order_ok, False, f"margin {cond.order_margin}"),
    ]
    if kind == KIND_NEIGHBORHOOD:
        checks.append(
            _check("degree-condition", cond.min_degree_ok, False, f"margin {cond.min_degree_margin}")
        )

    try:
        failing, _ = first_failing_set(g, params)
    except ResourceLimitError:
        skipped = True
    else:
        skipped = False
        checks.append(
            _check("not-critical", failing is not None, True, f"failing set {sorted(failing or ())}")
        )

    failed = [c.name for c in checks if c.required and not c.passed]
    if failed:
        raise ConstructionError(
            f"{kind} (a={a}, b={b}, t={t}) failed required checks: {', '.join(failed)}"
        )
    return SharpnessReport(
        kind=kind, a=a, b=b, t=t, n=n, checks=tuple(checks), criticality_skipped=skipped
    )


def _check(name: str, passed: bool, required: bool, detail: str) -> SharpnessCheck:
    return SharpnessCheck(name=name, passed=bool(passed), required=required, detail=detail)
