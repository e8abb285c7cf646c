"""Deciding and constructing fractional [a,b]-factors, exactly.

A fractional [a,b]-factor of a graph G is an edge weighting h: E -> [0, 1]
whose weight sum at every vertex lies in [a, b]. Existence is characterized
by a degree-style test: G has one iff

    b|S| + d_{G-S}(T) - a|T| >= 0   for every vertex subset S,

where T is the set of vertices outside S whose degree in G - S is at most a.
A subset S breaking the inequality is a compact non-existence certificate.

Two independent deciders live here. The subset scan applies the test
verbatim (exponential, capped). The constructive solver translates the
problem to a feasible-flow instance on the bipartite double cover of G and
is polynomial at any order; an integral flow folds back to a half-integral
factor, so its witnesses only ever use the values 0, 1/2 and 1.

All arithmetic is on exact integers and fractions. No floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Mapping, Union

from .errors import InputError, ResourceLimitError
from .graphs import Edge, Graph, content_lines
from .maxflow import feasible_flow

DEFAULT_BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class FactorParams:
    """The degree window [a, b], with 1 <= a <= b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not isinstance(self.a, int) or not isinstance(self.b, int):
            raise InputError("factor parameters must be integers")
        if not 1 <= self.a <= self.b:
            raise InputError(f"need 1 <= a <= b, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class ViolationCertificate:
    """A subset pair (S, T) witnessing that no fractional [a,b]-factor exists."""

    s: frozenset[int]
    t: frozenset[int]
    delta: int

    def __post_init__(self) -> None:
        if self.delta > -1:
            raise InputError("a violation certificate needs delta <= -1")

    def to_dict(self) -> dict:
        return {"s": sorted(self.s), "t": sorted(self.t), "delta": self.delta}


@dataclass(frozen=True)
class Infeasible:
    """Negative solver verdict, with a certificate when one was extracted."""

    certificate: ViolationCertificate | None = None

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True, eq=True)
class FractionalAssignment:
    """Edge weights of a fractional factor, keyed by (u, v) with u < v.

    Every edge of the underlying graph must be keyed explicitly, zeros
    included; values are exact fractions in [0, 1].
    """

    values: Mapping[Edge, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        norm: dict[Edge, Fraction] = {}
        for key, val in self.values.items():
            u, v = key
            if u >= v:
                raise InputError(f"assignment key ({u}, {v}) must satisfy u < v")
            f = Fraction(val)
            if not 0 <= f <= 1:
                raise InputError(f"edge value {f} for ({u}, {v}) outside [0, 1]")
            norm[(u, v)] = f
        object.__setattr__(self, "values", norm)

    def __hash__(self) -> int:
        return hash(frozenset(self.values.items()))

    def support(self) -> list[Edge]:
        return sorted(e for e, val in self.values.items() if val > 0)

    def is_half_integral(self) -> bool:
        return all(val.denominator in (1, 2) for val in self.values.values())

    def vertex_sums(self, g: Graph) -> dict[int, Fraction]:
        sums = {v: Fraction(0) for v in range(g.n)}
        for (u, v), val in self.values.items():
            sums[u] += val
            sums[v] += val
        return sums


@dataclass(frozen=True)
class AssignmentCheck:
    """Result of validating an assignment against a graph and parameters."""

    ok: bool
    vertex_sums: dict[int, Fraction]


def delta_st(g: Graph, params: FactorParams, s: object) -> tuple[frozenset[int], int]:
    """Evaluate the existence test at S: returns (T, b|S| + d_{G-S}(T) - a|T|)."""
    s_set = g.vertex_subset(s)
    t = []
    degree_sum = 0
    for x in range(g.n):
        if x in s_set:
            continue
        dx = len(g.neighbors(x) - s_set)
        if dx <= params.a:
            t.append(x)
            degree_sum += dx
    delta = params.b * len(s_set) + degree_sum - params.a * len(t)
    return frozenset(t), delta


def has_fractional_factor_bruteforce(
    g: Graph, params: FactorParams
) -> Union[Literal[True], ViolationCertificate]:
    """Scan every vertex subset; True if all pass, else the worst certificate.

    The reported S has the most negative delta, with ties broken by smaller
    |S| and then lexicographically, so the output is deterministic. Raises
    ResourceLimitError above the cap; find_fractional_factor handles any
    order in polynomial time.
    """
    if g.n > DEFAULT_BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(
            f"subset scan over {g.n} vertices exceeds the cap of {DEFAULT_BRUTE_FORCE_LIMIT}; "
            "use find_fractional_factor instead"
        )
    n = g.n
    a, b = params.a, params.b
    masks = g.adjacency_masks()
    full = (1 << n) - 1

    best_key: tuple[int, int] | None = None
    best_verts: tuple[int, ...] | None = None
    for smask in range(1 << n):
        comp = full & ~smask
        t_size = 0
        degree_sum = 0
        rem = comp
        while rem:
            low = rem & -rem
            x = low.bit_length() - 1
            rem ^= low
            dx = (masks[x] & comp).bit_count()
            if dx <= a:
                t_size += 1
                degree_sum += dx
        delta = b * smask.bit_count() + degree_sum - a * t_size
        if delta < 0:
            key = (delta, smask.bit_count())
            if best_key is None or key < best_key:
                best_key = key
                best_verts = _mask_to_tuple(smask)
            elif key == best_key:
                verts = _mask_to_tuple(smask)
                if verts < best_verts:  # type: ignore[operator]
                    best_verts = verts
    if best_key is None:
        return True
    s_set = frozenset(best_verts or ())
    t_set, delta = delta_st(g, params, s_set)
    return ViolationCertificate(s=s_set, t=t_set, delta=delta)


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def find_fractional_factor(
    g: Graph, params: FactorParams
) -> Union[FractionalAssignment, Infeasible]:
    """Decide existence constructively via flow on the bipartite double cover.

    Each vertex v splits into v+ and v-; each edge uv becomes unit arcs
    u+ -> v- and v+ -> u-, and every v+ receives (and every v- emits)
    between a and b units. An integral feasible flow x folds back to
    h(uv) = (x(u+v-) + x(v+u-)) / 2, which lands in {0, 1/2, 1}.

    On infeasible inputs within the subset-scan cap, a certificate is
    attached to the verdict; beyond the cap the verdict comes bare.
    """
    n = g.n
    if n == 0:
        return FractionalAssignment({})
    a, b = params.a, params.b

    source, sink = 0, 1
    plus = [2 + v for v in range(n)]
    minus = [2 + n + v for v in range(n)]

    arcs: list[tuple[int, int, int, int]] = []
    for v in range(n):
        arcs.append((source, plus[v], a, b))
        arcs.append((minus[v], sink, a, b))
    edge_arcs: list[tuple[Edge, int, int]] = []
    edges = g.edges()
    for u, v in edges:
        i = len(arcs)
        arcs.append((plus[u], minus[v], 0, 1))
        arcs.append((plus[v], minus[u], 0, 1))
        edge_arcs.append(((u, v), i, i + 1))

    flows = feasible_flow(2 * n + 2, arcs, source, sink)
    if flows is None:
        certificate = None
        if n <= DEFAULT_BRUTE_FORCE_LIMIT:
            scan = has_fractional_factor_bruteforce(g, params)
            if scan is True:
                raise RuntimeError(
                    "flow solver and subset scan disagree on feasibility; "
                    "this is a bug"
                )
            certificate = scan
        return Infeasible(certificate=certificate)

    values = {
        e: Fraction(flows[i] + flows[j], 2) for e, i, j in edge_arcs
    }
    return FractionalAssignment(values)


def validate_assignment(
    g: Graph, params: FactorParams, assignment: FractionalAssignment
) -> AssignmentCheck:
    """Check an assignment keys exactly E(g) and every vertex sum is in [a, b]."""
    keys = set(assignment.values.keys())
    edges = set(g.edges())
    if keys != edges:
        missing = sorted(edges - keys)
        extra = sorted(keys - edges)
        parts = []
        if missing:
            parts.append(f"missing edges {missing[:5]}")
        if extra:
            parts.append(f"unknown edges {extra[:5]}")
        raise InputError("assignment does not key the edge set exactly: " + ", ".join(parts))
    sums = assignment.vertex_sums(g)
    ok = all(params.a <= total <= params.b for total in sums.values())
    return AssignmentCheck(ok=ok, vertex_sums=sums)


# -- assignment text format ---------------------------------------------------
#
# One line per edge: "u v p/q" with the fraction in lowest terms. Comments
# and blank lines follow the edge-list conventions.


def format_assignment(assignment: FractionalAssignment) -> str:
    lines = [
        f"{u} {v} {val.numerator}/{val.denominator}"
        for (u, v), val in sorted(assignment.values.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_assignment(text: str) -> FractionalAssignment:
    values: dict[Edge, Fraction] = {}
    problems: list[str] = []
    for lineno, tok in content_lines(text):
        if len(tok) != 3:
            problems.append(f"line {lineno}: expected 'u v p/q'")
            continue
        try:
            u, v = int(tok[0]), int(tok[1])
            val = Fraction(tok[2])
        except (ValueError, ZeroDivisionError):
            problems.append(f"line {lineno}: malformed edge value line")
            continue
        if (u, v) in values:
            problems.append(f"line {lineno}: duplicate edge ({u}, {v})")
            continue
        values[(u, v)] = val
    if problems:
        raise InputError("\n".join(problems))
    return FractionalAssignment(values)
