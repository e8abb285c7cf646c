"""Deciding and constructing fractional [a,b]-factors, exactly.

A fractional [a,b]-factor of a graph G is an edge weighting h: E -> [0, 1]
whose weight sum at every vertex lies in [a, b]. Existence is characterized
by a degree-style test: G has one iff

    b|S| + d_{G-S}(T) - a|T| >= 0   for every vertex subset S,

where T is the set of vertices outside S whose degree in G - S is at most a.
A subset S breaking the inequality is a compact non-existence certificate.

Three independent procedures live here. The subset scan (exponential,
capped) yields certificates: it walks the sets T in which no member has
more than a neighbours, and reads off each one the S that does worst with
it. The b-matching search of has_fractional_factor decides existence in
polynomial time at any order. The constructive solver builds a witness from
a feasible flow on the bipartite double cover of G; an integral flow folds
back to a half-integral factor, so its witnesses only ever use the values
0, 1/2 and 1.

All arithmetic is on exact integers and fractions. No floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Literal, Mapping, Union

from .errors import InputError, ResourceLimitError
from .graphs import Edge, Graph, mask_vertices
from .maxflow import Arc, feasible_flow

DEFAULT_BRUTE_FORCE_LIMIT = 20

HALF_STEPS = (Fraction(0), Fraction(1, 2), Fraction(1))  # a folded witness value, by 2h(uv)


@dataclass(frozen=True)
class FactorParams:
    """The degree window [a, b], with 1 <= a <= b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if type(self.a) is not int or type(self.b) is not int:  # a bool is refused too
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
    included; values are exact fractions in [0, 1], given as int or Fraction.
    """

    values: Mapping[Edge, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        norm: dict[Edge, Fraction] = {}
        for key, val in self.values.items():
            pair = type(key) is tuple and len(key) == 2
            if not (pair and type(key[0]) is int and type(key[1]) is int):  # a bool is refused too
                raise InputError(f"assignment key {key!r} is not a pair of integer vertex ids")
            u, v = key
            if u >= v:
                raise InputError(f"assignment key ({u}, {v}) must satisfy u < v")
            if type(val) is Fraction:
                f = val
            elif type(val) is int:
                f = Fraction(val)
            else:
                raise InputError(f"edge value {val!r} for ({u}, {v}) is not an int or a Fraction")
            if not 0 <= f.numerator <= f.denominator:  # the denominator is positive
                raise InputError(f"edge value {f} for ({u}, {v}) outside [0, 1]")
            norm[(u, v)] = f
        object.__setattr__(self, "values", norm)


@dataclass(frozen=True)
class AssignmentCheck:
    """Result of validating an assignment against a graph and parameters."""

    ok: bool


def delta_st(g: Graph, params: FactorParams, s: object) -> tuple[frozenset[int], int]:
    """Evaluate the existence test at S: returns (T, b|S| + d_{G-S}(T) - a|T|)."""
    s_set = g.vertex_subset(s)
    s_mask = sum(1 << v for v in s_set)
    masks = g.adjacency_masks()
    t = []
    degree_sum = 0
    for x in range(g.n):
        if (s_mask >> x) & 1:
            continue
        dx = (masks[x] & ~s_mask).bit_count()
        if dx <= params.a:
            t.append(x)
            degree_sum += dx
    delta = params.b * len(s_set) + degree_sum - params.a * len(t)
    return frozenset(t), delta


def has_fractional_factor_bruteforce(
    g: Graph, params: FactorParams
) -> Union[Literal[True], ViolationCertificate]:
    """Test every vertex subset; True if all pass, else the worst certificate.

    The reported S has the most negative delta and, among those, the
    smallest |S|. That S is unique, so no other tie-break is needed. On
    augmenting_search's network every s-t cut is {s} + T+ + S-, of capacity
    a*n - a|T| + b|S| + the sum over u in T of |N(u) - S|:
    - for disjoint S and T it is a*n + b|S| + d_{G-S}(T) - a|T|, at least
      a*n + delta(S), with equality at delta's own T;
    - taking W = S & T out of both sides changes it by (a - b)|W| + the sum
      over v in W of (|N(v) & (T - W)| - |N(v) - S|) <= 0, so S minimises
      delta exactly when {s} + T+ + S- is a minimum cut, T being delta's T;
    - minimum cuts are closed under intersection (J.-C. Picard and
      M. Queyranne, Math. Programming Study 13, 1980), and two such cuts
      meet in one with disjoint sides, so S1 & S2 minimises delta whenever
      S1 and S2 do, and a second smallest minimiser would give a smaller one.

    The scan walks the sets T and reads an S off each, not the sets S. Call
    T a-sparse when each member has at most a neighbours inside T.
    - For disjoint S and T let f(S, T) = b|S| + the sum over x in T of
      (|N(x) - S| - a). It equals the sum over x in T of (deg x - a) plus
      the sum over y in S of (b - |N(y) & T|). delta(S) is the least f(S, T)
      over T in V - S, reached at delta's own T.
    - Fix T. The smallest S minimising f(., T) is S*(T), the y outside T
      with |N(y) & T| > b; every minimiser contains it. Let g(T) be
      f(S*(T), T). Then g(T) >= delta(S*(T)).
    - Let S be the worst set and T0 its own T. Each x in T0 has at most a
      neighbours outside S, and its neighbours in T0 are among them, so T0
      is a-sparse. g(T0) <= f(S, T0) = delta(S) <= delta(S*(T0)) <= g(T0),
      and S*(T0) is inside S, so by uniqueness S*(T0) = S.
    - So the least (g(T), |S*(T)|) over the a-sparse T is (delta(S), |S|),
      and any T attaining it has S*(T) = S. Only keys below (0, 0) count;
      the empty T gives exactly (0, 0).
    The walk keeps an explicit stack of (T, the lowest vertex T may still
    gain, the sum over T of (deg x - a)). y joins T only while y, and each
    of y's neighbours in T, has at most a neighbours in T + y; a neighbour
    of degree at most a never has more, so only the others are counted.
    Being a-sparse is hereditary, so each a-sparse T is reached exactly
    once, from T less its highest vertex. Each T is evaluated, and its
    children pushed, in two loops over V - T. A vertex with more than b
    neighbours in T has degree above b, so no vertex of degree at most b
    ever joins S*(T); and while |T| <= b no vertex has more than b
    neighbours in T at all. So the first loop runs only while |T| > b and
    some degree exceeds b, and tests only the vertices of degree above b
    outside T that lie below T's lowest candidate. The second loop runs
    over the candidates, from that vertex up: each is tested for S*(T), and
    otherwise as a child of T. At most 2^n sets T are visited, each with at
    most n vertices tested.

    Raises ResourceLimitError above the cap; find_fractional_factor handles
    any order in polynomial time.
    """
    if g.n > DEFAULT_BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(
            f"subset scan over {g.n} vertices exceeds the cap of {DEFAULT_BRUTE_FORCE_LIMIT}; "
            "use find_fractional_factor instead"
        )
    n = g.n
    a, b = params.a, params.b
    masks = g.adjacency_masks()
    degrees = [mask.bit_count() for mask in masks]
    above_a = sum(1 << y for y, d in enumerate(degrees) if d > a)
    above_b = sum(1 << y for y, d in enumerate(degrees) if d > b)
    # S*(T) is empty while |T| <= b, and for every T when no degree exceeds b
    s_floor = b if above_b else n

    best_key: tuple[int, int] = (0, 0)
    best_mask = -1
    stack = [(0, 0, 0)]  # (T, the lowest vertex T may still gain, the sum over T of deg - a)
    while stack:
        tmask, low, base = stack.pop()
        gain, smask = base, 0
        if tmask.bit_count() > s_floor:  # the members of S*(T) below low
            rest = above_b & ~tmask & ((1 << low) - 1)
            while rest:
                bit = rest & -rest
                rest ^= bit
                c = (masks[bit.bit_length() - 1] & tmask).bit_count()
                if c > b:
                    gain += b - c
                    smask |= bit
        for y in range(low, n):
            inner = masks[y] & tmask
            c = inner.bit_count()
            if c > b:
                gain += b - c
                smask |= 1 << y
            elif c <= a:
                inner &= above_a
                while inner:  # y is barred by a neighbour that already has a neighbours in T
                    member = inner & -inner
                    if (masks[member.bit_length() - 1] & tmask).bit_count() == a:
                        break
                    inner ^= member
                else:
                    stack.append((tmask | 1 << y, y + 1, base + degrees[y] - a))
        if gain < 0:
            key = (gain, smask.bit_count())
            if key < best_key:
                best_key = key
                best_mask = smask
    if best_mask < 0:
        return True
    s_set = frozenset(mask_vertices(best_mask))
    t_set, delta = delta_st(g, params, s_set)
    return ViolationCertificate(s=s_set, t=t_set, delta=delta)


def augmenting_search(
    adj: tuple[int, ...], b: int
) -> Callable[[Iterable[int], list[int], list[int], int, int], int]:
    """The augmenting-path search of a b-matching on the graph with adjacency masks adj.

    The flow model is the double cover without lower bounds: s -> u+ with
    capacity a, w- -> t with capacity b, and unit arcs u+ -> w- and w+ -> u-
    for each edge uw. G has a fractional [a,b]-factor iff the max-flow is a*n.
    (=>) Scale a factor's weights at each u+ down to a; flow integrality does
    the rest. (<=) The cut {s} + T+ + S- has capacity a(n - |T|) + b|S| +
    d_{G-S}(T), so a saturating flow gives b|S| + d_{G-S}(T) - a|T| >= 0 for
    every S, the test in this module's docstring.

    An integral flow is a b-matching: each left vertex u sends at most a
    units, each to a different neighbour w on the right, and w takes at most
    b. Bit w of used[u] and bit u of owners[w] mark the unit u -> w; bit w of
    full marks a right vertex at load b; alive masks the vertices taking part.
    restore(short, used, owners, full, alive) gives each left vertex listed
    in short one more unit, in order, updating used and owners in place; a
    vertex listed k times gains k units. When the short vertex u has a live
    unused neighbour below b, restore takes the lowest one. Otherwise the
    unit comes from a breadth-first search over alternating paths, one left
    layer at a time, on masks. Layer 0 is u. A layer reaches the live right
    vertices, not reached before, that one of its members sends no unit to;
    the next layer is the owners of those that are full, less the left
    vertices seen before. Only each layer's (left mask, reached right mask)
    is kept. The goals are the live right vertices below b, and the senders
    are the union over goals w of adj[w] & ~owners[w], which by symmetry of
    adjacency holds every left y with w in adj[y] & ~used[y]. Each layer is
    tested against the senders as it is built, and the search stops at the
    first sender it meets. A search fails when a layer adds no new left
    vertex.

    The sender x that stopped the search takes a unit to one of its goals,
    and the path to x is flipped backwards, with no record of parents. Its
    vertex y in layer k + 1 owns some w in what layer k reached: y joined as
    an owner, and the flip has only added to y's units before this step. y
    gives w up, and w goes to a member of adj[w] & ~owners[w] & layer k. That set is not empty, because layer k
    reached w, and neither w's owners nor layer k's units have changed
    since. The flip changes no load but the goal's. restore returns the new
    full mask, or -1 at the first search that fails.

    A failed search decides the instance. Let X be what the residual graph
    reaches from u+ without passing through s. t is not in X, and every arc
    leaving X for a node other than s is saturated. An augmenting path never
    returns to s, so none enters X, and none changes an arc leaving X.
    s -> u+ stays unsaturated in every later flow, so the max-flow is below
    a times the number of live vertices. Conversely, if a flow f* saturates
    every arc out of s, then f* - f, taken in the residual graph of the
    current flow f, uses no arc into s and carries a unit out of u+, which
    it takes to t. So the search from u succeeds whichever paths earlier
    searches flipped: no verdict depends on the path chosen.
    """

    def restore(short: Iterable[int], used: list[int], owners: list[int], full: int, alive: int) -> int:
        for u in short:
            x, free = u, adj[u] & alive & ~used[u] & ~full
            if not free:  # search past u's full neighbours, one left layer at a time
                goal = alive & ~full  # the right vertices below b
                senders = 0  # the left vertices with an unused edge to a goal
                rest = goal
                while rest:
                    low = rest & -rest
                    rest ^= low
                    w = low.bit_length() - 1
                    senders |= adj[w] & ~owners[w]
                layer = seen_left = 1 << u
                reach = seen_right = adj[u] & alive & ~used[u]
                layers = []  # (left layer, the full right vertices it reached first)
                while True:
                    layers.append((layer, reach))
                    layer = 0
                    while reach:
                        low = reach & -reach
                        reach ^= low
                        layer |= owners[low.bit_length() - 1]
                        if layer & senders:  # the rest of the layer is not needed
                            x = ((low := layer & senders) & -low).bit_length() - 1
                            free = adj[x] & ~used[x] & goal
                            break
                    if free:
                        break
                    layer &= ~seen_left
                    if not layer:  # the search ran out without reaching a right vertex below b
                        return -1
                    seen_left |= layer
                    rest = layer
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        y = low.bit_length() - 1
                        reach |= adj[y] & ~used[y]
                    reach &= alive & ~seen_right
                    seen_right |= reach
                y = x
                for layer, reach in reversed(layers):  # y gives up a unit it was reached through
                    w = ((low := used[y] & reach) & -low).bit_length() - 1
                    used[y] ^= 1 << w
                    owners[w] ^= 1 << y
                    y = ((low := adj[w] & ~owners[w] & layer) & -low).bit_length() - 1
                    used[y] |= 1 << w
                    owners[w] |= 1 << y
            w = (free & -free).bit_length() - 1
            owners[w] |= 1 << x
            if owners[w].bit_count() == b:
                full |= 1 << w
            used[x] |= 1 << w
        return full

    return restore


def has_fractional_factor(g: Graph, params: FactorParams) -> bool:
    """Decide existence by saturating a b-matching, a searches per vertex."""
    n = g.n
    restore = augmenting_search(g.adjacency_masks(), params.b)
    rounds = (v for _ in range(min(params.a, n)) for v in range(n))  # n rounds decide as any a >= n (deletion_verdicts)
    return restore(rounds, [0] * n, [0] * n, 0, (1 << n) - 1) >= 0


def find_fractional_factor(
    g: Graph, params: FactorParams
) -> Union[FractionalAssignment, Infeasible]:
    """Decide with has_fractional_factor; build a witness by flow on the double cover.

    Each vertex v splits into v+ and v-; each edge uv becomes unit arcs
    u+ -> v- and v+ -> u-, and every v+ receives (and every v- emits)
    between a and b units. An integral feasible flow x folds back to
    h(uv) = (x(u+v-) + x(v+u-)) / 2, which lands in {0, 1/2, 1}.

    On infeasible inputs within the subset-scan cap, a certificate is
    attached to the verdict; beyond the cap the verdict comes bare.
    """
    n = g.n
    if not has_fractional_factor(g, params):
        certificate = None
        if n <= DEFAULT_BRUTE_FORCE_LIMIT:
            scan = has_fractional_factor_bruteforce(g, params)
            if scan is True:
                raise RuntimeError(
                    "b-matching search and subset scan disagree on feasibility; "
                    "this is a bug"
                )
            certificate = scan
        return Infeasible(certificate=certificate)

    edges = g.edges()
    flows = feasible_flow(*double_cover(n, edges, params))
    if flows is None:
        raise RuntimeError("b-matching search and flow solver disagree; this is a bug")
    unit = flows[2 * n:]
    values = {e: HALF_STEPS[x + y] for e, x, y in zip(edges, unit[::2], unit[1::2])}
    return FractionalAssignment(values)


def double_cover(
    n: int, edges: list[Edge], params: FactorParams
) -> tuple[int, list[Arc], int, int]:
    """feasible_flow's arguments for the flow model of find_fractional_factor.

    Node 0 is the source, 1 the sink, 2 + v is v+ and 2 + n + v is v-. Arcs
    2v (source -> v+) and 2v + 1 (v- -> sink) carry v's [a, b] window; edge k
    gives unit arcs 2n + 2k (u+ -> v-) and 2n + 2k + 1 (v+ -> u-).
    """
    a, b = params.a, params.b
    arcs = [arc for v in range(2, n + 2) for arc in ((0, v, a, b), (n + v, 1, a, b))]
    for u, v in edges:
        arcs += [(2 + u, 2 + n + v, 0, 1), (2 + v, 2 + n + u, 0, 1)]
    return 2 * n + 2, arcs, 0, 1


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
    # each vertex's weight sum, added up on integers over the values' common denominator
    common = lcm(*{val.denominator for val in assignment.values.values()})
    totals = [0] * g.n
    for (u, v), val in assignment.values.items():
        scaled = val.numerator * (common // val.denominator)
        totals[u] += scaled
        totals[v] += scaled
    low, high = params.a * common, params.b * common
    return AssignmentCheck(ok=all(low <= total <= high for total in totals))

