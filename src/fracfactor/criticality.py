"""Independent-set-deletion criticality for fractional [a,b]-factors.

A graph G is fractional ID-[a,b]-factor-critical when G - I has a fractional
[a,b]-factor for every independent set I, the empty set included. Checking
only maximal independent sets would be unsound: deleting a smaller set
leaves more vertices behind and can fail where larger deletions succeed, so
the check below covers every independent set, smallest first. It decides
one set per orbit under twin swaps, which give isomorphic deletions, and
counts the sets apart from deciding them. Before any set is decided, a lemma
on delta(G), alpha(G), the least neighbourhood union and the least degrees a
deficient vertex set can have may prove the whole check (proves_critical),
and then only the count runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

from .errors import ResourceLimitError
from .factor import (
    FactorParams,
    ViolationCertificate,
    augmenting_search,
    find_fractional_factor,
)
from .graphs import Graph, mask_vertices

# Restore calls deletion_verdicts may make (each decides a canonical set or, for a < b,
# tries a relaxed solve), and masks the count may memoize, per check; no graph of order <= 20
# reaches either. A set took 2.1-10.3 us on G(60..1000, p) under (1, 2) and (3, 3) (CPython 3.11,
# 2-core Xeon), so a trip of the first takes about 2-11 s. A walk of _sets_of_size (one size
# level of enumerate_independent_sets, or proves_critical's question, which then abstains)
# raises past as many expanded prefixes. proves_critical clears the conditions' boundary graphs
# from order 100 to 300 in at most 10 ms, under a = b as well, so there the memo is the wall:
# near order 170-180 for a < b and between 200 and 220 for a = b, after about 6-11 s.
CRITICALITY_BUDGET = 2**20


def enumerate_independent_sets(g: Graph) -> Iterator[frozenset[int]]:
    """Yield every independent set of g, by increasing size, then lexicographic.

    Each size is one walk of _sets_of_size. Independence is hereditary, so
    once some size has no independent set no larger size can either;
    enumeration stops at the first empty level. Raises ResourceLimitError
    once one level expands more than CRITICALITY_BUDGET prefixes.
    """
    masks = g.adjacency_masks()
    yield frozenset()
    for size in range(1, g.n + 1):
        level = _sets_of_size(masks, size)
        first = next(level, None)
        if first is None:
            break
        yield first
        yield from level


def _sets_of_size(adj: tuple[int, ...], size: int) -> Iterator[frozenset[int]]:
    """Yield the independent sets of size vertices (size >= 1) in lexicographic order.

    adj holds the graph's adjacency masks. The walk is one explicit stack.
    An entry is a prefix and its free mask: the vertices above the prefix's
    maximum that neighbour none of its members. Expanding a prefix pushes,
    for each free vertex v, the prefix plus v with the free vertices above v
    outside v's neighbourhood, but only while that mask still holds as many
    vertices as the size still needs (a popcount test), so no prefix short
    of free vertices is expanded; a prefix one short of the size yields its
    sets straight off its free mask. Children are pushed in reverse, so the
    sets come out in lexicographic order. The stack holds the children of at
    most one expansion per level, at most n entries per level: O(n^2)
    entries in all. Each expanded prefix is a distinct independent set; one
    more than CRITICALITY_BUDGET of them raises ResourceLimitError.
    """
    stack = [((), (1 << len(adj)) - 1)]
    expanded = 0
    while stack:
        prefix, free = stack.pop()
        need = size - len(prefix)
        if need == 1:
            while free:
                low = free & -free
                free ^= low
                yield frozenset((*prefix, low.bit_length() - 1))
            continue
        expanded += 1
        if expanded > CRITICALITY_BUDGET:
            raise ResourceLimitError(
                f"independent sets of size {size} on {len(adj)} vertices: "
                f"over {CRITICALITY_BUDGET} prefixes expanded"
            )
        children = []
        while free.bit_count() >= need:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            child = free & ~adj[v]
            if child.bit_count() >= need - 1:
                children.append(((*prefix, v), child))
        stack += reversed(children)


def maximal_independent_sets(g: Graph) -> Iterator[frozenset[int]]:
    """Independent sets that cover every vertex with their neighbours, in the same global order."""
    closed = [m | 1 << v for v, m in enumerate(g.adjacency_masks())]
    everything = (1 << g.n) - 1
    for ind in enumerate_independent_sets(g):
        covered = 0
        for v in ind:
            covered |= closed[v]
        if covered == everything:
            yield ind


@dataclass(frozen=True)
class CriticalityReport:
    """Outcome of the criticality check.

    On failure, failing_set holds the first bad independent set I in
    enumeration order. The certificate is reported in G's labels, by
    certificate_in_original_labels and as to_dict's "certificate" (null
    when G - I is above the subset-scan cap). failing_certificate (in the
    labels of G - I re-indexed) and vertex_map (G's labels to those) stay as
    fields because bench/workloads.py replays the one against the other.
    """

    verdict: bool
    independent_sets_checked: int
    failing_set: frozenset[int] | None = None
    failing_certificate: ViolationCertificate | None = None
    vertex_map: dict[int, int] | None = None

    def certificate_in_original_labels(self) -> ViolationCertificate | None:
        cert = self.failing_certificate
        if cert is None or self.vertex_map is None:
            return None
        back = {new: old for old, new in self.vertex_map.items()}
        return ViolationCertificate(
            frozenset(back[v] for v in cert.s), frozenset(back[v] for v in cert.t), cert.delta
        )

    def to_dict(self) -> dict:
        out: dict = {
            "verdict": self.verdict,
            "independent_sets_checked": self.independent_sets_checked,
        }
        if not self.verdict:
            cert = self.certificate_in_original_labels()
            out["failing_set"] = sorted(self.failing_set or ())
            out["certificate"] = cert.to_dict() if cert else None
        return out


def deletion_verdicts(g: Graph, params: FactorParams) -> Iterator[tuple[int, bool]]:
    """Yield (I, whether G - I has a fractional [a,b]-factor) over a DFS of canonical I.

    I is a vertex bitmask. Each G - I is the b-matching of
    factor.augmenting_search with I's vertices masked out of alive: G - I
    has a fractional [a,b]-factor iff every vertex outside I sends a units,
    and a failed search decides the set infeasible (the proofs are in that
    function's docstring).

    Only canonical sets are decided: those meeting each twin class K (see
    Graph.twin_classes) in its |I & K| lowest members. That loses nothing:
    - swapping twins u and v fixes every other vertex's adjacency to both,
      and the edge uv if there is one, so it is an automorphism, and
      G - I is isomorphic to G - I' for every I' in I's orbit under twin
      swaps, the sets meeting each class K in |I & K| members;
    - the canonical set C of an orbit is its lex-least: per class, C's
      members are the lowest, so C has at least as many members as any D of
      the orbit below each vertex, its i-th member is at most D's, and
      C <= D. The first failing set in (size, lex) order is canonical;
    - removing the maximum of a canonical set leaves a canonical set (the
      maximum is its class's highest member in the set), so every canonical
      set is reached through canonical parents.
    A child is its parent plus one vertex v above the parent's maximum,
    where v's next-lower twin, if any, is already in I. Each node carries
    the mask of such v outside its neighbourhood. The root's mask holds each
    class's lowest member; a child's drops v's neighbours and gains v's
    next-higher twin, unless that is a true twin, which neighbours v.

    Each node I comes with a b-matching of G - I in which the senders it
    lists are each one unit short: at the root, the empty b-matching with
    every vertex listed a times; at a child, its parent's saturated
    b-matching less v's units in and out, listing each sender into v (at
    most b). One restore call saturates it or decides I infeasible. DFS
    preorder is lexicographic among sets of one size, so once a set of size
    k fails, no later set of size k or more is decided, and no failing set
    is extended: the last failing set yielded is the first in (size, lex)
    order.

    For a < b a relaxed solve comes first. Let A be every vertex I's subtree
    can still add: its allowed mask plus each member's higher false twins
    (true twins neighbour each other, so never join one set). Lemma: if the
    b-matching in which every vertex outside I sends a units, and only the
    vertices outside I and A receive, saturates, then G - (I + J) has a
    fractional [a,b]-factor for every J inside A, J empty included. Proof:
    drop J's units out; every vertex outside I + J still sends a units, each
    to a vertex outside I + A, which lies outside I + J, and loads only
    fall. So I is yielded feasible and its subtree, all of whose sets are
    I + J, is skipped. The solve drops every unit sent into A (A's units to
    A included) from a copy of the node's b-matching and restores the listed
    senders and those left short, with receivers alive - A and full mask
    full - A. Its a|V - I| units fit the receivers' b(|V - I| - |A|) slots
    only when b|A| <= (b - a)|V - I|, so it is tried only then, and only
    with |A| >= 2, where it can stand for more than one set; at a = b,
    never. A skipped subtree holds no failing set, so the first failure and
    every yielded verdict are as without it. Each restore call counts toward
    CRITICALITY_BUDGET; one more raises ResourceLimitError.
    """
    n = g.n
    b, spare = params.b, params.b - params.a
    adj = g.adjacency_masks()
    restore = augmenting_search(adj, b)
    classes = g.twin_classes()
    above = [k & -(2 << v) for v, k in enumerate(classes)]  # each vertex's higher twins
    next_twin = [m & -m for m in above]
    addable = [m & ~adj[v] for v, m in enumerate(above)]  # higher false twins only
    smallest_failure = n + 1
    spent = 0  # restore calls

    def solve(short: list[int], used: list[int], owners: list[int], full: int, alive: int) -> int:
        nonlocal spent
        spent += 1
        if spent > CRITICALITY_BUDGET:
            raise ResourceLimitError(
                f"criticality check on {n} vertices: over {CRITICALITY_BUDGET} restore calls"
            )
        return restore(short, used, owners, full, alive)

    def node(
        ind: int, allowed: int, short: list[int], used: list[int], owners: list[int], full: int, alive: int
    ) -> Iterator[tuple[int, bool]]:
        nonlocal smallest_failure
        size = ind.bit_count() + 1  # of I's children
        # at a = b, or when allowed alone fails the gate (A holds allowed), no relaxed solve
        if spare and size < smallest_failure and b * allowed.bit_count() <= spare * alive.bit_count():
            reach = rest = allowed  # grows to A
            while rest:
                low = rest & -rest
                rest ^= low
                reach |= addable[low.bit_length() - 1]
            if reach & (reach - 1) and b * reach.bit_count() <= spare * alive.bit_count():
                kept_used, kept_owners, dropped = used[:], owners[:], []
                rest = reach
                while rest:
                    low = rest & -rest
                    rest ^= low
                    w = low.bit_length() - 1
                    into, kept_owners[w] = kept_owners[w], 0
                    while into:
                        unit = into & -into
                        into ^= unit
                        x = unit.bit_length() - 1
                        kept_used[x] ^= low
                        dropped.append(x)
                if solve(short + dropped, kept_used, kept_owners, full & ~reach, alive & ~reach) >= 0:
                    yield ind, True
                    return
        full = solve(short, used, owners, full, alive)
        yield ind, full >= 0
        if full < 0:
            smallest_failure = size - 1
            return
        while allowed and size < smallest_failure:
            bit = allowed & -allowed
            allowed ^= bit
            v = bit.bit_length() - 1
            # Dropping v's units out only lowers loads; each sender into v is one short.
            child_used, child_owners = used[:], owners[:]
            out = used[v]
            while out:
                low = out & -out
                out ^= low
                child_owners[low.bit_length() - 1] ^= bit
            senders = []
            into = owners[v]
            while into:
                low = into & -into
                into ^= low
                x = low.bit_length() - 1
                child_used[x] ^= bit
                senders.append(x)
            child_used[v] = child_owners[v] = 0
            child_allowed, child_full = (allowed | next_twin[v]) & ~adj[v], full & ~used[v] & ~bit
            yield from node(ind | bit, child_allowed, senders, child_used, child_owners, child_full, alive ^ bit)

    lowest = sum({k & -k for k in classes})  # each class's lowest member
    # a may be huge, but no vertex has n neighbours to take n units, so min(a, n) rounds decide as a do
    rounds = list(range(n)) * min(params.a, n)
    yield from node(0, lowest, rounds, [0] * n, [0] * n, 0, (1 << n) - 1)


def proves_critical(g: Graph, params: FactorParams) -> bool:
    """Whether delta(G), alpha(G) and U, the least |N(x) | N(y)| of a nonadjacent pair, prove criticality.

    Lemma: G is critical when b(delta - alpha - a) >= a(a + 1) and, unless G
    is complete, min C >= b*alpha, with C as in _pair_margin. Proof: let I be
    independent, k = |I| <= alpha and H = G - I, of order n - k. A vertex
    loses at most k neighbours, so delta(H) >= delta - alpha, and a pair
    nonadjacent in H is nonadjacent in G and loses at most k of its union.
    Suppose H has no fractional [a,b]-factor: by the deficiency test of
    factor, some S has D = b|S| + d_{H-S}(T) - a|T| < 0, with T the vertices
    outside S of degree at most a in H - S. Some vertex of T has degree
    below a there, or D = b|S| >= 0, so T has a vertex x of least degree
    h1 <= a - 1 in H - S.
    - If T lies in x's closed neighbourhood in H - S, then |T| <= h1 + 1 <= a,
      and every other neighbour of x in H lies in S, so
      |S| >= delta(H) - a >= delta - alpha - a. Then
      D >= b|S| - a|T| >= b(delta - alpha - a) - a(a + 1) >= 0.
    - Otherwise let y be a vertex of T outside it of least degree h2 in
      H - S, so h1 <= h2 <= a, and x, y are nonadjacent. N_H(x) | N_H(y)
      lies in S plus h1 + h2 vertices of H - S, so |S| >= U - k - h1 - h2.
      At most h1 + 1 vertices of T lie in x's closed neighbourhood, each of
      degree at least h1, and the rest have degree at least h2, so
      d_{H-S}(T) >= h2|T| - (h2 - h1)(h1 + 1). With |T| <= n - k - |S|
      and a - h2 >= 0, D >= (a + b - h2)|S| - (a - h2)(n - k)
      - (h2 - h1)(h1 + 1) >= C(h1, h2) - b*k >= min C - b*alpha >= 0.
    Both contradict the supposition, so G - I has a fractional [a,b]-factor.
    When G is complete, so is H, and only the first case arises.

    alpha enters only as a bound, so no alpha is computed: the two
    inequalities hold exactly when alpha <= k1 = delta - a - ceil(a(a+1)/b)
    and alpha <= k2 = floor(min C / b), and G is cleared when it holds no
    independent set of min(k1, k2) + 1 vertices. The test reads delta, stops
    if k1 < 0, then finds U over the nonadjacent pairs and asks the one
    question: a walk of _sets_of_size that stops at the first set it finds.
    False means no proof, not a failure, and so does a walk past
    CRITICALITY_BUDGET prefixes.
    """
    n, a, b = g.n, params.a, params.b
    if not n:
        return False
    k = g.min_degree() - a + -a * (a + 1) // b  # k1: the floor of -a(a+1)/b is -ceil(a(a+1)/b)
    if k < 0:
        return False
    worst = g.least_union_pair()
    if worst is not None:
        k = min(k, _pair_margin(n, a, b, worst[1]) // b)  # k2
    try:
        return k >= 0 and next(_sets_of_size(g.adjacency_masks(), k + 1), None) is None
    except ResourceLimitError:
        return False


def _pair_margin(n: int, a: int, b: int, union: int) -> int:
    """min C(h1, h2) over 0 <= h1 <= a - 1 and h1 <= h2 <= min(a, n), U being union.

    C(h1, h2) = (a + b - h2)(U - h1 - h2) - (a - h2)n - (h2 - h1)(h1 + 1),
    proves_critical's bound on D + b*k in its pair case. Expanded, C is
    (a + b)U - a*n + h1^2 - (a + b - 1)h1 + h2^2 + (n - U - a - b - 1)h2,
    and a step h1 -> h1 + 1 <= a - 1 changes the h1 terms by
    2h1 + 2 - a - b < 0, as a <= b, so for each h2 the least C takes
    h1 = min(h2, a - 1): one term per h2. No C is below the cruder
    (a + b)(U - 2a) - a*n, which charges x and y a each and drops d(T):
    C minus it is (a + b)(2a - h1 - h2) + h2(n - U + h1 + h2)
    - (h2 - h1)(h1 + 1) >= 0, as 2a - h1 - h2 >= h2 - h1, h1 + 1 <= a + b
    and U <= n.
    """

    def c(h1: int, h2: int) -> int:
        return (a + b - h2) * (union - h1 - h2) - (a - h2) * n - (h2 - h1) * (h1 + 1)

    return min(c(min(h2, a - 1), h2) for h2 in range(min(a, n) + 1))


def first_failing_set(g: Graph, params: FactorParams) -> tuple[frozenset[int] | None, int]:
    """The first independent set I in (size, lex) order with no factor on G - I, or None.

    Also returns I's 1-based index in enumerate_independent_sets order, or
    the number of independent sets when none fails, counted apart from the
    deciding by _independent_counter. When proves_critical proves G
    critical, no set is decided. Raises ResourceLimitError once
    deletion_verdicts makes more than CRITICALITY_BUDGET restore calls
    (decides and relaxed solves), or once more than that many masks are counted.

    The total is count(V, n). A failing I of size k follows the count(V, k - 1)
    smaller sets and each D of size k below it in lex order: D shares a
    prefix P with I, then takes a smaller vertex x free of P (above P's
    maximum, outside N(P)), then k - |P| - 1 vertices free of P + x.
    """
    failing = None
    if not proves_critical(g, params):
        for ind, ok in deletion_verdicts(g, params):
            if not ok:
                failing = ind
    count, adj, free = _independent_counter(g), g.adjacency_masks(), (1 << g.n) - 1
    if failing is None:
        return None, count(free, g.n)
    k = failing.bit_count()
    index = count(free, k - 1) + 1
    for need, v in zip(range(k, 0, -1), mask_vertices(failing)):
        for x in mask_vertices(free & ((1 << v) - 1)):
            rest = free & -(2 << x) & ~adj[x]
            index += count(rest, need - 1) - count(rest, need - 2)
        free &= -(2 << v) & ~adj[v]
    return frozenset(mask_vertices(failing)), index


def _independent_counter(g: Graph) -> Callable[[int, int], int]:
    """count(mask, k): the independent sets of g of size at most k inside mask.

    A nonempty set is its lowest member v and at most k - 1 vertices of mask
    above v outside N(v), so the recursion is at most k deep. An edgeless
    mask of m vertices holds sum(binom(m, j) for j <= k), with k cut to m; a
    mask inside one class of false twins, vertices with one open
    neighbourhood, is edgeless without a scan (v in N(u) = N(v) is
    impossible). Two vertices hold 4 sets, or 3 when they are an edge. Only
    masks of three or more vertices with an edge are memoized, fewer than g
    has independent sets, so no graph of order <= 20 reaches
    CRITICALITY_BUDGET = 2^20. Each is the free mask of an independent set
    Q, with k + |Q| = n for the total, or k_F - 1 or k_F for a failing set of
    size k_F: two keys per Q at most. An edge uw in it makes Q + u and Q + w
    independent sets whose maximum drops back to Q, so distinct Q own
    distinct pairs of them.
    """
    adj = g.adjacency_masks()
    # each vertex's false twins (a true twin's class meets its neighbourhood): a mask inside is edgeless
    alike = [k & ~adj[v] for v, k in enumerate(g.twin_classes())]
    memo: dict[tuple[int, int], int] = {}

    def count(mask: int, k: int) -> int:
        m = mask.bit_count()
        k = min(k, m)
        if k < 2:
            return 1 + k * m if k >= 0 else 0
        low = mask & -mask
        if m == 2:  # the empty set, two singletons, and the pair unless it is an edge
            return 4 if not adj[low.bit_length() - 1] & mask else 3
        total = memo.get((mask, k))
        if total is not None:
            return total
        rest = mask if mask & ~alike[low.bit_length() - 1] else 0  # scan unless one twin class
        while rest:
            low = rest & -rest
            rest ^= low
            if adj[low.bit_length() - 1] & mask:
                break
        else:  # edgeless
            return 1 << m if k == m else sum(comb(m, j) for j in range(k + 1))
        total = 1
        rest = mask
        while rest:  # one frame per level; a child of size <= 1, or at k = 2, is 1 + size
            low = rest & -rest
            rest ^= low
            child = rest & ~adj[low.bit_length() - 1]
            total += count(child, k - 1) if k > 2 and child & (child - 1) else 1 + child.bit_count()
        if len(memo) >= CRITICALITY_BUDGET:
            raise ResourceLimitError(
                f"criticality check on {g.n} vertices: over {CRITICALITY_BUDGET} masks counted"
            )
        memo[mask, k] = total
        return total

    return count


def is_fractional_id_factor_critical(g: Graph, params: FactorParams) -> CriticalityReport:
    """Check every independent-set deletion and report the first failure in (size, lex) order.

    The failure and its index come from first_failing_set; only the failing
    set is deleted, for its certificate.
    """
    failing, checked = first_failing_set(g, params)
    if failing is None:
        return CriticalityReport(verdict=True, independent_sets_checked=checked)
    sub, remap = g.delete_vertices(failing)
    result = find_fractional_factor(sub, params)
    if result:
        raise RuntimeError("deletion search and solver disagree; this is a bug")
    return CriticalityReport(
        verdict=False,
        independent_sets_checked=checked,
        failing_set=failing,
        failing_certificate=result.certificate,
        vertex_map=remap,
    )
