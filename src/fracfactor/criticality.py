"""Independent-set-deletion criticality for fractional [a,b]-factors.

A graph G is fractional ID-[a,b]-factor-critical when G - I has a fractional
[a,b]-factor for every independent set I, the empty set included. Checking
only maximal independent sets would be unsound: deleting a smaller set
leaves more vertices behind and can fail where larger deletions succeed, so
the check below covers every independent set, smallest first. It decides
one set per orbit under twin swaps, which give isomorphic deletions, and
counts the rest of each orbit by its size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb, prod
from typing import Iterator

from .errors import ResourceLimitError
from .factor import (
    FactorParams,
    ViolationCertificate,
    augmenting_search,
    find_fractional_factor,
)
from .graphs import Graph, mask_vertices

# Canonical sets deletion_verdicts may decide per check. No graph of order <= 20
# has more independent sets. A set took 2.1-10.3 us on G(60..1000, p) under (1, 2)
# and (3, 3) (CPython 3.11, 2-core Xeon), so a trip takes about 2-11 s.
CRITICALITY_BUDGET = 2**20


def enumerate_independent_sets(g: Graph) -> Iterator[frozenset[int]]:
    """Yield every independent set of g, by increasing size, then lexicographic.

    Each size k is one walk of an explicit stack. An entry is a prefix and
    its free mask: the vertices above the prefix's maximum that neighbour
    none of its members. Expanding a prefix pushes, for each free vertex v,
    the prefix plus v with the free vertices above v outside v's
    neighbourhood, but only while that mask still holds as many vertices as
    k still needs (a popcount test), so no prefix short of free vertices is
    expanded; a prefix one short of k yields its sets straight off its free
    mask. Children are pushed in reverse, so each size comes out in
    lexicographic order. The stack holds the children of at most one
    expansion per level, at most n entries per level: O(n^2) entries in
    all, and no size level is buffered.

    Independence is hereditary, so once some size has no independent set no
    larger size can either; enumeration stops at the first empty level.
    """
    n = g.n
    masks = g.adjacency_masks()
    yield frozenset()
    for size in range(1, n + 1):
        found = False
        stack = [((), (1 << n) - 1)]
        while stack:
            prefix, free = stack.pop()
            need = size - len(prefix)
            if need == 1:
                found = True
                while free:
                    low = free & -free
                    free ^= low
                    yield frozenset((*prefix, low.bit_length() - 1))
                continue
            children = []
            while free.bit_count() >= need:
                low = free & -free
                free ^= low
                v = low.bit_length() - 1
                child = free & ~masks[v]
                if child.bit_count() >= need - 1:
                    children.append(((*prefix, v), child))
            stack += reversed(children)
        if not found:
            break


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

    On failure, failing_set holds the first bad independent set in
    enumeration order (original vertex labels). The certificate, when
    present, speaks in the labels of the re-indexed deleted graph;
    vertex_map carries old -> new so callers can translate back.
    """

    verdict: bool
    independent_sets_checked: int
    failing_set: frozenset[int] | None = None
    failing_certificate: ViolationCertificate | None = None
    vertex_map: dict[int, int] | None = None

    def certificate_in_original_labels(self) -> tuple[frozenset[int], frozenset[int], int] | None:
        if self.failing_certificate is None or self.vertex_map is None:
            return None
        back = {new: old for old, new in self.vertex_map.items()}
        cert = self.failing_certificate
        return (
            frozenset(back[v] for v in cert.s),
            frozenset(back[v] for v in cert.t),
            cert.delta,
        )

    def to_dict(self) -> dict:
        out: dict = {
            "verdict": self.verdict,
            "independent_sets_checked": self.independent_sets_checked,
        }
        if not self.verdict:
            out["failing_set"] = sorted(self.failing_set or ())
            if self.failing_certificate is not None:
                out["certificate"] = self.failing_certificate.to_dict()
                out["vertex_map"] = {
                    str(k): v for k, v in sorted((self.vertex_map or {}).items())
                }
                original = self.certificate_in_original_labels()
                if original is not None:
                    s, t, delta = original
                    out["certificate_original_labels"] = {
                        "s": sorted(s),
                        "t": sorted(t),
                        "delta": delta,
                    }
        return out


def twin_classes(adj: tuple[int, ...]) -> list[int]:
    """The mask of each vertex's twin class, for the graph with adjacency masks adj.

    u and v are false twins when N(u) = N(v) and true twins when
    N[u] = N[v]; each relation is an equivalence. An open neighbourhood
    never equals a closed one (N(u) = N[v] would put v in N(u), so u in
    N(v) and in N[v] = N(u)), so one dict keyed by both finds both. No
    vertex has twins of both kinds: with N(u) = N(v) and N[u] = N[w], w is
    in N(v), so v is in N[w] = N[u], and v would neighbour its false twin u.
    A vertex without twins is a class of one.
    """
    groups: dict[int, int] = {}
    for v, nbrs in enumerate(adj):
        bit = 1 << v
        groups[nbrs] = groups.get(nbrs, 0) | bit
        groups[nbrs | bit] = groups.get(nbrs | bit, 0) | bit
    return [groups[nbrs] | groups[nbrs | 1 << v] for v, nbrs in enumerate(adj)]


def deletion_verdicts(g: Graph, params: FactorParams) -> Iterator[tuple[int, int, bool]]:
    """Yield (I, orbit size, whether G - I has a fractional [a,b]-factor) over a DFS of canonical I.

    I is a vertex bitmask. Each G - I is the b-matching of
    factor.augmenting_search with I's vertices masked out of alive: G - I
    has a fractional [a,b]-factor iff every vertex outside I sends a units,
    and a failed search decides the set infeasible (the proofs are in that
    function's docstring). The root runs a searches per vertex, as
    has_fractional_factor does.

    Only canonical sets are decided: those meeting each twin class K (see
    twin_classes) in its |I & K| lowest members. That loses nothing:
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

    The orbit size is the product over twin classes K of binom(|K|, |I & K|)
    (|K| for a true-twin class, which I meets at most once). The root's is 1,
    and a child's is its parent's times (|K| - c) / (c + 1), where K is v's
    class and c = |I & K| before v joins: binom(|K|, c) * (|K| - c) =
    binom(|K|, c + 1) * (c + 1), so the division is exact. A true-twin class
    always has c = 0, so it multiplies by |K|.

    The child copies the parent's saturated b-matching and drops v's units
    in and out. Every sender that lost its unit into v (at most b of them)
    is then one short, and one restore call searches for each in turn,
    restoring them all or deciding the set infeasible.
    DFS preorder is lexicographic among sets of one size, so once a set of
    size k fails, no later set of size k or more is decided, and no failing
    set is extended: the last failing set yielded is the first in (size, lex)
    order.
    """
    n = g.n
    adj = g.adjacency_masks()
    restore = augmenting_search(adj, params.b)
    classes = twin_classes(adj)
    above = [k & -(2 << v) for v, k in enumerate(classes)]  # each vertex's higher twins
    next_twin = [m & -m for m in above]
    class_size = [k.bit_count() for k in classes]
    smallest_failure = n + 1

    def children(
        ind: int, orbit: int, allowed: int, parent: tuple[list[int], list[int], int, int]
    ) -> Iterator[tuple[int, int, bool]]:
        nonlocal smallest_failure
        parent_used, parent_owners, parent_full, parent_alive = parent
        size = ind.bit_count() + 1
        while allowed and size < smallest_failure:
            bit = allowed & -allowed
            allowed ^= bit
            v = bit.bit_length() - 1
            # Dropping v's units out only lowers loads; each sender into v is one short.
            used, owners = parent_used[:], parent_owners[:]
            out = used[v]
            while out:
                low = out & -out
                out ^= low
                owners[low.bit_length() - 1] ^= bit
            senders = []
            into = owners[v]
            while into:
                low = into & -into
                into ^= low
                x = low.bit_length() - 1
                used[x] ^= bit
                senders.append(x)
            used[v] = owners[v] = 0
            alive = parent_alive ^ bit
            full = restore(senders, used, owners, parent_full & ~parent_used[v] & ~bit, alive)
            child = ind | bit
            c = (ind & classes[v]).bit_count()
            child_orbit = orbit * (class_size[v] - c) // (c + 1)
            ok = full >= 0
            yield child, child_orbit, ok
            if ok:
                child_allowed = (allowed | next_twin[v]) & ~adj[v]
                yield from children(child, child_orbit, child_allowed, (used, owners, full, alive))
            else:
                smallest_failure = size

    used, owners, alive = [0] * n, [0] * n, (1 << n) - 1
    rounds = (v for _ in range(params.a) for v in range(n))  # lazy: a may be huge
    full = restore(rounds, used, owners, 0, alive)  # all start a units short
    ok = full >= 0
    yield 0, 1, ok
    if ok:
        lowest = sum({k & -k for k in classes})  # each class's lowest member
        yield from children(0, 1, lowest, (used, owners, full, alive))


def first_failing_set(g: Graph, params: FactorParams) -> tuple[frozenset[int] | None, int]:
    """The first independent set I in (size, lex) order with no factor on G - I, or None.

    Also returns I's 1-based index in enumerate_independent_sets order, or
    the number of independent sets when none fails. Raises
    ResourceLimitError once deletion_verdicts has decided more than
    CRITICALITY_BUDGET sets.

    deletion_verdicts decides every canonical set smaller than I, every
    canonical set of I's size up to I, and no other set of I's size or
    more. Each canonical set C stands for its orbit, whose size
    deletion_verdicts yields with it. Orbits partition the independent
    sets, and each holds its own canonical set, so:
    - the sets smaller than I are the orbits of the smaller decided sets;
    - a set D of I's size with D <= I has its canonical set C <= D <= I,
      a decided set, so the sets of I's size up to I are the orbits of the
      decided sets of that size, less their members after I.
    _orbit_after counts those members. Only sets whose orbit exceeds 1 are
    kept for it: an orbit of one is C itself, which is at most I. The twin
    classes are computed again only when some set fails.
    """
    failing, by_size = None, [0] * (g.n + 1)
    shared: list[list[int]] = [[] for _ in by_size]  # sets whose orbit has other members
    for decided, (ind, orbit, ok) in enumerate(deletion_verdicts(g, params), 1):
        if decided > CRITICALITY_BUDGET:
            raise ResourceLimitError(
                f"criticality check on {g.n} vertices: over {CRITICALITY_BUDGET} sets decided"
            )
        size = ind.bit_count()
        by_size[size] += orbit
        if orbit > 1:
            shared[size].append(ind)
        if not ok:
            failing = ind
    if failing is None:
        return None, sum(by_size)
    k = failing.bit_count()
    classes = twin_classes(g.adjacency_masks())
    after = sum(_orbit_after(c, failing, classes) for c in shared[k])
    return frozenset(mask_vertices(failing)), sum(by_size[: k + 1]) - after


def _orbit_after(c: int, f: int, classes: list[int]) -> int:
    """How many sets of canonical set c's twin orbit come after f in lex order.

    c and f are vertex bitmasks of one size. Such a set D agrees with f
    below some position j and has a larger j-th member x. Taking f's first
    j members and then x leaves need[K] members to pick from each class K,
    all above x: binom(|K above x|, need[K]) ways per class. Once f's first
    j members do not fit c's class counts, no set of the orbit starts with
    them.
    """
    need = Counter(classes[v] for v in mask_vertices(c))
    after = 0
    for v in mask_vertices(f):
        for x in range(v + 1, len(classes)):
            if need[classes[x]]:
                need[classes[x]] -= 1
                after += prod(comb((k >> x + 1).bit_count(), r) for k, r in need.items())
                need[classes[x]] += 1
        if not need[classes[v]]:
            break
        need[classes[v]] -= 1
    return after


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
