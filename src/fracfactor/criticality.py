"""Independent-set-deletion criticality for fractional [a,b]-factors.

A graph G is fractional ID-[a,b]-factor-critical when G - I has a fractional
[a,b]-factor for every independent set I, the empty set included. Checking
only maximal independent sets would be unsound: deleting a smaller set
leaves more vertices behind and can fail where larger deletions succeed, so
the check below really enumerates every independent set, smallest first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ResourceLimitError
from .factor import (
    FactorParams,
    ViolationCertificate,
    augmenting_search,
    find_fractional_factor,
)
from .graphs import Graph, mask_vertices

DEFAULT_CRITICALITY_LIMIT = 20


def enumerate_independent_sets(g: Graph) -> Iterator[frozenset[int]]:
    """Yield every independent set of g, by increasing size, then lexicographic.

    Independence is hereditary, so once some size has no independent set no
    larger size can either; enumeration stops at the first empty level.
    """
    n = g.n
    masks = g.adjacency_masks()

    def sized(prefix: list[int], start: int, forbidden: int, want: int) -> Iterator[frozenset[int]]:
        if want == 0:
            yield frozenset(prefix)
            return
        for v in range(start, n - want + 1):
            if not (forbidden >> v) & 1:
                prefix.append(v)
                yield from sized(prefix, v + 1, forbidden | masks[v] | (1 << v), want - 1)
                prefix.pop()

    yield frozenset()
    for size in range(1, n + 1):
        found = False
        for s in sized([], 0, 0, size):
            found = True
            yield s
        if not found:
            break


def maximal_independent_sets(g: Graph) -> Iterator[frozenset[int]]:
    """Independent sets that cover every vertex with their neighbours, in the same global order."""
    masks = g.adjacency_masks()
    everything = (1 << g.n) - 1
    for ind in enumerate_independent_sets(g):
        covered = 0
        for v in ind:
            covered |= masks[v] | 1 << v
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


def deletion_verdicts(g: Graph, params: FactorParams) -> Iterator[tuple[frozenset[int], bool]]:
    """Yield (I, whether G - I has a fractional [a,b]-factor) over a DFS of the independent sets.

    Each G - I is the b-matching of factor.augmenting_search with I's
    vertices masked out of alive: G - I has a fractional [a,b]-factor iff
    every vertex outside I sends a units, and a failed search decides the
    set infeasible (the proofs are in that function's docstring). The root
    runs a searches per vertex, as has_fractional_factor does.

    A child is its parent plus one vertex v above the parent's maximum. It
    copies the parent's saturated b-matching and drops v's units in and out.
    Every sender that lost its unit into v (at most b of them) is then one
    short, and one restore call searches for each in turn, restoring them
    all or deciding the set infeasible.
    DFS preorder is lexicographic among sets of one size, so once a set of
    size k fails, no later set of size k or more is decided, and no failing
    set is extended: the last failing set yielded is the first in (size, lex)
    order.
    """
    n = g.n
    adj = g.adjacency_masks()
    restore = augmenting_search(adj, params.b)
    smallest_failure = n + 1

    def children(
        ind: list[int], forbidden: int, parent: tuple[list[int], list[int], int, int]
    ) -> Iterator[tuple[frozenset[int], bool]]:
        nonlocal smallest_failure
        parent_used, parent_owners, parent_full, parent_alive = parent
        for v in range(ind[-1] + 1 if ind else 0, n):
            if len(ind) + 1 >= smallest_failure:
                return
            if (forbidden >> v) & 1:
                continue
            # Dropping v's units out only lowers loads; each sender into v is one short.
            used, owners = parent_used[:], parent_owners[:]
            for w in mask_vertices(used[v]):
                owners[w] ^= 1 << v
            senders = mask_vertices(owners[v])
            for x in senders:
                used[x] ^= 1 << v
            used[v] = owners[v] = 0
            alive = parent_alive & ~(1 << v)
            full = restore(senders, used, owners, parent_full & ~parent_used[v] & ~(1 << v), alive)
            ind.append(v)
            ok = full >= 0
            yield frozenset(ind), ok
            if ok:
                yield from children(ind, forbidden | adj[v], (used, owners, full, alive))
            else:
                smallest_failure = len(ind)
            ind.pop()

    used, owners, alive = [0] * n, [0] * n, (1 << n) - 1
    full = restore([*range(n)] * params.a, used, owners, 0, alive)  # all start a units short
    ok = full >= 0
    yield frozenset(), ok
    if ok:
        yield from children([], 0, (used, owners, full, alive))


def first_failing_set(g: Graph, params: FactorParams) -> tuple[frozenset[int] | None, int]:
    """The first independent set I in (size, lex) order with no factor on G - I, or None.

    Also returns I's 1-based index in enumerate_independent_sets order, or
    the number of independent sets when none fails. deletion_verdicts decides
    every set smaller than I and every set of I's size up to I, and no other
    set of I's size or more, so the index is the number of sets it yields of
    size at most |I|. Raises ResourceLimitError above the criticality cap.
    """
    if g.n > DEFAULT_CRITICALITY_LIMIT:
        raise ResourceLimitError(
            f"criticality check over {g.n} vertices exceeds the cap of "
            f"{DEFAULT_CRITICALITY_LIMIT}"
        )
    failing, by_size = None, [0] * (g.n + 1)
    for ind, ok in deletion_verdicts(g, params):
        by_size[len(ind)] += 1
        if not ok:
            failing = ind
    if failing is None:
        return None, sum(by_size)
    return failing, sum(by_size[: len(failing) + 1])


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
