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
from .factor import FactorParams, ViolationCertificate, double_cover, find_fractional_factor
from .graphs import Graph
from .maxflow import Dinic

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
    """Independent sets no vertex can extend, in the same global order."""
    masks = g.adjacency_masks()
    for ind in enumerate_independent_sets(g):
        ind_mask = 0
        for v in ind:
            ind_mask |= 1 << v
        extendable = any(
            not (ind_mask >> v) & 1 and not masks[v] & ind_mask for v in range(g.n)
        )
        if not extendable:
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

    One network, no lower bounds: s -> v+ with capacity a, v- -> t with
    capacity b, and unit arcs u+ -> w- and w+ -> u- for each edge uw. G - I
    has a fractional [a,b]-factor iff the max-flow with both window arcs of
    each vertex of I closed is a(n - |I|). (=>) Scale a factor's weights at
    each v+ down to a; flow integrality does the rest. (<=) The cut
    {s} + T+ + S- has capacity a(n - |T|) + b|S| + d_{G-S}(T), so a saturating
    flow gives b|S| + d_{G-S}(T) - a|T| >= 0 for every S, the test in factor.py.

    A child is its parent plus one vertex v above the parent's maximum. It
    copies the parent's saturated residual capacities, cancels the unit paths
    s -> u+ -> w- -> t through v+ and v- (a + at most b of them), closes v's
    windows and resumes Dinic, which must restore the units cancelled through
    v-. DFS preorder is lexicographic among sets of one size, so once a set of
    size k fails, no later set of size k or more is decided, and no failing set
    is extended: the last failing set yielded is the first in (size, lex) order.
    """
    n, a = g.n, params.a
    nodes, arcs, s, t = double_cover(n, g.edges(), params)
    net = Dinic(nodes)
    for u, v, lo, up in arcs:
        net.add_edge(u, v, lo if u == s else up)  # arc i is edge 2i; v's windows are 4v, 4v + 2
    head, to = net.head, net.to
    masks = g.adjacency_masks()
    smallest_failure = n + 1

    def close(v: int) -> int:
        """Cancel the flow through v on net.cap, close v's windows, return the units cut at v-."""
        cap = net.cap
        for eid in head[2 + v]:
            if not eid & 1 and cap[eid ^ 1]:  # v+ -> w- carries a unit; free w- -> t
                window = 4 * (to[eid] - 2 - n) + 2
                cap[eid] += 1
                cap[eid ^ 1] -= 1
                cap[window] += 1
                cap[window ^ 1] -= 1
        cut = 0
        for eid in head[2 + n + v]:
            if eid & 1 and cap[eid]:  # u+ -> v- carries a unit; free s -> u+
                window = 4 * (to[eid] - 2)
                cap[eid] -= 1
                cap[eid ^ 1] += 1
                cap[window] += 1
                cap[window ^ 1] -= 1
                cut += 1
        cap[4 * v : 4 * v + 4] = [0, 0, 0, 0]
        return cut

    def children(
        ind: list[int], forbidden: int, parent: list[int]
    ) -> Iterator[tuple[frozenset[int], bool]]:
        nonlocal smallest_failure
        for v in range(ind[-1] + 1 if ind else 0, n):
            if len(ind) + 1 >= smallest_failure:
                return
            if (forbidden >> v) & 1:
                continue
            net.cap = parent[:]
            cut = close(v)
            ind.append(v)
            ok = net.max_flow(s, t) == cut
            yield frozenset(ind), ok
            if ok:
                yield from children(ind, forbidden | masks[v], net.cap)
            else:
                smallest_failure = len(ind)
            ind.pop()

    ok = net.max_flow(s, t) == a * n
    yield frozenset(), ok
    if ok:
        yield from children([], 0, net.cap)


def is_fractional_id_factor_critical(g: Graph, params: FactorParams) -> CriticalityReport:
    """Check every independent-set deletion and report the first failure in (size, lex) order.

    The verdicts come from deletion_verdicts; only the failing set is deleted,
    for its certificate, and its 1-based index in enumerate_independent_sets
    order is found by walking that order again.
    """
    if g.n > DEFAULT_CRITICALITY_LIMIT:
        raise ResourceLimitError(
            f"criticality check over {g.n} vertices exceeds the cap of "
            f"{DEFAULT_CRITICALITY_LIMIT}"
        )
    failing, decided = None, 0
    for ind, ok in deletion_verdicts(g, params):
        decided += 1
        if not ok:
            failing = ind
    if failing is None:
        return CriticalityReport(verdict=True, independent_sets_checked=decided)
    checked = next(i for i, ind in enumerate(enumerate_independent_sets(g), 1) if ind == failing)
    sub, remap = g.delete_vertices(failing)
    result = find_fractional_factor(sub, params)
    if result:
        raise RuntimeError("double-cover network and solver disagree; this is a bug")
    return CriticalityReport(
        verdict=False,
        independent_sets_checked=checked,
        failing_set=failing,
        failing_certificate=result.certificate,
        vertex_map=remap,
    )
