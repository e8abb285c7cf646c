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
from .factor import FactorParams, Infeasible, ViolationCertificate, find_fractional_factor
from .graphs import Graph

DEFAULT_CRITICALITY_LIMIT = 20


def enumerate_independent_sets(
    g: Graph, max_size: int | None = None
) -> Iterator[frozenset[int]]:
    """Yield every independent set of g, by increasing size, then lexicographic.

    Independence is hereditary, so once some size has no independent set no
    larger size can either; enumeration stops at the first empty level.
    """
    n = g.n
    masks = g.adjacency_masks()
    top = n if max_size is None else min(max_size, n)

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
    for size in range(1, top + 1):
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


def is_fractional_id_factor_critical(g: Graph, params: FactorParams) -> CriticalityReport:
    """Check every independent-set deletion, stopping at the first failure."""
    if g.n > DEFAULT_CRITICALITY_LIMIT:
        raise ResourceLimitError(
            f"criticality check over {g.n} vertices exceeds the cap of "
            f"{DEFAULT_CRITICALITY_LIMIT}"
        )
    checked = 0
    for ind in enumerate_independent_sets(g):
        checked += 1
        sub, remap = g.delete_vertices(ind)
        result = find_fractional_factor(sub, params)
        if isinstance(result, Infeasible):
            return CriticalityReport(
                verdict=False,
                independent_sets_checked=checked,
                failing_set=ind,
                failing_certificate=result.certificate,
                vertex_map=remap,
            )
    return CriticalityReport(verdict=True, independent_sets_checked=checked)
