"""Reference implementations used to cross-check the package.

Everything here is written against plain adjacency dicts with naive set
arithmetic and itertools enumeration, deliberately sharing no code with the
library's bitmask or flow paths.
"""

from __future__ import annotations

from itertools import chain, combinations


def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def all_subsets(n: int):
    return chain.from_iterable(combinations(range(n), k) for k in range(n + 1))


def naive_delta(n: int, edges, a: int, b: int, s) -> tuple[set[int], int]:
    adj = adjacency(n, edges)
    s_set = set(s)
    t = {
        x
        for x in range(n)
        if x not in s_set and len(adj[x] - s_set) <= a
    }
    degree_sum = sum(len(adj[x] - s_set) for x in t)
    return t, b * len(s_set) + degree_sum - a * len(t)


def naive_violation(n: int, edges, a: int, b: int):
    """Worst (delta, S, T) over all subsets, same tie-breaks as the library."""
    best = None
    for s in all_subsets(n):
        t, delta = naive_delta(n, edges, a, b, s)
        if delta < 0:
            key = (delta, len(s), tuple(sorted(s)))
            if best is None or key < best[0]:
                best = (key, set(s), t, delta)
    if best is None:
        return None
    _, s_set, t_set, delta = best
    return s_set, t_set, delta


def naive_has_factor(n: int, edges, a: int, b: int) -> bool:
    """True iff no subset S has a negative delta; stops at the first that does."""
    adj = adjacency(n, edges)
    for s in all_subsets(n):
        s_set = set(s)
        degrees = [len(adj[x] - s_set) for x in range(n) if x not in s_set]
        # naive_delta's b|S| + d_{G-S}(T) - a|T|, with T the degrees <= a
        if b * len(s_set) + sum(d - a for d in degrees if d <= a) < 0:
            return False
    return True


def naive_independent_sets(n: int, edges) -> list[frozenset[int]]:
    """All independent sets, sorted by size then lexicographically."""
    adj = adjacency(n, edges)
    out = [
        frozenset(s)
        for s in all_subsets(n)
        if all(v not in adj[u] for u in s for v in s)
    ]
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def naive_deletion(n: int, edges, drop) -> tuple[int, list[tuple[int, int]]]:
    """G - drop, its surviving vertices relabelled 0.. in increasing order."""
    dropped = set(drop)
    kept = [v for v in range(n) if v not in dropped]
    label = {v: i for i, v in enumerate(kept)}
    return len(kept), [(label[u], label[v]) for u, v in edges if u in label and v in label]
