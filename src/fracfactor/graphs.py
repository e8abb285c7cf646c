"""Immutable simple graphs over dense integer vertices 0..n-1.

Every operation returns a new value; nothing mutates a graph after
construction, so instances are safe to share. A graph computes two
invariants, its least-union pair and its twin classes, on first use and
keeps them, because several checks read each; the kept values are
immutable, and equality and hashing read only the order and the masks.
Construction validates its edges: loops, duplicates and out-of-range
endpoints are hard errors, never silently repaired.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import InputError, ResourceLimitError

Edge = tuple[int, int]

MAX_ORDER = 1000

_UNSET = object()  # a stored invariant not computed yet; None is a least_union_pair result


def require_order(n: int) -> None:
    """Refuse an order above MAX_ORDER, before anything of that size is built."""
    if n > MAX_ORDER:
        raise ResourceLimitError(f"order {n} exceeds the maximum of {MAX_ORDER} vertices")


class Graph:
    """A finite simple undirected graph, held as one neighbour bitmask per vertex."""

    __slots__ = ("n", "_masks", "_least_union", "_twins")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if type(n) is not int or n < 0:  # a bool is refused too
            raise InputError(f"vertex count must be a nonnegative integer, got {n!r}")
        require_order(n)
        masks = [0] * n
        edge = None
        try:
            for edge in edges:
                u, v = edge
                if not (0 <= u < n and 0 <= v < n):
                    raise InputError(f"edge ({u}, {v}) out of range for {n} vertices")
                if u == v:
                    raise InputError(f"loop at vertex {u} is not allowed")
                if (masks[u] >> v) & 1:
                    raise InputError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        except InputError:
            raise
        except (TypeError, ValueError):  # not a pair, or an endpoint that is not an int
            raise InputError(f"malformed edge {edge!r}: need a pair of integer vertex ids") from None
        self.n = n
        self._masks: tuple[int, ...] = tuple(masks)
        self._least_union = self._twins = _UNSET  # filled by least_union_pair and twin_classes

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self._masks) // 2

    def edges(self) -> list[Edge]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [
            (u, v)
            for u, mask in enumerate(self._masks)
            for v in mask_vertices(mask >> (u + 1) << (u + 1))
        ]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._masks[v].bit_count()

    def degrees(self) -> list[int]:
        return [mask.bit_count() for mask in self._masks]

    def min_degree(self) -> int:
        if self.n == 0:
            raise InputError("minimum degree is undefined for a graph with no vertices")
        return min(self.degrees())

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbor sets as bitmasks: bit v of entry u is set when uv is an edge."""
        return self._masks

    def least_union_pair(self) -> tuple[tuple[int, int], int] | None:
        """The nonadjacent pair x < y least in |N(x) | N(y)|, lex-first among ties, and that size.

        None when the graph is complete, with no nonadjacent pair. Computed on
        the first call and stored.
        """
        if self._least_union is not _UNSET:
            return self._least_union
        masks = self._masks
        best = None
        least = self.n
        for u, mask_u in enumerate(masks):
            rest = ~mask_u & ((1 << self.n) - (2 << u))  # the nonadjacent v > u
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                size = (mask_u | masks[v]).bit_count()
                if size < least:
                    best, least = (u, v), size
        self._least_union = None if best is None else (best, least)
        return self._least_union

    def twin_classes(self) -> tuple[int, ...]:
        """The mask of each vertex's twin class. Computed on the first call and stored.

        u and v are false twins when N(u) = N(v) and true twins when
        N[u] = N[v]; each relation is an equivalence. An open neighbourhood
        never equals a closed one (N(u) = N[v] would put v in N(u), so u in
        N(v) and in N[v] = N(u)), so one dict keyed by both finds both. No
        vertex has twins of both kinds: with N(u) = N(v) and N[u] = N[w], w is
        in N(v), so v is in N[w] = N[u], and v would neighbour its false twin u.
        A vertex without twins is a class of one.
        """
        if self._twins is not _UNSET:
            return self._twins
        masks = self._masks
        groups: dict[int, int] = {}
        for v, nbrs in enumerate(masks):
            bit = 1 << v
            groups[nbrs] = groups.get(nbrs, 0) | bit
            groups[nbrs | bit] = groups.get(nbrs | bit, 0) | bit
        self._twins = tuple(groups[nbrs] | groups[nbrs | 1 << v] for v, nbrs in enumerate(masks))
        return self._twins

    def vertex_subset(self, vs: Iterable[int]) -> frozenset[int]:
        """Validate vs as a set of vertices of this graph."""
        s = frozenset(vs)
        for v in s:
            self._check_vertex(v)
        return s

    # -- derived graphs ----------------------------------------------------

    def delete_vertices(self, drop: Iterable[int]) -> tuple[Graph, dict[int, int]]:
        """Remove a vertex set; survivors are re-indexed densely.

        Returns the new graph together with the old->new index map for the
        kept vertices.
        """
        dropped = self.vertex_subset(drop)
        kept = [v for v in range(self.n) if v not in dropped]
        remap = {old: new for new, old in enumerate(kept)}
        edges = [
            (remap[u], remap[v])
            for u, v in self.edges()
            if u not in dropped and v not in dropped
        ]
        return Graph(len(kept), edges), remap

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int or not 0 <= v < self.n:  # a bool is refused too
            raise InputError(f"vertex {v!r} out of range for {self.n} vertices")


def mask_vertices(mask: int) -> tuple[int, ...]:
    """The vertices whose bits are set in mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# -- standard families ------------------------------------------------------


def complete_multipartite_graph(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive index blocks."""
    if any(s < 0 for s in sizes):
        raise InputError("part sizes must be nonnegative")
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    require_order(n)
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            edges += [
                (u, v)
                for u in range(bounds[i], bounds[i + 1])
                for v in range(bounds[j], bounds[j + 1])
            ]
    return Graph(n, edges)


# -- edge-list text format ----------------------------------------------------
#
# First content line is "n m", followed by exactly m lines "u v" with
# 0 <= u < v < n. Text after '#' is a comment; blank lines are ignored.


def content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based line number, tokens) for each line left after comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format, reporting every problem with its line number."""
    rows = list(content_lines(text))
    if not rows:
        raise InputError("empty input: missing 'n m' header line")

    problems: list[str] = []
    header_lineno, header = rows[0]
    n = m = None
    if len(header) != 2:
        problems.append(f"line {header_lineno}: header must be 'n m'")
    else:
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError:
            problems.append(f"line {header_lineno}: header values must be integers")
    if n is not None and n < 0:
        problems.append(f"line {header_lineno}: vertex count must be nonnegative")
    if m is not None and m < 0:
        problems.append(f"line {header_lineno}: edge count must be nonnegative")
    if problems:
        raise InputError("\n".join(problems))

    edge_rows = rows[1:]
    if len(edge_rows) != m:
        problems.append(
            f"line {header_lineno}: header promises {m} edges, file has {len(edge_rows)} edge lines"
        )

    edges: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, tok in edge_rows:
        if len(tok) != 2:
            problems.append(f"line {lineno}: edge line must be 'u v'")
            continue
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            problems.append(f"line {lineno}: edge endpoints must be integers")
            continue
        if u == v:
            problems.append(f"line {lineno}: loop ({u}, {v}) is not allowed")
            continue
        if u > v:
            problems.append(f"line {lineno}: endpoints must satisfy u < v")
            continue
        if not (0 <= u and v < n):
            problems.append(f"line {lineno}: edge ({u}, {v}) out of range for {n} vertices")
            continue
        if (u, v) in seen:
            problems.append(f"line {lineno}: duplicate edge ({u}, {v})")
            continue
        seen.add((u, v))
        edges.append((u, v))

    if problems:
        raise InputError("\n".join(problems))
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"
