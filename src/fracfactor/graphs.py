"""Immutable simple graphs over dense integer vertices 0..n-1.

Every operation returns a new value; nothing mutates a graph after
construction, so instances are safe to share. Construction validates its
edges: loops, duplicates and out-of-range endpoints are hard errors, never
silently repaired.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import InputError

Edge = tuple[int, int]


class Graph:
    """A finite simple undirected graph."""

    __slots__ = ("n", "_adj", "_masks")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if not isinstance(n, int) or n < 0:
            raise InputError(f"vertex count must be a nonnegative integer, got {n!r}")
        adj: list[set[int]] = [set() for _ in range(n)]
        seen: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise InputError(f"loop at vertex {u} is not allowed")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise InputError(f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._masks: tuple[int, ...] | None = None

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> list[Edge]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return sorted((u, v) for u in range(self.n) for v in self._adj[u] if u < v)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(s) for s in self._adj]

    def min_degree(self) -> int:
        if self.n == 0:
            raise InputError("minimum degree is undefined for a graph with no vertices")
        return min(len(s) for s in self._adj)

    def neighborhood_union(self, u: int, v: int) -> frozenset[int]:
        """N(u) | N(v) for two distinct vertices."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise InputError("neighborhood union takes two distinct vertices")
        return self._adj[u] | self._adj[v]

    def is_independent(self, vs: Iterable[int]) -> bool:
        """True when no two vertices of vs are adjacent."""
        s = self.vertex_subset(vs)
        return all(not (self._adj[v] & s) for v in s)

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbor sets as bitmasks; computed once and cached."""
        if self._masks is None:
            masks = []
            for s in self._adj:
                m = 0
                for v in s:
                    m |= 1 << v
                masks.append(m)
            self._masks = tuple(masks)
        return self._masks

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

    def join(self, other: Graph) -> Graph:
        """Disjoint union plus every edge between the two sides."""
        shift = self.n
        edges = self.edges()
        edges += [(u + shift, v + shift) for u, v in other.edges()]
        edges += [(u, v + shift) for u in range(self.n) for v in range(other.n)]
        return Graph(self.n + other.n, edges)

    def disjoint_union(self, other: Graph) -> Graph:
        shift = self.n
        edges = self.edges()
        edges += [(u + shift, v + shift) for u, v in other.edges()]
        return Graph(self.n + other.n, edges)

    def edges_between(self, s: Iterable[int], t: Iterable[int]) -> int:
        """Number of edges with one endpoint in s and the other in t."""
        ss = self.vertex_subset(s)
        tt = self.vertex_subset(t)
        if ss & tt:
            raise InputError("edges_between requires disjoint vertex sets")
        return sum(len(self._adj[u] & tt) for u in ss)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def _check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise InputError(f"vertex {v!r} out of range for {self.n} vertices")


# -- standard families ------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite_graph(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive index blocks."""
    if any(s < 0 for s in sizes):
        raise InputError("part sizes must be nonnegative")
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
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
