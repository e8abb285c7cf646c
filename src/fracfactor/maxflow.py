"""Dinic max-flow and feasible flow under arc lower bounds.

Integer capacities in, integer flows out, polynomial worst case. That is the
entire contract the factor solver needs from here.
"""

from __future__ import annotations

from collections import deque

from .errors import InputError


class Dinic:
    """Max-flow via level graphs and blocking flows.

    Edges are stored in a flat array with the reverse edge at index eid ^ 1,
    so the flow pushed through edge eid is simply the residual capacity of
    its twin.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        if cap < 0:
            raise InputError(f"negative capacity {cap} on arc ({u}, {v})")
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.head[u].append(eid)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(eid + 1)
        return eid

    def _levels(self, s: int, t: int) -> list[int] | None:
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            deeper = level[v] + 1
            for eid in head[v]:
                w = to[eid]
                if cap[eid] > 0 and level[w] < 0:
                    level[w] = deeper
                    queue.append(w)
        return level if level[t] >= 0 else None

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        # Walk one s-t path in the level graph (iterative, so deep networks
        # cannot hit the recursion limit), push the bottleneck, return it.
        head, to, cap = self.head, self.to, self.cap
        path: list[int] = []
        v = s
        while True:
            if v == t:
                pushed = min(cap[eid] for eid in path)
                for eid in path:
                    cap[eid] -= pushed
                    cap[eid ^ 1] += pushed
                return pushed
            arcs = head[v]
            deeper = level[v] + 1
            for i in range(it[v], len(arcs)):
                eid = arcs[i]
                w = to[eid]
                if cap[eid] > 0 and level[w] == deeper:
                    it[v] = i
                    path.append(eid)
                    v = w
                    break
            else:
                it[v] = len(arcs)
                level[v] = -1
                if not path:
                    return 0
                eid = path.pop()
                v = to[eid ^ 1]
                it[v] += 1

    def max_flow(self, s: int, t: int) -> int:
        if s == t:
            raise InputError("source and sink must differ")
        total = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                total += pushed


Arc = tuple[int, int, int, int]  # (u, v, lower, upper)


def feasible_flow(num_nodes: int, arcs: list[Arc], source: int, sink: int) -> list[int] | None:
    """Integral flow of each (u, v, lower, upper) arc within its bounds, or None if none exists.

    The usual reduction: subtract lower bounds, close the circulation with an
    unbounded sink -> source arc, and route each node's imbalance through a
    super source (surplus of lower bounds in) or super sink (surplus out).
    """
    net = Dinic(num_nodes + 2)
    imbalance = [0] * num_nodes
    for u, v, lo, up in arcs:
        if not 0 <= lo <= up:
            raise InputError(f"arc ({u}, {v}) has invalid bounds [{lo}, {up}]")
        net.add_edge(u, v, up - lo)  # arc i is edge 2i
        imbalance[v] += lo
        imbalance[u] -= lo
    net.add_edge(sink, source, sum(up for _, _, _, up in arcs) + 1)
    for v, bal in enumerate(imbalance):
        if bal > 0:
            net.add_edge(num_nodes, v, bal)
        elif bal < 0:
            net.add_edge(v, num_nodes + 1, -bal)
    if net.max_flow(num_nodes, num_nodes + 1) != sum(bal for bal in imbalance if bal > 0):
        return None
    return [lo + x for (_, _, lo, _), x in zip(arcs, net.cap[1 : 2 * len(arcs) : 2])]
