"""The benchmark's three workloads: corpus, op and output check for each.

A workload turns (seed, batch) into a list of Items (the corpus), runs one
Item as one timed op against a freshly imported library, and checks the op's
output with code of its own. Every batch draws new inputs, because Graph
caches its adjacency masks: a graph the benchmark touched before would make
a repetition cheaper than the first.

The library only ever receives generated inputs: edge-list text, graphs,
(a, b) pairs and sweep configs whose seeds are derived here from the
benchmark seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

PAIRS = ((1, 1), (1, 2), (2, 2))

# The subset scan's default cap: at or below it every infeasible verdict must
# carry a certificate.
SCAN_CAP = 20


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from the benchmark seed and corpus coordinates."""
    key = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class Item:
    """One call's input.

    ops > 1 marks a call that examines many inputs at once. Only items with
    latency_sample set feed the latency percentiles: a deterministic item
    repeated in every batch would put steps into the distribution.
    """

    kind: str
    a: int
    b: int
    n: int
    payload: object
    ops: int = 1
    latency_sample: bool = True


# -- checks shared by the workloads -------------------------------------------


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Independent reader for the edge-list texts this module writes."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n = int(rows[0][0])
    return n, [(int(u), int(v)) for u, v in rows[1:]]


def naive_delta(adj: list[set[int]], a: int, b: int, s) -> tuple[frozenset[int], int]:
    """b|S| + d_{G-S}(T) - a|T|, with T the vertices outside S of degree <= a in G-S."""
    s = frozenset(s)
    t = []
    degree_sum = 0
    for x in range(len(adj)):
        if x not in s:
            dx = len(adj[x] - s)
            if dx <= a:
                t.append(x)
                degree_sum += dx
    return frozenset(t), b * len(s) + degree_sum - a * len(t)


def certificate_ok(adj: list[set[int]], a: int, b: int, cert) -> bool:
    t, delta = naive_delta(adj, a, b, cert.s)
    return delta < 0 and t == cert.t and delta == cert.delta


def witness_ok(n: int, edges, a: int, b: int, values) -> bool:
    """Edge weights key exactly E, lie in [0, 1] and sum into [a, b] at every vertex."""
    if set(values) != set(edges):
        return False
    sums = [Fraction(0)] * n
    for (u, v), val in values.items():
        if not 0 <= val <= 1:
            return False
        sums[u] += val
        sums[v] += val
    return all(a <= total <= b for total in sums)


# -- machine speed ------------------------------------------------------------

_REFERENCE_ADJ = adjacency(12, [(u, (u + d) % 12) for u in range(12) for d in (1, 5)])
_REFERENCE_VALUES = {(u, v): Fraction(u + 1, v + 2) for u in range(12) for v in range(u + 1, 12)}


def reference_work() -> int:
    """Fixed pure-Python work that shares no code with fracfactor.

    Its run time gauges how fast the machine is at the moment: set algebra,
    list building, small integers and Fraction arithmetic, like the library.
    """
    total = 0
    for mask in range(1 << 10):
        s = [v for v in range(12) if mask >> v & 1]
        total += naive_delta(_REFERENCE_ADJ, 1, 2, s)[1]
    total += sum(_REFERENCE_VALUES.values()).numerator
    return total


# -- decide -------------------------------------------------------------------


class Decide:
    """parse_edge_list, find_fractional_factor, then the library's own check.

    Small sparse orders are mostly infeasible, so the certificate scan does
    most of the work; the large orders are above the scan cap, where only
    the flow build, Dinic and witness folding run.
    """

    name = "decide"
    SMALL_P = Fraction(1, 5)
    # order -> graphs per pair per batch. The counts put the median inside
    # the wide cluster of n = 10 scans and p90 inside the n = 14 scans, so
    # neither percentile sits on a boundary between clusters.
    SMALL = {10: 32, 12: 6, 14: 14, 16: 1}
    LARGE = {24: 4, 32: 4, 48: 4, 64: 4}  # edge probability 3/n

    def corpus(self, lib, seed: int, batch: int) -> list[Item]:
        items = []
        cells = [(n, self.SMALL_P, k) for n, k in self.SMALL.items()]
        cells += [(n, Fraction(3, n), k) for n, k in self.LARGE.items()]
        for a, b in PAIRS:
            for n, p, count in cells:
                for i in range(count):
                    g = lib.random_graph(n, p, derive_seed(seed, "decide", batch, a, b, n, i))
                    items.append(Item("decide", a, b, n, lib.format_edge_list(g)))
        return items

    def run(self, lib, item: Item):
        g = lib.parse_edge_list(item.payload)
        params = lib.FactorParams(item.a, item.b)
        result = lib.find_fractional_factor(g, params)
        if result:
            lib_ok = lib.validate_assignment(g, params, result).ok
        elif result.certificate is not None:
            cert = result.certificate
            lib_ok = lib.delta_st(g, params, cert.s) == (cert.t, cert.delta)
        else:
            lib_ok = True
        return result, lib_ok

    def check(self, item: Item, output) -> tuple[int, str, bool | None]:
        result, lib_ok = output
        n, edges = read_edge_list(item.payload)
        a, b = item.a, item.b
        head = f"{n}:{a},{b}"
        if result:
            ok = lib_ok and witness_ok(n, edges, a, b, result.values)
            return int(not ok), f"{head}:F", None
        cert = result.certificate
        if cert is None:
            # Above the scan cap the verdict comes bare; the digest records
            # only the verdict there, so certificates added later stay valid.
            return int(n <= SCAN_CAP), f"{head}:I", False
        ok = lib_ok and certificate_ok(adjacency(n, edges), a, b, cert)
        delta = cert.delta if n <= SCAN_CAP else ""
        return int(not ok), f"{head}:I:{delta}", True


# -- critical -----------------------------------------------------------------


class Critical:
    """is_fractional_id_factor_critical on random graphs, plus verify_sharpness.

    Dense random graphs are mostly critical, so each op walks every
    independent set. The denser p = 2/3 is used at the top orders, where a
    non-critical verdict at p = 1/2 would add a certificate scan over up to
    2^19 subsets to a workload that is meant to leave the scan alone.
    """

    name = "critical"
    RANDOM = ((Fraction(1, 2), (14, 15, 16, 17)), (Fraction(2, 3), (17, 18, 19, 20)))
    PER_CELL = 2  # graphs per (p, n, pair) per batch
    # Extremal instances of order at most 20, so verify_sharpness runs the
    # criticality check on each: kind -> pair -> t values.
    SHARPNESS = {
        "neighborhood-extremal": {(1, 1): (1, 2, 3, 4, 5, 6), (1, 2): (1, 2, 3), (2, 2): (1, 2, 3)},
        "degree-extremal": {(1, 1): (2, 4, 6), (1, 2): (2, 3, 4), (2, 2): (1, 2, 3)},
    }

    def corpus(self, lib, seed: int, batch: int) -> list[Item]:
        items = []
        for a, b in PAIRS:
            for p, orders in self.RANDOM:
                for n in orders:
                    for i in range(self.PER_CELL):
                        g = lib.random_graph(n, p, derive_seed(seed, "critical", batch, a, b, n, p, i))
                        items.append(Item("random", a, b, n, (g, tuple(g.edges()))))
        for kind, pairs in self.SHARPNESS.items():
            for (a, b), ts in pairs.items():
                items += [
                    Item("sharpness", a, b, 0, (kind, t), latency_sample=False) for t in ts
                ]
        return items

    def run(self, lib, item: Item):
        params = lib.FactorParams(item.a, item.b)
        if item.kind == "random":
            return lib.is_fractional_id_factor_critical(item.payload[0], params)
        kind, t = item.payload
        return lib.verify_sharpness(kind, params, t)

    def check(self, item: Item, output) -> tuple[int, str, bool | None]:
        a, b = item.a, item.b
        if item.kind == "sharpness":
            kind, t = item.payload
            checks = ",".join(f"{c.name}={int(c.passed)}" for c in output.checks)
            ok = output.required_ok and not output.criticality_skipped
            return int(not ok), f"{kind}:{a},{b}:{t}:{output.n}:{checks}", None
        report = output
        head = f"{item.n}:{a},{b}"
        if report.verdict:
            return int(report.independent_sets_checked < 1), f"{head}:T", None
        edges = item.payload[1]
        adj = adjacency(item.n, edges)
        bad = sorted(report.failing_set)
        ok = all(not (adj[v] & report.failing_set) for v in bad)
        kept = [v for v in range(item.n) if v not in report.failing_set]
        remap = {old: new for new, old in enumerate(kept)}
        sub = adjacency(
            len(kept),
            [(remap[u], remap[v]) for u, v in edges if u in remap and v in remap],
        )
        cert = report.failing_certificate
        ok = ok and report.vertex_map == remap and cert is not None
        ok = ok and certificate_ok(sub, a, b, cert)
        return int(not ok), f"{head}:F:{bad}", cert is not None


# -- sweep --------------------------------------------------------------------


class Sweep:
    """run_sweep over the exhaustive n <= 6 ensemble and random G(16, 3/4).

    One op is one (graph, pair) examined. The exhaustive ensemble is one
    run_sweep call per pair (33,867 ops each); every random graph is a
    run_sweep call of its own, so those ops also give latency samples.
    """

    name = "sweep"
    EXHAUSTIVE_MAX_N = 6
    EXHAUSTIVE_OPS = sum(2 ** (n * (n - 1) // 2) for n in range(1, EXHAUSTIVE_MAX_N + 1))
    RANDOM_N = 16
    RANDOM_P = Fraction(3, 4)
    RANDOM_PER_PAIR = 40

    def corpus(self, lib, seed: int, batch: int) -> list[Item]:
        items = []
        for a, b in PAIRS:
            config = lib.SweepConfig(pairs=((a, b),), exhaustive_max_n=self.EXHAUSTIVE_MAX_N)
            items.append(
                Item("exhaustive", a, b, self.EXHAUSTIVE_MAX_N, config, self.EXHAUSTIVE_OPS, False)
            )
            for i in range(self.RANDOM_PER_PAIR):
                config = lib.SweepConfig(
                    pairs=((a, b),),
                    random_orders=(self.RANDOM_N,),
                    random_probabilities=(self.RANDOM_P,),
                    random_samples=1,
                    seed=derive_seed(seed, "sweep", batch, i),
                )
                items.append(Item("random", a, b, self.RANDOM_N, config))
        return items

    def run(self, lib, item: Item):
        return lib.run_sweep(item.payload)

    def check(self, item: Item, output) -> tuple[int, str, bool | None]:
        (s,) = output.summaries
        failed = len(s.counterexamples) + abs(s.condition_passing - s.criticality_confirmed)
        failed += abs(s.graphs_examined - item.ops)
        token = (
            f"{item.kind}:{s.a},{s.b}:{s.graphs_examined}:{s.condition_passing}:"
            f"{s.criticality_confirmed}:{s.invariant_checks}:{len(s.counterexamples)}"
        )
        return min(failed, item.ops), token, None


WORKLOADS = {w.name: w for w in (Decide(), Critical(), Sweep())}
