"""Sweep harness: hunt for counterexamples to the criticality conditions.

A sweep walks a graph ensemble (exhaustive over all labeled graphs up to a
small order, seeded random samples, or both), and for every graph that
satisfies all three conditions it demands criticality and audits the two
derived deletion invariants on every maximal independent set. Any failure is
recorded as a counterexample with enough data to replay it.

Of the labeled graphs, only those that meet the order and minimum-degree
conditions are built and checked; the rest cannot pass, so they are counted
in graphs_examined without being built.

Sweeps are deterministic: random graphs get per-instance seeds derived by
hashing the base seed with the instance coordinates, and results are
aggregated in a canonical order.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .conditions import (
    check_criticality_conditions,
    check_deletion_invariants,
    degree_margin,
    order_margin,
)
from .criticality import (
    CRITICALITY_BUDGET,
    is_fractional_id_factor_critical,
    maximal_independent_sets,
)
from .constructions import parse_probability, random_graph
from .errors import InputError, ResourceLimitError
from .factor import FactorParams
from .graphs import Graph, require_order

# Labeled graphs on up to 7 vertices: 2,131,019 of them. Only (1, 1) meets the
# order bound below n = 8; its sweep builds the 17,681 that meet the degree
# bound too, and takes about 3.7 s (CPython 3.11 on a 2-core Xeon), under
# 0.1 s of it building their masks. Order 8 alone adds 2^28 masks.
EXHAUSTIVE_ORDER_LIMIT = 7

# Random graphs per pair (SweepConfig.random_instances).
RANDOM_INSTANCE_LIMIT = 1_000_000


@dataclass(frozen=True)
class SweepConfig:
    pairs: tuple[tuple[int, int], ...]
    exhaustive_max_n: int | None = None
    random_orders: tuple[int, ...] = ()
    random_probabilities: tuple[Fraction, ...] = ()
    random_samples: int = 0
    seed: int = 0
    output_path: str | None = None

    @property
    def random_instances(self) -> int:
        """Random graphs drawn per pair: orders x probabilities x samples."""
        return len(self.random_orders) * len(self.random_probabilities) * self.random_samples

    def __post_init__(self) -> None:
        if not self.pairs:
            raise InputError("sweep config lists no (a, b) pairs")
        for pair in self.pairs:
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise InputError(f"pair {pair!r} must be an (a, b) pair")
            FactorParams(*pair)
        integers = [("random samples", self.random_samples), ("seed", self.seed)]
        integers += [("random order", x) for x in self.random_orders]
        if self.exhaustive_max_n is not None:
            integers.append(("exhaustive max_n", self.exhaustive_max_n))
        for name, value in integers:
            if type(value) is not int:  # a bool is refused too
                raise InputError(f"{name} must be an integer, got {value!r}")
        for p in self.random_probabilities:
            # derive_seed hashes str(p), so a float would draw other graphs than its Fraction
            if type(p) is not int and type(p) is not Fraction:  # a bool is refused too
                raise InputError(f"probability must be an integer or a Fraction, got {p!r}")
        has_random = bool(self.random_orders)
        if has_random:
            if min(self.random_orders) < 1:
                raise InputError(f"random orders must be >= 1, got {min(self.random_orders)}")
            if not self.random_probabilities:
                raise InputError("random ensemble needs at least one probability")
            if self.random_samples < 1:
                raise InputError("random ensemble needs samples >= 1")
            for p in self.random_probabilities:
                if not 0 <= p <= 1:
                    raise InputError(f"probability {p} outside [0, 1]")
            for name, values in (
                ("order", self.random_orders),
                ("probability", self.random_probabilities),
            ):
                repeated = [x for x, count in Counter(values).items() if count > 1]
                if repeated:
                    raise InputError(f"random {name} {repeated[0]} is listed more than once")
            if self.random_instances > RANDOM_INSTANCE_LIMIT:
                raise ResourceLimitError(
                    f"random ensemble of {self.random_instances} graphs per pair exceeds "
                    f"the cap of {RANDOM_INSTANCE_LIMIT}"
                )
            require_order(max(self.random_orders))
        if self.exhaustive_max_n is None and not has_random:
            raise InputError("sweep config selects no ensemble")
        if self.exhaustive_max_n is not None:
            if self.exhaustive_max_n < 1:
                raise InputError("exhaustive max_n must be >= 1")
            if self.exhaustive_max_n > EXHAUSTIVE_ORDER_LIMIT:
                raise ResourceLimitError(
                    f"exhaustive max_n {self.exhaustive_max_n} exceeds the cap of "
                    f"{EXHAUSTIVE_ORDER_LIMIT}"
                )


def parse_sweep_config(text: str) -> SweepConfig:
    """Read the key-value sweep format (see README for a worked example)."""
    parser = ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except ConfigParserError as exc:
        raise InputError(f"malformed sweep config: {exc}") from exc
    unknown = sorted(set(parser.sections()) - {"params", "exhaustive", "random", "output"})
    if unknown:
        raise InputError(f"unknown sweep config section(s): {', '.join(unknown)}")

    try:
        fields: dict = {
            "pairs": tuple(
                _parse_pair(tok) for tok in parser.get("params", "pairs", fallback="").split()
            )
        }
        if parser.has_section("exhaustive"):
            fields["exhaustive_max_n"] = parser.getint("exhaustive", "max_n")
        if parser.has_section("random"):
            fields["random_orders"] = tuple(
                int(tok) for tok in parser.get("random", "orders").split()
            )
            fields["random_probabilities"] = tuple(
                parse_probability(tok) for tok in parser.get("random", "probabilities").split()
            )
            fields["random_samples"] = parser.getint("random", "samples")
            if parser.has_option("random", "seed"):
                fields["seed"] = parser.getint("random", "seed")
        if parser.has_option("output", "path"):
            fields["output_path"] = parser.get("output", "path")
    except (ValueError, ZeroDivisionError, ConfigParserError) as exc:
        raise InputError(f"malformed sweep config: {exc}") from exc
    return SweepConfig(**fields)  # checked here, outside the try: InputError is a ValueError


def _parse_pair(token: str) -> tuple[int, int]:
    parts = token.split(",")
    if len(parts) != 2:
        raise ValueError(f"pair {token!r} must look like 'a,b'")
    return int(parts[0]), int(parts[1])


def derive_seed(base: int, *coords: object) -> int:
    """Stable per-instance seed: hash of the base seed and coordinates."""
    key = ":".join([str(base), *(str(c) for c in coords)])
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class Counterexample:
    source: str
    a: int
    b: int
    kind: str  # "criticality" or "invariants"
    n: int
    edges: tuple[tuple[int, int], ...]
    details: dict

    def to_dict(self) -> dict:
        return asdict(self) | {"edges": [list(e) for e in self.edges]}


@dataclass
class PairSummary:
    a: int
    b: int
    graphs_examined: int = 0
    condition_passing: int = 0
    criticality_confirmed: int = 0
    invariant_checks: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self) | {"counterexamples": [c.to_dict() for c in self.counterexamples]}


@dataclass
class SweepResult:
    summaries: list[PairSummary]

    @property
    def counterexample_count(self) -> int:
        return sum(len(s.counterexamples) for s in self.summaries)

    def to_dict(self) -> dict:
        return {
            "counterexamples": self.counterexample_count,
            "pairs": [s.to_dict() for s in self.summaries],
        }


def _degree_floor(n: int, params: FactorParams) -> int | None:
    """The least minimum degree that meets the degree condition at order n.

    None when no graph of order n can pass: the order condition fails, or no
    degree below n meets the degree condition.
    """
    if order_margin(n, params) < 0:
        return None
    return next((d for d in range(n) if degree_margin(n, d, params) >= 0), None)


def _ensemble_size(config: SweepConfig) -> int:
    """Number of (source tag, graph) instances in the configured ensemble."""
    size = config.random_instances
    if config.exhaustive_max_n is not None:
        size += sum(1 << (n * (n - 1) // 2) for n in range(1, config.exhaustive_max_n + 1))
    return size


def _masks_with_min_degree(
    n: int, floor: int
) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """(mask, edges) for each n-vertex edge mask of minimum degree >= floor, increasing.

    Bit i of a mask is slot i of combinations(range(n), 2), and edges lists
    the slots the mask sets, in slot order. Slot bits are decided from the
    highest slot down, 0 before 1, which visits masks in increasing order. A
    0 at slot uv costs u and v one of the n - 1 - floor non-edges each can
    afford, and is refused when either has none left. A 1 costs nothing, so
    every branch ends in a mask.
    """
    slots = list(combinations(range(n), 2))
    spare = [n - 1 - floor] * n
    edges: list[tuple[int, int]] = []  # the 1 slots decided so far, highest first

    def fill(i: int, mask: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
        if i < 0:
            yield mask, edges[::-1]
            return
        u, v = slots[i]
        if spare[u] and spare[v]:
            spare[u] -= 1
            spare[v] -= 1
            yield from fill(i - 1, mask)
            spare[u] += 1
            spare[v] += 1
        edges.append(slots[i])
        yield from fill(i - 1, mask | 1 << i)
        edges.pop()

    return fill(len(slots) - 1, 0)


def _ensemble(config: SweepConfig, params: FactorParams) -> Iterator[tuple[str, Graph]]:
    """The (source tag, graph) instances of the ensemble that can pass under params.

    Exhaustive orders yield, in increasing edge-mask order, only the labeled
    graphs that meet the order and minimum-degree conditions; every other
    labeled graph fails check_criticality_conditions, so none is built.
    Random graphs are all yielded.
    """
    if config.exhaustive_max_n is not None:
        for n in range(1, config.exhaustive_max_n + 1):
            floor = _degree_floor(n, params)
            if floor is None:
                continue
            for mask, edges in _masks_with_min_degree(n, floor):
                yield f"exhaustive/n={n}/mask={mask}", Graph(n, edges)
    for n in config.random_orders:
        for p in config.random_probabilities:
            for i in range(config.random_samples):
                seed = derive_seed(config.seed, n, p, i)
                yield (
                    f"random/n={n}/p={p}/sample={i}",
                    random_graph(n, p, seed),
                )


def run_sweep(config: SweepConfig) -> SweepResult:
    summaries = []
    for a, b in sorted(set(config.pairs)):
        params = FactorParams(a, b)
        summary = PairSummary(a=a, b=b, graphs_examined=_ensemble_size(config))
        for source, g in _ensemble(config, params):
            report = check_criticality_conditions(g, params)
            if not report.all_ok:
                continue
            summary.condition_passing += 1

            crit = is_fractional_id_factor_critical(g, params)
            if crit.independent_sets_checked > CRITICALITY_BUDGET:  # the audit walks them all
                raise ResourceLimitError(
                    f"invariant audit over {crit.independent_sets_checked} sets exceeds the budget"
                )
            failures = []
            if crit.verdict:
                summary.criticality_confirmed += 1
            else:
                details = {"conditions": report.to_dict(), "criticality": crit.to_dict()}
                failures.append(("criticality", details))
            for ind in maximal_independent_sets(g):
                audit = check_deletion_invariants(g, params, ind, report)
                summary.invariant_checks += 1
                if not audit.consistent:
                    details = {"independent_set": sorted(ind), "audit": audit.to_dict()}
                    failures.append(("invariants", details))
            if failures:
                edges = tuple(g.edges())
                summary.counterexamples += [
                    Counterexample(source, a, b, kind, g.n, edges, details)
                    for kind, details in failures
                ]
        summaries.append(summary)
    return SweepResult(summaries=summaries)
