"""Sweep harness: hunt for counterexamples to the criticality conditions.

A sweep walks a graph ensemble (exhaustive over all labeled graphs up to a
small order, seeded random samples, or both), and for every graph that
satisfies all three conditions it demands criticality and audits the two
derived deletion invariants on every maximal independent set. Any failure is
recorded as a counterexample with enough data to replay it.

Sweeps are deterministic: random graphs get per-instance seeds derived by
hashing the base seed with the instance coordinates, and results are
aggregated in a canonical order.
"""

from __future__ import annotations

import hashlib
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .conditions import check_criticality_conditions, check_deletion_invariants
from .criticality import (
    DEFAULT_CRITICALITY_LIMIT,
    is_fractional_id_factor_critical,
    maximal_independent_sets,
)
from .constructions import random_graph
from .errors import InputError
from .factor import FactorParams
from .graphs import Graph


@dataclass(frozen=True)
class SweepConfig:
    pairs: tuple[tuple[int, int], ...]
    exhaustive_max_n: int | None = None
    random_orders: tuple[int, ...] = ()
    random_probabilities: tuple[Fraction, ...] = ()
    random_samples: int = 0
    seed: int = 0
    output_path: str | None = None

    def validate(self) -> None:
        if not self.pairs:
            raise InputError("sweep config lists no (a, b) pairs")
        for a, b in self.pairs:
            FactorParams(a, b)
        has_random = bool(self.random_orders)
        if has_random:
            if not self.random_probabilities:
                raise InputError("random ensemble needs at least one probability")
            if self.random_samples < 1:
                raise InputError("random ensemble needs samples >= 1")
            for p in self.random_probabilities:
                if not 0 <= p <= 1:
                    raise InputError(f"probability {p} outside [0, 1]")
        if self.exhaustive_max_n is None and not has_random:
            raise InputError("sweep config selects no ensemble")
        orders = list(self.random_orders)
        if self.exhaustive_max_n is not None:
            if self.exhaustive_max_n < 1:
                raise InputError("exhaustive max_n must be >= 1")
            orders.append(self.exhaustive_max_n)
        top = max(orders)
        if top > DEFAULT_CRITICALITY_LIMIT:
            raise InputError(
                f"ensemble reaches order {top}, above the criticality cap "
                f"{DEFAULT_CRITICALITY_LIMIT}"
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
        pairs = tuple(
            _parse_pair(tok) for tok in parser.get("params", "pairs", fallback="").split()
        )
        exhaustive_max_n = None
        if parser.has_section("exhaustive"):
            exhaustive_max_n = parser.getint("exhaustive", "max_n")
        orders: tuple[int, ...] = ()
        probabilities: tuple[Fraction, ...] = ()
        samples = 0
        seed = 0
        if parser.has_section("random"):
            orders = tuple(int(tok) for tok in parser.get("random", "orders").split())
            probabilities = tuple(
                Fraction(tok) for tok in parser.get("random", "probabilities").split()
            )
            samples = parser.getint("random", "samples")
            seed = parser.getint("random", "seed", fallback=0)
        output_path = parser.get("output", "path", fallback=None)
    except (ValueError, ZeroDivisionError, ConfigParserError) as exc:
        raise InputError(f"malformed sweep config: {exc}") from exc

    config = SweepConfig(
        pairs=pairs,
        exhaustive_max_n=exhaustive_max_n,
        random_orders=orders,
        random_probabilities=probabilities,
        random_samples=samples,
        seed=seed,
        output_path=output_path,
    )
    config.validate()
    return config


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
        return {
            "source": self.source,
            "a": self.a,
            "b": self.b,
            "kind": self.kind,
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "details": self.details,
        }


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
        return {
            "a": self.a,
            "b": self.b,
            "graphs_examined": self.graphs_examined,
            "condition_passing": self.condition_passing,
            "criticality_confirmed": self.criticality_confirmed,
            "invariant_checks": self.invariant_checks,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
        }


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


def _ensemble(config: SweepConfig) -> Iterator[tuple[str, Graph]]:
    """All (source tag, graph) instances of the configured ensemble."""
    if config.exhaustive_max_n is not None:
        for n in range(1, config.exhaustive_max_n + 1):
            slots = list(combinations(range(n), 2))
            for mask in range(1 << len(slots)):
                edges = [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
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
    config.validate()
    summaries = []
    for a, b in sorted(set(config.pairs)):
        params = FactorParams(a, b)
        summary = PairSummary(a=a, b=b)
        for source, g in _ensemble(config):
            summary.graphs_examined += 1
            report = check_criticality_conditions(g, params)
            if not report.all_ok:
                continue
            summary.condition_passing += 1

            crit = is_fractional_id_factor_critical(g, params)
            if crit.verdict:
                summary.criticality_confirmed += 1
            else:
                summary.counterexamples.append(
                    Counterexample(
                        source=source,
                        a=a,
                        b=b,
                        kind="criticality",
                        n=g.n,
                        edges=tuple(g.edges()),
                        details={
                            "conditions": report.to_dict(),
                            "criticality": crit.to_dict(),
                        },
                    )
                )

            for ind in maximal_independent_sets(g):
                audit = check_deletion_invariants(g, params, ind)
                summary.invariant_checks += 1
                if not audit.consistent:
                    summary.counterexamples.append(
                        Counterexample(
                            source=source,
                            a=a,
                            b=b,
                            kind="invariants",
                            n=g.n,
                            edges=tuple(g.edges()),
                            details={
                                "independent_set": sorted(ind),
                                "audit": audit.to_dict(),
                            },
                        )
                    )
        summaries.append(summary)
    return SweepResult(summaries=summaries)
