"""Self-tests of the benchmark: corpus determinism, tracer accounting,
patch restoration, and that wrong outputs are counted as failures."""

from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import fracfactor as lib  # noqa: E402
import run  # noqa: E402
from tracer import METHOD_TARGETS, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Item  # noqa: E402

DECIDE, CRITICAL, SWEEP = (WORKLOADS[n] for n in ("decide", "critical", "sweep"))


def small_items() -> dict[str, list[Item]]:
    """A few cheap ops per workload, with feasible and infeasible verdicts."""
    decide = []
    for a, b in ((1, 1), (1, 2), (2, 2)):
        for n, p, seed in ((9, Fraction(1, 5), 3), (9, Fraction(1, 2), 4), (24, Fraction(1, 8), 5)):
            text = lib.format_edge_list(lib.random_graph(n, p, seed))
            decide.append(Item("decide", a, b, n, text))
    critical = []
    for a, b in ((1, 1), (2, 2)):
        g = lib.random_graph(9, Fraction(1, 2), 7)
        critical.append(Item("random", a, b, 9, (g, tuple(g.edges()))))
    critical.append(Item("sharpness", 1, 1, 0, ("neighborhood-extremal", 2)))
    config = lib.SweepConfig(
        pairs=((1, 1),), random_orders=(9,), random_probabilities=(Fraction(3, 4),),
        random_samples=1, seed=11,
    )
    sweep = [Item("random", 1, 1, 9, config)]
    return {"decide": decide, "critical": critical, "sweep": sweep}


def fail_frac(workload, items) -> float:
    records = run.execute(workload, lib, items, run.Gauge())
    return sum(r.failed for r in records) / sum(r.ops for r in records)


def module_snapshot() -> dict:
    modules = [m for name, m in sys.modules.items() if name.startswith("fracfactor")]
    snap = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for _, module, cls, attr, _ in METHOD_TARGETS:
        snap[(module, cls, attr)] = vars(getattr(sys.modules[module], cls))[attr]
    return snap


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corpus_is_a_function_of_seed_and_batch(name):
    workload = WORKLOADS[name]
    first = workload.corpus(lib, 5, 0)
    assert first == workload.corpus(lib, 5, 0)
    assert first != workload.corpus(lib, 6, 0)
    assert first != workload.corpus(lib, 5, 1)


def test_traced_self_times_sum_to_traced_wall_time():
    corpus = small_items()
    gauge = run.Gauge()
    tracer = Tracer()
    tracer.install()
    try:
        records = []
        for name, items in corpus.items():
            records += run.execute(WORKLOADS[name], lib, items, gauge, tracer)
    finally:
        tracer.uninstall()
    assert all(r.failed == 0 for r in records)
    assert sum(tracer.self_s) == pytest.approx(tracer.root_s, rel=1e-9, abs=1e-12)
    assert tracer.root_s <= sum(r.latency_s for r in records)
    assert tracer.root_s == pytest.approx(sum(r.latency_s for r in records), rel=0.05)
    n = len(tracer.span_start)
    assert n == sum(tracer.calls)
    for i in range(n):
        parent = tracer.span_parent[i]
        assert tracer.span_start[i] <= tracer.span_end[i]
        if parent >= 0:
            assert parent < i
            assert tracer.span_start[parent] <= tracer.span_start[i]
            assert tracer.span_end[i] <= tracer.span_end[parent]
    for span in ("graphs.build", "factor.solve", "factor.scan", "maxflow.max_flow",
                 "criticality.check", "criticality.enumerate", "criticality.maximal",
                 "conditions.invariants", "sweep.run_sweep"):
        assert tracer.stat(span)[0] > 0, span
    assert tracer.counters["maxflow.add_edge"] > 0
    assert tracer.counters["sweep.graphs_examined"] == 1


def test_install_wraps_importers_and_uninstall_restores_every_name():
    before = module_snapshot()
    originals = {attr: getattr(sys.modules[module], attr) for _, module, attr, _ in TARGETS}
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.criticality.find_fractional_factor is not originals["find_fractional_factor"]
        assert lib.criticality.find_fractional_factor is lib.factor.find_fractional_factor
        assert lib.sweep.check_criticality_conditions is not originals["check_criticality_conditions"]
        assert lib.sweep.maximal_independent_sets is not originals["maximal_independent_sets"]
        assert lib.sweep.random_graph is not originals["random_graph"]
        assert lib.factor.feasible_flow is not originals["feasible_flow"]
        assert lib.find_fractional_factor is not originals["find_fractional_factor"]
        assert module_snapshot() != before
    finally:
        tracer.uninstall()
    assert module_snapshot() == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_correct_outputs_pass_their_checks(name):
    assert fail_frac(WORKLOADS[name], small_items()[name]) == 0


def test_wrong_decide_verdicts_and_certificates_fail(monkeypatch):
    items = small_items()["decide"]
    real = lib.find_fractional_factor

    def bare(g, params, **kw):
        result = real(g, params, **kw)
        return result if result else lib.Infeasible()

    def shifted(g, params, **kw):
        result = real(g, params, **kw)
        if result or result.certificate is None:
            return result
        cert = result.certificate
        return lib.Infeasible(lib.ViolationCertificate(cert.s, cert.t, cert.delta - 1))

    def flipped(g, params, **kw):
        result = real(g, params, **kw)
        if result:
            return lib.Infeasible()
        return lib.FractionalAssignment({e: Fraction(1) for e in g.edges()})

    for fake in (bare, shifted, flipped):
        monkeypatch.setattr(lib, "find_fractional_factor", fake)
        assert fail_frac(DECIDE, items) > 0, fake.__name__


def test_wrong_criticality_reports_fail(monkeypatch):
    items = [i for i in small_items()["critical"] if i.kind == "random"]

    def first_edge_fails(g, params, **kw):
        u, v = g.edges()[0]
        return lib.CriticalityReport(
            verdict=False, independent_sets_checked=1, failing_set=frozenset({u, v})
        )

    monkeypatch.setattr(lib, "is_fractional_id_factor_critical", first_edge_fails)
    assert fail_frac(CRITICAL, items) == 1


def test_wrong_sweep_summaries_fail(monkeypatch):
    items = small_items()["sweep"]
    real = lib.run_sweep

    def unconfirmed(config):
        result = real(config)
        result.summaries[0].criticality_confirmed -= 1
        return result

    monkeypatch.setattr(lib, "run_sweep", unconfirmed)
    assert fail_frac(SWEEP, items) > 0


def test_reference_digest_mismatch_counts_as_failure():
    records = [run.Record(1, 0.0, 0.0, 0, token, None) for token in ("a", "b")]
    digests = {"decide": ["a", "b"]}
    assert run.reference_failures(DECIDE, records, digests) == 0
    records[1].token = "c"
    assert run.reference_failures(DECIDE, records, digests) == 1
    assert run.reference_failures(DECIDE, records[:1], digests) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
