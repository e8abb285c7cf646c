"""Acceptance gate: one test per top-level guarantee, one printed line each.

Each test prints a single pass/fail line on the real terminal (bypassing
capture) so a full run reads as a seven-line scoreboard. Stated runtime
budgets are asserted, with generous slack left between the measured times
and the limits.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from fracfactor import (
    FactorParams,
    FractionalAssignment,
    Graph,
    Infeasible,
    SweepConfig,
    delta_st,
    find_fractional_factor,
    has_fractional_factor_bruteforce,
    is_fractional_id_factor_critical,
    min_degree_extremal_graph,
    neighborhood_extremal_graph,
    order_margin,
    run_sweep,
    validate_assignment,
)
from fracfactor.conditions import check_criticality_conditions
from fracfactor.constructions import random_graph
from fracfactor.graphs import complete_multipartite_graph
from fracfactor.sweep import derive_seed

from standard_graphs import complete_graph, cycle_graph, path_graph

BASE_SEED = 20260819


@contextmanager
def scoreboard(capsys, number, label):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(
                f"[acceptance] criterion {number} ({label}): "
                f"{'PASS' if ok else 'FAIL'} in {elapsed:.1f}s"
            )


def test_criterion_1_neighborhood_extremal_family(capsys):
    with scoreboard(capsys, 1, "neighborhood-extremal family"):
        start = time.perf_counter()
        for a, b in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            params = FactorParams(a, b)
            for t in (1, 2):
                g, labels = neighborhood_extremal_graph(params, t)
                assert g.n == (a + 2 * b) * t + 1

                # deleting the middle part and then cutting the small part
                # leaves a deficiency of exactly -a
                bt_part = labels.part_map["btK1"]
                h, remap = g.delete_vertices(bt_part)
                s_image = frozenset(remap[v] for v in labels.part_map["atK1"])
                _, deficiency = delta_st(h, params, s_image)
                assert deficiency == -a

                report = is_fractional_id_factor_critical(g, params)
                assert report.verdict is False
                assert has_fractional_factor_bruteforce(h, params) is not True
                # first failure in (size, lex) order; for a == b the small
                # part is an isomorphic twin of the middle part and sorts first
                expected = "btK1" if a < b else "atK1"
                assert report.failing_set == labels.part_map[expected]
        assert time.perf_counter() - start < 10.0


def test_criterion_2_degree_extremal_family(capsys):
    with scoreboard(capsys, 2, "degree-extremal family"):
        start = time.perf_counter()
        for a, b, t in [(1, 1, 2), (1, 2, 2), (2, 2, 1), (2, 2, 2)]:
            params = FactorParams(a, b)
            g, labels = min_degree_extremal_graph(params, t)
            assert g.n == (a + 2 * b) * t
            assert g.min_degree() == b * t + a - 1

            (u,) = labels.part_map["u"]
            h, remap = g.delete_vertices(labels.part_map["btK1"])
            assert h.degree(remap[u]) == a - 1
            assert isinstance(find_fractional_factor(h, params), Infeasible)
        assert time.perf_counter() - start < 10.0


def test_criterion_3_oracle_solver_agreement(capsys):
    with scoreboard(capsys, 3, "oracle and solver agree"):
        start = time.perf_counter()
        pairs = [FactorParams(1, 1), FactorParams(1, 2), FactorParams(2, 2)]

        def check_instance(g):
            for params in pairs:
                brute = has_fractional_factor_bruteforce(g, params)
                solved = find_fractional_factor(g, params)
                feasible = isinstance(solved, FractionalAssignment)
                assert feasible == (brute is True)
                if feasible:
                    assert validate_assignment(g, params, solved).ok
                    assert all(val.denominator in (1, 2) for val in solved.values.values())

        slots = list(combinations(range(6), 2))
        for mask in range(1 << len(slots)):
            edges = [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
            check_instance(Graph(6, edges))

        count = 0
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            quota = 334 if p == Fraction(1, 4) else 333
            for i in range(quota):
                check_instance(random_graph(9, p, derive_seed(BASE_SEED, 9, p, i)))
                count += 1
        assert count == 1000
        assert time.perf_counter() - start < 300.0


def test_criterion_4_verification_sweep(capsys):
    with scoreboard(capsys, 4, "no counterexample in the sweep"):
        start = time.perf_counter()
        exhaustive = run_sweep(SweepConfig(pairs=((1, 1),), exhaustive_max_n=6))
        assert exhaustive.counterexample_count == 0
        (summary,) = exhaustive.summaries
        assert summary.graphs_examined == sum(1 << (n * (n - 1) // 2) for n in range(1, 7))
        assert summary.condition_passing > 0
        assert summary.criticality_confirmed == summary.condition_passing
        assert summary.invariant_checks > 0

        randomized = run_sweep(
            SweepConfig(
                pairs=((1, 1), (1, 2)),
                random_orders=(9, 12),
                random_probabilities=(Fraction(1, 2),),
                random_samples=500,
                seed=BASE_SEED,
            )
        )
        assert randomized.counterexample_count == 0
        for summary in randomized.summaries:
            assert summary.graphs_examined == 2 * 500
            assert summary.criticality_confirmed == summary.condition_passing
        assert time.perf_counter() - start < 600.0


def test_criterion_5_uniform_bound_thresholds(capsys):
    with scoreboard(capsys, 5, "equal-bounds thresholds"):
        for k in range(1, 11):
            # the least order meeting the order condition is 12k - 8
            params = FactorParams(k, k)
            assert order_margin(12 * k - 8, params) == k - 1
            assert order_margin(12 * k - 9, params) == -1


def test_criterion_6_neighborhood_margin_window(capsys):
    with scoreboard(capsys, 6, "worst pair sits in the open margin window"):
        for a, b in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            params = FactorParams(a, b)
            for t in (1, 2):
                g, _ = neighborhood_extremal_graph(params, t)
                report = check_criticality_conditions(g, params)
                u = report.worst_union_size
                assert u == (a + b) * t
                assert (a + 2 * b) * u < (a + b) * g.n
                assert (a + 2 * b) * (u + 1) > (a + b) * g.n


def test_criterion_7_hand_computable_fixtures(capsys):
    with scoreboard(capsys, 7, "hand-computed fixtures"):
        one = FactorParams(1, 1)

        result = find_fractional_factor(path_graph(3), one)
        assert isinstance(result, Infeasible)
        assert result.certificate.delta == -1

        star = complete_multipartite_graph((1, 3))
        result = find_fractional_factor(star, one)
        assert isinstance(result, Infeasible)
        assert result.certificate.delta == -2

        halves = FractionalAssignment(
            {e: Fraction(1, 2) for e in cycle_graph(4).edges()}
        )
        assert validate_assignment(cycle_graph(4), one, halves).ok
        assert isinstance(find_fractional_factor(cycle_graph(4), one), FractionalAssignment)

        triangle = find_fractional_factor(complete_graph(3), one)
        assert triangle.values == {e: Fraction(1, 2) for e in complete_graph(3).edges()}
