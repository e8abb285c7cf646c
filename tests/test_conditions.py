from fractions import Fraction
from itertools import combinations

import pytest

from fracfactor import (
    FactorParams,
    Graph,
    InputError,
    check_criticality_conditions,
    check_deletion_invariants,
    complete_multipartite_graph,
    degree_margin,
    maximal_independent_sets,
    neighborhood_margin,
    order_margin,
    random_graph,
)
from fracfactor.sweep import _degree_floor

from oracle import adjacency
from standard_graphs import complete_graph, cycle_graph, empty_graph, path_graph

P11 = FactorParams(1, 1)
PAIRS = [FactorParams(a, b) for a, b in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))]


def test_order_threshold_values():
    # the threshold (a+2b)(2a+2b-3)+1 is what b*n must reach: the margin at n = 0
    assert order_margin(0, P11) == -4  # 3 * 1 + 1
    assert order_margin(0, FactorParams(1, 2)) == -16  # 5 * 3 + 1
    assert order_margin(0, FactorParams(2, 3)) == -57  # 8 * 7 + 1


def test_order_condition_boundaries():
    assert order_margin(4, P11) == 0
    assert order_margin(3, P11) == -1
    # a=1, b=2: need 2n >= 16
    assert order_margin(8, FactorParams(1, 2)) == 0
    assert order_margin(7, FactorParams(1, 2)) == -2


def test_degree_condition_exact_form():
    # (a+2b) * delta >= b*n + a*(a+2b); for K_n delta = n-1
    assert degree_margin(4, 3, P11) == 2  # 9 - 7
    assert degree_margin(4, 2, P11) == -1  # 6 - 7
    params = FactorParams(2, 3)
    # 8 * delta >= 3n + 16
    assert degree_margin(16, 8, params) == 0
    assert degree_margin(16, 7, params) == -8


def test_neighborhood_condition_exact_form():
    # (a+2b) * u >= (a+b) * n
    assert neighborhood_margin(6, 4, P11) == 0  # 12 - 12
    assert neighborhood_margin(6, 3, P11) == -3


def test_complete_graph_report_vacuous_neighborhood():
    report = check_criticality_conditions(complete_graph(5), P11)
    assert report.worst_pair is None
    assert report.neighborhood_ok
    assert report.neighborhood_margin is None
    assert report.all_ok
    assert report.min_degree == 4


def test_complete_graphs_pass_for_k1_from_n4():
    for n in range(4, 9):
        report = check_criticality_conditions(complete_graph(n), P11)
        assert report.all_ok
    assert not check_criticality_conditions(complete_graph(3), P11).all_ok


def test_worst_pair_selection():
    # path 0-1-2-3: nonadjacent pairs and their unions:
    # (0,2)->{1,3}, (0,3)->{1,2}, (1,3)->{0,2,2}={0,2}... unions sized 2
    report = check_criticality_conditions(path_graph(4), P11)
    assert report.worst_union_size == 2
    assert report.worst_pair == (0, 2)  # lexicographically first among ties


def test_worst_pair_matches_a_scan_of_neighbor_sets():
    for n in range(1, 16):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
            g = random_graph(n, p, 10 * n + p.denominator)
            report = check_criticality_conditions(g, P11)
            adj = adjacency(n, g.edges())
            pairs = [
                (len(adj[u] | adj[v]), (u, v))
                for u in range(n)
                for v in range(u + 1, n)
                if v not in adj[u]
            ]
            size, pair = min(pairs, default=(None, None))  # lex-first among ties
            assert (report.worst_union_size, report.worst_pair) == (size, pair), (n, p)


def test_margins_are_exact_integers():
    g = cycle_graph(6)
    report = check_criticality_conditions(g, P11)
    # order: 1*6 - 4 = 2; degree: 3*2 - (6 + 3) = -3
    assert report.order_margin == 2
    assert report.min_degree_margin == -3
    assert not report.min_degree_ok
    # worst pair on C6 sits at distance two, sharing one neighbor
    assert report.worst_pair == (0, 2)
    assert report.worst_union_size == 3
    assert report.neighborhood_margin == 3 * 3 - 2 * 6


def test_conditions_reject_empty_graph():
    with pytest.raises(InputError):
        check_criticality_conditions(empty_graph(0), P11)


def test_k_factor_thresholds_formula():
    # the least n with k*n >= 3k(4k-3)+1 is 12k - 8
    for k in range(1, 11):
        params = FactorParams(k, k)
        least = next(n for n in range(1, 12 * k + 2) if order_margin(n, params) >= 0)
        assert least == 12 * k - 8
        assert order_margin(12 * k - 8, params) == k - 1


def test_deletion_invariants_on_complete_graph():
    g = complete_graph(6)
    audit = check_deletion_invariants(g, P11, {2}, check_criticality_conditions(g, P11))
    assert audit.consistent
    assert audit.size_ok and audit.size_margin == 6 - 3
    assert audit.deleted_min_degree == 4
    assert audit.min_degree_margin == 3


def test_deletion_invariants_require_independence():
    g = complete_graph(6)
    report = check_criticality_conditions(g, P11)
    with pytest.raises(InputError, match="independent"):
        check_deletion_invariants(g, P11, {0, 1}, report)


def test_deletion_invariants_refuse_out_of_range_vertices_first():
    g = complete_multipartite_graph((2, 2, 2))
    report = check_criticality_conditions(g, P11)
    with pytest.raises(InputError, match=r"^vertex 6 out of range for 6 vertices$"):
        check_deletion_invariants(g, P11, {g.n}, report)
    # a bool is not a vertex id, even where it equals one; ids are read before independence
    with pytest.raises(InputError, match=r"^vertex True out of range for 6 vertices$"):
        check_deletion_invariants(g, P11, {True}, report)
    with pytest.raises(InputError, match=r"^vertex True out of range for 6 vertices$"):
        check_deletion_invariants(g, P11, [2, True], report)  # 1 and 2 are adjacent


def test_deletion_invariants_check_independence_before_the_report():
    g = complete_multipartite_graph((2, 2, 2))
    other_pair = check_criticality_conditions(g, FactorParams(1, 2))
    with pytest.raises(InputError, match=r"^the audited vertex set must be independent$"):
        check_deletion_invariants(g, P11, {0, 2}, other_pair)


def test_deletion_invariants_require_passing_conditions():
    g = cycle_graph(6)
    with pytest.raises(InputError, match="conditions"):
        check_deletion_invariants(g, P11, {0}, check_criticality_conditions(g, P11))


def test_deletion_invariants_on_dense_tripartite():
    g = complete_multipartite_graph((2, 2, 2))
    report = check_criticality_conditions(g, P11)
    assert report.all_ok
    audit = check_deletion_invariants(g, P11, {0, 1}, report)
    assert audit.consistent
    assert audit.deleted_min_degree == 2


def test_deletion_invariants_take_the_callers_condition_report():
    g = complete_multipartite_graph((2, 2, 2))
    report = check_criticality_conditions(g, P11)
    with pytest.raises(TypeError):
        check_deletion_invariants(g, P11, {0, 1})  # the report is required
    # only the report's order, pair and verdict are read, so a passing report of
    # another graph of the same order reaches X = V, where G - X has no vertices
    k6 = check_criticality_conditions(complete_graph(6), P11)
    audit = check_deletion_invariants(empty_graph(6), P11, set(range(6)), k6)
    assert audit.deleted_min_degree is None and audit.min_degree_margin is None
    assert not audit.min_degree_ok and not audit.consistent
    assert audit.to_dict()["min_degree_ok"] is False
    with pytest.raises(InputError, match="another order"):
        check_deletion_invariants(g, FactorParams(1, 2), {0, 1}, report)
    with pytest.raises(InputError, match="another order"):
        check_deletion_invariants(complete_graph(5), P11, {0}, report)
    failing = check_criticality_conditions(cycle_graph(6), P11)
    with pytest.raises(InputError, match="conditions"):
        check_deletion_invariants(cycle_graph(6), P11, {0}, failing)


@pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 2)])
def test_deletion_invariants_read_the_min_degree_of_g_minus_x(a, b):
    params = FactorParams(a, b)
    audited = 0
    for n in (8, 12, 16):
        for seed in range(15):
            g = random_graph(n, Fraction(9, 10), seed)
            report = check_criticality_conditions(g, params)
            if not report.all_ok:
                continue
            for x in maximal_independent_sets(g):
                audit = check_deletion_invariants(g, params, x, report)
                assert audit.deleted_min_degree == g.delete_vertices(x)[0].min_degree()
                audited += 1
    assert audited >= 20


def paper_report(n, edges, params):
    """The three conditions as the paper states them, on neighbour sets, in to_dict form."""
    a, b = params.a, params.b
    adj = adjacency(n, edges)
    delta = min(len(adj[v]) for v in range(n))
    unions = [
        (len(adj[x] | adj[y]), (x, y))
        for x in range(n)
        for y in range(x + 1, n)
        if y not in adj[x]
    ]
    worst_size, worst_pair = min(unions, default=(None, None))  # lex-first among ties
    order_ok = b * n >= (a + 2 * b) * (2 * a + 2 * b - 3) + 1
    degree_ok = (a + 2 * b) * delta >= b * n + a * (a + 2 * b)
    neighborhood_ok = all((a + 2 * b) * size >= (a + b) * n for size, _ in unions)
    return {
        "a": a,
        "b": b,
        "n": n,
        "min_degree": delta,
        "order_ok": order_ok,
        "min_degree_ok": degree_ok,
        "neighborhood_ok": neighborhood_ok,
        "all_ok": order_ok and degree_ok and neighborhood_ok,
        "order_margin": b * n - ((a + 2 * b) * (2 * a + 2 * b - 3) + 1),
        "min_degree_margin": (a + 2 * b) * delta - (b * n + a * (a + 2 * b)),
        "worst_pair": None if worst_pair is None else list(worst_pair),
        "worst_union_size": worst_size,
        "neighborhood_margin": None if worst_size is None else (a + 2 * b) * worst_size - (a + b) * n,
    }


def report_graphs():
    """Every labeled graph with n <= 5, then seeded G(n, p) with n <= 30."""
    for n in range(1, 6):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            yield Graph(n, [slot for i, slot in enumerate(slots) if mask >> i & 1])
    for n in range(1, 31):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
            yield random_graph(n, p, 31 * n + p.numerator)


def test_reports_match_the_papers_inequalities():
    verdicts = set()
    for g in report_graphs():
        edges = g.edges()
        for params in PAIRS:
            report = check_criticality_conditions(g, params)
            want = paper_report(g.n, edges, params)
            assert report.to_dict() == want, (g.n, edges, params)
            assert (report.order_ok, report.min_degree_ok, report.neighborhood_ok, report.all_ok) == (
                want["order_ok"], want["min_degree_ok"], want["neighborhood_ok"], want["all_ok"]
            )
            verdicts.add((want["order_ok"], want["min_degree_ok"], want["neighborhood_ok"]))
    # each condition was met and missed, and all three were met together
    assert all({v[i] for v in verdicts} == {False, True} for i in range(3))
    assert (True, True, True) in verdicts


def test_degree_floor_is_the_least_degree_meeting_the_degree_bound():
    for params in PAIRS:
        a, b = params.a, params.b
        for n in range(1, 61):
            floor = _degree_floor(n, params)
            passing = [d for d in range(n) if (a + 2 * b) * d >= b * n + a * (a + 2 * b)]
            if b * n < (a + 2 * b) * (2 * a + 2 * b - 3) + 1 or not passing:
                assert floor is None, (params, n)
                continue
            assert floor == passing[0], (params, n)
            assert degree_margin(n, floor, params) >= 0 > degree_margin(n, floor - 1, params)
