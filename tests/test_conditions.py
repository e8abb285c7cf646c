from fractions import Fraction

import pytest

from fracfactor import (
    FactorParams,
    InputError,
    check_criticality_conditions,
    check_deletion_invariants,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    degree_condition_holds,
    empty_graph,
    k_factor_thresholds,
    maximal_independent_sets,
    neighborhood_condition_holds,
    order_condition_holds,
    order_threshold,
    path_graph,
    random_graph,
)

from oracle import adjacency

P11 = FactorParams(1, 1)


def test_order_threshold_values():
    assert order_threshold(P11) == 4  # 3 * 1 + 1
    assert order_threshold(FactorParams(1, 2)) == 16  # 5 * 3 + 1
    assert order_threshold(FactorParams(2, 3)) == 57  # 8 * 7 + 1


def test_order_condition_boundaries():
    assert order_condition_holds(4, P11)
    assert not order_condition_holds(3, P11)
    # a=1, b=2: need 2n >= 16
    assert order_condition_holds(8, FactorParams(1, 2))
    assert not order_condition_holds(7, FactorParams(1, 2))


def test_degree_condition_exact_form():
    # (a+2b) * delta >= b*n + a*(a+2b); for K_n delta = n-1
    assert degree_condition_holds(4, 3, P11)  # 9 >= 7
    assert not degree_condition_holds(4, 2, P11)  # 6 < 7
    params = FactorParams(2, 3)
    # 8 * delta >= 3n + 16
    assert degree_condition_holds(16, 8, params)
    assert not degree_condition_holds(16, 7, params)


def test_neighborhood_condition_exact_form():
    # (a+2b) * u >= (a+b) * n
    assert neighborhood_condition_holds(6, 4, P11)  # 12 >= 12
    assert not neighborhood_condition_holds(6, 3, P11)


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
    # frozen from the ceiling computation: smallest n with k*n >= 3k(4k-3)+1
    assert k_factor_thresholds(1).min_order == 4
    assert k_factor_thresholds(2).min_order == 16
    assert k_factor_thresholds(3).min_order == 28
    for k in range(1, 11):
        assert k_factor_thresholds(k).min_order == 12 * k - 8
    for k in (1, 2, 3):
        min_order = k_factor_thresholds(k).min_order
        for n in range(1, 12 * k + 2):
            assert (n >= min_order) == order_condition_holds(n, FactorParams(k, k))
    with pytest.raises(InputError):
        k_factor_thresholds(0)


def test_deletion_invariants_on_complete_graph():
    g = complete_graph(6)
    audit = check_deletion_invariants(g, P11, {2})
    assert audit.consistent
    assert audit.size_ok and audit.size_margin == 6 - 3
    assert audit.deleted_min_degree == 4
    assert audit.min_degree_margin == 3


def test_deletion_invariants_require_independence():
    g = complete_graph(6)
    with pytest.raises(InputError, match="independent"):
        check_deletion_invariants(g, P11, {0, 1})


def test_deletion_invariants_refuse_out_of_range_vertices_first():
    g = complete_multipartite_graph((2, 2, 2))
    report = check_criticality_conditions(g, P11)
    with pytest.raises(InputError, match=r"^vertex 6 out of range for 6 vertices$"):
        check_deletion_invariants(g, P11, {g.n}, report)


def test_deletion_invariants_check_independence_before_the_report():
    g = complete_multipartite_graph((2, 2, 2))
    other_pair = check_criticality_conditions(g, FactorParams(1, 2))
    with pytest.raises(InputError, match=r"^the audited vertex set must be independent$"):
        check_deletion_invariants(g, P11, {0, 2}, other_pair)


def test_deletion_invariants_require_passing_conditions():
    with pytest.raises(InputError, match="conditions"):
        check_deletion_invariants(cycle_graph(6), P11, {0})


def test_deletion_invariants_on_dense_tripartite():
    g = complete_multipartite_graph((2, 2, 2))
    report = check_criticality_conditions(g, P11)
    assert report.all_ok
    audit = check_deletion_invariants(g, P11, {0, 1})
    assert audit.consistent
    assert audit.deleted_min_degree == 2


def test_deletion_invariants_take_the_callers_condition_report():
    g = complete_multipartite_graph((2, 2, 2))
    report = check_criticality_conditions(g, P11)
    assert check_deletion_invariants(g, P11, {0, 1}, report) == check_deletion_invariants(
        g, P11, {0, 1}
    )
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
