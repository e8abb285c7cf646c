import pytest

from fracfactor import (
    FactorParams,
    ResourceLimitError,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    empty_graph,
    enumerate_independent_sets,
    has_fractional_factor_bruteforce,
    is_fractional_id_factor_critical,
    maximal_independent_sets,
    path_graph,
)
from fracfactor.graphs import Graph

from oracle import naive_independent_sets

P11 = FactorParams(1, 1)


def test_enumeration_order_on_c4():
    got = [tuple(sorted(s)) for s in enumerate_independent_sets(cycle_graph(4))]
    assert got == [(), (0,), (1,), (2,), (3,), (0, 2), (1, 3)]


def test_enumeration_matches_reference():
    graphs = [
        path_graph(5),
        cycle_graph(6),
        complete_graph(4),
        empty_graph(3),
        Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4)]),
    ]
    for g in graphs:
        got = [frozenset(s) for s in enumerate_independent_sets(g)]
        assert got == naive_independent_sets(g.n, g.edges())


def test_enumeration_respects_max_size():
    got = list(enumerate_independent_sets(empty_graph(4), max_size=2))
    assert len(got) == 1 + 4 + 6
    assert max(len(s) for s in got) == 2


def test_enumeration_includes_empty_set_only_for_complete():
    got = list(enumerate_independent_sets(complete_graph(3)))
    assert got[0] == frozenset()
    assert sorted(map(sorted, got)) == [[], [0], [1], [2]]


def test_maximal_independent_sets_c4():
    got = [tuple(sorted(s)) for s in maximal_independent_sets(cycle_graph(4))]
    assert got == [(0, 2), (1, 3)]


def test_maximal_independent_sets_complete():
    got = [tuple(sorted(s)) for s in maximal_independent_sets(complete_graph(4))]
    assert got == [(0,), (1,), (2,), (3,)]


def test_complete_graphs_are_critical():
    # deleting any independent set of K_n leaves a smaller complete graph;
    # cross-checked against the subset-scan oracle rather than assumed
    for n in (4, 5, 6, 7):
        for params in (FactorParams(1, 1), FactorParams(1, 2), FactorParams(2, 3)):
            if n < params.b + 2:
                continue
            g = complete_graph(n)
            report = is_fractional_id_factor_critical(g, params)
            assert report.verdict is True
            for ind in enumerate_independent_sets(g):
                sub, _ = g.delete_vertices(ind)
                assert has_fractional_factor_bruteforce(sub, params) is True
            assert report.independent_sets_checked == n + 1


def test_path_fails_at_empty_set():
    report = is_fractional_id_factor_critical(path_graph(3), P11)
    assert report.verdict is False
    assert report.failing_set == frozenset()
    assert report.independent_sets_checked == 1
    assert report.failing_certificate is not None
    assert report.failing_certificate.delta == -1


def test_c4_fails_on_first_singleton():
    # C4 itself is feasible, but deleting one vertex leaves a path
    report = is_fractional_id_factor_critical(cycle_graph(4), P11)
    assert report.verdict is False
    assert report.failing_set == frozenset({0})
    assert report.independent_sets_checked == 2


def test_failing_certificate_translates_back():
    report = is_fractional_id_factor_critical(cycle_graph(4), P11)
    # G - {0} is the path 1-2-3 re-indexed to 0-1-2
    assert report.vertex_map == {1: 0, 2: 1, 3: 2}
    assert report.failing_certificate.s == frozenset({1})
    original = report.certificate_in_original_labels()
    assert original == (frozenset({2}), frozenset({1, 3}), -1)


def test_octahedron_is_critical_for_11():
    # K_{2,2,2}: deleting any independent set leaves a dense graph
    g = complete_multipartite_graph((2, 2, 2))
    report = is_fractional_id_factor_critical(g, P11)
    assert report.verdict is True
    # independent sets: empty, 6 singletons, 3 part-pairs
    assert report.independent_sets_checked == 10


def test_criticality_respects_cap():
    with pytest.raises(ResourceLimitError):
        is_fractional_id_factor_critical(empty_graph(21), P11)
    with pytest.raises(ResourceLimitError):
        is_fractional_id_factor_critical(complete_graph(21), P11)


def test_report_serialization_shape():
    report = is_fractional_id_factor_critical(cycle_graph(4), P11)
    doc = report.to_dict()
    assert doc["verdict"] is False
    assert doc["failing_set"] == [0]
    assert doc["certificate"]["delta"] == -1
    assert doc["certificate_original_labels"]["s"] == [2]
