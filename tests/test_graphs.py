import random
import re
from fractions import Fraction

import pytest

from fracfactor import (
    MAX_ORDER,
    FactorParams,
    Graph,
    InputError,
    ResourceLimitError,
    SweepConfig,
    complete_multipartite_graph,
    format_edge_list,
    graphs,
    min_degree_extremal_graph,
    neighborhood_extremal_graph,
    parse_edge_list,
    random_graph,
)
from fracfactor.graphs import mask_vertices
from fracfactor.sweep import _ensemble

from oracle import adjacency
from standard_graphs import cycle_graph, empty_graph, path_graph


def test_basic_construction():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.adjacency_masks() == (0b0010, 0b0101, 0b1010, 0b0100)


def test_edges_are_a_fresh_list_each_call():
    g = Graph(4, [(2, 3), (1, 0), (2, 1)])
    first = g.edges()
    assert first == [(0, 1), (1, 2), (2, 3)]
    first.append((0, 3))
    second = g.edges()
    assert second == [(0, 1), (1, 2), (2, 3)]
    assert second is not g.edges()


def test_orders_above_the_maximum_are_refused():
    assert Graph(MAX_ORDER).n == 1000
    with pytest.raises(ResourceLimitError):
        Graph(MAX_ORDER + 1)
    with pytest.raises(ResourceLimitError):
        parse_edge_list("1001 0\n")
    with pytest.raises(ResourceLimitError):  # refused before any n-sized allocation
        parse_edge_list("1000000000000 0\n")
    with pytest.raises(ResourceLimitError):
        complete_multipartite_graph((500, 501))


def test_a_bad_row_is_an_input_error_under_an_order_above_the_maximum():
    with pytest.raises(InputError, match="line 2: loop"):  # a ResourceLimitError is no InputError
        parse_edge_list("1001 1\n5 5\n")


def test_multipartite_family_checks_the_order_before_listing_edges(monkeypatch):
    # the library's one enumerated family; K_n is n parts of one vertex
    def never_built(n, edges=()):
        raise AssertionError(f"Graph({n}, ...) was called with its edges listed")

    monkeypatch.setattr(graphs, "Graph", never_built)
    for sizes in ((1,) * (MAX_ORDER + 1), (500, 501)):
        with pytest.raises(ResourceLimitError):
            complete_multipartite_graph(sizes)


@pytest.mark.parametrize(
    "sizes", [(True, 2), (2.0, 1), ("2", 1), (2, -1), (1, None), (MAX_ORDER + 1, False)]
)
def test_multipartite_part_sizes_must_be_nonnegative_ints(sizes):
    with pytest.raises(InputError, match="part sizes must be nonnegative integers"):
        complete_multipartite_graph(sizes)


def test_construction_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(3, [(-1, 2)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(-1)


@pytest.mark.parametrize(
    "edge", [(0.0, 1), (0, 1.5), ("0", 1), (0, 1, 2), (0,), None, (0, True), (False, 1)]
)
def test_construction_names_a_malformed_edge(edge):
    with pytest.raises(InputError, match=re.escape(f"malformed edge {edge!r}")):
        Graph(3, [(1, 2), edge])


def test_construction_refuses_edges_that_are_not_a_list_of_pairs():
    with pytest.raises(InputError, match="malformed edge"):
        Graph(3, 5)


def test_bool_is_refused_as_an_order_and_as_a_vertex():
    with pytest.raises(InputError, match="vertex count"):
        Graph(True)
    with pytest.raises(InputError, match="n must be"):
        random_graph(True, 0, 0)
    g = path_graph(3)
    with pytest.raises(InputError, match="vertex True"):
        g.vertex_subset([True])
    with pytest.raises(InputError, match="vertex False"):
        g.degree(False)


def test_degree_queries():
    g = path_graph(3)
    assert g.degrees() == [1, 2, 1]
    assert g.min_degree() == 1
    assert g.degree(1) == 2
    with pytest.raises(InputError):
        g.degree(5)
    with pytest.raises(InputError):
        empty_graph(0).min_degree()


def test_delete_vertices_reindexes():
    g = path_graph(5)
    sub, remap = g.delete_vertices({1, 2})
    assert sub.n == 3
    assert remap == {0: 0, 3: 1, 4: 2}
    assert sub.edges() == [(1, 2)]  # the old edge (3, 4)

    same, remap2 = g.delete_vertices(frozenset())
    assert same == g
    assert remap2 == {v: v for v in range(5)}


def test_complete_multipartite():
    g = complete_multipartite_graph((1, 1, 2))
    assert g.n == 4
    # parts {0}, {1}, {2, 3}: all cross edges, none inside the last part
    assert g.adjacency_masks() == (0b1110, 0b1101, 0b0011, 0b0011)
    assert g.m == 5


def test_adjacency_masks_match_neighbor_sets():
    g = cycle_graph(5)
    masks = g.adjacency_masks()
    adj = adjacency(5, [(i, (i + 1) % 5) for i in range(5)])
    for v in range(5):
        assert {u for u in range(5) if (masks[v] >> u) & 1} == adj[v]


def test_graph_equality_and_hash():
    g1 = path_graph(3)
    g2 = Graph(3, [(1, 2), (0, 1)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != path_graph(4)


def test_stored_invariants_are_a_fresh_graphs_and_leave_equality_alone():
    for n in range(5, 21):
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
            g = random_graph(n, p, n)
            key = hash(g)
            # twins first on g, the union pair first on the fresh copy
            twins, union = g.twin_classes(), g.least_union_pair()
            fresh = Graph(n, g.edges())
            assert (fresh.least_union_pair(), fresh.twin_classes()) == (union, twins)
            assert g.twin_classes() is twins and g.least_union_pair() is union
            assert isinstance(twins, tuple)
            assert g == Graph(n, g.edges()) and hash(g) == key == hash(Graph(n, g.edges()))
            # the pair against the oracle's neighbour sets: least union, then lex-first
            adj = adjacency(n, g.edges())
            unions = [
                (len(adj[x] | adj[y]), (x, y))
                for x in range(n)
                for y in range(x + 1, n)
                if y not in adj[x]
            ]
            want = min(unions, default=None)
            assert union == (None if want is None else (want[1], want[0]))


def _deletions():
    rng = random.Random(5)
    graphs_built = []
    for n in (1, 9, 20, 40):
        g = random_graph(n, Fraction(1, 2), n)
        graphs_built += [g.delete_vertices(rng.sample(range(n), k))[0] for k in range(n + 1)]
    return graphs_built


BUILDERS = {  # each library builder that assembles its graphs on masks -> graphs it built
    "random_graph": lambda: [
        random_graph(n, p, seed)
        for n in (0, 1, 16, 64)
        for p in (0, Fraction(1, 2), 1)
        for seed in (0, 1, 2)
    ],
    "extremal_families": lambda: [
        family(FactorParams(a, b), t)[0]
        for family in (neighborhood_extremal_graph, min_degree_extremal_graph)
        for a, b, t in ((1, 1, 2), (1, 2, 3), (2, 2, 1), (2, 3, 2), (3, 3, 4))
    ],
    "complete_multipartite_graph": lambda: [
        complete_multipartite_graph(sizes) for sizes in ((), (0,), (3, 0, 2), (1, 1, 1, 1), (4,))
    ],
    "delete_vertices": _deletions,
    "parse_edge_list": lambda: [
        parse_edge_list(format_edge_list(random_graph(n, Fraction(1, 3), n))) for n in (0, 1, 7, 30)
    ],
    "exhaustive_ensemble": lambda: [
        g for _, g in _ensemble(SweepConfig(pairs=((1, 1),), exhaustive_max_n=5), FactorParams(1, 1))
    ],
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_builder_matches_its_validated_rebuild(name):
    built = BUILDERS[name]()
    assert built
    for g in built:
        assert g == Graph(g.n, g.edges())
        masks = g.adjacency_masks()
        assert len(masks) == g.n
        for u, mask in enumerate(masks):
            assert not (mask >> u) & 1, "loop"
            assert all((masks[v] >> u) & 1 for v in mask_vertices(mask)), "asymmetric"


# -- edge-list format ---------------------------------------------------------


def test_parse_round_trip():
    g = cycle_graph(5)
    assert parse_edge_list(format_edge_list(g)) == g


def test_parse_with_comments_and_blanks():
    text = """
# a square
4 4
0 1
1 2   # right side
2 3

0 3
"""
    assert parse_edge_list(text) == cycle_graph(4)


def test_parse_errors_carry_line_numbers():
    text = "3 3\n0 1\n1 1\n0 5\n"
    with pytest.raises(InputError) as exc:
        parse_edge_list(text)
    message = str(exc.value)
    assert "line 3" in message and "loop" in message
    assert "line 4" in message


def test_parse_rejects_duplicates_and_order():
    with pytest.raises(InputError, match="duplicate"):
        parse_edge_list("3 2\n0 1\n0 1\n")
    with pytest.raises(InputError, match="u < v"):
        parse_edge_list("3 1\n1 0\n")


def test_parse_rejects_count_mismatch():
    with pytest.raises(InputError, match="promises 3"):
        parse_edge_list("3 3\n0 1\n")
    with pytest.raises(InputError):
        parse_edge_list("")


@pytest.mark.parametrize(
    "text, message",
    [
        ("three 1\n0 1\n", "line 1: header values must be integers"),
        ("3 -1\n", "line 1: edge count must be nonnegative"),
        ("3 2\n0 1\n1 two\n", "line 3: edge endpoints must be integers"),
    ],
)
def test_parse_rejects_non_integers_and_negative_counts(text, message):
    with pytest.raises(InputError, match=message):
        parse_edge_list(text)


def test_format_is_deterministic():
    g = Graph(4, [(2, 3), (0, 1), (1, 3)])
    assert format_edge_list(g) == "4 3\n0 1\n1 3\n2 3\n"
