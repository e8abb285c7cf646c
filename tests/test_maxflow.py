import pytest
from hypothesis import given, settings, strategies as st

from fracfactor.errors import InputError
from fracfactor.maxflow import Dinic, FeasibleFlow, feasible_flow


def test_single_edge():
    net = Dinic(2)
    eid = net.add_edge(0, 1, 5)
    assert net.max_flow(0, 1) == 5
    assert net.flow_on(eid) == 5


def test_series_bottleneck():
    net = Dinic(3)
    net.add_edge(0, 1, 4)
    net.add_edge(1, 2, 2)
    assert net.max_flow(0, 2) == 2


def test_parallel_paths():
    net = Dinic(4)
    net.add_edge(0, 1, 3)
    net.add_edge(1, 3, 3)
    net.add_edge(0, 2, 2)
    net.add_edge(2, 3, 2)
    assert net.max_flow(0, 3) == 5


def test_classic_augmenting_crossover():
    # the textbook diamond where the middle edge forces flow rerouting
    net = Dinic(4)
    net.add_edge(0, 1, 1)
    net.add_edge(0, 2, 1)
    net.add_edge(1, 2, 1)
    net.add_edge(1, 3, 1)
    net.add_edge(2, 3, 1)
    assert net.max_flow(0, 3) == 2


def test_disconnected_gives_zero():
    net = Dinic(4)
    net.add_edge(0, 1, 7)
    net.add_edge(2, 3, 7)
    assert net.max_flow(0, 3) == 0


def test_flows_are_integral_and_conserve():
    net = Dinic(5)
    eids = [
        net.add_edge(0, 1, 3),
        net.add_edge(0, 2, 3),
        net.add_edge(1, 3, 2),
        net.add_edge(2, 3, 2),
        net.add_edge(1, 2, 1),
        net.add_edge(3, 4, 5),
    ]
    total = net.max_flow(0, 4)
    assert total == 4
    flows = [net.flow_on(e) for e in eids]
    assert all(isinstance(f, int) and f >= 0 for f in flows)
    # conservation at nodes 1, 2, 3
    assert flows[0] == flows[2] + flows[4]
    assert flows[1] + flows[4] == flows[3]
    assert flows[2] + flows[3] == flows[5] == total


def test_rejects_negative_capacity_and_bad_query():
    net = Dinic(2)
    with pytest.raises(InputError):
        net.add_edge(0, 1, -1)
    with pytest.raises(InputError):
        net.max_flow(1, 1)


def test_deep_network_avoids_recursion_limit():
    # a path longer than the default recursion limit
    n = 3000
    net = Dinic(n)
    for i in range(n - 1):
        net.add_edge(i, i + 1, 1)
    assert net.max_flow(0, n - 1) == 1


# -- lower bounds -------------------------------------------------------------


def test_feasible_flow_simple_lower_bound():
    # one path, lower bound forces 2 units through
    arcs = [(0, 1, 2, 5), (1, 2, 0, 5)]
    flows = feasible_flow(3, arcs, 0, 2)
    assert flows is not None
    assert flows[0] >= 2 and flows[0] == flows[1]


def test_feasible_flow_detects_impossible_bounds():
    # lower bound 3 through a capacity-1 continuation
    arcs = [(0, 1, 3, 5), (1, 2, 0, 1)]
    assert feasible_flow(3, arcs, 0, 2) is None


def test_feasible_flow_respects_windows():
    # every vertex of K2's double cover wants between 1 and 1 units
    arcs = [
        (0, 2, 1, 1),
        (0, 3, 1, 1),
        (2, 5, 0, 1),
        (3, 4, 0, 1),
        (4, 1, 1, 1),
        (5, 1, 1, 1),
    ]
    flows = feasible_flow(6, arcs, 0, 1)
    assert flows == [1, 1, 1, 1, 1, 1]


def test_feasible_flow_validates_bounds():
    with pytest.raises(InputError):
        feasible_flow(2, [(0, 1, 3, 2)], 0, 1)
    with pytest.raises(InputError):
        feasible_flow(2, [(0, 1, -1, 2)], 0, 1)


def test_feasible_flow_all_flows_within_bounds():
    arcs = [
        (0, 1, 1, 3),
        (0, 2, 0, 2),
        (1, 3, 0, 2),
        (2, 3, 1, 2),
        (1, 2, 0, 1),
    ]
    flows = feasible_flow(4, arcs, 0, 3)
    assert flows is not None
    for (u, v, lo, up), f in zip(arcs, flows):
        assert lo <= f <= up
    # conservation at 1 and 2
    assert flows[0] == flows[2] + flows[4]
    assert flows[1] + flows[4] == flows[3]


# -- one network, many decisions ----------------------------------------------


def closing(arcs, closed):
    return [(arc[0], arc[1], 0, 0) if i in closed else arc for i, arc in enumerate(arcs)]


# K2's double cover: windows 0 (s -> 0+), 1 (0- -> t), 2 (s -> 1+), 3 (1- -> t)
K2_ARCS = [(0, 2, 1, 1), (4, 1, 1, 1), (0, 3, 1, 1), (5, 1, 1, 1), (2, 5, 0, 1), (3, 4, 0, 1)]


def test_reused_network_matches_fresh_solves_in_any_order():
    network = FeasibleFlow(6, K2_ARCS, 0, 1)
    edges = len(network.net.to)
    sequence = [
        [],  # K2 has a perfect matching
        [0, 1],  # delete vertex 0: K1 has no [1, 1]-factor
        [],  # feasible again: nothing leaked from the infeasible decision
        [0, 1, 2, 3],  # every window closed: order 0 is feasible
    ]
    for closed in sequence:
        fresh = feasible_flow(6, closing(K2_ARCS, closed), 0, 1)
        assert network.feasible(closed) == (fresh is not None), closed
        assert len(network.net.to) == edges
    assert [network.feasible(c) for c in sequence] == [True, False, True, True]


def test_reused_network_rejects_invalid_overrides():
    network = FeasibleFlow(6, K2_ARCS, 0, 1)
    for bad in ([-1], [len(K2_ARCS)], [0, len(K2_ARCS)]):
        with pytest.raises(InputError):
            network.feasible(bad)
    assert network.feasible()


@st.composite
def networks(draw):
    """A small network, then closed-arc lists.

    Node 1 has lower bounds in and out, plus free parallel arcs, so closing one
    of its bounded arcs can flip the sign of its imbalance and stay feasible.
    """
    num_nodes = draw(st.integers(min_value=3, max_value=6))
    sink = num_nodes - 1
    node = st.integers(min_value=0, max_value=sink)
    bounds = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(sorted).map(tuple)
    positive = st.tuples(st.integers(1, 3), st.integers(0, 2)).map(lambda t: (t[0], t[0] + t[1]))
    through = [(0, 1, *draw(positive)), (1, sink, *draw(positive)), (0, 1, 0, 3), (1, sink, 0, 3)]
    arcs = draw(st.lists(st.tuples(node, node, bounds), max_size=6))
    arcs = through + [(u, v, lo, up) for u, v, (lo, up) in arcs if u != v]
    index = st.integers(min_value=0, max_value=len(arcs) - 1)
    return num_nodes, arcs, draw(st.lists(st.lists(index, max_size=4), max_size=4))


@given(networks())
@settings(deadline=None)
def test_reused_network_agrees_with_fresh_feasible_flow(case):
    num_nodes, arcs, decisions = case
    network = FeasibleFlow(num_nodes, arcs, 0, num_nodes - 1)
    edges = len(network.net.to)
    for closed in decisions + [[]]:
        fresh = feasible_flow(num_nodes, closing(arcs, closed), 0, num_nodes - 1)
        assert network.feasible(closed) == (fresh is not None)
        assert len(network.net.to) == edges
