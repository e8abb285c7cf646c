import pytest
from hypothesis import given, strategies as st

from fracfactor.errors import InputError
from fracfactor.maxflow import Dinic, feasible_flow


def test_single_edge():
    net = Dinic(2)
    net.add_edge(0, 1, 5)
    assert net.max_flow(0, 1) == 5
    assert feasible_flow(2, [(0, 1, 5, 5)], 0, 1) == [5]


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
    arcs = [(0, 1, 0, 3), (0, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 2), (1, 2, 0, 1), (3, 4, 0, 5)]
    net = Dinic(5)
    for u, v, _, up in arcs:
        net.add_edge(u, v, up)
    total = net.max_flow(0, 4)
    assert total == 4
    # a lower bound of the max flow on the last arc makes feasible_flow route all of it
    flows = feasible_flow(5, arcs[:-1] + [(3, 4, total, 5)], 0, 4)
    assert flows is not None
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



@st.composite
def networks(draw):
    """A small network whose arcs may carry lower bounds; source 0, sink num_nodes - 1."""
    num_nodes = draw(st.integers(min_value=2, max_value=6))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    bounds = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(sorted)
    arcs = draw(st.lists(st.tuples(node, node, bounds), max_size=8))
    return num_nodes, [(u, v, lo, up) for u, v, (lo, up) in arcs if u != v]


@given(networks())
def test_feasible_flow_conserves_within_bounds(case):
    num_nodes, arcs = case
    flows = feasible_flow(num_nodes, arcs, 0, num_nodes - 1)
    if all(lo == 0 for _, _, lo, _ in arcs):
        assert flows is not None  # the zero flow is feasible
    if flows is None:
        return
    net = [0] * num_nodes
    for (u, v, lo, up), f in zip(arcs, flows):
        assert lo <= f <= up
        net[u] -= f
        net[v] += f
    assert net[1:-1] == [0] * (num_nodes - 2)
