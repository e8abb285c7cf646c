"""Randomized invariants, cross-checked against the reference implementations."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from fracfactor import (
    CriticalityReport,
    FactorParams,
    FractionalAssignment,
    Graph,
    delta_st,
    enumerate_independent_sets,
    find_fractional_factor,
    has_fractional_factor_bruteforce,
    is_fractional_id_factor_critical,
    validate_assignment,
)

from oracle import (
    adjacency,
    naive_deletion,
    naive_has_factor,
    naive_independent_sets,
    naive_violation,
)
from test_criticality import traced_solves


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    slots = list(combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(slots)) - 1))
    edges = [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
    return Graph(n, edges)


@st.composite
def params(draw, max_b=3):
    b = draw(st.integers(min_value=1, max_value=max_b))
    a = draw(st.integers(min_value=1, max_value=b))
    return FactorParams(a, b)


@given(graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degrees()) == 2 * g.m


@st.composite
def edge_lists(draw, max_n=8):
    """(n, edges): a random simple graph's edges in random order, each pair either way round."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = draw(st.permutations(list(combinations(range(n), 2))))
    pairs = pairs[: draw(st.integers(min_value=0, max_value=len(pairs)))]
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)]


@given(edge_lists(), st.data())
def test_graph_queries_match_a_set_model(case, data):
    n, edges = case
    g = Graph(n, edges)
    adj = adjacency(n, edges)
    assert g.edges() == sorted((min(e), max(e)) for e in edges)
    assert g.m == len(edges)
    assert g.degrees() == [len(adj[v]) for v in range(n)]
    assert g.adjacency_masks() == tuple(sum(1 << v for v in adj[u]) for u in range(n))
    same = Graph(n, [(v, u) for u, v in data.draw(st.permutations(edges))])
    assert same == g and hash(same) == hash(g)
    if edges:
        assert Graph(n, edges[1:]) != g


@given(graphs(), st.data())
def test_deletion_preserves_surviving_adjacency(g, data):
    drop = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    sub, mapping = g.delete_vertices(drop)
    kept = sorted(set(range(g.n)) - set(drop))
    assert [mapping[v] for v in kept] == list(range(sub.n))
    masks, sub_masks = g.adjacency_masks(), sub.adjacency_masks()
    for u, v in combinations(kept, 2):
        assert (masks[u] >> v) & 1 == (sub_masks[mapping[u]] >> mapping[v]) & 1


@given(graphs(max_n=7), params())
@settings(deadline=None)
def test_solver_agrees_with_subset_scan(g, p):
    result = find_fractional_factor(g, p)
    expected = naive_has_factor(g.n, g.edges(), p.a, p.b)
    assert isinstance(result, FractionalAssignment) == expected
    if expected:
        check = validate_assignment(g, p, result)
        assert check.ok
        assert all(val.denominator in (1, 2) for val in result.values.values())
    else:
        cert = result.certificate
        ref = naive_violation(g.n, g.edges(), p.a, p.b)
        assert (set(cert.s), set(cert.t), cert.delta) == ref


@given(graphs(max_n=7), params())
@settings(deadline=None)
def test_certificate_replays_under_delta(g, p):
    verdict = has_fractional_factor_bruteforce(g, p)
    if verdict is True:
        return
    t, delta = delta_st(g, p, verdict.s)
    assert t == verdict.t
    assert delta == verdict.delta <= -1


@given(graphs(max_n=7), params(), st.data())
@settings(deadline=None)
def test_feasibility_is_monotone_in_the_bounds(g, p, data):
    a2 = data.draw(st.integers(min_value=1, max_value=p.a))
    b2 = data.draw(st.integers(min_value=p.b, max_value=p.b + 2))
    if has_fractional_factor_bruteforce(g, p) is True:
        # widening the allowed degree window cannot destroy a factor
        assert has_fractional_factor_bruteforce(g, FactorParams(a2, b2)) is True


@given(graphs(max_n=7))
def test_independent_set_enumeration_matches_reference(g):
    got = list(enumerate_independent_sets(g))
    assert got == naive_independent_sets(g.n, g.edges())
    adj = adjacency(g.n, g.edges())
    for s in got:
        assert all(not adj[v] & s for v in s)


@given(graphs(max_n=6), params(max_b=2))
@settings(deadline=None, max_examples=50)
def test_criticality_matches_direct_definition(g, p):
    report = is_fractional_id_factor_critical(g, p)
    edges = g.edges()
    first_failure = None
    for index, ind in enumerate(naive_independent_sets(g.n, edges), start=1):
        sub, _ = g.delete_vertices(ind)
        if not naive_has_factor(sub.n, sub.edges(), p.a, p.b):
            first_failure = (index, ind)
            break
    assert report.verdict == (first_failure is None)
    if first_failure is not None:
        # the reported set is the first infeasible one in (size, lex) order
        assert (report.independent_sets_checked, report.failing_set) == first_failure


@given(graphs(max_n=8), params(max_b=3))
@settings(deadline=None, max_examples=60)
def test_criticality_report_matches_deleting_every_set(g, p):
    # the report as computed before the shared network: delete and solve each set
    expected = CriticalityReport(verdict=True, independent_sets_checked=0)
    for checked, ind in enumerate(enumerate_independent_sets(g), start=1):
        sub, remap = g.delete_vertices(ind)
        result = find_fractional_factor(sub, p)
        if not result:
            expected = CriticalityReport(False, checked, ind, result.certificate, remap)
            break
        expected = CriticalityReport(verdict=True, independent_sets_checked=checked)
    assert is_fractional_id_factor_critical(g, p) == expected


@given(graphs(max_n=8), params(max_b=4))
@settings(deadline=None, max_examples=80)
def test_warm_started_deletion_verdicts_match_the_oracle(g, p):
    edges = g.edges()
    verdicts, relaxed = traced_solves(g, p)
    decided = [ind for ind, _ in verdicts]
    assert len(set(decided)) == len(decided)
    for ind, ok in verdicts:
        assert ok == naive_has_factor(*naive_deletion(g.n, edges, ind), p.a, p.b), sorted(ind)
    # every set before the last failure in (size, lex) order is feasible, and its
    # canonical image was decided feasible or lies in a subtree I + J (J nonempty,
    # inside A) that a saturated relaxed solve cleared, so that failure is the first one
    cleared = [(ind, ind | reach) for _, ind, reach, ok in relaxed if ok]
    order = naive_independent_sets(g.n, edges)
    failures = [ind for ind, ok in verdicts if not ok]
    end = order.index(failures[-1]) if failures else len(order)
    for s in order[:end]:
        image = canonical_image(g.n, edges, s)
        assert dict(verdicts).get(image) is True or any(
            ind < image <= top for ind, top in cleared
        ), sorted(s)
        assert naive_has_factor(*naive_deletion(g.n, edges, s), p.a, p.b), sorted(s)


def canonical_image(n, edges, ind):
    """ind with its members of each twin class moved onto that class's lowest vertices.

    u and v are twins when N(u) = N(v) or N[u] = N[v].
    """
    adj = adjacency(n, edges)
    image = set()
    for v in ind:
        twins = [u for u in range(n) if adj[u] == adj[v] or adj[u] | {u} == adj[v] | {v}]
        image.add(twins[sorted(u for u in ind if u in twins).index(v)])
    return frozenset(image)
