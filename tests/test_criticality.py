from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb

import pytest

from fracfactor import (
    GENERATED_KINDS,
    FactorParams,
    InputError,
    ResourceLimitError,
    ViolationCertificate,
    check_criticality_conditions,
    complete_multipartite_graph,
    criticality,
    enumerate_independent_sets,
    first_failing_set,
    has_fractional_factor,
    has_fractional_factor_bruteforce,
    is_fractional_id_factor_critical,
    maximal_independent_sets,
    min_degree_extremal_graph,
    neighborhood_extremal_graph,
    order_margin,
    random_graph,
)
from fracfactor.criticality import deletion_verdicts, proves_critical
from fracfactor.factor import double_cover
from fracfactor.graphs import Graph
from fracfactor.maxflow import feasible_flow

from oracle import (
    adjacency,
    naive_deletion,
    naive_has_factor,
    naive_independent_sets,
    naive_violation,
)
from standard_graphs import complete_graph, cycle_graph, empty_graph, path_graph
from test_factor import oracle_verdicts

P11 = FactorParams(1, 1)


def test_enumeration_order_on_c4():
    got = [tuple(sorted(s)) for s in enumerate_independent_sets(cycle_graph(4))]
    assert got == [(), (0,), (1,), (2,), (3,), (0, 2), (1, 3)]


def reference_graphs():
    """Every labeled graph with n <= 5, seeded G(n, p) for n 6-16, and the deepest stack."""
    yield from labeled_graphs(5)
    yield cycle_graph(6)
    yield Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
    for n in range(6, 17):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            yield random_graph(n, p, seed=n)
    yield empty_graph(12)  # 4,096 sets, every size down to the whole vertex set


def test_enumeration_matches_reference():
    for g in reference_graphs():
        want = naive_independent_sets(g.n, g.edges())
        assert list(enumerate_independent_sets(g)) == want
        adj = adjacency(g.n, g.edges())
        maximal = [s for s in want if all(v in s or adj[v] & s for v in range(g.n))]
        assert list(maximal_independent_sets(g)) == maximal


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


def test_enumeration_raises_at_the_first_level_past_the_budget(monkeypatch):
    g = random_graph(12, Fraction(1, 2), 0)
    adj = g.adjacency_masks()
    uncapped = list(enumerate_independent_sets(g))

    def expanded(size):  # prefixes short of size - 1 whose free vertices still number enough
        count = 0
        for prefix in uncapped:
            free = (1 << g.n) - 1
            for v in prefix:
                free &= -(2 << v) & ~adj[v]
            count += len(prefix) <= size - 2 and free.bit_count() >= size - len(prefix)
        return count

    assert [expanded(size) for size in range(1, 7)] == [0, 1, 11, 27, 12, 6]
    assert Counter(map(len, uncapped)) == {0: 1, 1: 12, 2: 40, 3: 45, 4: 15, 5: 1}
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 11)  # size 3 expands exactly 11
    yielded = []
    with pytest.raises(ResourceLimitError, match="size 4 on 12 vertices: over 11 prefixes expanded"):
        for ind in enumerate_independent_sets(g):
            yielded.append(ind)
    assert yielded == uncapped[: len(yielded)]
    assert 1 + 12 + 40 + 45 <= len(yielded) < 1 + 12 + 40 + 45 + 15


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
    assert first_failing_set(cycle_graph(4), P11) == (frozenset({0}), 2)


def test_smaller_failure_found_after_a_larger_one_wins():
    # the DFS decides {0, 2} (which fails) before {1}; {1} is first in (size, lex) order
    report = is_fractional_id_factor_critical(path_graph(3), FactorParams(1, 2))
    assert report.failing_set == frozenset({1})
    assert report.independent_sets_checked == 3


def test_smaller_failure_in_a_later_subtree_wins():
    # the DFS decides {0, 1} (which fails) before {1}
    g = Graph(4, [(0, 2), (1, 2), (1, 3)])
    report = is_fractional_id_factor_critical(g, FactorParams(1, 2))
    assert report.failing_set == frozenset({1})


SEVEN = Graph(
    7,
    [(0, 2), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6), (2, 3)]
    + [(2, 5), (2, 6), (3, 4), (4, 5), (4, 6), (5, 6)],
)


@pytest.mark.parametrize(
    "g, params, larger_before, smaller_after",
    [(SEVEN, P11, True, True), (SEVEN, FactorParams(1, 2), False, True)]
    + [(path_graph(n), FactorParams(1, 2), True, False) for n in range(3, 8)],
    ids=["seven-1-1", "seven-1-2"] + [f"path{n}-1-2" for n in range(3, 8)],
)
def test_first_failing_set_counts_the_failures_index(g, params, larger_before, smaller_after):
    # The DFS decides sets larger than the failure before it, and smaller ones after
    # it; neither may move the failure's (size, lex) index. On SEVEN under (1,2),
    # relaxed solves clear the subtrees of {0} and {1}, so no larger set is decided
    # before the failure {2, 4}.
    failing, index = first_failing_set(g, params)
    assert index == is_fractional_id_factor_critical(g, params).independent_sets_checked
    assert list(enumerate_independent_sets(g)).index(failing) + 1 == index
    verdicts = decided_sets(g, params)
    at = verdicts.index((failing, False))
    assert any(len(ind) > len(failing) for ind, _ in verdicts[:at]) is larger_before
    assert any(len(ind) < len(failing) for ind, _ in verdicts[at + 1 :]) is smaller_after


def bits(mask):
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def decided_sets(g, params):
    """deletion_verdicts as (I, verdict) pairs, each bitmask I turned back into a frozenset."""
    return [(bits(ind), ok) for ind, ok in deletion_verdicts(g, params)]


def traced_solves(g, params):
    """decided_sets(g, params), and each relaxed solve as (verdicts yielded before it, I, A,
    whether it saturated).

    Every restore call decides a set or is a relaxed solve. Before it, the
    vertices still sending or listed short are those outside I; a relaxed
    solve is the call in which some of them, A, are not alive to receive.
    """
    verdicts, relaxed = [], []
    real = criticality.augmenting_search

    def search(adj, b):
        restore = real(adj, b)

        def traced(short, used, owners, full, alive):
            short = list(short)  # a vertex is listed once per unit it lacks
            sending = sum(1 << v for v in set(short)) | sum(1 << v for v, m in enumerate(used) if m)
            full = restore(short, used, owners, full, alive)
            if sending & ~alive:
                everything = (1 << len(adj)) - 1
                at = len(verdicts)
                relaxed.append((at, bits(everything & ~sending), bits(sending & ~alive), full >= 0))
            return full

        return traced

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(criticality, "augmenting_search", search)
        for ind, ok in deletion_verdicts(g, params):
            verdicts.append((bits(ind), ok))
    return verdicts, relaxed


def assert_verdicts_match_the_oracle(g, params, verdicts):
    for ind, ok in verdicts:
        sub = naive_deletion(g.n, g.edges(), ind)
        assert ok == naive_has_factor(*sub, params.a, params.b), sorted(ind)


def test_a_restore_reroutes_through_a_full_right_vertex():
    # The paw: triangle 1-2-3 and the pendant 0 on 1, under (1,1). Four units
    # fill four right copies of capacity 1, and only 1 can fill the right copy
    # of 0, so in every saturated b-matching 1 sends to 0 and every right copy
    # is full. Deleting 0 leaves 1 one unit short, and its live neighbours 2
    # and 3 are full: the search goes 1 -> 2 -> 3 -> 1, handing 3's unit over
    # to the right copy of 1, which lost 0's unit.
    g = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    verdicts = decided_sets(g, P11)
    assert (frozenset({0}), True) in verdicts
    assert_verdicts_match_the_oracle(g, P11, verdicts)


def test_a_later_unit_that_cannot_be_restored_decides_the_child():
    # Triangle 0-1-2 with the pendants 3 and 4 on 1, under (1,2). 3 and 4 fill
    # the right copy of 1, so 0 sends to 2 and 2 to 0; 1 takes the lowest free
    # right vertex, 0. Deleting 0 cuts two units. 1 restores its own at 2, but
    # 2 reaches only the full 1, whose owners have no other neighbour: G - {0}
    # is the star K_{1,3}, whose centre would need 3 > b.
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4)])
    params = FactorParams(1, 2)
    verdicts = decided_sets(g, params)
    assert (frozenset({0}), False) in verdicts
    assert_verdicts_match_the_oracle(g, params, verdicts)


# (a, b) -> family -> t values whose graphs have order at most 20
EXTREMAL = {
    (1, 2): {neighborhood_extremal_graph: (1, 2, 3), min_degree_extremal_graph: (2, 3, 4)},
    (2, 2): {neighborhood_extremal_graph: (1, 2, 3), min_degree_extremal_graph: (1, 2, 3)},
}


def larger_order_cases():
    """Seeded G(n, p) of order 14-18 and the extremal families up to order 20, with their pairs."""
    cases = [
        (random_graph(n, p, 100 * n + 10 * a + b), FactorParams(a, b))
        for a, b in ((1, 2), (2, 2), (2, 3))
        for p in (Fraction(1, 2), Fraction(2, 3))
        for n in range(14, 19)
    ]
    return cases + [
        (build(FactorParams(a, b), t)[0], FactorParams(a, b))
        for (a, b), families in EXTREMAL.items()
        for build, ts in families.items()
        for t in ts
    ]


def test_deletion_verdicts_match_deleting_and_solving_at_larger_orders():
    # Orders the hypothesis oracle test (n <= 8) does not reach, where a
    # restore can take a long reroute. Each G - I is decided by the flow that
    # find_fractional_factor runs, without its exponential certificate scan.
    cases = larger_order_cases()
    decided = failed = solves = 0
    for g, params in cases:
        verdicts, relaxed = traced_solves(g, params)
        for ind, ok in verdicts:
            sub, _ = g.delete_vertices(ind)
            assert ok == (feasible_flow(*double_cover(sub.n, sub.edges(), params)) is not None)
            decided += 1
            failed += not ok
        solves += len(relaxed)
    assert max(g.n for g, _ in cases) == 20
    # 4,832 sets before twin reduction, 3,684 after it and before relaxed solves;
    # the extremal families fell from 1,357 to 209
    assert (decided, failed, solves) == (2088, 25, 299)


def labeled_graphs(max_n):
    """Every labeled graph with n <= max_n, by order, then edge mask."""
    for n in range(max_n + 1):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            yield Graph(n, [slot for i, slot in enumerate(slots) if (mask >> i) & 1])


def test_twin_classes_examples():
    assert complete_multipartite_graph((2, 2, 2)).twin_classes() == (
        0b000011, 0b000011, 0b001100, 0b001100, 0b110000, 0b110000
    )
    assert complete_graph(4).twin_classes() == (0b1111,) * 4
    assert path_graph(3).twin_classes() == (0b101, 0b010, 0b101)
    assert SEVEN.twin_classes()[5:] == (0b1100000, 0b1100000)


def test_twin_classes_match_the_neighbourhoods():
    # u joins v's class when N(u) = N(v) or N[u] = N[v], read off the oracle's sets
    for g in labeled_graphs(5):
        adj = adjacency(g.n, g.edges())
        want = tuple(
            sum(1 << u for u in range(g.n) if adj[u] == adj[v] or adj[u] | {u} == adj[v] | {v})
            for v in range(g.n)
        )
        assert g.twin_classes() == want


def test_only_canonical_sets_are_decided():
    # each class is met in its lowest members; with no failure, every such set is decided
    for g in labeled_graphs(5):
        classes = g.twin_classes()
        canonical = [
            ind
            for ind in enumerate_independent_sets(g)
            if all(u in ind for v in ind for u in range(v) if (classes[v] >> u) & 1)
        ]
        verdicts = decided_sets(g, P11)
        assert [ind for ind, _ in verdicts if ind not in canonical] == []
        if all(ok for _, ok in verdicts):
            assert sorted(map(sorted, canonical)) == sorted(sorted(ind) for ind, _ in verdicts)


def assert_index_is_the_unpruned_index(g, params):
    failing, index = first_failing_set(g, params)
    sets = enumerate_independent_sets(g)
    if failing is None:
        assert index == sum(1 for _ in sets)
    else:
        assert index == next(i for i, ind in enumerate(sets, start=1) if ind == failing)


@pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 3)])
def test_weighted_count_is_the_unpruned_index_on_every_small_graph(a, b):
    params = FactorParams(a, b)
    for g in labeled_graphs(6):
        assert_index_is_the_unpruned_index(g, params)


def test_first_failing_set_matches_the_oracle_on_every_small_graph():
    # The oracle deletes each independent set in (size, lex) order and reads the
    # verdict of what is left from naive_has_factor's table for its order.
    tables = [oracle_verdicts(n) for n in range(7)]
    slots = [{e: 1 << i for i, e in enumerate(combinations(range(n), 2))} for n in range(7)]
    pairs = [(1, 2), (1, 3), (2, 3)]
    for g in labeled_graphs(6):
        edges = g.edges()
        sets = naive_independent_sets(g.n, edges)
        first = {}  # pair -> (its first failing set, that set's index)
        for index, ind in enumerate(sets, start=1):
            n, kept = naive_deletion(g.n, edges, ind)
            verdict = tables[n][sum(slots[n][e] for e in kept)]
            for pair in pairs:
                if not verdict[pair]:
                    first.setdefault(pair, (ind, index))
            if len(first) == len(pairs):
                break
        for a, b in pairs:
            assert first_failing_set(g, FactorParams(a, b)) == first.get((a, b), (None, len(sets)))


def test_every_set_a_relaxed_solve_clears_has_a_factor():
    # Each saturated relaxed solve at I stands for every independent I + J, J inside A,
    # J empty included: I itself is the next set yielded, feasible, with no set decided.
    cleared = 0
    for g in labeled_graphs(5):
        edges = g.edges()
        adj = adjacency(g.n, edges)
        for a, b in ((1, 2), (1, 3), (2, 3)):
            verdicts, relaxed = traced_solves(g, FactorParams(a, b))
            for at, ind, reach, ok in relaxed:
                if not ok:
                    continue
                assert verdicts[at] == (ind, True)
                for size in range(len(reach) + 1):
                    for extra in combinations(sorted(reach), size):
                        deleted = ind | set(extra)
                        if all(adj[u].isdisjoint(deleted) for u in deleted):
                            cleared += 1
                            assert naive_has_factor(*naive_deletion(g.n, edges, deleted), a, b)
    assert cleared == 1116


@pytest.mark.parametrize("a", [1, 2, 3])
def test_no_relaxed_solve_is_tried_when_a_equals_b(a):
    # b|A| <= (b - a)|V - I| fails for every nonempty A when a = b.
    params = FactorParams(a, a)
    cases = [g for g in reference_graphs() if g.n] + list(extremal_instances())
    assert all(traced_solves(g, params)[1] == [] for g in cases)
    # the same graphs do see relaxed solves when a < b
    assert sum(len(traced_solves(g, FactorParams(a, a + 1))[1]) for g in cases) > 100


PAIRS = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]


def extremal_instances():
    """Both extremal families under each of PAIRS, t = 1-6, wherever the order is at most 20."""
    for build in GENERATED_KINDS.values():
        for a, b in PAIRS:
            for t in range(1, 7):
                try:
                    g = build(FactorParams(a, b), t)[0]
                except InputError:  # the degree family needs b * t even
                    continue
                if g.n <= 20:
                    yield g


def test_weighted_count_is_the_unpruned_index_on_the_extremal_families():
    checked = 0
    for g in extremal_instances():
        for other in PAIRS:
            assert_index_is_the_unpruned_index(g, FactorParams(*other))
            checked += 1
    assert checked == 27 * len(PAIRS)


def assert_counts_match_the_oracle(g):
    sizes = Counter(len(ind) for ind in naive_independent_sets(g.n, g.edges()))
    count, everything = criticality._independent_counter(g), (1 << g.n) - 1
    at_most = list(accumulate(sizes[k] for k in range(g.n + 1)))
    assert [count(everything, k) for k in range(-1, g.n + 1)] == [0] + at_most


def test_counts_by_size_match_the_oracle_on_every_small_graph():
    for g in labeled_graphs(6):
        assert_counts_match_the_oracle(g)


def test_counts_by_size_match_the_oracle_on_random_graphs():
    for n in range(7, 17):
        for p in (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)):
            assert_counts_match_the_oracle(random_graph(n, p, 10 * n + p.denominator))


def test_counting_the_complete_graph_of_order_1000_stays_shallow():
    # every free mask below the root is empty, so no RecursionError at any order
    assert first_failing_set(complete_graph(1000), P11) == (None, 1001)


def test_a_small_failure_is_indexed_without_counting_larger_sets(monkeypatch):
    # G(50, 1/8) fails at {16}: the index needs sets of size <= 1 only, not all 2^50 masks
    asked = []
    real = criticality._independent_counter

    def counter(g):
        count = real(g)

        def recorded(mask, k):
            asked.append(k)
            return count(mask, k)

        return recorded

    monkeypatch.setattr(criticality, "_independent_counter", counter)
    assert first_failing_set(random_graph(50, Fraction(1, 8), 1), P11) == (frozenset({16}), 18)
    assert max(asked) <= 1


def test_the_index_of_a_complete_tripartite_failure_counts_by_binomials():
    # K_{300,300,301} under (1,1): every set of 299 or fewer vertices of one part
    # leaves a fractional perfect matching, and the first part {0..299} does not
    g = complete_multipartite_graph((300, 300, 301))
    smaller = sum(2 * comb(300, j) + comb(301, j) for j in range(1, 300))
    assert first_failing_set(g, P11) == (frozenset(range(300)), 1 + smaller + 1)


def test_the_count_memoizes_fewer_masks_than_the_graph_has_sets(monkeypatch):
    # So its cap, CRITICALITY_BUDGET = 2^20 masks, trips at no order <= 20. Only the
    # failing set is handed over as decided, so the DFS's own cap cannot trip first.
    real = criticality.deletion_verdicts
    cases = [(g, FactorParams(a, b)) for g in reference_graphs() if g.n for a, b in PAIRS]
    cases += [(g, FactorParams(*pair)) for g in extremal_instances() for pair in PAIRS]
    for g, params in cases:
        want = first_failing_set(g, params)
        failing = [(ind, ok) for ind, ok in real(g, params) if not ok][-1:]
        total = sum(1 for _ in enumerate_independent_sets(g))
        with monkeypatch.context() as patch:
            patch.setattr(criticality, "deletion_verdicts", lambda *_: iter(failing))
            patch.setattr(criticality, "CRITICALITY_BUDGET", total - 1)
            assert first_failing_set(g, params) == want


def sharpness_instances():
    """The extremal graphs of order <= 20 that the benchmark times, with their pairs."""
    grid = {
        neighborhood_extremal_graph: {(1, 1): range(1, 7), (1, 2): (1, 2, 3), (2, 2): (1, 2, 3)},
        min_degree_extremal_graph: {(1, 1): (2, 4, 6), (1, 2): (2, 3, 4), (2, 2): (1, 2, 3)},
    }
    return [
        (build(FactorParams(a, b), t)[0], FactorParams(a, b))
        for build, pairs in grid.items()
        for (a, b), ts in pairs.items()
        for t in ts
    ]


def test_the_extremal_families_decide_one_set_per_twin_orbit():
    # The sharpness instances of order <= 20 timed by the benchmark decided
    # 2,039 sets before twin reduction, and 319 before relaxed solves.
    solves = [traced_solves(g, params) for g, params in sharpness_instances()]
    decided = sum(len(verdicts) for verdicts, _ in solves)
    relaxed = sum(len(relaxed) for _, relaxed in solves)
    assert (len(solves), decided, relaxed) == (21, 265, 29)


def test_no_restore_call_decides_a_set_a_relaxed_solve_already_proves():
    # A saturated relaxed solve at I proves G - I as well (J empty), so I is not decided
    # after it: each yield is one restore call, a decide or a saturated relaxed solve, and
    # each relaxed solve that does not saturate is one more.
    real = criticality.augmenting_search
    calls = 0

    def search(adj, b):
        restore = real(adj, b)

        def counted(*args):
            nonlocal calls
            calls += 1
            return restore(*args)

        return counted

    expected = saturated = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(criticality, "augmenting_search", search)
        for g, params in sharpness_instances() + larger_order_cases():
            verdicts, relaxed = traced_solves(g, params)
            proved = sum(ok for *_, ok in relaxed)
            saturated += proved
            expected += len(verdicts) + len(relaxed) - proved
            assert calls == expected
    assert (calls, saturated) == (2398, 283)


def test_twin_reduction_reaches_the_neighbourhood_family_past_the_cap():
    # n = 41: 99,309 sets without twin reduction, 40 before relaxed solves
    params = FactorParams(2, 3)
    g, labels = neighborhood_extremal_graph(params, 5)
    verdicts, relaxed = traced_solves(g, params)
    assert (g.n, len(verdicts), len(relaxed)) == (41, 21, 14)
    assert [ind for ind, ok in verdicts if not ok][-1] == labels.part_map["btK1"]


def test_failing_certificate_translates_back():
    report = is_fractional_id_factor_critical(cycle_graph(4), P11)
    # G - {0} is the path 1-2-3 re-indexed to 0-1-2
    assert report.vertex_map == {1: 0, 2: 1, 3: 2}
    assert report.failing_certificate.s == frozenset({1})
    original = report.certificate_in_original_labels()
    assert original == ViolationCertificate(frozenset({2}), frozenset({1, 3}), -1)


def test_report_certificate_is_the_oracles_in_the_input_labels():
    # Each failing report's JSON certificate is naive_violation on G - I, mapped back to G.
    failures = 0
    for n in range(3, 13):
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            g = random_graph(n, p, 100 * n + p.denominator)
            for a, b in ((a, b) for b in (1, 2, 3) for a in range(1, b + 1)):
                doc = is_fractional_id_factor_critical(g, FactorParams(a, b)).to_dict()
                if doc["verdict"]:
                    continue
                failing = set(doc["failing_set"])
                kept = [v for v in range(n) if v not in failing]
                s, t, delta = naive_violation(*naive_deletion(n, g.edges(), failing), a, b)
                want = {"s": sorted(kept[v] for v in s), "t": sorted(kept[v] for v in t)}
                want["delta"] = delta
                assert doc["certificate"] == want
                assert not failing & {*want["s"], *want["t"]}
                failures += 1
    assert failures == 136  # 52 of them with I nonempty


def test_octahedron_is_critical_for_11():
    # K_{2,2,2}: deleting any independent set leaves a dense graph
    g = complete_multipartite_graph((2, 2, 2))
    report = is_fractional_id_factor_critical(g, P11)
    assert report.verdict is True
    # independent sets: empty, 6 singletons, 3 part-pairs
    assert report.independent_sets_checked == 10


@pytest.mark.parametrize(
    "g, calls",
    [(complete_multipartite_graph((2, 2, 2)), 0), (cycle_graph(4), 1)],
    ids=["octahedron-critical", "c4-fails-at-0"],
)
def test_only_the_failing_set_is_deleted_and_solved(monkeypatch, g, calls):
    counts = {"solve": 0, "delete": 0}
    real_solve, real_delete = criticality.find_fractional_factor, Graph.delete_vertices

    def solve(*args):
        counts["solve"] += 1
        return real_solve(*args)

    def delete(*args):
        counts["delete"] += 1
        return real_delete(*args)

    monkeypatch.setattr(criticality, "find_fractional_factor", solve)
    monkeypatch.setattr(Graph, "delete_vertices", delete)
    report = is_fractional_id_factor_critical(g, P11)
    assert report.verdict is (calls == 0)
    assert counts == {"solve": calls, "delete": calls}


def test_criticality_respects_cap(monkeypatch):
    # The budget counts restore calls: sets decided and relaxed solves tried; no order is
    # refused on its own.
    assert criticality.CRITICALITY_BUDGET == 2**20  # every independent set of order 20 or less
    report = is_fractional_id_factor_critical(empty_graph(21), P11)
    assert (report.failing_set, report.independent_sets_checked) == (frozenset(), 1)
    assert report.failing_certificate is None  # G - I is above the subset-scan cap
    assert first_failing_set(complete_graph(21), P11) == (None, 22)

    # All 3,210 sets were decided before relaxed solves. 117 of the 122 relaxed solves
    # saturate and also prove their own node, so 190 + 122 - 117 restore calls are made.
    params = FactorParams(1, 2)
    g = random_graph(24, Fraction(1, 3), 24 * 10 + 3)
    verdicts, relaxed = traced_solves(g, params)
    assert (len(verdicts), len(relaxed), sum(ok for *_, ok in relaxed)) == (190, 122, 117)
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 195)
    assert first_failing_set(g, params) == (None, 3210)
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 194)
    message = "criticality check on 24 vertices: over 194 restore calls"
    with pytest.raises(ResourceLimitError, match=message):
        first_failing_set(g, params)
    with pytest.raises(ResourceLimitError, match=message):
        is_fractional_id_factor_critical(g, params)

    # The count has its own cap on memoized masks: 120 of them for this graph's 3,210 sets.
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 120)
    assert criticality._independent_counter(g)((1 << 24) - 1, 24) == 3210
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 119)
    with pytest.raises(ResourceLimitError, match="on 24 vertices: over 119 masks counted"):
        criticality._independent_counter(g)((1 << 24) - 1, 24)


# (a, b, n, p, sample) of seeded G(n, p) past order 20 whose deletions fail on some I
PAST_20 = [
    (1, 2, 21, Fraction(1, 4), 0),
    (1, 2, 26, Fraction(1, 5), 1),
    (1, 2, 33, Fraction(1, 5), 2),
    (2, 2, 33, Fraction(1, 5), 0),
    (2, 2, 40, Fraction(1, 5), 1),
    (2, 3, 26, Fraction(3, 10), 2),
    (2, 3, 40, Fraction(1, 5), 2),
    (3, 3, 33, Fraction(3, 10), 0),
    (3, 3, 40, Fraction(1, 5), 2),
]


def test_deletion_verdicts_match_deleting_and_solving_past_order_20():
    # Each G - I is decided afresh, with no warm start from the set I extends.
    cases = [
        (random_graph(n, p, 100 * n + 10 * a + b + i), FactorParams(a, b))
        for a, b, n, p, i in PAST_20
    ]
    cases += [
        (random_graph(n, Fraction(3, 4), n), FactorParams(a, b))
        for a, b in ((1, 2), (2, 2), (2, 3), (3, 3))
        for n in (21, 40)
    ]
    decided = failed = solves = 0
    for g, params in cases:
        verdicts, relaxed = traced_solves(g, params)
        for ind, ok in verdicts:
            sub, _ = g.delete_vertices(ind)
            assert ok == has_fractional_factor(sub, params)
            decided += 1
            failed += not ok
        solves += len(relaxed)
    # 7,305 sets decided before relaxed solves; a failing set's relaxed solve is tried
    # before it is decided, and fails
    assert (decided, failed, solves) == (4801, 61, 215)


@pytest.mark.parametrize("n", range(21, 25))
def test_first_failing_set_is_the_first_failure_of_the_unpruned_walk_past_order_20(n):
    outcomes = []
    for a, b in ((1, 2), (2, 2), (2, 3)):
        params = FactorParams(a, b)
        g = random_graph(n, Fraction(1, 3), 10 * n + a + b)
        for index, ind in enumerate(enumerate_independent_sets(g), start=1):
            if not has_fractional_factor(g.delete_vertices(ind)[0], params):
                want = ind, index
                break
        else:
            want = None, index
        assert first_failing_set(g, params) == want
        outcomes.append(want[0] is None)
    assert outcomes == [True, n == 24, n == 22]


def test_condition_passing_graphs_of_the_33_region_are_critical():
    # (3,3) first meets the order condition at n = 28.
    params = FactorParams(3, 3)
    assert [order_margin(n, params) for n in (27, 28)] == [-1, 2]
    passing = 0
    for n in range(28, 33):
        for p in (Fraction(3, 4), Fraction(9, 10)):
            for i in range(4):
                g = random_graph(n, p, 1000 * n + i)
                if not check_criticality_conditions(g, params).all_ok:
                    continue
                passing += 1
                report = is_fractional_id_factor_critical(g, params)
                assert report.verdict
                assert report.independent_sets_checked == len(list(enumerate_independent_sets(g)))
    assert passing == 40


SIX_PAIRS = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]


def test_proves_critical_clears_only_critical_graphs_on_every_small_graph():
    # The oracle deletes every independent set of each graph cleared. Below order 6 only
    # complete graphs are cleared; at order 6, (1,2) and (1,3) also clear K6 less a
    # nonempty matching (15 with one edge gone, 45 with two, 15 with three).
    cleared = Counter()
    for g in labeled_graphs(6):
        edges = g.edges()
        for a, b in SIX_PAIRS:
            if g.n and proves_critical(g, FactorParams(a, b)):
                cleared[g.n, len(edges), a, b] += 1
                for ind in naive_independent_sets(g.n, edges):
                    assert naive_has_factor(*naive_deletion(g.n, edges, ind), a, b)
    assert cleared == {
        (4, 6, 1, 2): 1, (4, 6, 1, 3): 1,
        (5, 10, 1, 1): 1, (5, 10, 1, 2): 1, (5, 10, 1, 3): 1,
        (6, 12, 1, 2): 15, (6, 12, 1, 3): 15,
        (6, 13, 1, 2): 45, (6, 13, 1, 3): 45,
        (6, 14, 1, 2): 15, (6, 14, 1, 3): 15,
        (6, 15, 1, 1): 1, (6, 15, 1, 2): 1, (6, 15, 1, 3): 1, (6, 15, 2, 3): 1,
    }
    assert sum(cleared.values()) == 159


def lemma_cases():
    """Seeded G(n, p), n 5-22 and p 1/2-9/10, two of each, under each of SIX_PAIRS."""
    for n in range(5, 23):
        for p in (Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(4, 5), Fraction(9, 10)):
            for i in range(2):
                g = random_graph(n, p, 1000 * n + 10 * p.numerator + i)
                for a, b in SIX_PAIRS:
                    yield g, FactorParams(a, b)


def test_every_random_graph_proves_critical_clears_is_critical():
    cleared = 0
    for g, params in lemma_cases():
        if proves_critical(g, params):
            cleared += 1
            for ind in enumerate_independent_sets(g):
                assert has_fractional_factor(g.delete_vertices(ind)[0], params)
    assert cleared == 445


def test_every_graph_the_cruder_pair_bound_clears_is_still_cleared():
    # The pair case once charged x and y a neighbours each outside S and dropped d(T):
    # k2 = floor(((a + b)(U - 2a) - a*n) / b). _pair_margin's docstring proves min C is never
    # below that; here each instance it cleared is cleared still.
    cruder = 0
    for g, params in lemma_cases():
        a, b, n = params.a, params.b, g.n
        k = g.min_degree() - a + -a * (a + 1) // b
        worst = g.least_union_pair()
        if worst is not None:
            crude = (a + b) * (worst[1] - 2 * a) - a * n
            assert criticality._pair_margin(n, a, b, worst[1]) >= crude
            k = min(k, crude // b)
        if k >= 0 and next(criticality._sets_of_size(g.adjacency_masks(), k + 1), None) is None:
            cruder += 1
            assert proves_critical(g, params), (n, g.edges(), a, b)
    assert cruder == 293


def brute_pair_margin(n, a, b, union):
    """min C(h1, h2) over every 0 <= h1 <= a - 1 and h1 <= h2 <= min(a, n)."""
    return min(
        (a + b - h2) * (union - h1 - h2) - (a - h2) * n - (h2 - h1) * (h1 + 1)
        for h1 in range(a)
        for h2 in range(h1, min(a, n) + 1)
    )


def test_pair_margin_is_the_least_c_over_every_degree_pair():
    for n in range(1, 25):
        for a in range(1, 8):
            for b in range(a, 10):
                for union in range(n + 1):
                    want = brute_pair_margin(n, a, b, union)
                    assert criticality._pair_margin(n, a, b, union) == want, (n, a, b, union)


def test_the_pair_case_clears_a_graph_the_cruder_bound_cannot(monkeypatch):
    g, params = random_graph(100, Fraction(1, 2), 3), FactorParams(3, 3)  # a CI contract row
    adj = g.adjacency_masks()
    assert (g.min_degree(), g.least_union_pair()[1]) == (38, 59)
    # alpha is 9: the cruder k2 = floor((6 * 53 - 300) / 3) = 6 finds a set of 7, while
    # k1 = 31 and k2 = floor(min C / 3) = 18 find no set of 19
    assert next(criticality._sets_of_size(adj, 9), None)
    assert next(criticality._sets_of_size(adj, 10), None) is None
    assert criticality._pair_margin(100, 3, 3, 59) // 3 == 18
    assert proves_critical(g, params)

    def never_searched(*_):
        raise AssertionError("deletion_verdicts ran")

    monkeypatch.setattr(criticality, "deletion_verdicts", never_searched)
    assert first_failing_set(g, params) == (None, 175455)


def independence_number(adj, candidates):
    """The largest independent set inside candidates: its least vertex is left out or taken."""
    if not candidates:
        return 0
    v = min(candidates)
    rest = candidates - {v}
    return max(independence_number(adj, rest), 1 + independence_number(adj, rest - adj[v]))


def test_proves_critical_is_the_lemma_with_alpha_computed():
    # b(delta - alpha - a) >= a(a + 1) and, with a nonadjacent pair, min C >= b*alpha,
    # with alpha and U read off the oracle's sets and C minimized over every (h1, h2)
    decided = Counter()
    for g, params in lemma_cases():
        a, b, n = params.a, params.b, g.n
        adj = adjacency(n, g.edges())
        alpha = independence_number(adj, set(range(n)))
        delta = min(len(adj[v]) for v in range(n))
        unions = [len(adj[x] | adj[y]) for x, y in combinations(range(n), 2) if y not in adj[x]]
        want = b * (delta - alpha - a) >= a * (a + 1) and (
            not unions or brute_pair_margin(n, a, b, min(unions)) >= b * alpha
        )
        assert proves_critical(g, params) is want, (n, g.edges(), a, b)
        decided[want] += 1
    assert decided == {True: 445, False: 635}


def test_proves_critical_clears_no_extremal_graph():
    built = 0
    for build in GENERATED_KINDS.values():
        for a, b in SIX_PAIRS:
            params = FactorParams(a, b)
            for t in range(1, 9):
                try:
                    g = build(params, t)[0]
                except InputError:  # the degree family needs b * t even
                    continue
                built += 1
                assert not proves_critical(g, params), (build.__name__, a, b, t)
    assert built == 79


def test_a_cleared_graph_decides_no_set_and_a_long_walk_abstains(monkeypatch):
    g, params = random_graph(20, Fraction(2, 3), 1), FactorParams(2, 2)  # a CI contract row

    def never_searched(*_):
        raise AssertionError("deletion_verdicts ran")

    with monkeypatch.context() as patch:
        patch.setattr(criticality, "deletion_verdicts", never_searched)
        assert first_failing_set(g, params) == (None, 135)
    # The question walk needs more than one prefix here; past the budget it abstains.
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 1)
    assert not proves_critical(g, params)


def test_proves_critical_walks_once_and_only_past_delta(monkeypatch):
    walked = []
    walk = criticality._sets_of_size

    def counted(adj, size):
        walked.append(size)
        return walk(adj, size)

    monkeypatch.setattr(criticality, "_sets_of_size", counted)
    g = random_graph(120, Fraction(2, 5), 1)
    assert (g.min_degree(), g.least_union_pair()[1]) == (33, 57)  # alpha is 12
    assert proves_critical(g, FactorParams(1, 2))  # k1 = 31, k2 = 25: no set of 26
    assert walked == [26]
    assert not proves_critical(g, FactorParams(3, 4))  # k1 = 27, k2 = 9: a set of 10
    assert walked == [26, 10]

    def never_read(*_):
        raise AssertionError("least_union_pair ran")

    monkeypatch.setattr(Graph, "least_union_pair", never_read)
    assert not proves_critical(path_graph(3), P11)  # k1 = 1 - 1 - 2 < 0
    assert walked == [26, 10]


def test_report_serialization_shape():
    report = is_fractional_id_factor_critical(cycle_graph(4), P11)
    doc = report.to_dict()
    assert doc["verdict"] is False
    # one certificate, in G's labels: G - {0} is the path 1-2-3
    assert doc == {
        "verdict": False,
        "independent_sets_checked": 2,
        "failing_set": [0],
        "certificate": {"s": [2], "t": [1, 3], "delta": -1},
    }
    above_the_cap = is_fractional_id_factor_critical(path_graph(21), P11).to_dict()
    assert (above_the_cap["failing_set"], above_the_cap["certificate"]) == ([], None)
    assert is_fractional_id_factor_critical(complete_graph(3), P11).to_dict() == {
        "verdict": True,
        "independent_sets_checked": 4,
    }


def test_a_beyond_a_machine_word_fails_at_the_first_short_round():
    # a = 2**63 would not fit a list of n * a saturation rounds; P3 fails at round 2.
    params = FactorParams(2**63, 2**63)
    p3 = path_graph(3)
    assert has_fractional_factor(p3, params) is False
    report = is_fractional_id_factor_critical(p3, params)
    assert (report.verdict, report.failing_set, report.independent_sets_checked) == (
        False,
        frozenset(),
        1,
    )
    # With b - a huge the root's relaxed solve passes its gate (A = {0, 3}) and is tried
    # first; it runs short at once, and so does the root's decide.
    params = FactorParams(2**62, 2**63)
    triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    verdicts, relaxed = traced_solves(triangles, params)
    assert (verdicts, relaxed) == ([(frozenset(), False)], [(0, frozenset(), frozenset({0, 3}), False)])
    report = is_fractional_id_factor_critical(triangles, params)
    assert (report.verdict, report.failing_set, report.independent_sets_checked) == (
        False,
        frozenset(),
        1,
    )
