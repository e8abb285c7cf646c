import random
import re
from fractions import Fraction
from itertools import combinations, islice, permutations

import pytest

from fracfactor import (
    FactorParams,
    FractionalAssignment,
    Infeasible,
    InputError,
    ResourceLimitError,
    ViolationCertificate,
    complete_multipartite_graph,
    criticality,
    delta_st,
    factor,
    find_fractional_factor,
    has_fractional_factor,
    has_fractional_factor_bruteforce,
    random_graph,
    validate_assignment,
)
from fracfactor import Graph

from oracle import all_subsets, naive_delta, naive_has_factor, naive_violation
from standard_graphs import complete_graph, cycle_graph, empty_graph, path_graph

P11 = FactorParams(1, 1)


def test_params_validate():
    FactorParams(1, 3)
    with pytest.raises(InputError):
        FactorParams(0, 1)
    with pytest.raises(InputError):
        FactorParams(3, 2)
    with pytest.raises(InputError):
        FactorParams(1, "2")


@pytest.mark.parametrize("a, b", [(True, True), (1, True), (True, 2)])
def test_params_refuse_bools(a, b):
    with pytest.raises(InputError, match="must be integers"):
        FactorParams(a, b)


# -- delta_st -----------------------------------------------------------------


def test_delta_star_center():
    # star with 3 leaves: deleting the center isolates the leaves
    star = complete_multipartite_graph((1, 3))
    t, delta = delta_st(star, P11, {0})
    assert t == frozenset({1, 2, 3})
    assert delta == -2


def test_delta_complete_graph_empty_s():
    for n in (3, 5, 8):
        t, delta = delta_st(complete_graph(n), P11, ())
        assert t == frozenset()
        assert delta == 0


def test_delta_matches_reference_on_paths():
    g = path_graph(6)
    for s in [(), (0,), (2,), (1, 4), (0, 2, 4)]:
        t_ref, d_ref = naive_delta(6, g.edges(), 1, 1, s)
        t_got, d_got = delta_st(g, P11, s)
        assert (set(t_got), d_got) == (t_ref, d_ref)


def test_delta_rejects_bad_subset():
    with pytest.raises(InputError):
        delta_st(path_graph(3), P11, {7})


# -- subset-scan oracle -------------------------------------------------------


def test_bruteforce_path3_certificate():
    # frozen from the naive scan: S={1} isolates both endpoints
    cert = has_fractional_factor_bruteforce(path_graph(3), P11)
    assert isinstance(cert, ViolationCertificate)
    assert cert.s == frozenset({1})
    assert cert.t == frozenset({0, 2})
    assert cert.delta == -1
    assert naive_violation(3, [(0, 1), (1, 2)], 1, 1) == ({1}, {0, 2}, -1)


def test_bruteforce_star_certificate():
    star = complete_multipartite_graph((1, 3))
    cert = has_fractional_factor_bruteforce(star, P11)
    assert cert.s == frozenset({0})
    assert cert.t == frozenset({1, 2, 3})
    assert cert.delta == -2


def test_bruteforce_feasible_cases():
    assert has_fractional_factor_bruteforce(cycle_graph(4), P11) is True
    assert has_fractional_factor_bruteforce(complete_graph(3), P11) is True
    assert has_fractional_factor_bruteforce(empty_graph(0), P11) is True


def test_bruteforce_isolated_vertex_infeasible():
    cert = has_fractional_factor_bruteforce(empty_graph(1), P11)
    assert cert.s == frozenset()
    assert cert.t == frozenset({0})
    assert cert.delta == -1


def test_bruteforce_respects_cap():
    with pytest.raises(ResourceLimitError):
        has_fractional_factor_bruteforce(empty_graph(21), P11)
    with pytest.raises(ResourceLimitError):
        has_fractional_factor_bruteforce(complete_graph(21), P11)


def test_bruteforce_two_disjoint_stars():
    # deficiencies add across components: taking both centers beats either one
    g = Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    cert = has_fractional_factor_bruteforce(g, P11)
    ref = naive_violation(6, g.edges(), 1, 1)
    assert (set(cert.s), set(cert.t), cert.delta) == ref
    assert cert.s == frozenset({0, 3})
    assert cert.t == frozenset({1, 2, 4, 5})
    assert cert.delta == -2


def test_bruteforce_tiebreak_prefers_smaller_set():
    # path on 3 vertices with both bounds 2: the empty set and {1} reach the
    # same deficiency, the smaller witness wins.
    g = path_graph(3)
    cert = has_fractional_factor_bruteforce(g, FactorParams(2, 2))
    t_empty, d_empty = delta_st(g, FactorParams(2, 2), frozenset())
    t_mid, d_mid = delta_st(g, FactorParams(2, 2), frozenset({1}))
    assert d_empty == d_mid == -2
    assert cert.s == frozenset()
    assert cert.t == t_empty == frozenset({0, 1, 2})
    ref = naive_violation(3, g.edges(), 2, 2)
    assert (set(cert.s), set(cert.t), cert.delta) == ref


def test_bruteforce_worst_t_may_hold_an_edge():
    # K2 under (2, 2): both endpoints sit in the worst T with S empty, so a
    # walk over the independent sets T alone would miss the certificate.
    cert = has_fractional_factor_bruteforce(complete_graph(2), FactorParams(2, 2))
    assert (cert.s, cert.t, cert.delta) == (frozenset(), frozenset({0, 1}), -2)
    assert naive_violation(2, [(0, 1)], 2, 2) == (set(), {0, 1}, -2)


SCAN_PAIRS = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]


def assert_scan_is_the_oracle(g: Graph, a: int, b: int) -> None:
    scan = has_fractional_factor_bruteforce(g, FactorParams(a, b))
    got = None if scan is True else (set(scan.s), set(scan.t), scan.delta)
    assert got == naive_violation(g.n, g.edges(), a, b), (g.n, g.edges(), a, b)


def test_scan_certificate_is_the_oracles_on_every_graph_to_order_5():
    for n in range(6):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            g = Graph(n, [slots[i] for i in range(len(slots)) if (mask >> i) & 1])
            for a, b in SCAN_PAIRS:
                assert_scan_is_the_oracle(g, a, b)


def by_degree(g: Graph) -> Graph:
    """g relabelled so that the highest degrees take the lowest labels."""
    degrees = g.degrees()
    label = {v: i for i, v in enumerate(sorted(range(g.n), key=lambda v: -degrees[v]))}
    return Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])


@pytest.mark.parametrize("n", range(6, 13))
def test_scan_certificate_is_the_oracles_on_random_graphs(n):
    # In the relabelled graphs S*(T) draws members from below T's lowest candidate.
    for p in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
        g = random_graph(n, p, 1000 * n + p.denominator)
        top = max(1, max(g.degrees()))  # with a >= the maximum degree every T is a-sparse
        for h in (g, by_degree(g)):
            for a, b in SCAN_PAIRS[n % 3 :: 3] + [(top, top), (top, top + 2)]:
                assert_scan_is_the_oracle(h, a, b)
    # The worst S above is mostly empty. The odd paths under (1,1) fail at S = the odd
    # vertices, and G(n, 1/3) under every a <= b <= 4 puts vertices of degree above b
    # beside low-degree ones: over n = 6-12, 43 of these certificates have a nonempty S.
    assert_scan_is_the_oracle(path_graph(n), 1, 1)
    g = random_graph(n, Fraction(1, 3), 2000 * n + 3)
    for h in (g, by_degree(g)):
        for b in range(1, 5):
            for a in range(1, b + 1):
                assert_scan_is_the_oracle(h, a, b)


# -- flow solver --------------------------------------------------------------


def test_solver_k2_forced_weight():
    result = find_fractional_factor(complete_graph(2), P11)
    assert isinstance(result, FractionalAssignment)
    assert result.values == {(0, 1): Fraction(1)}


def test_solver_triangle_all_halves():
    result = find_fractional_factor(complete_graph(3), P11)
    assert result.values == {
        (0, 1): Fraction(1, 2),
        (0, 2): Fraction(1, 2),
        (1, 2): Fraction(1, 2),
    }


def test_solver_path3_infeasible_with_certificate():
    result = find_fractional_factor(path_graph(3), P11)
    assert isinstance(result, Infeasible)
    assert not result
    assert result.certificate == ViolationCertificate(
        s=frozenset({1}), t=frozenset({0, 2}), delta=-1
    )


def test_solver_certificate_suppressed_above_cap():
    result = find_fractional_factor(path_graph(21), P11)
    assert isinstance(result, Infeasible)
    assert result.certificate is None


def test_solver_empty_graph_trivially_feasible():
    result = find_fractional_factor(empty_graph(0), P11)
    assert isinstance(result, FractionalAssignment)
    assert result.values == {}


def test_solver_agrees_with_oracle_on_small_corpus():
    graphs = [
        path_graph(4),
        path_graph(5),
        cycle_graph(5),
        cycle_graph(6),
        complete_graph(4),
        complete_multipartite_graph((1, 3)),
        complete_multipartite_graph((2, 3)),
        complete_multipartite_graph((1, 1, 2)),
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]),
        empty_graph(3),
    ]
    params_grid = [FactorParams(a, b) for a in (1, 2) for b in (a, a + 1)]
    for g in graphs:
        for params in params_grid:
            oracle = has_fractional_factor_bruteforce(g, params)
            result = find_fractional_factor(g, params)
            assert (oracle is True) == isinstance(result, FractionalAssignment)
            if oracle is True:
                check = validate_assignment(g, params, result)
                assert check.ok
                assert all(val.denominator in (1, 2) for val in result.values.values())


ORACLE_PAIRS = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]


def per_isomorphism_class(n: int, label_free):
    """label_free(edges) for every labeled graph on n vertices, keyed by edge mask.

    The value must not depend on labels, so label_free runs once per
    isomorphism class and its value is copied to every relabelling.
    """
    slots = list(combinations(range(n), 2))
    bit = {e: 1 << i for i, e in enumerate(slots)}
    perms = list(permutations(range(n)))
    values = {}
    for mask in range(1 << len(slots)):
        if mask in values:
            continue
        edges = [e for e in slots if mask & bit[e]]
        value = label_free(edges)
        for perm in perms:
            values[sum(bit[tuple(sorted((perm[u], perm[v])))] for u, v in edges)] = value
    return values


def oracle_verdicts(n: int) -> dict[int, dict[tuple[int, int], bool]]:
    """naive_has_factor under ORACLE_PAIRS for every labeled graph on n vertices, by edge mask."""
    return per_isomorphism_class(
        n, lambda edges: {(a, b): naive_has_factor(n, edges, a, b) for a, b in ORACLE_PAIRS}
    )


def test_has_fractional_factor_matches_the_oracle_on_every_small_graph():
    for n in range(7):
        slots = list(combinations(range(n), 2))
        verdicts = oracle_verdicts(n)
        assert len(verdicts) == 1 << len(slots)
        for mask, verdict in verdicts.items():
            g = Graph(n, [slots[i] for i in range(len(slots)) if (mask >> i) & 1])
            for a, b in ORACLE_PAIRS:
                assert has_fractional_factor(g, FactorParams(a, b)) == verdict[(a, b)], (mask, a, b)


def worst_sets(n: int, edges, a: int, b: int) -> list[tuple[int, ...]]:
    """Every S attaining the least (delta, |S|) by naive_delta, or [] when no delta is negative."""
    keyed = [(naive_delta(n, edges, a, b, s)[1], len(s), s) for s in all_subsets(n)]
    best = min(keyed)
    return [s for delta, size, s in keyed if (delta, size) == best[:2]] if best[0] < 0 else []


def test_the_worst_smallest_violating_set_is_unique():
    # The subset scan relies on this (see its docstring) to need no lexicographic tie-break.
    pairs = [(1, 1), (1, 2), (2, 2)]
    infeasible = 0
    for n in range(7):
        counts = per_isomorphism_class(
            n, lambda edges: [len(worst_sets(n, edges, a, b)) for a, b in pairs]
        )
        assert len(counts) == 1 << (n * (n - 1) // 2)
        for mask, per_pair in counts.items():
            assert set(per_pair) <= {0, 1}, (n, mask, per_pair)
            infeasible += sum(per_pair)
    assert infeasible > 0


@pytest.mark.parametrize("n", range(7, 13))
def test_has_fractional_factor_matches_the_oracle_on_random_graphs(n):
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        g = random_graph(n, p, 100 * n + p.denominator)
        for a, b in ORACLE_PAIRS:
            assert has_fractional_factor(g, FactorParams(a, b)) == naive_has_factor(
                n, g.edges(), a, b
            ), (n, p, a, b)


# -- b-matching search ---------------------------------------------------------


def b_matching(n: int, units, b: int) -> tuple[list[int], list[int], int]:
    """used, owners and full for the units (left x, right w) of a b-matching on n vertices."""
    used, owners = [0] * n, [0] * n
    for x, w in units:
        used[x] |= 1 << w
        owners[w] |= 1 << x
    return used, owners, sum(1 << w for w in range(n) if owners[w].bit_count() == b)


# 0 is short, and its only way out is 0 -> 1 <- 2 -> 3 <- 4 -> 5 <- 6 -> 7
CHAIN = [(2, 1), (4, 3), (6, 5)]


@pytest.mark.parametrize(
    "others",
    [[], [(1, 0), (3, 2), (5, 4), (7, 6)]],
    # every right vertex off the path is a goal, or only the path's end 7 is
    ids=["many-goals", "one-goal"],
)
def test_restore_flips_the_one_path_across_four_left_layers(others):
    used, owners, full = b_matching(8, CHAIN + others, 1)
    restore = factor.augmenting_search(path_graph(8).adjacency_masks(), 1)
    got = restore([0], used, owners, full, (1 << 8) - 1)
    want_used, want_owners, want_full = b_matching(8, [(0, 1), (2, 3), (4, 5), (6, 7)] + others, 1)
    assert (used, owners, got) == (want_used, want_owners, want_full)


@pytest.mark.parametrize(
    "g, others",
    [
        (Graph(8, [(v, v + 1) for v in range(6)]), []),  # the path 0..7 less its edge 67
        (path_graph(7), [(1, 0), (3, 2), (5, 4)]),  # the one-goal case less vertex 7
    ],
    ids=["many-goals", "one-goal"],
)
def test_restore_fails_without_the_paths_last_edge_and_changes_nothing(g, others):
    used, owners, full = b_matching(g.n, CHAIN + others, 1)
    before = used[:], owners[:]
    restore = factor.augmenting_search(g.adjacency_masks(), 1)
    assert restore([0], used, owners, full, (1 << g.n) - 1) == -1
    assert (used, owners) == before


def check_b_matching(adj, a: int, b: int, used, owners, full: int, alive: int, sending: int) -> None:
    """Each vertex of sending sends a units, the rest none, and only live vertices receive.

    alive lies inside sending: a relaxed solve keeps its vertices A sending
    while they take no unit, and a deleted vertex neither sends nor takes.
    """
    n = len(adj)
    mirror = [0] * n
    for w, senders in enumerate(owners):
        for x in range(n):
            if senders >> x & 1:
                mirror[x] |= 1 << w
    assert mirror == used  # used and owners record the same units
    assert alive & ~sending == 0
    for v in range(n):
        if sending >> v & 1:
            assert used[v] & ~(adj[v] & alive) == 0  # units only on edges to live vertices
            assert used[v].bit_count() == a
        else:
            assert used[v] == 0
        if not alive >> v & 1:
            assert owners[v] == 0
    assert max(m.bit_count() for m in owners) <= b
    assert full == sum(1 << w for w in range(n) if owners[w].bit_count() == b)


@pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_every_successful_restore_in_the_deletion_search_leaves_a_saturated_b_matching(
    monkeypatch, a, b
):
    # A vertex sends after a restore call if it sent or was listed short before it.
    checked = relaxed = 0

    def checked_search(adj, b):
        restore = factor.augmenting_search(adj, b)

        def checked_restore(short, used, owners, full, alive):
            nonlocal checked, relaxed
            short = list(short)
            sending = 0
            for v in short:
                sending |= 1 << v
            for v, units in enumerate(used):
                if units:
                    sending |= 1 << v
            full = restore(short, used, owners, full, alive)
            if full >= 0:
                check_b_matching(adj, a, b, used, owners, full, alive, sending)
                checked += 1
                relaxed += sending != alive
            return full

        return checked_restore

    monkeypatch.setattr(criticality, "augmenting_search", checked_search)
    params = FactorParams(a, b)
    for n in range(8, 41, 4):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            g = random_graph(n, p, 1000 * n + p.denominator)
            for _ in islice(criticality.deletion_verdicts(g, params), 150):
                pass
    assert checked > 1000
    assert (relaxed > 0) is (a < b)


def test_witness_flow_that_contradicts_the_search_is_a_bug(monkeypatch):
    monkeypatch.setattr(factor, "feasible_flow", lambda *args: None)
    with pytest.raises(RuntimeError, match="disagree"):
        find_fractional_factor(cycle_graph(4), P11)


def test_solver_witness_sums_and_range():
    g = complete_multipartite_graph((2, 3))  # K_{2,3}
    params = FactorParams(1, 2)
    result = find_fractional_factor(g, params)
    assert isinstance(result, FractionalAssignment)
    assert validate_assignment(g, params, result).ok
    sums = [sum((x for e, x in result.values.items() if v in e), Fraction(0)) for v in range(g.n)]
    assert all(1 <= s <= 2 for s in sums)
    assert all(0 <= v <= 1 for v in result.values.values())


def test_witness_values_are_the_three_half_steps():
    # every witness value is one of factor.HALF_STEPS, shared rather than rebuilt
    seen = set()
    for n in (6, 9, 12):
        g = random_graph(n, Fraction(2, 3), n)
        result = find_fractional_factor(g, P11)
        assert isinstance(result, FractionalAssignment)
        for val in result.values.values():
            assert any(val is step for step in factor.HALF_STEPS)
            seen.add(val)
    assert factor.HALF_STEPS == (0, Fraction(1, 2), 1)
    assert all(type(step) is Fraction for step in factor.HALF_STEPS)
    assert seen == set(factor.HALF_STEPS)


# -- assignments --------------------------------------------------------------


def test_assignment_validates_values():
    with pytest.raises(InputError):
        FractionalAssignment({(1, 0): Fraction(1, 2)})
    for bad in (Fraction(3, 2), Fraction(-1, 2), Fraction(-1), Fraction(1001, 1000), 2, -1):
        with pytest.raises(InputError, match="outside"):
            FractionalAssignment({(0, 1): bad})
    for good in (Fraction(0), Fraction(1), Fraction(999, 1000), 0, 1, Fraction(1, 2)):
        assert FractionalAssignment({(0, 1): good}).values[(0, 1)] == good


@pytest.mark.parametrize("key", [(0,), (0, 1, 2), None, (0.5, 2), (True, 2), ("0", "1")])
def test_assignment_refuses_keys_that_are_not_integer_pairs(key):
    with pytest.raises(InputError, match=re.escape(f"assignment key {key!r} is not a pair")):
        FractionalAssignment({key: 1})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), None, "1/2", True, 0.25])
def test_assignment_refuses_values_that_are_not_int_or_fraction(bad):
    with pytest.raises(InputError, match=r"for \(0, 1\) is not an int or a Fraction"):
        FractionalAssignment({(0, 1): bad})


def test_assignment_converts_ints_and_floats_and_keeps_fractions():
    half = Fraction(1, 2)
    h = FractionalAssignment({(0, 1): 1, (1, 2): Fraction(1, 4), (2, 3): half})
    assert h.values == {(0, 1): 1, (1, 2): Fraction(1, 4), (2, 3): half}
    assert all(type(v) is Fraction for v in h.values.values())
    assert h.values[(2, 3)] is half


def test_vertex_sums_over_mixed_denominators_match_fraction_sums():
    # validate_assignment adds integer numerators over the common denominator;
    # its verdict must match plain Fraction sums, the ends of [a, b] included
    steps = sorted({Fraction(k, d) for d in (2, 3, 4, 6) for k in range(d + 1)})
    pairs = [FactorParams(1, 1), FactorParams(1, 2), FactorParams(2, 3)]
    verdicts = set()
    for seed in range(60):
        g = random_graph(6, Fraction(3, 4), seed)
        rng = random.Random(seed)
        values = {e: rng.choice(steps) for e in g.edges()}
        sums = [sum((x for e, x in values.items() if v in e), Fraction(0)) for v in range(g.n)]
        for params in pairs:
            want = all(params.a <= s <= params.b for s in sums)
            assert validate_assignment(g, params, FractionalAssignment(values)).ok == want
            verdicts.add((want, any(s in (params.a, params.b) for s in sums)))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}
    assert not validate_assignment(empty_graph(2), P11, FractionalAssignment()).ok


def test_validate_assignment_checks_keys_exactly():
    g = path_graph(3)
    with pytest.raises(InputError, match="missing"):
        validate_assignment(g, P11, FractionalAssignment({(0, 1): 1}))
    with pytest.raises(InputError, match="unknown"):
        validate_assignment(
            g,
            P11,
            FractionalAssignment({(0, 1): 1, (1, 2): 0, (0, 2): 0}),
        )


def test_validate_assignment_reports_sums():
    c4 = cycle_graph(4)
    halves = FractionalAssignment({e: Fraction(1, 2) for e in c4.edges()})
    assert validate_assignment(c4, P11, halves).ok  # every vertex sums to 1

    # vertex 1 sums to 2 and vertex 3 to 0: both outside [1, 1]
    lopsided = FractionalAssignment(
        {(0, 1): 1, (1, 2): 1, (2, 3): 0, (0, 3): 0}
    )
    assert not validate_assignment(c4, P11, lopsided).ok
    assert not validate_assignment(c4, FactorParams(1, 2), lopsided).ok  # vertex 3 alone


def test_validate_assignment_compares_totals_exactly_at_both_ends():
    # K4 under (1, 2): 2/3 on every edge puts each vertex at b exactly
    k4 = complete_graph(4)
    params = FactorParams(1, 2)
    values = {e: Fraction(2, 3) for e in k4.edges()}
    assert validate_assignment(k4, params, FractionalAssignment(values)).ok
    values[(0, 1)] += Fraction(1, 300)  # 0 and 1 sit just above b
    assert not validate_assignment(k4, params, FractionalAssignment(values)).ok
    values = {e: Fraction(1, 3) for e in k4.edges()}  # every vertex at a exactly
    assert validate_assignment(k4, params, FractionalAssignment(values)).ok
    values[(2, 3)] -= Fraction(1, 300)  # 2 and 3 sit at 1 - 1/300, just below a
    assert not validate_assignment(k4, params, FractionalAssignment(values)).ok


def test_certificate_requires_negative_delta():
    with pytest.raises(InputError):
        ViolationCertificate(s=frozenset(), t=frozenset(), delta=0)
