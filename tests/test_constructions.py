import random
from fractions import Fraction

import pytest

from fracfactor import (
    ConstructionError,
    FactorParams,
    InputError,
    Infeasible,
    KIND_DEGREE,
    KIND_NEIGHBORHOOD,
    check_criticality_conditions,
    constructions,
    criticality,
    delta_st,
    factor,
    find_fractional_factor,
    format_edge_list,
    is_fractional_id_factor_critical,
    min_degree_extremal_graph,
    neighborhood_extremal_graph,
    random_graph,
    verify_sharpness,
)
from fracfactor.constructions import ConstructionLabels


# -- neighborhood-extremal family ---------------------------------------------


def test_neighborhood_family_smallest_instance():
    g, labels = neighborhood_extremal_graph(FactorParams(1, 1), 1)
    assert g.n == 4
    assert labels.part_map == {
        "atK1": frozenset({0}),
        "btK1": frozenset({1}),
        "bt1K1": frozenset({2, 3}),
    }
    # complete tripartite: parts independent, everything else joined
    assert not (g.adjacency_masks()[2] >> 3) & 1
    assert g.m == 5
    assert g.min_degree() == 2


def test_neighborhood_family_order_formula():
    for a, b in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        for t in (1, 2, 3):
            g, _ = neighborhood_extremal_graph(FactorParams(a, b), t)
            assert g.n == (a + 2 * b) * t + 1


def test_neighborhood_family_worst_union_is_exact():
    for a, b, t in [(1, 1, 1), (1, 2, 2), (2, 3, 1)]:
        params = FactorParams(a, b)
        g, labels = neighborhood_extremal_graph(params, t)
        part = sorted(labels.part_map["bt1K1"])
        u, v = part[0], part[1]
        masks = g.adjacency_masks()
        assert not (masks[u] >> v) & 1
        assert (masks[u] | masks[v]).bit_count() == (a + b) * t
        report = check_criticality_conditions(g, params)
        assert report.worst_union_size == (a + b) * t
        assert not report.neighborhood_ok


def test_neighborhood_family_designated_deletion():
    for a, b, t in [(1, 1, 1), (1, 2, 1), (2, 2, 2), (2, 3, 2)]:
        params = FactorParams(a, b)
        g, labels = neighborhood_extremal_graph(params, t)
        sub, remap = g.delete_vertices(labels.part_map["btK1"])
        s = {remap[v] for v in labels.part_map["atK1"]}
        t_set, delta = delta_st(sub, params, s)
        assert delta == -a
        assert t_set == {remap[v] for v in labels.part_map["bt1K1"]}
        assert isinstance(find_fractional_factor(sub, params), Infeasible)


def test_neighborhood_family_rejects_bad_t():
    # both families share the check; a bool is not an integer t
    for generator in (neighborhood_extremal_graph, min_degree_extremal_graph):
        for t in (0, True):
            with pytest.raises(InputError, match="t must be a positive integer"):
                generator(FactorParams(2, 2), t)
    with pytest.raises(InputError, match="got True"):
        verify_sharpness("neighborhood-extremal", FactorParams(1, 1), True)


# -- degree-extremal family ---------------------------------------------------


def test_degree_family_structure():
    g, labels = min_degree_extremal_graph(FactorParams(2, 2), 1)
    assert g.n == 6
    assert labels.part_map["btK1"] == frozenset({0, 1})
    assert labels.part_map["at1K1"] == frozenset({2})
    assert labels.part_map["K2s"] == frozenset({3, 4})
    assert labels.part_map["u"] == frozenset({5})
    assert labels.markers["x"] == frozenset({2})
    masks = g.adjacency_masks()
    # the matched pair inside the K2 block
    assert (masks[3] >> 4) & 1
    # u reaches the first block and its a-1 designated vertices only
    assert masks[5] == 0b111
    assert g.min_degree() == 2 * 1 + 2 - 1


def test_degree_family_min_degree_formula():
    for a, b, t in [(1, 1, 2), (1, 2, 2), (2, 2, 1), (2, 2, 2), (2, 4, 1)]:
        g, labels = min_degree_extremal_graph(FactorParams(a, b), t)
        assert g.n == (a + 2 * b) * t
        (u,) = labels.part_map["u"]
        assert g.min_degree() == b * t + a - 1
        assert g.degree(u) == b * t + a - 1


def test_degree_family_deletion_strands_u():
    for a, b, t in [(1, 1, 2), (2, 2, 1), (2, 2, 2)]:
        params = FactorParams(a, b)
        g, labels = min_degree_extremal_graph(params, t)
        sub, remap = g.delete_vertices(labels.part_map["btK1"])
        (u,) = labels.part_map["u"]
        assert sub.degree(remap[u]) == a - 1
        assert sub.min_degree() == a - 1
        assert isinstance(find_fractional_factor(sub, params), Infeasible)


def test_degree_family_neighborhood_condition_always_holds():
    for a, b, t in [(1, 1, 2), (1, 2, 2), (2, 2, 1), (2, 3, 2)]:
        g, _ = min_degree_extremal_graph(FactorParams(a, b), t)
        report = check_criticality_conditions(g, FactorParams(a, b))
        assert report.neighborhood_ok


def test_degree_family_input_validation():
    # b*t odd
    with pytest.raises(InputError, match="even"):
        min_degree_extremal_graph(FactorParams(1, 1), 1)
    # a*t too small to populate the middle block
    with pytest.raises(InputError, match="a\\*t"):
        min_degree_extremal_graph(FactorParams(1, 2), 1)


# -- labels -------------------------------------------------------------------


def test_labels_must_partition():
    with pytest.raises(InputError):
        ConstructionLabels(n=3, part_map={"p": frozenset({0, 1})})
    with pytest.raises(InputError):
        ConstructionLabels(
            n=2, part_map={"p": frozenset({0, 1}), "q": frozenset({1})}
        )


def test_labels_serialize_as_ranges():
    _, labels = min_degree_extremal_graph(FactorParams(2, 2), 1)
    doc = labels.to_dict()
    assert doc["parts"]["btK1"] == [0, 2]
    assert doc["parts"]["u"] == [5, 6]
    assert doc["markers"]["x"] == [2, 3]


# -- random graphs ------------------------------------------------------------


def test_random_graph_deterministic():
    g1 = random_graph(8, Fraction(1, 2), seed=7)
    g2 = random_graph(8, Fraction(1, 2), seed=7)
    assert g1 == g2
    assert format_edge_list(g1) == format_edge_list(g2)


def test_random_graph_seed_sensitivity():
    g1 = random_graph(10, Fraction(1, 2), seed=1)
    g2 = random_graph(10, Fraction(1, 2), seed=2)
    assert g1 != g2  # astronomically unlikely to collide


def test_random_graph_extremes():
    assert random_graph(6, 0, seed=3).m == 0
    assert random_graph(6, 1, seed=3).m == 15
    assert random_graph(0, Fraction(1, 2), seed=3).n == 0


def _reference_random_edges(n, p, seed):
    """G(n, p) as a plain comparison of each draw with p."""
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def test_random_graph_matches_a_draw_by_draw_comparison():
    # k / 2^53 is the first draw of seed 0 itself, so that p and the
    # p +- 2^-80 beside it put the cut exactly on, just above and just below a draw
    k = int(random.Random(0).random() * 2**53)
    on_draw = Fraction(k, 2**53)
    probabilities = [
        Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2, 7),
        Fraction(1, 2**60), on_draw, on_draw + Fraction(1, 2**80),
        on_draw - Fraction(1, 2**80), 0.1, 1 / 3,
    ]
    for n in (0, 1, 2, 7, 25):
        for p in probabilities:
            for seed in (0, 1, 20261018):
                expected = _reference_random_edges(n, p, seed)
                assert random_graph(n, p, seed).edges() == expected, (n, p, seed)
    assert random_graph(2, on_draw, 0).m == 0
    assert random_graph(2, on_draw + Fraction(1, 2**80), 0).m == 1


def test_random_graph_rejects_bad_probability():
    with pytest.raises(InputError):
        random_graph(4, Fraction(3, 2), seed=0)
    with pytest.raises(InputError):
        random_graph(-1, Fraction(1, 2), seed=0)


@pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
def test_random_graph_refuses_non_finite_floats(p):
    with pytest.raises(InputError, match="edge probability"):
        random_graph(4, p, seed=0)


# -- sharpness audits ---------------------------------------------------------


NEIGHBORHOOD_GRID = [(a, b, t) for a, b in [(1, 1), (1, 2), (2, 2), (2, 3)] for t in (1, 2)]
DEGREE_GRID = [(1, 1, 2), (1, 2, 2), (2, 2, 1), (2, 2, 2)]


def test_verify_sharpness_passes_on_grid():
    for a, b, t in NEIGHBORHOOD_GRID:
        report = verify_sharpness(KIND_NEIGHBORHOOD, FactorParams(a, b), t)
        assert report.required_ok
        assert not report.criticality_skipped
    for a, b, t in DEGREE_GRID:
        report = verify_sharpness(KIND_DEGREE, FactorParams(a, b), t)
        assert report.required_ok


def test_verify_sharpness_runs_no_subset_scan(monkeypatch):
    # its checks read verdicts and failing sets, never a certificate
    def scan(*args):
        raise AssertionError("verify_sharpness ran the subset scan")

    monkeypatch.setattr(factor, "has_fractional_factor_bruteforce", scan)
    for kind, grid in ((KIND_NEIGHBORHOOD, NEIGHBORHOOD_GRID), (KIND_DEGREE, DEGREE_GRID)):
        for a, b, t in grid:
            report = verify_sharpness(kind, FactorParams(a, b), t)
            assert report.required_ok
            assert "not-critical" in {c.name for c in report.checks}


def test_verify_sharpness_skips_criticality_above_cap(monkeypatch):
    # order 25 is checked in full; only a tripped budget skips the check
    report = verify_sharpness(KIND_NEIGHBORHOOD, FactorParams(2, 3), 3)
    assert (report.n, report.criticality_skipped) == (25, False)
    assert report.checks[-1].detail == "failing set [6, 7, 8, 9, 10, 11, 12, 13, 14]"
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 5)
    report = verify_sharpness(KIND_NEIGHBORHOOD, FactorParams(2, 3), 3)
    assert report.criticality_skipped
    assert "not-critical" not in {c.name for c in report.checks}
    assert report.required_ok


NEIGHBORHOOD_CHECKS = [
    ("order-formula", True),
    ("worst-pair-union", True),
    ("neighborhood-margin-window", True),
    ("designated-deletion-delta", True),
    ("designated-deletion-infeasible", True),
    ("order-condition", False),
    ("degree-condition", False),
    ("not-critical", True),
]
DEGREE_CHECKS = [
    ("order-formula", True),
    ("min-degree-value", True),
    ("degree-one-below-bound", True),
    ("neighborhood-condition-holds", True),
    ("designated-deletion-degree", True),
    ("designated-deletion-infeasible", True),
    ("order-condition", False),
    ("not-critical", True),
]
CHECK_ORDER_CASES = (
    [(KIND_NEIGHBORHOOD, a, b, t, NEIGHBORHOOD_CHECKS, False) for a, b, t in NEIGHBORHOOD_GRID]
    + [(KIND_DEGREE, a, b, t, DEGREE_CHECKS, False) for a, b, t in DEGREE_GRID]
    # order 25, past the old order-20 cap: checked like the rest
    + [(KIND_NEIGHBORHOOD, 2, 3, 3, NEIGHBORHOOD_CHECKS, False)]
)


@pytest.mark.parametrize(
    "kind, a, b, t, expected, skipped",
    CHECK_ORDER_CASES,
    ids=[f"{kind}-{a}-{b}-{t}" for kind, a, b, t, _, _ in CHECK_ORDER_CASES],
)
def test_verify_sharpness_check_order(kind, a, b, t, expected, skipped):
    report = verify_sharpness(kind, FactorParams(a, b), t)
    assert [(c.name, c.required) for c in report.checks] == expected
    assert report.criticality_skipped is skipped


@pytest.mark.parametrize("kind, a, b, t", [(KIND_NEIGHBORHOOD, 1, 2, 1), (KIND_DEGREE, 2, 2, 1)])
def test_verify_sharpness_raises_on_failed_required_check(monkeypatch, kind, a, b, t):
    monkeypatch.setattr(constructions, "has_fractional_factor", lambda g, params: True)
    message = f"{kind} (a={a}, b={b}, t={t}) failed required checks: designated-deletion-infeasible"
    with pytest.raises(ConstructionError) as excinfo:
        verify_sharpness(kind, FactorParams(a, b), t)
    assert str(excinfo.value) == message


def test_verify_sharpness_unknown_kind():
    with pytest.raises(InputError):
        verify_sharpness("nonsense", FactorParams(1, 1), 1)


def test_sharpness_margin_window_values():
    # the scaled neighborhood bound lands strictly between u and u+1
    for a, b in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        for t in (1, 2):
            params = FactorParams(a, b)
            g, _ = neighborhood_extremal_graph(params, t)
            u = (a + b) * t
            n = g.n
            assert (a + 2 * b) * u < (a + b) * n
            assert (a + b) * n < (a + 2 * b) * (u + 1)


def test_not_critical_with_designated_witness():
    for a, b in [(1, 1), (1, 2)]:
        for t in (1, 2):
            params = FactorParams(a, b)
            g, labels = neighborhood_extremal_graph(params, t)
            report = is_fractional_id_factor_critical(g, params)
            assert report.verdict is False
            # when a < b the designated part is also the first failure found;
            # when a = b the first two parts are interchangeable twins and the
            # enumeration hits the lower-indexed one first
            expected = "btK1" if a < b else "atK1"
            assert report.failing_set == labels.part_map[expected]
