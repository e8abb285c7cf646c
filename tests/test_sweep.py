import dataclasses
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from fracfactor import (
    DeletionCheck,
    FactorParams,
    Graph,
    InputError,
    ResourceLimitError,
    SweepConfig,
    check_criticality_conditions,
    constructions,
    conditions,
    degree_margin,
    graphs,
    order_margin,
    parse_sweep_config,
    run_sweep,
    sweep,
)
from fracfactor.constructions import SharpnessCheck, SharpnessReport
from fracfactor.sweep import (
    EXHAUSTIVE_ORDER_LIMIT,
    RANDOM_INSTANCE_LIMIT,
    Counterexample,
    PairSummary,
    _ensemble,
    _masks_with_min_degree,
    derive_seed,
)
from fracfactor.criticality import proves_critical


CONFIG_TEXT = """
# exhaustive plus a small random tail
[params]
pairs = 1,1

[exhaustive]
max_n = 4

[random]
orders = 6
probabilities = 1/2
samples = 5
seed = 99
"""


def test_parse_full_config():
    config = parse_sweep_config(CONFIG_TEXT)
    assert config.pairs == ((1, 1),)
    assert config.exhaustive_max_n == 4
    assert config.random_orders == (6,)
    assert config.random_probabilities == (Fraction(1, 2),)
    assert config.random_samples == 5
    assert config.seed == 99


def test_parse_exhaustive_only():
    config = parse_sweep_config("[params]\npairs = 1,2 1,1\n[exhaustive]\nmax_n = 3\n")
    assert config.pairs == ((1, 2), (1, 1))
    assert config.random_orders == ()


def test_parse_rejects_empty_pairs():
    with pytest.raises(InputError):
        parse_sweep_config("[params]\npairs =\n[exhaustive]\nmax_n = 3\n")


def test_parse_rejects_bad_pair():
    with pytest.raises(InputError):
        parse_sweep_config("[params]\npairs = 2,1\n[exhaustive]\nmax_n = 3\n")
    with pytest.raises(InputError):
        parse_sweep_config("[params]\npairs = 1\n[exhaustive]\nmax_n = 3\n")


def test_parse_rejects_no_ensemble():
    with pytest.raises(InputError):
        parse_sweep_config("[params]\npairs = 1,1\n")


@pytest.mark.parametrize("section", ["limts", "limits"])  # a typo, and the removed section
def test_parse_rejects_unknown_section(section):
    with pytest.raises(InputError, match=section):
        parse_sweep_config(CONFIG_TEXT + f"[{section}]\nbrute_force = 20\ncriticality = 20\n")


@pytest.mark.parametrize("p", ["1e999999999", "1e-101"])
def test_parse_refuses_huge_probability_exponents(monkeypatch, p):
    def never_built(token):
        raise AssertionError(f"Fraction({token!r}) was built")

    monkeypatch.setattr(constructions, "Fraction", never_built)
    text = CONFIG_TEXT.replace("probabilities = 1/2", f"probabilities = {p}")
    with pytest.raises(InputError, match="exponent beyond"):
        parse_sweep_config(text)


def test_config_rejects_orders_above_cap():
    # Criticality is bounded by restore calls, not by order; MAX_ORDER still bounds the graphs.
    random_config((25,), (Fraction(1, 2),), 1)
    with pytest.raises(ResourceLimitError, match="order 1001 exceeds the maximum of 1000"):
        random_config((25, 1001), (Fraction(1, 2),), 1)


def test_the_invariant_audit_is_refused_past_the_budget(monkeypatch):
    # The audit walks every independent set, twins included, so the weighted
    # count is checked before it starts.
    def never_audited(g):
        raise AssertionError("the audit ran past the budget")

    monkeypatch.setattr(sweep, "maximal_independent_sets", never_audited)
    monkeypatch.setattr(sweep, "CRITICALITY_BUDGET", 10)
    with pytest.raises(ResourceLimitError, match="invariant audit over 35 sets exceeds the budget"):
        run_sweep(random_config((21,), (Fraction(9, 10),), 1))


def test_parse_rejects_non_integer_max_n():
    with pytest.raises(InputError, match="malformed sweep config"):
        parse_sweep_config("[params]\npairs = 1,1\n[exhaustive]\nmax_n = six\n")


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"random_probabilities": ()}, "at least one probability"),
        ({"random_samples": 0}, "samples >= 1"),
        ({"random_probabilities": (Fraction(1, 2), Fraction(3, 2))}, "outside \\[0, 1\\]"),
        ({"random_probabilities": (Fraction(-1, 4),)}, "outside \\[0, 1\\]"),
        ({"exhaustive_max_n": 0}, "max_n must be >= 1"),
        ({"exhaustive_max_n": 2.5}, "exhaustive max_n must be an integer, got 2.5"),
        ({"exhaustive_max_n": True}, "exhaustive max_n must be an integer, got True"),
        ({"random_orders": (True,)}, "random order must be an integer, got True"),
        ({"random_orders": (6, 2.5)}, "random order must be an integer, got 2.5"),
        ({"random_samples": True}, "random samples must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"pairs": ((1, 1, 2),)}, "pair \\(1, 1, 2\\) must be an \\(a, b\\) pair"),
        ({"pairs": ((1, 1), 2)}, "pair 2 must be an \\(a, b\\) pair"),
        ({"random_probabilities": ("1/2",)}, "integer or a Fraction, got '1/2'"),
        ({"random_probabilities": (0.5,)}, "integer or a Fraction, got 0.5"),
        ({"random_probabilities": (True,)}, "integer or a Fraction, got True"),
    ],
)
def test_config_rejects_malformed_ensembles(changes, message):
    fields = {
        "pairs": ((1, 1),),
        "random_orders": (6,),
        "random_probabilities": (Fraction(1, 2),),
        "random_samples": 1,
    }
    with pytest.raises(InputError, match=message):
        SweepConfig(**{**fields, **changes})


@pytest.mark.parametrize("orders", ["0", "-3", "6 0"])
def test_random_orders_below_one_are_refused_before_any_work(monkeypatch, orders):
    def never_checked(g, params):
        raise AssertionError("a graph was checked before the config was refused")

    monkeypatch.setattr(sweep, "check_criticality_conditions", never_checked)
    text = CONFIG_TEXT.replace("orders = 6", f"orders = {orders}")
    with pytest.raises(InputError, match="random orders must be >= 1"):
        parse_sweep_config(text)
    with pytest.raises(InputError, match="random orders must be >= 1"):
        SweepConfig(
            pairs=((1, 1),),
            exhaustive_max_n=6,
            random_orders=tuple(int(tok) for tok in orders.split()),
            random_probabilities=(Fraction(1, 2),),
            random_samples=1,
        )


def test_exhaustive_order_is_capped():
    text = "[params]\npairs = 1,1\n[exhaustive]\nmax_n = {}\n"
    assert parse_sweep_config(text.format(EXHAUSTIVE_ORDER_LIMIT)).exhaustive_max_n == 7
    for max_n in (EXHAUSTIVE_ORDER_LIMIT + 1, 12):
        with pytest.raises(ResourceLimitError, match="cap of 7"):
            parse_sweep_config(text.format(max_n))
        with pytest.raises(ResourceLimitError):
            SweepConfig(pairs=((1, 1),), exhaustive_max_n=max_n)


def random_config(orders, probabilities, samples):
    return SweepConfig(
        pairs=((1, 1),),
        random_orders=orders,
        random_probabilities=probabilities,
        random_samples=samples,
    )


def test_random_ensemble_is_capped_before_any_work(monkeypatch):
    def never_drawn(n, p, seed):
        raise AssertionError("a graph was drawn before the config was refused")

    monkeypatch.setattr(sweep, "random_graph", never_drawn)
    half, third = Fraction(1, 2), Fraction(1, 3)
    random_config((8, 9), (half,), RANDOM_INSTANCE_LIMIT // 2)
    for orders, probabilities, samples in [
        ((8,), (half,), 10**12),
        ((8, 9), (half,), RANDOM_INSTANCE_LIMIT // 2 + 1),
        ((8, 9), (half, third), RANDOM_INSTANCE_LIMIT // 4 + 1),
    ]:
        with pytest.raises(ResourceLimitError, match="cap of 1000000"):
            run_sweep(random_config(orders, probabilities, samples))
    text = CONFIG_TEXT.replace("samples = 5", "samples = 1000000000000")
    assert text != CONFIG_TEXT
    with pytest.raises(ResourceLimitError, match="cap of 1000000"):
        parse_sweep_config(text)


@pytest.mark.parametrize(
    "orders, probabilities, message",
    [
        ((8, 8), (Fraction(1, 2),), "random order 8 is listed more than once"),
        ((8, 9, 8), (Fraction(1, 2),), "random order 8 is listed more than once"),
        ((8,), (Fraction(1, 2), Fraction(2, 4)), "random probability 1/2 is listed more"),
    ],
)
def test_repeated_random_orders_and_probabilities_are_refused(orders, probabilities, message):
    with pytest.raises(InputError, match=message):
        random_config(orders, probabilities, 3)


def test_repeated_values_in_a_config_file_are_refused():
    for old, new in [("orders = 6", "orders = 6 6"), ("= 1/2", "= 1/2 0.5")]:
        text = CONFIG_TEXT.replace(old, new)
        assert text != CONFIG_TEXT
        with pytest.raises(InputError, match="listed more than once"):
            parse_sweep_config(text)
    # pairs are still deduplicated
    config = parse_sweep_config(CONFIG_TEXT.replace("pairs = 1,1", "pairs = 1,1 1,1"))
    assert len(run_sweep(config).summaries) == 1


def test_masks_are_built_as_the_degree_filter_picks_them():
    for n in range(7):
        slots = list(combinations(range(n), 2))
        incidence = [sum(1 << i for i, slot in enumerate(slots) if v in slot) for v in range(n)]
        for floor in range(n):
            picked = [
                mask
                for mask in range(1 << len(slots))
                if all((mask & inc).bit_count() >= floor for inc in incidence)
            ]
            built = list(_masks_with_min_degree(n, floor))
            assert [mask for mask, _ in built] == picked, (n, floor)
            for mask, adj in built:
                edges = [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
                assert adj == Graph(n, edges).adjacency_masks()
    assert sum(1 for _ in _masks_with_min_degree(7, 4)) == 15796


def test_derive_seed_is_stable():
    assert derive_seed(7, 9, "1/2", 3) == derive_seed(7, 9, "1/2", 3)
    assert derive_seed(7, 9, "1/2", 3) != derive_seed(7, 9, "1/2", 4)
    assert derive_seed(7, 9, "1/2", 3) != derive_seed(8, 9, "1/2", 3)


def test_exhaustive_sweep_small_orders_clean():
    # every graph up to n=4 that passes the conditions must be critical
    config = SweepConfig(pairs=((1, 1),), exhaustive_max_n=4)
    result = run_sweep(config)
    assert result.counterexample_count == 0
    (summary,) = result.summaries
    # 1 + 2 + 8 + 64 labeled graphs
    assert summary.graphs_examined == 75
    # only K4 passes all three conditions at these orders
    assert summary.condition_passing == 1
    assert summary.criticality_confirmed == 1
    assert summary.invariant_checks == 4  # the four maximal singletons of K4


def test_inconsistent_invariants_are_recorded_with_the_graph(monkeypatch):
    audit = DeletionCheck(
        set_size=1,
        size_margin=-1,
        deleted_min_degree=2,
        min_degree_margin=0,
    )
    monkeypatch.setattr(sweep, "check_deletion_invariants", lambda g, params, ind, report: audit)
    (summary,) = run_sweep(SweepConfig(pairs=((1, 1),), exhaustive_max_n=4)).summaries
    # K4, the only graph up to n = 4 that passes, has four maximal independent sets
    k4 = Graph(4, list(combinations(range(4), 2)))
    assert [c.kind for c in summary.counterexamples] == ["invariants"] * 4
    assert summary.counterexamples[0].to_dict() == {
        "source": "exhaustive/n=4/mask=63",
        "a": 1,
        "b": 1,
        "kind": "invariants",
        "n": 4,
        "edges": [list(e) for e in k4.edges()],
        "details": {"independent_set": [0], "audit": audit.to_dict()},
    }


def test_random_sweep_is_deterministic():
    config = SweepConfig(
        pairs=((1, 1),),
        random_orders=(8,),
        random_probabilities=(Fraction(3, 4),),
        random_samples=30,
        seed=5,
    )
    r1 = run_sweep(config)
    r2 = run_sweep(config)
    assert r1.to_dict() == r2.to_dict()
    assert r1.counterexample_count == 0


def test_sweep_summaries_sorted_by_pair():
    config = SweepConfig(pairs=((1, 2), (1, 1)), exhaustive_max_n=3)
    result = run_sweep(config)
    assert [(s.a, s.b) for s in result.summaries] == [(1, 1), (1, 2)]


def labeled_graphs(max_n):
    """(source tag, graph) for every labeled graph with 1 <= n <= max_n, in mask order."""
    for n in range(1, max_n + 1):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            edges = [slot for i, slot in enumerate(slots) if (mask >> i) & 1]
            yield f"exhaustive/n={n}/mask={mask}", Graph(n, edges)


def meets_order_and_degree(g, params):
    degrees = [0] * g.n
    for u, v in g.edges():
        degrees[u] += 1
        degrees[v] += 1
    return order_margin(g.n, params) >= 0 and degree_margin(g.n, min(degrees), params) >= 0


def test_conditions_are_checked_once_per_graph_and_pair(monkeypatch):
    # counted under both names, so a recomputation inside check_deletion_invariants shows
    check, calls = sweep.check_criticality_conditions, []

    def counted(g, params):
        calls.append((g, params.a, params.b))
        return check(g, params)

    monkeypatch.setattr(sweep, "check_criticality_conditions", counted)
    monkeypatch.setattr(conditions, "check_criticality_conditions", counted)
    pairs = ((1, 1), (1, 2))
    result = run_sweep(SweepConfig(pairs=pairs, exhaustive_max_n=5))
    assert sum(s.invariant_checks for s in result.summaries) > 0
    assert len(set(calls)) == len(calls)
    # only the labeled graphs that can meet the order and degree bounds are checked
    candidates = sum(
        meets_order_and_degree(g, FactorParams(a, b))
        for a, b in pairs
        for _, g in labeled_graphs(5)
    )
    assert len(calls) == candidates == 1 + 26
    assert [s.graphs_examined for s in result.summaries] == [1 + 2 + 8 + 64 + 1024] * 2


def test_each_graph_computes_its_least_union_and_twin_classes_once(monkeypatch):
    # CI's seeded random sweep; a call that finds its slot unset is the one that computes
    computed = Counter()

    def counted(method, slot):
        def call(g):
            computed[method.__name__] += getattr(g, slot) is graphs._UNSET
            return method(g)

        return call

    monkeypatch.setattr(Graph, "least_union_pair", counted(Graph.least_union_pair, "_least_union"))
    monkeypatch.setattr(Graph, "twin_classes", counted(Graph.twin_classes, "_twins"))
    config = SweepConfig(
        pairs=((1, 1), (1, 2), (2, 2)),
        random_orders=(16, 20),
        random_probabilities=(Fraction(3, 4), Fraction(9, 10)),
        random_samples=25,
        seed=7,
    )
    summaries = run_sweep(config).summaries
    passing = [(s.graphs_examined, s.condition_passing) for s in summaries]
    assert passing == [(100, 95), (100, 94), (100, 92)]
    # one scan per drawn graph (the conditions and proves_critical share it), and one
    # twin-class pass per checked graph (the deletion search and the count share it)
    assert computed == {"least_union_pair": 300, "twin_classes": 95 + 94 + 92}


@pytest.mark.parametrize("pair, max_n", [((1, 1), 6), ((1, 2), 5), ((2, 2), 5), ((1, 3), 5)])
def test_exhaustive_sweep_matches_a_check_of_every_labeled_graph(monkeypatch, pair, max_n):
    params = FactorParams(*pair)
    expected = [
        source
        for source, g in labeled_graphs(max_n)
        if check_criticality_conditions(g, params).all_ok
    ]

    # every passing graph reported as a criticality counterexample, tagged by its source
    class NotCritical:
        verdict = False
        independent_sets_checked = 1

        def to_dict(self):
            return {}

    monkeypatch.setattr(sweep, "is_fractional_id_factor_critical", lambda g, p: NotCritical())
    (summary,) = run_sweep(SweepConfig(pairs=(pair,), exhaustive_max_n=max_n)).summaries
    found = [c.source for c in summary.counterexamples if c.kind == "criticality"]
    assert found == expected
    assert summary.condition_passing == len(expected)
    assert summary.graphs_examined == sum(1 for _ in labeled_graphs(max_n))


def test_derived_report_dicts_are_their_fields_plus_flags():
    # Each to_dict is asdict plus its derived flags; the overrides keep tuples
    # and nested reports JSON-native, so dropping one fails the round trip.
    cex = Counterexample("exhaustive/n=2/mask=1", 1, 1, "invariants", 2, ((0, 1),), {"s": [0]})
    check = SharpnessCheck(name="order-formula", passed=True, required=True, detail="n = 9")
    reports = [
        (
            check_criticality_conditions(Graph(4, [(0, 1), (1, 2), (2, 3)]), FactorParams(1, 1)),
            {"order_ok", "min_degree_ok", "neighborhood_ok", "all_ok"},
        ),
        (
            DeletionCheck(set_size=1, size_margin=2, deleted_min_degree=1, min_degree_margin=0),
            {"size_ok", "min_degree_ok", "consistent"},
        ),
        (cex, set()),
        (PairSummary(a=1, b=1, graphs_examined=2, counterexamples=[cex]), set()),
        (SharpnessReport("degree-extremal", 1, 1, 2, 9, (check,)), set()),
    ]
    for report, flags in reports:
        d = report.to_dict()
        assert set(d) == {f.name for f in dataclasses.fields(report)} | flags, type(report)
        assert all(d[flag] == getattr(report, flag) for flag in flags)
        assert json.loads(json.dumps(d)) == d, type(report)


# CI's three verify-theorem configs, with the condition-passing graphs of each pair
CI_SWEEPS = [
    ("[params]\npairs = 1,1 1,2 2,2\n[exhaustive]\nmax_n = 7\n", {(1, 1): 16141, (1, 2): 0, (2, 2): 0}),
    (
        "[params]\npairs = 1,1 1,2 2,2\n[random]\norders = 16 20\nprobabilities = 3/4 9/10\n"
        "samples = 25\nseed = 7\n",
        {(1, 1): 95, (1, 2): 94, (2, 2): 92},
    ),
    (
        "[params]\npairs = 2,3 3,3\n[random]\norders = 20 24 28 32 36 40\n"
        "probabilities = 3/4 9/10\nsamples = 25\nseed = 17\n",
        {(2, 3): 294, (3, 3): 198},
    ),
]


@pytest.mark.parametrize("text, passing", CI_SWEEPS, ids=["exhaustive", "random", "region"])
def test_proves_critical_clears_every_condition_passing_graph_of_the_ci_sweeps(text, passing):
    # The corollary in proves_critical's docstring: the paper's three conditions leave the
    # deletion search nothing to decide.
    config = parse_sweep_config(text)
    got = dict.fromkeys(config.pairs, 0)
    for a, b in config.pairs:
        params = FactorParams(a, b)
        for source, g in _ensemble(config, params):
            if check_criticality_conditions(g, params).all_ok:
                got[a, b] += 1
                assert proves_critical(g, params), (source, a, b)
    assert got == passing
