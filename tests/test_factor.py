from fractions import Fraction

import pytest

from fracfactor import (
    FactorParams,
    FractionalAssignment,
    Infeasible,
    InputError,
    ResourceLimitError,
    ViolationCertificate,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    delta_st,
    empty_graph,
    find_fractional_factor,
    format_assignment,
    has_fractional_factor_bruteforce,
    parse_assignment,
    path_graph,
    validate_assignment,
)
from fracfactor import Graph

from oracle import naive_delta, naive_violation

P11 = FactorParams(1, 1)


def test_params_validate():
    FactorParams(1, 3)
    with pytest.raises(InputError):
        FactorParams(0, 1)
    with pytest.raises(InputError):
        FactorParams(3, 2)
    with pytest.raises(InputError):
        FactorParams(1, "2")


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
                assert result.is_half_integral()


def test_solver_witness_sums_and_range():
    g = complete_multipartite_graph((2, 3))  # K_{2,3}
    params = FactorParams(1, 2)
    result = find_fractional_factor(g, params)
    assert isinstance(result, FractionalAssignment)
    sums = result.vertex_sums(g)
    assert all(1 <= s <= 2 for s in sums.values())
    assert all(0 <= v <= 1 for v in result.values.values())


# -- assignments --------------------------------------------------------------


def test_assignment_validates_values():
    with pytest.raises(InputError):
        FractionalAssignment({(0, 1): Fraction(3, 2)})
    with pytest.raises(InputError):
        FractionalAssignment({(1, 0): Fraction(1, 2)})


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
    check = validate_assignment(c4, P11, halves)
    assert check.ok
    assert all(s == 1 for s in check.vertex_sums.values())

    lopsided = FractionalAssignment(
        {(0, 1): 1, (1, 2): 1, (2, 3): 0, (0, 3): 0}
    )
    check = validate_assignment(c4, P11, lopsided)
    assert not check.ok
    assert check.vertex_sums[1] == 2
    assert check.vertex_sums[3] == 0


def test_assignment_text_round_trip():
    c4 = cycle_graph(4)
    halves = FractionalAssignment({e: Fraction(1, 2) for e in c4.edges()})
    text = format_assignment(halves)
    assert "0 1 1/2" in text.splitlines()
    assert parse_assignment(text) == halves


def test_assignment_format_lowest_terms():
    h = FractionalAssignment({(0, 1): Fraction(2, 4), (1, 2): Fraction(0), (2, 3): 1})
    lines = format_assignment(h).splitlines()
    assert lines == ["0 1 1/2", "1 2 0/1", "2 3 1/1"]


def test_parse_assignment_rejects_garbage():
    with pytest.raises(InputError, match="line 1"):
        parse_assignment("0 1\n")
    with pytest.raises(InputError, match="line 2"):
        parse_assignment("0 1 1/2\n0 1 1/2\n")
    with pytest.raises(InputError):
        parse_assignment("0 1 x/y\n")


def test_certificate_requires_negative_delta():
    with pytest.raises(InputError):
        ViolationCertificate(s=frozenset(), t=frozenset(), delta=0)
