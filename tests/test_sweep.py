from fractions import Fraction

import pytest

from fracfactor import InputError, SweepConfig, parse_sweep_config, run_sweep
from fracfactor.sweep import derive_seed


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


def test_config_rejects_orders_above_cap():
    config = SweepConfig(
        pairs=((1, 1),),
        random_orders=(25,),
        random_probabilities=(Fraction(1, 2),),
        random_samples=1,
    )
    with pytest.raises(InputError, match="cap"):
        config.validate()


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
