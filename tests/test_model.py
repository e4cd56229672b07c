"""Exact-arithmetic market model: rationals, profiles, bundles, surplus."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mechlab import (
    Allocation,
    Bundle,
    MarketConfig,
    ZERO_BUNDLE,
    achieved_surplus,
    all_zero_allocation,
    has_uniform_tail,
    kth_highest,
    make_profile,
    optimal_surplus,
    rat,
    rat_str,
    utilities,
    utility,
    vickrey_price,
)

rationals = st.fractions(min_value=0, max_value=100)


def test_rat_parses_ints_strings_fractions():
    assert rat(2) == Fraction(2)
    assert rat("3/2") == Fraction(3, 2)
    assert rat("7") == Fraction(7)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


def test_rat_rejects_floats_and_bools():
    # floats would smuggle binary rounding into exact comparisons
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_rat_str_round_trip():
    assert rat_str(Fraction(3, 2)) == "3/2"
    assert rat_str(Fraction(4)) == "4"
    assert rat(rat_str(Fraction(22, 7))) == Fraction(22, 7)


def test_market_config_validation():
    cfg = MarketConfig(3, 1)
    assert cfg.n == 3 and cfg.m == 1
    assert list(cfg.agents) == [0, 1, 2]
    with pytest.raises(ValueError, match="more agents than objects"):
        MarketConfig(2, 2)
    with pytest.raises(ValueError, match="at least one object"):
        MarketConfig(3, 0)


def test_profile_rejects_negative_values():
    with pytest.raises(ValueError, match="non-negative"):
        make_profile(MarketConfig(3, 1), (1, -1, 0))


def test_profile_with_value_and_swapped():
    p = make_profile(MarketConfig(3, 1), (3, 2, 1))
    assert p.with_value(1, 5).values == (3, 5, 1)
    assert p.swapped(0, 1).values == (2, 3, 1)
    assert p.values == (3, 2, 1), "originals are immutable"


def test_utility_object_and_transfer():
    """Bundle (1,3) at v=5 gives 2; (0,0) at v=7 gives 0; (1,5) at v=5 gives 0."""
    assert utility(Bundle(1, 3), 5) == 2
    assert utility(Bundle(0, 0), 7) == 0
    assert utility(Bundle(1, 5), 5) == 0


def test_bundle_indicator_validation():
    with pytest.raises(ValueError, match="0 or 1"):
        Bundle(2, 0)
    assert ZERO_BUNDLE == Bundle(0, 0)


@given(x=st.integers(0, 1), t=rationals, d=rationals, v=rationals)
def test_utility_linear_in_transfer(x, t, d, v):
    assert utility(Bundle(x, t + d), v) == utility(Bundle(x, t), v) - d


def test_kth_highest_examples():
    """(5,3,3,1): 2nd highest is 3; (2,2,2): 3rd is 2; (0,4,1): 1st is 4."""
    p = make_profile(MarketConfig(4, 1), (5, 3, 3, 1))
    assert kth_highest(p, 2) == 3
    assert kth_highest(make_profile(MarketConfig(3, 1), (2, 2, 2)), 3) == 2
    assert kth_highest(make_profile(MarketConfig(3, 1), (0, 4, 1)), 1) == 4


def test_kth_highest_out_of_range():
    p = make_profile(MarketConfig(3, 1), (3, 2, 1))
    with pytest.raises(ValueError, match="k must be in 1..3"):
        kth_highest(p, 0)
    with pytest.raises(ValueError, match="k must be in 1..3"):
        kth_highest(p, 4)


@given(st.lists(rationals, min_size=2, max_size=6))
def test_kth_highest_weakly_decreasing(values):
    p = make_profile(MarketConfig(len(values), 1), values)
    ranked = [kth_highest(p, k) for k in range(1, len(values) + 1)]
    assert all(a >= b for a, b in zip(ranked, ranked[1:]))


@given(st.permutations(list(range(5))))
def test_kth_highest_permutation_invariant(perm):
    base = (5, 3, 3, 1, 0)
    cfg = MarketConfig(5, 1)
    shuffled = tuple(base[i] for i in perm)
    for k in range(1, 6):
        assert kth_highest(make_profile(cfg, shuffled), k) == kth_highest(
            make_profile(cfg, base), k
        )


def test_vickrey_price_is_rank_m_plus_one():
    assert vickrey_price(make_profile(MarketConfig(3, 1), (3, 2, 2))) == 2
    assert vickrey_price(make_profile(MarketConfig(3, 2), (3, 2, 1))) == 1


def test_uniform_tail_examples():
    """(3,2,2) with m=1 has a uniform tail, (3,2,1) does not; m=2 always does."""
    assert has_uniform_tail(make_profile(MarketConfig(3, 1), (3, 2, 2)))
    assert not has_uniform_tail(make_profile(MarketConfig(3, 1), (3, 2, 1)))
    assert has_uniform_tail(make_profile(MarketConfig(3, 2), (3, 2, 1)))


@given(st.lists(rationals, min_size=2, max_size=5))
def test_uniform_tail_always_holds_when_one_agent_trails(values):
    # with m = n-1 the tail is the single lowest value, trivially uniform
    n = len(values)
    assert has_uniform_tail(make_profile(MarketConfig(n, n - 1), values))


@given(st.permutations([3, 2, 2, 0]))
def test_uniform_tail_permutation_invariant(perm):
    cfg = MarketConfig(4, 2)
    assert has_uniform_tail(make_profile(cfg, perm)) == has_uniform_tail(
        make_profile(cfg, (3, 2, 2, 0))
    )


def is_feasible(allocation, config):
    """One bundle per agent and at most m objects handed out."""
    if len(allocation.bundles) != config.n:
        return False
    return sum(b.x for b in allocation.bundles) <= config.m


def test_is_feasible_capacity():
    """m=1 admits one winner; two winners overflow; the zero allocation is fine."""
    cfg = MarketConfig(3, 1)
    one = Allocation((Bundle(1, 0), ZERO_BUNDLE, ZERO_BUNDLE))
    assert is_feasible(one, cfg)
    two = Allocation((Bundle(1, 0), Bundle(1, 0), ZERO_BUNDLE))
    assert not is_feasible(two, cfg)
    assert is_feasible(all_zero_allocation(MarketConfig(3, 2)), MarketConfig(3, 2))


def test_allocation_winners_and_transfers():
    alloc = Allocation((Bundle(1, 2), ZERO_BUNDLE, Bundle(0, 1)))
    assert alloc.winners == (0,)
    assert alloc.transfers == (2, 0, 1)


def test_surplus_and_utilities():
    cfg = MarketConfig(3, 1)
    p = make_profile(cfg, (3, 2, 1))
    assert optimal_surplus(p) == 3
    assert optimal_surplus(make_profile(MarketConfig(3, 2), (3, 2, 1))) == 5
    alloc = Allocation((Bundle(1, 2), ZERO_BUNDLE, ZERO_BUNDLE))
    assert achieved_surplus(alloc, p) == 3, "transfers cancel out of surplus"
    assert utilities(alloc, p) == (1, 0, 0)


@given(st.lists(rationals, min_size=2, max_size=5))
def test_optimal_surplus_is_sum_of_top_m(values):
    n = len(values)
    for m in range(1, n):
        top = sum(sorted(values, reverse=True)[:m])
        assert optimal_surplus(make_profile(MarketConfig(n, m), values)) == top
