"""Exact-arithmetic market model: rationals, profiles, allocations, utilities."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import is_feasible
from mechlab import (
    Allocation,
    MarketConfig,
    Mechanism,
    Profile,
    has_uniform_tail,
    rat,
    rat_str,
    utilities,
    vickrey_price,
)

rationals = st.fractions(min_value=0, max_value=100)


def test_rat_parses_ints_strings_fractions():
    assert rat(2) == Fraction(2)
    assert rat("3/2") == Fraction(3, 2)
    assert rat("7") == Fraction(7)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    assert rat("-1.25") == Fraction(-5, 4)


def test_rat_rejects_floats_and_bools():
    # floats would smuggle binary rounding into exact comparisons
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_rat_refuses_exponent_notation():
    # Fraction would take unbounded time to expand a large exponent
    for text in ("1e3", "2E-1", "1e10000000"):
        with pytest.raises(ValueError, match="exponent notation is not accepted"):
            rat(text)


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
        Profile(MarketConfig(3, 1), (1, -1, 0))


def test_profile_with_value_and_swapped():
    p = Profile(MarketConfig(3, 1), (3, 2, 1))
    assert p.with_value(1, 5).values == (3, 5, 1)
    assert p.swapped(0, 1).values == (2, 3, 1)
    assert p.values == (3, 2, 1), "originals are immutable"


def bundle_utility(x, t, v):
    """Utility of the one-agent bundle (x, t) at value v."""
    return utilities(Allocation((x,), (rat(t),)), Profile(MarketConfig(2, 1), (v, 0)))[0]


def test_utility_object_and_transfer():
    """Bundle (1,3) at v=5 gives 2; (0,0) at v=7 gives 0; (1,5) at v=5 gives 0."""
    assert bundle_utility(1, 3, 5) == 2
    assert bundle_utility(0, 0, 7) == 0
    assert bundle_utility(1, 5, 5) == 0


def test_bundle_indicator_validation():
    """An indicator other than 0 or 1 is refused where every outcome passes."""
    market = MarketConfig(3, 1)
    two = Mechanism("two", "CUSTOM", lambda p: Allocation((2, 0, 0), (rat(0),) * 3))
    with pytest.raises(ValueError, match="0 or 1"):
        two.evaluate(Profile(market, (1, 0, 0)))


@given(x=st.integers(0, 1), t=rationals, d=rationals, v=rationals)
def test_utility_linear_in_transfer(x, t, d, v):
    assert bundle_utility(x, t + d, v) == bundle_utility(x, t, v) - d


def test_kth_highest_examples():
    """vickrey_price is the k-th highest value for k = m+1: (5,3,3,1) gives
    3, 3, 1 at k = 2, 3, 4; (2,2,2) gives 2 at k = 3; (0,4,1) gives 1 at k = 2."""
    p = (5, 3, 3, 1)
    assert [vickrey_price(Profile(MarketConfig(4, m), p)) for m in (1, 2, 3)] == [3, 3, 1]
    assert vickrey_price(Profile(MarketConfig(3, 2), (2, 2, 2))) == 2
    assert vickrey_price(Profile(MarketConfig(3, 1), (0, 4, 1))) == 1


@given(st.lists(rationals, min_size=2, max_size=6))
def test_kth_highest_weakly_decreasing(values):
    # one more object moves the price down the ranking, never up
    n = len(values)
    ranked = [vickrey_price(Profile(MarketConfig(n, m), values)) for m in range(1, n)]
    assert all(a >= b for a, b in zip(ranked, ranked[1:]))
    assert ranked[-1] == min(values)


@given(st.permutations(list(range(5))))
def test_kth_highest_permutation_invariant(perm):
    base = (5, 3, 3, 1, 0)
    shuffled = tuple(base[i] for i in perm)
    for m in range(1, 5):
        cfg = MarketConfig(5, m)
        assert vickrey_price(Profile(cfg, shuffled)) == vickrey_price(Profile(cfg, base))


def test_vickrey_price_is_rank_m_plus_one():
    assert vickrey_price(Profile(MarketConfig(3, 1), (3, 2, 2))) == 2
    assert vickrey_price(Profile(MarketConfig(3, 2), (3, 2, 1))) == 1


def test_uniform_tail_examples():
    """(3,2,2) with m=1 has a uniform tail, (3,2,1) does not; m=2 always does."""
    assert has_uniform_tail(Profile(MarketConfig(3, 1), (3, 2, 2)))
    assert not has_uniform_tail(Profile(MarketConfig(3, 1), (3, 2, 1)))
    assert has_uniform_tail(Profile(MarketConfig(3, 2), (3, 2, 1)))


@given(st.lists(rationals, min_size=2, max_size=5))
def test_uniform_tail_always_holds_when_one_agent_trails(values):
    # with m = n-1 the tail is the single lowest value, trivially uniform
    n = len(values)
    assert has_uniform_tail(Profile(MarketConfig(n, n - 1), values))


@given(st.permutations([3, 2, 2, 0]))
def test_uniform_tail_permutation_invariant(perm):
    cfg = MarketConfig(4, 2)
    assert has_uniform_tail(Profile(cfg, perm)) == has_uniform_tail(
        Profile(cfg, (3, 2, 2, 0))
    )


def test_is_feasible_capacity():
    """m=1 admits one winner; two winners overflow; the zero allocation is fine."""
    cfg, zero = MarketConfig(3, 1), rat(0)
    one = Allocation((1, 0, 0), (zero,) * 3)
    assert is_feasible(one, cfg)
    two = Allocation((1, 1, 0), (zero,) * 3)
    assert not is_feasible(two, cfg)
    assert is_feasible(Allocation((0,) * 3, (zero,) * 3), MarketConfig(3, 2))


def test_allocation_winners_and_transfers():
    alloc = Allocation((1, 0, 0), (rat(2), rat(0), rat(1)))
    assert alloc.winners == (0,)
    assert alloc.t == (2, 0, 1)
    x, t = alloc
    assert (x, t) == ((1, 0, 0), (2, 0, 1))


def test_surplus_and_utilities():
    p = Profile(MarketConfig(3, 1), (3, 2, 1))
    alloc = Allocation((1, 0, 0), (rat(2), rat(0), rat(0)))
    assert utilities(alloc, p) == (1, 0, 0)
    # transfers cancel out of surplus: the utilities plus the payments
    # collected sum to the winners' total value
    assert sum(utilities(alloc, p)) + sum(alloc.t) == 3
