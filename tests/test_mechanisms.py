"""Mechanism families: the canonical winner pick, winner and pricing rules.

The set-valued search below is the oracle for the pick: it lists every
allocation a Vickrey-price family admits, and `select_canonical` takes
the least by (winner tuple, bundles).
"""

import dataclasses
import json
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import is_feasible, random_pricing_table
from mechlab import (
    Allocation,
    GridSpace,
    MarketConfig,
    Mechanism,
    PricingRule,
    Profile,
    WinnerRule,
    builtin_mechanisms,
    efficient_vickrey_mechanism,
    ev_pab_mechanism,
    has_uniform_tail,
    mechanism_from_spec,
    no_trade_mechanism,
    pay_as_bid_mechanism,
    selective_vickrey_mechanism,
    utilities,
    vickrey_mechanism,
    vickrey_price,
)
from mechlab.axioms import (
    CHECKERS,
    OutcomeTable,
    audit,
    check_ev_support,
    check_uncompromising,
    refresh_witness,
    validate_winner_rule,
    welfare_compare,
)
from mechlab import mechanisms
from mechlab.mechanisms import EV, PAB
from mechlab.model import rat_str
from mechlab.search import random_winner_rule_table

CFG1 = MarketConfig(3, 1)
CFG2 = MarketConfig(3, 2)


def shape(allocations):
    """Hashable view of an allocation set: sorted winners plus transfers."""
    return {
        (tuple(sorted(a.winners)), a.t) for a in allocations
    }


def grid_profiles(cfg, values=(0, 1, 2, 3)):
    for combo in product(values, repeat=cfg.n):
        yield Profile(cfg, combo)


# the set-valued oracle


def subset_search_winner_sets(profile):
    """Every set of at most m agents maximizing the winners' total
    valuation, by size and then lexicographically."""
    best, sets = None, []
    for size in range(profile.config.m + 1):
        for combo in combinations(range(profile.config.n), size):
            total = sum((profile.values[i] for i in combo), Fraction(0))
            if best is None or total > best:
                best, sets = total, [frozenset(combo)]
            elif total == best:
                sets.append(frozenset(combo))
    return sets


def subset_search_vickrey_sets(profile):
    """Every set of at most m agents that holds everyone above the
    Vickrey price and nobody below it."""
    price = vickrey_price(profile.values, profile.config.m)
    return [
        frozenset(combo)
        for size in range(profile.config.m + 1)
        for combo in combinations(range(profile.config.n), size)
        if all(profile.values[i] >= price for i in combo)
        and all(i in combo for i, v in enumerate(profile.values) if v > price)
    ]


def sorted_tail_is_uniform(profile):
    """The valuations ranked (m+1)-th or lower are all equal."""
    tail = sorted(profile.values, reverse=True)[profile.config.m:]
    return all(v == tail[0] for v in tail)


def priced(profile, sets, pay):
    agents = profile.config.agents
    return {
        Allocation(
            tuple(int(i in s) for i in agents),
            tuple(pay(i) if i in s else Fraction(0) for i in agents),
        )
        for s in sets
    }


def bundles(*pairs):
    """An allocation from its (x, t) bundles, one per agent."""
    x, t = zip(*pairs)
    return Allocation(x, tuple(map(Fraction, t)))


def no_trade(config):
    return bundles(*[(0, 0)] * config.n)


def vickrey_set(profile):
    """Every Vickrey allocation: winners pay the Vickrey price."""
    price = vickrey_price(profile.values, profile.config.m)
    return priced(profile, subset_search_vickrey_sets(profile), lambda i: price)


def efficient_vickrey_set(profile):
    """Every surplus-maximizing assignment, winners paying the Vickrey price."""
    price = vickrey_price(profile.values, profile.config.m)
    return priced(profile, subset_search_winner_sets(profile), lambda i: price)


def pay_as_bid_set(profile):
    """Every surplus-maximizing assignment, winners paying their own report."""
    return priced(profile, subset_search_winner_sets(profile), profile.values.__getitem__)


def select_canonical(allocations):
    """The least allocation by winner tuple, then by bundle contents."""
    return min(allocations, key=lambda a: (a.winners, tuple(zip(a.x, a.t))))


def ev_pab_oracle(pricing):
    def pick(profile):
        if sorted_tail_is_uniform(profile) and pricing.branch(profile.values, profile.config, 1) == EV:
            return select_canonical(efficient_vickrey_set(profile))
        return select_canonical(pay_as_bid_set(profile))

    return pick


def selective_efficient_oracle(profile):
    if not sorted_tail_is_uniform(profile):
        return no_trade(profile.config)
    return select_canonical(efficient_vickrey_set(profile))


def test_strict_winners_examples():
    """The strict winners are the agents valued strictly above the Vickrey price."""
    for market, values, strict in (
        (CFG1, (5, 3, 2), {0}),
        (CFG1, (3, 3, 2), set()),
        (CFG2, (3, 2, 2), {0}),
    ):
        price = vickrey_price(values, market.m)
        assert {i for i, v in enumerate(values) if v > price} == strict


def test_vickrey_set_unique_winner():
    """Bids 5,3,2 with m=1: agent 0 wins at the second price 3."""
    profile = Profile(CFG1, (5, 3, 2))
    assert shape(vickrey_set(profile)) == {((0,), (3, 0, 0))}
    assert shape({vickrey_mechanism().evaluate(profile)}) == {((0,), (3, 0, 0))}


def test_vickrey_set_tie_includes_no_trade():
    """Bids 3,3,2: either tied agent may win at 3, or nobody trades."""
    allocs = vickrey_set(Profile(CFG1, (3, 3, 2)))
    assert shape(allocs) == {
        ((), (0, 0, 0)),
        ((0,), (3, 0, 0)),
        ((1,), (0, 3, 0)),
    }


def test_vickrey_set_all_zero_has_every_subset():
    # all ties at price 0: every winner set within capacity, all paying 0
    allocs = vickrey_set(Profile(CFG2, (0, 0, 0)))
    assert len(allocs) == 7
    assert all(all(t == 0 for t in a.t) for a in allocs)


def test_efficient_vickrey_set_examples():
    """Ties keep all maximizers: (3,3,2) gives two allocations, (3,2,2) one."""
    tie = efficient_vickrey_set(Profile(CFG1, (3, 3, 2)))
    assert shape(tie) == {((0,), (3, 0, 0)), ((1,), (0, 3, 0))}
    unique = efficient_vickrey_set(Profile(CFG1, (3, 2, 2)))
    assert shape(unique) == {((0,), (2, 0, 0))}
    flat = efficient_vickrey_set(Profile(CFG1, (0, 0, 0)))
    assert len(flat) == 4, "any feasible winner set maximizes zero surplus"


def test_efficient_vickrey_utility_invariance():
    # every allocation a family admits yields the same utility vector, so
    # the one the pick makes is axiom-neutral
    for admitted in (vickrey_set, efficient_vickrey_set, pay_as_bid_set):
        for p in (*grid_profiles(CFG1), *grid_profiles(CFG2)):
            vectors = {utilities(a, p) for a in admitted(p)}
            assert len(vectors) == 1, f"{admitted.__name__}: utility spread at {p.values}"


def test_pay_as_bid_set_examples():
    assert shape(pay_as_bid_set(Profile(CFG1, (3, 2, 1)))) == {((0,), (3, 0, 0))}
    assert shape(pay_as_bid_set(Profile(CFG1, (3, 3, 2)))) == {
        ((0,), (3, 0, 0)),
        ((1,), (0, 3, 0)),
    }
    mech = pay_as_bid_mechanism()
    assert mech.evaluate(Profile(CFG1, (3, 3, 2))) == bundles((1, 3), (0, 0), (0, 0))


def test_pay_as_bid_utility_nullity():
    # winners pay their bid, losers pay nothing: all utilities are zero at truth
    mech = pay_as_bid_mechanism()
    for p in grid_profiles(CFG1):
        assert utilities(mech.evaluate(p), p) == (0, 0, 0)


def test_no_trade_fee_and_subsidy():
    p = Profile(CFG1, (3, 2, 1))
    fee = no_trade_mechanism(1).evaluate(p)
    assert utilities(fee, p) == (-1, -1, -1)
    subsidy = no_trade_mechanism(-1).evaluate(p)
    assert utilities(subsidy, p) == (1, 1, 1)
    assert fee.winners == ()


def test_select_canonical_prefers_lowest_winner():
    """Tied maximizers (3,3,2): the canonical efficient-Vickrey pick is agent 0."""
    alloc = efficient_vickrey_mechanism().evaluate(Profile(CFG1, (3, 3, 2)))
    assert alloc.winners == (0,)
    assert alloc.t == (3, 0, 0)


def test_select_canonical_prefers_no_trade():
    # with nobody above the price, Vickrey leaves every object unsold
    alloc = vickrey_mechanism().evaluate(Profile(CFG1, (3, 3, 2)))
    assert alloc.winners == ()
    assert alloc == no_trade(CFG1)


@pytest.mark.parametrize(
    "make, values, m, winners",
    [
        (vickrey_mechanism, (1, 1, 3, 1), 2, (0, 2)),
        (vickrey_mechanism, (0, 3, 0), 2, (0, 1)),
        (efficient_vickrey_mechanism, (0, 3, 0), 2, (0, 1)),
        (pay_as_bid_mechanism, (0, 3, 0), 2, (0, 1)),
    ],
    ids=["vickrey-1131", "vickrey-030", "efficient-vickrey-030", "pay-as-bid-030"],
)
def test_canonical_pick_is_the_least_sorted_winner_tuple(make, values, m, winners):
    """(0, 2) sorts before (2,): a tied agent indexed below the strict
    winner takes the spare object instead of leaving it unsold."""
    profile = Profile(MarketConfig(len(values), m), values)
    assert make().evaluate(profile).winners == winners


def test_rules_refuse_an_unknown_family_at_construction():
    with pytest.raises(ValueError, match="unknown winner rule family: NOPE"):
        WinnerRule.from_spec("NOPE", CFG1)
    with pytest.raises(ValueError, match="unknown pricing rule family: NOPE"):
        PricingRule.from_spec({"family": "nope"}, CFG1)


# Each rule by its definition in the class docstrings, on bare value tuples.


def oracle_price(values, m):
    return sorted(values, reverse=True)[m]


def oracle_on_tail(pick):
    def select(values, m):
        return pick(values, m) if min(values) == oracle_price(values, m) else frozenset()
    return select


def oracle_strict(values, m):
    return frozenset(i for i, v in enumerate(values) if v > oracle_price(values, m))


def oracle_efficient(values, m):
    profile = Profile(MarketConfig(len(values), m), values)
    return frozenset(select_canonical(efficient_vickrey_set(profile)).winners)


def oracle_dictator(agent, cut):
    def select(values, m):
        others = [v for i, v in enumerate(values) if i != agent]
        return frozenset({agent}) if values[agent] > cut and set(others) == {cut} else frozenset()
    return select


def oracle_threshold(cut):
    """EV when the price is at most `cut`; at cut 0 that is EV iff the price
    is zero, since no price is negative."""
    return lambda values, m: EV if oracle_price(values, m) <= cut else PAB


def rules_with_oracles(grid):
    """Every built-in winner and pricing rule plus three seeded random tables
    of each kind, each paired with its oracle."""
    winners = [
        (WinnerRule.empty(), lambda values, m: frozenset()),
        (WinnerRule.strict(), oracle_on_tail(oracle_strict)),
        (WinnerRule.efficient(), oracle_on_tail(oracle_efficient)),
        *(
            (WinnerRule.dictatorial_threshold(agent, cut), oracle_dictator(agent, cut))
            for agent, cut in ((0, 2), (0, -1), (1, Fraction(1, 2)))
        ),
    ]
    pricings = [
        (PricingRule.always_ev(), lambda values, m: EV),
        (PricingRule.ev_iff_price_zero(), oracle_threshold(0)),
        *((PricingRule.threshold(cut), oracle_threshold(cut)) for cut in (0, 1, -1)),
    ]
    for seed in range(3):
        table = random_winner_rule_table(grid, random.Random(f"winners:{seed}"))
        winners.append((
            WinnerRule.rule_table(grid.config, table),
            lambda values, m, table=table: table.get(values, frozenset()),
        ))
        modes = random_pricing_table(grid, random.Random(f"pricing:{seed}"))
        pricings.append((
            PricingRule.rule_table(grid.config, modes),
            lambda values, m, modes=modes: modes.get(values, PAB),
        ))

    def select(rule, p):
        return frozenset(rule.pick(p.values, p.config, 1))

    def classify(pricing, p):
        return pricing.branch(p.values, p.config, 1)

    return [(WinnerRule, rule, select, oracle) for rule, oracle in winners] + [
        (PricingRule, rule, classify, oracle) for rule, oracle in pricings
    ]


@pytest.mark.parametrize(
    "grid",
    [GridSpace.shared(MarketConfig(3, 1), range(4)), GridSpace.shared(MarketConfig(4, 2), range(3))],
    ids=["3x1-0..3", "4x2-0..2"],
)
def test_rule_records_match_their_definitions_and_round_trip(grid):
    """Each rule record selects or classifies as its definition says, and
    `from_spec` of its JSON spec rebuilds the same label, spec, outcomes
    and closed-form bounds."""
    market, values = grid.config, grid.values[0]
    for kind, rule, outcome, oracle in rules_with_oracles(grid):
        again = kind.from_spec(json.loads(json.dumps(rule.spec)), market)
        assert (again.label, again.spec) == (rule.label, rule.spec)
        for point in grid.profiles():
            profile = Profile(market, point.values)
            want = oracle(profile.values, market.m)
            assert outcome(rule, profile) == want, (rule.label, profile.values)
            assert outcome(again, profile) == want, (rule.label, profile.values)
        assert (rule.bounds is None) == (again.bounds is None), rule.label
        if rule.bounds is not None:
            for agent, report, value in product(market.agents, values, values):
                args = (agent, market.m, report, value, 1)
                assert rule.bounds(*args) == again.bounds(*args), (rule.label, args)


def test_rule_tables_refuse_a_profile_listed_twice():
    with pytest.raises(ValueError, match=r"rule table lists profile \(2, 1, 1\) twice"):
        WinnerRule.rule_table(CFG1, {(2, 1, 1): (0,), ("4/2", "1", 1): ()})
    with pytest.raises(ValueError, match=r"rule table lists profile \(1, 1, 1\) twice"):
        PricingRule.rule_table(CFG1, {(1, 1, 1): EV, ("1", "2/2", 1): "PAB"})
    with pytest.raises(ValueError, match=r"lists winner 0 twice at profile \(1, 1, 1\)"):
        WinnerRule.rule_table(CFG1, {(1, 1, 1): (0, 0)})


def test_a_rule_table_parses_each_value_and_hashes_each_key_once(monkeypatch):
    """The seed-0 winner table of the exhaustive benchmark config (4 agents,
    2 objects, values 0..5) lists 385 profiles, 1,540 values in a handful
    of distinct strings: building it parses each distinct string once and
    hashes each profile once. The refusals keep their messages, the
    duplicate one ahead of a bad outcome, and a memoised `1` lets neither
    `True` nor `1.0` through."""
    market = MarketConfig(4, 2)
    grid = GridSpace.shared(market, range(6))
    table = random_winner_rule_table(grid, random.Random("audit-exhaustive:0"))
    entries = [
        {"profile": [rat_str(v) for v in key], "winners": sorted(winners)}
        for key, winners in sorted(table.items())
    ]
    assert len(entries) == 385
    parsed, hashed = [], []
    rational, fraction_hash = mechanisms.rational, Fraction.__hash__

    def counted_rational(value, what):
        parsed.append(value)
        return rational(value, what)

    def counted_hash(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(mechanisms, "rational", counted_rational)
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    rule = WinnerRule.from_spec({"family": "RULE_TABLE", "entries": entries}, market)
    monkeypatch.undo()
    assert sorted(parsed) == sorted({v for entry in entries for v in entry["profile"]})
    assert len(hashed) == 4 * len(entries)
    assert dict(rule.table) == table

    refusals = [
        ({(2, 1, 1): (0,), ("4/2", "1", 1): ()}, "rule table lists profile (2, 1, 1) twice"),
        ({(1, 1, 1): (0,), ("1", 1, "1"): (0, 0)}, "rule table lists profile (1, 1, 1) twice"),
        ({(1, 1, 1): (0, 0)}, "rule table lists winner 0 twice at profile (1, 1, 1)"),
        ({("1", "-1", "1"): ()}, "rule table profile (1, -1, 1) must list 3 non-negative values"),
        ({(1, 0, 0): (0,), (0, 1.0, 0): ()},
         "rule table profile value must be an exact rational, got 1.0"),
        ({(1, 0, 0): (0,), (0, True, 0): ()},
         "rule table profile value must be an exact rational, got true"),
    ]
    for entries, message in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WinnerRule.rule_table(CFG1, entries)
    unhashable = {"family": "RULE_TABLE", "entries": [{"profile": [[1], 0, 0], "winners": []}]}
    message = "rule table profile value must be an exact rational, got [1]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WinnerRule.from_spec(unhashable, CFG1)
    with pytest.raises(ValueError, match=r"^rule table lists profile \(1, 1, 1\) twice$"):
        PricingRule.rule_table(CFG1, {(1, 1, 1): EV, ("1", "2/2", 1): "BAD"})
    with pytest.raises(ValueError, match="^pricing mode must be EV or PAB, got 'BAD'$"):
        PricingRule.rule_table(CFG1, {(1, 1, 1): EV, (1, 1, 0): "BAD"})


def test_mechanisms_are_frozen_records_whose_specs_round_trip():
    """Every family builds a frozen record: no field can be reassigned, and
    `mechanism_from_spec` of its JSON spec rebuilds the same name, spec and
    outcomes."""
    grid = GridSpace.shared(CFG1, range(4))
    family = {WinnerRule: selective_vickrey_mechanism, PricingRule: ev_pab_mechanism}
    mechanisms = [
        vickrey_mechanism(), efficient_vickrey_mechanism(), pay_as_bid_mechanism(),
        *(no_trade_mechanism(fee) for fee in (0, Fraction(1, 3), -1)),
        *(family[kind](rule) for kind, rule, _, _ in rules_with_oracles(grid)),
    ]
    for mech in mechanisms:
        for field in dataclasses.fields(mech):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(mech, field.name, getattr(mech, field.name))
        again = mechanism_from_spec(json.loads(json.dumps(mech.spec)), grid.config)
        assert (again.name, again.family, again.spec) == (mech.name, mech.family, mech.spec)
        for point in grid.profiles():
            profile = Profile(grid.config, point.values)
            assert again.evaluate(profile) == mech.evaluate(profile), (mech.name, profile)


def test_rule_tables_are_read_only():
    """A validated table cannot be written into after construction, so a
    mechanism built on it keeps handing out at most m objects."""
    winners = WinnerRule.rule_table(CFG1, {(2, 1, 1): (0,)})
    pricing = PricingRule.rule_table(CFG1, {(2, 1, 1): EV})
    selective = selective_vickrey_mechanism(winners)
    for rule, entry in ((winners, frozenset({0, 1, 2})), (pricing, EV)):
        before = dict(rule.table)
        with pytest.raises(TypeError):
            rule.table[(1, 1, 1)] = entry
        with pytest.raises(TypeError):
            del rule.table[(2, 1, 1)]
        assert rule.table == before
    assert selective.evaluate(Profile(CFG1, (1, 1, 1))).winners == ()
    assert validate_winner_rule(winners, GridSpace.shared(CFG1, range(3))).passed


def test_vickrey_canonical_allocates_only_strict_winners():
    mech = vickrey_mechanism()
    p = Profile(CFG1, (5, 3, 2))
    assert mech.evaluate(p).winners == (0,)
    assert mech.evaluate(Profile(CFG1, (3, 3, 2))).winners == ()


def test_efficient_vickrey_achieves_optimum():
    mech = efficient_vickrey_mechanism()
    for p in grid_profiles(CFG2):
        achieved = sum(v * xi for v, xi in zip(p.values, mech.evaluate(p).x))
        assert achieved == sum(sorted(p.values, reverse=True)[: CFG2.m])


def test_all_builtin_outputs_feasible():
    for mech in builtin_mechanisms():
        for p in grid_profiles(CFG1, values=(0, 1, 3)):
            assert is_feasible(mech.evaluate(p), CFG1), f"{mech.name} at {p.values}"


@given(st.lists(st.fractions(min_value=0, max_value=9), min_size=3, max_size=3),
       st.fractions(min_value="1/3", max_value=5))
def test_efficient_winner_sets_scale_invariant(values, scale):
    # rescaling all bids leaves every Vickrey-price family's winners unchanged
    p = Profile(CFG1, values)
    q = Profile(CFG1, tuple(v * scale for v in values))
    for mech in (vickrey_mechanism(), efficient_vickrey_mechanism(), pay_as_bid_mechanism()):
        assert mech.evaluate(p).winners == mech.evaluate(q).winners, mech.name


def pick_cases():
    """Each Vickrey-price mechanism beside its oracle: the subset search,
    priced, then the least allocation by (winner tuple, bundles)."""
    return [
        (vickrey_mechanism(), lambda p: select_canonical(vickrey_set(p))),
        (efficient_vickrey_mechanism(), lambda p: select_canonical(efficient_vickrey_set(p))),
        (pay_as_bid_mechanism(), lambda p: select_canonical(pay_as_bid_set(p))),
        *(
            (ev_pab_mechanism(pricing), ev_pab_oracle(pricing))
            for pricing in (
                PricingRule.always_ev(),
                PricingRule.ev_iff_price_zero(),
                PricingRule.threshold(1),
                PricingRule.threshold(-1),
            )
        ),
        (selective_vickrey_mechanism(WinnerRule.efficient()), selective_efficient_oracle),
    ]


def assert_pick_matches_subset_search(profile):
    for mechanism, oracle in pick_cases():
        assert mechanism.evaluate(profile) == oracle(profile), (mechanism.name, profile.values)
    assert has_uniform_tail(profile.values, profile.config.m) == sorted_tail_is_uniform(profile)


TIE_VALUES = (0, Fraction(1, 2), 1, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_winner_sets_match_subset_search(n):
    """The differential test of the pick: every profile on the tie-heavy
    values, every m < n."""
    for m in range(1, n):
        for values in product(TIE_VALUES, repeat=n):
            assert_pick_matches_subset_search(Profile(MarketConfig(n, m), values))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.lists(st.sampled_from(TIE_VALUES), min_size=6, max_size=6))
def test_winner_sets_match_subset_search_six_agents(m, values):
    assert_pick_matches_subset_search(Profile(MarketConfig(6, m), values))


# winner rules


def test_selective_empty_rule_equals_free_no_trade():
    empty = selective_vickrey_mechanism(WinnerRule.empty())
    free = no_trade_mechanism(0)
    for p in grid_profiles(CFG1):
        assert empty.evaluate(p) == free.evaluate(p)


def test_selective_strict_rule_examples():
    """(3,2,2): agent 0 beats the uniform tail and pays 2; (3,2,1): no trade."""
    mech = selective_vickrey_mechanism(WinnerRule.strict())
    won = mech.evaluate(Profile(CFG1, (3, 2, 2)))
    assert won == bundles((1, 2), (0, 0), (0, 0))
    off_tail = mech.evaluate(Profile(CFG1, (3, 2, 1)))
    assert off_tail.winners == ()
    assert off_tail.t == (0, 0, 0)


def test_selective_dictatorial_rule_examples():
    """Agent 0 wins iff it clears the threshold 2 and everyone else sits at 2."""
    rule = WinnerRule.dictatorial_threshold(0, 2)
    mech = selective_vickrey_mechanism(rule)
    won = mech.evaluate(Profile(CFG1, (3, 2, 2)))
    assert (won.x[0], won.t[0]) == (1, 2)
    lost = mech.evaluate(Profile(CFG1, (2, 3, 2)))
    assert lost.winners == ()


def test_selective_winners_pay_price_and_losers_pay_nothing():
    rules = [
        WinnerRule.strict(),
        WinnerRule.efficient(),
        WinnerRule.dictatorial_threshold(0, 2),
    ]
    for rule in rules:
        mech = selective_vickrey_mechanism(rule)
        for p in grid_profiles(CFG1):
            alloc = mech.evaluate(p)
            price = vickrey_price(p.values, p.config.m)
            for i, (xi, ti) in enumerate(zip(*alloc)):
                if xi:
                    assert ti == price
                    assert p.values[i] >= price
                else:
                    assert (xi, ti) == (0, 0)


def test_validate_winner_rule_builtins_analytic():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    for rule in (WinnerRule.empty(), WinnerRule.strict(), WinnerRule.efficient(),
                 WinnerRule.dictatorial_threshold(1, 1)):
        report = validate_winner_rule(rule, grid)
        assert report.verdict == "PASS_ANALYTIC", rule.label


def test_validate_winner_rule_rejects_off_tail_entry():
    """(3,2,1) has no uniform tail, so a table selecting there is invalid."""
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    rule = WinnerRule.rule_table(CFG1, {(3, 2, 1): (0,)})
    report = validate_winner_rule(rule, grid)
    assert report.verdict == "FAIL"
    assert report.details["condition"].startswith("(i)")
    assert report.witness["profile"] == (3, 2, 1)


def test_validate_winner_rule_condition_details():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    out_of_range = WinnerRule.rule_table(CFG1, {(2, 2, 2): (5,)})
    assert validate_winner_rule(out_of_range, grid).details["condition"].startswith("(ii)")
    skips_strict = WinnerRule.rule_table(CFG1, {(3, 2, 2): (1,)})
    assert validate_winner_rule(skips_strict, grid).details["condition"].startswith("(iii)")
    over_capacity = WinnerRule.rule_table(CFG1, {(2, 2, 2): (0, 1)})
    assert validate_winner_rule(over_capacity, grid).details["condition"].startswith("(iv)")


def test_rule_checks_sweep_a_rule_without_closed_form_bounds():
    """Only a rule whose constructor set closed-form bounds gets the
    analytic verdict. A rule built directly is checked at every grid
    profile, at grid scope: one selecting every agent breaks (iv) first at
    (0, 0, 0), and one selecting agent 0 only at (1, 0, 0) drops them
    after a raise."""
    grid = GridSpace.shared(CFG1, range(3))
    everyone = WinnerRule("everyone", lambda values, market, scale: (0, 1, 2), None, dict)
    valid = validate_winner_rule(everyone, grid)
    assert (valid.verdict, valid.profiles_checked) == ("FAIL", 1)
    assert valid.details == {"scope": "grid", "condition": "(iv) more winners than objects"}
    assert valid.witness == {"profile": (0, 0, 0), "winners": [0, 1, 2]}
    kept = check_uncompromising(everyone, grid)
    assert (kept.verdict, kept.profiles_checked, kept.details) == (
        "PASS_EXHAUSTIVE", 27, {"scope": "grid"}
    )
    fickle = WinnerRule(
        "fickle", lambda values, market, scale: (0,) if values == (scale, 0, 0) else (), None, dict
    )
    assert validate_winner_rule(fickle, grid).verdict == "PASS_EXHAUSTIVE"
    dropped = check_uncompromising(fickle, grid)
    assert dropped.verdict == "FAIL"
    assert dropped.witness == {"profile": (1, 0, 0), "agent": 0, "raised_value": 2}


def test_check_uncompromising_builtin_rules():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    for rule in (WinnerRule.empty(), WinnerRule.strict(), WinnerRule.efficient()):
        assert check_uncompromising(rule, grid).verdict == "PASS_ANALYTIC"


def test_check_uncompromising_catches_dropped_winner():
    """Selecting at (3,2,2) but not at (4,2,2) punishes a raised report."""
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3, 4))
    rule = WinnerRule.rule_table(CFG1, {(3, 2, 2): (0,)})
    assert validate_winner_rule(rule, grid).passed
    report = check_uncompromising(rule, grid)
    assert report.verdict == "FAIL"
    assert report.witness["profile"] == (3, 2, 2)
    assert report.witness["agent"] == 0
    assert report.witness["raised_value"] == 4


def test_check_uncompromising_complete_table_passes():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3, 4))
    rule = WinnerRule.rule_table(CFG1, {(3, 2, 2): (0,), (4, 2, 2): (0,)})
    report = check_uncompromising(rule, grid)
    assert report.verdict == "PASS_EXHAUSTIVE"
    assert report.details["scope"] == "grid"


def grid_sweep_uncompromising(rule, grid):
    """Oracle: `check_uncompromising` as a sweep over every grid profile.

    This is how the check ran before it walked table entries; it returns
    the verdict and the first witness in grid order.
    """
    for point in grid.profiles():
        profile = Profile(grid.config, point.values)
        selected = frozenset(rule.pick(profile.values, profile.config, 1))
        price = vickrey_price(profile.values, profile.config.m)
        for i in sorted(selected):
            for raised in grid.values[i]:
                if raised > price and i not in frozenset(
                    rule.pick(profile.with_value(i, raised).values, profile.config, 1)
                ):
                    return "FAIL", {"profile": profile.values, "agent": i, "raised_value": raised}
    return "PASS_EXHAUSTIVE", None


def uncompromising_cases():
    """Seeded random tables and copies with entries removed, on grids
    narrower, equal to and wider than the one each table was drawn on: in
    whole steps, in half steps (so the walk runs at scale 2), and with a
    value set per agent (scale 6)."""
    from mechlab import random_winner_rule_table

    half = Fraction(1, 2)
    heterogeneous = ((0, half, 2), (0, Fraction(1, 3), 1, 2), (0, 1, 2, 3))
    cases = [
        (CFG1, [GridSpace.shared(CFG1, range(top + 1)) for top in (2, 3, 4)]),
        (MarketConfig(4, 2), [GridSpace.shared(MarketConfig(4, 2), range(top + 1))
                              for top in (1, 2, 3)]),
        (CFG1, [GridSpace.from_range(CFG1, top, 2) for top in (1, half * 3, 2)]),
        (CFG1, [GridSpace(CFG1, heterogeneous),
                GridSpace(CFG1, tuple(vals[:-1] for vals in heterogeneous)),
                GridSpace(CFG1, tuple((*vals, 4) for vals in heterogeneous))]),
    ]
    for market, (narrower, drawn_on, wider) in cases:
        for seed in range(6):
            rng = random.Random(f"uncompromising:{seed}")
            table = random_winner_rule_table(drawn_on, rng)
            kept = [key for key in sorted(table) if rng.random() < 0.8]
            for entries in (table, {key: table[key] for key in kept}):
                rule = WinnerRule.rule_table(market, entries)
                for grid in (narrower, drawn_on, wider):
                    yield rule, grid


def test_check_uncompromising_entry_walk_matches_grid_sweep():
    verdicts = set()
    for rule, grid in uncompromising_cases():
        report = check_uncompromising(rule, grid)
        verdict, witness = grid_sweep_uncompromising(rule, grid)
        assert (report.verdict, report.witness) == (verdict, witness), (rule.table, grid.values)
        verdicts.add(verdict)
    assert verdicts == {"PASS_EXHAUSTIVE", "FAIL"}


def test_failed_rule_check_json_carries_its_condition():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    failed = [
        validate_winner_rule(WinnerRule.rule_table(CFG1, {(3, 2, 1): (0,)}), grid),
        check_uncompromising(WinnerRule.rule_table(CFG1, {(2, 1, 1): (0,)}), grid),
        check_ev_support(PricingRule.threshold(-1), grid),
        check_ev_support(PricingRule.rule_table(CFG1, {(0, 0, 0): EV}), grid),
    ]
    assert [report.axiom for report in failed] == [
        "VALID", "UNCOMPROMISING", "EV_SUPPORT", "EV_SUPPORT"
    ]
    for report in failed:
        doc = report.to_json()
        assert (doc["verdict"], report.passed) == ("FAIL", False)
        assert doc["details"]["condition"] == report.details["condition"]
        assert doc["witness"]
    assert failed[0].to_json()["details"]["condition"].startswith("(i)")


@pytest.mark.parametrize("table_market", [MarketConfig(4, 1), MarketConfig(3, 2)])
def test_rule_checks_refuse_a_table_for_another_market(table_market):
    """A table written for another market than the grid's is refused, naming
    both markets, instead of passing or failing on entries that never match."""
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    profile = (2,) * table_market.n
    winners = WinnerRule.rule_table(table_market, {profile: ()})
    pricing = PricingRule.rule_table(table_market, {profile: EV})
    message = (
        rf"rule table market \(n={table_market.n}, m={table_market.m}\) differs "
        r"from the grid market \(n=3, m=1\)"
    )
    for check, rule in (
        (validate_winner_rule, winners),
        (check_uncompromising, winners),
        (check_ev_support, pricing),
    ):
        with pytest.raises(ValueError, match=message):
            check(rule, grid)


def test_axiom_checks_refuse_a_table_mechanism_for_another_market():
    """A mechanism keeps its rule table's market, and every axiom check and
    witness replay refuses a grid of another market, as does the outcome
    table that `scan`, `audit` and `welfare_compare` are handed. Without
    this, SP and EE passed the 4-agent winner table on a 3-agent grid and
    NOM failed the pricing table, as no entry matches."""
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    four = MarketConfig(4, 1)
    winners = selective_vickrey_mechanism(WinnerRule.rule_table(four, {(3, 2, 2, 2): (0,)}))
    pricing = ev_pab_mechanism(PricingRule.rule_table(four, {(1, 0, 0, 0): EV}))
    assert winners.market == pricing.market == four
    assert all(m.market is None for m in builtin_mechanisms())
    nom = {"agent": 0, "true_value": 2, "misreport": 1, "direction": "SUP", "scope": "grid"}
    calls = [
        *(lambda m, check=check: check(m, grid) for check in CHECKERS.values()),
        lambda m: OutcomeTable(m, grid),
        lambda m: refresh_witness(m, "EE", {"profile": (0, 0, 0)}, grid),
        lambda m: refresh_witness(m, "NOM", nom, grid),
    ]
    message = r"rule table market \(n=4, m=1\) differs from the grid market \(n=3, m=1\)"
    for mechanism in (winners, pricing):
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(mechanism)


def test_selective_mechanism_rejects_invalid_table():
    with pytest.raises(ValueError, match="invalid winner rule"):
        selective_vickrey_mechanism(WinnerRule.rule_table(CFG1, {(3, 2, 1): (0,)}))


# pricing rules


def test_ev_pab_always_ev_examples():
    """On-tail profiles price at rank m+1; (3,2,1) falls back to pay-as-bid."""
    mech = ev_pab_mechanism(PricingRule.always_ev())
    tail = mech.evaluate(Profile(CFG1, (3, 2, 2)))
    assert tail == bundles((1, 2), (0, 0), (0, 0))
    off = mech.evaluate(Profile(CFG1, (3, 2, 1)))
    assert off == bundles((1, 3), (0, 0), (0, 0))
    free = mech.evaluate(Profile(CFG1, (3, 0, 0)))
    assert free == bundles((1, 0), (0, 0), (0, 0))
    assert utilities(free, Profile(CFG1, (3, 0, 0)))[0] == 3


def test_ev_pab_iff_zero_prices_ev_only_for_free():
    mech = ev_pab_mechanism(PricingRule.ev_iff_price_zero())
    free = mech.evaluate(Profile(CFG1, (3, 0, 0)))
    assert (free.x[0], free.t[0]) == (1, 0)
    paid = mech.evaluate(Profile(CFG1, (3, 2, 2)))
    assert (paid.x[0], paid.t[0]) == (1, 3), "positive price reverts to own bid"


def test_ev_pab_threshold_cutoff():
    mech = ev_pab_mechanism(PricingRule.threshold(1))
    low = mech.evaluate(Profile(CFG1, (3, 1, 1)))
    assert (low.x[0], low.t[0]) == (1, 1)
    high = mech.evaluate(Profile(CFG1, (3, 2, 2)))
    assert (high.x[0], high.t[0]) == (1, 3)


def test_check_ev_support_analytic_families():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    for pricing in (PricingRule.always_ev(), PricingRule.ev_iff_price_zero(),
                    PricingRule.threshold(1), PricingRule.threshold(0)):
        assert check_ev_support(pricing, grid).verdict == "PASS_ANALYTIC"


def test_check_ev_support_negative_threshold_fails():
    # price is never negative, so a negative cutoff never classifies EV
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    report = check_ev_support(PricingRule.threshold(-1), grid)
    assert report.verdict == "FAIL"
    assert report.witness == {"agent": 0, "value": 1}


def test_check_ev_support_table_verdicts():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    sparse = PricingRule.rule_table(grid.config, {(0, 0, 0): EV})
    gap = check_ev_support(sparse, grid)
    assert gap.verdict == "FAIL"
    assert gap.witness == {"agent": 0, "value": 1}
    entries = {}
    for i in range(3):
        for v in (1, 2, 3):
            key = [0, 0, 0]
            key[i] = v
            entries[tuple(key)] = EV
    covering = check_ev_support(PricingRule.rule_table(grid.config, entries), grid)
    # grid coverage is not coverage of every rational valuation
    assert covering.verdict == "NOT_CERTIFIED"


def test_utilities_agree_when_every_profile_has_a_tail():
    """With m = n-1 the efficient-Vickrey, strict-selective and EV-priced
    mechanisms give identical utility vectors everywhere."""
    mechs = [
        efficient_vickrey_mechanism(),
        selective_vickrey_mechanism(WinnerRule.strict()),
        ev_pab_mechanism(PricingRule.always_ev()),
    ]
    for p in grid_profiles(CFG2):
        vectors = {utilities(m.evaluate(p), p) for m in mechs}
        assert len(vectors) == 1, f"disagreement at {p.values}"


def test_builtin_catalog_names():
    assert [m.name for m in builtin_mechanisms()] == [
        "vickrey",
        "efficient_vickrey",
        "pay_as_bid",
        "no_trade",
        "selective_vickrey(strict_winners)",
        "ev_pab(always_ev)",
    ]


def test_an_audit_evaluates_each_grid_profile_once():
    """Every axiom of an audit and the welfare comparison read the one
    outcome table they are handed: across a full audit on an exhaustive
    grid, the mechanism runs exactly once at each grid profile."""
    calls = []

    def fn(profile):
        calls.append(profile.values)
        return vickrey_mechanism().evaluate(profile)

    mech = Mechanism("probe", "CUSTOM", fn)
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    table = OutcomeTable(mech, grid)
    audit(table, list(CHECKERS))
    welfare_compare(table, OutcomeTable(pay_as_bid_mechanism(), grid))
    assert sorted(calls) == sorted(p.values for p in grid.profiles())


def test_breakpoints_are_declared_by_constructors_only():
    """Each comparison-based family declares 0 plus the constants it compares
    a report with; a rule table and a CUSTOM mechanism declare none, and a
    spec cannot set them."""
    zero = (Fraction(0),)
    declared = {
        vickrey_mechanism(): zero,
        efficient_vickrey_mechanism(): zero,
        pay_as_bid_mechanism(): zero,
        no_trade_mechanism(Fraction(7, 2)): zero,
        selective_vickrey_mechanism(WinnerRule.empty()): zero,
        selective_vickrey_mechanism(WinnerRule.strict()): zero,
        selective_vickrey_mechanism(WinnerRule.efficient()): zero,
        selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(1, "-1/2")):
            (0, Fraction(-1, 2)),
        ev_pab_mechanism(PricingRule.always_ev()): zero,
        ev_pab_mechanism(PricingRule.ev_iff_price_zero()): zero,
        ev_pab_mechanism(PricingRule.threshold("3/2")): (0, Fraction(3, 2)),
        selective_vickrey_mechanism(WinnerRule.rule_table(CFG1, {(1, 0, 0): [0]})): None,
        ev_pab_mechanism(PricingRule.rule_table(CFG1, {(0, 0, 0): EV})): None,
        Mechanism("custom", "CUSTOM", vickrey_mechanism().evaluate): None,
    }
    for mechanism, breakpoints in declared.items():
        assert mechanism.breakpoints == breakpoints, mechanism.name
        if mechanism.family != "CUSTOM":
            assert mechanism_from_spec(mechanism.spec, CFG1).breakpoints == breakpoints
    with pytest.raises(ValueError, match="^VICKREY mechanism has an unknown field 'breakpoints'$"):
        mechanism_from_spec({"family": "VICKREY", "breakpoints": ["1"]}, CFG1)
