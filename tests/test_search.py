"""Profile enumeration, witness shrinking, manipulation search, rule sampling, suites."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from mechlab import (
    CHECKERS,
    GridSpace,
    MarketConfig,
    WinnerRule,
    ev_pab_mechanism,
    has_uniform_tail,
    no_trade_mechanism,
    pay_as_bid_mechanism,
    PricingRule,
    Profile,
    random_uncompromising_rules,
    random_winner_rule_table,
    refresh_witness,
    selective_vickrey_mechanism,
    shrink_witness,
    vickrey_mechanism,
    vickrey_price,
)
from mechlab.axioms import check_uncompromising, validate_winner_rule
from mechlab.grid import ENUMERATION_BUDGET
from mechlab.search import (
    SUITES,
    suite_anonymity,
    suite_independence,
    suite_nom_class,
    suite_sp_class,
    suite_welfare,
)
from test_axioms import opaque

CFG1 = MarketConfig(3, 1)


def test_grid_config_explicit_values():
    grid = GridSpace.shared(CFG1, (3, 0, 1, 2, 1))
    assert grid.is_shared and grid.values[0] == (0, 1, 2, 3)
    assert grid.size == 64


def test_grid_config_range_values():
    grid = GridSpace.from_range(CFG1, 3, 2)
    assert grid.is_shared and grid.values[0] == (
        0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3,
    )


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_value": -1}, "non-negative"),
        ({"max_value": Fraction(1, 3), "denominator": 2}, "multiple of 1/denominator"),
        ({"max_value": 2, "denominator": 0}, "denominator must be >= 1"),
        ({"values": (0, -1)}, "non-negative"),
    ],
)
def test_grid_config_checks_come_from_grid_space(kwargs, message):
    declare = GridSpace.shared if "values" in kwargs else GridSpace.from_range
    with pytest.raises(ValueError, match=message):
        declare(CFG1, **kwargs)


def test_grid_profiles_counts_and_order():
    """3 agents over {0,1} gives 8 profiles in lexicographic order."""
    small = [p.values for p in GridSpace.shared(CFG1, (0, 1)).profiles()]
    assert len(small) == 8
    assert small[0] == (0, 0, 0)
    assert small == sorted(small)
    assert len(list(GridSpace.shared(CFG1, (0, 1, 2, 3)).profiles())) == 64
    assert len(list(GridSpace.shared(MarketConfig(2, 1), (0,)).profiles())) == 1


def uniform_tail_profiles(grid):
    profiles = (Profile(grid.config, p.values) for p in grid.profiles())
    return [p for p in profiles if has_uniform_tail(p.values, p.config.m)]


def test_uniform_tail_is_a_filter():
    grid = GridSpace.shared(CFG1, (0, 1, 2))
    tail = {p.values for p in uniform_tail_profiles(grid)}
    assert (2, 1, 1) in tail
    assert (2, 1, 0) not in tail
    everything = {p.values for p in grid.profiles()}
    assert tail == {v for v in everything if has_uniform_tail_values(v)}


def has_uniform_tail_values(values):
    return has_uniform_tail(values, CFG1.m)


def test_uniform_tail_everything_when_one_loser():
    grid = GridSpace.shared(MarketConfig(3, 2), (0, 1, 2))
    assert len(uniform_tail_profiles(grid)) == 27


def test_enumeration_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        GridSpace.shared(CFG1, tuple(range(101)))


def test_range_over_budget_is_refused_before_building_values(monkeypatch):
    """A 2001-value range on 3 agents is 8e9 profiles: refused with the
    message `profiles()` gives, before a single range value is built."""
    import mechlab.grid

    def no_values(*args):
        raise AssertionError("a range value was built")

    monkeypatch.setattr(mechlab.grid, "Fraction", no_values)
    with pytest.raises(ValueError, match="8012006001 profiles exceed the enumeration budget"):
        GridSpace.from_range(CFG1, 2000)
    monkeypatch.undo()
    sampled = GridSpace.from_range(CFG1, 20, mode="sampled", seed=1, samples=3)
    assert sampled.is_shared and len(sampled.values[0]) == 21


# shrinking


def test_shrink_ee_witness_to_grid_floor():
    """(3,2,1) walks down coordinate by coordinate to (2,1,0)."""
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    small = shrink_witness(vickrey_mechanism(), "EE", {"profile": (3, 2, 1)}, grid)
    assert small["profile"] == (2, 1, 0)
    again = shrink_witness(vickrey_mechanism(), "EE", small, grid)
    assert again["profile"] == (2, 1, 0), "shrinking is idempotent"


def test_shrink_sp_witness():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3, 4))
    witness = {"profile": (4, 1, 0), "agent": 0, "misreport": 2}
    small = shrink_witness(pay_as_bid_mechanism(), "SP", witness, grid)
    assert small["profile"] == (2, 0, 0)
    assert small["misreport"] == 1
    # the shrunken witness still replays
    assert refresh_witness(pay_as_bid_mechanism(), "SP", small, grid) is not None


@pytest.mark.parametrize(
    "axiom, mechanism", [("EE", vickrey_mechanism()), ("IR", no_trade_mechanism(1))]
)
def test_a_sampled_witness_over_many_values_replays_and_shrinks(axiom, mechanism):
    """A witness drawn from a sampled grid of 8 agents replays and shrinks,
    although its distinct values, shared by every agent, would make an
    exhaustive grid over the enumeration budget."""
    market = MarketConfig(8, 2)
    grid = GridSpace.from_range(market, 20, mode="sampled", seed=0, samples=20)
    witness = CHECKERS[axiom](mechanism, grid).witness
    distinct = len(set(witness["profile"]))
    assert distinct >= 6 and distinct**market.n > ENUMERATION_BUDGET
    assert refresh_witness(mechanism, axiom, witness, grid) == witness
    small = shrink_witness(mechanism, axiom, witness, grid)
    assert all(s <= w for s, w in zip(small["profile"], witness["profile"]))
    assert small["profile"] != witness["profile"]
    assert refresh_witness(mechanism, axiom, small, grid) == small


@pytest.mark.parametrize(
    "axiom, mechanism, witness, grid, shrunk",
    [
        ("IR", no_trade_mechanism(1), {"profile": (3, 2, 1), "agent": 2}, (3, 1),
         {"profile": (0, 0, 0), "agent": 2, "utility": -1}),
        ("NS", no_trade_mechanism(-1), {"profile": (3, 2, 1), "agent": 1}, (3, 1),
         {"profile": (0, 0, 0), "agent": 1, "transfer": -1}),
        ("EFF", selective_vickrey_mechanism(WinnerRule.strict()), {"profile": (3, 2, 1)},
         (3, 1), {"profile": (1, 1, 0), "achieved": 0, "optimum": 1}),
        ("EF", ev_pab_mechanism(PricingRule.threshold(-1)),
         {"profile": (3, 2, 0), "agent": 0, "other": 1}, (3, 2),
         {"profile": (2, 1, 0), "agent": 0, "other": 1, "own_utility": 0,
          "other_bundle_utility": 1}),
        ("AIW", selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, 2)),
         {"profile": (3, 2, 2), "agent": 0, "other": 1}, (3, 1),
         {"profile": (3, 2, 2), "agent": 0, "other": 1, "swapped_profile": (2, 3, 2),
          "utility": 1, "swapped_utility": 0}),
    ],
)
def test_shrink_pins_each_pointwise_witness(axiom, mechanism, witness, grid, shrunk):
    """The exact local minimum of every pointwise axiom without a pin above."""
    grid = GridSpace.shared(MarketConfig(*grid), (0, 1, 2, 3))
    assert shrink_witness(mechanism, axiom, witness, grid) == shrunk


def test_shrink_rejects_non_violations():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    with pytest.raises(ValueError, match="does not replay"):
        shrink_witness(vickrey_mechanism(), "EE", {"profile": (0, 0, 0)}, grid)


def test_shrink_rejects_bound_witnesses():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    witness = {"agent": 0, "true_value": 2, "misreport": 1}
    with pytest.raises(ValueError, match="not defined"):
        shrink_witness(pay_as_bid_mechanism(), "NOM", witness, grid)


# obvious manipulation search


def test_find_obvious_manipulation_pay_as_bid():
    """Shading 2 to 1 raises the best case from 0 to 1 against zero bidders."""
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3, 4))
    w = CHECKERS["NOM"](pay_as_bid_mechanism(), grid).witness
    assert w is not None
    assert (w["agent"], w["true_value"], w["misreport"]) == (0, 2, 1)
    assert w["direction"] == "SUP"
    assert w["realizing_opponents"] == (0, 0)


def test_find_obvious_manipulation_none_for_clean_mechanisms():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    for mech in (
        vickrey_mechanism(),
        no_trade_mechanism(0),
        selective_vickrey_mechanism(WinnerRule.strict()),
        ev_pab_mechanism(PricingRule.always_ev()),
    ):
        assert CHECKERS["NOM"](mech, grid).witness is None, mech.name


def test_find_obvious_manipulation_grid_route_agrees():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3, 4))
    w = CHECKERS["NOM"](opaque(pay_as_bid_mechanism()), grid).witness
    assert (w["agent"], w["true_value"], w["misreport"]) == (0, 2, 1)
    assert w["scope"] == "grid"


# random winner rules


def test_random_winner_rule_table_entries_sit_on_the_tail():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    table = random_winner_rule_table(grid, random.Random(7))
    assert table, "seeded tables are not empty"
    for key in table:
        assert has_uniform_tail(key, CFG1.m)


def test_random_rules_are_valid_and_uncompromising():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    rules = random_uncompromising_rules(grid, count=6, seed=11)
    assert len(rules) == 6
    for rule in rules:
        assert validate_winner_rule(rule, grid).passed, rule.label
        assert check_uncompromising(rule, grid).passed, rule.label
        mech = selective_vickrey_mechanism(rule)
        assert CHECKERS["SP"](mech, grid).verdict == "PASS_EXHAUSTIVE", rule.label


def seeded_winner_table(grid, rng):
    """`random_winner_rule_table`'s seeding step without its closure: at a
    random half of the uniform-tail profiles, the strict winners plus a
    random batch of price-tied agents up to capacity. Nothing keeps a
    raised winner selected, so most of these tables are compromising."""
    entries = {}
    for point in grid.profiles():
        profile = Profile(grid.config, point.values)
        if not has_uniform_tail(profile.values, profile.config.m) or rng.random() < 0.5:
            continue
        price = vickrey_price(profile.values, profile.config.m)
        required = frozenset(i for i, v in enumerate(profile.values) if v > price)
        tied = sorted(i for i, v in enumerate(profile.values) if v >= price and i not in required)
        rng.shuffle(tied)
        take = rng.randint(0, min(grid.config.m - len(required), len(tied)))
        if required or take:
            entries[profile.values] = required | frozenset(tied[:take])
    return entries


def test_an_uncompromising_witness_is_an_sp_violation():
    """SP fails exactly when UNCOMPROMISING does, and each UNCOMPROMISING
    witness maps onto an SP violation that replays: at the raised profile,
    the dropped agent misreports their original value and wins."""
    grid = GridSpace.shared(CFG1, range(3))
    compromising = 0
    for seed in range(100):
        rule = WinnerRule.rule_table(CFG1, seeded_winner_table(grid, random.Random(seed)))
        mech = selective_vickrey_mechanism(rule)
        uncompromising = check_uncompromising(rule, grid)
        assert CHECKERS["SP"](mech, grid).passed == uncompromising.passed, seed
        if uncompromising.passed:
            continue
        compromising += 1
        witness = uncompromising.witness
        agent, values = witness["agent"], witness["profile"]
        raised = values[:agent] + (witness["raised_value"],) + values[agent + 1:]
        sp = {"profile": raised, "agent": agent, "misreport": values[agent]}
        assert refresh_witness(mech, "SP", sp, grid) is not None, seed
    assert compromising > 50


def test_random_rules_deterministic_in_seed():
    grid = GridSpace.shared(CFG1, (0, 1, 2, 3))
    a = random_uncompromising_rules(grid, count=3, seed=5)
    b = random_uncompromising_rules(grid, count=3, seed=5)
    assert [r.label for r in a] == [r.label for r in b]


# suites


def test_suite_registry():
    assert set(SUITES) == {"independence", "sp-class", "nom-class", "welfare", "anonymity"}


def test_suite_independence_matrix():
    """Each defect shows up in exactly the designed column."""
    result = suite_independence()
    assert result.matched, result.mismatches()
    assert result.cells[("vickrey", "EE")] == "FAIL"
    assert result.cells[("vickrey", "SP")] == "PASS_EXHAUSTIVE"
    assert result.cells[("pay_as_bid", "SP")] == "FAIL"
    assert result.cells[("no_trade(fee=1)", "IR")] == "FAIL"
    assert result.cells[("no_trade(fee=-1)", "NS")] == "FAIL"


def test_suite_sp_class_small_sample():
    result = suite_sp_class(count=4, seed=23)
    assert result.matched, result.mismatches()
    assert all(cell.startswith("PASS") for cell in result.cells.values())


def test_suite_nom_class_flags_negative_threshold():
    result = suite_nom_class()
    assert result.matched, result.mismatches()
    assert result.cells[("ev_pab(threshold(-1))", "NOM")] == "FAIL"
    assert result.cells[("ev_pab(always_ev)", "NOM")].startswith("PASS")


def test_suite_welfare_relations():
    result = suite_welfare()
    assert result.matched, result.mismatches()
    relations = {row: result.cells[(row, "RELATION")] for row, _ in result.cells}
    assert "EQUAL" in relations.values()
    assert "DOMINATES" in relations.values()


def test_suite_anonymity():
    result = suite_anonymity()
    assert result.matched, result.mismatches()


def test_suite_result_reports_mismatches():
    result = suite_independence()
    # doctor one expectation to prove the comparison is not vacuous
    doctored = result.expected | {("vickrey", "EE"): "PASS"}
    from mechlab.search import SuiteResult

    broken = SuiteResult(
        name=result.name,
        title=result.title,
        rows=result.rows,
        columns=result.columns,
        cells=result.cells,
        expected=doctored,
        witnesses=result.witnesses,
    )
    assert not broken.matched
    assert broken.mismatches() == [("vickrey", "EE", "PASS", "FAIL")]


def test_suite_format_table_lists_every_row():
    result = suite_independence()
    text = result.format_table()
    for row in result.rows:
        assert row in text
    for col in result.columns:
        assert col in text


@pytest.mark.parametrize(
    "name, kwargs, digest",
    [
        ("independence", {}, "3c8e9cd93e6a93a1d14f7ebd4222a42efacaeda516102bb77fc549d35852abce"),
        ("sp-class", {}, "7ae6d93330757faf8122697ce8a69e44639560b5aab4048fd2b032d2118985a0"),
        ("sp-class", {"seed": 5}, "07d784651f36853368c905884161e417be95fbc2184a226ff276614cbcd19155"),
        ("nom-class", {}, "0dbac4c93f5343db598f7855360a66fc0b5fe0772f7cdd851bc7ee7355dd9b0b"),
        ("welfare", {}, "e2f44f1aab55fc07f1e05c369fee4ee83269958805ae9787267576df495de5dc"),
        ("anonymity", {}, "a67447e0ea3d225db8256cc2f59dab1735f4fd690a86c9d84c3ed4d482986379"),
    ],
    ids=["independence", "sp-class", "sp-class-seed-5", "nom-class", "welfare", "anonymity"],
)
def test_suite_json_is_pinned(name, kwargs, digest):
    """Every suite's JSON, byte for byte: sp-class at its default seed and one other."""
    text = json.dumps(SUITES[name](**kwargs).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
