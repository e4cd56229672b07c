"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with -s to see the lines. Default setting throughout: three agents, one
object, shared value grid {0,1,2,3}, exhaustive enumeration.
"""

import json
import random
import time
from fractions import Fraction

from conftest import random_pricing_table
from mechlab import (
    CHECKERS,
    GridSpace,
    MarketConfig,
    OutcomeTable,
    PricingRule,
    Profile,
    WinnerRule,
    builtin_mechanisms,
    efficient_vickrey_mechanism,
    ev_pab_mechanism,
    find_reference_bundle,
    no_trade_mechanism,
    pay_as_bid_mechanism,
    refresh_witness,
    selective_vickrey_mechanism,
    utilities,
    vickrey_mechanism,
    welfare_compare,
    random_uncompromising_rules,
    random_winner_rule_table,
)
from mechlab.axioms import check_ev_support, check_uncompromising, validate_winner_rule
from mechlab.cli import load_config, main

GRID = GridSpace.shared(MarketConfig(3, 1), (0, 1, 2, 3))
GRID5 = GridSpace.shared(MarketConfig(3, 1), (0, 1, 2, 3, 4))
GRID_M2 = GridSpace.shared(MarketConfig(3, 2), (0, 1, 2, 3))
CORE_AXIOMS = ("EE", "SP", "IR", "NS")


def report(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_independence_matrix():
    """Each of the four core axioms is broken by exactly one benchmark mechanism."""
    started = time.perf_counter()
    mechanisms = [
        vickrey_mechanism(),
        pay_as_bid_mechanism(),
        no_trade_mechanism(1),
        no_trade_mechanism(-1),
    ]
    expected_fail = {
        "vickrey": "EE",
        "pay_as_bid": "SP",
        "no_trade(fee=1)": "IR",
        "no_trade(fee=-1)": "NS",
    }
    matrix_ok = True
    for mech in mechanisms:
        for name in CORE_AXIOMS:
            checked = CHECKERS[name](mech, GRID)
            matrix_ok &= checked.axiom == name
            if name == expected_fail[mech.name]:
                matrix_ok &= checked.verdict == "FAIL"
            else:
                matrix_ok &= checked.verdict == "PASS_EXHAUSTIVE"
    elapsed = time.perf_counter() - started
    report(
        1,
        matrix_ok and elapsed < 1.0,
        f"4x4 independence matrix matches designed pattern in {elapsed:.2f}s",
    )


def test_criterion_02_uncompromising_rules_satisfy_core_axioms():
    """Built-in winner rules plus 20 random uncompromising tables pass EE, SP, IR, NS."""
    started = time.perf_counter()
    rules = [
        WinnerRule.empty(),
        WinnerRule.strict(),
        WinnerRule.dictatorial_threshold(0, 2),
    ]
    rules += random_uncompromising_rules(GRID, count=20, seed=1729)
    ok = len(rules) >= 23
    for rule in rules:
        ok &= validate_winner_rule(rule, GRID).passed
        ok &= check_uncompromising(rule, GRID).passed
        mech = selective_vickrey_mechanism(rule)
        for name in CORE_AXIOMS:
            ok &= CHECKERS[name](mech, GRID).verdict == "PASS_EXHAUSTIVE"
    elapsed = time.perf_counter() - started
    report(
        2,
        ok and elapsed < 10.0,
        f"{len(rules)} uncompromising rules pass EE/SP/IR/NS in {elapsed:.2f}s",
    )


def test_criterion_03_uncompromising_equivalence_at_grid_scope():
    """Uncompromising rules are strategyproof; a compromising table turns its
    uncompromisingness violation into the strategyproofness witness."""
    ok = True
    for rule in random_uncompromising_rules(GRID, count=10, seed=42):
        ok &= CHECKERS["SP"](selective_vickrey_mechanism(rule), GRID).verdict == "PASS_EXHAUSTIVE"

    cfg = MarketConfig(3, 1)
    compromising = WinnerRule.rule_table(cfg, {(3, 2, 2): (0,)})
    ok &= validate_winner_rule(compromising, GRID5).passed
    drop = check_uncompromising(compromising, GRID5)
    ok &= drop.verdict == "FAIL"
    ok &= drop.witness["profile"] == (3, 2, 2)
    ok &= drop.witness["agent"] == 0
    ok &= drop.witness["raised_value"] == 4

    sp = CHECKERS["SP"](selective_vickrey_mechanism(compromising), GRID5)
    ok &= sp.verdict == "FAIL"
    # the SP witness is the dropped-winner replay: truth at the raised value,
    # misreport back to the selected entry
    ok &= sp.witness["profile"] == (4, 2, 2)
    ok &= sp.witness["agent"] == 0
    ok &= sp.witness["misreport"] == 3
    ok &= sp.witness["truthful_utility"] == 0
    ok &= sp.witness["misreport_utility"] == 2
    report(3, ok, "uncompromising <=> strategyproof, with witness carried across")


def test_criterion_04_selective_mechanisms_are_inefficient_below_capacity():
    """With m < n-1 every selective no-trade mechanism goes idle at (3,2,1)."""
    rules = [
        WinnerRule.empty(),
        WinnerRule.strict(),
        WinnerRule.dictatorial_threshold(0, 2),
        WinnerRule.efficient(),
    ] + random_uncompromising_rules(GRID, count=3, seed=7)
    ok = True
    for rule in rules:
        mech = selective_vickrey_mechanism(rule)
        ok &= CHECKERS["EFF"](mech, GRID).verdict == "FAIL"
        replay = refresh_witness(mech, "EFF", {"profile": (3, 2, 1)}, GRID)
        ok &= replay is not None
        ok &= replay["achieved"] == 0 and replay["optimum"] == 3
    report(4, ok, f"{len(rules)} selective rules fail efficiency, witness (3,2,1)")


def test_criterion_05_full_capacity_recovers_efficiency():
    """At m = n-1 the canonical efficient-Vickrey pick satisfies all five axioms
    and coincides in utilities with the strict-winners selective mechanism."""
    ev = efficient_vickrey_mechanism()
    ok = True
    for name in ("EE", "SP", "IR", "NS", "EFF"):
        ok &= CHECKERS[name](ev, GRID_M2).verdict == "PASS_EXHAUSTIVE"
    strict = selective_vickrey_mechanism(WinnerRule.strict())
    for point in GRID_M2.profiles():
        p = Profile(GRID_M2.config, point.values)
        ok &= utilities(ev.evaluate(p), p) == utilities(strict.evaluate(p), p)
    report(5, ok, "m=n-1: efficient Vickrey passes EE/SP/IR/NS/EFF, matches strict rule")


def test_criterion_06_ev_pricing_is_not_obviously_manipulable():
    """EV pricing keeps EE/EFF/IR/NS and the best/worst-case report bounds;
    own-bid pricing admits an obvious manipulation."""
    aev = ev_pab_mechanism(PricingRule.always_ev())
    ok = True
    for name in ("EE", "EFF", "IR", "NS"):
        ok &= CHECKERS[name](aev, GRID).verdict == "PASS_EXHAUSTIVE"
    nom = CHECKERS["NOM"](aev, GRID)
    ok &= nom.verdict == "PASS_ANALYTIC"
    ok &= nom.details["truthful_bounds"] == {
        "0": ["0", "0"], "1": ["1", "0"], "2": ["2", "0"], "3": ["3", "0"],
    }
    manipulation = CHECKERS["NOM"](pay_as_bid_mechanism(), GRID).witness
    ok &= manipulation is not None
    ok &= manipulation["direction"] == "SUP"
    ok &= manipulation["truthful_bound"] == 0
    report(6, ok, "always-EV passes EE/EFF/IR/NS/NOM; pay-as-bid is obviously manipulable")


def test_criterion_07_always_ev_maximizes_welfare_in_class():
    """Always-EV pricing dominates the price-zero restriction and is never
    strictly beaten by any built-in pricing variant."""
    first = ev_pab_mechanism(PricingRule.always_ev())
    second = ev_pab_mechanism(PricingRule.ev_iff_price_zero())
    best = OutcomeTable(first, GRID)
    cmp = welfare_compare(best, OutcomeTable(second, GRID))
    ok = cmp.relation == "DOMINATES"
    p = Profile(MarketConfig(3, 1), (3, 1, 1))
    ok &= utilities(first.evaluate(p), p)[0] == 2
    ok &= utilities(second.evaluate(p), p)[0] == 0
    rivals = [
        PricingRule.always_ev(),
        PricingRule.ev_iff_price_zero(),
        PricingRule.threshold(-1),
        PricingRule.threshold(0),
        PricingRule.threshold(1),
        PricingRule.threshold(2),
    ]
    for pricing in rivals:
        against = welfare_compare(best, OutcomeTable(ev_pab_mechanism(pricing), GRID))
        ok &= against.strict_second is None
    report(7, ok, "always-EV dominates price-zero variant; no rival is ever strictly above")


def test_criterion_08_anonymity_in_welfare_split():
    """The dictatorial threshold rule treats swapped agents differently;
    the efficient-winners rule does not."""
    dct = selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, 2))
    ok = CHECKERS["AIW"](dct, GRID).verdict == "FAIL"
    replay = refresh_witness(dct, "AIW", {"profile": (3, 2, 2), "agent": 0, "other": 1}, GRID)
    ok &= replay is not None
    ok &= replay["swapped_profile"] == (2, 3, 2)
    ok &= replay["utility"] == 1 and replay["swapped_utility"] == 0
    fair = selective_vickrey_mechanism(WinnerRule.efficient())
    for name in ("AIW", "EE", "SP", "IR", "NS"):
        ok &= CHECKERS[name](fair, GRID).verdict == "PASS_EXHAUSTIVE"
    report(8, ok, "dictatorial rule fails anonymity at (3,2,2)~(2,3,2); efficient rule passes all")


def test_criterion_09_reference_bundle_matches_brute_force():
    """find_reference_bundle agrees with trying every candidate bundle."""
    rng = random.Random(90125)
    pool = list(builtin_mechanisms()) + [
        selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, 2)),
        selective_vickrey_mechanism(WinnerRule.efficient()),
        ev_pab_mechanism(PricingRule.ev_iff_price_zero()),
        ev_pab_mechanism(PricingRule.threshold(1)),
        ev_pab_mechanism(PricingRule.threshold(-1)),
        no_trade_mechanism(Fraction(1, 2)),
    ]
    values = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    pairs = 0
    disagreements = 0
    for _ in range(1200):
        mech = rng.choice(pool)
        cfg = MarketConfig(3, rng.choice((1, 2)))
        p = Profile(cfg, tuple(rng.choice(values) for _ in range(3)))
        outcome = utilities(mech.evaluate(p), p)
        candidates = set()  # bundles (x, t)
        for v, u in zip(p.values, outcome):
            candidates.add((1, v - u))
            candidates.add((0, -u))
        brute = next(
            (z for z in sorted(candidates)
             if all(v * z[0] - z[1] == u for v, u in zip(p.values, outcome))),
            None,
        )
        found = find_reference_bundle(mech, p)
        if (found is None) != (brute is None):
            disagreements += 1
        elif found is not None and not all(
            v * found[0] - found[1] == u for v, u in zip(p.values, outcome)
        ):
            disagreements += 1
        pairs += 1
    report(
        9,
        pairs >= 1000 and disagreements == 0,
        f"{pairs} sampled (mechanism, profile) pairs, {disagreements} oracle disagreements",
    )


def test_criterion_10_audit_reports_are_deterministic(tmp_path, capsys):
    """Identical config and seed give byte-identical reports modulo timing."""
    cfg = {
        "schema": 1,
        "market": {"agents": 3, "objects": 1},
        "grid": {"values": ["0", "1", "2", "3"]},
        "mode": {"kind": "sampled", "seed": 17, "samples": 60},
        "mechanisms": ["PAY_AS_BID", {"family": "EV_PAB", "pricing": "ALWAYS_EV"}],
        "axioms": ["EE", "SP", "IR", "NS", "NOM"],
    }
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(cfg))

    def run():
        main(["audit", "--config", str(path)])
        raw = capsys.readouterr().out
        data = json.loads(raw)
        data.pop("timing")
        return json.dumps(data, sort_keys=True)

    ok = run() == run()
    report(10, ok, "repeat audits byte-identical once timing is stripped")


MID_CAPACITY_GRIDS = [
    GridSpace.shared(MarketConfig(4, 2), (0, 1, 2)),
    GridSpace.shared(MarketConfig(5, 2), (0, 1, 2)),
]


def test_criterion_11_paper_results_hold_between_one_and_n_minus_one_objects():
    """At 1 < m < n-1, random uncompromising tables pass EE/SP/IR/NS, and
    EV/PAB under random pricing tables passes EE/EFF/IR/NS, is never
    strictly above always-EV, and fails NOM exactly when EV support fails."""
    ok, nom_fails = True, 0
    for grid in MID_CAPACITY_GRIDS:
        market = grid.config
        always_ev = OutcomeTable(ev_pab_mechanism(PricingRule.always_ev()), grid)
        for seed in range(5):
            table = random_winner_rule_table(grid, random.Random(f"winners:{market}:{seed}"))
            rule = WinnerRule.rule_table(market, table)
            ok &= validate_winner_rule(rule, grid).passed and check_uncompromising(rule, grid).passed
            selective = selective_vickrey_mechanism(rule)
            for name in CORE_AXIOMS:
                ok &= CHECKERS[name](selective, grid).verdict == "PASS_EXHAUSTIVE"

            modes = random_pricing_table(grid, random.Random(f"pricing:{market}:{seed}"))
            pricing = PricingRule.rule_table(market, modes)
            mech = ev_pab_mechanism(pricing)
            for name in ("EE", "EFF", "IR", "NS"):
                ok &= CHECKERS[name](mech, grid).verdict == "PASS_EXHAUSTIVE"
            ok &= welfare_compare(always_ev, OutcomeTable(mech, grid)).strict_second is None
            nom_failed = CHECKERS["NOM"](mech, grid).verdict == "FAIL"
            ok &= nom_failed == (check_ev_support(pricing, grid).verdict == "FAIL")
            nom_fails += nom_failed
    report(11, ok, f"(4,2) and (5,2): 10 winner and 10 pricing tables, NOM fails {nom_fails}")
