"""Welfare comparisons, obvious-manipulation search, and random rule sampling.

Run: python3 demos/welfare_hunt.py
"""

from mechlab import (
    GridSpace,
    MarketConfig,
    OutcomeTable,
    PricingRule,
    check_nom,
    check_sp,
    ev_pab_mechanism,
    pay_as_bid_mechanism,
    random_uncompromising_rules,
    selective_vickrey_mechanism,
    welfare_compare,
)
from mechlab.axioms import check_uncompromising, validate_winner_rule

grid = GridSpace.shared(MarketConfig(3, 1), (0, 1, 2, 3))
always = ev_pab_mechanism(PricingRule.always_ev())
always_table = OutcomeTable(always, grid)  # filled by the first comparison, read by every later one

print("Welfare order within the EV/own-bid pricing family")
for pricing in (
    PricingRule.ev_iff_price_zero(),
    PricingRule.threshold(0),
    PricingRule.threshold(1),
    PricingRule.threshold(2),
    PricingRule.threshold(-1),
):
    rival = ev_pab_mechanism(pricing)
    cmp = welfare_compare(always_table, OutcomeTable(rival, grid))
    line = f"  {always.name} vs {rival.name:28s} -> {cmp.relation}"
    if cmp.strict_first:
        w = cmp.strict_first
        line += (f"  e.g. {tuple(str(v) for v in w['profile'])}: agent {w['agent']} "
                 f"gets {w['first_utility']} instead of {w['second_utility']}")
    print(line)

print()
print("Hunting obvious manipulations (best/worst case over all opponents)")
for mech in (always, pay_as_bid_mechanism()):
    w = check_nom(mech, grid).witness
    if w is None:
        print(f"  {mech.name}: none")
    else:
        print(f"  {mech.name}: value {w['true_value']} reported as {w['misreport']} "
              f"lifts the best case {w['truthful_bound']} -> {w['misreport_bound']} "
              f"(opponents {tuple(str(v) for v in w['realizing_opponents'])})")

print()
print("Random uncompromising winner rules are strategyproof by construction")
for rule in random_uncompromising_rules(grid, count=3, seed=99):
    mech = selective_vickrey_mechanism(rule)
    print(f"  {rule.label:22s} valid={validate_winner_rule(rule, grid).passed} "
          f"uncompromising={check_uncompromising(rule, grid).passed} "
          f"SP={check_sp(mech, grid).verdict}")
