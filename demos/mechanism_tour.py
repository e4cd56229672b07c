"""Tour of the built-in mechanism families on a few hand-picked profiles.

Run: python3 demos/mechanism_tour.py
"""

from mechlab import (
    MarketConfig,
    PricingRule,
    Profile,
    WinnerRule,
    efficient_vickrey_mechanism,
    ev_pab_mechanism,
    pay_as_bid_mechanism,
    selective_vickrey_mechanism,
    utilities,
    vickrey_mechanism,
)


def show(mech, values, m=1):
    p = Profile(MarketConfig(len(values), m), values)
    alloc = mech.evaluate(p)
    print(f"  {mech.name:34s} {str(values):12s} -> winners={alloc.winners} "
          f"transfers={tuple(str(t) for t in alloc.t)} "
          f"utilities={tuple(str(u) for u in utilities(alloc, p))}")


print("Ties at the price: the canonical winner pick")
print(" (3,3,2), one object: nobody is above the price 3, so Vickrey sells")
print(" nothing, while the efficient families sell to the lowest tied index")
for mech in (vickrey_mechanism(), efficient_vickrey_mechanism(), pay_as_bid_mechanism()):
    show(mech, (3, 3, 2))
print(" (1,1,3,1), two objects: agent 0, tied at the price 1 and indexed")
print(" below the strict winner 2, takes the spare object")
show(vickrey_mechanism(), (1, 1, 3, 1), m=2)
print(" (0,3,0), two objects: at price 0 the spare object goes to agent 0")
for mech in (vickrey_mechanism(), efficient_vickrey_mechanism(), pay_as_bid_mechanism()):
    show(mech, (0, 3, 0), m=2)

print()
print("Canonical mechanisms on (3,2,2): uniform tail at price 2")
for mech in (
    vickrey_mechanism(),
    pay_as_bid_mechanism(),
    selective_vickrey_mechanism(WinnerRule.strict()),
    selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, 2)),
    ev_pab_mechanism(PricingRule.always_ev()),
):
    show(mech, (3, 2, 2))

print()
print("Same mechanisms off the tail, on (3,2,1)")
for mech in (
    vickrey_mechanism(),
    pay_as_bid_mechanism(),
    selective_vickrey_mechanism(WinnerRule.strict()),
    ev_pab_mechanism(PricingRule.always_ev()),
):
    show(mech, (3, 2, 1))

print()
print("EV pricing hands over the whole surplus when opponents bid zero")
show(ev_pab_mechanism(PricingRule.always_ev()), (3, 0, 0))
show(ev_pab_mechanism(PricingRule.ev_iff_price_zero()), (3, 0, 0))
show(ev_pab_mechanism(PricingRule.ev_iff_price_zero()), (3, 2, 2))
