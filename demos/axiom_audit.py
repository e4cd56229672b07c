"""Audit a few mechanisms against the axiom checkers and shrink a witness.

Run: python3 demos/axiom_audit.py
"""

from mechlab import (
    CHECKERS,
    GridSpace,
    MarketConfig,
    no_trade_mechanism,
    pay_as_bid_mechanism,
    replay_witness,
    shrink_witness,
    vickrey_mechanism,
)

grid = GridSpace.shared(MarketConfig(3, 1), (0, 1, 2, 3))
mechanisms = [
    vickrey_mechanism(),
    pay_as_bid_mechanism(),
    no_trade_mechanism(1),
]

print("Verdicts over the shared grid {0,1,2,3}, three agents, one object")
for mech in mechanisms:
    for axiom in ("EE", "SP", "IR", "NS", "EFF", "NOM"):
        rep = CHECKERS[axiom](mech, grid)
        line = f"  {mech.name:16s} {axiom:4s} {rep.verdict:16s}"
        if rep.witness:
            line += f" witness={rep.witness}"
        print(line)

print()
print("Witness shrinking: walk a strategyproofness violation to the grid floor")
wide = GridSpace.shared(MarketConfig(3, 1), (0, 1, 2, 3, 4))
witness = {"profile": (4, 1, 0), "agent": 0, "misreport": 2}
print(f"  start:  {witness}")
small = shrink_witness(pay_as_bid_mechanism(), "SP", witness, wide)
print(f"  shrunk: {small}")
print(f"  still replays: {replay_witness(pay_as_bid_mechanism(), 'SP', small, wide)}")
