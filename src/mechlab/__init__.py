"""Exact-arithmetic audit lab for money-augmented allocation mechanisms.

Agents with quasi-linear utilities compete for identical indivisible
objects; mechanisms assign an allocation (x, t) of object indicators and
transfers. Everything runs on `fractions.Fraction`, so every verdict,
witness, and report is exact and replayable.
"""

__version__ = "0.1.0"

from .model import (
    Allocation,
    MarketConfig,
    Profile,
    has_uniform_tail,
    rat,
    rat_str,
    utilities,
    vickrey_price,
)
from .mechanisms import (
    Mechanism,
    PricingRule,
    WinnerRule,
    builtin_mechanisms,
    efficient_vickrey_mechanism,
    ev_pab_mechanism,
    mechanism_from_spec,
    no_trade_mechanism,
    pay_as_bid_mechanism,
    selective_vickrey_mechanism,
    vickrey_mechanism,
)
from .axioms import (
    AxiomReport,
    CHECKERS,
    GridSpace,
    OutcomeTable,
    WelfareComparison,
    audit,
    check_anonymity_in_welfare,
    check_best_case_utility,
    check_ee,
    check_efficiency,
    check_envy_freeness,
    check_ev_support,
    check_ir,
    check_no_subsidy,
    check_nom,
    check_sp,
    check_uncompromising,
    find_reference_bundle,
    refresh_witness,
    replay_witness,
    validate_winner_rule,
    welfare_compare,
    witness_from_json,
    witness_to_json,
)
from .search import (
    SUITES,
    SuiteResult,
    random_uncompromising_rules,
    random_winner_rule_table,
    shrink_witness,
    suite_anonymity,
    suite_independence,
    suite_nom_class,
    suite_sp_class,
    suite_welfare,
)

__all__ = [name for name in dir() if not name.startswith("_")]
