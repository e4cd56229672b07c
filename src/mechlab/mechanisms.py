"""Mechanism families: deterministic maps from valuation profiles to allocations.

The base families are Vickrey pricing (winners pay the (m+1)-th highest
valuation), efficient assignment with Vickrey pricing, pay-as-bid (winners
pay their own report), and no-trade with a flat fee (negative fee =
subsidy). Two composite families are built on top:

* selective Vickrey: a winner rule picks who trades on uniform-tail
  profiles at the Vickrey price, and everyone keeps the zero bundle
  otherwise;
* EV/PAB: a pricing rule classifies each uniform-tail profile as either
  efficient-Vickrey or pay-as-bid, and off-tail profiles are pay-as-bid.

Set-valued operations return every allocation the family admits; a
mechanism resolves the set with `select_canonical`, which is deterministic
and, within any one family, utility-invariant across the tied choices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .axioms import GridSpace

from .model import (
    Allocation,
    Bundle,
    MarketConfig,
    Profile,
    RationalLike,
    ZERO_BUNDLE,
    all_zero_allocation,
    has_uniform_tail,
    rat,
    rat_str,
    vickrey_price,
)

FAMILY_VICKREY = "VICKREY"
FAMILY_EFFICIENT_VICKREY = "EFFICIENT_VICKREY"
FAMILY_PAY_AS_BID = "PAY_AS_BID"
FAMILY_NO_TRADE = "NO_TRADE"
FAMILY_SELECTIVE_VICKREY = "SELECTIVE_VICKREY"
FAMILY_EV_PAB = "EV_PAB"

RULE_EMPTY = "EMPTY"
RULE_STRICT_WINNERS = "STRICT_WINNERS"
RULE_DICTATORIAL_THRESHOLD = "DICTATORIAL_THRESHOLD"
RULE_EFFICIENT_WINNERS = "EFFICIENT_WINNERS"
RULE_TABLE = "RULE_TABLE"

PRICING_ALWAYS_EV = "ALWAYS_EV"
PRICING_EV_IFF_PRICE_ZERO = "EV_IFF_PRICE_ZERO"
PRICING_THRESHOLD = "THRESHOLD"
PRICING_TABLE = "RULE_TABLE"


def _winners_allocation(
    config: MarketConfig, winners: Iterable[int], price: Fraction
) -> Allocation:
    chosen = set(winners)
    return Allocation(
        tuple(
            Bundle(1, price) if i in chosen else ZERO_BUNDLE
            for i in range(config.n)
        )
    )


def strict_winners(profile: Profile) -> frozenset[int]:
    """Agents whose valuation strictly exceeds the Vickrey price."""
    price = vickrey_price(profile)
    return frozenset(i for i, v in enumerate(profile.values) if v > price)


def tied_agents(profile: Profile) -> frozenset[int]:
    """Agents whose valuation equals the Vickrey price exactly."""
    price = vickrey_price(profile)
    return frozenset(i for i, v in enumerate(profile.values) if v == price)


def vickrey_set(profile: Profile) -> set[Allocation]:
    """All Vickrey allocations of a profile.

    Agents above the (m+1)-th highest valuation win and pay it; agents
    below it keep the zero bundle; agents exactly at the price may win or
    not, in every combination that stays within the m-object supply.
    """
    config = profile.config
    price = vickrey_price(profile)
    strict = strict_winners(profile)
    tied = sorted(tied_agents(profile))
    room = config.m - len(strict)
    out: set[Allocation] = set()
    for size in range(0, room + 1):
        for extra in itertools.combinations(tied, size):
            out.add(_winners_allocation(config, strict | set(extra), price))
    return out


def efficient_winner_sets(profile: Profile) -> list[frozenset[int]]:
    """Every feasible winner set maximizing the total valuation of winners.

    Handing an object to a zero-valuation agent is optimal-neutral, so
    such agents appear both included and excluded among the maximizers.
    """
    agents = range(profile.config.n)
    best: Fraction | None = None
    sets: list[frozenset[int]] = []
    for size in range(0, profile.config.m + 1):
        for combo in itertools.combinations(agents, size):
            total = sum((profile.values[i] for i in combo), Fraction(0))
            if best is None or total > best:
                best = total
                sets = [frozenset(combo)]
            elif total == best:
                sets.append(frozenset(combo))
    return sets


def efficient_vickrey_set(profile: Profile) -> set[Allocation]:
    """Surplus-maximizing object assignments with winners paying the Vickrey price."""
    price = vickrey_price(profile)
    return {
        _winners_allocation(profile.config, s, price)
        for s in efficient_winner_sets(profile)
    }


def pay_as_bid_set(profile: Profile) -> set[Allocation]:
    """Surplus-maximizing object assignments with each winner paying their own report.

    Every agent ends up with utility zero under their report: winners pay
    exactly what they bid and losers pay nothing.
    """
    out: set[Allocation] = set()
    for s in efficient_winner_sets(profile):
        out.add(
            Allocation(
                tuple(
                    Bundle(1, profile.values[i]) if i in s else ZERO_BUNDLE
                    for i in range(profile.config.n)
                )
            )
        )
    return out


def no_trade_allocation(profile: Profile, fee: RationalLike = 0) -> Allocation:
    """Nobody gets an object and everyone pays `fee` (receives it if negative)."""
    f = rat(fee)
    return Allocation(tuple(Bundle(0, f) for _ in range(profile.config.n)))


def _allocation_key(allocation: Allocation) -> tuple:
    return (
        allocation.winners,
        tuple((b.x, b.t) for b in allocation.bundles),
    )


def select_canonical(allocations: Iterable[Allocation]) -> Allocation:
    """Deterministic representative: smallest winner set in lexicographic index order.

    The empty winner set sorts first, so when a Vickrey set contains the
    option of leaving tied agents unserved, that option is chosen. Within
    each family the tied alternatives give every agent the same utility,
    so the pick is axiom-neutral.
    """
    pool = list(allocations)
    if not pool:
        raise ValueError("cannot select from an empty allocation set")
    return min(pool, key=_allocation_key)


class Mechanism:
    """A named, deterministic map from profiles to feasible allocations.

    `family` and `params` describe how the mechanism was built, which the
    axiom checkers use to pick analytic shortcuts where they exist.
    Evaluations are cached; rules are read-only after construction.
    """

    def __init__(
        self,
        name: str,
        family: str,
        fn: Callable[[Profile], Allocation],
        params: Mapping[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.family = family
        self.params: dict[str, Any] = dict(params or {})
        self._fn = fn
        self._cache: dict[Profile, Allocation] = {}

    def evaluate(self, profile: Profile) -> Allocation:
        cached = self._cache.get(profile)
        if cached is None:
            cached = self._fn(profile)
            self._cache[profile] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Mechanism({self.name!r})"


def vickrey_mechanism() -> Mechanism:
    return Mechanism(
        "vickrey",
        FAMILY_VICKREY,
        lambda p: select_canonical(vickrey_set(p)),
    )


def efficient_vickrey_mechanism() -> Mechanism:
    return Mechanism(
        "efficient_vickrey",
        FAMILY_EFFICIENT_VICKREY,
        lambda p: select_canonical(efficient_vickrey_set(p)),
    )


def pay_as_bid_mechanism() -> Mechanism:
    return Mechanism(
        "pay_as_bid",
        FAMILY_PAY_AS_BID,
        lambda p: select_canonical(pay_as_bid_set(p)),
    )


def no_trade_mechanism(fee: RationalLike = 0) -> Mechanism:
    f = rat(fee)
    name = "no_trade" if f == 0 else f"no_trade(fee={rat_str(f)})"
    return Mechanism(
        name,
        FAMILY_NO_TRADE,
        lambda p: no_trade_allocation(p, f),
        params={"fee": f},
    )


# ---------------------------------------------------------------------------
# Winner rules (selective Vickrey)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WinnerRule:
    """Selects which agents trade on a uniform-tail profile.

    A usable rule must satisfy, on every profile:
      (i)   off uniform-tail profiles it selects nobody;
      (ii)  selected agents value the object at least at the Vickrey price;
      (iii) if anybody is selected, everyone strictly above the price is;
      (iv)  at most m agents are selected.

    Rule tables map specific value tuples to winner sets and select nobody
    off the table; `market` records the market a table was written for.
    """

    family: str
    params: tuple = ()
    market: MarketConfig | None = None
    table: Mapping[tuple[Fraction, ...], frozenset[int]] | None = None

    @classmethod
    def empty(cls) -> "WinnerRule":
        return cls(RULE_EMPTY)

    @classmethod
    def strict(cls) -> "WinnerRule":
        return cls(RULE_STRICT_WINNERS)

    @classmethod
    def efficient(cls) -> "WinnerRule":
        return cls(RULE_EFFICIENT_WINNERS)

    @classmethod
    def dictatorial_threshold(
        cls, agent: int, threshold: RationalLike
    ) -> "WinnerRule":
        return cls(RULE_DICTATORIAL_THRESHOLD, params=(agent, rat(threshold)))

    @classmethod
    def rule_table(
        cls,
        market: MarketConfig,
        entries: Mapping[tuple[RationalLike, ...], Iterable[int]],
    ) -> "WinnerRule":
        frozen = {
            tuple(rat(v) for v in key): frozenset(winners)
            for key, winners in entries.items()
        }
        return cls(RULE_TABLE, market=market, table=frozen)

    @property
    def label(self) -> str:
        if self.family == RULE_DICTATORIAL_THRESHOLD:
            agent, threshold = self.params
            return f"dictatorial_threshold({agent},{rat_str(threshold)})"
        if self.family == RULE_TABLE:
            return f"rule_table[{len(self.table or {})}]"
        return self.family.lower()

    def select(self, profile: Profile) -> frozenset[int]:
        """The winner set for a profile (empty when nobody trades)."""
        if self.family == RULE_EMPTY:
            return frozenset()
        if self.family == RULE_STRICT_WINNERS:
            if not has_uniform_tail(profile):
                return frozenset()
            return strict_winners(profile)
        if self.family == RULE_EFFICIENT_WINNERS:
            if not has_uniform_tail(profile):
                return frozenset()
            return frozenset(
                select_canonical(efficient_vickrey_set(profile)).winners
            )
        if self.family == RULE_DICTATORIAL_THRESHOLD:
            agent, threshold = self.params
            if profile.values[agent] > threshold and all(
                v == threshold
                for i, v in enumerate(profile.values)
                if i != agent
            ):
                return frozenset({agent})
            return frozenset()
        if self.family == RULE_TABLE:
            assert self.table is not None
            return self.table.get(profile.values, frozenset())
        raise ValueError(f"unknown winner rule family: {self.family}")


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of a structural check on a rule, with a witness when it fails."""

    subject: str
    verdict: str  # PASS_ANALYTIC | PASS_EXHAUSTIVE | FAIL | NOT_CERTIFIED
    condition: str | None = None
    witness: dict | None = None
    profiles_checked: int = 0
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict.startswith("PASS")


_ANALYTIC_RULE_FAMILIES = {
    RULE_EMPTY,
    RULE_STRICT_WINNERS,
    RULE_EFFICIENT_WINNERS,
    RULE_DICTATORIAL_THRESHOLD,
}


def _rule_condition_violation(
    market: MarketConfig, values: tuple[Fraction, ...], selected: frozenset[int]
) -> tuple[str, dict] | None:
    """First violated selection condition at one profile, or None."""
    profile = Profile(market, values)
    witness = {
        "profile": values,
        "winners": sorted(selected),
    }
    if selected and not has_uniform_tail(profile):
        return "(i) selection off a uniform-tail profile", witness
    if any(i < 0 or i >= market.n for i in selected):
        return "(ii) selected agent index out of range", witness
    price = vickrey_price(profile)
    if any(profile.values[i] < price for i in selected):
        return "(ii) selected agent valued below the price", witness
    if selected and not strict_winners(profile) <= selected:
        return "(iii) agent above the price left unselected", witness
    if len(selected) > market.m:
        return "(iv) more winners than objects", witness
    return None


# A violated condition and its witness.
Hit = tuple[str, dict]


def _scan_rule_table(
    rule: WinnerRule,
    violation: Callable[[tuple[Fraction, ...], frozenset[int]], Hit | None],
    on: Iterable[Iterable[Fraction]] | None = None,
) -> tuple[int, Hit | None]:
    """Walk a rule table's entries in sorted order up to the first violation.

    With `on` (one value set per agent), entries off those sets are
    skipped. Returns how many entries were checked and the first hit, or
    None when every entry holds.
    """
    assert rule.table is not None
    value_sets = None if on is None else [frozenset(vals) for vals in on]
    checked = 0
    for values in sorted(rule.table):
        if value_sets is not None and (
            len(values) != len(value_sets)
            or any(v not in vals for v, vals in zip(values, value_sets))
        ):
            continue
        checked += 1
        hit = violation(values, rule.table[values])
        if hit is not None:
            return checked, hit
    return checked, None


def _scan_rule_conditions(rule: WinnerRule) -> tuple[int, Hit | None]:
    """Check selection conditions (i)-(iv) entry by entry."""
    if rule.market is None:
        raise ValueError("rule table has no market attached")
    return _scan_rule_table(rule, partial(_rule_condition_violation, rule.market))


def _table_report(
    label: str, scan: tuple[int, Hit | None], verdict: str, details: dict
) -> ValidityReport:
    checked, hit = scan
    condition, witness = hit or (None, None)
    return ValidityReport(
        subject=label,
        verdict="FAIL" if hit else verdict,
        condition=condition,
        witness=witness,
        profiles_checked=checked,
        details=details,
    )


def validate_winner_rule(rule: WinnerRule, grid: "GridSpace") -> ValidityReport:
    """Check selection conditions (i)-(iv).

    The built-in families satisfy them by construction, so the verdict is
    analytic. A rule table is checked entry by entry; profiles off the
    table select nobody and satisfy every condition vacuously, so the
    entry scan is complete as well.
    """
    label = rule.label
    if rule.family in _ANALYTIC_RULE_FAMILIES:
        return ValidityReport(
            subject=label,
            verdict="PASS_ANALYTIC",
            details={"method": "family satisfies the conditions by construction"},
        )
    if rule.family != RULE_TABLE:
        raise ValueError(f"unknown winner rule family: {rule.family}")
    return _table_report(
        label,
        _scan_rule_conditions(rule),
        "PASS_ANALYTIC",
        {"method": "entry scan (off-table profiles select nobody)"},
    )


def check_uncompromising(rule: WinnerRule, grid: "GridSpace") -> ValidityReport:
    """Check that a selected agent stays selected after raising their report.

    Required: if agent i is selected at v and v'_i exceeds the Vickrey
    price of v, then i is still selected at (v'_i, v_-i). The built-in
    families satisfy this for every real-valued raise (analytic verdict).
    A rule table is checked over the grid's value sets, the scope the
    strategy checkers use: each table entry on those sets is raised to
    every grid value above its price. Off-table profiles select nobody,
    so this covers every profile of the grid, sampled or not.
    """
    label = rule.label
    if rule.family in _ANALYTIC_RULE_FAMILIES:
        return ValidityReport(
            subject=label,
            verdict="PASS_ANALYTIC",
            details={"method": "raising a selected report keeps the rule's trigger"},
        )
    if rule.family != RULE_TABLE:
        raise ValueError(f"unknown winner rule family: {rule.family}")

    def dropped(values: tuple[Fraction, ...], selected: frozenset[int]) -> Hit | None:
        profile = Profile(grid.config, values)
        price = vickrey_price(profile)
        for i in sorted(selected):
            for raised in grid.values[i]:
                if raised > price and i not in rule.select(profile.with_value(i, raised)):
                    witness = {"profile": values, "agent": i, "raised_value": raised}
                    return "selected agent dropped after raising their report", witness
        return None

    return _table_report(
        label,
        _scan_rule_table(rule, dropped, grid.values),
        "PASS_EXHAUSTIVE",
        {"scope": "grid"},
    )


def selective_vickrey_mechanism(rule: WinnerRule) -> Mechanism:
    """Winner-rule trade at the Vickrey price, no-trade when nobody is selected.

    Rule tables are validated against conditions (i)-(iv) at construction;
    an invalid table is a construction error, not a mechanism that limps.
    """
    if rule.family == RULE_TABLE:
        _, hit = _scan_rule_conditions(rule)
        if hit is not None:
            condition, witness = hit
            raise ValueError(
                f"invalid winner rule, condition {condition} at profile "
                f"({', '.join(rat_str(v) for v in witness['profile'])})"
            )

    def fn(profile: Profile) -> Allocation:
        selected = rule.select(profile)
        if not selected:
            return all_zero_allocation(profile.config)
        return _winners_allocation(
            profile.config, selected, vickrey_price(profile)
        )

    return Mechanism(
        f"selective_vickrey({rule.label})",
        FAMILY_SELECTIVE_VICKREY,
        fn,
        params={"rule": rule},
    )


# ---------------------------------------------------------------------------
# Pricing rules (EV/PAB)
# ---------------------------------------------------------------------------

EV = "EV"
PAB = "PAB"


@dataclass(frozen=True)
class PricingRule:
    """Classifies each uniform-tail profile as efficient-Vickrey or pay-as-bid."""

    family: str
    params: tuple = ()
    table: Mapping[tuple[Fraction, ...], str] | None = None

    @classmethod
    def always_ev(cls) -> "PricingRule":
        return cls(PRICING_ALWAYS_EV)

    @classmethod
    def ev_iff_price_zero(cls) -> "PricingRule":
        return cls(PRICING_EV_IFF_PRICE_ZERO)

    @classmethod
    def threshold(cls, cutoff: RationalLike) -> "PricingRule":
        return cls(PRICING_THRESHOLD, params=(rat(cutoff),))

    @classmethod
    def rule_table(
        cls, entries: Mapping[tuple[RationalLike, ...], str]
    ) -> "PricingRule":
        frozen = {}
        for key, mode in entries.items():
            if mode not in (EV, PAB):
                raise ValueError(f"pricing mode must be EV or PAB, got {mode!r}")
            frozen[tuple(rat(v) for v in key)] = mode
        return cls(PRICING_TABLE, table=frozen)

    @property
    def label(self) -> str:
        if self.family == PRICING_THRESHOLD:
            return f"threshold({rat_str(self.params[0])})"
        if self.family == PRICING_TABLE:
            return f"rule_table[{len(self.table or {})}]"
        return self.family.lower()

    def classify(self, profile: Profile) -> str:
        """EV or PAB for a uniform-tail profile."""
        if self.family == PRICING_ALWAYS_EV:
            return EV
        if self.family == PRICING_EV_IFF_PRICE_ZERO:
            return EV if vickrey_price(profile) == 0 else PAB
        if self.family == PRICING_THRESHOLD:
            return EV if vickrey_price(profile) <= self.params[0] else PAB
        if self.family == PRICING_TABLE:
            assert self.table is not None
            return self.table.get(profile.values, PAB)
        raise ValueError(f"unknown pricing rule family: {self.family}")


def ev_pab_mechanism(pricing: PricingRule) -> Mechanism:
    """Efficient-Vickrey or pay-as-bid on uniform-tail profiles, pay-as-bid off them."""

    def fn(profile: Profile) -> Allocation:
        if has_uniform_tail(profile) and pricing.classify(profile) == EV:
            return select_canonical(efficient_vickrey_set(profile))
        return select_canonical(pay_as_bid_set(profile))

    return Mechanism(
        f"ev_pab({pricing.label})",
        FAMILY_EV_PAB,
        fn,
        params={"pricing": pricing},
    )


def check_ev_support(pricing: PricingRule, grid: "GridSpace") -> ValidityReport:
    """Check that every positive valuation can reach an efficient-Vickrey outcome.

    Required: for each agent i and each v_i > 0 there are opponents, with
    minimum valuation zero, forming a uniform-tail profile the rule prices
    EV. The built-in families satisfy this with all-zero opponents
    whenever the threshold is non-negative. A finite pricing table can
    only ever be certified relative to the grid's value sets: values it
    never mentions fall back to pay-as-bid.
    """
    label = pricing.label
    if pricing.family in (PRICING_ALWAYS_EV, PRICING_EV_IFF_PRICE_ZERO):
        return ValidityReport(
            subject=label,
            verdict="PASS_ANALYTIC",
            details={"witness_shape": "all-zero opponents price at zero, classified EV"},
        )
    if pricing.family == PRICING_THRESHOLD:
        cutoff = pricing.params[0]
        if cutoff >= 0:
            return ValidityReport(
                subject=label,
                verdict="PASS_ANALYTIC",
                details={
                    "witness_shape": "all-zero opponents price at zero, classified EV"
                },
            )
        first_positive = next(
            (v for v in grid.values[0] if v > 0), Fraction(1)
        )
        return ValidityReport(
            subject=label,
            verdict="FAIL",
            condition="no profile is ever classified EV",
            witness={"agent": 0, "value": first_positive},
        )
    if pricing.family != PRICING_TABLE:
        raise ValueError(f"unknown pricing rule family: {pricing.family}")
    assert pricing.table is not None
    market = grid.config
    checked = 0
    ev_entries = sorted(k for k, mode in pricing.table.items() if mode == EV)
    for i in range(market.n):
        for value in grid.values[i]:
            if value <= 0:
                continue
            checked += 1
            found = False
            for key in ev_entries:
                if len(key) != market.n or key[i] != value:
                    continue
                opponents = [v for j, v in enumerate(key) if j != i]
                if min(opponents) != 0:
                    continue
                if has_uniform_tail(Profile(market, key)):
                    found = True
                    break
            if not found:
                return ValidityReport(
                    subject=label,
                    verdict="FAIL",
                    condition="no EV-classified profile supports this valuation",
                    witness={"agent": i, "value": value},
                    profiles_checked=checked,
                    details={"scope": "grid"},
                )
    return ValidityReport(
        subject=label,
        verdict="NOT_CERTIFIED",
        profiles_checked=checked,
        details={
            "scope": "grid",
            "reason": "a finite table cannot cover every positive valuation",
        },
    )


def builtin_mechanisms() -> list[Mechanism]:
    """A tour of one mechanism per family, for demos and smoke tests."""
    return [
        vickrey_mechanism(),
        efficient_vickrey_mechanism(),
        pay_as_bid_mechanism(),
        no_trade_mechanism(0),
        selective_vickrey_mechanism(WinnerRule.strict()),
        ev_pab_mechanism(PricingRule.always_ev()),
    ]
