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

Each family is defined once, here: its constructor also sets the
closed-form utility bounds the NOM and BEST_CASE checkers use
(`Mechanism.bounds`), and its JSON spec is parsed by `mechanism_from_spec`
(with `WinnerRule.from_spec` and `PricingRule.from_spec`) and echoed by
`Mechanism.spec`. Winner and pricing rules are records built the same
way: each rule constructor sets the rule's label, its `select` or
`classify` function, its bounds and its spec echo, and only the three
`from_spec` parsers read a family name. Rule tables take the market.
"""

from __future__ import annotations

import json
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
    integer,
    json_list,
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


def _winners_allocation(
    profile: Profile, winners: Iterable[int], price: Fraction | None = None
) -> Allocation:
    """Winners hold an object and pay `price`, or their own report when
    `price` is None; everyone else keeps the zero bundle."""
    chosen = set(winners)
    return Allocation(
        tuple(
            Bundle(1, v if price is None else price) if i in chosen else ZERO_BUNDLE
            for i, v in enumerate(profile.values)
        )
    )


def strict_winners(profile: Profile) -> frozenset[int]:
    """Agents whose valuation strictly exceeds the Vickrey price."""
    price = vickrey_price(profile)
    return frozenset(i for i, v in enumerate(profile.values) if v > price)


def _vickrey_winners(
    profile: Profile, efficient: bool = False
) -> tuple[Fraction, tuple[int, ...]]:
    """The Vickrey price and the one winner tuple a Vickrey-price family picks.

    Agents above the price always win and agents below it never do; agents
    exactly at the price take the spare objects, lowest index first. An
    efficient family at a positive price hands out every object. Otherwise
    (Vickrey, or a price of zero, where a winner at the price adds nothing
    to the surplus) only tied agents indexed below the highest strict
    winner take one, so nobody trades when nobody is above the price.
    Among every winner set the family admits, this is the least sorted
    tuple: () precedes (0,), but (0, 2) precedes (2,). The tied choices
    give every agent the same utility, so the pick is axiom-neutral.
    """
    values = profile.values
    price = vickrey_price(profile)
    strict = [i for i, v in enumerate(values) if v > price]
    if efficient and price > 0:
        reach = len(values)
    else:
        reach = strict[-1] if strict else 0
    tied = [i for i in range(reach) if values[i] == price]
    room = profile.config.m - len(strict)
    return price, tuple(sorted(strict + tied[:room]))


def _vickrey_allocation(profile: Profile, efficient: bool) -> Allocation:
    price, winners = _vickrey_winners(profile, efficient)
    return _winners_allocation(profile, winners, price)


def no_trade_allocation(profile: Profile, fee: RationalLike = 0) -> Allocation:
    """Nobody gets an object and everyone pays `fee` (receives it if negative)."""
    f = rat(fee)
    return Allocation(tuple(Bundle(0, f) for _ in range(profile.config.n)))


# bounds(agent, m, report, true_value): the (sup, inf) of the agent's
# utility over every non-negative opponent profile, in closed form.
Bounds = Callable[[int, int, Fraction, Fraction], tuple[Fraction, Fraction]]
# select(profile): the agents a winner rule lets trade.
Select = Callable[[Profile], frozenset[int]]


class Mechanism:
    """A named, deterministic map from profiles to feasible allocations.

    `family` and `params` describe how the mechanism was built, and
    `spec` is the JSON spec that rebuilds it. `bounds`, set by the
    families that have a closed form, lets the NOM and BEST_CASE
    checkers skip the grid. Evaluations are cached; rules are read-only
    after construction.
    """

    def __init__(
        self,
        name: str,
        family: str,
        fn: Callable[[Profile], Allocation],
        params: Mapping[str, Any] | None = None,
        bounds: Bounds | None = None,
    ) -> None:
        self.name = name
        self.family = family
        self.params: dict[str, Any] = dict(params or {})
        self.bounds = bounds
        self._fn = fn
        self._cache: dict[Profile, Allocation] = {}

    @property
    def spec(self) -> dict:
        """The JSON spec `mechanism_from_spec` rebuilds this mechanism from."""
        spec: dict[str, Any] = {"family": self.family}
        for key, value in self.params.items():
            nested = isinstance(value, (WinnerRule, PricingRule))
            spec[key] = value.spec if nested else rat_str(value)
        return spec

    def evaluate(self, profile: Profile) -> Allocation:
        cached = self._cache.get(profile)
        if cached is None:
            cached = self._fn(profile)
            self._cache[profile] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Mechanism({self.name!r})"


def _second_price_bounds(
    agent: int, m: int, report: Fraction, true_value: Fraction
) -> tuple[Fraction, Fraction]:
    """Bounds for families whose winners pay the Vickrey price.

    Best case: opponents all at zero let a positive report win for free,
    so the supremum is the full valuation. A zero report can still win at
    price zero, but only for the first m-1 agents (agent < m-1): against
    one positive opponent at the highest index, the canonical tie-break
    hands the m-1 spare objects to the lowest zero reporters. For everyone
    else the zero report never trades. Worst case: overbidding can win at
    any price up to the report, so the infimum is min(0, v - r).
    """
    zero = Fraction(0)
    sup = true_value if (report > 0 or agent < m - 1) else zero
    inf = min(zero, true_value - report)
    return (sup, inf)


def _own_bid_bounds(
    agent: int, m: int, report: Fraction, true_value: Fraction
) -> tuple[Fraction, Fraction]:
    """Bounds when winners pay their own report: utility is v - r or 0."""
    zero = Fraction(0)
    winnable = report > 0 or agent < m - 1
    if not winnable:
        return (zero, zero)
    gain = true_value - report
    return (max(gain, zero), min(gain, zero))


def _flat_bounds(
    fee: Fraction, agent: int, m: int, report: Fraction, true_value: Fraction
) -> tuple[Fraction, Fraction]:
    """Bounds when nobody ever trades and everyone pays `fee`."""
    return (-fee, -fee)


def vickrey_mechanism() -> Mechanism:
    return Mechanism(
        "vickrey",
        FAMILY_VICKREY,
        partial(_vickrey_allocation, efficient=False),
        bounds=_second_price_bounds,
    )


def efficient_vickrey_mechanism() -> Mechanism:
    return Mechanism(
        "efficient_vickrey",
        FAMILY_EFFICIENT_VICKREY,
        partial(_vickrey_allocation, efficient=True),
        bounds=_second_price_bounds,
    )


def pay_as_bid_mechanism() -> Mechanism:
    return Mechanism(
        "pay_as_bid",
        FAMILY_PAY_AS_BID,
        lambda p: _winners_allocation(p, _vickrey_winners(p, efficient=True)[1]),
        bounds=_own_bid_bounds,
    )


def no_trade_mechanism(fee: RationalLike = 0) -> Mechanism:
    f = rat(fee)
    name = "no_trade" if f == 0 else f"no_trade(fee={rat_str(f)})"
    return Mechanism(
        name,
        FAMILY_NO_TRADE,
        lambda p: no_trade_allocation(p, f),
        params={"fee": f},
        bounds=partial(_flat_bounds, f),
    )


def _profile_text(values: Iterable[Fraction]) -> str:
    return f"({', '.join(rat_str(v) for v in values)})"


def _table(
    market: MarketConfig,
    pairs: Iterable[tuple[Iterable[RationalLike], Any]],
    outcome: Callable[[Any], Any],
) -> dict[tuple[Fraction, ...], Any]:
    """A rule table keyed by normalised profile from (profile, outcome) pairs;
    each profile must list one non-negative value per agent of `market`, and
    two profiles that normalise alike are refused."""
    table: dict[tuple[Fraction, ...], Any] = {}
    for key, value in pairs:
        values = tuple(rat(v) for v in key)
        if len(values) != market.n or min(values) < 0:
            raise ValueError(
                f"rule table profile {_profile_text(values)} must list "
                f"{market.n} non-negative values"
            )
        if values in table:
            raise ValueError(f"rule table lists profile {_profile_text(values)} twice")
        table[values] = outcome(value)
    return table


def _table_spec(table: Mapping, outcome_key: str, render: Callable) -> dict:
    """A rule table's canonical JSON spec, entries sorted by profile."""
    entries = [
        {"profile": [rat_str(v) for v in key], outcome_key: render(table[key])}
        for key in sorted(table)
    ]
    return {"family": RULE_TABLE, "entries": entries}


def _required(spec: Any, key: str, what: str) -> Any:
    """`spec[key]`; refused, naming `what`, unless `spec` is an object with `key`."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(spec)}")
    if key not in spec:
        raise ValueError(f"{what} is missing its {key}")
    return spec[key]


def _spec_entries(spec: dict, outcome_key: str, parse: Callable) -> list[tuple]:
    """The (profile, outcome) pairs of a rule table's JSON spec: `entries` is
    a JSON list of objects, each with a JSON-list profile and the outcome
    under `outcome_key`, which `parse` reads."""
    what = "rule table entry"
    return [
        (json_list(_required(entry, "profile", what), "rule table profile"),
         parse(_required(entry, outcome_key, what)))
        for entry in json_list(spec.get("entries", []), "rule table entries")
    ]


def _family_spec(spec: Any, what: str) -> tuple[dict, str]:
    """A spec as a dict plus its upper-cased family; a string names the family."""
    if isinstance(spec, str):
        spec = {"family": spec}
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError(f"{what} spec needs a family: {spec!r}")
    return spec, str(spec["family"]).upper()


# ---------------------------------------------------------------------------
# Winner rules (selective Vickrey)
# ---------------------------------------------------------------------------


def _on_tail(pick: Select) -> Select:
    """`pick` on uniform-tail profiles; nobody on any other profile."""
    return lambda profile: pick(profile) if has_uniform_tail(profile) else frozenset()


@dataclass(frozen=True, eq=False)
class WinnerRule:
    """Selects which agents trade on a uniform-tail profile.

    A usable rule must satisfy, on every profile:
      (i)   off uniform-tail profiles it selects nobody;
      (ii)  selected agents value the object at least at the Vickrey price;
      (iii) if anybody is selected, everyone strictly above the price is;
      (iv)  at most m agents are selected.

    Each constructor builds one record: the rule's `label`, its `select`
    function, selective Vickrey's closed-form `bounds` under it (None for
    a table) and the `echo` that renders its JSON spec.
      empty: nobody trades.
      strict: on a uniform-tail profile, everyone strictly above the price.
      efficient: on a uniform-tail profile, the efficient families' winners.
      dictatorial_threshold(a, t): agent a alone, when a reports above t
        and every other agent reports exactly t.
      rule_table: the listed winner set at each listed profile, nobody off
        the table; `market` records the market the table was written for.
    """

    label: str
    select: Select
    bounds: Bounds | None
    echo: Callable[[], dict]
    market: MarketConfig | None = None
    table: Mapping[tuple[Fraction, ...], frozenset[int]] | None = None

    @property
    def spec(self) -> dict:
        """The canonical JSON spec; table entries sorted by profile."""
        return self.echo()

    @classmethod
    def empty(cls) -> "WinnerRule":
        return cls(
            "empty", lambda profile: frozenset(), partial(_flat_bounds, Fraction(0)),
            lambda: {"family": RULE_EMPTY},
        )

    @classmethod
    def strict(cls) -> "WinnerRule":
        return cls(
            "strict_winners", _on_tail(strict_winners), _strict_winner_bounds,
            lambda: {"family": RULE_STRICT_WINNERS},
        )

    @classmethod
    def efficient(cls) -> "WinnerRule":
        return cls(
            "efficient_winners",
            _on_tail(lambda p: frozenset(_vickrey_winners(p, efficient=True)[1])),
            _second_price_bounds,
            lambda: {"family": RULE_EFFICIENT_WINNERS},
        )

    @classmethod
    def dictatorial_threshold(cls, agent: int, threshold: RationalLike) -> "WinnerRule":
        cut = rat(threshold)

        def select(profile: Profile) -> frozenset[int]:
            others = (v for i, v in enumerate(profile.values) if i != agent)
            if profile.values[agent] > cut and all(v == cut for v in others):
                return frozenset({agent})
            return frozenset()

        return cls(
            f"dictatorial_threshold({agent},{rat_str(cut)})",
            select,
            partial(_dictator_bounds, agent, cut),
            lambda: {"family": RULE_DICTATORIAL_THRESHOLD, "agent": agent,
                     "threshold": rat_str(cut)},
        )

    @classmethod
    def rule_table(
        cls, market: MarketConfig, entries: Mapping[tuple[RationalLike, ...], Iterable[int]]
    ) -> "WinnerRule":
        return cls._of_table(market, entries.items())

    @classmethod
    def _of_table(cls, market: MarketConfig, pairs: Iterable[tuple]) -> "WinnerRule":
        table = _table(market, pairs, frozenset)
        return cls(
            f"rule_table[{len(table)}]",
            lambda profile: table.get(profile.values, frozenset()),
            None,
            partial(_table_spec, table, "winners", sorted),
            market=market,
            table=table,
        )

    @classmethod
    def from_spec(cls, spec: Any, market: MarketConfig) -> "WinnerRule":
        """A rule from its JSON spec (the inverse of `spec`) or bare family name."""
        spec, family = _family_spec(spec, "winner rule")
        if family == RULE_DICTATORIAL_THRESHOLD:
            what = "DICTATORIAL_THRESHOLD winner rule"
            agent = integer(_required(spec, "agent", what), "dictator agent")
            if not 0 <= agent < market.n:
                raise ValueError(f"dictator index out of range: {agent}")
            return cls.dictatorial_threshold(agent, _required(spec, "threshold", what))
        if family == RULE_TABLE:
            return cls._of_table(market, _spec_entries(spec, "winners", lambda w: [
                integer(i, "rule table winner") for i in json_list(w, "rule table winners")
            ]))
        plain = {RULE_EMPTY: cls.empty, RULE_STRICT_WINNERS: cls.strict,
                 RULE_EFFICIENT_WINNERS: cls.efficient}
        if family not in plain:
            raise ValueError(f"unknown winner rule family: {family}")
        return plain[family]()


def _strict_winner_bounds(
    agent: int, m: int, report: Fraction, true_value: Fraction
) -> tuple[Fraction, Fraction]:
    """Strict winners trade at the price: a positive report can win for free
    against all-zero opponents, or at any price below the report."""
    zero = Fraction(0)
    if report > 0:
        return (true_value, min(zero, true_value - report))
    return (zero, zero)


def _dictator_bounds(
    chosen: int,
    threshold: Fraction,
    agent: int,
    m: int,
    report: Fraction,
    true_value: Fraction,
) -> tuple[Fraction, Fraction]:
    """Only the dictator trades, at the threshold, when reporting above it
    while every opponent reports the threshold: never if it is negative."""
    zero = Fraction(0)
    if agent != chosen or report <= threshold or threshold < 0:
        return (zero, zero)
    gain = true_value - threshold
    return (max(gain, zero), min(gain, zero))


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
    if rule.table is None:
        return ValidityReport(
            subject=label,
            verdict="PASS_ANALYTIC",
            details={"method": "family satisfies the conditions by construction"},
        )
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
    if rule.table is None:
        return ValidityReport(
            subject=label,
            verdict="PASS_ANALYTIC",
            details={"method": "raising a selected report keeps the rule's trigger"},
        )

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
    if rule.table is not None:
        _, hit = _scan_rule_conditions(rule)
        if hit is not None:
            condition, witness = hit
            raise ValueError(
                f"invalid winner rule, condition {condition} at profile "
                f"{_profile_text(witness['profile'])}"
            )

    def fn(profile: Profile) -> Allocation:
        selected = rule.select(profile)
        if not selected:
            return all_zero_allocation(profile.config)
        return _winners_allocation(profile, selected, vickrey_price(profile))

    return Mechanism(
        f"selective_vickrey({rule.label})",
        FAMILY_SELECTIVE_VICKREY,
        fn,
        params={"rule": rule},
        bounds=rule.bounds,
    )


# ---------------------------------------------------------------------------
# Pricing rules (EV/PAB)
# ---------------------------------------------------------------------------

EV = "EV"
PAB = "PAB"


def _pricing_mode(mode: str) -> str:
    if mode not in (EV, PAB):
        raise ValueError(f"pricing mode must be EV or PAB, got {mode!r}")
    return mode


@dataclass(frozen=True, eq=False)
class PricingRule:
    """Classifies each uniform-tail profile as efficient-Vickrey or pay-as-bid.

    Each constructor builds one record: the rule's `label`, its `classify`
    function, whether every valuation can reach the EV branch
    (`reaches_ev`; None for a table, which can only be judged on a grid)
    and the `echo` that renders its JSON spec.
      always_ev: EV everywhere.
      ev_iff_price_zero: EV exactly when the Vickrey price is zero.
      threshold(c): EV when the Vickrey price is at most c. The price is
        never negative, so a negative c never prices EV; every other rule
        prices all-zero opponents (price zero) EV.
      rule_table: the listed mode at each listed profile, PAB off the table.
    """

    label: str
    classify: Callable[[Profile], str]
    reaches_ev: bool | None
    echo: Callable[[], dict]
    table: Mapping[tuple[Fraction, ...], str] | None = None

    @property
    def spec(self) -> dict:
        """The canonical JSON spec; table entries sorted by profile."""
        return self.echo()

    @property
    def bounds(self) -> Bounds | None:
        """EV/PAB's closed-form bounds: Vickrey's when every valuation reaches
        EV, pay-as-bid's when none does; None for a table."""
        reaches = self.reaches_ev
        if reaches is None:
            return None
        return _second_price_bounds if reaches else _own_bid_bounds

    @classmethod
    def always_ev(cls) -> "PricingRule":
        return cls(
            "always_ev", lambda profile: EV, True, lambda: {"family": PRICING_ALWAYS_EV}
        )

    @classmethod
    def ev_iff_price_zero(cls) -> "PricingRule":
        return cls(
            "ev_iff_price_zero",
            lambda profile: EV if vickrey_price(profile) == 0 else PAB,
            True,
            lambda: {"family": PRICING_EV_IFF_PRICE_ZERO},
        )

    @classmethod
    def threshold(cls, cutoff: RationalLike) -> "PricingRule":
        cut = rat(cutoff)
        return cls(
            f"threshold({rat_str(cut)})",
            lambda profile: EV if vickrey_price(profile) <= cut else PAB,
            cut >= 0,
            lambda: {"family": PRICING_THRESHOLD, "cutoff": rat_str(cut)},
        )

    @classmethod
    def rule_table(
        cls, market: MarketConfig, entries: Mapping[tuple[RationalLike, ...], str]
    ) -> "PricingRule":
        return cls._of_table(market, entries.items())

    @classmethod
    def _of_table(cls, market: MarketConfig, pairs: Iterable[tuple]) -> "PricingRule":
        table = _table(market, pairs, _pricing_mode)
        return cls(
            f"rule_table[{len(table)}]",
            lambda profile: table.get(profile.values, PAB),
            None,
            partial(_table_spec, table, "mode", str),
            table=table,
        )

    @classmethod
    def from_spec(cls, spec: Any, market: MarketConfig) -> "PricingRule":
        """A rule from its JSON spec (the inverse of `spec`) or bare family name."""
        spec, family = _family_spec(spec, "pricing rule")
        if family == PRICING_THRESHOLD:
            return cls.threshold(_required(spec, "cutoff", "THRESHOLD pricing rule"))
        if family == RULE_TABLE:
            return cls._of_table(market, _spec_entries(spec, "mode", str))
        plain = {PRICING_ALWAYS_EV: cls.always_ev,
                 PRICING_EV_IFF_PRICE_ZERO: cls.ev_iff_price_zero}
        if family not in plain:
            raise ValueError(f"unknown pricing rule family: {family}")
        return plain[family]()


def ev_pab_mechanism(pricing: PricingRule) -> Mechanism:
    """Efficient-Vickrey or pay-as-bid on uniform-tail profiles, pay-as-bid off them."""

    def fn(profile: Profile) -> Allocation:
        price, winners = _vickrey_winners(profile, efficient=True)
        if has_uniform_tail(profile) and pricing.classify(profile) == EV:
            return _winners_allocation(profile, winners, price)
        return _winners_allocation(profile, winners)

    return Mechanism(
        f"ev_pab({pricing.label})",
        FAMILY_EV_PAB,
        fn,
        params={"pricing": pricing},
        bounds=pricing.bounds,
    )


def check_ev_support(pricing: PricingRule, grid: "GridSpace") -> ValidityReport:
    """Check that every positive valuation can reach an efficient-Vickrey outcome.

    Required: for each agent i and each v_i > 0 there are opponents, with
    minimum valuation zero, forming a uniform-tail profile the rule prices
    EV. The built-in families settle this analytically (`reaches_ev`). A
    finite pricing table can only ever be certified relative to the
    grid's value sets: values it never mentions fall back to pay-as-bid.
    """
    label = pricing.label
    reaches = pricing.reaches_ev
    if reaches:
        return ValidityReport(
            subject=label,
            verdict="PASS_ANALYTIC",
            details={"witness_shape": "all-zero opponents price at zero, classified EV"},
        )
    if reaches is False:
        first_positive = next(
            (v for v in grid.values[0] if v > 0), Fraction(1)
        )
        return ValidityReport(
            subject=label,
            verdict="FAIL",
            condition="no profile is ever classified EV",
            witness={"agent": 0, "value": first_positive},
        )
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


def mechanism_from_spec(spec: Any, market: MarketConfig) -> Mechanism:
    """A mechanism from its JSON spec (the inverse of `Mechanism.spec`) or
    bare family name."""
    spec, family = _family_spec(spec, "mechanism")
    if family == FAMILY_NO_TRADE:
        return no_trade_mechanism(rat(spec.get("fee", 0)))
    if family == FAMILY_SELECTIVE_VICKREY:
        if "rule" not in spec:
            raise ValueError("SELECTIVE_VICKREY needs a winner rule")
        return selective_vickrey_mechanism(WinnerRule.from_spec(spec["rule"], market))
    if family == FAMILY_EV_PAB:
        if "pricing" not in spec:
            raise ValueError("EV_PAB needs a pricing rule")
        return ev_pab_mechanism(PricingRule.from_spec(spec["pricing"], market))
    plain = {
        FAMILY_VICKREY: vickrey_mechanism,
        FAMILY_EFFICIENT_VICKREY: efficient_vickrey_mechanism,
        FAMILY_PAY_AS_BID: pay_as_bid_mechanism,
    }
    if family not in plain:
        raise ValueError(f"unknown mechanism family: {family}")
    return plain[family]()
