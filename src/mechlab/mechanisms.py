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

Each family is defined once, here, at the value level: its constructor
builds a frozen `Mechanism` record whose `outcome(values, market, scale)`
reads the ordered values and returns the object indicators and the
transfers. The values, and every constant of the family (the NO_TRADE
fee, the dictator threshold, the THRESHOLD cutoff, a rule table's keys),
are multiplied by `scale`; a constant is scaled once per scale, not once
per call. `grid.OutcomeTable` calls `outcome` on a grid's values scaled
to ints, so a built-in family fills its table without a `Profile`, an
`Allocation` or a `Fraction` sort; `Mechanism.evaluate` is the same call
at scale 1 on a profile's exact values. A mechanism built from a bare
function of a `Profile` gets one adapter, so the table has one code path.
`Mechanism.checked` is the one check of an outcome's shape and capacity.
The record also sets the closed-form bounds the NOM and BEST_CASE
checkers use (`Mechanism.bounds`, which take the scale `outcome` takes,
so the checkers compare them with the grid's scaled ints), the constants
a report is compared with (`Mechanism.breakpoints`, which promise that
an agent's bundle turns only at their critical value, so the SP sweep
skips misreports that cannot pay) and the echo of its JSON spec
(`Mechanism.spec`), which `mechanism_from_spec` parses back. Winner and
pricing rules are records built the same way: each rule constructor sets
the label, the value-level `pick` or `branch` (a scale-1 call reads them
at a profile's exact values), the bounds, the breakpoints and the spec
echo, and only the three `from_spec` parsers read a family name:
each hands `_from_spec` its families' keys, which `model.fields` reads.
One builder (`_rule_table`) makes every winner and pricing table: it
records the market and keys the read-only table by its profiles
multiplied by a scale, once per scale (`keyed`, which `pick` or `branch`
reads). Being read-only keeps a table's selection conditions, scanned
once per rule (`WinnerRule.conditions`), true to the rule.

Every rule check in `axioms` reads scaled ints. VALID and UNCOMPROMISING
go through one walk (`first_violation`) over `Entry`s, read off a table's
`keyed` dict (`WinnerRule.entries`) or through `pick` at each profile a
grid sweeps. EV_SUPPORT collects the (agent, scaled value) pairs that the
EV-priced uniform-tail entries of a pricing table's `keyed` dict reach.
Prices, tails and conditions are read on the scaled values; witnesses
keep the exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from types import MappingProxyType
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .model import (
    Allocation,
    MarketConfig,
    Profile,
    RationalLike,
    clipped,
    fields,
    integer,
    json_list,
    rat_str,
    rational,
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


# outcome(values, market, scale): the object indicators and transfers at
# the ordered `values`; the values, like every constant of the family, are
# multiplied by `scale`, and so are the transfers returned.
Outcome = Callable[[tuple, MarketConfig, int], tuple[tuple[int, ...], tuple]]
# pick(values, market, scale): the agents a winner rule lets trade.
Pick = Callable[[tuple, MarketConfig, int], Iterable[int]]
# branch(values, market, scale): EV or PAB, as a pricing rule classifies.
Branch = Callable[[tuple, MarketConfig, int], str]
# bounds(agent, m, report, true_value, scale): the (sup, inf) of the agent's
# utility over every non-negative opponent profile, in closed form; the
# report and the true value, like every constant of the family, are
# multiplied by `scale`, and so are the bounds returned.
Bounds = Callable[[int, int, Any, Any, int], tuple]
# A violated rule condition and its witness.
Hit = tuple[str, dict]
# One entry of a rule walk: a profile's exact values, the same values
# multiplied by the walk's scale, and the agents the rule selects there.
Entry = tuple[tuple[Fraction, ...], tuple, frozenset[int]]


# The types an outcome's transfers may take.
_EXACT = (int, Fraction)
# The breakpoints of a family that compares a report only with the other
# reports and with 0 (see `Mechanism`).
_ZERO = (Fraction(0),)


def _scaled(q: Any, scale: int) -> Any:
    """`q * scale` for an exact rational `q`: an int when it is one, the exact
    `Fraction` otherwise. Anything else is returned as it is, for the
    outcome check to refuse."""
    if type(q) is int:
        return q * scale
    if type(q) is not Fraction:
        return q
    num, den = q.numerator * scale, q.denominator
    return Fraction(num, den) if num % den else num // den


def _scaled_keys(table: Mapping[tuple[Fraction, ...], Any]) -> Callable[[int], dict]:
    """A rule table keyed by its profiles multiplied by a scale, built once
    per scale. A key value off the scale's grid stays a `Fraction`, which
    no scaled grid value equals."""
    return cache(lambda scale: {
        tuple(_scaled(v, scale) for v in key): out for key, out in table.items()
    })


def _vickrey_pick(values: tuple, m: int, efficient: bool) -> tuple[Any, list[int]]:
    """The Vickrey price and the one winner set a Vickrey-price family picks.

    Agents above the price always win and agents below it never do; agents
    exactly at the price take the spare objects, lowest index first. An
    efficient family at a positive price hands out every object. Otherwise
    (Vickrey, or a price of zero, where a winner at the price adds nothing
    to the surplus) only tied agents indexed below the highest strict
    winner take one, so nobody trades when nobody is above the price.
    Among every winner set the family admits, this is the least as a
    sorted tuple: () precedes (0,), but (0, 2) precedes (2,). The tied
    choices give every agent the same utility, so the pick is
    axiom-neutral.
    """
    price = sorted(values)[-1 - m]
    winners = [i for i, v in enumerate(values) if v > price]
    spare = m - len(winners)
    if spare:
        if efficient and price > 0:
            reach = len(values)
        else:
            reach = winners[-1] if winners else 0
        for i in range(reach):
            if values[i] == price:
                winners.append(i)
                spare -= 1
                if not spare:
                    break
    return price, winners


def _trade(values: tuple, winners: Iterable[int], price: Any) -> tuple[tuple, tuple]:
    """Winners hold an object and pay `price`, or their own value when
    `price` is None; everyone else holds nothing and pays 0."""
    n = len(values)
    x, t = [0] * n, [0] * n
    for i in winners:
        x[i], t[i] = 1, values[i] if price is None else price
    return tuple(x), tuple(t)


def _vickrey_outcome(efficient: bool, values: tuple, market: MarketConfig, scale: int):
    price, winners = _vickrey_pick(values, market.m, efficient)
    return _trade(values, winners, price)


def _pay_as_bid_outcome(values: tuple, market: MarketConfig, scale: int):
    return _trade(values, _vickrey_pick(values, market.m, True)[1], None)


def _profile_outcome(fn: Callable[[Profile], Allocation], values: tuple,
                     market: MarketConfig, scale: int):
    """A mechanism given as a function of `Profile`s, as an outcome: `fn` at
    the profile of the exact values, with its transfers scaled."""
    x, t = fn(Profile.trusted(market, tuple(Fraction(v, scale) for v in values)))
    return x, tuple(_scaled(ti, scale) for ti in t)


@dataclass(frozen=True, eq=False)
class Mechanism:
    """A named, deterministic map from profiles to feasible allocations.

    A frozen record, built by its family's constructor the way rules are:
    `family` names the family, `outcome` is its one value-level definition
    (see `Outcome`), `bounds` (set by the families that have a closed
    form; see `Bounds`, scaled as `outcome` is) lets the NOM and BEST_CASE
    checkers skip the grid, `market` is the market a rule table was
    written for (None when the mechanism has no table), so a checker can
    refuse a grid of another market, and `echo` renders the JSON spec
    (`spec` is `{"family": family}` without one). A mechanism given
    instead as a function `fn` of a `Profile` returning an `Allocation`
    (`Mechanism(name, "CUSTOM", fn)`) gets the outcome that calls `fn` at
    the exact profile and scales its transfers.

    `breakpoints`, set only by the family constructors (like `bounds`),
    are the constants the family compares values with (0 always; a
    dictator threshold or a THRESHOLD cutoff too). Setting them promises
    that agent i's own bundle turns only at i's critical value theta,
    the m-th highest of the other agents' values. If i reports r > theta,
    the price is theta and i is a strict winner; if r < theta, m others
    are >= theta > r, so i loses and pays what a loser pays; a dictator
    wins only when every other value equals its threshold t, and then
    theta = t; the uniform-tail tests and pricing branches read the
    price, which is theta whenever i wins. So below, at and above theta
    i's bundle is fixed and the transfer constant or r: i's utility can
    only fall as r rises within one of these cells. A family that cannot
    keep this promise must not set `breakpoints`; None (rule tables,
    CUSTOM) promises nothing.

    The axiom checkers fill an outcome table (`grid.OutcomeTable`) by
    calling `outcome` once per grid profile on values scaled to ints;
    `evaluate` is the same call at scale 1 on a profile's exact values,
    wrapped as an `Allocation`. Both run `checked` on what `outcome`
    returns: n indicators, each 0 or 1, at most m of them 1, and n exact
    rational transfers (int or `Fraction`).
    """

    name: str
    family: str
    fn: Callable[[Profile], Allocation] | None = None
    bounds: Bounds | None = None
    market: MarketConfig | None = None
    echo: Callable[[], dict] | None = None
    outcome: Outcome | None = None
    breakpoints: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if (self.fn is None) == (self.outcome is None):
            raise ValueError(f"{self.name} needs exactly one of fn and outcome")
        if self.outcome is None:
            object.__setattr__(self, "outcome", partial(_profile_outcome, self.fn))

    @property
    def spec(self) -> dict:
        """The JSON spec `mechanism_from_spec` rebuilds this mechanism from."""
        return self.echo() if self.echo else {"family": self.family}

    def checked(self, outcome: tuple, market: MarketConfig) -> tuple:
        """`outcome`, refused unless it is a well-formed (x, t) for `market`."""
        x, t = outcome
        n = market.n
        if len(x) != n or len(t) != n:
            raise ValueError(f"{self.name} gave {len(x)} indicators and {len(t)} "
                             f"transfers for {n} agents")
        for xi, ti in zip(x, t):
            if type(xi) is not int or not 0 <= xi <= 1 or type(ti) not in _EXACT:
                raise ValueError(f"{self.name} gave the bundle ({xi!r}, {ti!r}); an "
                                 "indicator must be 0 or 1, a transfer an exact rational")
        if sum(x) > market.m:
            raise ValueError(f"{self.name} gave {sum(x)} objects; the market has "
                             f"{market.m}")
        return outcome

    def evaluate(self, profile: Profile) -> Allocation:
        """The allocation at `profile`: the outcome at scale 1, checked, with
        every transfer a `Fraction`."""
        market = profile.config
        x, t = self.checked(self.outcome(profile.values, market, 1), market)
        return Allocation(x, tuple(map(Fraction, t)))


def _second_price_bounds(agent: int, m: int, report: Any, true_value: Any, scale: int) -> tuple:
    """Bounds for families whose winners pay the Vickrey price.

    Best case: opponents all at zero let a positive report win for free,
    so the supremum is the full valuation. A zero report can still win at
    price zero, but only for the first m-1 agents (agent < m-1): against
    one positive opponent at the highest index, the canonical tie-break
    hands the m-1 spare objects to the lowest zero reporters. For everyone
    else the zero report never trades. Worst case: overbidding can win at
    any price up to the report, so the infimum is min(0, v - r).
    """
    sup = true_value if (report > 0 or agent < m - 1) else 0
    return (sup, min(0, true_value - report))


def _own_bid_bounds(agent: int, m: int, report: Any, true_value: Any, scale: int) -> tuple:
    """Bounds when winners pay their own report: utility is v - r or 0."""
    winnable = report > 0 or agent < m - 1
    if not winnable:
        return (0, 0)
    gain = true_value - report
    return (max(gain, 0), min(gain, 0))


def _flat_bounds(
    fee_at: Callable[[int], Any], agent: int, m: int, report: Any, true_value: Any, scale: int
) -> tuple:
    """Bounds when nobody ever trades and everyone pays the fee, which
    `fee_at(scale)` gives at the scale."""
    fee = fee_at(scale)
    return (-fee, -fee)


def vickrey_mechanism() -> Mechanism:
    return Mechanism(
        "vickrey",
        FAMILY_VICKREY,
        outcome=partial(_vickrey_outcome, False),
        bounds=_second_price_bounds,
        breakpoints=_ZERO,
    )


def efficient_vickrey_mechanism() -> Mechanism:
    return Mechanism(
        "efficient_vickrey",
        FAMILY_EFFICIENT_VICKREY,
        outcome=partial(_vickrey_outcome, True),
        bounds=_second_price_bounds,
        breakpoints=_ZERO,
    )


def pay_as_bid_mechanism() -> Mechanism:
    return Mechanism(
        "pay_as_bid",
        FAMILY_PAY_AS_BID,
        outcome=_pay_as_bid_outcome,
        bounds=_own_bid_bounds,
        breakpoints=_ZERO,
    )


def no_trade_mechanism(fee: RationalLike = 0) -> Mechanism:
    """Nobody gets an object and everyone pays the exact `fee` (receives it
    if negative)."""
    f = rational(fee, "NO_TRADE fee")
    fee_at = cache(partial(_scaled, f))  # the fee at a scale, once per scale

    def outcome(values: tuple, market: MarketConfig, scale: int):
        return (0,) * market.n, (fee_at(scale),) * market.n

    return Mechanism(
        "no_trade" if f == 0 else f"no_trade(fee={rat_str(f)})",
        FAMILY_NO_TRADE,
        outcome=outcome,
        bounds=partial(_flat_bounds, fee_at),
        breakpoints=_ZERO,
        echo=lambda: {"family": FAMILY_NO_TRADE, "fee": rat_str(f)},
    )


def _profile_text(values: Iterable[Fraction]) -> str:
    """A profile as an error names it, cut short so the line stays short."""
    return clipped(f"({', '.join(rat_str(v) for v in values)})")


def _table(
    market: MarketConfig,
    pairs: Iterable[tuple[Iterable[RationalLike], Any]],
    outcome: Callable[[tuple[Fraction, ...], Any], Any],
) -> dict[tuple[Fraction, ...], Any]:
    """A rule table keyed by normalised profile from (profile, outcome) pairs;
    each profile must list one non-negative value per agent of `market`, and
    two profiles that normalise alike are refused, before their outcome is.
    `outcome(profile, value)` reads an entry's outcome. Each distinct key
    value is parsed once, keyed by its type too, so `1`, `True` and `"1"`
    never share a parse, and each key is hashed once."""
    parsed: dict[tuple[type, Any], Fraction] = {}

    def parse(v: Any) -> Fraction:
        if type(v) is Fraction:
            return v
        try:
            known = parsed.get((type(v), v))
        except TypeError:  # unhashable, so `rational` refuses it below
            known = None
        if known is None:
            known = parsed[type(v), v] = rational(v, "rule table profile value")
        return known

    table: dict[tuple[Fraction, ...], Any] = {}
    for key, value in pairs:
        values = tuple([parse(v) for v in key])
        if len(values) != market.n or min(values) < 0:
            raise ValueError(
                f"rule table profile {_profile_text(values)} must list "
                f"{market.n} non-negative values"
            )
        size = len(table)
        try:
            table.setdefault(values, outcome(values, value))
        except (TypeError, ValueError):  # a repeated profile is refused first
            if values not in table:
                raise
        if len(table) == size:
            raise ValueError(f"rule table lists profile {_profile_text(values)} twice")
    return table


def _table_spec(table: Mapping, outcome_key: str, render: Callable) -> dict:
    """A rule table's canonical JSON spec, entries sorted by profile."""
    entries = [
        {"profile": [rat_str(v) for v in key], outcome_key: render(table[key])}
        for key in sorted(table)
    ]
    return {"family": RULE_TABLE, "entries": entries}


def _rule_table(cls: type, market: MarketConfig, pairs: Iterable[tuple], outcome: Callable,
                miss: Any, key: str, render: Callable) -> Any:
    """The winner or pricing rule `cls` of a table: the (profile, outcome)
    `pairs` parsed by `_table` with `outcome`, read through the keys scaled
    once per scale (`keyed`), `miss` off the table, and echoed with each
    outcome rendered by `render` under `key`."""
    table = _table(market, pairs, outcome)
    keyed = _scaled_keys(table)
    return cls(
        f"rule_table[{len(table)}]",
        lambda values, market, scale: keyed(scale).get(values, miss),
        None,
        partial(_table_spec, table, key, render),
        market=market,
        table=MappingProxyType(table),
        keyed=keyed,
    )


def _spec_entries(entries: Any, outcome_key: str, parse: Callable) -> list[tuple]:
    """The (profile, outcome) pairs of a rule table's JSON `entries`: a JSON
    list of objects, each with a JSON-list profile and the outcome under
    `outcome_key`, which `parse` reads."""
    rows = (fields(entry, "rule table entry", ("profile", outcome_key))
            for entry in json_list(entries, "rule table entries"))
    return [(json_list(profile, "rule table profile"), parse(outcome)) for profile, outcome in rows]


def _from_spec(spec: Any, what: str, readers: Mapping[str, tuple]) -> Any:
    """Build a `what` from its JSON spec, or from a string naming its family.
    The upper-cased family picks its reader: the spec's keys besides `family`
    (required, then optional with defaults) and the constructor called with
    their values."""
    if isinstance(spec, str):
        spec = {"family": spec}
    family, *_ = fields(spec, f"{what} spec", ("family",), spec)
    family = str(family).upper()
    if family not in readers:
        raise ValueError(f"unknown {what} family: {clipped(family)}")
    required, optional, build = readers[family]
    _, *values = fields(spec, f"{family} {what}", ("family", *required), optional)
    return build(*values)


# ---------------------------------------------------------------------------
# Winner rules (selective Vickrey)
# ---------------------------------------------------------------------------


def first_violation(
    entries: Iterable[Entry],
    violation: Callable[[tuple[Fraction, ...], tuple, frozenset[int]], Hit | None],
) -> tuple[int, Hit | None]:
    """Walk rule entries (see `Entry`) in order up to the first violation:
    how many were checked and the first hit, or None when every entry holds.
    `violation(values, scaled, selected)` reads the scaled values and puts
    the exact ones in its witness."""
    checked = 0
    for values, scaled, selected in entries:
        checked += 1
        hit = violation(values, scaled, selected)
        if hit is not None:
            return checked, hit
    return checked, None


def _winner_set(values: tuple[Fraction, ...], winners: Iterable[int]) -> frozenset[int]:
    """A winner table entry's winners; an agent listed twice is refused."""
    listed = list(winners)
    for k, i in enumerate(listed):
        if i in listed[:k]:
            raise ValueError(
                f"rule table lists winner {i} twice at profile {_profile_text(values)}"
            )
    return frozenset(listed)


def _strict_pick(values: tuple, market: MarketConfig, scale: int) -> list[int]:
    """On uniform-tail values, everyone strictly above the Vickrey price."""
    price = vickrey_price(values, market.m)
    if min(values) != price:
        return []
    return [i for i, v in enumerate(values) if v > price]


def _efficient_pick(values: tuple, market: MarketConfig, scale: int) -> list[int]:
    """On uniform-tail values, the efficient families' winners."""
    price, winners = _vickrey_pick(values, market.m, True)
    return winners if min(values) == price else []


@dataclass(frozen=True, eq=False)
class WinnerRule:
    """Selects which agents trade on a uniform-tail profile.

    A usable rule must satisfy, on every profile:
      (i)   off uniform-tail profiles it selects nobody;
      (ii)  selected agents value the object at least at the Vickrey price;
      (iii) if anybody is selected, everyone strictly above the price is;
      (iv)  at most m agents are selected.

    Each constructor builds one record: the rule's `label`, its one
    value-level definition `pick` (see `Pick`), selective Vickrey's
    closed-form `bounds` under it (None for a table), the `echo` that
    renders its JSON spec and the `breakpoints` selective Vickrey takes
    under it (see `Mechanism`, whose promise they keep; None for a
    table). The rule checks in `axioms` trust conditions (i)-(iv)
    without a look only for a rule with closed-form bounds.
      empty: nobody trades.
      strict: on a uniform-tail profile, everyone strictly above the price.
      efficient: on a uniform-tail profile, the efficient families' winners.
      dictatorial_threshold(a, t): agent a alone, when a reports above t
        and every other agent reports exactly t.
      rule_table: the listed winner set at each listed profile, nobody off
        the table; `market` records the market the table was written for.
    """

    label: str
    pick: Pick
    bounds: Bounds | None
    echo: Callable[[], dict]
    market: MarketConfig | None = None
    table: Mapping[tuple[Fraction, ...], frozenset[int]] | None = None
    # The table keyed by its profiles multiplied by a scale, once per scale:
    # the dict `pick` reads.
    keyed: Callable[[int], Mapping[tuple, frozenset[int]]] | None = None
    breakpoints: tuple[Fraction, ...] | None = None

    @property
    def spec(self) -> dict:
        """The canonical JSON spec; table entries sorted by profile."""
        return self.echo()

    def entries(self, scale: int, on: Sequence[Collection] | None = None) -> Iterator[Entry]:
        """The table's entries in sorted order, each key with its values
        multiplied by `scale` as `pick` reads it. A positive scale keeps the
        order of the keys. With `on` (each agent's value set multiplied by
        `scale`), entries off those sets are skipped."""
        keyed = self.keyed(scale)
        for scaled, values, selected in sorted(zip(keyed, self.table, keyed.values())):
            if on is None or all(v in vals for v, vals in zip(scaled, on)):
                yield values, scaled, selected

    @cached_property
    def conditions(self) -> tuple[int, Hit | None]:
        """The table's selection conditions (i)-(iv), checked entry by entry
        once per rule on its keys scaled to ints by their common
        denominator: the entries checked and the first violation."""
        scale = math.lcm(*(v.denominator for key in self.table for v in key))
        return first_violation(
            self.entries(scale), partial(rule_condition_violation, self.market)
        )

    @classmethod
    def empty(cls) -> "WinnerRule":
        return cls(
            "empty", lambda values, market, scale: (), partial(_flat_bounds, lambda scale: 0),
            lambda: {"family": RULE_EMPTY}, breakpoints=_ZERO,
        )

    @classmethod
    def strict(cls) -> "WinnerRule":
        return cls(
            "strict_winners", _strict_pick, _strict_winner_bounds,
            lambda: {"family": RULE_STRICT_WINNERS}, breakpoints=_ZERO,
        )

    @classmethod
    def efficient(cls) -> "WinnerRule":
        return cls(
            "efficient_winners",
            _efficient_pick,
            _second_price_bounds,
            lambda: {"family": RULE_EFFICIENT_WINNERS},
            breakpoints=_ZERO,
        )

    @classmethod
    def dictatorial_threshold(cls, agent: int, threshold: RationalLike) -> "WinnerRule":
        cut = rational(threshold, "DICTATORIAL_THRESHOLD winner rule threshold")
        cut_at = cache(partial(_scaled, cut))

        def pick(values: tuple, market: MarketConfig, scale: int) -> tuple[int, ...]:
            at = cut_at(scale)
            others = (v for i, v in enumerate(values) if i != agent)
            if values[agent] > at and all(v == at for v in others):
                return (agent,)
            return ()

        return cls(
            f"dictatorial_threshold({agent},{rat_str(cut)})",
            pick,
            partial(_dictator_bounds, agent, cut_at),
            lambda: {"family": RULE_DICTATORIAL_THRESHOLD, "agent": agent,
                     "threshold": rat_str(cut)},
            breakpoints=(Fraction(0), cut),
        )

    @classmethod
    def rule_table(
        cls, market: MarketConfig, entries: Mapping[tuple[RationalLike, ...], Iterable[int]]
    ) -> "WinnerRule":
        return _rule_table(cls, market, entries.items(), _winner_set, (), "winners", sorted)

    @classmethod
    def from_spec(cls, spec: Any, market: MarketConfig) -> "WinnerRule":
        """A rule from its JSON spec (the inverse of `spec`) or bare family name."""
        def dictator(agent: Any, threshold: Any) -> "WinnerRule":
            agent = integer(agent, "dictator agent")
            if not 0 <= agent < market.n:
                raise ValueError(f"dictator index out of range: {agent}")
            return cls.dictatorial_threshold(agent, threshold)

        def table(entries: Any) -> "WinnerRule":
            pairs = _spec_entries(entries, "winners", lambda w: [
                integer(i, "rule table winner") for i in json_list(w, "rule table winners")
            ])
            return _rule_table(cls, market, pairs, _winner_set, (), "winners", sorted)

        return _from_spec(spec, "winner rule", {
            RULE_EMPTY: ((), {}, cls.empty),
            RULE_STRICT_WINNERS: ((), {}, cls.strict),
            RULE_EFFICIENT_WINNERS: ((), {}, cls.efficient),
            RULE_DICTATORIAL_THRESHOLD: (("agent", "threshold"), {}, dictator),
            RULE_TABLE: ((), {"entries": []}, table),
        })


def _strict_winner_bounds(agent: int, m: int, report: Any, true_value: Any, scale: int) -> tuple:
    """Strict winners trade at the price: a positive report can win for free
    against all-zero opponents, or at any price below the report."""
    if report > 0:
        return (true_value, min(0, true_value - report))
    return (0, 0)


def _dictator_bounds(
    chosen: int,
    cut_at: Callable[[int], Any],
    agent: int,
    m: int,
    report: Any,
    true_value: Any,
    scale: int,
) -> tuple:
    """Only the dictator trades, at the threshold (`cut_at(scale)` at the
    scale), when reporting above it while every opponent reports the
    threshold: never if it is negative."""
    threshold = cut_at(scale)
    if agent != chosen or report <= threshold or threshold < 0:
        return (0, 0)
    gain = true_value - threshold
    return (max(gain, 0), min(gain, 0))


def rule_condition_violation(
    market: MarketConfig,
    values: tuple[Fraction, ...],
    scaled: tuple,
    selected: frozenset[int],
) -> Hit | None:
    """First violated selection condition at one profile, read on its
    values at any scale (`scaled`), or None; the witness holds the exact
    `values`. A selection that passes (i) sits on a uniform tail, where
    nobody values the object below the price, so (ii) only needs its
    agents in range."""
    price = vickrey_price(scaled, market.m)
    if selected and min(scaled) != price:
        condition = "(i) selection off a uniform-tail profile"
    elif any(i < 0 or i >= market.n for i in selected):
        condition = "(ii) selected agent index out of range"
    elif selected and any(v > price and i not in selected for i, v in enumerate(scaled)):
        condition = "(iii) agent above the price left unselected"
    elif len(selected) > market.m:
        condition = "(iv) more winners than objects"
    else:
        return None
    return condition, {"profile": values, "winners": sorted(selected)}


def selective_vickrey_mechanism(rule: WinnerRule) -> Mechanism:
    """Winner-rule trade at the Vickrey price, no-trade when nobody is selected.

    Rule tables are validated against conditions (i)-(iv) at construction;
    an invalid table is a construction error, not a mechanism that limps.
    """
    if rule.table is not None:
        _, hit = rule.conditions
        if hit is not None:
            condition, witness = hit
            raise ValueError(
                f"invalid winner rule, condition {condition} at profile "
                f"{_profile_text(witness['profile'])}"
            )
    pick = rule.pick

    def outcome(values: tuple, market: MarketConfig, scale: int):
        winners = pick(values, market, scale)
        return _trade(values, winners, vickrey_price(values, market.m) if winners else None)

    return Mechanism(
        f"selective_vickrey({rule.label})",
        FAMILY_SELECTIVE_VICKREY,
        outcome=outcome,
        bounds=rule.bounds,
        breakpoints=rule.breakpoints,
        market=rule.market,
        echo=lambda: {"family": FAMILY_SELECTIVE_VICKREY, "rule": rule.spec},
    )


# ---------------------------------------------------------------------------
# Pricing rules (EV/PAB)
# ---------------------------------------------------------------------------

EV = "EV"
PAB = "PAB"


def _pricing_mode(values: tuple[Fraction, ...], mode: str) -> str:
    if mode not in (EV, PAB):
        raise ValueError(f"pricing mode must be EV or PAB, got {mode!r}")
    return mode


@dataclass(frozen=True, eq=False)
class PricingRule:
    """Classifies each uniform-tail profile as efficient-Vickrey or pay-as-bid.

    Each constructor builds one record: the rule's `label`, its one
    value-level definition `branch` (see `Branch`), whether every
    valuation can reach the EV branch (`reaches_ev`; None for a table,
    which can only be judged on a grid), the `echo` that renders its
    JSON spec and the `breakpoints` EV/PAB takes under it (see
    `Mechanism`, whose promise they keep; None for a table).
      always_ev: EV everywhere.
      ev_iff_price_zero: EV exactly when the Vickrey price is zero.
      threshold(c): EV when the Vickrey price is at most c. The price is
        never negative, so a negative c never prices EV; every other rule
        prices all-zero opponents (price zero) EV.
      rule_table: the listed mode at each listed profile, PAB off the table;
        `market`, `table` and `keyed` are set by `_rule_table`, as on `WinnerRule`.
    """

    label: str
    branch: Branch
    reaches_ev: bool | None
    echo: Callable[[], dict]
    market: MarketConfig | None = None
    table: Mapping[tuple[Fraction, ...], str] | None = None
    # As on `WinnerRule`: the dict `branch` reads and EV_SUPPORT walks.
    keyed: Callable[[int], Mapping[tuple, str]] | None = None
    breakpoints: tuple[Fraction, ...] | None = None

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
            "always_ev",
            lambda values, market, scale: EV,
            True,
            lambda: {"family": PRICING_ALWAYS_EV},
            breakpoints=_ZERO,
        )

    @classmethod
    def ev_iff_price_zero(cls) -> "PricingRule":
        return cls(
            "ev_iff_price_zero",
            lambda values, market, scale: EV if vickrey_price(values, market.m) == 0 else PAB,
            True,
            lambda: {"family": PRICING_EV_IFF_PRICE_ZERO},
            breakpoints=_ZERO,
        )

    @classmethod
    def threshold(cls, cutoff: RationalLike) -> "PricingRule":
        cut = rational(cutoff, "THRESHOLD pricing rule cutoff")
        cut_at = cache(partial(_scaled, cut))
        return cls(
            f"threshold({rat_str(cut)})",
            lambda values, market, scale: (
                EV if vickrey_price(values, market.m) <= cut_at(scale) else PAB
            ),
            cut >= 0,
            lambda: {"family": PRICING_THRESHOLD, "cutoff": rat_str(cut)},
            breakpoints=(Fraction(0), cut),
        )

    @classmethod
    def rule_table(
        cls, market: MarketConfig, entries: Mapping[tuple[RationalLike, ...], str]
    ) -> "PricingRule":
        return _rule_table(cls, market, entries.items(), _pricing_mode, PAB, "mode", str)

    @classmethod
    def from_spec(cls, spec: Any, market: MarketConfig) -> "PricingRule":
        """A rule from its JSON spec (the inverse of `spec`) or bare family name."""
        return _from_spec(spec, "pricing rule", {
            PRICING_ALWAYS_EV: ((), {}, cls.always_ev),
            PRICING_EV_IFF_PRICE_ZERO: ((), {}, cls.ev_iff_price_zero),
            PRICING_THRESHOLD: (("cutoff",), {}, cls.threshold),
            RULE_TABLE: ((), {"entries": []}, lambda entries: _rule_table(
                cls, market, _spec_entries(entries, "mode", str), _pricing_mode, PAB, "mode", str)),
        })


def ev_pab_mechanism(pricing: PricingRule) -> Mechanism:
    """Efficient-Vickrey or pay-as-bid on uniform-tail profiles, pay-as-bid off them."""

    branch = pricing.branch

    def outcome(values: tuple, market: MarketConfig, scale: int):
        price, winners = _vickrey_pick(values, market.m, True)
        on_ev = min(values) == price and branch(values, market, scale) == EV
        return _trade(values, winners, price if on_ev else None)

    return Mechanism(
        f"ev_pab({pricing.label})",
        FAMILY_EV_PAB,
        outcome=outcome,
        bounds=pricing.bounds,
        breakpoints=pricing.breakpoints,
        market=pricing.market,
        echo=lambda: {"family": FAMILY_EV_PAB, "pricing": pricing.spec},
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
    return _from_spec(spec, "mechanism", {
        FAMILY_VICKREY: ((), {}, vickrey_mechanism),
        FAMILY_EFFICIENT_VICKREY: ((), {}, efficient_vickrey_mechanism),
        FAMILY_PAY_AS_BID: ((), {}, pay_as_bid_mechanism),
        FAMILY_NO_TRADE: ((), {"fee": 0}, no_trade_mechanism),
        FAMILY_SELECTIVE_VICKREY: (("rule",), {}, lambda rule: selective_vickrey_mechanism(
            WinnerRule.from_spec(rule, market))),
        FAMILY_EV_PAB: (("pricing",), {}, lambda pricing: ev_pab_mechanism(
            PricingRule.from_spec(pricing, market))),
    })
