"""Value grids, and a mechanism's outcomes over one.

`GridSpace` is the one place a grid declaration becomes values. An
`OutcomeTable` holds a mechanism's outcome at each profile of a grid's
value sets, indexed by mixed-radix rank and scaled to integers, so the
axiom checkers in `axioms` evaluate each profile once and compare ints.
The table also holds what a checker must know of the mechanism on the
grid: whether its rule table fits the market, and whether the value sets
are shared.
"""

from __future__ import annotations

import itertools
import math
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Iterator, NamedTuple

from .mechanisms import Mechanism
from .model import MarketConfig, Profile, RationalLike, rat

MODE_EXHAUSTIVE = "exhaustive"
MODE_SAMPLED = "sampled"
ENUMERATION_BUDGET = 1_000_000


@dataclass(frozen=True)
class GridSpace:
    """A finite set of valuations per agent, plus how to sweep them.

    This is the one place a grid declaration becomes values: explicit
    value sets are sorted and de-duplicated here (a set shared by several
    agents once), and `from_range` builds a range. More than
    `ENUMERATION_BUDGET` agents in a shared grid, values in a range,
    profiles in an exhaustive grid or draws in a sample are refused,
    counted from the declared lengths before the grid is built. So is a
    grid whose outcome-table rank strides would take more bits than the
    budget, as they grow quadratically with the number of agents.
    In exhaustive mode `profiles()` yields the full cartesian product in
    lexicographic order. In sampled mode it yields `samples` profiles
    drawn uniformly; each draw is keyed by `(seed, index)`, so the stream
    depends on nothing else. The rule walks read the same profiles scaled
    to ints (`scaled_profiles`, by the common denominator in `scaling`).
    """

    config: MarketConfig
    values: tuple[tuple[Fraction, ...], ...]
    mode: str = MODE_EXHAUSTIVE
    seed: int = 0
    samples: int = 0

    def __post_init__(self) -> None:
        if len(self.values) != self.config.n:
            raise ValueError("need one value set per agent")
        normalized: dict[int, tuple[Fraction, ...]] = {}  # by id of the input
        for vals in self.values:
            if id(vals) in normalized:
                continue
            vs = sorted({rat(v) for v in vals})
            if not vs:
                raise ValueError("value sets must be non-empty")
            if vs[0] < 0:
                raise ValueError("grid valuations must be non-negative")
            normalized[id(vals)] = tuple(vs)
        object.__setattr__(
            self, "values", tuple(normalized[id(vals)] for vals in self.values)
        )
        if self.mode not in (MODE_EXHAUSTIVE, MODE_SAMPLED):
            raise ValueError(f"unknown mode: {self.mode}")
        if self.mode == MODE_SAMPLED and self.samples < 1:
            raise ValueError("sampled mode needs samples >= 1")
        if self.mode == MODE_SAMPLED:
            _refuse_over_budget(self.samples, "samples", "draw fewer samples")
        if self.mode == MODE_EXHAUSTIVE:
            _refuse_profiles_over_budget(map(len, self.values))
        # An outcome table's rank stride for agent i is the product of the
        # set lengths after i, so agent i's length is a factor of i strides.
        bits = sum(i * (len(vs) - 1).bit_length() for i, vs in enumerate(self.values))
        _refuse_over_budget(bits, "rank stride bits", "declare fewer agents")

    @classmethod
    def shared(
        cls,
        config: MarketConfig,
        values: Iterable[RationalLike],
        **kwargs: Any,
    ) -> "GridSpace":
        _refuse_over_budget(config.n, "agents", "declare fewer agents")
        vals = tuple(rat(v) for v in values)
        return cls(config, (vals,) * config.n, **kwargs)

    @classmethod
    def from_range(
        cls,
        config: MarketConfig,
        max_value: RationalLike,
        denominator: int = 1,
        **kwargs: Any,
    ) -> "GridSpace":
        """The shared grid 0, 1/q, ..., max with q = `denominator`.

        A range over budget, or an exhaustive grid over budget, is refused
        before any value is built.
        """
        top = rat(max_value)
        if denominator < 1:
            raise ValueError("range denominator must be >= 1")
        steps = top * denominator
        if top < 0 or steps.denominator != 1:
            raise ValueError(
                "range max must be a non-negative multiple of 1/denominator"
            )
        count = int(steps) + 1
        _refuse_over_budget(count, "range values", "use a coarser or shorter range")
        if kwargs.get("mode", MODE_EXHAUSTIVE) == MODE_EXHAUSTIVE:
            _refuse_over_budget(config.n, "agents", "declare fewer agents")
            _refuse_profiles_over_budget(itertools.repeat(count, config.n))
        return cls.shared(
            config, (Fraction(k, denominator) for k in range(count)), **kwargs
        )

    @property
    def is_shared(self) -> bool:
        return all(vals == self.values[0] for vals in self.values)

    @property
    def shared_values(self) -> tuple[Fraction, ...]:
        if not self.is_shared:
            raise ValueError("agents do not share a common value set")
        return self.values[0]

    @property
    def size(self) -> int:
        return math.prod(map(len, self.values))

    @property
    def pass_verdict(self) -> str:
        return "PASS_EXHAUSTIVE" if self.mode == MODE_EXHAUSTIVE else "PASS_SAMPLED"

    @cached_property
    def scaling(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(scale, scaled): the values' common denominator, and each agent's
        value set multiplied by it, in the same order."""
        return _scaled_sets(self.values)

    def profiles(self) -> Iterator[Profile]:
        if self.mode == MODE_EXHAUSTIVE:
            for combo in itertools.product(*self.values):
                yield Profile.trusted(self.config, combo)
        else:
            for index in range(self.samples):
                rng = random.Random(f"{self.seed}:{index}")
                combo = tuple(rng.choice(vals) for vals in self.values)
                yield Profile.trusted(self.config, combo)

    def scaled_profiles(self) -> Iterator[tuple[tuple[Fraction, ...], tuple[int, ...]]]:
        """Each profile `profiles()` yields, as its exact values and those
        values multiplied by the grid's scale."""
        scale = self.scaling[0]
        for profile in self.profiles():
            values = profile.values
            yield values, tuple([v.numerator * scale // v.denominator for v in values])


def _scaled_sets(
    values: tuple[tuple[Fraction, ...], ...]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The value sets' common denominator, and each set multiplied by it (a
    set shared by several agents is scaled once)."""
    distinct = {id(vals): vals for vals in values}
    scale = math.lcm(*(v.denominator for vals in distinct.values() for v in vals))
    scaled = {
        key: tuple(v.numerator * (scale // v.denominator) for v in vals)
        for key, vals in distinct.items()
    }
    return scale, tuple(scaled[id(vals)] for vals in values)


# A count over the budget is printed exactly up to this; a profile count
# stops there, so no grid builds, or prints, a long number.
_EXACT_COUNT = 10**18


def _refuse_over_budget(count: int, what: str, advice: str) -> None:
    """Refuse more than `ENUMERATION_BUDGET` of `what`."""
    if count > ENUMERATION_BUDGET:
        shown = count if count <= _EXACT_COUNT else f"more than {_EXACT_COUNT}"
        raise ValueError(
            f"{shown} {what} exceed the enumeration budget "
            f"({ENUMERATION_BUDGET}); {advice}"
        )


def _refuse_profiles_over_budget(lengths: Iterable[int]) -> None:
    """Refuse an exhaustive grid of more profiles than the budget, from its
    value-set lengths. Each length is at least 1, so the product only grows."""
    size = 1
    for length in lengths:
        size *= length
        if size > _EXACT_COUNT:
            break
    _refuse_over_budget(size, "profiles", "switch to sampled mode with a seed")


# ---------------------------------------------------------------------------
# Outcome tables
# ---------------------------------------------------------------------------


def _refuse_other_market(market: MarketConfig | None, config: MarketConfig) -> None:
    """A rule table, or a mechanism built on one, is only read on a grid of
    the market it was written for; None means there is no table."""
    if market is not None and market != config:
        raise ValueError(
            f"rule table market (n={market.n}, m={market.m}) differs from "
            f"the grid market (n={config.n}, m={config.m})"
        )


class GridPoint(NamedTuple):
    """One profile as the pointwise generators read it: its table `rank`,
    the `index` of each agent's value in their value set, the exact
    `values`, and those values `scaled` by the table's common denominator."""

    rank: int
    index: tuple[int, ...]
    values: tuple[Fraction, ...]
    scaled: tuple[int, ...]


class OutcomeTable(dict):
    """A mechanism's outcomes on one market's value sets, keyed by rank.

    A profile whose agent i reports the k_i-th value of their set has the
    mixed-radix rank sum(k_i * stride[i]), so a single-agent misreport is
    one addition and a swap two. The value sets are sorted, so ranks order
    profiles as their values do. Values and transfers are scaled by
    `scale`, the common denominator of the value sets, and a positive
    scale preserves every comparison. A rank is filled on its first read:
    it is decoded straight into the scaled values, the mechanism's
    `outcome` is called on them at `scale` (see `mechanisms.Outcome`),
    `Mechanism.checked` refuses a malformed result, and the pair (x, t)
    of indicators and scaled transfers is kept as a plain tuple (a tuple
    subclass unpacks slower on every read). A transfer that is a multiple
    of 1/scale is an int, any other the exact `Fraction`. `exact` turns a
    scaled quantity back into a `Fraction` when a witness is built.

    `of` gives the mechanism's one table per (market, value sets), shared
    by every checker; replay builds a throwaway one narrowed to the
    witness. The table reaches its mechanism through a weak reference, so
    the two form no cycle. Construction refuses a mechanism built on
    another market's rule table (`Mechanism.market`), so no checker
    repeats that check, and `shared` records whether every agent holds one
    value set, as a swap of two agents' values needs.
    """

    def __init__(
        self,
        mechanism: Mechanism,
        config: MarketConfig,
        values: tuple[tuple[Fraction, ...], ...],
    ) -> None:
        _refuse_other_market(mechanism.market, config)
        super().__init__()
        self.mechanism = weakref.ref(mechanism)
        self.config = config
        self.values = values
        self.shared = values.count(values[0]) == len(values)
        self.scale, self.scaled = _scaled_sets(values)
        distinct = {id(vals): vals for vals in values}  # a shared set once
        position = {
            key: {v: k for k, v in enumerate(vals)} for key, vals in distinct.items()
        }
        self.position = tuple(position[id(vals)] for vals in values)
        self.indices = tuple(range(len(vals)) for vals in values)
        strides = [1]
        for vals in reversed(values[1:]):
            strides.append(strides[-1] * len(vals))
        self.stride = tuple(reversed(strides))
        # agent i's scaled value at rank r is scaled[i][r // stride[i] % len]
        self._digits = tuple(zip(self.scaled, self.stride, map(len, self.scaled)))
        self._interned: dict[tuple, tuple] = {}

    @classmethod
    def of(cls, mechanism: Mechanism, grid: GridSpace) -> "OutcomeTable":
        """The mechanism's table for the grid's market and value sets."""
        tables = _TABLES.setdefault(mechanism, [])
        # Compared, not hashed: a large value set is costly to hash, and a
        # checker usually passes the very tuples the table holds.
        for table in tables:
            if table.config == grid.config and table.values == grid.values:
                return table
        table = cls(mechanism, grid.config, grid.values)
        tables.append(table)
        return table

    def __missing__(self, rank: int) -> tuple:
        values = tuple([scaled[rank // step % size] for scaled, step, size in self._digits])
        mechanism, config = self.mechanism(), self.config
        outcome = mechanism.checked(mechanism.outcome(values, config, self.scale), config)
        outcome = self._interned.setdefault(outcome, outcome)
        self[rank] = outcome
        return outcome

    def exact(self, quantity: int | Fraction) -> Fraction:
        """A scaled quantity as the exact rational it stands for."""
        return Fraction(quantity, self.scale)

    def point(self, values: tuple[Fraction, ...]) -> GridPoint:
        """The point of a profile whose values lie in the value sets."""
        index = tuple(pos[v] for pos, v in zip(self.position, values))
        rank = sum(k * step for k, step in zip(index, self.stride))
        scaled = tuple(sc[k] for sc, k in zip(self.scaled, index))
        return GridPoint(rank, index, values, scaled)

    def points(self, grid: GridSpace) -> Iterator[GridPoint]:
        """A point for each profile `grid.profiles()` yields. An exhaustive
        grid yields the product of its value sets in order, so its ranks
        and indices are counted, not looked up."""
        profiles = (profile.values for profile in grid.profiles())
        if grid.mode != MODE_EXHAUSTIVE:
            return map(self.point, profiles)
        return map(
            GridPoint,
            itertools.count(),
            itertools.product(*self.indices),
            profiles,
            itertools.product(*self.scaled),
        )


# Each mechanism's tables, one per (market, value sets). An entry dies with its
# mechanism, and a deterministic mechanism fills its table the same way for
# every caller, so sharing it changes no result.
_TABLES: "weakref.WeakKeyDictionary[Mechanism, list]" = weakref.WeakKeyDictionary()
