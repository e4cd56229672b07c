"""Value grids, and a mechanism's outcomes over one.

`GridSpace` is the one place a grid declaration becomes values, and the
one place its geometry is computed: the value sets scaled to integers by
their common denominator, each agent's mixed-radix rank stride, and
whether the agents share one value set. Its one sweep, `profiles()`,
yields a `GridPoint` per profile (rank, value indices, exact values and
scaled values), and `point` finds the same record for given values; a
sampled grid draws its points on its first sweep and keeps them. An
`OutcomeTable` memoises a mechanism's checked outcome at each rank of a
grid, so the sweeps in `axioms` evaluate each profile once and compare
ints. Whoever sweeps builds the table and hands it to every sweep that
should share it; nothing keeps a table for later. `OutcomeTable.fill` is
its one fill, fed the scaled values by the caller (an SP misreport) or by
decoding the rank (any other read); it refuses a mechanism whose rule
table was written for another market.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .mechanisms import Mechanism
from .model import MarketConfig, RationalLike, clipped, rat

MODE_EXHAUSTIVE = "exhaustive"
MODE_SAMPLED = "sampled"
ENUMERATION_BUDGET = 1_000_000


class GridPoint(NamedTuple):
    """One profile of a grid's sweep: its `rank`, the `index` of each
    agent's value in their value set, the exact `values`, and those values
    `scaled` by the grid's common denominator."""

    rank: int
    index: tuple[int, ...]
    values: tuple[Fraction, ...]
    scaled: tuple[int, ...]


@dataclass(frozen=True)
class GridSpace:
    """A finite set of valuations per agent, plus how to sweep them.

    This is the one place a grid declaration becomes values: explicit
    value sets are sorted and de-duplicated here (a set shared by several
    agents once), and `from_range` builds a range. More than
    `ENUMERATION_BUDGET` agents in a shared grid, values in a range,
    profiles in an exhaustive grid or draws in a sample are refused,
    counted from the declared lengths before the grid is built. So is a
    grid whose rank strides would take more bits than the budget, as they
    grow quadratically with the number of agents, and a sample whose
    outcome table could hold more entries than the budget: per draw, the
    draw and each agent's other values (SP), and on a shared grid each
    pair of agents swapped (AIW).

    The geometry is computed once, at construction: `scale` is the value
    sets' common denominator and `scaled` each set multiplied by it, in
    the same order (a set shared by several agents is scaled once); the
    profile whose agent i holds the k_i-th value of their set has the
    mixed-radix rank sum(k_i * stride[i]), so the sorted sets make ranks
    order profiles as their values do; `is_shared` says whether every
    agent holds one value set.

    `profiles()` is the one sweep. In exhaustive mode it yields the full
    cartesian product in lexicographic order, its ranks and indices
    counted, and it refuses a nonzero `seed` or `samples`: it would never
    read them, and they would make two equal grids compare unequal. In
    sampled mode it yields `samples` profiles drawn uniformly;
    each draw is keyed by `(seed, index)`, so the stream depends on
    nothing else, and keeps the value indices it drew. The draws are made
    on the first sweep and kept, so later sweeps seed no generator.
    """

    config: MarketConfig
    values: tuple[tuple[Fraction, ...], ...]
    mode: str = MODE_EXHAUSTIVE
    seed: int = 0
    samples: int = 0
    scale: int = field(init=False, repr=False, compare=False)
    scaled: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    stride: tuple[int, ...] = field(init=False, repr=False, compare=False)
    is_shared: bool = field(init=False, repr=False, compare=False)

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
        values = tuple(normalized[id(vals)] for vals in self.values)
        object.__setattr__(self, "values", values)
        if self.mode not in (MODE_EXHAUSTIVE, MODE_SAMPLED):
            raise ValueError(f"unknown mode: {clipped(str(self.mode))}")
        if self.mode == MODE_SAMPLED:
            if self.samples < 1:
                raise ValueError("sampled mode needs samples >= 1")
            _refuse_over_budget(self.samples, "samples", "draw fewer samples")
        else:
            if self.seed or self.samples:
                raise ValueError("an exhaustive grid reads no seed or samples")
            _refuse_profiles_over_budget(map(len, values))
        # Agent i's rank stride is the product of the set lengths after i,
        # so agent i's length is a factor of i strides.
        bits = sum(i * (len(vs) - 1).bit_length() for i, vs in enumerate(values))
        _refuse_over_budget(bits, "rank stride bits", "declare fewer agents")
        shared = all(vs == values[0] for vs in normalized.values())
        if self.mode == MODE_SAMPLED:
            # Each draw fills its own profile, SP each other value of each
            # agent, and AIW on a shared grid each pair of agents swapped;
            # never more than the grid has.
            n, lengths = len(values), [len(vs) for vs in values]
            per_draw = 1 + sum(lengths) - n + (n * (n - 1) // 2 if shared else 0)
            entries = min(math.prod(lengths), self.samples * per_draw)
            _refuse_over_budget(entries, "outcome-table entries", "draw fewer samples")
        scale = math.lcm(*(v.denominator for vs in normalized.values() for v in vs))
        scaled = {  # by id of the normalized set
            id(vs): tuple([v.numerator * (scale // v.denominator) for v in vs])
            for vs in normalized.values()
        }
        strides = [1]
        for vs in reversed(values[1:]):
            strides.append(strides[-1] * len(vs))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled", tuple(scaled[id(vs)] for vs in values))
        object.__setattr__(self, "stride", tuple(reversed(strides)))
        object.__setattr__(self, "is_shared", shared)

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

    def profiles(self) -> Iterator[GridPoint]:
        """A point for each profile of the sweep, in sweep order."""
        if self.mode == MODE_EXHAUSTIVE:
            return map(
                GridPoint,
                itertools.count(),
                itertools.product(*[range(len(vals)) for vals in self.values]),
                itertools.product(*self.values),
                itertools.product(*self.scaled),
            )

        def drawn() -> Iterator[GridPoint]:
            yield from self._sample  # drawn on the first sweep's first step

        return drawn()

    @cached_property
    def _sample(self) -> tuple[GridPoint, ...]:
        """A sampled grid's points, drawn once and kept for every sweep."""
        lengths = [len(vals) for vals in self.values]

        def draw(sample: int) -> GridPoint:
            # `randrange(n)` makes the draw `choice` of an n-tuple makes.
            below = random.Random(f"{self.seed}:{sample}").randrange
            return self._at(tuple([below(n) for n in lengths]))

        return tuple(map(draw, range(self.samples)))

    def point(self, values: Sequence[Fraction]) -> GridPoint:
        """The point of a profile whose values lie in the value sets."""
        try:
            index = tuple([vals.index(v) for vals, v in zip(self.values, values, strict=True)])
        except ValueError:
            raise ValueError("profile values are off the grid's value sets") from None
        return self._at(index)

    def _at(self, index: tuple[int, ...]) -> GridPoint:
        """The point whose agent i holds the index[i]-th value of their set."""
        return GridPoint(
            sum([k * step for k, step in zip(index, self.stride)]),
            index,
            tuple([vals[k] for vals, k in zip(self.values, index)]),
            tuple([scaled[k] for scaled, k in zip(self.scaled, index)]),
        )


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


class OutcomeTable(dict):
    """A mechanism's checked outcomes on one grid's value sets, keyed by rank.

    The grid holds the geometry (`GridSpace.scale`, `scaled`, `stride`),
    so a single-agent misreport is one rank addition and a swap two.
    Values and transfers are scaled by the grid's `scale`, and a positive
    scale preserves every comparison. `fill(rank, scaled)` is the one
    fill: the mechanism's `outcome` is called on the scaled values at the
    table's scale (see `mechanisms.Outcome`), `Mechanism.checked` refuses
    a malformed result, and the pair (x, t) of indicators and scaled
    transfers is kept as a plain tuple (a tuple subclass unpacks slower
    on every read). A read of a missing rank decodes it into the scaled
    values and fills; an SP misreport already holds its values, so it
    calls `fill` itself and no rank is decoded. A transfer that is a multiple
    of 1/scale is an int, any other the exact `Fraction`. `exact` turns a
    scaled quantity back into a `Fraction` when a witness is built.

    The table belongs to whoever builds it: every sweep that should share
    its outcomes is handed the same table, and it holds its mechanism as a
    plain attribute, so it lives exactly as long as its caller keeps it.
    A replay builds a throwaway one on a grid narrowed to the witness.
    Construction refuses a mechanism built on another market's rule table
    (`Mechanism.market`), so no sweep repeats that check.
    """

    def __init__(self, mechanism: Mechanism, grid: GridSpace) -> None:
        _refuse_other_market(mechanism.market, grid.config)
        super().__init__()
        self.mechanism = mechanism
        self.grid = grid
        self._market, self._scale = grid.config, grid.scale
        # agent i's scaled value at rank r is scaled[i][r // stride[i] % len]
        self._digits = tuple(zip(grid.scaled, grid.stride, map(len, grid.scaled)))
        self._interned: dict[tuple, tuple] = {}

    def __missing__(self, rank: int) -> tuple:
        return self.fill(rank, tuple([scaled[rank // step % size]
                                      for scaled, step, size in self._digits]))

    def fill(self, rank: int, scaled: tuple[int, ...]) -> tuple:
        """Store and return the checked outcome at `rank`, whose scaled
        values the caller passes as `scaled`."""
        mechanism, market = self.mechanism, self._market
        outcome = mechanism.checked(mechanism.outcome(scaled, market, self._scale), market)
        outcome = self._interned.setdefault(outcome, outcome)
        self[rank] = outcome
        return outcome

    def exact(self, quantity: int | Fraction) -> Fraction:
        """A scaled quantity as the exact rational it stands for."""
        return Fraction(quantity, self.grid.scale)

