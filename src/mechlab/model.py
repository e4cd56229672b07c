"""Exact domain model for allocating identical indivisible objects with money.

A market has n agents and m < n identical objects; each agent consumes at
most one object. An `Allocation` is a pair of tuples (x, t): agent i holds
x[i] objects (0 or 1) and pays the transfer t[i], so agent i's bundle is
(x[i], t[i]) and their utility is quasi-linear: v_i * x[i] - t[i]. Every
quantity is an exact rational; floats are rejected at the boundary so no
rounding can creep into a verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, NamedTuple, Sequence, Union

RationalLike = Union[int, str, Fraction]


def rat(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, a "p/q" string, or a Fraction.

    Floats are rejected: exactness is the point of this package, and a
    float that survived this far is already a bug. So is exponent
    notation: "1e10000000" would take `Fraction` unbounded time to expand.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation is not accepted: {value!r}")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


def _shown(value: Any) -> str:
    """A refused value as JSON, cut short so the error stays one short line."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= 60 else f"{text[:60]}..."


def rational(value: Any, what: str) -> Fraction:
    """An exact rational field; anything `rat` refuses is refused naming `what`."""
    try:
        return rat(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an exact rational, got {_shown(value)}") from None


def integer(value: Any, what: str) -> int:
    """An integer count or index; a float or boolean is refused, never truncated."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be an integer, got {_shown(value)}") from exc


def json_list(value: Any, what: str) -> list:
    """A field that must be a JSON list; a string or object is refused, not iterated."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {_shown(value)}")
    return value


def fields(doc: Any, what: str, required: Sequence = (), optional: Mapping = {}) -> tuple:
    """The one reader of a config or spec object: the values of its `required`
    keys, then of its `optional` keys, an absent one read as its default. A
    value that is not an object, a key in neither, and a missing required key
    are refused, naming `what`. `optional=doc` lets every key through, to
    read a family that picks the object's other keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {_shown(doc)}")
    for key in doc:
        if key not in required and key not in optional:
            raise ValueError(f"{what} has an unknown field {key!r}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{what} is missing its {key}")
    return (*[doc[key] for key in required], *[doc.get(k, d) for k, d in optional.items()])


def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """`json.load`'s `object_pairs_hook`: an object that lists a key twice is
    refused, where the plain parser would keep the last value silently."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"a JSON object lists the key {key!r} twice")
        doc[key] = value
    return doc


def rat_str(value: RationalLike) -> str:
    """Canonical "p/q" form (the "/q" is omitted when q is 1)."""
    return str(rat(value))


@dataclass(frozen=True)
class MarketConfig:
    """n agents, m identical objects, with n > m >= 1."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.m, int):
            raise TypeError("agent and object counts must be ints")
        if self.m < 1:
            raise ValueError("need at least one object (m >= 1)")
        if self.n <= self.m:
            raise ValueError("need more agents than objects (n > m)")

    @property
    def agents(self) -> range:
        return range(self.n)


@dataclass(frozen=True)
class Profile:
    """A valuation profile: one non-negative rational per agent."""

    config: MarketConfig
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(rat(v) for v in self.values)
        if len(vals) != self.config.n:
            raise ValueError(f"expected {self.config.n} values, got {len(vals)}")
        if any(v < 0 for v in vals):
            raise ValueError("valuations must be non-negative")
        object.__setattr__(self, "values", vals)

    @classmethod
    def trusted(cls, config: MarketConfig, values: tuple[Fraction, ...]) -> "Profile":
        """A profile of values that are already normalised: one non-negative
        `Fraction` per agent. Nothing is checked; `Profile(...)` checks all."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "config", config)
        object.__setattr__(profile, "values", values)
        return profile

    def with_value(self, agent: int, value: RationalLike) -> "Profile":
        """Copy of this profile with one agent's valuation replaced."""
        new = rat(value)
        if new < 0:
            raise ValueError("valuations must be non-negative")
        vals = list(self.values)
        vals[agent] = new
        return Profile.trusted(self.config, tuple(vals))

    def swapped(self, i: int, j: int) -> "Profile":
        """Copy of this profile with the valuations of agents i and j exchanged."""
        vals = list(self.values)
        vals[i], vals[j] = vals[j], vals[i]
        return Profile.trusted(self.config, tuple(vals))


def vickrey_price(values: Sequence, m: int) -> Any:
    """The (m+1)-th highest of `values`: the price a winner pays under Vickrey
    rules. Exact values give a `Fraction`, values scaled to ints an int."""
    return sorted(values)[-1 - m]


def has_uniform_tail(values: Sequence, m: int) -> bool:
    """Whether all values ranked (m+1)-th or lower are equal.

    On these profiles every losing agent values the object identically,
    so a single Vickrey price clears the market. Trivially true when
    m = n - 1 (only one rank is in the tail). Equivalently, no agent values
    the object below the Vickrey price.
    """
    return min(values) == vickrey_price(values, m)


class Allocation(NamedTuple):
    """Object indicators `x` and transfers `t`, one of each per agent.

    Agent i holds x[i] objects (0 or 1) and pays t[i], an exact rational;
    a negative transfer is money received (a subsidy). It unpacks as
    `x, t`. `Mechanism.checked` refuses any other shape.
    """

    x: tuple[int, ...]
    t: tuple[Fraction, ...]

    @property
    def winners(self) -> tuple[int, ...]:
        return tuple(i for i, xi in enumerate(self.x) if xi == 1)


def utilities(allocation: Allocation, profile: Profile) -> tuple[Fraction, ...]:
    """Per-agent quasi-linear utilities v_i * x[i] - t[i] of an allocation."""
    x, t = allocation
    return tuple(v * xi - ti for v, xi, ti in zip(profile.values, x, t))
