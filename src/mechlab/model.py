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
from typing import Any, NamedTuple, Union

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


def rational(value: Any, what: str) -> Fraction:
    """An exact rational field; anything `rat` refuses is refused naming `what`."""
    try:
        return rat(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{what} must be an exact rational, got {json.dumps(value, default=repr)}"
        ) from None


def integer(value: Any, what: str) -> int:
    """An integer count or index; a float or boolean is refused, never truncated."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be an integer, got {value!r}") from exc


def json_list(value: Any, what: str) -> list:
    """A field that must be a JSON list; a string or object is refused, not iterated."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {json.dumps(value)}")
    return value


def required(spec: Any, key: str, what: str) -> Any:
    """`spec[key]`; refused, naming `what`, unless `spec` is an object with `key`."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(spec)}")
    if key not in spec:
        raise ValueError(f"{what} is missing its {key}")
    return spec[key]


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


def vickrey_price(profile: Profile) -> Fraction:
    """The (m+1)-th highest valuation: the price a winner pays under Vickrey rules."""
    return sorted(profile.values, reverse=True)[profile.config.m]


def has_uniform_tail(profile: Profile) -> bool:
    """Whether all valuations ranked (m+1)-th or lower are equal.

    On these profiles every losing agent values the object identically,
    so a single Vickrey price clears the market. Trivially true when
    m = n - 1 (only one rank is in the tail). Equivalently, no agent values
    the object below the Vickrey price.
    """
    return min(profile.values) == vickrey_price(profile)


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
