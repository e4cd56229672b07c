"""Axiom checkers over finite valuation grids, with exact verdicts and witnesses.

Each checker sweeps a mechanism over every profile of a `GridSpace` (or a
seeded sample of them) and returns an `AxiomReport`. A report's verdict
says how strong the evidence is:

* PASS_EXHAUSTIVE - every grid profile checked, none violates;
* PASS_ANALYTIC   - a closed-form argument covers all real profiles;
* PASS_SAMPLED    - only a sample (or only grid-relative bounds) checked;
* FAIL            - a concrete violation, recorded as a witness;
* NOT_CERTIFIED   - the question cannot be settled at this scope;
* NOT_APPLICABLE  - a precondition of the check itself failed.

Witnesses always replay: feeding the witness back through the mechanism
reproduces the violating inequality exactly. Each pointwise axiom is
defined once, as a per-profile generator of its violations; the scan,
witness replay (`refresh_witness`) and shrinking all run that one
definition. Scans never early-exit: `profiles_checked` counts every
profile, and the reported witness is the lexicographically first
violation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from .mechanisms import Mechanism
from .model import (
    Bundle,
    MarketConfig,
    Profile,
    RationalLike,
    achieved_surplus,
    optimal_surplus,
    rat,
    rat_str,
    utilities,
    utility,
)

MODE_EXHAUSTIVE = "exhaustive"
MODE_SAMPLED = "sampled"
ENUMERATION_BUDGET = 1_000_000


@dataclass(frozen=True)
class GridSpace:
    """A finite set of valuations per agent, plus how to sweep them.

    This is the one place a grid declaration becomes values: explicit
    value sets are sorted and de-duplicated here (a set shared by several
    agents once), and `from_range` builds a range. An exhaustive grid of
    more than `ENUMERATION_BUDGET` profiles is refused at construction.
    In exhaustive mode `profiles()` yields the full cartesian product in
    lexicographic order. In sampled mode it yields `samples` profiles
    drawn uniformly; each draw is keyed by `(seed, index)`, so the stream
    depends on nothing else.
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
        if self.mode == MODE_EXHAUSTIVE:
            _refuse_over_budget(self.size)

    @classmethod
    def shared(
        cls,
        config: MarketConfig,
        values: Iterable[RationalLike],
        **kwargs: Any,
    ) -> "GridSpace":
        vals = tuple(rat(v) for v in values)
        return cls(config, tuple(vals for _ in range(config.n)), **kwargs)

    @classmethod
    def from_range(
        cls,
        config: MarketConfig,
        max_value: RationalLike,
        denominator: int = 1,
        **kwargs: Any,
    ) -> "GridSpace":
        """The shared grid 0, 1/q, ..., max with q = `denominator`.

        An exhaustive grid over budget is refused before any value is built.
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
        if kwargs.get("mode", MODE_EXHAUSTIVE) == MODE_EXHAUSTIVE:
            _refuse_over_budget(count**config.n)
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
        out = 1
        for vals in self.values:
            out *= len(vals)
        return out

    @property
    def pass_verdict(self) -> str:
        return "PASS_EXHAUSTIVE" if self.mode == MODE_EXHAUSTIVE else "PASS_SAMPLED"

    def profiles(self) -> Iterator[Profile]:
        if self.mode == MODE_EXHAUSTIVE:
            for combo in itertools.product(*self.values):
                yield Profile(self.config, combo)
        else:
            for index in range(self.samples):
                rng = random.Random(f"{self.seed}:{index}")
                combo = tuple(rng.choice(vals) for vals in self.values)
                yield Profile(self.config, combo)


def _refuse_over_budget(size: int) -> None:
    if size > ENUMERATION_BUDGET:
        raise ValueError(
            f"{size} profiles exceed the enumeration budget "
            f"({ENUMERATION_BUDGET}); switch to sampled mode with a seed"
        )


@dataclass(frozen=True)
class AxiomReport:
    """One checker's verdict for one mechanism, with the first witness on FAIL."""

    axiom: str
    verdict: str
    witness: dict | None = None
    profiles_checked: int = 0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict.startswith("PASS")

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "axiom": self.axiom,
            "verdict": self.verdict,
            "profiles_checked": self.profiles_checked,
        }
        if self.witness is not None:
            out["witness"] = witness_to_json(self.witness)
        if self.details:
            out["details"] = _jsonify(self.details)
        return out


def _jsonify(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonify(v) for v in value)
    return value


_WITNESS_INT_FIELDS = {"agent", "other"}
_WITNESS_STR_FIELDS = {"direction", "scope"}
_WITNESS_INT_LIST_FIELDS = {"winners"}


def witness_to_json(witness: dict) -> dict:
    return {k: _jsonify(v) for k, v in witness.items()}


def witness_from_json(data: dict) -> dict:
    """Parse a serialized witness back into exact rationals."""
    out: dict[str, Any] = {}
    for key, value in data.items():
        if key in _WITNESS_STR_FIELDS:
            out[key] = str(value)
        elif key in _WITNESS_INT_FIELDS:
            out[key] = int(value)
        elif key in _WITNESS_INT_LIST_FIELDS:
            out[key] = [int(v) for v in value]
        elif isinstance(value, list):
            out[key] = tuple(rat(v) for v in value)
        elif isinstance(value, int):
            out[key] = value
        else:
            out[key] = rat(value)
    return out


# ---------------------------------------------------------------------------
# Pointwise axioms
# ---------------------------------------------------------------------------

# `reports[i]` lists the misreports agent i may try; only SP deviates.
Reports = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class PointwiseAxiom:
    """An axiom that holds or fails profile by profile.

    `violations(mechanism, profile, reports)` yields every violation at
    one profile, in witness-key order. A witness is identified by its
    profile plus the `identity` fields; its sort key is that tuple, and
    the scan reports the smallest key found. Replay runs the same
    generator on the witness's profile and keeps the violation whose
    identity matches, so the scan and the replay cannot drift apart.
    """

    name: str
    identity: tuple[str, ...]
    violations: Callable[[Mechanism, Profile, Reports], Iterator[dict]]

    def key(self, witness: dict) -> tuple:
        return (witness["profile"], *(witness[k] for k in self.identity))

    def check(self, mechanism: Mechanism, grid: GridSpace) -> AxiomReport:
        """Sweep the grid; FAIL with the smallest-key violation, else pass."""
        best: dict | None = None
        best_key: tuple = ()
        count = 0
        violations, reports = self.violations, grid.values
        for profile in grid.profiles():
            count += 1
            hit = next(violations(mechanism, profile, reports), None)
            if hit is not None:
                key = self.key(hit)
                if best is None or key < best_key:
                    best, best_key = hit, key
        if best is None:
            return AxiomReport(self.name, grid.pass_verdict, None, count)
        return AxiomReport(self.name, "FAIL", best, count)

    def refresh(
        self, mechanism: Mechanism, witness: dict, market: MarketConfig
    ) -> dict | None:
        """The violation with the witness's identity, recomputed, or None."""
        profile = Profile(market, witness["profile"])
        # A recorded misreport is replayed as given, even off the grid.
        reports = tuple(
            (witness["misreport"],)
            if "misreport" in self.identity and k == witness["agent"]
            else ()
            for k in range(market.n)
        )
        for found in self.violations(mechanism, profile, reports):
            if all(found[k] == witness[k] for k in self.identity):
                return found
        return None


def _ir_violations(
    mechanism: Mechanism, profile: Profile, reports: Reports
) -> Iterator[dict]:
    """Individual rationality: every agent's utility is non-negative."""
    alloc = mechanism.evaluate(profile)
    for i in range(profile.config.n):
        u = utility(alloc.bundles[i], profile.values[i])
        if u < 0:
            yield {"profile": profile.values, "agent": i, "utility": u}


def _ns_violations(
    mechanism: Mechanism, profile: Profile, reports: Reports
) -> Iterator[dict]:
    """No subsidy: no agent is ever paid money (every transfer is >= 0)."""
    alloc = mechanism.evaluate(profile)
    for i in range(profile.config.n):
        if alloc.bundles[i].t < 0:
            yield {
                "profile": profile.values,
                "agent": i,
                "transfer": alloc.bundles[i].t,
            }


def _sp_violations(
    mechanism: Mechanism, profile: Profile, reports: Reports
) -> Iterator[dict]:
    """Strategy-proofness: no single-agent misreport ever pays.

    A scan passes each agent's own grid value set as the misreports, so
    on an exhaustive sweep the verdict is exhaustive at grid scope.
    """
    alloc = mechanism.evaluate(profile)
    for i in range(profile.config.n):
        truth = profile.values[i]
        honest = utility(alloc.bundles[i], truth)
        for report in reports[i]:
            if report == truth:
                continue
            deviated = mechanism.evaluate(profile.with_value(i, report))
            gained = utility(deviated.bundles[i], truth)
            if gained > honest:
                yield {
                    "profile": profile.values,
                    "agent": i,
                    "misreport": report,
                    "truthful_utility": honest,
                    "misreport_utility": gained,
                }


def _reference_bundle(
    values: tuple[Fraction, ...], us: tuple[Fraction, ...]
) -> Bundle | None:
    if all(u == us[0] for u in us):
        return Bundle(0, -us[0])
    diffs = [v - u for v, u in zip(values, us)]
    if all(d == diffs[0] for d in diffs):
        return Bundle(1, diffs[0])
    return None


def find_reference_bundle(mechanism: Mechanism, profile: Profile) -> Bundle | None:
    """A single bundle every agent is exactly indifferent to, if one exists.

    Only two shapes can work: (0, t0), which requires all utilities
    equal (returned first), and (1, p), which requires v_i - u_i to be
    the same for every agent. Anything else makes some agent strictly
    prefer or disprefer it.
    """
    us = utilities(mechanism.evaluate(profile), profile)
    return _reference_bundle(profile.values, us)


def _ee_violations(
    mechanism: Mechanism, profile: Profile, reports: Reports
) -> Iterator[dict]:
    """Egalitarian-equivalence: a reference bundle exists at every profile."""
    us = utilities(mechanism.evaluate(profile), profile)
    if _reference_bundle(profile.values, us) is None:
        yield {"profile": profile.values, "utilities": us}


def _eff_violations(
    mechanism: Mechanism, profile: Profile, reports: Reports
) -> Iterator[dict]:
    """Decision efficiency: the objects always go to a surplus-maximizing set."""
    achieved = achieved_surplus(mechanism.evaluate(profile), profile)
    optimum = optimal_surplus(profile)
    if achieved != optimum:
        yield {"profile": profile.values, "achieved": achieved, "optimum": optimum}


def _ef_violations(
    mechanism: Mechanism, profile: Profile, reports: Reports
) -> Iterator[dict]:
    """Envy-freeness: no agent prefers another agent's bundle to their own."""
    alloc = mechanism.evaluate(profile)
    for i in range(profile.config.n):
        own = utility(alloc.bundles[i], profile.values[i])
        for j in range(profile.config.n):
            if j == i:
                continue
            envied = utility(alloc.bundles[j], profile.values[i])
            if envied > own:
                yield {
                    "profile": profile.values,
                    "agent": i,
                    "other": j,
                    "own_utility": own,
                    "other_bundle_utility": envied,
                }


def _aiw_violations(
    mechanism: Mechanism, profile: Profile, reports: Reports
) -> Iterator[dict]:
    """Anonymity in welfare: swapping two agents' valuations swaps their utilities."""
    alloc = mechanism.evaluate(profile)
    for i in range(profile.config.n):
        mine = utility(alloc.bundles[i], profile.values[i])
        for j in range(profile.config.n):
            if j == i:
                continue
            swapped = profile.swapped(i, j)
            theirs = utility(
                mechanism.evaluate(swapped).bundles[j], profile.values[i]
            )
            if mine != theirs:
                yield {
                    "profile": profile.values,
                    "agent": i,
                    "other": j,
                    "swapped_profile": swapped.values,
                    "utility": mine,
                    "swapped_utility": theirs,
                }


POINTWISE: dict[str, PointwiseAxiom] = {
    axiom.name: axiom
    for axiom in (
        PointwiseAxiom("IR", ("agent",), _ir_violations),
        PointwiseAxiom("NS", ("agent",), _ns_violations),
        PointwiseAxiom("SP", ("agent", "misreport"), _sp_violations),
        PointwiseAxiom("EE", (), _ee_violations),
        PointwiseAxiom("EFF", (), _eff_violations),
        PointwiseAxiom("EF", ("agent", "other"), _ef_violations),
        PointwiseAxiom("AIW", ("agent", "other"), _aiw_violations),
    )
}

check_ir = POINTWISE["IR"].check
check_no_subsidy = POINTWISE["NS"].check
check_sp = POINTWISE["SP"].check
check_ee = POINTWISE["EE"].check
check_efficiency = POINTWISE["EFF"].check
check_envy_freeness = POINTWISE["EF"].check


def check_anonymity_in_welfare(
    mechanism: Mechanism, grid: GridSpace
) -> AxiomReport:
    """Sweep AIW. Needs a shared value set, otherwise the swapped profile
    can leave the grid; heterogeneous grids are a usage error."""
    if not grid.is_shared:
        raise ValueError(
            "anonymity in welfare needs a shared value set across agents"
        )
    return POINTWISE["AIW"].check(mechanism, grid)


# ---------------------------------------------------------------------------
# Manipulation bounds (best/worst case over all real opponents)
# ---------------------------------------------------------------------------


def nom_report_bounds(
    mechanism: Mechanism,
    market: MarketConfig,
    agent: int,
    report: RationalLike,
    true_value: RationalLike,
) -> tuple[Fraction, Fraction] | None:
    """Analytic (sup, inf) of the agent's utility over all real opponents.

    The agent reports `report` while valuing the object at `true_value`;
    the bounds range over every non-negative opponent profile, not just a
    grid. They are the family's own closed form (`Mechanism.bounds`);
    None for families without one (rule tables), in which case callers
    fall back to grid-relative bounds.
    """
    if mechanism.bounds is None:
        return None
    return mechanism.bounds(agent, market.m, rat(report), rat(true_value))


def _grid_bundle_map(
    mechanism: Mechanism, grid: GridSpace
) -> tuple[dict, int]:
    """For each (agent, report): every bundle seen on the grid, with the
    lexicographically smallest opponent profile that produced it."""
    seen: dict[tuple[int, Fraction], dict[Bundle, tuple[Fraction, ...]]] = {}
    count = 0
    for profile in grid.profiles():
        count += 1
        alloc = mechanism.evaluate(profile)
        for i in range(profile.config.n):
            opponents = tuple(
                v for j, v in enumerate(profile.values) if j != i
            )
            slot = seen.setdefault((i, profile.values[i]), {})
            bundle = alloc.bundles[i]
            if bundle not in slot or opponents < slot[bundle]:
                slot[bundle] = opponents
        # a profile may repeat in sampled mode; the min-merge absorbs it
    return seen, count


def _grid_report_bounds(
    slot: dict[Bundle, tuple[Fraction, ...]], true_value: Fraction
) -> tuple[Fraction, Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(sup, inf, sup realizer, inf realizer) over the grid's observed bundles."""
    best = worst = None
    best_opp = worst_opp = None
    for bundle, opponents in slot.items():
        u = utility(bundle, true_value)
        if best is None or u > best or (u == best and opponents < best_opp):
            best, best_opp = u, opponents
        if worst is None or u < worst or (u == worst and opponents < worst_opp):
            worst, worst_opp = u, opponents
    return best, worst, best_opp, worst_opp


# bounds(agent, report, true_value): (sup, inf, sup realizer, inf realizer)
# of the agent's utility, or None when the scope saw nothing of that report.
NomBounds = Callable[[int, Fraction, Fraction], "tuple | None"]


def _nom_bounds(
    mechanism: Mechanism, grid: GridSpace, analytic: bool
) -> tuple[NomBounds, str, int]:
    """The utility bounds NOM and BEST_CASE compare, their scope, and the
    number of profiles swept to get them.

    With analytic bounds (the built-in families) they range over every
    real opponent profile, and all-zero opponents are recorded as the
    best-case realizer. Otherwise they range over the bundles the grid
    produced, with the smallest opponent profile producing each bound.
    """
    market = grid.config
    if analytic and mechanism.bounds is not None:
        zeros = (Fraction(0),) * (market.n - 1)

        def analytic_bounds(agent, report, true_value):
            sup, inf = mechanism.bounds(agent, market.m, report, true_value)
            return sup, inf, zeros, None

        return analytic_bounds, "analytic", 0
    seen, count = _grid_bundle_map(mechanism, grid)

    def grid_bounds(agent, report, true_value):
        slot = seen.get((agent, report))
        if slot is None:
            return None  # value never sampled, nothing to compare against
        return _grid_report_bounds(slot, true_value)

    return grid_bounds, "grid", count


def _nom_witnesses(
    agent: int,
    true_value: Fraction,
    report: Fraction,
    truthful: tuple,
    misreported: tuple,
    scope: str,
) -> Iterator[dict]:
    """The SUP, then INF, obvious manipulation of one (agent, value, misreport).

    A misreport is an obvious manipulation when it beats truth-telling in
    the best case (SUP) or the worst case (INF) over opponents.
    """
    for pick, direction in enumerate(("SUP", "INF")):
        if misreported[pick] > truthful[pick]:
            witness = {
                "agent": agent,
                "true_value": true_value,
                "misreport": report,
                "direction": direction,
                "truthful_bound": truthful[pick],
                "misreport_bound": misreported[pick],
            }
            if misreported[2 + pick] is not None:
                witness["realizing_opponents"] = misreported[2 + pick]
            witness["scope"] = scope
            yield witness


def _iter_nom(
    values: tuple[tuple[Fraction, ...], ...], bounds: NomBounds, scope: str
) -> Iterator[dict]:
    for i, vals in enumerate(values):
        for true_value in vals:
            truthful = bounds(i, true_value, true_value)
            if truthful is None:
                continue
            for report in vals:
                if report == true_value:
                    continue
                misreported = bounds(i, report, true_value)
                if misreported is not None:
                    yield from _nom_witnesses(
                        i, true_value, report, truthful, misreported, scope
                    )


def check_nom(
    mechanism: Mechanism, grid: GridSpace, analytic: bool = True
) -> AxiomReport:
    """Non-obvious manipulability: no misreport beats truth in best or worst case.

    With analytic bounds (the built-in families) the verdict covers every
    real opponent profile and only the misreport ranges over the grid, so
    a pass is PASS_ANALYTIC and a FAIL is a proof. Without them both
    sides are grid-relative: a pass is only PASS_SAMPLED, and a FAIL is
    evidence at grid scope, not a proof over the reals (flagged in the
    witness and details).
    """
    bounds, scope, count = _nom_bounds(mechanism, grid, analytic)
    details: dict[str, Any] = {"scope": scope}
    if scope == "analytic" and grid.is_shared:
        details["truthful_bounds"] = {
            rat_str(v): [rat_str(b) for b in bounds(0, v, v)[:2]]
            for v in grid.shared_values
        }
    witness = next(_iter_nom(grid.values, bounds, scope), None)
    if witness is not None:
        return AxiomReport("NOM", "FAIL", witness, count, details)
    verdict = "PASS_ANALYTIC" if scope == "analytic" else "PASS_SAMPLED"
    return AxiomReport("NOM", verdict, None, count, details)


def _best_case_gaps(
    values: tuple[tuple[Fraction, ...], ...], bounds: NomBounds
) -> Iterator[dict]:
    """(agent, value) pairs whose best-case truthful utility is not the value."""
    for i, vals in enumerate(values):
        for value in vals:
            truthful = bounds(i, value, value)
            if truthful is not None and truthful[0] != value:
                yield {"agent": i, "value": value, "best_case": truthful[0]}


def check_best_case_utility(
    mechanism: Mechanism, grid: GridSpace
) -> AxiomReport:
    """Best-case truthful utility equals the full valuation (a free object).

    Meaningful only for mechanisms that are decision-efficient, individually
    rational and subsidy-free on the grid; those are checked first and a
    failure makes this check NOT_APPLICABLE. Transfers being non-negative
    caps utility at v_i, so the question is whether some opponent profile
    attains the cap. For the built-in families the all-zero opponents do,
    analytically; for black-box mechanisms only grid evidence is reported,
    over the values the grid (or its sample) actually produced.
    """
    pre = {
        "EFF": check_efficiency(mechanism, grid),
        "IR": check_ir(mechanism, grid),
        "NS": check_no_subsidy(mechanism, grid),
    }
    failing = sorted(k for k, r in pre.items() if r.verdict == "FAIL")
    if failing:
        return AxiomReport(
            "BEST_CASE",
            "NOT_APPLICABLE",
            None,
            0,
            {"reason": "precondition failed: " + ", ".join(failing)},
        )
    bounds, scope, count = _nom_bounds(mechanism, grid, analytic=True)
    gap = next(_best_case_gaps(grid.values, bounds), None)
    if scope == "analytic":
        if gap is not None:
            return AxiomReport("BEST_CASE", "FAIL", gap, 0, {"scope": "analytic"})
        return AxiomReport(
            "BEST_CASE",
            "PASS_ANALYTIC",
            None,
            0,
            {
                "scope": "analytic",
                "realizer": "all-zero opponents attain the bound",
            },
        )
    details: dict[str, Any] = {
        "scope": "grid",
        "reason": "grid evidence cannot settle a bound over all real opponents",
    }
    if gap is not None:
        details["first_unattained"] = gap
    return AxiomReport("BEST_CASE", "NOT_CERTIFIED", None, count, details)


# ---------------------------------------------------------------------------
# Welfare comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WelfareComparison:
    """Pointwise utility comparison of two mechanisms over a grid.

    DOMINATES / DOMINATED mean weakly better / worse for every agent at
    every profile with at least one strict inequality; EQUAL means
    identical utility vectors everywhere. The strict witnesses record the
    first profile (and agent) where each side strictly exceeds the other.
    """

    relation: str  # DOMINATES | DOMINATED | EQUAL | INCOMPARABLE
    strict_first: dict | None
    strict_second: dict | None
    profiles_checked: int

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "relation": self.relation,
            "profiles_checked": self.profiles_checked,
            "strict_first": None,
            "strict_second": None,
        }
        if self.strict_first is not None:
            out["strict_first"] = witness_to_json(self.strict_first)
        if self.strict_second is not None:
            out["strict_second"] = witness_to_json(self.strict_second)
        return out


def welfare_compare(
    first: Mechanism, second: Mechanism, grid: GridSpace
) -> WelfareComparison:
    """Compare two mechanisms agent by agent on every grid profile."""
    first_above: dict | None = None
    second_above: dict | None = None
    first_ge_everywhere = True
    second_ge_everywhere = True
    count = 0
    for profile in grid.profiles():
        count += 1
        us_first = utilities(first.evaluate(profile), profile)
        us_second = utilities(second.evaluate(profile), profile)
        for i, (ua, ub) in enumerate(zip(us_first, us_second)):
            if ua > ub:
                second_ge_everywhere = False
                if first_above is None:
                    first_above = {
                        "profile": profile.values,
                        "agent": i,
                        "first_utility": ua,
                        "second_utility": ub,
                    }
            elif ub > ua:
                first_ge_everywhere = False
                if second_above is None:
                    second_above = {
                        "profile": profile.values,
                        "agent": i,
                        "first_utility": ua,
                        "second_utility": ub,
                    }
    if first_above is None and second_above is None:
        relation = "EQUAL"
    elif first_ge_everywhere:
        relation = "DOMINATES"
    elif second_ge_everywhere:
        relation = "DOMINATED"
    else:
        relation = "INCOMPARABLE"
    return WelfareComparison(relation, first_above, second_above, count)


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------


def refresh_witness(
    mechanism: Mechanism, axiom: str, witness: dict, grid: GridSpace
) -> dict | None:
    """Recompute a witness's derived fields from its identifying fields.

    Returns the refreshed witness if it still demonstrates a violation,
    or None if it no longer does. Only the identifying fields (profile,
    agent, misreport, ...) are trusted; recorded utilities and bounds are
    recomputed by the same definition the scan uses.
    """
    market = grid.config
    if axiom in POINTWISE:
        return POINTWISE[axiom].refresh(mechanism, witness, market)
    if axiom == "NOM":
        analytic = witness.get("scope") == "analytic"
        if analytic and mechanism.bounds is None:
            raise ValueError("analytic witness for a family without analytic bounds")
        bounds, scope, _ = _nom_bounds(mechanism, grid, analytic)
        i = witness["agent"]
        true_value = witness["true_value"]
        report = witness["misreport"]
        truthful = bounds(i, true_value, true_value)
        misreported = bounds(i, report, true_value)
        if truthful is None or misreported is None:
            return None
        for found in _nom_witnesses(
            i, true_value, report, truthful, misreported, scope
        ):
            if found["direction"] == witness["direction"]:
                return found
        return None
    if axiom == "BEST_CASE":
        if mechanism.bounds is None:
            raise ValueError("best-case replay needs analytic bounds")
        bounds, _, _ = _nom_bounds(mechanism, grid, analytic=True)
        i = witness["agent"]
        only = tuple(
            (witness["value"],) if k == i else () for k in range(market.n)
        )
        return next(_best_case_gaps(only, bounds), None)
    raise ValueError(f"unknown axiom: {axiom}")


def replay_witness(
    mechanism: Mechanism, axiom: str, witness: dict, grid: GridSpace
) -> bool:
    """True when the witness still reproduces its violation exactly."""
    return refresh_witness(mechanism, axiom, witness, grid) is not None


CHECKERS: dict[str, Callable[[Mechanism, GridSpace], AxiomReport]] = {
    "EE": check_ee,
    "SP": check_sp,
    "NOM": check_nom,
    "EFF": check_efficiency,
    "IR": check_ir,
    "NS": check_no_subsidy,
    "EF": check_envy_freeness,
    "AIW": check_anonymity_in_welfare,
    "BEST_CASE": check_best_case_utility,
}
