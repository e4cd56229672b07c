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
reproduces the violating inequality exactly. Each axiom is defined once,
as a generator of its violations, and the check, witness replay
(`refresh_witness`) and shrinking all run that one definition. A
pointwise axiom's generator is handed (table, point, outcome): the
profile's `GridPoint` from the table's grid's one sweep (see `grid`) and
its outcome, read once by the caller; SP misreports and AIW swaps range
over the grid's value sets, and each is read off the `OutcomeTable` with
the values it holds. A witness replays on a table of the grid it was
found on, which holds its values, and witness fields are exact
`Fraction`s.

The sweeps take the table their caller built: `scan(table, axioms)`
sweeps its grid once for any number of pointwise axioms, reads the
outcome at every profile once and hands it to each generator
(`profiles_checked` counts every profile), and reports each axiom's
lexicographically first violation; an axiom runs only at profiles ranked
below its witness's, so an exhaustive scan stops running it at that
witness. On an exhaustive grid the scan first completes the table in
rank order and drops every axiom whose whole-table pass test
(`PointwiseAxiom.holds`: SP by agent-line menus, AIW by adjacent swaps)
says, on that list of outcomes, that its generator would yield nothing;
an axiom whose test fails runs its generator, the one source of
witnesses.
`audit(table, names)` gives every named axiom's report from that one
sweep, with the grid-scope NOM bounds read off the same table, and
`welfare_compare(one, two)` reads two tables on one grid. So a caller
that hands one table to all of them evaluates each swept profile once,
and the table goes when the caller drops it. Each `CHECKERS` entry is the
one-axiom `audit` on a fresh table. NOM's and BEST_CASE's generators
judge an agent's values against utility bounds over all opponents:
analytic when the mechanism has closed-form bounds, grid-relative
otherwise, compared at the grid's scale like every other sweep.

The structural checks on winner and pricing rules (`validate_winner_rule`,
`check_uncompromising`, `check_ev_support`) return the same report, with
the failed condition in `details["condition"]`; they are not in
`CHECKERS`, which maps the axioms a mechanism is audited against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import Any, Callable, Iterable, Iterator, Sequence

from .grid import (  # the grid names are part of the checkers' interface
    ENUMERATION_BUDGET,
    MODE_EXHAUSTIVE,
    MODE_SAMPLED,
    GridPoint,
    GridSpace,
    OutcomeTable,
    _refuse_other_market,
)
from .mechanisms import (
    EV,
    Entry,
    Hit,
    Mechanism,
    PricingRule,
    WinnerRule,
    first_violation,
    rule_condition_violation,
)
from .model import has_uniform_tail, integer, rat, rat_str, vickrey_price


@dataclass(frozen=True)
class AxiomReport:
    """One checker's verdict, with the first witness on FAIL.

    The axiom checkers judge a mechanism; the rule checks (`VALID`,
    `UNCOMPROMISING`, `EV_SUPPORT`) judge a winner or pricing rule, and a
    failed one names the violated condition in `details["condition"]`.
    """

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
    return value


_WITNESS_INT_FIELDS = {"agent", "other"}
_WITNESS_STR_FIELDS = {"direction", "scope"}
_WITNESS_INT_LIST_FIELDS = {"winners"}


def witness_to_json(witness: dict) -> dict:
    return {k: _jsonify(v) for k, v in witness.items()}


def witness_from_json(data: dict) -> dict:
    """Parse a serialized witness back into exact rationals; a float or a
    boolean is refused, never truncated."""
    out: dict[str, Any] = {}
    for key, value in data.items():
        if key in _WITNESS_STR_FIELDS:
            out[key] = str(value)
        elif key in _WITNESS_INT_FIELDS:
            out[key] = integer(value, key)
        elif key in _WITNESS_INT_LIST_FIELDS:
            out[key] = [integer(v, key) for v in value]
        elif isinstance(value, list):
            out[key] = tuple(rat(v) for v in value)
        else:
            out[key] = rat(value)
    return out


# ---------------------------------------------------------------------------
# Pointwise axioms
# ---------------------------------------------------------------------------

def _matching(found: Iterable[dict], witness: dict, identity: Sequence[str]) -> dict | None:
    """The first violation whose `identity` fields equal the witness's, or None."""
    return next((f for f in found if all(f[k] == witness[k] for k in identity)), None)


@dataclass(frozen=True)
class PointwiseAxiom:
    """An axiom that holds or fails profile by profile.

    `violations(table, point, outcome)` yields every violation at one
    profile, in witness-key order, from the mechanism's `outcome` there,
    which the caller read; a deviation ranges over the value sets of the
    table's grid and is read off the `OutcomeTable` with its own values. A
    witness is identified by its profile plus the `identity` fields; its
    sort key is that tuple, and the scan reports the smallest key found.
    Replay runs the same generator on a table of the grid the witness was
    found on and keeps the violation whose identity matches, so the scan
    and the replay cannot drift apart.

    `holds(grid, outs)`, where given, is a whole-table pass test on the
    outcome of every rank of an exhaustive grid, in rank order
    (`OutcomeTable.complete`): True exactly when the generator yields
    nothing at any profile, so a scan may skip the axiom; False says only
    that the generator must run. It never makes a witness.
    """

    name: str
    identity: tuple[str, ...]
    violations: Callable[[OutcomeTable, GridPoint, tuple], Iterator[dict]]
    holds: Callable[[GridSpace, Sequence[tuple]], bool] | None = None

    def refresh(self, table: OutcomeTable, witness: dict) -> dict | None:
        """The violation with the witness's identity, recomputed at its
        profile on the table's grid, or None. A profile off the grid's value
        sets is refused; a deviation off them never matches."""
        at = table.grid.point(witness["profile"])
        found = self.violations(table, at, table.read(at.rank, at.scaled))
        return _matching(found, witness, self.identity)


def _ir_violations(table: OutcomeTable, at: GridPoint, outcome: tuple) -> Iterator[dict]:
    """Individual rationality: every agent's utility is non-negative."""
    x, t = outcome
    for i, v in enumerate(at.scaled):
        u = v * x[i] - t[i]
        if u < 0:
            yield {"profile": at.values, "agent": i, "utility": table.grid.exact(u)}


def _ns_violations(table: OutcomeTable, at: GridPoint, outcome: tuple) -> Iterator[dict]:
    """No subsidy: no agent is ever paid money (every transfer is >= 0)."""
    _, t = outcome
    for i, paid in enumerate(t):
        if paid < 0:
            yield {"profile": at.values, "agent": i, "transfer": table.grid.exact(paid)}


def _sp_violations(table: OutcomeTable, at: GridPoint, outcome: tuple) -> Iterator[dict]:
    """Strategy-proofness: no single-agent misreport ever pays.

    Each agent misreports every other value of their set, so on an
    exhaustive sweep the verdict is exhaustive at grid scope.

    At the grid's top value no higher report exists, so a winner there may
    pay their own value: of the 675 EE+IR+NS+SP mechanisms of (2,1) on
    0..2, 483 lie outside the selective Vickrey class. Below the top the
    "only if" holds (`tests/test_soundness.py`).

    Each misreport is read off the table with the point's values, its
    own report in agent i's place (a fill is kept only at a rank of the
    grid's sweep, so off a sample's draws it is evaluated at every read);
    for a mechanism that declares its breakpoints, the reads that cannot
    pay are skipped. With the other agents' values fixed, agent i's order
    cells are "below theta", "at theta" and "above theta", where theta is
    the m-th highest of the others' values: i's critical value, the one
    price on i's menu. Within one cell i's utility is constant or falls
    as the report rises (see `Mechanism`). An agent's reports are read in
    ascending order, so once a report of a cell does not beat the
    truthful utility (the truthful report never does), no higher report
    of that cell can, and skipping them leaves the violations yielded,
    and their order, as they were. A cell is numbered
    `(report > theta) + (report >= theta)`. The argument holds in every
    cell whatever the report's rank, and whether its outcome is kept, so
    the cut applies to every misreport; CUSTOM and rule-table mechanisms
    (breakpoints None) read every misreport.
    """
    grid, read = table.grid, table.read
    cells = table.mechanism.breakpoints is not None
    m = grid.config.m
    x, t = outcome
    scaled = at.scaled
    for i, v in enumerate(scaled):
        honest = v * x[i] - t[i]
        own, step = at.index[i], grid.stride[i]
        base = at.rank - own * step
        theta = None  # the m-th highest of the others' values, found when first needed
        dead = -1  # the cell of the last skippable report that did not pay
        for k, report in enumerate(grid.scaled[i]):
            if k == own:
                continue
            if cells:
                if theta is None:
                    theta = sorted(scaled[:i] + scaled[i + 1:])[-m]
                    truth = (v > theta) + (v >= theta)
                cell = (report > theta) + (report >= theta)
                if cell == dead or (k > own and cell == truth):
                    continue
            dx, dt = read(base + k * step, scaled[:i] + (report,) + scaled[i + 1:])
            gained = v * dx[i] - dt[i]
            if gained > honest:
                yield {
                    "profile": at.values,
                    "agent": i,
                    "misreport": grid.values[i][k],
                    "truthful_utility": grid.exact(honest),
                    "misreport_utility": grid.exact(gained),
                }
            elif cells:
                dead = cell


def _sp_holds(grid: GridSpace, outs: Sequence[tuple]) -> bool:
    """Whether no misreport pays anywhere on an exhaustive grid, given the
    outcome of every rank in rank order (`outs`).

    On an agent line (agent i, the others' values fixed) i's reports
    offer a menu, and by the taxation principle its best option at true
    value v is the larger of v - w and -l, where w and l are the least
    transfers over the line's winning and losing reports. The truthful
    report is on the line, so no misreport pays at v exactly when neither
    beats the truthful utility. It reads only outcomes, so it is exact for
    CUSTOM and rule-table mechanisms too.
    """
    for i, (values, step) in enumerate(zip(grid.scaled, grid.stride)):
        span = step * len(values)
        bundles = [(x[i], t[i]) for x, t in outs]
        for top in range(0, grid.size, span):
            for base in range(top, top + step):
                line = bundles[base : base + span : step]
                menu = set(line)
                if len(menu) == 1:
                    continue  # every report gets the truthful bundle
                win = min((t for x, t in menu if x), default=None)
                lose = min((t for x, t in menu if not x), default=None)
                for v, (x, t) in zip(values, line):
                    honest = v - t if x else -t
                    if win is not None and v - win > honest or lose is not None and -lose > honest:
                        return False
    return True


def reference_bundle(values: Sequence, utilities: Sequence) -> tuple | None:
    """The bundle (x, t) every agent is exactly indifferent to, given each
    agent's value and utility, or None if there is none.

    Only two shapes can work: (0, t0), which requires all utilities
    equal (returned first), and (1, p), which requires v_i - u_i to be
    the same for every agent. Anything else makes some agent strictly
    prefer or disprefer it.
    """
    if utilities.count(utilities[0]) == len(utilities):
        return (0, -utilities[0])
    diffs = [v - u for v, u in zip(values, utilities)]
    if diffs.count(diffs[0]) == len(diffs):
        return (1, diffs[0])
    return None


def _ee_violations(table: OutcomeTable, at: GridPoint, outcome: tuple) -> Iterator[dict]:
    """Egalitarian-equivalence: a reference bundle exists at every profile."""
    x, t = outcome
    us = [v * xi - ti for v, xi, ti in zip(at.scaled, x, t)]
    if reference_bundle(at.scaled, us) is None:
        yield {"profile": at.values, "utilities": tuple(map(table.grid.exact, us))}


def _eff_violations(table: OutcomeTable, at: GridPoint, outcome: tuple) -> Iterator[dict]:
    """Decision efficiency: the objects always go to a surplus-maximizing set."""
    x, _ = outcome
    achieved = sum(v for v, xi in zip(at.scaled, x) if xi)
    optimum = sum(sorted(at.scaled, reverse=True)[: table.grid.config.m])
    if achieved != optimum:
        yield {
            "profile": at.values,
            "achieved": table.grid.exact(achieved),
            "optimum": table.grid.exact(optimum),
        }


def _ef_violations(table: OutcomeTable, at: GridPoint, outcome: tuple) -> Iterator[dict]:
    """Envy-freeness: no agent prefers another agent's bundle to their own."""
    x, t = outcome
    for i, v in enumerate(at.scaled):
        own = v * x[i] - t[i]
        for j in range(len(x)):
            if j == i:
                continue
            envied = v * x[j] - t[j]
            if envied > own:
                yield {
                    "profile": at.values,
                    "agent": i,
                    "other": j,
                    "own_utility": table.grid.exact(own),
                    "other_bundle_utility": table.grid.exact(envied),
                }


def _aiw_violations(table: OutcomeTable, at: GridPoint, outcome: tuple) -> Iterator[dict]:
    """Anonymity in welfare: swapping two agents' valuations swaps their utilities.

    A grid whose agents hold different value sets is refused, since a
    swap could leave it. With one shared set the swap moves agent i's
    index to j and back: one rank step per agent, and it is read with
    the point's values swapped. Off a sample's draws a swap is not kept,
    so each ordered pair evaluates it: at most 1 + n(n-1) evaluations
    per draw.
    """
    if not table.grid.is_shared:
        raise ValueError("anonymity in welfare needs a shared value set across agents")
    x, t = outcome
    index, stride, scaled = at.index, table.grid.stride, at.scaled
    for i, v in enumerate(scaled):
        mine = v * x[i] - t[i]
        for j in range(len(x)):
            if j == i:
                continue
            swap = list(scaled)
            swap[i], swap[j] = scaled[j], v
            sx, st = table.read(at.rank + (index[j] - index[i]) * (stride[i] - stride[j]),
                                tuple(swap))
            theirs = v * sx[j] - st[j]
            if mine != theirs:
                swapped = list(at.values)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                yield {
                    "profile": at.values,
                    "agent": i,
                    "other": j,
                    "swapped_profile": tuple(swapped),
                    "utility": table.grid.exact(mine),
                    "swapped_utility": table.grid.exact(theirs),
                }


def _aiw_holds(grid: GridSpace, outs: Sequence[tuple]) -> bool:
    """Whether every swap keeps utilities on an exhaustive grid, given the
    outcome of every rank in rank order (`outs`).

    At every profile and for each k < n-1, agent k's utility must equal
    agent k+1's at the profile with those two values swapped, and, for
    k > 0, agent 0's utility must not move. Read at every profile, the
    first moves an agent's value to any place with the other values in
    their order; the second reorders the values other than agent 0's,
    as adjacent swaps of agents 1..n-1 generate every order of them. So
    each utility depends only on the agent's value and the profile's
    values as a multiset, which holds exactly when every swap the
    generator reads keeps utilities. The first alone would pass a
    mechanism that pays an agent by the order of the others' values.
    Agent 0's check is symmetric, so it is read once per pair, from the
    profile whose agent k holds the lower value; an equal bundle needs no
    utilities. A grid whose agents hold different value sets is left to
    the generator, which refuses it.
    """
    if not grid.is_shared:
        return False
    n, stride = grid.config.n, grid.stride
    swaps = [(k, k + 1, stride[k] - stride[k + 1]) for k in range(n - 1)]
    indices = itertools.product(range(len(grid.scaled[0])), repeat=n)
    for rank, (index, scaled) in enumerate(zip(indices, itertools.product(*grid.scaled))):
        x, t = outs[rank]
        for k, j, step in swaps:
            gap = index[j] - index[k]
            sx, st = outs[rank + gap * step]
            if x[k] != sx[j] or t[k] != st[j]:
                v = scaled[k]
                if v * x[k] - t[k] != v * sx[j] - st[j]:
                    return False
            if k and gap > 0 and (x[0] != sx[0] or t[0] != st[0]):
                v = scaled[0]
                if v * x[0] - t[0] != v * sx[0] - st[0]:
                    return False
    return True


POINTWISE: dict[str, PointwiseAxiom] = {
    axiom.name: axiom
    for axiom in (
        PointwiseAxiom("IR", ("agent",), _ir_violations),
        PointwiseAxiom("NS", ("agent",), _ns_violations),
        PointwiseAxiom("SP", ("agent", "misreport"), _sp_violations, _sp_holds),
        PointwiseAxiom("EE", (), _ee_violations),
        PointwiseAxiom("EFF", (), _eff_violations),
        PointwiseAxiom("EF", ("agent", "other"), _ef_violations),
        PointwiseAxiom("AIW", ("agent", "other"), _aiw_violations, _aiw_holds),
    )
}


def scan(table: OutcomeTable, axioms: Sequence[PointwiseAxiom]) -> dict[str, AxiomReport]:
    """Sweep the table's grid once for several pointwise axioms; reports by name.

    Each axiom keeps its own smallest-key violation, so its report is the
    one it would get alone. Ranks order profiles as their values do, and
    a key starts with the rank, so one rule decides where an axiom runs:
    only at a profile ranked below its witness's. There its first
    violation has a smaller key than the witness, and anywhere else none
    does. An exhaustive sweep visits ranks in increasing order, so an
    axiom stops at its first witness; in a sample, which may repeat or
    reorder profiles, a failed axiom runs only at the draws that can
    still lower its key. Either way the outcome at every swept profile is
    read once (and so checked) and handed to every axiom that runs there,
    and `profiles_checked` counts every profile; deviation outcomes are
    read only where an axiom runs.

    On an exhaustive grid every SP and AIW deviation is a swept profile,
    so the scan first completes the table (`OutcomeTable.complete`, the
    same fills in rank order, refusing a malformed outcome as the sweep
    would), skips each axiom whose pass test `holds` on that list of
    outcomes (it passes with the report it would get from the sweep), and
    sweeps the list by rank.
    """
    grid = table.grid
    found: list[dict | None] = [None] * len(axioms)  # the witness per axiom
    below = [grid.size] * len(axioms)  # the rank of that witness; every rank is below size
    axes = list(enumerate(axioms))
    outs = None
    if grid.mode == MODE_EXHAUSTIVE:
        outs = table.complete()
        axes = [(k, axiom) for k, axiom in axes
                if axiom.holds is None or not axiom.holds(grid, outs)]
    read = table.read
    count = 0
    for at in grid.profiles():
        count += 1
        rank = at.rank
        # every profile's outcome is checked, whichever axioms run
        outcome = read(rank, at.scaled) if outs is None else outs[rank]
        for k, axiom in axes:
            if rank < below[k]:
                hit = next(axiom.violations(table, at, outcome), None)
                if hit is not None:
                    found[k], below[k] = hit, rank
    return {
        axiom.name: AxiomReport(axiom.name, grid.pass_verdict, None, count)
        if witness is None
        else AxiomReport(axiom.name, "FAIL", witness, count)
        for axiom, witness in zip(axioms, found)
    }


# ---------------------------------------------------------------------------
# Manipulation bounds (best/worst case over all real opponents)
# ---------------------------------------------------------------------------


def _grid_bundle_map(table: OutcomeTable) -> tuple[dict, int]:
    """For each (agent, scaled report): every bundle (x, scaled t) the agent
    got on the table's grid, with the (rank, values) of the least profile
    that produced it, and the number of profiles swept."""
    # rank order is profile order, and a sampled profile may repeat
    seen: dict[tuple[int, Any], dict[tuple, tuple]] = {}
    count = 0
    for at in table.grid.profiles():
        count += 1
        x, t = table.read(at.rank, at.scaled)
        for i, value in enumerate(at.scaled):
            slot = seen.setdefault((i, value), {})
            bundle = (x[i], t[i])
            held = slot.get(bundle)
            if held is None or at.rank < held[0]:
                slot[bundle] = (at.rank, at.values)
    return seen, count


def _grid_report_bounds(agent: int, slot: dict[tuple, tuple], true_value: Any) -> tuple:
    """(sup, inf, sup realizer, inf realizer) over the grid's observed
    bundles, at the grid's scale; a realizer is the opponents of the least
    profile attaining the bound. With the agent's report fixed, rank order
    is the opponents' order."""
    best = worst = None  # (utility, rank, values)
    for (x, t), (rank, values) in slot.items():
        u = true_value * x - t
        if best is None or u > best[0] or (u == best[0] and rank < best[1]):
            best = (u, rank, values)
        if worst is None or u < worst[0] or (u == worst[0] and rank < worst[1]):
            worst = (u, rank, values)
    return (
        best[0],
        worst[0],
        best[2][:agent] + best[2][agent + 1 :],
        worst[2][:agent] + worst[2][agent + 1 :],
    )


@dataclass(frozen=True)
class NomBounds:
    """The utility bounds NOM and BEST_CASE compare, at a grid's scale.

    `at(agent, report, true_value)`, with the report and the true value
    multiplied by the `grid`'s scale, is the (sup, inf, sup realizer, inf
    realizer) of the agent's utility, the bounds multiplied by that scale
    too, or None when the scope saw nothing of that report. `scope` is
    "analytic" or "grid", and `swept` counts the profiles swept to get
    them. The generators read each agent's values, exact and scaled, off
    the grid, and make a bound an exact `Fraction` (`GridSpace.exact`) only
    when a witness or detail is written.
    """

    at: Callable[[int, Any, Any], "tuple | None"]
    scope: str
    grid: GridSpace
    swept: int


def _nom_bounds(table: OutcomeTable) -> NomBounds:
    """The utility bounds NOM and BEST_CASE compare for the table's
    mechanism, at its grid's scale.

    With the mechanism's closed-form bounds (the built-in families) they
    range over every real opponent profile, read at the grid's scale, and
    all-zero opponents are recorded as the best-case realizer. Otherwise
    they range over the bundles the table's grid produced, with the
    smallest opponent profile producing each bound.
    """
    mechanism, grid = table.mechanism, table.grid
    market = grid.config
    if mechanism.bounds is not None:
        closed, m = mechanism.bounds, market.m
        zeros = (Fraction(0),) * (market.n - 1)

        def analytic_bounds(agent, report, true_value):
            sup, inf = closed(agent, m, report, true_value, grid.scale)
            return sup, inf, zeros, None

        return NomBounds(analytic_bounds, "analytic", grid, 0)
    seen, count = _grid_bundle_map(table)

    def grid_bounds(agent, report, true_value):
        slot = seen.get((agent, report))
        if slot is None:
            return None  # value never sampled, nothing to compare against
        return _grid_report_bounds(agent, slot, true_value)

    return NomBounds(grid_bounds, "grid", grid, count)


@dataclass(frozen=True)
class BoundAxiom:
    """An axiom judged on one agent's utility bounds, value by value.

    `violations(bounds)` yields every violation over the value sets of
    the bounds' grid, in grid order, under the bounds `_nom_bounds` gives.
    It compares the values and bounds at the grid's scale and makes exact
    `Fraction`s (`GridSpace.exact`) only for the witness it yields. A
    witness is identified by its `identity` fields. The check reports the
    first violation; replay runs the same generator on the bounds of the
    table it is handed and keeps the violation whose identity matches. A
    witness replays only at the scope of the mechanism's bounds; one
    without `scope` is analytic.
    """

    name: str
    identity: tuple[str, ...]
    violations: Callable[[NomBounds], Iterator[dict]]

    def refresh(self, table: OutcomeTable, witness: dict) -> dict | None:
        """The violation with the witness's identity, recomputed, or None.
        Grid-scope bounds are swept again, on the table handed in."""
        bounds = _nom_bounds(table)
        recorded = witness.get("scope", "analytic")
        if recorded != bounds.scope:
            raise ValueError(
                f"{self.name} witness at {recorded} scope cannot replay "
                f"on a mechanism with {bounds.scope} bounds"
            )
        return _matching(self.violations(bounds), witness, self.identity)


def _nom_violations(bounds: NomBounds) -> Iterator[dict]:
    """Every obvious manipulation, by agent, true value and misreport; SUP
    before INF.

    A misreport is an obvious manipulation when it beats truth-telling in
    the best case (SUP) or the worst case (INF) over opponents.
    """
    at, grid = bounds.at, bounds.grid
    for i, (values, scaled) in enumerate(zip(grid.values, grid.scaled)):
        for true_value, v in zip(values, scaled):
            truthful = at(i, v, v)
            if truthful is None:
                continue
            for report, r in zip(values, scaled):
                if r == v:
                    continue
                misreported = at(i, r, v)
                if misreported is None:
                    continue
                for pick, direction in enumerate(("SUP", "INF")):
                    if misreported[pick] <= truthful[pick]:
                        continue
                    witness = {
                        "agent": i,
                        "true_value": true_value,
                        "misreport": report,
                        "direction": direction,
                        "truthful_bound": grid.exact(truthful[pick]),
                        "misreport_bound": grid.exact(misreported[pick]),
                    }
                    if misreported[2 + pick] is not None:
                        witness["realizing_opponents"] = misreported[2 + pick]
                    witness["scope"] = bounds.scope
                    yield witness


def _best_case_gaps(bounds: NomBounds) -> Iterator[dict]:
    """(agent, value) pairs whose best-case truthful utility is not the value."""
    grid = bounds.grid
    for i, (values, scaled) in enumerate(zip(grid.values, grid.scaled)):
        for value, v in zip(values, scaled):
            truthful = bounds.at(i, v, v)
            if truthful is not None and truthful[0] != v:
                yield {"agent": i, "value": value, "best_case": grid.exact(truthful[0])}


BY_BOUNDS: dict[str, BoundAxiom] = {
    axiom.name: axiom
    for axiom in (
        BoundAxiom("NOM", ("agent", "true_value", "misreport", "direction"), _nom_violations),
        BoundAxiom("BEST_CASE", ("agent", "value"), _best_case_gaps),
    )
}


def _nom_report(bounds: NomBounds) -> AxiomReport:
    """Non-obvious manipulability, under the bounds `_nom_bounds` gave: no
    misreport beats truth in the best or the worst case.

    With analytic bounds (the built-in families) the verdict covers every
    real opponent profile and only the misreport ranges over the grid, so
    a pass is PASS_ANALYTIC and a FAIL is a proof. Without them (rule
    tables, custom mechanisms) both sides are grid-relative: a pass is
    only PASS_SAMPLED, and a FAIL is evidence at grid scope, not a proof
    over the reals (flagged in the witness and details). On a shared grid
    with analytic bounds, `details["truthful_bounds"]` maps each value to
    the truthful (sup, inf), given only when every agent's bounds agree.
    """
    scope, count, grid = bounds.scope, bounds.swept, bounds.grid
    details: dict[str, Any] = {"scope": scope}
    if scope == "analytic" and grid.is_shared:
        agents, at = grid.config.agents, bounds.at
        truthful = [{at(i, v, v)[:2] for i in agents} for v in grid.scaled[0]]
        if all(len(same) == 1 for same in truthful):
            details["truthful_bounds"] = {
                rat_str(v): [rat_str(grid.exact(b)) for b in same.pop()]
                for v, same in zip(grid.values[0], truthful)
            }
    witness = next(BY_BOUNDS["NOM"].violations(bounds), None)
    if witness is not None:
        return AxiomReport("NOM", "FAIL", witness, count, details)
    verdict = "PASS_ANALYTIC" if scope == "analytic" else "PASS_SAMPLED"
    return AxiomReport("NOM", verdict, None, count, details)


_BEST_CASE_PRECONDITION = ("EFF", "IR", "NS")


def _best_case_report(
    swept: dict[str, AxiomReport], nom_bounds: Callable[[], NomBounds]
) -> AxiomReport:
    """Best-case truthful utility equals the full valuation (a free object).

    Meaningful only for mechanisms that are decision-efficient, individually
    rational and subsidy-free on the grid; those are read off the EFF, IR
    and NS reports of the mechanism's one sweep (`swept`), and a failure
    makes this NOT_APPLICABLE. Transfers being non-negative caps utility
    at v_i, so the question is whether some opponent profile attains the
    cap. For the built-in families the all-zero opponents do, analytically;
    for black-box mechanisms only grid evidence is reported, over the
    values the grid (or its sample) actually produced. The bounds come
    from `nom_bounds()`, called only when the precondition holds.
    """
    failing = sorted(k for k in _BEST_CASE_PRECONDITION if swept[k].verdict == "FAIL")
    if failing:
        return AxiomReport(
            "BEST_CASE",
            "NOT_APPLICABLE",
            None,
            0,
            {"reason": "precondition failed: " + ", ".join(failing)},
        )
    bounds = nom_bounds()
    gap = next(BY_BOUNDS["BEST_CASE"].violations(bounds), None)
    if bounds.scope == "analytic":
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
    return AxiomReport("BEST_CASE", "NOT_CERTIFIED", None, bounds.swept, details)


def audit(table: OutcomeTable, names: Sequence[str]) -> dict[str, AxiomReport]:
    """Each named axiom's report on the table's mechanism over its grid, by name.

    One `scan` of the table sweeps every named pointwise axiom, plus EFF,
    IR and NS when BEST_CASE is named, whose precondition reads them off
    that scan. NOM and BEST_CASE share one `_nom_bounds` call on the same
    table, made only if one of them needs it. Each report is the one the
    axiom's `CHECKERS` entry gives alone; a name given twice is audited
    once.
    """
    swept = set(names)
    if "BEST_CASE" in swept:
        swept.update(_BEST_CASE_PRECONDITION)
    pointwise = [axiom for name, axiom in POINTWISE.items() if name in swept]
    reports = scan(table, pointwise) if pointwise else {}
    nom_bounds = cache(partial(_nom_bounds, table))
    if "NOM" in swept:
        reports["NOM"] = _nom_report(nom_bounds())
    if "BEST_CASE" in swept:
        reports["BEST_CASE"] = _best_case_report(reports, nom_bounds)
    return {name: reports[name] for name in names}


def _audit_one(name: str, mechanism: Mechanism, grid: GridSpace) -> AxiomReport:
    """The named axiom's report on the mechanism over the grid: the
    one-axiom `audit` on a fresh table. Every `CHECKERS` entry is this."""
    return audit(OutcomeTable(mechanism, grid), (name,))[name]


CHECKERS: dict[str, Callable[[Mechanism, GridSpace], AxiomReport]] = {
    name: partial(_audit_one, name)
    for name in ("EE", "SP", "NOM", "EFF", "IR", "NS", "EF", "AIW", "BEST_CASE")
}


# ---------------------------------------------------------------------------
# Rule conditions (selective Vickrey winner rules, EV/PAB pricing rules)
# ---------------------------------------------------------------------------


def _scan_report(
    axiom: str, entries: tuple[int, Hit | None], verdict: str, details: dict
) -> AxiomReport:
    """`verdict` when a table's entry scan found no violation, else FAIL
    with the first one's witness and condition."""
    checked, hit = entries
    if hit is None:
        return AxiomReport(axiom, verdict, None, checked, details)
    condition, witness = hit
    details = {**details, "condition": condition}
    return AxiomReport(axiom, "FAIL", witness, checked, details)


def _rule_entries(rule: WinnerRule, grid: GridSpace) -> Iterator[Entry]:
    """The entries a rule check walks, at the grid's scale: a table's
    entries on the grid's value sets in sorted order, or, for a rule
    without a table, the rule's pick at each profile the grid sweeps, in
    grid order."""
    market, scale = grid.config, grid.scale
    if rule.table is not None:
        return rule.entries(scale, [frozenset(vals) for vals in grid.scaled])
    pick = rule.pick
    return (
        (at.values, at.scaled, frozenset(pick(at.scaled, market, scale)))
        for at in grid.profiles()
    )


def validate_winner_rule(rule: WinnerRule, grid: GridSpace) -> AxiomReport:
    """VALID: selection conditions (i)-(iv).

    A rule whose constructor set closed-form bounds (the built-in
    families) satisfies them by construction, so the verdict is analytic.
    A rule table is checked entry by entry; profiles off the table select
    nobody and satisfy every condition vacuously, so the entry scan is
    complete as well. Any other rule is checked at every profile the grid
    sweeps, a verdict at grid scope.
    """
    if rule.bounds is not None:
        details = {"method": "family satisfies the conditions by construction"}
        return AxiomReport("VALID", "PASS_ANALYTIC", details=details)
    if rule.table is None:
        violation = partial(rule_condition_violation, grid.config)
        return _scan_report(
            "VALID",
            first_violation(_rule_entries(rule, grid), violation),
            grid.pass_verdict,
            {"scope": "grid"},
        )
    _refuse_other_market(rule.market, grid.config)
    return _scan_report(
        "VALID",
        rule.conditions,
        "PASS_ANALYTIC",
        {"method": "entry scan (off-table profiles select nobody)"},
    )


def check_uncompromising(rule: WinnerRule, grid: GridSpace) -> AxiomReport:
    """UNCOMPROMISING: a selected agent stays selected after raising their report.

    Required: if agent i is selected at v and v'_i exceeds the Vickrey
    price of v, then i is still selected at (v'_i, v_-i). A rule whose
    constructor set closed-form bounds (the built-in families) satisfies
    this for every real-valued raise (analytic verdict). A rule table is
    checked over the grid's value sets, the scope the strategy checkers
    use: each table entry on those sets is raised to every grid value
    above its price. Off-table profiles select nobody, so this covers
    every profile of the grid, sampled or not. Any other rule is raised
    the same way at every profile the grid sweeps. Either walk reads the
    profiles, their prices and the raises on the grid's values scaled to
    ints, and the rule's `pick` at that scale; witnesses hold exact values.
    """
    if rule.bounds is not None:
        details = {"method": "raising a selected report keeps the rule's trigger"}
        return AxiomReport("UNCOMPROMISING", "PASS_ANALYTIC", details=details)
    _refuse_other_market(rule.market, grid.config)
    market, scale = grid.config, grid.scale
    pick = rule.pick
    # each agent's raises: (scaled, exact) for every value of their set
    raises = [tuple(zip(ups, exact)) for ups, exact in zip(grid.scaled, grid.values)]

    def dropped(values: tuple[Fraction, ...], at: tuple, selected: frozenset[int]) -> Hit | None:
        price = vickrey_price(at, market.m)
        for i in sorted(selected):
            for up, raised in raises[i]:
                if up > price and i not in pick(at[:i] + (up,) + at[i + 1 :], market, scale):
                    witness = {"profile": values, "agent": i, "raised_value": raised}
                    return "selected agent dropped after raising their report", witness
        return None

    entries = first_violation(_rule_entries(rule, grid), dropped)
    verdict = grid.pass_verdict if rule.table is None else "PASS_EXHAUSTIVE"
    return _scan_report("UNCOMPROMISING", entries, verdict, {"scope": "grid"})


def check_ev_support(pricing: PricingRule, grid: GridSpace) -> AxiomReport:
    """EV_SUPPORT: every positive valuation can reach an efficient-Vickrey outcome.

    Required: for each agent i and each v_i > 0 there are opponents, with
    minimum valuation zero, forming a uniform-tail profile the rule prices
    EV. The built-in families settle this analytically (`reaches_ev`). A
    finite pricing table can only ever be certified relative to the
    grid's value sets: values it never mentions fall back to pay-as-bid.
    Any other rule is walked: its branch is read at every uniform-tail
    profile the grid sweeps, a verdict at grid scope.
    """
    reaches = pricing.reaches_ev
    if reaches:
        details = {"witness_shape": "all-zero opponents price at zero, classified EV"}
        return AxiomReport("EV_SUPPORT", "PASS_ANALYTIC", details=details)
    if reaches is False:
        first_positive = next((v for v in grid.values[0] if v > 0), Fraction(1))
        witness = {"agent": 0, "value": first_positive}
        details = {"condition": "no profile is ever classified EV"}
        return AxiomReport("EV_SUPPORT", "FAIL", witness, details=details)
    _refuse_other_market(pricing.market, grid.config)
    market, m, scale = grid.config, grid.config.m, grid.scale
    if pricing.table is not None:
        # Every entry counts: an off-grid opponent can support an on-grid agent.
        priced = (key for key, mode in pricing.keyed(scale).items()
                  if mode == EV and has_uniform_tail(key, m))
    else:
        branch = pricing.branch
        priced = (at.scaled for at in grid.profiles()
                  if has_uniform_tail(at.scaled, m) and branch(at.scaled, market, scale) == EV)
    supported = set()  # (agent, scaled value) pairs an EV-priced profile reaches
    for key in priced:
        zeros = key.count(0)  # an agent is reached if some opponent reports 0
        supported.update((i, v) for i, v in enumerate(key) if zeros > (v == 0))
    wanted = [(i, up, value) for i in market.agents
              for up, value in zip(grid.scaled[i], grid.values[i]) if value > 0]
    details = {"scope": "grid"}
    for checked, (i, up, value) in enumerate(wanted, 1):
        if (i, up) not in supported:
            details["condition"] = "no EV-classified profile supports this valuation"
            witness = {"agent": i, "value": value}
            return AxiomReport("EV_SUPPORT", "FAIL", witness, checked, details)
    if pricing.table is None:
        return AxiomReport("EV_SUPPORT", grid.pass_verdict, None, len(wanted), details)
    details["reason"] = "a finite table cannot cover every positive valuation"
    return AxiomReport("EV_SUPPORT", "NOT_CERTIFIED", None, len(wanted), details)


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

    @property
    def never_beaten(self) -> bool:
        """The second mechanism never gives anyone strictly more: the
        relation is DOMINATES or EQUAL."""
        return self.strict_second is None

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


def welfare_compare(one: OutcomeTable, two: OutcomeTable) -> WelfareComparison:
    """Compare two tables' mechanisms agent by agent on every profile of
    their one grid; tables on different grids are refused."""
    grid = one.grid
    if two.grid != grid:
        raise ValueError("welfare_compare needs two tables on one grid")
    above: dict[bool, dict] = {}  # first strict witness, by whether `first` is above
    count = 0
    for at in grid.profiles():
        count += 1
        (xa, ta), (xb, tb) = one.read(at.rank, at.scaled), two.read(at.rank, at.scaled)
        for i, v in enumerate(at.scaled):
            ua, ub = v * xa[i] - ta[i], v * xb[i] - tb[i]
            if ua != ub and (ua > ub) not in above:
                above[ua > ub] = {
                    "profile": at.values,
                    "agent": i,
                    "first_utility": grid.exact(ua),
                    "second_utility": grid.exact(ub),
                }
    first_above, second_above = above.get(True), above.get(False)
    relation = {
        (False, False): "EQUAL",
        (True, False): "DOMINATES",
        (False, True): "DOMINATED",
        (True, True): "INCOMPARABLE",
    }[(first_above is not None, second_above is not None)]
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
    recomputed by the same definition the scan uses, on a fresh table of
    the grid, which must hold the witness's values.
    """
    definition = POINTWISE.get(axiom) or BY_BOUNDS.get(axiom)
    if definition is None:
        raise ValueError(f"unknown axiom: {axiom}")
    return definition.refresh(OutcomeTable(mechanism, grid), witness)


def replay_witness(
    mechanism: Mechanism, axiom: str, witness: dict, grid: GridSpace
) -> bool:
    """True when the witness still reproduces its violation exactly."""
    return refresh_witness(mechanism, axiom, witness, grid) is not None
