"""Witness shrinking, random rule tables, and mechanism comparison suites.

The suites pin down the behavioral fingerprints of the built-in
mechanism families on small shared grids: which axiom each mechanism
drops, that every valid uncompromising winner rule yields a clean
strategy-proof mechanism, that the EV/PAB family trades efficiency
against manipulability, and how the pricing variants rank in welfare.
Each suite carries its own expected pattern so a caller can ask whether
reality still matches it. Every suite sweeps `SUITE_GRID`, each mechanism
once, on an `OutcomeTable` the suite builds and hands to `axioms.audit`
or `axioms.welfare_compare` (the welfare suite builds its base table once
for all its rivals). A suite is a list of rows (label, report per column,
the columns expected to read other than PASS) that `SuiteResult.from_rows`
turns into the matrix.

Grids are declared with `axioms.GridSpace` (`GridSpace.shared`,
`GridSpace.from_range`). `GridConfig` is only the values-only form the
benchmark harness still calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from .axioms import (
    POINTWISE,
    AxiomReport,
    GridSpace,
    OutcomeTable,
    audit,
    check_ev_support,
    check_uncompromising,
    validate_winner_rule,
    welfare_compare,
    witness_to_json,
)
from .mechanisms import (
    Mechanism,
    PricingRule,
    WinnerRule,
    ev_pab_mechanism,
    no_trade_mechanism,
    pay_as_bid_mechanism,
    selective_vickrey_mechanism,
    vickrey_mechanism,
)
from .model import MarketConfig, RationalLike, vickrey_price


@dataclass(frozen=True)
class GridConfig:
    """n agents and m objects sharing `values`: `GridSpace.shared` in the
    form `bench/` still calls. It goes once the bench builds its grid with
    `GridSpace.shared` (ROADMAP item 1)."""

    n: int
    m: int
    values: Iterable[RationalLike]

    def space(self) -> GridSpace:
        return GridSpace.shared(MarketConfig(self.n, self.m), self.values)


def shrink_witness(
    mechanism: Mechanism,
    axiom: str,
    witness: dict,
    grid: GridSpace,
) -> dict:
    """Greedily lower a witness's coordinates while the violation persists.

    Coordinates are the profile entries in agent order, then the
    misreport if the witness has one. Each is walked down one grid value
    at a time; a step is kept only when the refreshed witness still
    violates. Passes repeat until nothing moves, so the result is a
    deterministic local minimum (not a global one). Every step replays on
    one table of the grid. On an exhaustive grid the table keeps every
    outcome, so no profile is evaluated twice; on a sampled one it keeps
    only the drawn profiles, so a candidate off the draws, and each of its
    misreports that can still pay, is evaluated again at every step that
    reads it.
    """
    if axiom not in POINTWISE:
        raise ValueError(f"shrinking is not defined for {axiom} witnesses")
    definition, table = POINTWISE[axiom], OutcomeTable(mechanism, grid)
    current = definition.refresh(table, witness)
    if current is None:
        raise ValueError("witness does not replay to a violation")

    identity = definition.identity
    n = grid.config.n
    # Coordinate k < n is profile slot k; coordinate n, when the witness has
    # a misreport, walks down the deviating agent's values.
    pools = grid.values
    if "misreport" in identity:
        pools += (grid.values[current["agent"]],)
    moved = True
    while moved:
        moved = False
        for k, pool in enumerate(pools):
            while True:
                point = [*current["profile"], current.get("misreport")]
                below = [g for g in pool if g < point[k]]
                if not below:
                    break
                point[k] = below[-1]
                candidate = {f: current[f] for f in identity}
                candidate["profile"] = tuple(point[:n])
                if k == n:
                    candidate["misreport"] = point[n]
                refreshed = definition.refresh(table, candidate)
                if refreshed is None:
                    break
                current = refreshed
                moved = True
    return current


# ---------------------------------------------------------------------------
# Random winner-rule tables
# ---------------------------------------------------------------------------


def random_winner_rule_table(
    grid: GridSpace, rng: random.Random
) -> dict[tuple[Fraction, ...], frozenset[int]]:
    """A random valid rule table, closed so raising a winner keeps them winning.

    Seeding picks, at a random subset of uniform-tail grid profiles, the
    mandatory strict winners plus a random batch of price-tied agents up
    to capacity. The closure then adds, for every selected agent and
    every grid report above the price, the entry that keeps that agent
    selected; such an agent is a strict winner there, so the additions
    never breach capacity or the selection conditions. Each round visits,
    in sorted order, the entries seeded or last added or raised, the only
    ones a whole-table pass could change anything for.

    The walk reads the grid's profiles scaled to ints (`GridPoint.scaled`)
    and keys the table by them; the table returned is keyed by the grid's
    exact values, in the same insertion order.
    """
    m, scaled = grid.config.m, grid.scaled
    entries: dict[tuple[int, ...], frozenset[int]] = {}
    for point in grid.profiles():
        at = point.scaled
        price = vickrey_price(at, m)
        if min(at) != price or rng.random() < 0.5:
            continue
        required = [i for i, v in enumerate(at) if v > price]
        tied = [i for i, v in enumerate(at) if v == price]
        rng.shuffle(tied)
        take = rng.randint(0, min(m - len(required), len(tied)))
        chosen = frozenset(required + tied[:take])
        if chosen:
            entries[at] = chosen
    work = set(entries)  # the entries added or raised since their last visit
    while work:
        todo, work = sorted(work), set()
        for at in todo:
            price = vickrey_price(at, m)
            for i in sorted(entries[at]):
                for up in scaled[i]:
                    if up <= price or up == at[i]:
                        continue
                    raised = at[:i] + (up,) + at[i + 1 :]
                    top = vickrey_price(raised, m)
                    need = frozenset([i, *(j for j, v in enumerate(raised) if v > top)])
                    have = entries.get(raised, frozenset())
                    if not need <= have:
                        entries[raised] = have | need
                        work.add(raised)
    exact = [dict(zip(ups, vals)) for ups, vals in zip(scaled, grid.values)]
    return {
        tuple([ex[v] for ex, v in zip(exact, at)]): selected
        for at, selected in entries.items()
    }


def random_uncompromising_rules(
    grid: GridSpace, count: int, seed: int
) -> list[WinnerRule]:
    """`count` independent random rule tables, one rng stream per index."""
    rules = []
    for index in range(count):
        rng = random.Random(f"{seed}:{index}")
        entries = random_winner_rule_table(grid, rng)
        rules.append(WinnerRule.rule_table(grid.config, entries))
    return rules


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def format_rows(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """An aligned text table: header, dashed divider, one line per row."""
    widths = [
        max(len(str(line[k])) for line in [header, *rows])
        for k in range(len(header))
    ]

    def render(line: Sequence[str]) -> str:
        return "  ".join(
            str(cell).ljust(width) for cell, width in zip(line, widths)
        ).rstrip()

    divider = "  ".join("-" * width for width in widths)
    return "\n".join([render(header), divider, *(render(row) for row in rows)])


# One suite row: its label, the report of each column (anything with a
# `verdict` and a `witness`) and the columns expected to read other than PASS.
Row = tuple[str, Mapping[str, Any], Mapping[str, str]]


@dataclass(frozen=True)
class SuiteResult:
    """A (row x column) verdict matrix plus the pattern it is expected to show.

    `expected` maps cells to either the literal verdict ("FAIL", "EQUAL",
    "DOMINATES", ...) or "PASS", which any PASS_* verdict satisfies.
    FAIL cells keep their witnesses so the matrix is replayable.
    """

    name: str
    title: str
    rows: tuple[str, ...]
    columns: tuple[str, ...]
    cells: Mapping[tuple[str, str], str]
    expected: Mapping[tuple[str, str], str]
    witnesses: Mapping[tuple[str, str], dict] = field(default_factory=dict)

    @classmethod
    def from_rows(
        cls, name: str, title: str, columns: tuple[str, ...], rows: Iterable[Row]
    ) -> "SuiteResult":
        """The matrix of `rows`, keeping every witness a report carries."""
        labels = []
        cells: dict = {}
        expected: dict = {}
        witnesses: dict = {}
        for label, reports, unusual in rows:
            labels.append(label)
            for column in columns:
                report = reports[column]
                cells[(label, column)] = report.verdict
                expected[(label, column)] = unusual.get(column, "PASS")
                if report.witness is not None:
                    witnesses[(label, column)] = report.witness
        return cls(name, title, tuple(labels), columns, cells, expected, witnesses)

    def cell_ok(self, row: str, column: str) -> bool:
        got = self.cells[(row, column)]
        want = self.expected[(row, column)]
        if want == "PASS":
            return got.startswith("PASS")
        return got == want

    @property
    def matched(self) -> bool:
        return not self.mismatches()

    def mismatches(self) -> list[tuple[str, str, str, str]]:
        return [
            (row, column, self.expected[(row, column)], self.cells[(row, column)])
            for row in self.rows
            for column in self.columns
            if not self.cell_ok(row, column)
        ]

    def format_table(self) -> str:
        return format_rows(
            ("mechanism / rule", *self.columns),
            [
                (row, *(self.cells[(row, column)] for column in self.columns))
                for row in self.rows
            ],
        )

    def to_json(self) -> dict:
        def matrix(cells: Mapping[tuple[str, str], str]) -> dict:
            columns = self.columns
            return {row: {col: cells[(row, col)] for col in columns} for row in self.rows}

        return {
            "suite": self.name,
            "title": self.title,
            "columns": list(self.columns),
            "rows": list(self.rows),
            "cells": matrix(self.cells),
            "expected": matrix(self.expected),
            "matched": self.matched,
            "witnesses": {
                f"{row} / {col}": witness_to_json(witness)
                for (row, col), witness in self.witnesses.items()
            },
        }


# The grid every suite sweeps.
SUITE_GRID = GridSpace.shared(MarketConfig(3, 1), (0, 1, 2, 3))


def suite_independence() -> SuiteResult:
    """Four mechanisms, four axioms: each fails exactly the axiom it drops."""
    columns = ("EE", "SP", "IR", "NS")
    dropped = [
        (vickrey_mechanism(), "EE"),
        (pay_as_bid_mechanism(), "SP"),
        (no_trade_mechanism(1), "IR"),
        (no_trade_mechanism(-1), "NS"),
    ]
    return SuiteResult.from_rows(
        "independence",
        "each mechanism fails exactly the axiom it drops",
        columns,
        [
            (mech.name, audit(OutcomeTable(mech, SUITE_GRID), columns), {axiom: "FAIL"})
            for mech, axiom in dropped
        ],
    )


DEFAULT_RANDOM_RULES = 20
DEFAULT_SUITE_SEED = 1729


def suite_sp_class(
    count: int = DEFAULT_RANDOM_RULES,
    seed: int = DEFAULT_SUITE_SEED,
) -> SuiteResult:
    """Every valid uncompromising winner rule prices clean: EE, SP, IR, NS.

    Runs the named rule families plus `count` random rule tables through
    the structural checks and the four axioms; the expected pattern is
    all-pass across the board.
    """
    rules: list[tuple[str, WinnerRule]] = [
        ("empty", WinnerRule.empty()),
        ("strict_winners", WinnerRule.strict()),
        ("dictatorial_threshold(0,2)", WinnerRule.dictatorial_threshold(0, 2)),
        ("efficient_winners", WinnerRule.efficient()),
    ]
    for index, rule in enumerate(random_uncompromising_rules(SUITE_GRID, count, seed)):
        rules.append((f"random[{index}] {rule.label}", rule))
    rows = []
    for label, rule in rules:
        reports = {
            "VALID": validate_winner_rule(rule, SUITE_GRID),
            "UNCOMPROMISING": check_uncompromising(rule, SUITE_GRID),
        }
        mech = selective_vickrey_mechanism(rule)
        reports.update(audit(OutcomeTable(mech, SUITE_GRID), ("EE", "SP", "IR", "NS")))
        rows.append((label, reports, {}))
    return SuiteResult.from_rows(
        "sp-class",
        "valid uncompromising winner rules give EE + SP + IR + NS",
        ("VALID", "UNCOMPROMISING", "EE", "SP", "IR", "NS"),
        rows,
    )


def suite_nom_class() -> SuiteResult:
    """EV/PAB pricing variants: reachability of the EV branch decides NOM.

    Pricing rules that let every positive valuation reach an
    efficient-Vickrey outcome are non-obviously manipulable; the
    always-PAB variant (negative threshold) loses both properties while
    keeping EE, IR and NS.
    """
    variants = [
        (PricingRule.always_ev(), {}),
        (PricingRule.ev_iff_price_zero(), {}),
        (PricingRule.threshold(1), {}),
        (PricingRule.threshold(-1), {"EV_SUPPORT": "FAIL", "NOM": "FAIL"}),
    ]
    rows = []
    for pricing, unusual in variants:
        mech = ev_pab_mechanism(pricing)
        reports = {"EV_SUPPORT": check_ev_support(pricing, SUITE_GRID)}
        reports.update(audit(OutcomeTable(mech, SUITE_GRID), ("EE", "IR", "NS", "NOM")))
        rows.append((mech.name, reports, unusual))
    return SuiteResult.from_rows(
        "nom-class",
        "EV-branch support separates NOM from obvious manipulability",
        ("EV_SUPPORT", "EE", "IR", "NS", "NOM"),
        rows,
    )


def suite_welfare() -> SuiteResult:
    """The always-EV pricing weakly dominates every other pricing variant."""
    best = ev_pab_mechanism(PricingRule.always_ev())
    base = OutcomeTable(best, SUITE_GRID)  # filled once, read by every rival
    rivals = [
        (ev_pab_mechanism(PricingRule.ev_iff_price_zero()), "DOMINATES"),
        (ev_pab_mechanism(PricingRule.threshold(0)), "DOMINATES"),
        (ev_pab_mechanism(PricingRule.threshold(1)), "DOMINATES"),
        (ev_pab_mechanism(PricingRule.threshold(2)), "EQUAL"),
    ]
    rows = []
    for rival, relation in rivals:
        outcome = welfare_compare(base, OutcomeTable(rival, SUITE_GRID))
        beaten = "PASS" if outcome.never_beaten else "FAIL"
        reports = {
            "RELATION": AxiomReport("RELATION", outcome.relation, outcome.strict_first),
            "NEVER_BEATEN": AxiomReport("NEVER_BEATEN", beaten, outcome.strict_second),
        }
        rows.append((f"{best.name} vs {rival.name}", reports, {"RELATION": relation}))
    return SuiteResult.from_rows(
        "welfare",
        "always-EV pricing is welfare-optimal among the pricing variants",
        ("RELATION", "NEVER_BEATEN"),
        rows,
    )


def suite_anonymity() -> SuiteResult:
    """Name-sensitive winner rules break anonymity in welfare; efficient ones keep it."""
    columns = ("AIW", "EE", "SP", "IR", "NS")
    dictator = selective_vickrey_mechanism(WinnerRule.dictatorial_threshold(0, 2))
    efficient = selective_vickrey_mechanism(WinnerRule.efficient())
    return SuiteResult.from_rows(
        "anonymity",
        "welfare anonymity separates dictatorial from efficient selection",
        columns,
        [
            (dictator.name, audit(OutcomeTable(dictator, SUITE_GRID), columns), {"AIW": "FAIL"}),
            (efficient.name, audit(OutcomeTable(efficient, SUITE_GRID), columns), {}),
        ],
    )


SUITES = {
    "independence": suite_independence,
    "sp-class": suite_sp_class,
    "nom-class": suite_nom_class,
    "welfare": suite_welfare,
    "anonymity": suite_anonymity,
}
