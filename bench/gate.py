"""Correctness gate: results digests, witness replay, suite patterns.

Every operation of a run (one (mechanism, axiom) cell, one welfare
comparison, or one suite call) gets a SHA-256 of its canonical JSON. At
the default seed those digests must equal the reference stored next to
this file. Independently of the seed, every FAIL witness must replay,
every shrinkable one must shrink to a witness that still replays, every
welfare witness must re-derive, and every suite must match its pattern.

mechlab functions are looked up on their modules at call time, so a traced
run records the gate's calls into them.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The axioms `search.shrink_witness` accepts.
SHRINKABLE = ("IR", "NS", "SP", "EE", "EFF", "EF", "AIW")


def cell_digests(workload: str, output: dict) -> dict[str, str]:
    """Digest of every operation a child process completed, by operation id."""
    if workload == workloads.SUITES:
        return {
            f"call{index}:{call['suite']}": workloads.digest(call)
            for index, call in enumerate(output["calls"])
            if "error" not in call
        }
    report = json.loads(output["report"])
    cells = {}
    for result in report["results"]:
        for cell in result["reports"]:
            cells[f"{result['mechanism']}/{cell['axiom']}"] = workloads.digest(cell)
    for comparison in report.get("comparisons", []):
        op = f"{comparison['first']} vs {comparison['second']}/WELFARE_COMPARE"
        cells[op] = workloads.digest(comparison)
    return cells


def results_digest(workload: str, output: dict) -> str:
    """SHA-256 of the report's `results` and `comparisons`, or of every suite result."""
    if workload == workloads.SUITES:
        return workloads.digest(output["calls"])
    report = json.loads(output["report"])
    return workloads.digest(
        {"results": report["results"], "comparisons": report.get("comparisons", [])}
    )


def mismatched(cells: dict[str, str], reference: dict[str, str]) -> set[str]:
    """Operations whose digest differs from, or is missing in, either side."""
    return {op for op in cells.keys() | reference.keys() if cells.get(op) != reference.get(op)}


def load_reference(workload: str) -> dict | None:
    if not REFERENCE_PATH.is_file():
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["workloads"].get(workload)


def self_check(cells: dict[str, str]) -> bool:
    """The digest comparison must flag every cell against a wrong reference."""
    wrong = {op: workloads.digest([value]) for op, value in cells.items()}
    return bool(cells) and mismatched(cells, wrong) == set(cells)


def _welfare_rederives(first, second, witness: dict, market) -> bool:
    from mechlab import model

    profile = model.Profile(market, witness["profile"])
    agent = witness["agent"]
    ua = model.utilities(first.evaluate(profile), profile)[agent]
    ub = model.utilities(second.evaluate(profile), profile)[agent]
    return ua == witness["first_utility"] and ub == witness["second_utility"]


class Checker:
    """Replays witnesses, remembering which ones it already settled."""

    def __init__(self, grid) -> None:
        self.grid = grid
        self.stats = {"replayed": 0, "shrunk": 0, "welfare": 0}
        self._done: dict[str, list[str]] = {}

    def axiom_witness(self, mechanism, axiom: str, data: dict) -> list[str]:
        from mechlab import axioms, search

        key = json.dumps([mechanism.name, axiom, data], sort_keys=True)
        if key in self._done:
            return self._done[key]
        problems = []
        witness = axioms.witness_from_json(data)
        self.stats["replayed"] += 1
        if not axioms.replay_witness(mechanism, axiom, witness, self.grid):
            problems.append(f"{axiom} witness does not replay")
        elif axiom in SHRINKABLE:
            shrunk = search.shrink_witness(mechanism, axiom, witness, self.grid)
            self.stats["shrunk"] += 1
            if not axioms.replay_witness(mechanism, axiom, shrunk, self.grid):
                problems.append(f"shrunk {axiom} witness does not replay")
        self._done[key] = problems
        return problems

    def welfare_witnesses(self, first, second, witnesses) -> list[str]:
        from mechlab import axioms

        problems = []
        for data in witnesses:
            if data is None:
                continue
            self.stats["welfare"] += 1
            witness = axioms.witness_from_json(data)
            if not _welfare_rederives(first, second, witness, self.grid.config):
                problems.append("welfare witness does not re-derive")
        return problems


def _check_audit(config_path: str, output: dict) -> tuple[dict, dict]:
    from mechlab import cli

    problems: dict[str, list[str]] = {}
    config = cli.load_config(config_path)
    checker = Checker(config.grid())
    by_name = {m.name: m for m in config.mechanisms}
    report = json.loads(output["report"])
    for result in report["results"]:
        mechanism = by_name[result["mechanism"]]
        for cell in result["reports"]:
            if cell["verdict"] == "FAIL":
                op = f"{result['mechanism']}/{cell['axiom']}"
                found = checker.axiom_witness(mechanism, cell["axiom"], cell["witness"])
                if found:
                    problems[op] = found
    for comparison in report.get("comparisons", []):
        op = f"{comparison['first']} vs {comparison['second']}/WELFARE_COMPARE"
        found = checker.welfare_witnesses(
            by_name[comparison["first"]],
            by_name[comparison["second"]],
            (comparison["strict_first"], comparison["strict_second"]),
        )
        if found:
            problems[op] = found
    return problems, checker.stats


def _suite_mechanisms() -> dict:
    """The suites' fixed mechanisms, rebuilt from the public constructors."""
    from mechlab import mechanisms as mech

    built = [
        mech.vickrey_mechanism(),
        mech.pay_as_bid_mechanism(),
        mech.no_trade_mechanism(1),
        mech.no_trade_mechanism(-1),
        mech.selective_vickrey_mechanism(mech.WinnerRule.dictatorial_threshold(0, 2)),
        mech.selective_vickrey_mechanism(mech.WinnerRule.efficient()),
        mech.ev_pab_mechanism(mech.PricingRule.always_ev()),
        mech.ev_pab_mechanism(mech.PricingRule.ev_iff_price_zero()),
        *(mech.ev_pab_mechanism(mech.PricingRule.threshold(t)) for t in (-1, 0, 1, 2)),
    ]
    return {m.name: m for m in built}


def _check_suites(output: dict) -> tuple[dict, dict]:
    from mechlab import axioms, search

    grid = search.GridConfig(3, 1, values=(0, 1, 2, 3)).space()
    checker = Checker(grid)
    known = _suite_mechanisms()
    problems: dict[str, list[str]] = {}
    for index, call in enumerate(output["calls"]):
        op = f"call{index}:{call['suite']}"
        if "error" in call:
            problems[op] = [call["error"]]
            continue
        found = [] if call["matched"] else ["suite did not match its expected pattern"]
        for key, data in call["witnesses"].items():
            row, column = key.rsplit(" / ", 1)
            if column in axioms.CHECKERS and row in known:
                found += checker.axiom_witness(known[row], column, data)
            elif column in ("RELATION", "NEVER_BEATEN"):
                first, second = row.split(" vs ")
                found += checker.welfare_witnesses(known[first], known[second], [data])
        if found:
            problems[op] = found
    return problems, checker.stats


def check(workload: str, input_path: str, output: dict) -> tuple[dict, dict]:
    """Gate one child's output: (problems by operation id, replay counts)."""
    if workload == workloads.SUITES:
        return _check_suites(output)
    return _check_audit(input_path, output)
