"""Command-line front end: evaluate, audit, run suites, compare welfare.

The audit contract is the JSON report printed to stdout (and optionally
written to a file): schema-versioned, exact rationals as strings, stable
key order, and witnesses that replay. The aligned text table is
advisory and goes to stderr or a file. Exit codes: 0 when every verdict
is a PASS_*, 1 when any check fails or stays uncertified, 2 for config
or usage errors (a `ConfigError`: a bad config, spec or profile, or a
user's file that cannot be read or written), and 3 when mechlab itself
fails: any other `Exception`, a `ValueError` or `KeyError` included, is
reported as one `internal error: <Type>: <message>` line on stderr, so a
crash never reads as a verdict or as the user's mistake. A
`BaseException` that is not an `Exception` (`KeyboardInterrupt`,
`SystemExit`) still propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from . import __version__
from .axioms import (
    CHECKERS,
    MODE_EXHAUSTIVE,
    MODE_SAMPLED,
    GridSpace,
    OutcomeTable,
    audit,
    find_reference_bundle,
    welfare_compare,
    witness_to_json,
)
from .mechanisms import Mechanism, mechanism_from_spec
from .model import (
    MarketConfig,
    Profile,
    clipped,
    fields,
    has_uniform_tail,
    integer,
    json_list,
    rat,
    rat_str,
    unique_keys,
    utilities,
)
from .search import SUITES, format_rows

AXIOM_CATALOG = (*CHECKERS.keys(), "WELFARE_COMPARE")


class ConfigError(ValueError):
    """Anything wrong with inputs that the user must fix."""


def _field(parse: Callable[..., Any], value: Any, what: str, *args: Any) -> Any:
    """A config field checked by `parse` (`model.integer`, `model.json_list`
    or `model.fields`), refused as a `ConfigError`."""
    try:
        return parse(value, what, *args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_integer = partial(_field, integer)
_json_list = partial(_field, json_list)
_fields = partial(_field, fields)


def parse_mechanism(spec: Any, market: MarketConfig) -> Mechanism:
    """Build a mechanism from a JSON spec, JSON text, or a bare family name;
    a spec that builds none is refused as a `ConfigError`."""
    try:
        if isinstance(spec, str):
            spec = spec.strip()
            if spec.startswith("{"):
                try:
                    spec = json.loads(spec, object_pairs_hook=unique_keys)
                except RecursionError:
                    raise ValueError("mechanism spec is nested too deeply") from None
        return mechanism_from_spec(spec, market)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Audit config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditConfig:
    space: GridSpace
    mechanisms: tuple[Mechanism, ...]
    axioms: tuple[str, ...]
    json_path: str | None
    text_path: str | None

    def grid(self) -> GridSpace:
        """`space` under the name `bench/` still calls (ROADMAP item 1)."""
        return self.space

    def echo(self) -> dict:
        """The config as audited: the grid is the normalised one."""
        grid = self.space
        doc: dict[str, Any] = {
            "schema": 1,
            "market": {"agents": grid.config.n, "objects": grid.config.m},
            "grid": {
                "per_agent": [
                    [rat_str(v) for v in vals] for vals in grid.values
                ]
            },
            "mode": {"kind": grid.mode},
            "mechanisms": [m.spec for m in self.mechanisms],
            "axioms": list(self.axioms),
        }
        if grid.mode == MODE_SAMPLED:
            doc["mode"]["seed"] = grid.seed
            doc["mode"]["samples"] = grid.samples
        return doc


def _parse_grid(doc: Any, market: MarketConfig, sweep: dict) -> GridSpace:
    """Hand the grid section's one source to `GridSpace`, which checks values and budget."""
    absent = object()  # not None: a source given as null is refused, not skipped
    sources = dict.fromkeys(("values", "per_agent", "range"), absent)
    values, per_agent, rng = _fields(doc, "grid", (), sources)
    if [values, per_agent, rng].count(absent) != 2:
        raise ConfigError("grid section needs exactly one of values, per_agent and range")
    try:
        if values is not absent:
            return GridSpace.shared(market, _json_list(values, "grid values"), **sweep)
        if per_agent is not absent:
            rows = _json_list(per_agent, "per_agent grid")
            return GridSpace(
                market,
                tuple(_json_list(row, "per_agent row") for row in rows),
                **sweep,
            )
        top, denominator = fields(rng, "range", ("max",), {"denominator": 1})
        denominator = _integer(denominator, "range denominator")
        return GridSpace.from_range(market, top, denominator, **sweep)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def load_config(path: str) -> AuditConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except RecursionError:
        raise ConfigError("config is nested too deeply") from None
    market_doc, grid_doc, mech_docs, axioms, schema, mode, output = _fields(
        doc, "config", ("market", "grid", "mechanisms", "axioms"),
        {"schema": 1, "mode": {}, "output": {}},
    )
    if schema != 1:
        raise ConfigError(f"unsupported config schema: {clipped(repr(schema))}")
    try:
        agents, objects = fields(market_doc, "market", ("agents", "objects"))
        market = MarketConfig(_integer(agents, "agents"), _integer(objects, "objects"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad market section: {exc}") from exc
    # A sampled mode reads all three keys; an exhaustive one only its kind.
    kind, seed, samples = _fields(
        mode, "mode", (), {"kind": MODE_EXHAUSTIVE, "seed": 0, "samples": 0}
    )
    if kind == MODE_EXHAUSTIVE:
        _fields(mode, "exhaustive mode", (), {"kind": kind})
    elif kind != MODE_SAMPLED:
        raise ConfigError(f"bad mode: unknown kind: {clipped(str(kind))}")
    sweep = {
        "mode": kind,
        "seed": _integer(seed, "seed"),
        "samples": _integer(samples, "samples"),
    }
    if kind == MODE_SAMPLED and sweep["samples"] < 1:
        raise ConfigError("bad mode: sampled mode needs samples >= 1")
    grid = _parse_grid(grid_doc, market, sweep)
    mech_docs = _json_list(mech_docs, "mechanisms")
    if not mech_docs:
        raise ConfigError("config needs at least one mechanism")
    try:
        mechanisms = tuple(parse_mechanism(m, market) for m in mech_docs)
    except ConfigError as exc:
        raise ConfigError(f"bad mechanism spec: {exc}") from exc
    axioms = tuple(_json_list(axioms, "axioms"))
    if not axioms:
        raise ConfigError("config needs at least one axiom")
    for axiom in axioms:
        if axiom not in AXIOM_CATALOG:
            raise ConfigError(
                f"unknown axiom {clipped(repr(axiom))}; known: {', '.join(AXIOM_CATALOG)}"
            )
    for k, axiom in enumerate(axioms):
        if axiom in axioms[:k]:
            raise ConfigError(f"axiom {axiom!r} is listed twice")
    if "WELFARE_COMPARE" in axioms and len(mechanisms) < 2:
        raise ConfigError("WELFARE_COMPARE needs at least two mechanisms")
    if "AIW" in axioms and not grid.is_shared:
        raise ConfigError("AIW needs a shared value set across agents")
    json_path, text_path = _fields(output, "output", (), {"json": None, "text": None})
    for key, value in (("json", json_path), ("text", text_path)):
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"output {key} must be a path string")
    return AuditConfig(
        space=grid,
        mechanisms=mechanisms,
        axioms=axioms,
        json_path=json_path,
        text_path=text_path,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _compact_witness(witness: dict | None) -> str:
    if not witness:
        return "-"
    parts = []
    for key, value in witness_to_json(witness).items():
        if isinstance(value, list):
            rendered = "(" + ",".join(str(v) for v in value) + ")"
        else:
            rendered = str(value)
        parts.append(f"{key}={rendered}")
    return " ".join(parts)


def _audit_table(report_doc: dict) -> str:
    rows: list[Sequence[str]] = []
    for result in report_doc["results"]:
        for axiom_report in result["reports"]:
            rows.append(
                (
                    result["mechanism"],
                    axiom_report["axiom"],
                    axiom_report["verdict"],
                    str(axiom_report["profiles_checked"]),
                    _compact_witness(axiom_report.get("witness")),
                )
            )
    for comparison in report_doc.get("comparisons", []):
        rows.append(
            (
                f"{comparison['first']} vs {comparison['second']}",
                "WELFARE_COMPARE",
                f"{comparison['verdict']} ({comparison['relation']})",
                str(comparison["profiles_checked"]),
                _compact_witness(comparison.get("strict_first")),
            )
        )
    return format_rows(
        ("mechanism", "axiom", "verdict", "profiles", "witness"), rows
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write(path: str, text: str) -> None:
    """Write one of the user's output files, refusing a path that cannot be
    written as a `ConfigError`."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        values = tuple(rat(v.strip()) for v in args.profile.split(","))
        market = MarketConfig(len(values), args.m)
        profile = Profile(market, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    mechanism = parse_mechanism(args.mech, market)
    allocation = mechanism.evaluate(profile)
    us = utilities(allocation, profile)
    reference = find_reference_bundle(mechanism, profile)
    bundles = ", ".join(
        f"({xi}, {rat_str(ti)})" for xi, ti in zip(allocation.x, allocation.t)
    )
    print(f"mechanism: {mechanism.name}")
    print(f"market: n={market.n}, m={market.m}")
    print(f"profile: ({', '.join(rat_str(v) for v in values)})")
    print(f"allocation: [{bundles}]")
    print(f"utilities: ({', '.join(rat_str(u) for u in us)})")
    print(f"uniform tail: {'yes' if has_uniform_tail(profile.values, market.m) else 'no'}")
    if reference is None:
        print("reference bundle: none")
    else:
        print(f"reference bundle: ({reference[0]}, {rat_str(reference[1])})")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    grid = config.space
    started = time.monotonic()
    checks = [axiom for axiom in config.axioms if axiom != "WELFARE_COMPARE"]
    verdicts: list[str] = []
    results = []
    comparisons = []
    base = None  # the first mechanism's table, the only one kept across mechanisms
    for mechanism in config.mechanisms:
        table = OutcomeTable(mechanism, grid)
        audited = audit(table, checks)
        verdicts.extend(audited[axiom].verdict for axiom in checks)
        results.append(
            {
                "mechanism": mechanism.name,
                "family": mechanism.family,
                "reports": [audited[axiom].to_json() for axiom in checks],
            }
        )
        if "WELFARE_COMPARE" not in config.axioms:
            continue
        if base is None:
            base = table
            continue
        outcome = welfare_compare(base, table)
        verdict = grid.pass_verdict if outcome.never_beaten else "FAIL"
        verdicts.append(verdict)
        comparisons.append(
            {
                "first": base.mechanism.name,
                "second": mechanism.name,
                "verdict": verdict,
                **outcome.to_json(),
            }
        )
    elapsed = time.monotonic() - started
    all_pass = all(v.startswith("PASS") for v in verdicts)
    tally: dict[str, int] = {}
    for verdict in verdicts:
        tally[verdict] = tally.get(verdict, 0) + 1
    report_doc: dict[str, Any] = {
        "schema": 1,
        "tool": {"name": "mechlab", "version": __version__},
        "config": config.echo(),
        "results": results,
        "summary": {"all_pass": all_pass, "verdicts": tally},
        "timing": {"seconds": round(elapsed, 6)},
    }
    if comparisons:
        report_doc["comparisons"] = comparisons
    json_text = json.dumps(report_doc, indent=2, sort_keys=True)
    print(json_text)
    json_path = args.json or config.json_path
    if json_path:
        _write(json_path, json_text)
    table = _audit_table(report_doc)
    print(table, file=sys.stderr)
    text_path = args.text or config.text_path
    if text_path:
        _write(text_path, table)
    return 0 if all_pass else 1


def cmd_suite(args: argparse.Namespace) -> int:
    result = SUITES[args.name]()
    print(result.title)
    print(result.format_table())
    if result.matched:
        print("expected pattern: matched")
        return 0
    print("expected pattern: MISMATCH")
    for row, column, want, got in result.mismatches():
        print(f"  {row} / {column}: expected {want}, got {got}")
    return 1


def cmd_compare(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    grid = config.space
    first = parse_mechanism(args.a, grid.config)
    second = parse_mechanism(args.b, grid.config)
    outcome = welfare_compare(OutcomeTable(first, grid), OutcomeTable(second, grid))
    print(f"first:  {first.name}")
    print(f"second: {second.name}")
    print(f"relation: {outcome.relation}")
    print(f"profiles checked: {outcome.profiles_checked}")
    for label, witness in (
        ("first strictly above", outcome.strict_first),
        ("second strictly above", outcome.strict_second),
    ):
        if witness is None:
            print(f"{label}: never")
        else:
            print(f"{label}: {_compact_witness(witness)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mechlab",
        description=(
            "Exact-arithmetic audit lab for money-augmented allocation "
            "mechanisms over identical indivisible objects."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"mechlab {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate one mechanism at one profile"
    )
    p_eval.add_argument("--mech", required=True, help="family name or JSON spec")
    p_eval.add_argument(
        "--profile", required=True, help="comma-separated rational values"
    )
    p_eval.add_argument("--m", type=int, default=1, help="number of objects")
    p_eval.set_defaults(handler=cmd_eval)

    p_audit = sub.add_parser(
        "audit", help="run configured axiom checks, emit a JSON report"
    )
    p_audit.add_argument("--config", required=True, help="JSON config path")
    p_audit.add_argument("--json", help="also write the JSON report here")
    p_audit.add_argument("--text", help="also write the text table here")
    p_audit.set_defaults(handler=cmd_audit)

    p_suite = sub.add_parser(
        "suite", help="run a named suite against its expected pattern"
    )
    p_suite.add_argument("name", choices=sorted(SUITES))
    p_suite.set_defaults(handler=cmd_suite)

    p_compare = sub.add_parser(
        "compare", help="welfare-compare two mechanisms over a grid"
    )
    p_compare.add_argument("--a", required=True, help="first mechanism spec")
    p_compare.add_argument("--b", required=True, help="second mechanism spec")
    p_compare.add_argument("--config", required=True, help="JSON config path")
    p_compare.set_defaults(handler=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())  # one line, whatever the message holds
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
