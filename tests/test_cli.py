"""Command line surface: eval, audit, suite, compare, config validation, exit codes."""

import json
import os
import random
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from mechlab import (
    CHECKERS,
    Allocation,
    GridSpace,
    MarketConfig,
    Mechanism,
    __version__,
    audit,
    cli,
    random_winner_rule_table,
    rat_str,
    refresh_witness,
    witness_from_json,
)
from mechlab.axioms import POINTWISE, OutcomeTable, scan
from mechlab.cli import AXIOM_CATALOG, ConfigError, load_config, main, parse_mechanism


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "schema": 1,
        "market": {"agents": 3, "objects": 1},
        "grid": {"values": ["0", "1", "2", "3"]},
        "mode": {"kind": "exhaustive"},
        "mechanisms": [{"family": "EV_PAB", "pricing": "ALWAYS_EV"}],
        "axioms": ["EE", "EFF", "IR", "NS", "NOM"],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def clean(report_text):
    """Parse a JSON report and drop the wall-clock section."""
    data = json.loads(report_text)
    data.pop("timing")
    return data


def test_eval_prints_allocation_and_reference(capsys):
    assert main(["eval", "--mech", "vickrey", "--profile", "3,2,1", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "allocation: [(1, 2), (0, 0), (0, 0)]" in out
    assert "utilities: (1, 0, 0)" in out
    assert "uniform tail: no" in out
    assert "reference bundle: none" in out


def test_eval_selective_rule_spec(capsys):
    spec = '{"family":"SELECTIVE_VICKREY","rule":{"family":"STRICT_WINNERS"}}'
    assert main(["eval", "--mech", spec, "--profile", "3,2,2", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "mechanism: selective_vickrey(strict_winners)" in out
    assert "allocation: [(1, 2), (0, 0), (0, 0)]" in out
    assert "reference bundle: (1, 2)" in out


def test_eval_ev_pricing_keeps_full_surplus(capsys):
    spec = '{"family":"EV_PAB","pricing":"ALWAYS_EV"}'
    assert main(["eval", "--mech", spec, "--profile", "3,0,0", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "allocation: [(1, 0), (0, 0), (0, 0)]" in out
    assert "utilities: (3, 0, 0)" in out


def test_eval_accepts_rationals(capsys):
    assert main(["eval", "--mech", "pay_as_bid", "--profile", "3/2,1,0", "--m", "1"]) == 0
    assert "profile: (3/2, 1, 0)" in capsys.readouterr().out


def test_audit_all_pass_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["audit", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["schema"] == 1
    assert report["tool"]["name"] == "mechlab"
    assert report["summary"]["all_pass"] is True
    assert "FAIL" not in report["summary"]["verdicts"]
    assert "ev_pab(always_ev)" in captured.err


def test_audit_failure_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, mechanisms=["PAY_AS_BID"], axioms=["SP"])
    assert main(["audit", "--config", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["all_pass"] is False
    assert report["summary"]["verdicts"] == {"FAIL": 1}


def test_audit_fail_witnesses_replay(tmp_path, capsys):
    path = write_config(
        tmp_path,
        mechanisms=["PAY_AS_BID", "VICKREY", "NO_TRADE"],
        axioms=["EE", "SP", "IR", "NS", "NOM"],
    )
    assert main(["audit", "--config", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    config = load_config(str(path))
    grid = config.space
    replayed = 0
    for entry in report["results"]:
        mech = parse_mechanism(json.dumps({"family": entry["family"]}), grid.config)
        for rep in entry["reports"]:
            if rep["verdict"] != "FAIL":
                continue
            witness = witness_from_json(rep["witness"])
            assert refresh_witness(mech, rep["axiom"], witness, grid) is not None
            replayed += 1
    assert replayed >= 2, "expected several failing axioms to replay"


def test_audit_reports_are_byte_identical_modulo_timing(tmp_path, capsys):
    path = write_config(tmp_path)
    main(["audit", "--config", str(path)])
    first = capsys.readouterr().out
    main(["audit", "--config", str(path)])
    second = capsys.readouterr().out
    assert clean(first) == clean(second)
    assert json.dumps(clean(first), sort_keys=True) == json.dumps(clean(second), sort_keys=True)


def test_audit_writes_requested_files(tmp_path, capsys):
    json_out = tmp_path / "report.json"
    text_out = tmp_path / "table.txt"
    path = write_config(
        tmp_path,
        output={"json": str(json_out), "text": str(text_out)},
    )
    assert main(["audit", "--config", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(json_out.read_text())["schema"] == 1
    assert "verdict" in text_out.read_text()


def test_audit_welfare_compare_section(tmp_path, capsys):
    path = write_config(
        tmp_path,
        mechanisms=[
            {"family": "EV_PAB", "pricing": "ALWAYS_EV"},
            {"family": "EV_PAB", "pricing": "EV_IFF_PRICE_ZERO"},
        ],
        axioms=["IR", "WELFARE_COMPARE"],
    )
    assert main(["audit", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["comparisons"]) == 1
    assert report["comparisons"][0]["relation"] == "DOMINATES"


def test_audit_sampled_mode(tmp_path, capsys):
    path = write_config(
        tmp_path,
        mode={"kind": "sampled", "seed": 9, "samples": 40},
        mechanisms=["VICKREY"],
        axioms=["IR", "NS"],
    )
    assert main(["audit", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    verdicts = {r["verdict"] for r in report["results"][0]["reports"]}
    assert verdicts == {"PASS_SAMPLED"}


def test_audit_per_agent_grid(tmp_path, capsys):
    path = write_config(
        tmp_path,
        grid={"per_agent": [["0", "1"], ["0", "2"], ["0", "1", "3"]]},
        mechanisms=["VICKREY"],
        axioms=["IR"],
    )
    assert main(["audit", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0]["reports"][0]["profiles_checked"] == 12


def test_audit_range_grid(tmp_path, capsys):
    path = write_config(
        tmp_path,
        grid={"range": {"max": "2", "denominator": 2}},
        mechanisms=["VICKREY"],
        axioms=["IR"],
    )
    assert main(["audit", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0]["reports"][0]["profiles_checked"] == 125


def test_config_errors_exit_two(tmp_path, capsys):
    bad_market = write_config(tmp_path, "m.json", market={"agents": 2, "objects": 2})
    assert main(["audit", "--config", str(bad_market)]) == 2
    assert "error:" in capsys.readouterr().err
    bad_axiom = write_config(tmp_path, "a.json", axioms=["NOT_AN_AXIOM"])
    assert main(["audit", "--config", str(bad_axiom)]) == 2
    bad_family = write_config(tmp_path, "f.json", mechanisms=["NOT_A_FAMILY"])
    assert main(["audit", "--config", str(bad_family)]) == 2
    assert main(["audit", "--config", str(tmp_path / "missing.json")]) == 2


def test_welfare_compare_needs_two_mechanisms(tmp_path, capsys):
    path = write_config(tmp_path, axioms=["WELFARE_COMPARE"])
    assert main(["audit", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("BOGUS", "unknown mechanism family: BOGUS"),
        ('{"family":"SELECTIVE_VICKREY","rule":"BOGUS"}', "unknown winner rule family: BOGUS"),
        ('{"family":"EV_PAB","pricing":"BOGUS"}', "unknown pricing rule family: BOGUS"),
        ('{"family":"SELECTIVE_VICKREY","rule":{"family":"DICTATORIAL_THRESHOLD",'
         '"agent":5,"threshold":"1"}}', "dictator index out of range: 5"),
        ('{"family":"SELECTIVE_VICKREY","rule":{"family":"DICTATORIAL_THRESHOLD",'
         '"threshold":"1"}}', "DICTATORIAL_THRESHOLD winner rule is missing its agent"),
        ('{"family":"SELECTIVE_VICKREY","rule":{"family":"DICTATORIAL_THRESHOLD",'
         '"agent":0}}', "DICTATORIAL_THRESHOLD winner rule is missing its threshold"),
        ('{"family":"EV_PAB","pricing":"THRESHOLD"}',
         "THRESHOLD pricing rule is missing its cutoff"),
        ('{"family":"SELECTIVE_VICKREY","rule":{"family":"RULE_TABLE",'
         '"entries":[{"winners":[0]}]}}', "rule table entry is missing its profile"),
        ('{"family":"SELECTIVE_VICKREY","rule":{"family":"RULE_TABLE",'
         '"entries":[{"profile":["1","0","0"]}]}}', "rule table entry is missing its winners"),
        ('{"family":"EV_PAB","pricing":{"family":"RULE_TABLE",'
         '"entries":[{"profile":["1","0","0"]}]}}', "rule table entry is missing its mode"),
        ('{"family":"EV_PAB","pricing":{"family":"RULE_TABLE",'
         '"entries":[[["1","0","0"],"EV"]]}}',
         'rule table entry must be a JSON object, got [["1", "0", "0"], "EV"]'),
        ('{"a":' * 5000 + "1" + "}" * 5000, "mechanism spec is nested too deeply"),
        ('{"family": "NO_TRADE", "fe": "1"}', "NO_TRADE mechanism has an unknown field 'fe'"),
        ('{"family": "NO_TRADE", "fee": "1", "fee": "0"}',
         "a JSON object lists the key 'fee' twice"),
    ],
    ids=[
        "family", "winner-rule", "pricing-rule", "dictator-range", "dictator-agent",
        "dictator-threshold", "threshold-cutoff", "entry-profile", "entry-winners",
        "entry-mode", "entry-list", "nested-too-deep", "unknown-field", "repeated-key",
    ],
)
def test_eval_bad_spec_exits_two_with_one_line(capsys, spec, message):
    assert main(["eval", "--mech", spec, "--profile", "1,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"family":"EV_PAB","pricing":{"family":"THRESHOLD","cutoff":0.5}}',
         "THRESHOLD pricing rule cutoff must be an exact rational, got 0.5"),
        ('{"family":"EV_PAB","pricing":{"family":"THRESHOLD","cutoff":"x"}}',
         'THRESHOLD pricing rule cutoff must be an exact rational, got "x"'),
        ('{"family":"EV_PAB","pricing":{"family":"THRESHOLD","cutoff":"1/0"}}',
         'THRESHOLD pricing rule cutoff must be an exact rational, got "1/0"'),
        ('{"family":"SELECTIVE_VICKREY","rule":{"family":"DICTATORIAL_THRESHOLD",'
         '"agent":0,"threshold":0.5}}',
         "DICTATORIAL_THRESHOLD winner rule threshold must be an exact rational, got 0.5"),
        ('{"family":"NO_TRADE","fee":0.5}', "NO_TRADE fee must be an exact rational, got 0.5"),
        ('{"family":"NO_TRADE","fee":true}', "NO_TRADE fee must be an exact rational, got true"),
        ('{"family":"EV_PAB","pricing":{"family":"RULE_TABLE",'
         '"entries":[{"profile":[1,0.5,0],"mode":"EV"}]}}',
         "rule table profile value must be an exact rational, got 0.5"),
        ('{"family":"SELECTIVE_VICKREY","rule":{"family":"RULE_TABLE",'
         '"entries":[{"profile":["1","x","0"],"winners":[0]}]}}',
         'rule table profile value must be an exact rational, got "x"'),
    ],
    ids=[
        "cutoff-float", "cutoff-text", "cutoff-zero-denominator", "dictator-threshold-float",
        "fee-float", "fee-boolean", "pricing-profile-float", "winner-profile-text",
    ],
)
def test_eval_rational_field_errors_name_the_field(capsys, spec, message):
    assert main(["eval", "--mech", spec, "--profile", "1,0,0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_zero_denominator_exits_two(tmp_path, capsys):
    """A "p/0" value is a user error at every boundary, not a crash."""
    assert main(["eval", "--mech", "VICKREY", "--profile", "1/0,0,0"]) == 2
    assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"
    path = write_config(tmp_path, grid={"values": ["0", "1/0"]})
    assert main(["audit", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: bad grid: zero denominator in '1/0'\n"


def test_a_crash_exits_three_with_one_line(tmp_path, capsys, monkeypatch):
    """A fault in mechlab itself is neither a verdict (exit 1) nor a user
    error (exit 2): it exits 3 with one line naming the exception. A
    `BaseException` that is not an `Exception` still propagates."""

    def crash(table, names):
        raise RuntimeError("the table\nwent missing")

    monkeypatch.setattr(cli, "audit", crash)
    path = write_config(tmp_path)
    assert main(["audit", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: the table went missing\n"

    def interrupt(table, names):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "audit", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["audit", "--config", str(path)])


@pytest.mark.parametrize(
    "fault, line",
    [
        (KeyError("rank 7"), "internal error: KeyError: 'rank 7'"),
        (ValueError("bad\ngrid"), "internal error: ValueError: bad grid"),
        (TypeError("no int"), "internal error: TypeError: no int"),
        (OSError("disk gone"), "internal error: OSError: disk gone"),
    ],
    ids=["key", "value", "type", "os"],
)
def test_a_fault_after_the_config_loads_exits_three(tmp_path, capsys, monkeypatch, fault, line):
    """Only a `ConfigError` is the user's: an exception of a type that user
    errors also raise, thrown by mechlab after the config loaded, is still
    a fault, exit 3 with one line."""

    def crash(table, names):
        raise fault

    monkeypatch.setattr(cli, "audit", crash)
    assert main(["audit", "--config", str(write_config(tmp_path))]) == 3
    assert capsys.readouterr() == ("", line + "\n")


def test_an_unwritable_output_path_exits_two(tmp_path, capsys):
    """An output file the user named but that cannot be written is the
    user's to fix: exit 2 with one line."""
    path = write_config(tmp_path)
    missing = tmp_path / "no-such-dir" / "report.json"
    assert main(["audit", "--config", str(path), "--json", str(missing)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")


def test_suite_subcommand(capsys):
    assert main(["suite", "independence"]) == 0
    out = capsys.readouterr().out
    assert "expected pattern: matched" in out
    assert "vickrey" in out


def test_suite_unknown_name_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "nonsense"])
    assert exc.value.code == 2


def test_compare_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main([
        "compare",
        "--a", '{"family":"EV_PAB","pricing":"ALWAYS_EV"}',
        "--b", '{"family":"EV_PAB","pricing":"EV_IFF_PRICE_ZERO"}',
        "--config", str(path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "relation: DOMINATES" in out
    assert "second strictly above: never" in out


def test_compare_self_is_equal(tmp_path, capsys):
    path = write_config(tmp_path)
    main(["compare", "--a", "vickrey", "--b", "vickrey", "--config", str(path)])
    assert "relation: EQUAL" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mechlab" in capsys.readouterr().out


def test_load_config_grid_round_trip(tmp_path):
    path = write_config(tmp_path)
    config = load_config(str(path))
    grid = config.space
    assert isinstance(grid, GridSpace)
    assert grid.config == MarketConfig(3, 1)
    assert grid.is_shared and grid.values[0] == (0, 1, 2, 3)
    echo = config.echo()
    assert echo["schema"] == 1
    assert echo["grid"]["per_agent"] == [["0", "1", "2", "3"]] * 3


def test_echo_shows_the_audited_grid(tmp_path):
    """The echo prints the grid after normalisation: sorted, without repeats."""
    path = write_config(tmp_path, grid={"values": ["3", "1", "0", "2", "1", "2/2"]})
    assert load_config(str(path)).echo()["grid"]["per_agent"] == [["0", "1", "2", "3"]] * 3
    path = write_config(tmp_path, grid={"per_agent": [["1", "0"], ["0"], ["2", "1/2"]]})
    assert load_config(str(path)).echo()["grid"]["per_agent"] == [["0", "1"], ["0"], ["1/2", "2"]]


def test_explicit_grid_over_budget_is_refused_at_load(tmp_path):
    """101 values on 3 agents is 1030301 profiles: the grid is refused at
    load, before the bad mechanism next to it, and before a NOM-only
    audit (which never enumerates) could pass on it."""
    path = write_config(
        tmp_path,
        grid={"values": [str(v) for v in range(101)]},
        mechanisms=["NO_SUCH_FAMILY"],
        axioms=["NOM"],
    )
    with pytest.raises(ConfigError, match="budget"):
        load_config(str(path))


TABLE_RULE = {"family": "RULE_TABLE", "entries": [
    {"profile": ["3", "1", "1"], "winners": [0]},
    {"profile": ["0", "2", "0"], "winners": [1]},
]}
TABLE_PRICING = {"family": "RULE_TABLE", "entries": [
    {"profile": ["2", "0", "0"], "mode": "EV"},
    {"profile": ["0", "1", "0"], "mode": "PAB"},
]}
ECHO_INPUT = [
    "vickrey",
    {"family": "EFFICIENT_VICKREY"},
    "PAY_AS_BID",
    {"family": "NO_TRADE", "fee": "-2/4"},
    {"family": "SELECTIVE_VICKREY", "rule": "EMPTY"},
    {"family": "selective_vickrey", "rule": {"family": "strict_winners"}},
    {"family": "SELECTIVE_VICKREY", "rule": "EFFICIENT_WINNERS"},
    {"family": "SELECTIVE_VICKREY", "rule": {
        "family": "DICTATORIAL_THRESHOLD", "agent": 1, "threshold": "3/2"}},
    {"family": "SELECTIVE_VICKREY", "rule": TABLE_RULE},
    {"family": "EV_PAB", "pricing": "ALWAYS_EV"},
    {"family": "EV_PAB", "pricing": {"family": "ev_iff_price_zero"}},
    {"family": "EV_PAB", "pricing": {"family": "THRESHOLD", "cutoff": "2/2"}},
    {"family": "EV_PAB", "pricing": TABLE_PRICING},
]
ECHO_MECHANISMS = [
    {"family": "VICKREY"},
    {"family": "EFFICIENT_VICKREY"},
    {"family": "PAY_AS_BID"},
    {"family": "NO_TRADE", "fee": "-1/2"},
    {"family": "SELECTIVE_VICKREY", "rule": {"family": "EMPTY"}},
    {"family": "SELECTIVE_VICKREY", "rule": {"family": "STRICT_WINNERS"}},
    {"family": "SELECTIVE_VICKREY", "rule": {"family": "EFFICIENT_WINNERS"}},
    {"family": "SELECTIVE_VICKREY", "rule": {
        "family": "DICTATORIAL_THRESHOLD", "agent": 1, "threshold": "3/2"}},
    {"family": "SELECTIVE_VICKREY", "rule": {"family": "RULE_TABLE", "entries": [
        {"profile": ["0", "2", "0"], "winners": [1]},
        {"profile": ["3", "1", "1"], "winners": [0]},
    ]}},
    {"family": "EV_PAB", "pricing": {"family": "ALWAYS_EV"}},
    {"family": "EV_PAB", "pricing": {"family": "EV_IFF_PRICE_ZERO"}},
    {"family": "EV_PAB", "pricing": {"family": "THRESHOLD", "cutoff": "1"}},
    {"family": "EV_PAB", "pricing": {"family": "RULE_TABLE", "entries": [
        {"profile": ["0", "1", "0"], "mode": "PAB"},
        {"profile": ["2", "0", "0"], "mode": "EV"},
    ]}},
]


def test_echo_mechanisms_are_canonical_and_round_trip(tmp_path):
    """Every family, winner rule and pricing rule echoes its canonical spec
    (upper-case families, reduced rationals, sorted table entries), and
    the echo loads back to the same echo and the same mechanisms."""
    first = load_config(str(write_config(tmp_path, mechanisms=ECHO_INPUT)))
    echo = first.echo()
    assert echo["mechanisms"] == ECHO_MECHANISMS
    again = tmp_path / "echo.json"
    again.write_text(json.dumps(echo))
    second = load_config(str(again))
    assert second.echo() == echo
    assert [m.name for m in second.mechanisms] == [m.name for m in first.mechanisms]


def test_range_over_budget_is_refused_at_load(tmp_path):
    path = write_config(tmp_path, grid={"range": {"max": "2000"}})
    with pytest.raises(ConfigError, match="budget"):
        load_config(str(path))


@pytest.mark.parametrize("key", ["json", "text"])
def test_output_paths_must_be_strings(tmp_path, key):
    path = write_config(tmp_path, output={key: True})
    with pytest.raises(ConfigError, match=f"output {key} must be a path string"):
        load_config(str(path))


INDEPENDENCE_STDOUT = """\
each mechanism fails exactly the axiom it drops
mechanism / rule  EE               SP               IR               NS
----------------  ---------------  ---------------  ---------------  ---------------
vickrey           FAIL             PASS_EXHAUSTIVE  PASS_EXHAUSTIVE  PASS_EXHAUSTIVE
pay_as_bid        PASS_EXHAUSTIVE  FAIL             PASS_EXHAUSTIVE  PASS_EXHAUSTIVE
no_trade(fee=1)   PASS_EXHAUSTIVE  PASS_EXHAUSTIVE  FAIL             PASS_EXHAUSTIVE
no_trade(fee=-1)  PASS_EXHAUSTIVE  PASS_EXHAUSTIVE  PASS_EXHAUSTIVE  FAIL
expected pattern: matched
"""


def test_suite_independence_stdout_is_pinned(capsys):
    assert main(["suite", "independence"]) == 0
    assert capsys.readouterr().out == INDEPENDENCE_STDOUT


def test_sampled_best_case_skips_unsampled_values(tmp_path, capsys):
    """Grid evidence for BEST_CASE only covers values the sample drew; this
    sample never draws 0 or 1 for agent 0."""
    path = write_config(
        tmp_path,
        mode={"kind": "sampled", "seed": 4, "samples": 4},
        mechanisms=[{"family": "EV_PAB", "pricing": {"family": "RULE_TABLE", "entries": []}}],
        axioms=["BEST_CASE"],
    )
    assert main(["audit", "--config", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    (cell,) = report["results"][0]["reports"]
    assert cell["verdict"] == "NOT_CERTIFIED"
    assert cell["profiles_checked"] == 4
    assert cell["details"]["scope"] == "grid"
    assert cell["details"]["first_unattained"] == {"agent": 0, "value": "2", "best_case": "0"}


DICTATOR = {"family": "DICTATORIAL_THRESHOLD", "threshold": "1"}


def winner_table(entries):
    return {"family": "SELECTIVE_VICKREY", "rule": {"family": "RULE_TABLE", "entries": entries}}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"mode": "exhaustive"}, ""),
        ({"output": "x.json"}, ""),
        ({"market": {"agents": 3.9, "objects": 1}}, ""),
        ({"market": {"agents": 3, "objects": True}}, ""),
        ({"mode": {"kind": "sampled", "seed": 1.5, "samples": 2}}, ""),
        ({"mode": {"kind": "sampled", "seed": 1, "samples": 2.7}}, ""),
        ({"grid": {"range": {"max": "2", "denominator": 2.0}}}, ""),
        (
            {"grid": {"range": {"max": "10", "denominator": 2}},
             "mode": {"kind": "sampled", "seed": 1, "samples": 10**12}},
            "error: bad grid: 1000000000000 samples exceed the enumeration budget",
        ),
        ({"grid": {"range": 2}}, ""),
        ({"mechanisms": [{"family": "SELECTIVE_VICKREY", "rule": dict(DICTATOR, agent=0.0)}]}, ""),
        ({"mechanisms": [{"family": "SELECTIVE_VICKREY", "rule": {
            "family": "RULE_TABLE",
            "entries": [{"profile": ["2", "0", "0"], "winners": [0.0]}],
        }}]}, ""),
        ({"grid": {"values": "13"}}, ""),
        ({"grid": {"per_agent": ["01", "02", "03"]}}, ""),
        ({"grid": {"per_agent": [["0", "1"], ["0", "2"], ["0", "1"]]}, "axioms": ["AIW"]}, ""),
        ({"axioms": "SP"}, 'error: axioms must be a JSON list, got "SP"'),
        ({"mechanisms": "VICKREY"}, 'error: mechanisms must be a JSON list, got "VICKREY"'),
        (
            {"mechanisms": {"family": "VICKREY"}},
            'error: mechanisms must be a JSON list, got {"family": "VICKREY"}',
        ),
        (
            {"mechanisms": [winner_table({"profile": ["2", "1", "1"], "winners": [0]})]},
            "error: bad mechanism spec: rule table entries must be a JSON list, got {",
        ),
        (
            {"mechanisms": [winner_table([{"profile": "211", "winners": [0]}])]},
            'error: bad mechanism spec: rule table profile must be a JSON list, got "211"',
        ),
        (
            {"mechanisms": [winner_table([{"profile": ["2", "1", "1"], "winners": "0"}])]},
            'error: bad mechanism spec: rule table winners must be a JSON list, got "0"',
        ),
        (
            {"mechanisms": [{"family": "EV_PAB", "pricing": {
                "family": "RULE_TABLE", "entries": [{"profile": "000", "mode": "EV"}],
            }}]},
            'error: bad mechanism spec: rule table profile must be a JSON list, got "000"',
        ),
        (
            {"mechanisms": [winner_table([{"profile": ["2", "1", "1", "0"], "winners": [0]}])]},
            "error: bad mechanism spec: rule table profile (2, 1, 1, 0) must list 3 "
            "non-negative values",
        ),
        (
            {"mechanisms": [winner_table([{"profile": ["1", "-1", "1"], "winners": []}])]},
            "error: bad mechanism spec: rule table profile (1, -1, 1) must list 3 "
            "non-negative values",
        ),
        (
            {"mechanisms": [winner_table([{"profile": ["1", "1", "1"], "winners": [0, 0]}])]},
            "error: bad mechanism spec: rule table lists winner 0 twice at profile (1, 1, 1)",
        ),
        (
            {"mechanisms": [{"family": "EV_PAB", "pricing": {"family": "RULE_TABLE", "entries": [
                {"profile": ["1", "0", "0", "0"], "mode": "EV"},
                {"profile": ["2", "0", "0", "0"], "mode": "EV"},
            ]}}]},
            "error: bad mechanism spec: rule table profile (1, 0, 0, 0) must list 3 "
            "non-negative values",
        ),
        (
            {"mechanisms": [{"family": "EV_PAB", "pricing": {"family": "RULE_TABLE", "entries": [
                {"profile": ["1", "-1", "1"], "mode": "PAB"},
            ]}}]},
            "error: bad mechanism spec: rule table profile (1, -1, 1) must list 3 "
            "non-negative values",
        ),
        ({"market": {"agents": 10**5, "objects": 1}, "grid": {"values": ["0", "1"]}},
         "error: bad grid: more than 1000000000000000000 profiles exceed the enumeration budget"),
        ({"market": {"agents": 10**5, "objects": 1}, "grid": {"range": {"max": "1"}}},
         "error: bad grid: more than 1000000000000000000 profiles exceed the enumeration budget"),
        ({"market": {"agents": 10**9, "objects": 1}, "grid": {"values": ["0"]}},
         "error: bad grid: 1000000000 agents exceed the enumeration budget"),
        ({"grid": {"range": {"max": "2000000"}},
          "mode": {"kind": "sampled", "seed": 1, "samples": 3}},
         "error: bad grid: 2000001 range values exceed the enumeration budget"),
        ({"grid": {"values": ["0", "1e10000000"]}},
         "error: bad grid: exponent notation is not accepted: '1e10000000'"),
        ({"market": {"agents": 10**5, "objects": 1}, "grid": {"values": ["0", "1"]},
          "mode": {"kind": "sampled", "seed": 1, "samples": 1}},
         "error: bad grid: 4999950000 rank stride bits exceed the enumeration budget"),
        ({"market": {"agents": 10**6, "objects": 1}, "grid": {"values": ["0", "1"]},
          "mode": {"kind": "sampled", "seed": 1, "samples": 1}},
         "error: bad grid: 499999500000 rank stride bits exceed the enumeration budget"),
        ({"market": {"objects": 1}}, "error: bad market section: market is missing its agents"),
        ({"market": {"agents": 3}}, "error: bad market section: market is missing its objects"),
        ({"grid": {"range": {"denominator": 2}}}, "error: bad grid: range is missing its max"),
        ({"grid": {"values": ["0", "1"], "range": {"max": "3"}}},
         "error: grid section needs exactly one of values, per_agent and range"),
        ({"mode": {"kind": "exhaustive", "samples": 500}},
         "error: exhaustive mode has an unknown field 'samples'"),
        ({"mode": {"kind": "sampled", "seed": 1, "samples": 0}},
         "error: bad mode: sampled mode needs samples >= 1"),
        ({"mode": {"kind": "fuzzy"}}, "error: bad mode: unknown kind: fuzzy"),
        ({"output": list(range(20000))}, "error: output must be a JSON object, got [0, 1, 2,"),
        ({"mechanisms": {f"k{i}": i for i in range(20000)}},
         'error: mechanisms must be a JSON list, got {"k0": 0, "k1": 1,'),
        ({"market": {"agents": "x" * 100000, "objects": 1}},
         'error: bad market section: agents must be an integer, got "xxx'),
        ({"mechanisms": [winner_table([{"profile": ["1"] * 100000, "winners": []}])]},
         "error: bad mechanism spec: rule table profile (1, 1, 1,"),
        ({"mechanisms": ["VICKREY", "PAY_AS_BID"],
          "axioms": ["SP", "SP", "WELFARE_COMPARE", "WELFARE_COMPARE"]},
         "error: axiom 'SP' is listed twice"),
    ],
    ids=[
        "mode-not-object", "output-not-object", "float-agents", "bool-objects",
        "float-seed", "float-samples", "float-denominator", "samples-over-budget",
        "range-not-object",
        "float-dictator", "float-winner", "values-string", "per-agent-strings",
        "aiw-unshared-grid", "axioms-string", "mechanisms-string", "mechanisms-object",
        "entries-object", "profile-string", "winners-string", "pricing-profile-string",
        "winner-profile-length", "winner-profile-negative", "winner-listed-twice",
        "pricing-profile-length",
        "pricing-profile-negative", "many-agents-values", "many-agents-range",
        "agents-over-budget", "sampled-range-over-budget", "exponent-grid-value",
        "sampled-strides-1e5-agents", "sampled-strides-1e6-agents", "market-without-agents",
        "market-without-objects", "range-without-max", "grid-values-and-range",
        "exhaustive-mode-samples", "sampled-mode-zero-samples", "unknown-mode-kind",
        "long-output-list", "long-mechanisms-object",
        "long-agents-string", "long-table-profile", "axiom-listed-twice",
    ],
)
def test_config_boundary_errors_exit_two(tmp_path, capsys, overrides, message):
    """Refused fast and in one short line: a grid is counted from its declared
    lengths, stopping early, before anything is built, so a long grid
    neither takes seconds nor prints a 4,300-digit count, and an exponent
    is never expanded."""
    path = write_config(tmp_path, **overrides)
    started = time.perf_counter()
    assert main(["audit", "--config", str(path)]) == 2
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert lines[0].startswith(message) and len(lines[0]) < 200, captured.err


@pytest.mark.parametrize(
    "mechanism",
    [
        winner_table([
            {"profile": ["2", "1", "1"], "winners": [0]},
            {"profile": ["2", "2/2", "1"], "winners": []},
        ]),
        {"family": "EV_PAB", "pricing": {"family": "RULE_TABLE", "entries": [
            {"profile": ["2", "1", "1"], "mode": "EV"},
            {"profile": ["4/2", "1", "1"], "mode": "PAB"},
        ]}},
    ],
    ids=["winner-table", "pricing-table"],
)
def test_rule_table_profile_listed_twice_exits_two(tmp_path, capsys, mechanism):
    """Two entries whose profiles normalise alike: neither silently wins."""
    path = write_config(tmp_path, mechanisms=[mechanism])
    assert main(["audit", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: bad mechanism spec: rule table lists profile (2, 1, 1) twice\n"
    )


def only(mechanism):
    """A config override: audit this one mechanism."""
    return {"mechanisms": [mechanism]}


def selective(rule):
    return {"family": "SELECTIVE_VICKREY", "rule": rule}


def ev_pab(pricing):
    return {"family": "EV_PAB", "pricing": pricing}


@pytest.mark.parametrize(
    "overrides, what, key",
    [
        ({"axiom": ["SP"]}, "config", "axiom"),
        ({"market": {"agents": 3, "objects": 1, "object": 2}}, "market", "object"),
        ({"grid": {"values": ["0", "1", "2", "3"], "value": ["0"]}}, "grid", "value"),
        ({"grid": {"range": {"max": "3", "denominatr": 2}}}, "range", "denominatr"),
        ({"mode": {"kind": "sampled", "seed": 1, "samples": 5, "sample": 9}}, "mode", "sample"),
        ({"output": {"jsonn": "report.json"}}, "output", "jsonn"),
        (only({"family": "VICKREY", "fee": "1"}), "VICKREY mechanism", "fee"),
        (only({"family": "EFFICIENT_VICKREY", "rule": "STRICT_WINNERS"}),
         "EFFICIENT_VICKREY mechanism", "rule"),
        (only({"family": "PAY_AS_BID", "pricing": "ALWAYS_EV"}),
         "PAY_AS_BID mechanism", "pricing"),
        (only({"family": "NO_TRADE", "fe": "1"}), "NO_TRADE mechanism", "fe"),
        (only(dict(selective("STRICT_WINNERS"), pricing="ALWAYS_EV")),
         "SELECTIVE_VICKREY mechanism", "pricing"),
        (only(dict(ev_pab("ALWAYS_EV"), rule="STRICT_WINNERS")), "EV_PAB mechanism", "rule"),
        (only(selective({"family": "EMPTY", "agent": 0})), "EMPTY winner rule", "agent"),
        (only(selective({"family": "STRICT_WINNERS", "threshold": "1"})),
         "STRICT_WINNERS winner rule", "threshold"),
        (only(selective({"family": "EFFICIENT_WINNERS", "entries": []})),
         "EFFICIENT_WINNERS winner rule", "entries"),
        (only(selective(dict(DICTATOR, agent=0, cutoff="1"))),
         "DICTATORIAL_THRESHOLD winner rule", "cutoff"),
        (only(selective({"family": "RULE_TABLE", "entries": [], "entry": []})),
         "RULE_TABLE winner rule", "entry"),
        (only(ev_pab({"family": "ALWAYS_EV", "cutoff": "1"})),
         "ALWAYS_EV pricing rule", "cutoff"),
        (only(ev_pab({"family": "EV_IFF_PRICE_ZERO", "cutoff": "0"})),
         "EV_IFF_PRICE_ZERO pricing rule", "cutoff"),
        (only(ev_pab({"family": "THRESHOLD", "cutoff": "1", "threshold": "2"})),
         "THRESHOLD pricing rule", "threshold"),
        (only(ev_pab({"family": "RULE_TABLE", "entries": [], "mode": "EV"})),
         "RULE_TABLE pricing rule", "mode"),
        (only(winner_table([{"profile": ["3", "2", "2"], "winners": [0], "mode": "EV"}])),
         "rule table entry", "mode"),
        (only(ev_pab({"family": "RULE_TABLE", "entries": [
            {"profile": ["1", "0", "0"], "mode": "EV", "winners": [0]}]})),
         "rule table entry", "winners"),
    ],
    ids=[
        "config", "market", "grid", "range", "mode", "output",
        "vickrey", "efficient-vickrey", "pay-as-bid", "no-trade", "selective-vickrey",
        "ev-pab", "empty", "strict-winners", "efficient-winners", "dictatorial-threshold",
        "winner-table", "always-ev", "ev-iff-price-zero", "threshold", "pricing-table",
        "winner-table-entry", "pricing-table-entry",
    ],
)
def test_unknown_config_field_exits_two(tmp_path, capsys, overrides, what, key):
    """A key mechlab does not read is refused, naming the object and the key,
    instead of being audited as if it were absent (a `NO_TRADE` spec with a
    misspelt `fee` audited fee 0)."""
    path = write_config(tmp_path, **overrides)
    assert main(["audit", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert lines[0].endswith(f"{what} has an unknown field '{key}'"), captured.err


def test_repeated_config_key_exits_two(tmp_path, capsys):
    """A key listed twice in one object is refused, not read as its last value."""
    path = write_config(tmp_path, mechanisms=[{"family": "NO_TRADE", "fee": "1"}])
    path.write_text(path.read_text().replace('"fee": "1"', '"fee": "1", "fee": "0"'))
    assert main(["audit", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a JSON object lists the key 'fee' twice\n"


def test_readme_config_loads_and_its_echo_loads_back(tmp_path):
    """The documented config format is the one `load_config` reads."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config format", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    echo = load_config(str(path)).echo()
    again = tmp_path / "echo.json"
    again.write_text(json.dumps(echo))
    assert load_config(str(again)).echo() == echo


def test_deeply_nested_config_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["audit", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config is nested too deeply\n"


def test_eval_refuses_exponent_notation_fast(capsys):
    started = time.perf_counter()
    assert main(["eval", "--mech", "vickrey", "--profile", "1e10000000,0,0"]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == "error: exponent notation is not accepted: '1e10000000'\n"


def test_python_dash_m_runs_the_command_line(tmp_path):
    """`python -m mechlab` is the `mechlab` command: --version exits 0, and
    a missing config is a user error, exit 2 with one line."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "mechlab", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )

    version = run("--version")
    assert (version.returncode, version.stdout.strip()) == (0, f"mechlab {__version__}")
    missing = run("audit", "--config", "missing.json")
    assert missing.returncode == 2
    assert missing.stderr.startswith("error: cannot read config")
    assert len(missing.stderr.splitlines()) == 1


LONG = 100_000


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"mechanisms": ["A" * LONG]},
         "error: bad mechanism spec: unknown mechanism family: " + "A" * 60 + "..."),
        ({"mechanisms": [{"family": "EV_PAB", "pricing": "P" * LONG}]},
         "error: bad mechanism spec: unknown pricing rule family: " + "P" * 60 + "..."),
        ({"axioms": ["S" * LONG]}, "error: unknown axiom '" + "S" * 59 + "...; known: EE, SP"),
        ({"k" * LONG: 1}, "error: config has an unknown field '" + "k" * 59 + "..."),
        ({"schema": "s" * LONG}, "error: unsupported config schema: '" + "s" * 59 + "..."),
        ({"mode": {"kind": "x" * LONG}}, "error: bad mode: unknown kind: " + "x" * 60 + "..."),
    ],
    ids=["family", "pricing-family", "axiom", "field", "schema", "mode"],
)
def test_a_long_unknown_name_is_cut_in_its_message(tmp_path, capsys, overrides, message):
    """A name mechlab does not know is shown cut after 60 characters, so a
    100,000-character one is refused fast in one short line; short names
    print whole (`unknown mechanism family: BOGUS`)."""
    path = write_config(tmp_path, **overrides)
    started = time.perf_counter()
    assert main(["audit", "--config", str(path)]) == 2
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200, captured.err[:300]
    assert lines[0].startswith(message), lines[0]


def test_checkers_and_the_audit_catalogue_keep_the_catalogue_order(tmp_path, capsys):
    """`CHECKERS` holds the nine axioms in the catalogue's order; the audit
    catalogue is `CHECKERS` then WELFARE_COMPARE, and an unknown axiom's
    message lists it so."""
    assert list(CHECKERS) == ["EE", "SP", "NOM", "EFF", "IR", "NS", "EF", "AIW", "BEST_CASE"]
    assert AXIOM_CATALOG == (*CHECKERS, "WELFARE_COMPARE")
    assert main(["audit", "--config", str(write_config(tmp_path, axioms=["XX"]))]) == 2
    assert capsys.readouterr().err == (
        "error: unknown axiom 'XX'; known: "
        "EE, SP, NOM, EFF, IR, NS, EF, AIW, BEST_CASE, WELFARE_COMPARE\n"
    )


def test_a_malformed_outcome_after_every_witness_is_still_refused(tmp_path, capsys, monkeypatch):
    """A mechanism that fails every pointwise axiom at the grid's first
    profile has all its witnesses there, so an exhaustive scan runs no
    generator after it; its malformed outcome at the last profile is still
    read and refused by `scan`, by `audit` and by `mechlab audit`. The
    mechanism stands in for one `mechlab audit` built itself, so its
    refusal is a mechlab fault: exit 3, not a user error."""
    grid = GridSpace.shared(MarketConfig(3, 1), (1, 2, 3))
    first, last = (1, 1, 1), (3, 3, 3)

    def fn(profile, last=last):
        if profile.values == first:  # agent 0 pays for nothing, agent 1 is paid
            return Allocation((0, 0, 0), (1, -1, 0))
        if profile.values == last:
            return Allocation((1, 1, 0), (0, 0, 0))
        return Allocation((0, 0, 0), (0, 0, 0))

    wellformed = Mechanism("wellformed", "CUSTOM", partial(fn, last=None))
    reports = scan(OutcomeTable(wellformed, grid), list(POINTWISE.values()))
    assert all(r.verdict == "FAIL" and r.witness["profile"] == first for r in reports.values())
    assert {r.profiles_checked for r in reports.values()} == {grid.size}

    bad = Mechanism("bad", "CUSTOM", fn)
    message = "bad gave 2 objects; the market has 1"
    with pytest.raises(ValueError, match=message):
        scan(OutcomeTable(bad, grid), list(POINTWISE.values()))
    with pytest.raises(ValueError, match=message):
        audit(OutcomeTable(bad, grid), list(CHECKERS))
    monkeypatch.setattr(cli, "parse_mechanism", lambda spec, market: bad)
    path = write_config(
        tmp_path, mechanisms=["VICKREY"], grid={"values": ["1", "2", "3"]}, axioms=list(POINTWISE)
    )
    assert main(["audit", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: ValueError: {message}\n"


def test_an_audit_sweeps_the_grid_once_per_mechanism(tmp_path, capsys, monkeypatch):
    """One in-process audit of every axiom and WELFARE_COMPARE sweeps the
    grid once per mechanism, once more per mechanism with grid-scope NOM
    bounds (which BEST_CASE shares), and once per welfare comparison."""
    market = MarketConfig(3, 1)
    values = ["0", "1", "2", "3"]
    table = random_winner_rule_table(GridSpace.shared(market, values), random.Random("sweeps"))
    winner_entries = [
        {"profile": [rat_str(v) for v in key], "winners": sorted(winners)}
        for key, winners in sorted(table.items())
    ]
    pricing_entries = [{"profile": ["1", "0", "0"], "mode": "EV"}]
    mechanisms = [
        "VICKREY",
        "PAY_AS_BID",
        {"family": "NO_TRADE", "fee": "1"},
        {"family": "EV_PAB", "pricing": "ALWAYS_EV"},
        {"family": "SELECTIVE_VICKREY",
         "rule": {"family": "RULE_TABLE", "entries": winner_entries}},
        {"family": "EV_PAB", "pricing": {"family": "RULE_TABLE", "entries": pricing_entries}},
    ]
    path = write_config(
        tmp_path, mechanisms=mechanisms, grid={"values": values},
        axioms=[*CHECKERS, "WELFARE_COMPARE"],
    )
    config = load_config(str(path))
    grid_scope = sum(m.bounds is None for m in config.mechanisms)
    sweeps = []
    profiles = GridSpace.profiles

    def counted(self):
        sweeps.append(self)
        return profiles(self)

    monkeypatch.setattr(GridSpace, "profiles", counted)
    assert main(["audit", "--config", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    best_case = [
        next(r for r in result["reports"] if r["axiom"] == "BEST_CASE")
        for result in report["results"]
    ]
    assert best_case[-1]["verdict"] == "NOT_CERTIFIED"  # grid bounds, shared with NOM
    assert grid_scope == 2
    mechanism_count = len(mechanisms)
    assert len(sweeps) == mechanism_count + grid_scope + (mechanism_count - 1)
