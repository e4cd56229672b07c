"""The benchmark's own harness, run against the current code.

`bench/layers.py` swaps public names on mechlab's modules for timing
wrappers and puts them back afterwards. A rename there would only show
as a crash of the traced benchmark run; these tests fail first. An audit
of every axiom also goes through `bench/gate.py`, which replays and
shrinks its witnesses. The tests import from `bench/` and change
nothing there.
"""

import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from mechlab import (
    GridSpace,
    MarketConfig,
    axioms,
    cli,
    efficient_vickrey_mechanism,
    random_winner_rule_table,
    rat_str,
    search,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls_on_the_current_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    assert set(axioms.CHECKERS) == set(layers.CHECKER_TAGS)
    patched = (*layers.SEARCH_SPANS, *layers.CONSTRUCTORS, "welfare_compare")
    before = {name: getattr(search, name) for name in patched}
    checkers = dict(axioms.CHECKERS)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(getattr(search, name) is not before[name] for name in patched)
        assert all(axioms.CHECKERS[tag] is not checkers[tag] for tag in checkers)
        # The suites reach the rule checks, the rule generator and the
        # constructors through `search`'s globals, so the wrappers see them.
        search.SUITES["sp-class"](count=1)
        search.SUITES["nom-class"]()
        search.SUITES["welfare"]()
    finally:
        tracer.uninstall()
    assert {name: getattr(search, name) for name in patched} == before
    assert axioms.CHECKERS == checkers
    spans = {span[0] for span in tracer.spans}
    assert set(layers.SEARCH_SPANS.values()) <= spans
    assert {"mechanisms.construct", "axioms.WELFARE_COMPARE"} <= spans
    # The suites audit through `axioms.audit`, not `CHECKERS`; the sweep
    # hook on `GridSpace.profiles` still sees each mechanism's one scan.
    assert "axioms.sweep" in {name for _, name in tracer.hot}


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's modules, imported from `bench/`."""
    monkeypatch.syspath_prepend(str(BENCH))
    import child
    import gate
    import layers
    import workloads

    return SimpleNamespace(child=child, gate=gate, layers=layers, workloads=workloads)


# SHA-256 of the audit's `results` plus `comparisons`, as the gate digests them.
AUDIT_DIGEST = "be560bc886bd1051aaa43e83d863354454ba6a48f6c0e8601b98d976cb7bcd16"


def test_an_audit_of_every_axiom_passes_the_bench_gate(bench, tmp_path, capsys):
    """The gate replays and shrinks every FAIL witness of a 3x1 audit with
    the built-in families, a seeded winner table and an EV_PAB pricing
    table, and finds nothing wrong; the report bytes are pinned."""
    market = MarketConfig(3, 1)
    values = [str(v) for v in range(4)]
    table = random_winner_rule_table(
        GridSpace.shared(market, values), random.Random("bench-surface")
    )
    winner_entries = [
        {"profile": [rat_str(v) for v in key], "winners": sorted(winners)}
        for key, winners in sorted(table.items())
    ]
    pricing_entries = [
        {"profile": profile, "mode": mode}
        for profile, mode in (
            (["1", "0", "0"], "EV"),
            (["0", "2", "0"], "EV"),
            (["3", "1", "1"], "PAB"),
            (["2", "2", "2"], "EV"),
        )
    ]
    config = {
        "schema": 1,
        "market": {"agents": 3, "objects": 1},
        "grid": {"values": values},
        "mode": {"kind": "exhaustive"},
        "mechanisms": [
            *bench.workloads.BUILTIN_SPECS,
            {"family": "SELECTIVE_VICKREY",
             "rule": {"family": "RULE_TABLE", "entries": winner_entries}},
            {"family": "EV_PAB",
             "pricing": {"family": "RULE_TABLE", "entries": pricing_entries}},
        ],
        "axioms": [*axioms.CHECKERS, "WELFARE_COMPARE"],
    }
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(config))
    assert cli.main(["audit", "--config", str(path)]) == 1
    output = {"report": capsys.readouterr().out}
    workload = bench.workloads.AUDIT_EXHAUSTIVE
    problems, stats = bench.gate.check(workload, str(path), output)
    assert problems == {}
    assert stats["replayed"] and stats["shrunk"] and stats["welfare"]
    assert bench.gate.results_digest(workload, output) == AUDIT_DIGEST


def test_best_case_sweeps_the_grid_once(bench):
    """EFF, IR and NS share one sweep, and analytic bounds need none."""
    grid = GridSpace.shared(MarketConfig(3, 1), range(4))
    tracer = bench.layers.Tracer()
    tracer.install()
    try:
        report = axioms.CHECKERS["BEST_CASE"](efficient_vickrey_mechanism(), grid)
    finally:
        tracer.uninstall()
    assert report.verdict == "PASS_ANALYTIC"
    sweeps = [count for (_, name), (count, _) in tracer.hot.items() if name == "axioms.sweep"]
    assert sum(sweeps) == 1


@pytest.mark.parametrize("name", ["audit-exhaustive", "audit-sampled"])
def test_audit_workloads_match_the_bench_reference(bench, tmp_path, capsys, name):
    """The two audit workloads at the default seed, run through `cli.main`,
    give every operation digest stored in `bench/reference.json`."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(bench.workloads.generate(name, bench.workloads.DEFAULT_SEED)))
    assert cli.main(["audit", "--config", str(path)]) == 1
    output = {"report": capsys.readouterr().out}
    reference = bench.gate.load_reference(name)
    assert bench.gate.cell_digests(name, output) == reference["cells"]


def test_suites_workload_passes_the_bench_gate(bench, tmp_path):
    """The suites workload at the default seed, run as the bench child runs
    it: the gate replays, shrinks and re-derives its witnesses through the
    suites' grid and finds nothing wrong, and every call's digest is the one
    stored in `bench/reference.json`."""
    name = bench.workloads.SUITES
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(bench.workloads.generate(name, bench.workloads.DEFAULT_SEED)))
    output = bench.child.run_suites(str(path), {}, setup_only=False)
    assert len(output["calls"]) == 50
    problems, stats = bench.gate.check(name, str(path), output)
    assert problems == {}
    assert stats["replayed"] and stats["shrunk"] and stats["welfare"]
    reference = bench.gate.load_reference(name)
    assert bench.gate.cell_digests(name, output) == reference["cells"]


# SHA-256 of the generated `audit-exhaustive` config at seeds 0, 1 and 2: its
# rule table is `random_winner_rule_table`'s draw, so these pin that stream.
EXHAUSTIVE_INPUTS = {
    0: "7530b5799f3d967d753c0e4dcd216b914d970217e59f9c611bd7c78b0ec64520",
    1: "6ebd994d6be250ddb055135fa56377cb590405b633152cfa4bc4fbed7d3d0442",
    2: "6c5d54acb62b4396bbd728ca45a69c2a817ad1ae944857549029c9a02c4bb048",
}


@pytest.mark.parametrize("seed", sorted(EXHAUSTIVE_INPUTS))
def test_generated_exhaustive_inputs_are_pinned(bench, seed):
    """A changed rule-table stream shows here, not only as a refused
    benchmark run."""
    inputs = bench.workloads.generate(bench.workloads.AUDIT_EXHAUSTIVE, seed)
    assert bench.workloads.digest(inputs) == EXHAUSTIVE_INPUTS[seed]
