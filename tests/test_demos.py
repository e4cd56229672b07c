"""Every demo script, README's library quick start and README's
command-line block run to completion against the current API; each demo
prints the same bytes every run.

Each demo's stdout is pinned by its SHA-256. A change that moves a digest
changes what a demo prints: check the new output by hand, then update the
digest here and say why in the change log.
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "axiom_audit.py": "ab58a79c6728a38659cd4bf1bf1f484920888dddc7d3f2e27e3a5ccd983da4e1",
    "mechanism_tour.py": "e6137c351b5d87bb8496e997bb1c8ba9bd9147d7d306137b35b7f557da403173",
    "welfare_hunt.py": "d95bfcb20588650de536675ab150c3bc5bd3990462731b082ff3654b5fea778d",
}


def run_python(*args):
    """Run the interpreter on `args` from the repo root, with `src` importable."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_zero(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]


def test_readme_quick_start_runs():
    """README's "Library quick start" block runs as written, so it cannot go
    stale when a signature changes."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().splitlines()[1:] == [
        "PASS_ANALYTIC",
        "{'SP': 'FAIL', 'EE': 'PASS_EXHAUSTIVE', 'NOM': 'FAIL'}",
        "DOMINATES",
    ]


def test_readme_command_line_block_runs():
    """Each `mechlab ...` line of README's "Command line" block runs through
    `python -m mechlab` and exits as README's exit-code paragraph says: the
    demo config holds failing combinations, so only `audit` exits 1."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines()]
    assert [line[:2] for line in lines] == [
        ["mechlab", "eval"], ["mechlab", "audit"], ["mechlab", "suite"], ["mechlab", "compare"],
    ]
    for line, code in zip(lines, (0, 1, 0, 0)):
        result = run_python("-m", "mechlab", *line[1:])
        assert result.returncode == code, (line, result.stderr.decode())


def test_the_public_surface_is_pinned():
    """`mechlab.__all__` is the names the package imports, sorted, and none
    of its submodules; a name added or dropped is a change to this list."""
    import mechlab

    assert mechlab.__all__ == [
        "Allocation", "AxiomReport", "CHECKERS", "GridSpace", "MarketConfig",
        "Mechanism", "OutcomeTable", "PricingRule", "Profile", "SUITES",
        "SuiteResult", "WelfareComparison", "WinnerRule", "audit",
        "builtin_mechanisms", "check_ev_support", "check_uncompromising",
        "efficient_vickrey_mechanism", "ev_pab_mechanism", "find_reference_bundle",
        "has_uniform_tail", "mechanism_from_spec", "no_trade_mechanism",
        "pay_as_bid_mechanism", "random_uncompromising_rules",
        "random_winner_rule_table", "rat", "rat_str", "refresh_witness",
        "replay_witness", "selective_vickrey_mechanism", "shrink_witness",
        "suite_anonymity", "suite_independence", "suite_nom_class",
        "suite_sp_class", "suite_welfare", "utilities", "validate_winner_rule",
        "vickrey_mechanism", "vickrey_price", "welfare_compare",
        "witness_from_json", "witness_to_json",
    ]
    assert all(hasattr(mechlab, name) for name in mechlab.__all__)
