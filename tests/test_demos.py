"""Every demo script, and README's library quick start, runs to
completion against the current API; each demo prints the same bytes every
run.

Each demo's stdout is pinned by its SHA-256. A change that moves a digest
changes what a demo prints: check the new output by hand, then update the
digest here and say why in the change log.
"""

import hashlib
import os
import re
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
