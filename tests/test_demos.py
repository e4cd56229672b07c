"""Every demo script runs to completion against the current API and prints
the same bytes every run.

Each demo's stdout is pinned by its SHA-256. A change that moves a digest
changes what a demo prints: check the new output by hand, then update the
digest here and say why in the change log.
"""

import hashlib
import os
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


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_zero(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
