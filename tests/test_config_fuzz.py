"""A standing fuzz of the audit config boundary.

Each example applies one or two edits to the demo config and runs
`mechlab audit` in-process. Whatever the edits, the command keeps its exit
contract: 0 or 1 with the JSON report on stdout, or 2 with exactly one
stderr line starting `error: `. Nothing raises, and every example is
settled within 5 s. The replacement sizes are the extremes only (no
mid-range grid or market), so the time bound measures how fast a refusal
is, not how fast an audit is.
"""

import copy
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mechlab.cli import main

DEMO_CONFIG = json.loads(
    (Path(__file__).resolve().parents[1] / "demos" / "audit_config.json").read_text()
)

OTHER_TYPES = (None, True, False, "text", [], {}, ["0"], {"key": "0"})
EXTREMES = (-1, 0, 10**6, 10**100, 0.5, "1e9", "1/0")
EDITS = ("retype", "extreme", "delete", "duplicate")


def locations(doc, path=()):
    """Every path into the document, the root included, as key/index tuples."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from locations(value, (*path, key))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from locations(value, (*path, index))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, value):
    """The document with the value at `path` replaced; the root may be too."""
    if not path:
        return value
    at(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def edited_configs(draw):
    doc = copy.deepcopy(DEMO_CONFIG)
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(EDITS))
        paths = list(locations(doc))
        if edit == "retype":
            path = draw(st.sampled_from(paths))
            old = at(doc, path)
            others = [v for v in OTHER_TYPES if type(v) is not type(old)]
            doc = replaced(doc, path, copy.deepcopy(draw(st.sampled_from(others))))
        elif edit == "extreme":
            doc = replaced(doc, draw(st.sampled_from(paths)), draw(st.sampled_from(EXTREMES)))
        elif edit == "delete":
            keyed = [p for p in paths if p and isinstance(at(doc, p[:-1]), dict)]
            if keyed:
                path = draw(st.sampled_from(keyed))
                del at(doc, path[:-1])[path[-1]]
        else:
            lists = [p for p in paths if isinstance(at(doc, p), list) and at(doc, p)]
            if lists:
                items = at(doc, draw(st.sampled_from(lists)))
                index = draw(st.integers(0, len(items) - 1))
                items.insert(index, copy.deepcopy(items[index]))
    return doc


@settings(max_examples=150, deadline=None)
@given(edited_configs())
def test_an_edited_config_keeps_the_exit_contract(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["audit", "--config", str(path)])
    assert time.perf_counter() - started < 5, doc
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (doc, err.getvalue())
        assert out.getvalue() == "", doc
    else:
        assert code in (0, 1), (doc, code)
        report = json.loads(out.getvalue())
        assert report["summary"]["all_pass"] == (code == 0), doc
