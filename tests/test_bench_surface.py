"""The names the benchmark's traced run replaces exist and are called.

`bench/layers.py` swaps public names on mechlab's modules for timing
wrappers and puts them back afterwards. A rename there would only show
as a crash of the traced benchmark run; this test fails first. It
imports from `bench/` and changes nothing there.
"""

from pathlib import Path

from mechlab import axioms, search

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
    assert {"mechanisms.construct", "axioms.WELFARE_COMPARE", "axioms.NOM"} <= spans
