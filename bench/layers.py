"""Per-layer metrics: spans around calls into mechlab, plus micro-probes.

A traced run replaces public names on mechlab's modules with wrappers
defined here, runs the workload and then the correctness gate under them,
and puts every name back. Coarse calls (`cli.main`, each checker, each
suite, ...) become spans with a name, start, end and parent. Hot calls
(`Mechanism.evaluate`, `Profile.with_value`/`swapped`, each profile a
`GridSpace.profiles()` sweep yields) are too many to keep one by one, so
they are aggregated per parent span as a count and a total time. Spans
stay in memory and are returned with the result when the run ends.

A span's self time is its duration minus its child spans and the
aggregated calls made directly under it. The micro-probes run after the
wrappers are removed, on the workload's own profiles.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import gate
import workloads

CHECKER_TAGS = ("EE", "SP", "NOM", "EFF", "IR", "NS", "EF", "AIW", "BEST_CASE")
# One `builtin_mechanisms()` instance per family, for the cold-evaluation probe.
FAMILIES = ("vickrey", "efficient_vickrey", "pay_as_bid", "no_trade", "selective_vickrey", "ev_pab")
SEARCH_SPANS = {
    "random_uncompromising_rules": "search.rule_gen",
    "random_winner_rule_table": "search.rule_gen",
    "validate_winner_rule": "search.validate",
    "check_uncompromising": "search.uncompromising",
    "check_ev_support": "search.ev_support",
}
# Constructors the suites call; audits build theirs through `cli.parse_mechanism`.
CONSTRUCTORS = (
    "vickrey_mechanism",
    "pay_as_bid_mechanism",
    "no_trade_mechanism",
    "selective_vickrey_mechanism",
    "ev_pab_mechanism",
)

# Measured on every workload; these are the `per_layer` metrics of BENCHMARK.json.
COMMON = (
    "model.profile_new_us",
    "model.with_value_us",
    "model.profile_hash_us",
    "model.deviation_profiles",
    "mechanisms.evaluate_calls",
    "mechanisms.distinct_profiles",
    "mechanisms.reuse_ratio",
    "mechanisms.evaluate_s",
    "mechanisms.warm_eval_us",
    *(f"mechanisms.cold_eval_us.{family}" for family in FAMILIES),
    "mechanisms.construct_s",
    *(f"axioms.{tag}_s" for tag in ("EE", "SP", "NOM", "IR", "NS", "WELFARE_COMPARE")),
    "axioms.sweeps",
    "axioms.profile_gen_us",
    "axioms.replay_us",
    "search.shrink_us",
    "trace.overhead_s",
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off the suffix of its second part."""
    stem = name.split(".")[1]
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_bytes", "bytes"), ("_ratio", "ratio")):
        if stem.endswith(suffix):
            return unit
    return "count"


class Tracer:
    """Spans and aggregated hot calls, recorded by wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack = [-1]
        self.hot: dict[tuple[int, str], list[int]] = {}  # (parent, name) -> [count, ns]
        self.evaluated: dict[int, tuple] = {}  # id(mechanism) -> (mechanism, profiles)
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def run(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, 0, 0, self.stack[-1]]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter_ns()
            self.stack.pop()

    def _add(self, name: str, count: int, elapsed: int) -> None:
        key = (self.stack[-1], name)
        slot = self.hot.get(key)
        if slot is None:
            self.hot[key] = [count, elapsed]
        else:
            slot[0] += count
            slot[1] += elapsed

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)

        return wrapper

    def aggregated(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(name, 1, perf_counter_ns() - start)

        return wrapper

    def evaluate(self, fn):
        evaluated = self.evaluated

        def evaluate(mechanism, profile):
            start = perf_counter_ns()
            try:
                return fn(mechanism, profile)
            finally:
                self._add("mechanisms.evaluate", 1, perf_counter_ns() - start)
                entry = evaluated.get(id(mechanism))
                if entry is None:  # holding the mechanism keeps its id unique
                    entry = evaluated[id(mechanism)] = (mechanism, set())
                entry[1].add(profile)

        return evaluate

    def profiles(self, fn):
        def profiles(grid):
            self._add("axioms.sweep", 1, 0)
            iterator = fn(grid)
            while True:
                start = perf_counter_ns()
                try:
                    profile = next(iterator)
                except StopIteration:
                    self._add("axioms.profile", 0, perf_counter_ns() - start)
                    return
                self._add("axioms.profile", 1, perf_counter_ns() - start)
                yield profile

        return profiles

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, name: str, make) -> None:
        if isinstance(owner, dict):
            original = owner[name]
            owner[name] = make(original)
        else:
            original = getattr(owner, name)
            setattr(owner, name, make(original))
        self._restore.append((owner, name, original))

    def install(self) -> None:
        from mechlab import axioms, cli, mechanisms, model, search

        span = self.spanned
        self._patch(cli, "main", lambda f: span("cli.main", f))
        self._patch(cli, "load_config", lambda f: span("cli.load_config", f))
        self._patch(cli, "parse_mechanism", lambda f: span("mechanisms.construct", f))
        for tag in list(axioms.CHECKERS):
            self._patch(axioms.CHECKERS, tag, lambda f, t=tag: span(f"axioms.{t}", f))
        for module in (cli, search):
            self._patch(module, "welfare_compare", lambda f: span("axioms.WELFARE_COMPARE", f))
        for name, label in SEARCH_SPANS.items():
            self._patch(search, name, lambda f, n=label: span(n, f))
        for name in CONSTRUCTORS:
            self._patch(search, name, lambda f: span("mechanisms.construct", f))
        for name in list(search.SUITES):
            self._patch(search.SUITES, name, lambda f, n=name: span(f"search.suite.{n}", f))
        self._patch(search, "shrink_witness", lambda f: span("search.shrink", f))
        self._patch(axioms, "replay_witness", lambda f: span("axioms.replay", f))
        self._patch(axioms.GridSpace, "profiles", self.profiles)
        self._patch(mechanisms.Mechanism, "evaluate", self.evaluate)
        for name in ("with_value", "swapped"):
            self._patch(model.Profile, name, lambda f: self.aggregated("model.deviation", f))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- reading ------------------------------------------------------------

    def distinct_profiles(self) -> int:
        return sum(len(profiles) for _, profiles in self.evaluated.values())

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p} for n, s, e, p in self.spans
            ],
            "aggregated": [
                {"parent": p, "name": n, "count": c, "total_ns": t}
                for (p, n), (c, t) in self.hot.items()
            ],
        }


class Totals:
    """Span and aggregated-call totals under the first span named `root`."""

    def __init__(self, tracer: Tracer, root: str) -> None:
        self.spans = tracer.spans
        top = next(i for i, s in enumerate(self.spans) if s[0] == root)
        self.members = {top}
        for index in range(top + 1, len(self.spans)):
            if self.spans[index][3] in self.members:
                self.members.add(index)
        self.hot = {k: v for k, v in tracer.hot.items() if k[0] in self.members}

    def _outermost(self, name: str) -> list[list]:
        found = []
        for index in sorted(self.members):
            record = self.spans[index]
            if record[0] != name:
                continue
            parent = record[3]
            while parent in self.members and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent not in self.members:
                found.append(record)
        return found

    def seconds(self, name: str) -> float:
        return sum(e - s for _, s, e, _ in self._outermost(name)) / 1e9

    def per_call_us(self, name: str) -> float:
        calls = [e - s for n, s, e, _ in (self.spans[i] for i in self.members) if n == name]
        return sum(calls) / len(calls) / 1e3 if calls else 0.0

    def hot_total(self, name: str) -> tuple[int, int]:
        count = elapsed = 0
        for (_, hot_name), (c, t) in self.hot.items():
            if hot_name == name:
                count += c
                elapsed += t
        return count, elapsed

    def self_seconds(self, name: str) -> float:
        total = 0
        for index in self.members:
            n, s, e, _ = self.spans[index]
            if n != name:
                continue
            children = sum(
                ce - cs for _, cs, ce, cp in (self.spans[i] for i in self.members) if cp == index
            )
            hot = sum(t for (p, _), (_, t) in self.hot.items() if p == index)
            total += e - s - children - hot
        return total / 1e9


def span_metrics(tracer: Tracer, distinct: int) -> dict[str, float]:
    work = Totals(tracer, "bench.workload")
    checks = Totals(tracer, "bench.gate")
    calls, evaluate_ns = work.hot_total("mechanisms.evaluate")
    yielded, yield_ns = work.hot_total("axioms.profile")
    metrics = {
        "model.deviation_profiles": work.hot_total("model.deviation")[0],
        "mechanisms.evaluate_calls": calls,
        "mechanisms.distinct_profiles": distinct,
        "mechanisms.reuse_ratio": 1 - distinct / calls if calls else 0.0,
        "mechanisms.evaluate_s": evaluate_ns / 1e9,
        "mechanisms.construct_s": work.seconds("mechanisms.construct"),
        "axioms.sweeps": work.hot_total("axioms.sweep")[0],
        "axioms.profile_gen_us": yield_ns / yielded / 1e3 if yielded else 0.0,
        "axioms.replay_us": checks.per_call_us("axioms.replay"),
        "search.shrink_us": checks.per_call_us("search.shrink"),
        "cli.load_config_s": work.seconds("cli.load_config"),
        "cli.self_s": work.self_seconds("cli.main"),
    }
    for tag in (*CHECKER_TAGS, "WELFARE_COMPARE"):
        metrics[f"axioms.{tag}_s"] = work.seconds(f"axioms.{tag}")
    for label in sorted(set(SEARCH_SPANS.values())):
        metrics[f"{label}_s"] = work.seconds(label)
    for name in workloads.SUITE_NAMES:
        metrics[f"search.suite_s.{name}"] = work.seconds(f"search.suite.{name}")
    return metrics


def _per_op_us(size: int, batch, prepare=lambda: None, min_ops: int = 20000) -> float:
    """Median over batches of the µs per operation of `batch(prepare())`."""
    samples = []
    done = 0
    while len(samples) < 5 or done < min_ops:
        argument = prepare()
        start = perf_counter_ns()
        batch(argument)
        samples.append((perf_counter_ns() - start) / size / 1e3)
        done += size
    return statistics.median(samples)


def probe_metrics(workload: str, input_path: str) -> dict[str, float]:
    """Per-operation costs of the model and mechanism layers, untraced."""
    from mechlab import cli, mechanisms, search
    from mechlab.model import Profile

    if workload == workloads.SUITES:
        grid = search.GridConfig(3, 1, values=(0, 1, 2, 3)).space()
    else:
        grid = cli.load_config(input_path).grid()
    market = grid.config
    rows = [p.values for p in grid.profiles()]
    profiles = [Profile(market, values) for values in rows]
    deviations = []
    for k, profile in enumerate(profiles):
        agent = k % market.n
        low, high = grid.values[agent][0], grid.values[agent][-1]
        deviations.append((profile, agent, low if profile.values[agent] != low else high))

    def build(_):
        for values in rows:
            Profile(market, values)

    def deviate(_):
        for profile, agent, value in deviations:
            profile.with_value(agent, value)

    def hash_all(fresh):
        for profile in fresh:
            hash(profile)

    def evaluate_all(mechanism):
        for profile in profiles:
            mechanism.evaluate(profile)

    warm = mechanisms.vickrey_mechanism()
    evaluate_all(warm)
    metrics = {
        "model.profile_new_us": _per_op_us(len(rows), build),
        "model.with_value_us": _per_op_us(len(deviations), deviate),
        "model.profile_hash_us": _per_op_us(
            len(rows), hash_all, lambda: [Profile(market, values) for values in rows]
        ),
        "mechanisms.warm_eval_us": _per_op_us(len(profiles), evaluate_all, lambda: warm),
    }
    for family in FAMILIES:
        metrics[f"mechanisms.cold_eval_us.{family}"] = _per_op_us(
            len(profiles),
            evaluate_all,
            lambda f=family: next(
                m for m in mechanisms.builtin_mechanisms() if m.family.lower() == f
            ),
            min_ops=5000,
        )
    return metrics


def traced_run(workload: str, input_path: str, marks: dict, run_workload) -> dict:
    """Run the workload and the gate under spans; return output, gate and metrics."""
    tracer = Tracer()
    tracer.install()
    try:
        output = tracer.run("bench.workload", run_workload, workload, input_path, marks, False)
        distinct = tracer.distinct_profiles()
        problems, stats = tracer.run("bench.gate", gate.check, workload, input_path, output)
    finally:
        tracer.uninstall()
    metrics = span_metrics(tracer, distinct)
    metrics["cli.report_bytes"] = len(output.get("report", "").encode())
    metrics.update(probe_metrics(workload, input_path))
    return {
        "output": output,
        "problems": problems,
        "gate_stats": stats,
        "layers": metrics,
        "trace": tracer.dump(),
    }
