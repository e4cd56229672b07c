"""mechlab benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload audit-exhaustive --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all
    python3 bench/run.py --write-reference

Run from the repository root; mechlab is imported from `src/`. Each
measured process is a fresh, single-threaded `bench/child.py` (the
`MECHLAB_WORKERS` variable is removed from its environment).

With `--trace 0` the run alternates set-up probes (processes that stop just
before the first checker or suite call) with whole-workload processes
until `--seconds` have passed, and reports the medians of `setup_s`,
`run_s` and `peak_rss_mb`. With `--trace 1` it runs the workload once
untraced and once traced, requires both to give the same results, and
reports the per-layer metrics of `bench/layers.py` plus the tracing
overhead. Either way every operation is gated (see `bench/gate.py`), and
the last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. Everything a run writes
goes under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

HARD_LIMIT_S = 165  # a run must end well inside 180 s
MIN_RUNS = 3  # whole-workload processes per untraced run, at least
SETUP_PROBES = 2  # set-up probes before each whole-workload process


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MECHLAB_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One finished child process: its result document and resource use."""

    def __init__(self, mode: str, workload: str, input_path: Path, run_dir: Path, deadline: float):
        self.mode = mode
        out_path = run_dir / f"child-{mode}.json"
        err_path = run_dir / f"child-{mode}.err"
        out_path.unlink(missing_ok=True)
        command = [sys.executable, str(BENCH / "child.py"), mode, workload, str(input_path), str(out_path)]
        with open(err_path, "w", encoding="utf-8") as err:
            self.spawned = time.monotonic()
            proc = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self.wall = time.monotonic() - self.spawned
        self.code = proc.returncode
        self.error = err_path.read_text(encoding="utf-8")[-2000:]
        self.doc = None
        if self.code == 0 and out_path.is_file():
            with open(out_path, encoding="utf-8") as handle:
                self.doc = json.load(handle)

    @property
    def marks(self) -> dict:
        return (self.doc or {}).get("marks", {})

    @property
    def peak_rss_mb(self) -> float | None:
        kib = (self.doc or {}).get("peak_rss_kib")
        return None if kib is None else kib / 1024

    @property
    def setup_s(self) -> float | None:
        end = self.marks.get("setup_end")
        return None if end is None else end - self.spawned

    @property
    def run_s(self) -> float | None:
        marks = self.marks
        if "run_end" not in marks:
            return None
        return marks["run_end"] - marks["setup_end"]

    @property
    def output(self) -> dict | None:
        output = (self.doc or {}).get("output")
        if output is None or output.get("exit") not in (0, 1):
            return None  # a crash or exit 2 fails every operation
        return output


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            commit = ref
    source = hashlib.sha256()
    for path in sorted((SRC / "mechlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def write_inputs(workload: str, seed: int, run_dir: Path) -> tuple[dict, Path]:
    import workloads

    inputs = workloads.generate(workload, seed)
    name = "inputs.json" if workload == workloads.SUITES else "config.json"
    input_path = run_dir / name
    input_path.write_text(json.dumps(inputs, indent=1, sort_keys=True), encoding="utf-8")
    return inputs, input_path


def measure(workload: str, input_path: Path, run_dir: Path, seconds: int, hard_deadline: float):
    """Alternate set-up probes and whole-workload processes for `seconds`."""
    stop = time.monotonic() + seconds
    probes: list[Child] = []
    runs: list[Child] = []
    while True:
        for _ in range(SETUP_PROBES):
            probes.append(Child("setup", workload, input_path, run_dir, hard_deadline))
        runs.append(Child("run", workload, input_path, run_dir, hard_deadline))
        next_end = time.monotonic() + runs[-1].wall
        if next_end > hard_deadline - 5 or (len(runs) >= MIN_RUNS and next_end > stop):
            return probes, runs


def account(workload, inputs, runs, problems, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every whole-workload process of the run.

    An operation fails when its process crashed or exited 2, when the gate
    found a problem with it, when its digest differs from the reference
    (default seed only), or when it differs between processes of the run.
    """
    import gate
    import workloads

    expected = workloads.expected_ops(workload, inputs)
    attempted = expected * len(runs)
    good = [child for child in runs if child.output is not None]
    notes = [f"process {c.mode} exited {c.code}: {c.error.strip()[-300:]}" for c in runs if c not in good]
    failed = expected * (len(runs) - len(good))
    if not good:
        return attempted, failed, notes
    base = gate.cell_digests(workload, good[0].output)
    bad = set(problems)
    if reference is not None:
        drift = gate.mismatched(base, reference["cells"])
        bad |= drift
        if drift and not reference["cells"]:
            notes.append("no reference digests stored for this workload")
        else:
            notes += [f"digest differs from reference: {op}" for op in sorted(drift)]
    for op in sorted(problems):
        notes.append(f"gate: {op}: {'; '.join(problems[op])}")
    for child in good:
        cells = gate.cell_digests(workload, child.output)
        diverged = gate.mismatched(cells, base)
        notes += [f"{child.mode} process diverged on {op}" for op in sorted(diverged)]
        failed += min(expected, len(bad | diverged) + max(0, expected - len(cells)))
    return attempted, failed, notes


def median_of(values) -> float:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else 0.0


def run(args) -> int:
    import gate
    import layers
    import workloads

    hard_deadline = time.monotonic() + HARD_LIMIT_S
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs, input_path = write_inputs(args.workload, args.seed, run_dir)
    Child("setup", args.workload, input_path, run_dir, hard_deadline)  # warm caches, unmeasured
    reference = None
    if args.seed == workloads.DEFAULT_SEED:  # a missing reference fails every operation
        reference = gate.load_reference(args.workload) or {"cells": {}}

    result: dict = {"environment": environment(), "inputs_sha256": workloads.digest(inputs)}
    if args.trace:
        plain = Child("run", args.workload, input_path, run_dir, hard_deadline)
        traced = Child("trace", args.workload, input_path, run_dir, hard_deadline)
        runs = [plain, traced]
        problems = (traced.doc or {}).get("problems", {})
        gate_stats = (traced.doc or {}).get("gate_stats", {})
    else:
        probes, runs = measure(args.workload, input_path, run_dir, args.seconds, hard_deadline)
        problems, gate_stats = {}, {}
        first = next((c.output for c in runs if c.output is not None), None)
        if first is not None:
            try:
                problems, gate_stats = gate.check(args.workload, str(input_path), first)
            except Exception as exc:  # a gate that cannot finish fails every operation
                reason = [f"gate raised {type(exc).__name__}: {exc}"]
                problems = {op: reason for op in gate.cell_digests(args.workload, first)}
    attempted, failed, notes = account(args.workload, inputs, runs, problems, reference)
    good = [child for child in runs if child.output is not None]
    digests = sorted({gate.results_digest(args.workload, c.output) for c in good})
    cells = gate.cell_digests(args.workload, good[0].output) if good else {}
    tripped = gate.self_check(cells)
    result.update(
        results_sha256=digests,
        reference="checked" if reference is not None else "not checked (seed is not the default)",
        gate=gate_stats,
        gate_self_check="tripped on every cell" if tripped else "FAILED to trip",
        attempted=attempted,
        failed=failed,
        notes=notes,
    )

    if args.trace:
        layer_values = dict((traced.doc or {}).get("layers", {}))
        layer_values["trace.overhead_s"] = (traced.run_s or 0.0) - (plain.run_s or 0.0)
        result["untraced_run_s"] = plain.run_s
        result["traced_run_s"] = traced.run_s
        result["layers"] = layer_values
        result["trace_file"] = str((run_dir / "child-trace.json").relative_to(ROOT))
        metrics = {
            name: {"value": layer_values.get(name, 0.0), "unit": layers.unit_of(name)}
            for name in layers.COMMON
        }
    else:
        setups = [c.setup_s for c in probes + runs if c.doc is not None]
        result["samples"] = {
            "setup_s": setups,
            "run_s": [c.run_s for c in good],
            "peak_rss_mb": [c.peak_rss_mb for c in good],
        }
        metrics = {
            "setup_s": {"value": median_of(setups), "unit": "s"},
            "run_s": {"value": median_of(c.run_s for c in good), "unit": "s"},
            "peak_rss_mb": {"value": median_of(c.peak_rss_mb for c in good), "unit": "MB"},
        }
    correct = failed == 0 and tripped and len(digests) == 1
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    result["summary"] = summary
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")

    report(args, result, metrics)
    print(json.dumps(summary))
    return 0


def report(args, result: dict, metrics: dict) -> None:
    """Human-readable lines ahead of the final JSON line."""
    import layers

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"python {env['python']}  nproc {env['nproc']}  commit {env['commit']}  source {env['source_sha256'][:16]}")
    print(f"inputs sha256 {result['inputs_sha256']}")
    print(f"results sha256 {', '.join(result['results_sha256']) or '-'}  reference {result['reference']}")
    print(f"gate {result['gate']}  self-check {result['gate_self_check']}")
    for note in result["notes"]:
        print(f"  {note}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{'failed_ops_share':32s} {share:.6g}  ({result['failed']}/{result['attempted']} operations)")
    if args.trace:
        print(f"{'untraced run_s':32s} {result['untraced_run_s']}")
        print(f"{'traced run_s':32s} {result['traced_run_s']}")
        for name in sorted(result["layers"]):
            tag = "" if name in layers.COMMON else "  (not in BENCHMARK.json)"
            print(f"{name:32s} {result['layers'][name]:.6g} {layers.unit_of(name)}{tag}")
        print(f"spans written to {result['trace_file']}")
    else:
        samples = result["samples"]
        for name, metric in metrics.items():
            print(f"{name:32s} {metric['value']:.6g} {metric['unit']}  (median of {len(samples[name])})")


def write_reference() -> int:
    """Record the default seed's operation digests as the reference."""
    import gate
    import workloads

    doc = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        run_dir = OUT / f"reference-{workload}"
        run_dir.mkdir(parents=True, exist_ok=True)
        inputs, input_path = write_inputs(workload, workloads.DEFAULT_SEED, run_dir)
        child = Child("run", workload, input_path, run_dir, time.monotonic() + HARD_LIMIT_S)
        if child.output is None:
            print(f"{workload}: process exited {child.code}\n{child.error}", file=sys.stderr)
            return 1
        problems, _ = gate.check(workload, str(input_path), child.output)
        if problems:
            print(f"{workload}: gate problems {problems}", file=sys.stderr)
            return 1
        doc["workloads"][workload] = {
            "inputs": workloads.digest(inputs),
            "results": gate.results_digest(workload, child.output),
            "cells": gate.cell_digests(workload, child.output),
        }
        print(f"{workload}: {len(doc['workloads'][workload]['cells'])} operations recorded")
    gate.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=("audit-exhaustive", "audit-sampled", "suites", "all"),
        help="'all' runs every workload untraced, then traced",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "mechlab" / "__init__.py").is_file():
        print(f"error: mechlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        return run(args)
    for workload in ("audit-exhaustive", "audit-sampled", "suites"):
        for trace in (0, 1):
            run(argparse.Namespace(workload=workload, seed=args.seed, seconds=args.seconds, trace=trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
