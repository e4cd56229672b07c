"""One measured process of a benchmark run.

    python3 bench/child.py <mode> <workload> <input> <output>

`mode` is `setup` (stop just before the first checker or suite call),
`run` (the whole workload, untraced) or `trace` (the workload with spans,
then the correctness gate and the per-layer micro-probes). `input` is the
generated audit config or suite inputs; the result goes to `output` as JSON.

Times are `time.monotonic()` readings, which on Linux share one clock
with the parent, so the parent can measure set-up from the moment it
spawned this process. Nothing but the standard library is imported before
mechlab, so set-up time is the program's own.
"""

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


class SetupDone(BaseException):
    """Stops a set-up probe just before the first checker call.

    A BaseException, so that `cli.main`'s error handlers let it through.
    """


def run_audit(config_path: str, marks: dict, setup_only: bool) -> dict:
    from mechlab import cli

    load_config = cli.load_config

    def marked_load_config(path):
        config = load_config(path)
        marks["setup_end"] = time.monotonic()
        if setup_only:
            raise SetupDone
        return config

    cli.load_config = marked_load_config
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(["audit", "--config", config_path])
    finally:
        cli.load_config = load_config
    marks["run_end"] = time.monotonic()
    return {"exit": code, "report": stdout.getvalue(), "table": stderr.getvalue()}


def render_suite(result, out) -> None:
    """Print a suite result the way `mechlab suite` prints it."""
    print(result.title, file=out)
    print(result.format_table(), file=out)
    if result.matched:
        print("expected pattern: matched", file=out)
        return
    print("expected pattern: MISMATCH", file=out)
    for row, column, want, got in result.mismatches():
        print(f"  {row} / {column}: expected {want}, got {got}", file=out)


def run_suites(inputs_path: str, marks: dict, setup_only: bool) -> dict:
    from mechlab import search

    marks["setup_end"] = time.monotonic()
    if setup_only:
        raise SetupDone
    with open(inputs_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    out = io.StringIO()
    results = []
    for seed in inputs["sp_class_seeds"]:
        for name in inputs["suites"]:
            kwargs = {"seed": seed} if name == "sp-class" else {}
            try:
                result = search.SUITES[name](**kwargs)
            except Exception as exc:  # a raising call is a failed operation
                results.append({"suite": name, "error": f"{type(exc).__name__}: {exc}"})
                continue
            render_suite(result, out)
            results.append(result)
    marks["run_end"] = time.monotonic()
    calls = [r if isinstance(r, dict) else r.to_json() for r in results]
    return {"exit": 0, "calls": calls, "rendered": out.getvalue()}


def run_workload(workload: str, input_path: str, marks: dict, setup_only: bool) -> dict:
    if workload == "suites":
        return run_suites(input_path, marks, setup_only)
    return run_audit(input_path, marks, setup_only)


def peak_rss_kib() -> int:
    """High-water resident set size of this process since it exec'd.

    Read here rather than from `os.wait4` in the parent: a child spawned
    through vfork() shares the parent's pages until it execs, and the
    kernel folds that peak into the child's `ru_maxrss`.
    """
    with open("/proc/self/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    mode, workload, input_path, output_path = sys.argv[1:5]
    marks: dict = {}
    doc: dict = {"marks": marks}
    if mode == "trace":
        import layers

        doc.update(layers.traced_run(workload, input_path, marks, run_workload))
    else:
        try:
            doc["output"] = run_workload(workload, input_path, marks, mode == "setup")
        except SetupDone:
            pass
    doc["peak_rss_kib"] = peak_rss_kib()
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
