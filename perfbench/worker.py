"""One fresh interpreter doing one piece of a benchmark run.

Started by run.py as ``python3 perfbench/worker.py '<json spec>'`` with
PYTHONPATH pointing at the checkout's ``src``. The last line of its standard
output is one JSON object with the results. Kinds of work:

- ``sweep``: one full tilt-sweep;
- ``queries``: a slice of the point-query stream, for a time or a count;
- ``cli``: one stabtorus invocation run in-process through ``cli.main``
  (the traced cli-cold run);
- ``probe``: the set-up of a workload and nothing else.

``ready_ns`` is the perf_counter (CLOCK_MONOTONIC, shared by all processes)
reading just before the first timed operation; run.py subtracts the spawn
time from it to get the set-up time. ``rss_kb`` is the peak resident set
once the work is done, before the results are encoded.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_library(with_cli=False):
    started = time.perf_counter_ns()
    import stabtorus  # noqa: F401

    if with_cli:
        import stabtorus.cli  # noqa: F401

    loaded = Path(sys.modules["stabtorus"].__file__).resolve()
    if ROOT / "src" not in loaded.parents:
        raise SystemExit(f"stabtorus was imported from {loaded}, not from this checkout")
    return time.perf_counter_ns() - started


def _tracer(spec):
    if not spec.get("trace"):
        return None
    import tracer as tracing

    t = tracing.Tracer()
    tracing.install(t)
    t.active = False
    return t


def _finish(t, spec, out):
    if t is not None:
        out["trace"] = t.summary()
        if spec.get("spans"):
            t.write_spans(spec["spans"])
    return out


def do_sweep(spec):
    import workloads

    import_ns = _import_library()
    t = _tracer(spec)
    marks = {}
    out = workloads.sweep(t, spec["mass"],
                          ready=lambda: marks.setdefault("ready", time.perf_counter_ns()))
    out.update(ready_ns=marks["ready"], import_ns=import_ns)
    return _finish(t, spec, out)


def do_queries(spec):
    import workloads

    import_ns = _import_library()
    t = _tracer(spec)
    ctx = workloads.PointContext()
    marks = {}

    def ready():
        marks["ready"] = time.perf_counter_ns()

    deadline = None
    if spec.get("seconds") is not None:
        # the window opens at the first query, after set-up
        ready()
        deadline = marks["ready"] + int(spec["seconds"] * 1e9)
        out = workloads.run_queries(ctx, spec["seed"], t, deadline_ns=deadline)
    else:
        out = workloads.run_queries(ctx, spec["seed"], t, count=spec["count"], on_ready=ready)
    out.update(ready_ns=marks["ready"], import_ns=import_ns)
    return _finish(t, spec, out)


def do_cli(spec):
    import_ns = _import_library(with_cli=True)
    from stabtorus import cli

    t = _tracer(spec)
    stdout, stderr = io.StringIO(), io.StringIO()
    token = None
    if t is not None:
        t.active = True
        token = t.begin("bench.invocation", spec.get("request"))
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the console script would print this and exit 1
            traceback.print_exc()
            code = 1
    elapsed = time.perf_counter_ns() - start
    if token is not None:
        t.end(token)
        t.active = False
    out = {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
           "elapsed_ns": elapsed, "import_ns": import_ns}
    return _finish(t, spec, out)


def do_probe(spec):
    """Only the set-up of a workload, up to where its first timed operation
    would start."""
    import workloads

    workload = spec["workload"]
    import_ns = _import_library(with_cli=workload == "cli-cold")
    if workload == "tilt-sweep":
        workloads.sweep_setup()
    elif workload == "point-queries":
        workloads.PointContext()
    else:
        from stabtorus import cli

        cli.build_parser()
    return {"ready_ns": time.perf_counter_ns(), "import_ns": import_ns}


def main():
    spec = json.loads(sys.argv[1])
    out = {"sweep": do_sweep, "queries": do_queries, "cli": do_cli, "probe": do_probe}[
        spec["kind"]
    ](spec)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if "latencies_ns" in out:
        out["latencies_ns"] = out["latencies_ns"].tolist()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
