"""Benchmark of the stabtorus library and CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout; the library is imported from its ``src``.
Workloads (closed loop, one client, one operation at a time):

- ``tilt-sweep``: acceptance criterion 3 at d = 4 over the mass <= 6 corpus;
  each full sweep runs in a fresh interpreter.
- ``point-queries``: a seeded stream of library calls on points, in four
  fresh interpreters that each run a quarter of the window.
- ``cli-cold``: the committed invocation pool (all 12 subcommands, about a
  tenth malformed on purpose) in a seeded order, one subprocess at a time.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it makes one untraced and one traced pass over the same
inputs and reports the per-layer metrics, the tracing overhead and whether
both passes gave identical answers. The last line of standard output is the
result; the lines before it are the run record, also written with the span
files to ``.perfbench_out/``. ``--small`` shrinks every workload for the
self-test (perfbench/selftest.py).
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
POINT_CHILDREN = 4  # each child runs a quarter of the window after its own set-up
PROBES = 7  # set-up probes and interpreter-floor probes per run
TRACE_QUERIES = 3000  # point queries in each pass of a traced run

now = time.perf_counter_ns


class WorkerError(Exception):
    pass


def _percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def spawn(spec):
    """Run one worker; returns (result, spawn time, exit time) in ns."""
    start = now()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=170,
    )
    end = now()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{spec['kind']} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), start, end


def interpreter_floor_ms():
    times = []
    for _ in range(PROBES):
        start = now()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=_env(), cwd=ROOT)
        times.append((now() - start) / 1e6)
    return statistics.median(times)


def setup_probes(workload):
    """(set-up times in s, median import ms) of fresh interpreters that only
    set the workload up. For cli-cold that is an imported CLI with its parser
    built, which every invocation pays before its handler runs."""
    setups, imports = [], []
    for _ in range(PROBES):
        res, start, _ = spawn({"kind": "probe", "workload": workload})
        setups.append((res["ready_ns"] - start) / 1e9)
        imports.append(res["import_ns"] / 1e6)
    return setups, statistics.median(imports)


def latency_metrics(latencies_ns, tail):
    lat = sorted(latencies_ns)
    p50, _ = _percentile(lat, 50)
    ptail, beyond = _percentile(lat, tail)
    samples = {"latencies": len(lat), "tail_percentile": tail, "beyond_tail": beyond}
    return p50 / 1e6, ptail / 1e6, samples


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# untraced runs: the end-to-end metrics


def measure(workload, seed, seconds, small):
    import workloads as wl

    budget = int(seconds * 1e9)
    setups, import_ms = setup_probes(workload)
    started = now()
    info = {"import_ms": import_ms}
    if workload == "tilt-sweep":
        mass = wl.SMALL_SWEEP_MASS if small else wl.SWEEP_MASS
        runs = []
        while True:
            res, spawned, ended = spawn({"kind": "sweep", "mass": mass})
            res["setup_s"] = (res["ready_ns"] - spawned) / 1e9
            runs.append(res)
            if now() - started + (ended - spawned) > budget:
                break
        tail = 99
        digests = {r["digest"] for r in runs}
        correct = (all(r["totals_ok"] for r in runs) and len(digests) == 1
                   and sum(r["failed"] for r in runs) == 0)
        info.update(sweeps=len(runs), d=wl.SWEEP_D, mass=mass,
                    corpus=runs[0]["ops"], memberships=runs[0]["members"],
                    totals_match_recorded=all(r["totals_ok"] for r in runs),
                    sweeps_agree=len(digests) == 1)
        setups += [r["setup_s"] for r in runs]
    elif workload == "point-queries":
        runs = []
        for k in range(POINT_CHILDREN):
            spec = {"kind": "queries", "seed": f"{seed}:{k}",
                    "seconds": seconds / POINT_CHILDREN}
            res, spawned, _ = spawn(spec)
            res["setup_s"] = (res["ready_ns"] - spawned) / 1e9
            runs.append(res)
        tail = 99
        correct = sum(r["failed"] for r in runs) == 0
        info.update(kinds=_sum_dicts(r["kinds"] for r in runs),
                    failures=[f for r in runs for f in r["failures"]][:10])
        setups += [r["setup_s"] for r in runs]
    else:
        runs = []
        pool = wl.load_cli_pool()
        rng = random.Random(seed)
        while True:
            deck_start = now()
            entries = wl.cli_sequence(pool, rng)[: 8 if small else None]
            runs.append(run_cli_deck(entries))
            # two decks at least, so that p90 has ten samples beyond it
            if small or len(runs) >= 2 and now() - started + (now() - deck_start) > budget:
                break
        tail = 90
        unexpected = [f for r in runs for f in r["failures"] if not f["known_defect"]]
        correct = not unexpected
        info.update(decks=len(runs), invocations=sum(r["ops"] for r in runs),
                    known_defects_seen=sorted({f["id"] for r in runs for f in r["failures"]
                                               if f["known_defect"]}),
                    unexpected_failures=unexpected[:10])
    ops = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    p50, ptail, samples = latency_metrics([x for r in runs for x in r["latencies_ns"]], tail)
    samples.update(setups=len(setups), rate_parts=len(runs))
    if workload == "cli-cold":
        rss = peak_rss_mb()  # the largest invocation
    else:
        rss = statistics.median(r["rss_kb"] for r in runs) / 1024
    metrics = {
        # the median over sweeps, children or decks damps a slow stretch
        "ops_per_s": (statistics.median(r["ops"] / r["elapsed_ns"] * 1e9 for r in runs), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (ptail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info["samples"] = samples
    return correct, ops, failed, metrics, info


def _sum_dicts(dicts):
    out = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def run_cli_deck(entries, spans_for=None):
    """Run pool entries one invocation at a time and check each against the
    pool. With ``spans_for`` (request id -> span file) set, each call instead
    runs in-process in two fresh workers, untraced and traced."""
    import workloads as wl

    latencies, failures, pairs = [], [], []
    ops = 0
    for entry in entries:
        outputs = []
        for step in entry["steps"]:
            argv = wl.fill_argv(step["argv"], outputs)
            if spans_for is None:
                start = now()
                proc = subprocess.run(wl.cli_command(argv), capture_output=True, text=True,
                                      env=_env(), cwd=ROOT, timeout=120)
                latencies.append(now() - start)
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            else:
                plain, _, _ = spawn({"kind": "cli", "argv": argv})
                traced, _, _ = spawn({"kind": "cli", "argv": argv, "trace": True,
                                      "request": ops, "spans": spans_for(ops)})
                pairs.append((plain, traced))
                latencies.append(plain["elapsed_ns"])
                code, stdout, stderr = plain["code"], plain["stdout"], plain["stderr"]
            outputs.append(stdout)
            ok, reason = wl.check_invocation(step, code, stdout, stderr)
            if not ok:
                failures.append({"id": entry["id"], "reason": reason,
                                 "known_defect": step.get("known_defect")})
            ops += 1
    return {"ops": ops, "failed": len(failures), "latencies_ns": latencies,
            "elapsed_ns": sum(latencies), "failures": failures, "pairs": pairs}


# ---------------------------------------------------------------------------
# traced runs: the per-layer metrics


def traced(workload, seed, small):
    import tracer as tracing
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    info = {}
    if workload == "tilt-sweep":
        mass = wl.SMALL_SWEEP_MASS if small else wl.SWEEP_MASS
        plain, _, _ = spawn({"kind": "sweep", "mass": mass})
        spans = str(OUT / f"spans-{stem}.jsonl.gz")
        trace, _, _ = spawn({"kind": "sweep", "mass": mass, "trace": True, "spans": spans})
        same = plain["digest"] == trace["digest"]
        correct = same and plain["totals_ok"] and trace["failed"] == 0
        ops, failed = trace["ops"], trace["failed"]
        total, base = trace["elapsed_ns"], plain["elapsed_ns"]
        summaries = [trace["trace"]]
        info.update(span_files=[spans], stored_spans=trace["trace"]["stored_spans"])
    elif workload == "point-queries":
        count = 200 if small else TRACE_QUERIES
        spec = {"kind": "queries", "seed": f"{seed}:0", "count": count}
        plain, _, _ = spawn(spec)
        spans = str(OUT / f"spans-{stem}.jsonl.gz")
        trace, _, _ = spawn(dict(spec, trace=True, spans=spans))
        same = plain["digest"] == trace["digest"]
        correct = same and trace["failed"] == 0
        ops, failed = trace["ops"], trace["failed"]
        total, base = sum(trace["latencies_ns"]), sum(plain["latencies_ns"])
        summaries = [trace["trace"]]
        info.update(span_files=[spans], stored_spans=trace["trace"]["stored_spans"])
    else:
        entries = wl.cli_sequence(wl.load_cli_pool(), random.Random(seed))[: 8 if small else None]
        files = []

        def spans_for(request):
            files.append(str(OUT / f"spans-{stem}-call{request}.jsonl.gz"))
            return files[-1]

        deck = run_cli_deck(entries, spans_for)
        same = all((a["code"], a["stdout"]) == (b["code"], b["stdout"]) for a, b in deck["pairs"])
        correct = same and not [f for f in deck["failures"] if not f["known_defect"]]
        ops, failed = deck["ops"], deck["failed"]
        total = sum(b["elapsed_ns"] for _, b in deck["pairs"])
        base = sum(a["elapsed_ns"] for a, _ in deck["pairs"])
        summaries = [b["trace"] for _, b in deck["pairs"]]
        info.update(span_files=len(files), failures=deck["failures"])
    _, import_ms = setup_probes("cli-cold")
    floor = interpreter_floor_ms()
    merged = tracing.merge(summaries)
    metrics = tracing.layer_metrics(merged, ops, total, total / base - 1, import_ms, floor)
    info.update(traced_equals_untraced=same, traced_ns=total, untraced_ns=base,
                interpreter_floor_ms=floor)
    return correct, ops, failed, metrics, info


# ---------------------------------------------------------------------------


def machine_stamp():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "loadavg_at_start": list(os.getloadavg())}


def settings():
    import workloads as wl

    pool = wl.load_cli_pool()
    steps = [s for e in pool for s in e["steps"]]
    return {
        "tilt_sweep": {"d": wl.SWEEP_D, "mass": wl.SWEEP_MASS},
        "point_queries": {"d": wl.POINT_D, "mix_per_100": dict(wl.DECK),
                          "twist_escape_cap": wl.TWIST_CAP, "children": POINT_CHILDREN},
        "cli_cold": {"calls_per_deck": len(steps),
                     "malformed_per_deck": sum(s["expect"] == "error" for s in steps),
                     "known_defects": [s["known_defect"] for s in steps if "known_defect" in s]},
    }


def run_one(args, bench):
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "small": args.small, "machine": machine_stamp(),
              "why": {w["name"]: w["why"] for w in bench["workloads"]}, "settings": settings()}
    if args.trace:
        correct, ops, failed, metrics, info = traced(args.workload, args.seed, args.small)
        wanted = [m["name"] for m in bench["per_layer"]]
    else:
        floor = interpreter_floor_ms()
        correct, ops, failed, raw, info = measure(args.workload, args.seed, args.seconds,
                                                  args.small)
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in raw.items()}
        info["interpreter_floor_ms"] = floor
        wanted = [m["name"] for m in bench["end_to_end"]]
    record.update(info)
    record["error_rate"] = failed / ops if ops else 1.0
    result = {"correct": bool(correct), "attempted": max(ops, 1), "failed": failed,
              "metrics": {name: metrics[name] for name in wanted}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))


def run_all(args, bench):
    """Every workload in its own run.py process, then one summary table."""
    rows = {}
    for w in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--small"] if args.small else []),
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        if proc.returncode != 0:
            raise WorkerError(f"{w['name']} failed: {proc.stderr[-2000:]}")
        rows[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in rows.items():
        rate = res["failed"] / res["attempted"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} error_rate={rate:.4f}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"workloads": rows}))


def main():
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "stabtorus" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} is not a stabtorus checkout (src/stabtorus and BENCHMARK.json "
              "are needed)", file=sys.stderr)
        return 2
    with open(bench_file, encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args()
    try:
        if args.workload == "all":
            run_all(args, bench)
        else:
            run_one(args, bench)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
