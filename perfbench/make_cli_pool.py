"""Write cli_pool.json: the cli-cold invocations and their golden outputs.

Run from the root of a checkout: ``python3 perfbench/make_cli_pool.py``.
Valid calls are run once through the CLI and their stdout is stored as the
golden output; the script refuses to write the pool when a valid call fails
or when a classify round trip does not give back the point it came from.
Malformed calls store only the contract (exit 1, or exit 2 with an error
envelope). Regenerating the pool changes the benchmark.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from stabtorus import cover, jsonio, linalg, stability  # noqa: E402
from stabtorus.exactnum import format_number  # noqa: E402


def _num(x):
    return format_number(x) if isinstance(x, Fraction) else repr(float(x))


def _auto(m, w):
    return cover.LiftedAuto(linalg.Matrix2(*m), w)


def _object_for(p):
    if p == 0:
        return {"graded": {"0": {"kind": "mixed", "torsion": {"kind": "torsion", "points": [["y", 1]]},
                                 "free": {"kind": "locally_free", "rank": 2}}}, "flags": []}
    upper = {"kind": "torsion_free", "rank": 2, "colength": 1} if p == 1 else {
        "kind": "locally_free", "rank": 1}
    return {"graded": {str(-p): upper, "0": {"kind": "torsion", "points": [["y", 2]]}}, "flags": []}


def chain(name, d, label, m, w, m2, w2, spectrum=True):
    """classify -> act -> hn (-> spectrum), each fed the previous JSON."""
    base = stability.make_std(label, d) if isinstance(label, int) else stability.make_deg(*label, d)
    moved = stability.act(_auto(m, w), base)
    Z = moved.charge()
    charge = ",".join(_num(x) for x in (Z.a, Z.b, Z.c, Z.e))
    p = label if isinstance(label, int) else label[0]
    auto = json.dumps({"T": [[m2[0], m2[1]], [m2[2], m2[3]]], "winding": w2})
    steps = [
        ["classify", "--d", str(d), "--charge", charge,
         "--phi", _num(moved.phi_sky()), "--psi", _num(moved.psi_line())],
        ["act", "--d", str(d), "--point", "{out:0}", "--auto", auto],
        ["hn", "--d", str(d), "--point", "{out:1}", "--object", json.dumps(_object_for(p))],
    ]
    if spectrum:
        steps.append(["spectrum", "--d", str(d), "--point", "{out:1}"])
    trip = {"label": p}
    if isinstance(label, int):  # boundary points are fixed only up to their stabilizer
        trip.update(T=list(m), winding=w)
    return {"id": name, "steps": [{"argv": a, "expect": "ok"} for a in steps], "round_trip": trip}


def single(name, *argv, expect="ok", known_defect=None):
    step = {"argv": list(argv), "expect": expect}
    if known_defect:
        step["known_defect"] = known_defect
    return {"id": name, "steps": [step]}


STD1_POINT = json.dumps(jsonio.encode_point(stability.make_std(1, 4)))

ENTRIES = [
    chain("chain-std0-d5", 5, 0, (2, 1, 1, 1), 0, (1, 1, 0, 1), 1),
    chain("chain-std1-d4", 4, 1, (1, 2, -1, 1), 1, (2, 0, 0, 1), 0),
    chain("chain-std2-d5", 5, 2, (3, 1, 2, 1), -1, (1, 0, 1, 1), -1),
    chain("chain-std3-d6", 6, 3, (1, -1, 1, 2), 0, (1, 2, 0, 1), 2),
    chain("chain-std2-d3", 3, 2, (2, 0, 1, 1), 2, (3, 1, 1, 1), 0),
    chain("chain-std0-d4", 4, 0, (1, 0, 0, 1), 0, (1, 0, 0, 1), 2),
    chain("chain-deg2-d4", 4, (2, Fraction(1, 3)), (2, 1, 1, 1), 1, (1, 1, 0, 1), 0,
          spectrum=False),
    single("tilt-chain-d4-p3", "tilt-chain", "--d", "4", "--p", "3"),
    single("tilt-chain-d5-p2-text", "tilt-chain", "--d", "5", "--p", "2", "--format", "text"),
    single("tilt-chain-d6-p5", "tilt-chain", "--d", "6", "--p", "5"),
    single("spectrum-std1", "spectrum", "--d", "4", "--label", "std:1"),
    single("spectrum-deg-text", "spectrum", "--d", "5", "--label", "deg:2:1/3", "--format", "text"),
    single("gamma-bounds-std0", "gamma-bounds", "--d", "4", "--label", "std:0", "--gamma", "3/10"),
    single("gamma-bounds-std2", "gamma-bounds", "--d", "5", "--label", "std:2", "--gamma", "7/10"),
    single("boundary-wall", "boundary", "--d", "4", "--p", "1", "--gamma", "3/10"),
    single("boundary-escape-low", "boundary", "--d", "5", "--p", "0", "--gamma", "1/5"),
    single("boundary-escape-top", "boundary", "--d", "4", "--p", "3", "--gamma", "7/10"),
    single("boundary-text", "boundary", "--d", "5", "--p", "2", "--gamma", "0.7", "--format", "text"),
    single("orbit-graph-d3", "orbit-graph", "--d", "3"),
    single("orbit-graph-d6-text", "orbit-graph", "--d", "6", "--format", "text"),
    single("pi1-d5", "pi1", "--d", "5"),
    single("pi1-wall-only", "pi1", "--d", "3", "--wall-only"),
    single("pi1-drop", "pi1", "--d", "4", "--drop", "std-0"),
    single("fiber-std", "fiber", "--d", "5", "--charge", "1,0,0,1"),
    single("fiber-deg", "fiber", "--d", "4", "--charge", "1,1,0,0"),
    single("twist-escape-n3", "twist-escape", "--d", "3", "--ideal", "1,-1", "--twist", "1,0",
           "--gamma-minus", "2/5", "--charge", "1,0,0,1"),
    single("twist-escape-n63", "twist-escape", "--d", "4", "--ideal", "1,-2", "--twist", "1,0",
           "--gamma-minus", "49/100", "--charge", "1,0,0,1", "--format", "text"),
    single("helix-svg-d4", "helix-svg", "--d", "4"),
    single("helix-svg-d3-json", "helix-svg", "--d", "3", "--no-labels", "--format", "json"),
    # malformed on purpose: exit 1 (usage) or 2 (error envelope), no traceback
    single("bad-charge-arity", "classify", "--d", "5", "--charge", "1,2,3", "--phi", "1",
           "--psi", "1/2", expect="error"),
    single("bad-gamma-half", "boundary", "--d", "4", "--p", "0", "--gamma", "1/2", expect="error"),
    single("bad-point-json", "act", "--d", "4", "--point", "{bad", "--auto", "{}", expect="error"),
    single("bad-never-escapes", "twist-escape", "--d", "4", "--ideal", "1,-1", "--twist", "1,0",
           "--gamma-minus", "3/5", "--charge", "1,0,0,1", expect="error"),
    single("bad-hn-torsion-without-points", "hn", "--d", "4", "--point", STD1_POINT,
           "--object", json.dumps({"graded": {"0": {"kind": "torsion"}}}), expect="error",
           known_defect="a torsion payload without \"points\" escapes as a KeyError traceback"),
    single("bad-negative-check-mass", "tilt-chain", "--d", "4", "--p", "2", "--check-mass", "-2",
           expect="error",
           known_defect="a negative check mass reports agreement after checking no object"),
]


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for entry in ENTRIES:
        outputs = []
        for step in entry["steps"]:
            argv = workloads.fill_argv(step["argv"], outputs)
            proc = subprocess.run(workloads.cli_command(argv), capture_output=True, text=True,
                                  env=env, cwd=ROOT, timeout=120)
            outputs.append(proc.stdout)
            if step["expect"] == "ok":
                if proc.returncode != 0:
                    raise SystemExit(f"{entry['id']}: valid call failed: {proc.stderr}")
                step["stdout"] = proc.stdout
        trip = entry.pop("round_trip", None)
        if trip is not None:
            point = json.loads(outputs[0])
            T = [Fraction(x) for row in point["g"]["T"] for x in row]
            if point["label"]["p"] != trip["label"] or ("T" in trip and (
                    point["g"]["winding"] != trip["winding"]
                    or T != [Fraction(x) for x in trip["T"]])):
                raise SystemExit(f"{entry['id']}: classify did not give back its point")
    with open(workloads.CLI_POOL, "w", encoding="utf-8") as fh:
        json.dump({"entries": ENTRIES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    calls = sum(len(e["steps"]) for e in ENTRIES)
    bad = sum(s["expect"] == "error" for e in ENTRIES for s in e["steps"])
    print(f"wrote {len(ENTRIES)} entries, {calls} calls, {bad} malformed")


if __name__ == "__main__":
    main()
