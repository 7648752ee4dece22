"""Source-level guards over the package."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stabtorus"


def test_no_assert_statements():
    # python -O strips asserts, so invariants must be explicit raises
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_source_line_is_longer_than_100_columns():
    # the line count of src/ is a tracked number; lines joined past the
    # width would lower it without removing any code
    found = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert found == []


def test_src_imports_only_the_stdlib():
    # the package has no runtime dependencies; relative imports stay inside it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_tolerances_live_in_exactnum():
    # phase and equality tolerances are exactnum's policy: no other module may
    # name TOL or write a float literal small enough to be one
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "exactnum.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name, node.asname]
            if "TOL" in names:
                found.append(f"{path.name}:{node.lineno}: TOL")
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-6
            ):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_no_float_decides_a_winding():
    # windings come from integer signs: the group law and classify's winding
    # solve take no float angle, no rounding and no math function
    forbidden = {"direction_angle", "lift_eval", "to_float", "round"}
    kernels = {"cover.py": {"gl_compose", "gl_inverse", "_turns"}, "stability.py": {"_winding"}}
    found = []
    for filename, names in kernels.items():
        path = PACKAGE / filename
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in names]
        assert sorted(f.name for f in funcs) == sorted(names)
        for func in funcs:
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name) and f.id in forbidden:
                    found.append(f"{func.name}:{node.lineno}: {f.id}")
                elif isinstance(f, ast.Attribute) and (
                    f.attr in forbidden
                    or (isinstance(f.value, ast.Name) and f.value.id == "math")
                ):
                    found.append(f"{func.name}:{node.lineno}: {ast.unparse(f)}")
    assert found == []


def test_torsion_pairs_are_built_in_hearts():
    # every torsion pair is a phase cut of a standard heart, built by the one
    # constructor in hearts.py; no other module may call TorsionPairSpec
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "TorsionPairSpec":
                    calls.setdefault(path.name, []).append(node.lineno)
    assert list(calls) == ["hearts.py"] and len(calls["hearts.py"]) == 1, calls


def test_boundary_parameters_are_read_in_charges():
    # charges._orbits_over is the one inverse of the charge map: no other
    # module turns a slope into a boundary parameter with gamma_from_cot
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "gamma_from_cot":
                    calls.setdefault(path.name, []).append(node.lineno)
    assert list(calls) == ["charges.py"], calls


def _definitions(path):
    """(qualified name, node) of each module-level function and method."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_twist_escapes_follow_the_spectrum():
    # boundary_at reads the escapes from the series of the spectrum; it does
    # not name the indices 0 and d - 1 where they sit
    (func,) = [f for name, f in _definitions(PACKAGE / "walls.py") if name == "boundary_at"]
    found = [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(func)
        if (isinstance(node, ast.Compare) and any(
            isinstance(c, ast.Constant) and c.value == 0 for c in [node.left, *node.comparators]))
        or (isinstance(node, ast.BinOp) and ast.unparse(node) == "d - 1")
    ]
    assert found == []


def test_only_a_tilt_keeps_a_cohomology_memo():
    found = {
        name.partition(".")[0]
        for name, func in _definitions(PACKAGE / "hearts.py")
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "_memo"
        and isinstance(node.ctx, ast.Store)
    }
    assert found == {"TiltedHeart"}


def test_phase_equality_is_decided_in_one_place():
    # walls._on_spectrum is the one spectrum membership test
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, func in _definitions(path):
            found += [
                f"{path.name}:{name}"
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and (node.func.id if isinstance(node.func, ast.Name)
                     else getattr(node.func, "attr", None)) == "phase_eq"
            ]
    assert sorted(set(found)) == ["walls.py:_on_spectrum"]


def _traced():
    """perfbench/tracer.py's TRACED: layer -> the callables it wraps."""
    tracer = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"), filename=str(tracer))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )


def test_traced_names_resolve():
    # the benchmark tracer wraps these by name: a method through its class
    # __dict__, a bare class through its __post_init__
    traced = _traced()
    missing = []
    for layer, entries in traced.items():
        module = importlib.import_module(f"stabtorus.{layer}")
        for entry in entries:
            name = entry.rstrip("*")
            if "." in name:
                cls_name, meth = name.split(".")
                ok = meth in getattr(getattr(module, cls_name, None), "__dict__", {})
            else:
                obj = getattr(module, name, None)
                if isinstance(obj, type):
                    obj = getattr(obj, "__post_init__", None)
                ok = callable(obj)
            if not ok:
                missing.append(f"{layer}.{entry}")
    assert traced and missing == []


MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "reverse", "setdefault", "sort", "update",
    "__setitem__", "__delitem__",
}


def module_state_mutations(tree: ast.Module) -> list:
    """Lines where a function changes a name bound at module level: a mutator
    call on it, an item or attribute store or del through it, or ``global``."""
    module_names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            module_names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(func)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        shared = module_names - local

        def is_shared(node):
            return isinstance(node, ast.Name) and node.id in shared

        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found.append(node.lineno)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATORS and is_shared(node.func.value):
                    found.append(node.lineno)
            elif isinstance(node, (ast.Subscript, ast.Attribute)):
                if isinstance(node.ctx, (ast.Store, ast.Del)) and is_shared(node.value):
                    found.append(node.lineno)
    return sorted(set(found))


def test_no_function_mutates_module_state():
    # answers depend on arguments only: module-level tables are built at
    # import and never changed by a call (caches go through functools)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in module_state_mutations(tree)]
    assert found == []


def test_the_module_state_scan_sees_each_kind_of_change():
    source = """
TABLE = {}
SEEN = set()
LOG: list = []
def f(x):
    TABLE[x] = 1
    SEEN.add(x)
    del TABLE[x]
    LOG.append(x)
def g(x):
    global SEEN
    SEEN = set()
def h(TABLE):
    TABLE.clear()
    seen = set()
    seen.add(1)
"""
    assert module_state_mutations(ast.parse(source)) == [6, 7, 8, 9, 11]


def _calls(func) -> set:
    """Names called in func, as a bare name or the attribute of a dotted one."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def test_cli_handlers_receive_converted_values():
    # flags are read by the argparse converters; a handler parses nothing
    found = []
    for name, func in _definitions(PACKAGE / "cli.py"):
        if name.startswith("_cmd_"):
            found += [f"{name}: {c}" for c in _calls(func)
                      if c in ("loads", "parse_number") or c.startswith("_parse_")]
    assert found == []


def test_the_int_and_not_bool_test_is_written_once():
    # one predicate tells an integer from a bool; every index check uses it
    found = []
    for filename in ("charges.py", "sheaves.py", "cover.py"):
        for name, func in _definitions(PACKAGE / filename):
            tested = {
                n.id
                for node in ast.walk(func)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)
            }
            if {"int", "bool"} <= tested:
                found.append(f"{filename}:{name}")
    assert found == ["charges.py:is_int"]


def test_twist_escape_compares_phases_only_through_exactnum():
    # whether a phase lies above the record is decided by exactnum's exact
    # kernel; twist_escape itself reads no float phase and rounds nothing
    (func,) = [f for name, f in _definitions(PACKAGE / "walls.py") if name == "twist_escape"]
    names = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
    names |= {f"{n.value.id}.{n.attr}" for n in ast.walk(func)
              if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    assert names.isdisjoint({"phase_mod1", "to_float", "float", "math.ulp"})


def test_the_object_layer_computes_no_phase():
    # sheaves and hearts decide every phase question exactly: a declared
    # step is cut through exactnum.phase_above, and the one float phase the
    # package reports for it is computed in stability
    forbidden = {"phase_in_strip", "phase_mod1", "direction_angle", "rounded_direction",
                 "lift_eval", "to_float", "cot_pi", "gamma_from_cot", "float"}
    found = []
    for filename in ("sheaves.py", "hearts.py"):
        for name, func in _definitions(PACKAGE / filename):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if (isinstance(f, ast.Name) and f.id in forbidden) or (
                    isinstance(f, ast.Attribute) and (f.attr in forbidden or (
                        isinstance(f.value, ast.Name) and f.value.id == "math"))):
                    found.append(f"{filename}:{name}")
    assert found == []


def test_finiteness_is_checked_by_as_number():
    found = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, func in _definitions(path)
        if name in ("CentralCharge.__new__", "twist_escape", "decode_number")
        and "isfinite" in _calls(func)
    ]
    assert found == []


# the four modules every call runs
BASE_MODULES = ("errors", "exactnum", "linalg", "charges")


def test_names_are_bound_only_from_the_base_modules():
    # the one import rule: a module binds names only from the base modules and
    # reaches every other layer through its module, so a call runs only the
    # layers it touches
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            and node.module not in (None, *BASE_MODULES)
        ]
    assert found == []


def test_no_import_runs_inside_a_function():
    # a layer binds what it uses when it runs, once; an import statement in a
    # function body costs its lookup on every call of a hot path
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


# runs in a fresh interpreter: the CLI on the given argv, then the layers
# whose files ran; a layer not yet run still sits in sys.modules, lazily
_LAYERS_RUN = """
import contextlib, io, json, sys, types
import stabtorus
argv = sys.argv[1:]
out = io.StringIO()
if argv:
    from stabtorus.cli import main
    with contextlib.redirect_stdout(out):
        code = main(argv)
else:
    code = None
layers = {name.partition(".")[2]: type(m) is types.ModuleType
          for name, m in sys.modules.items() if name.startswith("stabtorus.")}
print(json.dumps({"code": code, "layers": layers}))
"""


def _layers_run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _LAYERS_RUN, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_registers_every_traced_layer_without_running_it():
    # the benchmark tracer wraps only modules in sys.modules: a layer that
    # appears there only once used would read 0 on every per-layer metric
    report = _layers_run()
    assert set(_traced()) <= set(report["layers"])
    assert [name for name, ran in report["layers"].items() if ran] == []


POINT = json.dumps({"label": {"kind": "std", "p": 1}, "g": {"T": [[1, 0], [0, 1]], "winding": 0}})
TORSION = json.dumps({"graded": {"0": {"kind": "torsion", "points": [["x", 1]]}}})
# argv after the subcommand, and the layers the call runs besides cli and the
# base modules: the README's cold-start table
SUBCOMMAND_CALLS = {
    "classify": (["--d", "5", "--charge", "1,-1,-1,2", "--phi", "0.75",
                  "--psi", "0.6475836176504333"], {"cover", "jsonio", "stability"}),
    "act": (["--d", "4", "--point", POINT, "--auto", '{"T": [[2, 1], [1, 1]], "winding": 0}'],
            {"cover", "jsonio", "stability"}),
    "spectrum": (["--d", "4", "--point", POINT], {"cover", "jsonio", "stability"}),
    "spectrum --label": (["--d", "4", "--label", "std:1"], {"jsonio", "stability"}),
    "gamma-bounds": (["--d", "4", "--label", "std:0", "--gamma", "3/10"],
                     {"jsonio", "stability", "walls"}),
    "boundary": (["--d", "4", "--p", "1", "--gamma", "3/10"], {"jsonio", "stability", "walls"}),
    "fiber": (["--d", "5", "--charge", "1,0,0,1"], {"jsonio", "stability", "walls"}),
    "twist-escape": (["--d", "3", "--ideal", "1,-1", "--twist", "1,0", "--gamma-minus", "2/5",
                      "--charge", "1,0,0,1"], {"jsonio", "walls"}),
    "orbit-graph": (["--d", "3"], {"jsonio", "walls"}),
    "pi1": (["--d", "5"], {"jsonio", "walls", "presentations"}),
    "helix-svg": (["--d", "4"], {"svg"}),
    "helix-svg --format json": (["--d", "4", "--format", "json"], {"svg", "jsonio"}),
    "tilt-chain": (["--d", "4", "--p", "2", "--check-mass", "1"], {"jsonio", "sheaves", "hearts"}),
    "hn": (["--d", "4", "--point", POINT, "--object", TORSION],
           {"cover", "jsonio", "stability", "sheaves", "hearts"}),
}


@pytest.mark.parametrize("command", list(SUBCOMMAND_CALLS))
def test_a_subcommand_runs_only_the_layers_it_touches(command):
    # the object layer runs only for hn and tilt-chain, cover only where a
    # point is read or made, stability only where a label is, presentations
    # only for pi1 and svg only for helix-svg
    argv, layers = SUBCOMMAND_CALLS[command]
    report = _layers_run(command.split()[0], *argv)
    assert report["code"] == 0
    ran = {name for name, ran in report["layers"].items() if ran}
    assert ran == {"cli", *BASE_MODULES, *layers}
