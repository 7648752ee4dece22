"""The package namespace: every public name resolves, on first access, to the
object its layer defines."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabtorus

# the names the package re-exports, by layer, as the eager import list of
# __init__ bound them
PUBLIC = {
    "charges": [
        "CentralCharge", "KClass", "SKYSCRAPER_CLASS", "charge_eval", "charge_norm",
        "check_dimension", "deg_charge", "is_stability_function", "phase_in_strip", "std_charge",
    ],
    "cover": [
        "LiftedAuto", "SHIFT_ONE", "act_on_charge", "gl_compose", "gl_equal", "gl_inverse",
        "identity_auto", "lift_eval", "shift_auto",
    ],
    "errors": [
        "Disconnected", "DomainError", "InconsistentMorphism", "InvalidTorsionPair",
        "MissingHNData", "NeverEscapes", "NoPhaseInWindow", "NotInHeart", "NotInU",
        "NotNumericallyConsistent", "OnSpectrum", "StabTorusError", "UnsupportedSpectrum",
        "ZeroCharge",
    ],
    "hearts": [
        "StandardHeart", "TiltedHeart", "TorsionPairSpec", "canonical_decomposition",
        "chain_stabilizes", "heart_membership", "hearts_agree_on", "hrs_tilt", "iterated_heart",
        "standard_pair",
    ],
    "linalg": ["Matrix2"],
    "presentations": ["PresentedGroup", "pi1", "pi1_components", "tietze_simplify"],
    "sheaves": [
        "FormalObject", "LocallyFree", "Mixed", "Torsion", "TorsionFree", "TorsionMorphism",
        "ZERO_OBJECT", "class_of", "enumerate_objects", "enumerate_sheaves", "formal_object",
        "make_locally_free", "make_mixed", "make_torsion", "make_torsion_free",
        "object_is_legal", "object_mass", "object_shift", "object_sum", "objects_isomorphic",
        "sheaf_at", "skyscraper", "torsion_kernel_cokernel",
    ],
    "stability": [
        "DegLabel", "HNFactor", "PhaseSeries", "SpectrumDescriptor", "StabPoint", "StableFamily",
        "StdLabel", "act", "classify", "heart_phase", "hn_filtration", "ideal_family_phase",
        "is_stable_in_model", "make_deg", "make_std", "spectrum_of", "stable_objects",
        "subobject_classes",
    ],
    "svg": ["helix_svg"],
    "walls": [
        "ComplexNode", "FiberFamily", "OrbitComplex", "WallDecision", "boundary_at",
        "boundary_heart", "fiber_types", "gamma_pm", "orbit_complex", "phase_cut_pair",
        "remove_node", "twist_escape", "wall_only_complex",
    ],
}
# `from stabtorus import *` also bound the layer modules that the list loaded
STAR_MODULES = ["exactnum", *PUBLIC]


@pytest.mark.parametrize("layer", list(PUBLIC))
def test_public_names_resolve_to_their_layer_objects(layer):
    module = importlib.import_module(f"stabtorus.{layer}")
    for name in PUBLIC[layer]:
        namespace = {}
        exec(f"from stabtorus import {name}", namespace)
        assert namespace[name] is getattr(module, name), name
        assert getattr(stabtorus, name) is namespace[name], name


def test_star_import_binds_the_public_names_and_layers():
    namespace = {}
    exec("from stabtorus import *", namespace)
    del namespace["__builtins__"]
    want = {name for names in PUBLIC.values() for name in names} | set(STAR_MODULES)
    assert set(namespace) == want
    for layer in STAR_MODULES:
        assert namespace[layer] is importlib.import_module(f"stabtorus.{layer}")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stabtorus.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from stabtorus import no_such_name", {})
    # a layer's private name is not re-exported
    with pytest.raises(AttributeError):
        stabtorus._hn_pieces  # noqa: B018


def test_dir_lists_the_public_names():
    listed = set(dir(stabtorus))
    assert {name for names in PUBLIC.values() for name in names} <= listed
    assert set(STAR_MODULES) <= listed


# runs in a fresh interpreter: for each layer in turn, 8 threads wait at a
# barrier and then make its first use at once, switching often; prints what
# they got
_FIRST_USE_RACE = """
import json, sys, threading
from stabtorus import cover, sheaves, svg, walls

sys.setswitchinterval(1e-5)

CALLS = {
    "walls": lambda: repr(walls.orbit_complex(5)),
    "svg": lambda: svg.helix_svg(4),
    "sheaves": lambda: repr(sheaves.skyscraper()),
    "cover": lambda: repr(cover.identity_auto()),
}
got = {}
for layer, call in CALLS.items():
    barrier = threading.Barrier(8)
    answers, errors = got[layer] = [], []

    def first_use(call=call, answers=answers, errors=errors, barrier=barrier):
        barrier.wait()
        try:
            answers.append(call())
        except Exception as exc:
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=first_use) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
print(json.dumps(got))
"""


def test_threads_that_first_use_a_layer_at_once_all_see_it_whole():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _FIRST_USE_RACE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    for layer, (answers, errors) in json.loads(done.stdout).items():
        assert errors == [], layer
        assert len(answers) == 8 and len(set(answers)) == 1, layer


# runs in a fresh interpreter, where no layer file has run yet: a write and
# a delete made before the first read must outlive the file's run
_WRITE_BEFORE_FIRST_READ = """
import stabtorus
stabtorus.walls.orbit_complex = lambda d: f"patched {d}"
del stabtorus.svg.helix_svg
print(stabtorus.walls.orbit_complex(3))
print(hasattr(stabtorus.svg, "helix_svg"))
"""


def test_a_write_to_a_layer_before_its_first_read_is_kept():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _WRITE_BEFORE_FIRST_READ], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split("\n") == ["patched 3", "False", ""]
