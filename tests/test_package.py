"""The package namespace: every public name resolves, on first access, to the
object its layer defines."""

import importlib

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
