"""Symbolic model of the simply connected region of the stability manifold
of a generic complex torus of dimension at least three.

The library models points as orbit labels moved by lifted linear
automorphisms, hearts as finitely presented sheaf data, and the wall and
escape structure at the orbit boundaries; everything is exact rational
arithmetic except where a phase genuinely needs an arctangent.

Every layer module sits in ``sys.modules`` from the start as a ``_Layer``,
whose file runs on its first attribute access, once, under a lock. One
import rule, with no exceptions: a module binds names only from ``errors``,
``exactnum``, ``linalg`` and ``charges``, the four modules every call runs,
and reaches every other layer through its module (``from . import cover``,
then ``cover.lift_eval(...)``). So a caller, the CLI too, runs only the
layers it touches. The names below resolve through the module ``__getattr__``.
"""

import importlib.util
import sys
import threading
import types

# layer -> the names the package re-exports from it
_EXPORTS = {
    "charges": (
        "CentralCharge", "KClass", "SKYSCRAPER_CLASS", "charge_eval", "charge_norm",
        "check_dimension", "deg_charge", "is_stability_function", "phase_in_strip",
        "std_charge",
    ),
    "cover": (
        "LiftedAuto", "SHIFT_ONE", "act_on_charge", "gl_compose", "gl_equal", "gl_inverse",
        "identity_auto", "lift_eval", "shift_auto",
    ),
    "errors": (
        "Disconnected", "DomainError", "InconsistentMorphism", "InvalidTorsionPair",
        "MissingHNData", "NeverEscapes", "NoPhaseInWindow", "NotInHeart", "NotInU",
        "NotNumericallyConsistent", "OnSpectrum", "StabTorusError", "UnsupportedSpectrum",
        "ZeroCharge",
    ),
    "hearts": (
        "StandardHeart", "TiltedHeart", "TorsionPairSpec", "canonical_decomposition",
        "chain_stabilizes", "heart_membership", "hearts_agree_on", "hrs_tilt",
        "iterated_heart", "standard_pair",
    ),
    "linalg": ("Matrix2",),
    "presentations": ("PresentedGroup", "pi1", "pi1_components", "tietze_simplify"),
    "sheaves": (
        "FormalObject", "LocallyFree", "Mixed", "Torsion", "TorsionFree", "TorsionMorphism",
        "ZERO_OBJECT", "class_of", "enumerate_objects", "enumerate_sheaves", "formal_object",
        "make_locally_free", "make_mixed", "make_torsion", "make_torsion_free",
        "object_is_legal", "object_mass", "object_shift", "object_sum", "objects_isomorphic",
        "sheaf_at", "skyscraper", "torsion_kernel_cokernel",
    ),
    "stability": (
        "DegLabel", "HNFactor", "PhaseSeries", "SpectrumDescriptor", "StabPoint",
        "StableFamily", "StdLabel", "act", "classify", "heart_phase", "hn_filtration",
        "ideal_family_phase", "is_stable_in_model", "make_deg", "make_std", "spectrum_of",
        "stable_objects", "subobject_classes",
    ),
    "svg": ("helix_svg",),
    "walls": (
        "ComplexNode", "FiberFamily", "OrbitComplex", "WallDecision", "boundary_at",
        "boundary_heart", "fiber_types", "gamma_pm", "orbit_complex", "phase_cut_pair",
        "remove_node", "twist_escape", "wall_only_complex",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
# ``from stabtorus import *`` binds the exported names, the layers that
# export them and exactnum, but not jsonio or cli
_PUBLIC_LAYERS = ("exactnum", *_EXPORTS)
__all__ = [*_PUBLIC_LAYERS, *_LAYER_OF]
__version__ = "0.1.0"


# one lock for all layers, so that nested first uses cannot deadlock
_FIRST_USE = threading.RLock()


class _Layer(types.ModuleType):
    """A layer whose file has not run. The first attribute access runs it under
    ``_FIRST_USE``, letting the file's own reads through, and only then makes
    it a plain module, whole for every thread that waited on the lock."""

    def __getattribute__(self, name):
        with _FIRST_USE:
            spec = types.ModuleType.__getattribute__(self, "__spec__")
            if spec.loader_state is None:
                spec.loader_state = "running"
                spec.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, name)

    # a write or delete first reads the module, which runs the file, so that
    # the file's run cannot undo it
    def __setattr__(self, name, value):
        self.__spec__
        types.ModuleType.__setattr__(self, name, value)

    def __delattr__(self, name):
        self.__spec__
        types.ModuleType.__delattr__(self, name)


def _register(layer: str):
    """Put the layer in ``sys.modules`` and on the package without running it."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Layer
    sys.modules[spec.name] = module
    return module


for _layer in (*_PUBLIC_LAYERS, "jsonio", "cli"):
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[layer], name)
    return value


def __dir__():
    return sorted({*globals(), *_LAYER_OF})
