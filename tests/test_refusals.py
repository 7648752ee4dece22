"""Refusals of malformed and non-finite input: each ends in the package's
error class (a TypeError where a matrix entry is no number)."""

import math
from fractions import Fraction

import pytest

from stabtorus import jsonio
from stabtorus.charges import CentralCharge, KClass, charge_norm, phase_in_strip, std_charge
from stabtorus.cover import LiftedAuto, identity_auto, lift_eval, shift_auto
from stabtorus.errors import (
    DomainError,
    InconsistentMorphism,
    NotInHeart,
    NotInU,
    UnsupportedSpectrum,
    ZeroCharge,
)
from stabtorus.exactnum import as_number, cot_pi, direction_angle
from stabtorus.linalg import Matrix2
from stabtorus.presentations import pi1
from stabtorus.sheaves import (
    FormalObject,
    LocallyFree,
    Mixed,
    Torsion,
    TorsionFree,
    TorsionMorphism,
    make_mixed,
    sheaf_at,
    sheaf_class,
    skyscraper,
    torsion_kernel_cokernel,
)
from stabtorus.stability import (
    DegLabel,
    StdLabel,
    classify,
    ideal_family_phase,
    make_std,
    spectrum_of,
    subobject_classes,
)
from stabtorus.walls import (
    ComplexNode,
    OrbitComplex,
    boundary_at,
    phase_cut_pair,
    twist_escape,
)

NON_FINITE = [math.nan, math.inf, -math.inf]
NON_FINITE_CALLS = {
    "classify-phi": lambda x: classify(std_charge(0), x, Fraction(1, 2), 4),
    "classify-psi": lambda x: classify(std_charge(0), 1, x, 4),
    "lift-eval": lambda x: lift_eval(identity_auto(), x),
    "phase-in-strip": lambda x: phase_in_strip(std_charge(0), KClass(0, 1), x),
    "central-charge": lambda x: CentralCharge(1, 0, x, 1),
    "phase-cut-pair": lambda x: phase_cut_pair(1, x, 4),
    "twist-escape": lambda x: twist_escape(KClass(1, -1), KClass(1, 0), x, std_charge(0)),
    "as-number": as_number,
    "as-number-of-a-string": lambda x: as_number(str(x)),
}


@pytest.mark.parametrize("x", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", list(NON_FINITE_CALLS))
def test_non_finite_numbers_raise_domain_error(call, x):
    with pytest.raises(DomainError, match="non-finite number"):
        NON_FINITE_CALLS[call](x)


TORSION = skyscraper()
REFUSALS = {
    "charge-norm-without-a-label": (lambda: charge_norm(std_charge(1), "std:1", 4), DomainError),
    "winding-not-an-integer": (lambda: LiftedAuto(Matrix2.identity(), 1.5), DomainError),
    "winding-a-bool": (lambda: LiftedAuto(Matrix2.identity(), True), DomainError),
    "shift-not-an-integer": (lambda: shift_auto(1.0), DomainError),
    "shift-a-bool": (lambda: shift_auto(True), DomainError),
    "direction-of-zero": (lambda: direction_angle(0, 0), ZeroCharge),
    "matrix-entry-a-bool": (lambda: Matrix2(True, 0, 0, 1), TypeError),
    "edge-to-a-missing-node": (
        lambda: pi1(OrbitComplex((ComplexNode("wall-1", "wall", 1, "circle"),),
                                 (("wall-1", "std-0"),))),
        DomainError,
    ),
    "empty-point-id": (lambda: Torsion((("", 1),)), DomainError),
    "point-id-not-a-string": (lambda: Torsion(((3, 1),)), DomainError),
    "filtration-step-of-rank-zero": (
        lambda: TorsionFree(1, 1, ((KClass(0, -1), True),)), DomainError),
    "filtration-step-of-positive-chd": (
        lambda: TorsionFree(1, 1, ((KClass(1, 1), True),)), DomainError),
    "mixed-without-torsion": (lambda: Mixed(LocallyFree(1), LocallyFree(1)), DomainError),
    "mixed-without-a-free-part": (lambda: Mixed(TORSION, TORSION), DomainError),
    "empty-mixed": (lambda: make_mixed(None, None), DomainError),
    "class-of-a-non-sheaf": (lambda: sheaf_class("x"), DomainError),
    "object-of-a-non-sheaf": (lambda: FormalObject(((0, "x"),)), DomainError),
    "torsion-point-of-three-entries": (lambda: Torsion((("x", 1, 2),)), DomainError),
    "graded-entry-without-a-sheaf": (lambda: FormalObject(graded=((0,),)), DomainError),
    "action-entry-of-two-entries": (
        lambda: torsion_kernel_cokernel(TorsionMorphism(TORSION, TORSION, (("y", 0),)), 0),
        DomainError,
    ),
    "cot-pi-at-zero": (lambda: cot_pi(0), DomainError),
    "cot-pi-past-one": (lambda: cot_pi(Fraction(3, 2)), DomainError),
    "duplicate-action-entry": (
        lambda: torsion_kernel_cokernel(
            TorsionMorphism(TORSION, TORSION, (("y", 0, 0), ("y", 0, 0))), 1),
        InconsistentMorphism,
    ),
    "members-of-the-unclassified-tail": (
        lambda: spectrum_of(StdLabel(3), 4).series[0].value(1), UnsupportedSpectrum),
    "ideal-family-off-index-zero": (
        lambda: ideal_family_phase(make_std(1, 4), 1, 4), UnsupportedSpectrum),
    "subobjects-off-the-heart": (
        lambda: subobject_classes(sheaf_at(1, TORSION), 1, 4), NotInHeart),
    "classify-a-zero-skyscraper-charge": (
        lambda: classify(CentralCharge(0, 1, 0, 1), 1, Fraction(1, 2), 4), NotInU),
    "twist-escape-killing-the-twist": (
        lambda: twist_escape(KClass(1, -1), KClass(0, 0), Fraction(2, 5), std_charge(0)),
        ZeroCharge,
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_malformed_input_is_refused(name):
    call, error = REFUSALS[name]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "entry, field",
    [(("y", "a", 0), "kernel length"), ((1, 0, 0), "point id"), (("y", 0.5, 0.5), "kernel length")],
    ids=["string-length", "integer-point-id", "float-lengths"],
)
def test_an_action_entry_of_the_wrong_types_names_its_field(entry, field):
    f = TorsionMorphism(TORSION, TORSION, (entry,))
    with pytest.raises(DomainError, match=f"^{field} must be"):
        torsion_kernel_cokernel(f, 0)


@pytest.mark.parametrize(
    "decode, payload",
    [
        (jsonio.decode_number, True),
        (jsonio.decode_number, [1]),
        (jsonio.decode_charge, {"a": 1}),
        (jsonio.decode_auto, []),
        (jsonio.decode_label, []),
        (jsonio.decode_point, {"label": {"kind": "std", "p": 1}}),
        (jsonio.decode_sheaf, []),
        (jsonio.decode_object, {"graded": {"0": {"kind": "torsion", "points": [1]}}}),
        (jsonio.encode_number, "1/2"),
    ],
    ids=["bool-number", "list-number", "charge", "auto", "label", "point", "sheaf",
         "object-points", "encode-a-string"],
)
def test_json_payloads_of_the_wrong_shape_raise_domain_error(decode, payload):
    with pytest.raises(DomainError):
        decode(payload)


def test_a_phase_cut_holds_no_object_off_the_heart_shape():
    pair = phase_cut_pair(1, Fraction(3, 10), 4)
    E = sheaf_at(1, TORSION)  # heart 1 holds torsion in degree 0 only
    assert pair.in_torsion(E) is False and pair.in_free(E) is False


NOT_A_NUMBER = {
    "as-number": lambda: as_number("abc"),
    "central-charge": lambda: CentralCharge("abc", 0, 0, 1),
    "deg-label": lambda: DegLabel(1, "abc"),
    "boundary-at": lambda: boundary_at(0, "abc", 4),
}


@pytest.mark.parametrize("call", list(NOT_A_NUMBER))
def test_a_string_that_is_no_number_raises_domain_error(call):
    with pytest.raises(DomainError, match="not a number"):
        NOT_A_NUMBER[call]()


@pytest.mark.parametrize("entry", [math.inf, math.nan, "inf"], ids=["inf", "nan", "inf-string"])
def test_a_non_finite_matrix_entry_raises_domain_error(entry):
    with pytest.raises(DomainError, match="non-finite number"):
        LiftedAuto(Matrix2(entry, 0, 0, 1), 0)
