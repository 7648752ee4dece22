"""JSON encoding round-trips and the on-disk object corpus."""

import json
import os
from fractions import Fraction

import pytest

from stabtorus.charges import CentralCharge, KClass, std_charge
from stabtorus.cover import LiftedAuto
from stabtorus.errors import DomainError
from stabtorus.jsonio import (
    SCHEMA,
    _encode_report,
    decode_auto,
    decode_charge,
    decode_kclass,
    decode_label,
    decode_number,
    decode_object,
    decode_point,
    decode_sheaf,
    dumps,
    encode_auto,
    encode_charge,
    encode_complex,
    encode_group,
    encode_kclass,
    encode_label,
    encode_number,
    encode_object,
    encode_point,
    encode_sheaf,
    encode_spectrum,
    encode_wall_decision,
)
from stabtorus.linalg import Matrix2
from stabtorus.presentations import pi1
from stabtorus.sheaves import (
    LocallyFree,
    Mixed,
    Torsion,
    TorsionFree,
    enumerate_objects,
    make_torsion_free,
    object_is_legal,
    sheaf_at,
)
from stabtorus.stability import DegLabel, StdLabel, act, make_deg, make_std, spectrum_of
from stabtorus.walls import boundary_at, orbit_complex, wall_only_complex

DATA = os.path.join(os.path.dirname(__file__), "data", "objects.jsonl")


def test_number_codec():
    assert encode_number(3) == 3
    assert encode_number(Fraction(4, 1)) == 4
    assert encode_number(Fraction(1, 3)) == "1/3"
    assert encode_number(0.25) == {"approx": 0.25}
    assert decode_number("1/3") == Fraction(1, 3)
    assert decode_number(7) == 7
    assert decode_number({"approx": 0.5}) == 0.5
    with pytest.raises(DomainError):
        encode_number(True)
    with pytest.raises(DomainError):
        decode_number("not-a-number")


@pytest.mark.parametrize(
    "payload",
    [
        float("nan"),
        float("inf"),
        {"approx": "nan"},
        {"approx": float("-inf")},
        {"approx": 10**400},
        {"approx": "abc"},
        {"approx": [1]},
        "1/0",
    ],
    ids=repr,
)
def test_decode_number_rejects_malformed_numbers(payload):
    with pytest.raises(DomainError):
        decode_number(payload)


def test_kclass_codec():
    v = KClass(-2, 5)
    assert encode_kclass(v) == {"rk": -2, "chd": 5}
    assert decode_kclass(encode_kclass(v)) == v
    with pytest.raises(DomainError):
        decode_kclass({"rk": 1})


def test_charge_codec():
    Z = CentralCharge(1, Fraction(-1, 2), 0, 3)
    enc = encode_charge(Z)
    assert enc["b"] == "-1/2"
    assert decode_charge(enc) == Z


def test_auto_codec():
    g = LiftedAuto(Matrix2(2, 1, 1, 1), -2)
    enc = encode_auto(g)
    assert enc == {"T": [[2, 1], [1, 1]], "winding": -2}
    back = decode_auto(enc)
    assert back.T == g.T and back.winding == g.winding
    with pytest.raises(DomainError):
        decode_auto({"T": [[1, 0]], "winding": 0})


def test_label_codec():
    assert encode_label(StdLabel(2)) == {"kind": "std", "p": 2}
    enc = encode_label(DegLabel(1, Fraction(1, 4)))
    assert enc == {"kind": "deg", "p": 1, "gamma": "1/4"}
    assert decode_label(enc) == DegLabel(1, Fraction(1, 4))
    assert decode_label({"kind": "std", "p": 0}) == StdLabel(0)
    with pytest.raises(DomainError):
        decode_label({"kind": "orbit", "p": 1})


def test_point_codec():
    sigma = make_std(1, 4)
    assert decode_point(encode_point(sigma)) == sigma


def test_sheaf_codec_keeps_declared_filtrations():
    F = make_torsion_free(2, 3, hn=[(KClass(1, 0), True), (KClass(1, -3), False)])
    enc = encode_sheaf(F)
    assert enc["kind"] == "torsion_free"
    assert decode_sheaf(enc) == F


def test_object_codec_on_enumerated_corpus():
    for E in enumerate_objects(4, range(-2, 1), 4):
        assert decode_object(encode_object(E)) == E


def test_corpus_file_round_trips():
    with open(DATA) as fh:
        lines = [line for line in fh if line.strip()]
    assert len(lines) == 12
    for line in lines:
        payload = json.loads(line)
        E = decode_object(payload)
        assert encode_object(E) == payload
        assert object_is_legal(E, 5)[0]


def test_corpus_contains_the_declared_variants():
    kinds = set()
    with open(DATA) as fh:
        for line in fh:
            for piece in json.loads(line)["graded"].values():
                kinds.add(piece["kind"])
    assert kinds == {"torsion", "locally_free", "torsion_free", "mixed"}


def test_dumps_stamps_the_schema_and_sorts_keys():
    text = dumps({"b": 1, "a": 2})
    payload = json.loads(text)
    assert payload["schema"] == SCHEMA
    assert list(payload) == sorted(payload)


def test_wall_decision_codec():
    hit = encode_wall_decision(boundary_at(1, Fraction(3, 10), 4))
    assert hit == {"wall": {"kind": "deg", "p": 1, "gamma": "3/10"}}
    miss = encode_wall_decision(boundary_at(0, Fraction(3, 10), 4))
    assert miss == {"wall": None, "reason": "twist-escape"}


def test_spectrum_encoding_shape():
    enc = encode_spectrum(spectrum_of(StdLabel(0), 4))
    assert enc["complete"] is False
    assert enc["points"] == ["1/2", 1]
    assert enc["series"][0]["kind"] == "ideal_sheaves"


def test_complex_and_group_encoding():
    cx = orbit_complex(3)
    enc = encode_complex(cx)
    assert {n["name"] for n in enc["nodes"]} == {
        "std-0", "std-1", "std-2", "wall-1", "wall-2"
    }
    assert len(enc["edges"]) == 4
    grp = encode_group(pi1(cx))
    assert grp == {
        "group": "trivial", "generators": 2, "relations": 2, "free_rank": 0
    }
    lone = encode_group(pi1(wall_only_complex()))
    assert lone["group"] == "infinite-cyclic" and lone["free_rank"] == 1


def test_charge_of_decoded_point_matches():
    sigma = make_std(2, 5)
    back = decode_point(encode_point(sigma))
    assert back.charge() == std_charge(2)


def test_sheaf_decode_rejects_unknown_kind():
    with pytest.raises(DomainError):
        decode_sheaf({"kind": "perverse", "rank": 1})
    with pytest.raises(DomainError):
        decode_object({"graded": {"zero": {"kind": "torsion", "points": []}}, "flags": []})
    with pytest.raises(DomainError):
        decode_sheaf({"kind": "torsion"})
    with pytest.raises(DomainError):
        decode_object({"graded": []})


# ---------------------------------------------------------------------------
# one encoder: the hand-written encoders it replaced, as a byte reference


def _ref_kclass(v):
    return {"rk": v.rk, "chd": v.chd}


def _ref_charge(Z):
    return {
        "a": encode_number(Z.a),
        "b": encode_number(Z.b),
        "c": encode_number(Z.c),
        "e": encode_number(Z.e),
    }


def _ref_auto(G):
    return {
        "T": [[encode_number(x) for x in row] for row in G.T.rows()],
        "winding": G.winding,
    }


def _ref_label(label):
    if isinstance(label, StdLabel):
        return {"kind": "std", "p": label.p}
    return {"kind": "deg", "p": label.p, "gamma": encode_number(label.gamma)}


def _ref_point(sigma):
    return {"label": _ref_label(sigma.label), "g": _ref_auto(sigma.g)}


def _ref_sheaf(S):
    if isinstance(S, Torsion):
        return {"kind": "torsion", "points": [[pid, n] for pid, n in S.points]}
    if isinstance(S, LocallyFree):
        return {"kind": "locally_free", "rank": S.rank}
    if isinstance(S, TorsionFree):
        out = {"kind": "torsion_free", "rank": S.rank, "colength": S.colength}
        if S.hn is not None:
            out["hn"] = [[_ref_kclass(cls), stable] for cls, stable in S.hn]
        return out
    assert isinstance(S, Mixed)
    return {"kind": "mixed", "torsion": _ref_sheaf(S.torsion), "free": _ref_sheaf(S.free)}


def _ref_object(E):
    return {
        "graded": {str(i): _ref_sheaf(S) for i, S in E.graded},
        "flags": [[i, j] for i, j in E.nonsplit],
    }


def _same_bytes(ours, ref):
    assert json.dumps(ours, sort_keys=True) == json.dumps(ref, sort_keys=True)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_one_encoder_matches_the_hand_written_object_codecs(d):
    for E in enumerate_objects(4, range(-1, 2), d):
        _same_bytes(encode_object(E), _ref_object(E))
        for _, S in E.graded:
            _same_bytes(encode_sheaf(S), _ref_sheaf(S))


def test_one_encoder_matches_the_hand_written_codecs_on_declared_filtrations():
    with open(DATA) as fh:
        objects = [decode_object(json.loads(line)) for line in fh if line.strip()]
    declared = [S for E in objects for _, S in E.graded if getattr(S, "hn", None)]
    assert declared
    for S in declared:
        _same_bytes(encode_sheaf(S), _ref_sheaf(S))
        for cls, _ in S.hn:
            _same_bytes(encode_kclass(cls), _ref_kclass(cls))


@pytest.mark.parametrize("gamma", [0.3, 1e-30, Fraction(1, 10**30), Fraction(2, 5)], ids=repr)
def test_one_encoder_matches_the_hand_written_point_codecs(gamma):
    G = LiftedAuto(Matrix2(2, 1, 1, 1), -2)
    for sigma in (make_deg(2, gamma, 5), act(G, make_deg(1, gamma, 5)), act(G, make_std(3, 5))):
        _same_bytes(encode_point(sigma), _ref_point(sigma))
        _same_bytes(encode_label(sigma.label), _ref_label(sigma.label))
        _same_bytes(encode_auto(sigma.g), _ref_auto(sigma.g))
    Z = CentralCharge(gamma, Fraction(-1, 3), 0, 2)
    _same_bytes(encode_charge(Z), _ref_charge(Z))


@pytest.mark.parametrize("value", [object(), [1, 2], {"rk": 1}, CentralCharge(1, 0, 0, 1), StdLabel],
                         ids=["object", "list", "dict", "charge", "class"])
def test_the_encoder_refuses_a_value_it_has_no_rule_for(value):
    with pytest.raises(DomainError, match="cannot encode"):
        _encode_report(value)
