"""JSON encoding and decoding for the package's value types.

Conventions: exact rationals encode as ints when integral and as "n/d"
strings otherwise; floats are wrapped as {"approx": x} so exactness survives
a round trip. Top-level CLI payloads carry a "schema" version key and are
emitted with sorted keys, making output byte-stable for fixed input.

Every value is written by one encoder, ``_encode_report``, which reads the
"kind" tag, or the codec of an automorphism or object, from the
``json_kind`` its class carries. So encoding a value runs only the layer
that made it: a point runs no ``sheaves`` code, and a spectrum no ``cover``.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields, is_dataclass
from fractions import Fraction

from . import cover, sheaves, stability
from .charges import CentralCharge, KClass
from .errors import DomainError
from .exactnum import as_number

SCHEMA = "stabtorus/1"


# ---------------------------------------------------------------------------
# numbers


def encode_number(x):
    if isinstance(x, bool):
        raise DomainError("booleans are not numeric payload")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return {"approx": x}
    raise DomainError(f"cannot encode {x!r} as a number")


def decode_number(v):
    if isinstance(v, bool):
        raise DomainError("booleans are not numeric payload")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational literal: {v!r}") from exc
    if isinstance(v, dict) and set(v) == {"approx"}:
        try:
            v = float(v["approx"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"not a float literal: {v['approx']!r}") from exc
    if isinstance(v, float):
        # tolerated bare on input for convenience; emitted only in wrapped form
        return as_number(v)
    raise DomainError(f"cannot decode {v!r} as a number")


# ---------------------------------------------------------------------------
# classes, charges, group elements


def encode_kclass(v: KClass) -> dict:
    return _encode_report(v)


def decode_kclass(obj) -> KClass:
    if not isinstance(obj, dict) or set(obj) != {"rk", "chd"}:
        raise DomainError(f"not a class payload: {obj!r}")
    return KClass(obj["rk"], obj["chd"])


def encode_charge(Z: CentralCharge) -> dict:
    return {k: encode_number(getattr(Z, k)) for k in CentralCharge.__match_args__}


def decode_charge(obj) -> CentralCharge:
    keys = CentralCharge.__match_args__
    if not isinstance(obj, dict) or set(obj) != set(keys):
        raise DomainError(f"not a charge payload: {obj!r}")
    return CentralCharge(*(decode_number(obj[k]) for k in keys))


def encode_auto(G: cover.LiftedAuto) -> dict:
    return {"T": _encode_report(G.T.rows()), "winding": G.winding}


def decode_auto(obj) -> cover.LiftedAuto:
    if not isinstance(obj, dict) or set(obj) != {"T", "winding"}:
        raise DomainError(f"not a lifted automorphism payload: {obj!r}")
    rows = obj["T"]
    if (
        not isinstance(rows, list)
        or len(rows) != 2
        or any(not isinstance(r, list) or len(r) != 2 for r in rows)
    ):
        raise DomainError("T must be a 2x2 matrix")
    T = tuple(tuple(decode_number(x) for x in row) for row in rows)
    return cover.LiftedAuto(T, obj["winding"])


def encode_label(label) -> dict:
    return _encode_report(label)


def decode_label(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError(f"not a label payload: {obj!r}")
    try:
        if obj["kind"] == "std":
            return stability.StdLabel(obj["p"])
        if obj["kind"] == "deg":
            return stability.DegLabel(obj["p"], decode_number(obj["gamma"]))
    except KeyError as exc:
        raise DomainError(f"{obj['kind']!r} label payload lacks the key {exc}") from exc
    raise DomainError(f"unknown label kind {obj['kind']!r}")


def encode_point(sigma: stability.StabPoint) -> dict:
    return _encode_report(sigma)


def decode_point(obj) -> stability.StabPoint:
    if not isinstance(obj, dict) or "label" not in obj or "g" not in obj:
        raise DomainError(f"not a point payload: {obj!r}")
    return stability.StabPoint(decode_label(obj["label"]), decode_auto(obj["g"]))


# ---------------------------------------------------------------------------
# sheaves and formal objects


def encode_sheaf(S) -> dict:
    return _encode_report(S)


def decode_sheaf(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError(f"not a sheaf payload: {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "torsion":
            return sheaves.Torsion(tuple((pid, n) for pid, n in obj["points"]))
        if kind == "locally_free":
            return sheaves.LocallyFree(obj["rank"])
        if kind == "torsion_free":
            hn = obj.get("hn")
            if hn is not None:
                hn = tuple((decode_kclass(cls), stable) for cls, stable in hn)
            return sheaves.TorsionFree(obj["rank"], obj["colength"], hn)
        if kind == "mixed":
            return sheaves.Mixed(decode_sheaf(obj["torsion"]), decode_sheaf(obj["free"]))
    except KeyError as exc:
        raise DomainError(f"{kind!r} sheaf payload lacks the key {exc}") from exc
    raise DomainError(f"unknown sheaf kind {kind!r}")


def encode_object(E: sheaves.FormalObject) -> dict:
    graded = {str(i): _encode_report(S) for i, S in E.graded}
    return {"graded": graded, "flags": _encode_report(E.nonsplit)}


def decode_object(obj) -> sheaves.FormalObject:
    if not isinstance(obj, dict) or not isinstance(obj.get("graded"), dict):
        raise DomainError(f"not an object payload: {obj!r}")
    for key in obj["graded"]:
        if not re.fullmatch("-?[0-9]+", key):
            raise DomainError(f"a degree key must be a decimal integer, got {key!r}")
    try:
        graded = {int(i): decode_sheaf(S) for i, S in obj["graded"].items()}
        flags = tuple(obj.get("flags", ()))  # FormalObject checks each flag
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed object payload: {exc}") from exc
    return sheaves.formal_object(graded, flags)


# ---------------------------------------------------------------------------
# the one encoder and the assembled reports


def _encode_report(x):
    """A value as JSON: a dataclass field by field, led by the "kind" tag
    its class carries as ``json_kind``, if any, with ``kclass`` written as
    "class" and an ``hn`` of None left out; a tuple as a list. Numbers,
    automorphisms (tagged "auto") and objects (tagged "object") go through
    their codecs; None, bools and strings stay as they are. Any other value
    raises DomainError.
    """
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, Fraction, float)):
        return encode_number(x)
    if isinstance(x, tuple):
        return [_encode_report(v) for v in x]
    if not is_dataclass(x) or isinstance(x, type):
        raise DomainError(f"cannot encode {x!r}")
    kind = getattr(x, "json_kind", None)
    if kind == "object":
        return encode_object(x)
    if kind == "auto":
        return encode_auto(x)
    out = {} if kind is None else {"kind": kind}
    for f in fields(x):
        v = getattr(x, f.name)
        if v is not None or f.name != "hn":
            out["class" if f.name == "kclass" else f.name] = _encode_report(v)
    return out


def encode_hn_factor(f) -> dict:
    return _encode_report(f)


def encode_family(fam) -> dict:
    """A StableFamily or a walls.FiberFamily."""
    return _encode_report(fam)


def encode_spectrum(descriptor) -> dict:
    return _encode_report(descriptor)


def encode_wall_decision(decision) -> dict:
    if decision.is_wall:
        return {"wall": encode_label(decision.target)}
    return {"wall": None, "reason": decision.reason}


def encode_complex(cx) -> dict:
    return _encode_report(cx)


def encode_group(group) -> dict:
    return {
        "group": group.name,
        "generators": len(group.generators),
        "relations": len(group.relations),
        "free_rank": group.free_rank,
    }


def dumps(payload: dict) -> str:
    """Serialize a top-level payload: schema-stamped, sorted, deterministic."""
    body = dict(payload)
    body.setdefault("schema", SCHEMA)
    return json.dumps(body, sort_keys=True, separators=(", ", ": "))
