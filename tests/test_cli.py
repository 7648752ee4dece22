"""End-to-end command tests: exit codes, pinned payloads, error envelopes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stabtorus.cli import main

IDENTITY_POINT = (
    '{"label": {"kind": "std", "p": 1}, "g": {"T": [[1, 0], [0, 1]], "winding": 0}}'
)


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_base_point(capsys):
    code, out, err = run(
        capsys,
        ["classify", "--d", "5", "--charge", "1,0,0,1", "--phi", "1", "--psi", "1/2"],
    )
    assert code == 0 and err == ""
    assert out == (
        '{"g": {"T": [[1, 0], [0, 1]], "winding": 0}, '
        '"label": {"kind": "std", "p": 0}, "schema": "stabtorus/1"}\n'
    )


def test_classify_solves_for_the_frame(capsys):
    code, out, _ = run(
        capsys,
        [
            "classify", "--d", "4", "--charge", "2,3,0,5",
            "--phi", "1", "--psi", "0.3279791303773692",
        ],
    )
    assert code == 0
    assert out == (
        '{"g": {"T": [["1/2", "-3/10"], [0, "1/5"]], "winding": 0}, '
        '"label": {"kind": "std", "p": 0}, "schema": "stabtorus/1"}\n'
    )


def test_classify_text_format(capsys):
    code, out, _ = run(
        capsys,
        [
            "classify", "--d", "4", "--charge", "2,3,0,5",
            "--phi", "1", "--psi", "0.3279791303773692", "--format", "text",
        ],
    )
    assert code == 0
    assert out == "label: std p=0\nT: [[1/2, -3/10], [0, 1/5]]\nwinding: 0\n"


def test_classify_degenerate_charge(capsys):
    code, out, _ = run(
        capsys,
        ["classify", "--d", "5", "--charge", "1,1,0,0", "--phi", "1", "--psi", "0"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == {"kind": "deg", "p": 1, "gamma": "1/4"}


def test_classify_inconsistent_phases_exit_2(capsys):
    code, out, err = run(
        capsys,
        ["classify", "--d", "4", "--charge", "2,3,0,5", "--phi", "1", "--psi", "0.9"],
    )
    assert code == 2 and out == ""
    envelope = json.loads(err)
    assert set(envelope) == {"error", "schema"}
    assert envelope["error"]["name"] == "NotNumericallyConsistent"
    assert "psi" in envelope["error"]["message"]


def test_act_negation(capsys):
    code, out, _ = run(
        capsys,
        [
            "act", "--d", "4", "--point", IDENTITY_POINT,
            "--auto", '{"T": [[-1, 0], [0, -1]], "winding": 0}',
        ],
    )
    assert code == 0
    assert out == (
        '{"g": {"T": [[-1, 0], [0, -1]], "winding": 0}, '
        '"label": {"kind": "std", "p": 1}, "schema": "stabtorus/1"}\n'
    )


def test_classify_output_feeds_act(capsys):
    code, out, _ = run(
        capsys,
        ["classify", "--d", "5", "--charge", "1,0,0,1", "--phi", "1", "--psi", "1/2"],
    )
    assert code == 0
    code, out2, _ = run(
        capsys,
        [
            "act", "--d", "5", "--point", out.strip(),
            "--auto", '{"T": [[1, 0], [0, 1]], "winding": 2}',
        ],
    )
    assert code == 0
    assert json.loads(out2)["g"]["winding"] == 2


def test_hn_two_step(capsys):
    obj = (
        '{"flags": [], "graded": {"0": {"kind": "torsion", "points": [["y", 1]]},'
        ' "-1": {"kind": "locally_free", "rank": 1}}}'
    )
    code, out, _ = run(
        capsys,
        ["hn", "--d", "4", "--point", IDENTITY_POINT, "--object", obj,
         "--format", "text"],
    )
    assert code == 0
    assert out == (
        "class (0, 1)  phase 1  stable -\n"
        "class (-1, 0)  phase 1/2  stable -\n"
    )
    code, out, _ = run(
        capsys,
        ["hn", "--d", "4", "--point", IDENTITY_POINT, "--object", obj],
    )
    factors = json.loads(out)["factors"]
    assert [f["class"] for f in factors] == [
        {"rk": 0, "chd": 1}, {"rk": -1, "chd": 0}
    ]
    assert [f["phase"] for f in factors] == [1, "1/2"]


STD_POINT_WITHOUT_P = IDENTITY_POINT.replace(', "p": 1', "")
# a line bundle shifted to degree -1 under a skyscraper: (degree key, flags)
LINE_UNDER_SKY = (
    '{"graded": {%s: {"kind": "locally_free", "rank": 1}, '
    '"0": {"kind": "torsion", "points": [["y", 1]]}}, "flags": %s}'
)
DEG_POINT_WITHOUT_GAMMA = IDENTITY_POINT.replace('"std"', '"deg"')
STD0_POINT = IDENTITY_POINT.replace('"p": 1', '"p": 0')
# a torsion-free sheaf at degree 0 declaring one filtration step (flag)
DECLARED_STEP = (
    '{"graded": {"0": {"kind": "torsion_free", "rank": 1, "colength": 1, '
    '"hn": [[{"rk": 1, "chd": -1}, %s]]}}}'
)


@pytest.mark.parametrize(
    "point, payload",
    [
        (IDENTITY_POINT, '{"graded": {"zero": {"kind": "torsion", "points": []}}}'),
        (IDENTITY_POINT, '{"graded": {"0": {"kind": "torsion"}}}'),
        (STD_POINT_WITHOUT_P, '{"graded": {}}'),
        (DEG_POINT_WITHOUT_GAMMA, '{"graded": {}}'),
        (IDENTITY_POINT, '{"graded": []}'),
        (IDENTITY_POINT, '{"graded": "0"}'),
        (IDENTITY_POINT, LINE_UNDER_SKY % ('"-1"', '[[-1.9, 0.7]]')),
        (IDENTITY_POINT, LINE_UNDER_SKY % ('"-1"', '[[-1, false]]')),
        (IDENTITY_POINT, LINE_UNDER_SKY % ('"-1"', '[["-1", "0"]]')),
        (IDENTITY_POINT, LINE_UNDER_SKY % ('"-1_0"', '[]')),
        (IDENTITY_POINT, '{"graded": {"0_0": {"kind": "torsion", "points": [["y", 1]]}}}'),
        (IDENTITY_POINT, '{"graded": {"+0": {"kind": "torsion", "points": [["y", 1]]}}}'),
        (STD0_POINT, DECLARED_STEP % '"false"'),
        (STD0_POINT, DECLARED_STEP % "0"),
        (STD0_POINT, DECLARED_STEP % "null"),
        (STD0_POINT, DECLARED_STEP % "[]"),
    ],
    ids=[
        "bad-degree", "torsion-without-points", "std-label-without-p",
        "deg-label-without-gamma", "graded-list", "graded-string", "fractional-flag",
        "bool-flag", "string-flag", "underscored-key", "underscored-zero-key", "plus-key",
        "string-step-flag", "zero-step-flag", "null-step-flag", "list-step-flag",
    ],
)
def test_hn_malformed_object_exit_2(capsys, point, payload):
    code, _, err = run(
        capsys,
        ["hn", "--d", "4", "--point", point, "--object", payload],
    )
    assert code == 2
    assert json.loads(err)["error"]["name"] == "DomainError"


@pytest.mark.parametrize(
    "entry",
    [
        '{"approx": "nan"}',
        '{"approx": "inf"}',
        '{"approx": 1e400}',
        "NaN",
        "-Infinity",
        '"1/0"',
        '{"approx": "abc"}',
        '{"approx": [1]}',
    ],
)
def test_act_malformed_number_exit_2(capsys, entry):
    auto = '{"T": [[%s, 0], [0, 1]], "winding": 0}' % entry
    code, out, err = run(capsys, ["act", "--d", "4", "--point", IDENTITY_POINT, "--auto", auto])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["name"] == "DomainError"


@pytest.mark.parametrize(
    "label, message",
    [
        ('{"kind": "std", "p": 4}', "heart index must lie in 0..3, got 4"),
        ('{"kind": "deg", "p": 4, "gamma": "1/3"}', "boundary index must lie in 1..3, got 4"),
    ],
    ids=["std", "deg"],
)
def test_act_label_outside_the_dimension_exit_2(capsys, label, message):
    point = '{"label": %s, "g": {"T": [[1, 0], [0, 1]], "winding": 0}}' % label
    auto = '{"T": [[1, 0], [0, 1]], "winding": 0}'
    code, out, err = run(capsys, ["act", "--d", "4", "--point", point, "--auto", auto])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"name": "DomainError", "message": message}


BIG = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv, name",
    [
        # the skyscraper direction is read past the float range; psi = -1/2
        # is no lift of the rank ray that this charge's orientation allows
        (["classify", "--d", "4", "--charge", f"{BIG},1,1,1", "--phi", "1", "--psi", "-0.5"],
         "NotNumericallyConsistent"),
        # phi is read exactly: 10**400 is an even integer, no lift of direction 1
        (["classify", "--d", "4", "--charge", "1,0,0,-1", "--phi", BIG, "--psi", "-0.5"],
         "NotNumericallyConsistent"),
        (["fiber", "--d", "5", "--charge", f"1,{BIG},0,0"], "DomainError"),
    ],
    ids=["classify-charge", "classify-phi", "fiber-charge"],
)
def test_entries_beyond_the_float_range_exit_2(capsys, argv, name):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["name"] == name


def test_charge_entries_beyond_the_float_range_classify_exactly(capsys):
    # the directions of Z(skyscraper) and Z(rank) are read by rescaling
    code, out, err = run(
        capsys, ["classify", "--d", "4", "--charge", f"{BIG},1,1,1", "--phi", "1", "--psi", "1/4"]
    )
    assert code == 0 and err == ""
    assert json.loads(out)["label"] == {"kind": "std", "p": 0}


def test_auto_entries_beyond_the_float_range_act_exactly(capsys):
    # the group law takes no float, so an exact entry of any size is answered
    auto = '{"T": [[%s, 1], [1, 1]], "winding": 0}' % BIG
    code, out, err = run(capsys, ["act", "--d", "4", "--point", IDENTITY_POINT, "--auto", auto])
    assert code == 0 and err == ""
    g = json.loads(out)["g"]
    assert g["T"] == [[10**400, 1], [1, 1]] and g["winding"] == 0


# One argument of each subcommand that takes a number or JSON, with "@" where
# the input goes: as it is in a flag, as a JSON string inside a payload.
# Subcommands that loop over --d (pi1, orbit-graph, helix-svg) are left out,
# and so is --check-mass, which bounds an enumeration.
STD_AT = '{"label": {"kind": "std", "p": 1}, "g": {"T": [[@, 0], [0, 1]], "winding": 0}}'
DEG_AT = '{"label": {"kind": "deg", "p": 1, "gamma": @}, "g": {"T": [[1, 0], [0, 1]], "winding": 0}}'
IDENTITY_AUTO = '{"T": [[1, 0], [0, 1]], "winding": 0}'
SKY_OBJECT = '{"graded": {"0": {"kind": "torsion", "points": [["y", %s]]}}}'
ESCAPE = ["twist-escape", "--d", "4", "--ideal", "1,-1", "--twist", "1,0"]
CONTRACT_CALLS = {
    "classify-charge": ["classify", "--d", "4", "--charge", "@,0,0,1", "--phi", "1",
                        "--psi", "1/2"],
    "classify-phi": ["classify", "--d", "4", "--charge", "1,0,0,1", "--phi", "@",
                     "--psi", "1/2"],
    "classify-psi": ["classify", "--d", "4", "--charge", "1,0,0,1", "--phi", "1",
                     "--psi", "@"],
    "act-point": ["act", "--d", "4", "--point", STD_AT, "--auto", IDENTITY_AUTO],
    "act-auto": ["act", "--d", "4", "--point", IDENTITY_POINT,
                 "--auto", '{"T": [[1, @], [0, 1]], "winding": 0}'],
    "hn-point": ["hn", "--d", "4", "--point", DEG_AT, "--object", SKY_OBJECT % 1],
    "hn-object": ["hn", "--d", "4", "--point", IDENTITY_POINT, "--object", SKY_OBJECT % "@"],
    "tilt-chain-p": ["tilt-chain", "--d", "4", "--p", "@", "--check-mass", "1"],
    "spectrum-label": ["spectrum", "--d", "4", "--label", "deg:1:@"],
    "spectrum-point": ["spectrum", "--d", "4", "--point", STD_AT],
    "gamma-bounds-label": ["gamma-bounds", "--d", "4", "--label", "deg:1:@",
                           "--gamma", "3/10"],
    "gamma-bounds-gamma": ["gamma-bounds", "--d", "4", "--label", "std:0", "--gamma", "@"],
    "boundary-p": ["boundary", "--d", "4", "--p", "@", "--gamma", "3/10"],
    "boundary-gamma": ["boundary", "--d", "4", "--p", "1", "--gamma", "@"],
    "fiber-charge": ["fiber", "--d", "4", "--charge", "1,@,0,0"],
    "twist-escape-gamma-minus": ESCAPE + ["--gamma-minus", "@", "--charge", "1,0,0,1"],
    "twist-escape-charge": ESCAPE + ["--gamma-minus", "2/5", "--charge", "1,0,@,1"],
}
CONTRACT_INPUTS = {
    "1e400": "1e400",
    "10**400": BIG,
    "-10**400": "-" + BIG,
    "1/10**400": "1/" + BIG,
    "1e-400": "1e-400",
    "nan": "nan",
    "inf": "inf",
    "truncated-json": None,
}


def _contract_argv(template, value):
    argv = []
    for arg in template:
        if "@" in arg and arg.startswith("{"):
            arg = arg.replace("@", json.dumps("1" if value is None else value))
            if value is None:
                arg = arg[: len(arg) // 2]
        elif "@" in arg:
            arg = arg.replace("@", '{"approx": [1' if value is None else value)
        argv.append(arg)
    return argv


@pytest.mark.parametrize("value", list(CONTRACT_INPUTS.values()), ids=list(CONTRACT_INPUTS))
@pytest.mark.parametrize("call", list(CONTRACT_CALLS))
def test_numbers_and_json_end_in_an_exit_code_never_a_traceback(capsys, call, value):
    code, out, err = run(capsys, _contract_argv(CONTRACT_CALLS[call], value))
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert set(json.loads(err)["error"]) == {"name", "message"}


def test_tilt_chain(capsys):
    code, out, _ = run(
        capsys,
        ["tilt-chain", "--d", "4", "--p", "2", "--check-mass", "3",
         "--format", "text"],
    )
    assert code == 0
    assert out == (
        "tilt 0: torsion-against-torsion-free\n"
        "tilt 1: degree-zero-torsion-at-level-1\n"
        "agrees with the direct heart on mass <= 3: yes\n"
    )
    code, out, _ = run(capsys, ["tilt-chain", "--d", "4", "--p", "2"])
    payload = json.loads(out)
    assert payload["agrees_with_direct"] is True
    assert payload["target_level"] == 2
    assert [t["level"] for t in payload["tilts"]] == [0, 1]


def test_tilt_chain_reports_a_mismatch(capsys, monkeypatch):
    from stabtorus import hearts, jsonio, sheaves

    witness = sheaves.formal_object([(0, sheaves.skyscraper())])
    monkeypatch.setattr(hearts, "hearts_agree_on", lambda *args: witness)
    code, out, _ = run(capsys, ["tilt-chain", "--d", "4", "--p", "2", "--check-mass", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["agrees_with_direct"] is False
    assert payload["mismatch"] == jsonio.encode_object(witness)
    code, out, _ = run(
        capsys,
        ["tilt-chain", "--d", "4", "--p", "2", "--check-mass", "1", "--format", "text"],
    )
    assert code == 0
    assert out.rstrip("\n").endswith("NO")


def test_spectrum_by_label(capsys):
    code, out, _ = run(capsys, ["spectrum", "--d", "4", "--label", "std:1"])
    assert code == 0
    assert out == (
        '{"schema": "stabtorus/1", "spectrum": {"complete": true, '
        '"points": ["1/2", 1], "series": [], "uncertain": []}}\n'
    )
    code, out, _ = run(
        capsys, ["spectrum", "--d", "4", "--label", "std:0", "--format", "text"]
    )
    assert out == "points: 1/2, 1\ncomplete: no\nseries ideal_sheaves: computable yes\n"


def test_spectrum_by_point_lists_families(capsys):
    code, out, _ = run(
        capsys,
        ["spectrum", "--d", "4", "--point", IDENTITY_POINT, "--format", "text"],
    )
    assert code == 0
    assert out == (
        "label: std p=1\n"
        "family skyscraper: shift 0, phase 1\n"
        "family shifted_line_bundle: shift 1, phase 1/2\n"
    )


def test_spectrum_requires_label_or_point(capsys):
    code, _, err = run(capsys, ["spectrum", "--d", "4"])
    assert code == 1
    assert "one of --label or --point" in err


def test_gamma_bounds(capsys):
    code, out, _ = run(
        capsys, ["gamma-bounds", "--d", "4", "--label", "std:1", "--gamma", "3/10"]
    )
    assert code == 0
    assert out == (
        '{"above": "1/2", "above_exact": true, "below": 0, '
        '"below_exact": true, "schema": "stabtorus/1"}\n'
    )
    code, out, _ = run(
        capsys,
        ["gamma-bounds", "--d", "4", "--label", "std:0", "--gamma", "1/10",
         "--format", "text"],
    )
    assert "(bound only)" in out and "below: 0.0779791" in out


def test_boundary_wall_and_escape(capsys):
    code, out, _ = run(capsys, ["boundary", "--d", "5", "--p", "0", "--gamma", "7/10"])
    assert code == 0
    assert out == (
        '{"schema": "stabtorus/1", "wall": {"gamma": "3/10", "kind": "deg", "p": 1}}\n'
    )
    code, out, _ = run(capsys, ["boundary", "--d", "4", "--p", "0", "--gamma", "3/10"])
    assert out == '{"reason": "twist-escape", "schema": "stabtorus/1", "wall": null}\n'
    code, out, _ = run(
        capsys,
        ["boundary", "--d", "4", "--p", "0", "--gamma", "3/10", "--format", "text"],
    )
    assert out == "no boundary: twist-escape\n"


@pytest.mark.parametrize("gamma", ["1e-6", "1e-11", "1e-12", "1e-15"])
def test_tiny_gamma_escapes_at_level_zero(capsys, gamma):
    code, out, _ = run(capsys, ["boundary", "--d", "4", "--p", "0", "--gamma", gamma])
    assert code == 0
    assert out == '{"reason": "twist-escape", "schema": "stabtorus/1", "wall": null}\n'
    code, out, _ = run(capsys, ["gamma-bounds", "--d", "4", "--label", "std:0", "--gamma", gamma])
    assert code == 0
    payload = json.loads(out)
    assert payload["below"]["approx"] < float(gamma) < payload["above"]["approx"]


@pytest.mark.parametrize(
    "gamma, bounds_error",
    [("1/4", "OnSpectrum"), ("0.25", "OnSpectrum"),
     ("1e-17", "DomainError"), ("1e-320", "DomainError"), ("1e-400", "DomainError")],
)
def test_gamma_on_or_below_the_series_exit_2(capsys, gamma, bounds_error):
    # gamma-bounds names the neighbouring phases, so it refuses a gamma on
    # the spectrum or below the float range of the series; boundary refuses
    # only the stable phase, and an exact gamma of any size is off it
    argv = ["gamma-bounds", "--d", "4", "--label", "std:0", "--gamma", gamma]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["name"] == bounds_error
    code, out, err = run(capsys, ["boundary", "--d", "4", "--p", "0", "--gamma", gamma])
    if bounds_error == "OnSpectrum":
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["name"] == "DomainError"
    else:
        assert code == 0 and err == ""
        assert out == '{"reason": "twist-escape", "schema": "stabtorus/1", "wall": null}\n'


def test_boundary_on_spectrum_exit_2(capsys):
    code, _, err = run(capsys, ["boundary", "--d", "4", "--p", "1", "--gamma", "1/2"])
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"]["name"] == "DomainError"
    assert envelope["schema"] == "stabtorus/1"


def test_orbit_graph(capsys):
    code, out, _ = run(capsys, ["orbit-graph", "--d", "3"])
    assert code == 0
    payload = json.loads(out)
    assert [n["name"] for n in payload["nodes"]] == [
        "std-0", "std-1", "std-2", "wall-1", "wall-2"
    ]
    assert payload["edges"] == [
        ["wall-1", "std-0"], ["wall-1", "std-1"],
        ["wall-2", "std-1"], ["wall-2", "std-2"],
    ]
    code, out, _ = run(capsys, ["orbit-graph", "--d", "3", "--format", "text"])
    assert out.splitlines()[:2] == ["std-0: cell, contractible", "std-1: cell, contractible"]
    assert out.splitlines()[-1] == "edge wall-2 - std-2"


def test_pi1_commands(capsys):
    code, out, _ = run(capsys, ["pi1", "--d", "5"])
    assert code == 0
    assert out == (
        '{"free_rank": 0, "generators": 4, "group": "trivial", '
        '"relations": 4, "schema": "stabtorus/1"}\n'
    )
    code, out, _ = run(capsys, ["pi1", "--d", "5", "--format", "text"])
    assert out == "group: trivial\ngenerators: 4\nrelations: 4\n"
    code, out, _ = run(capsys, ["pi1", "--d", "5", "--wall-only"])
    assert json.loads(out)["group"] == "infinite-cyclic"


def test_pi1_disconnected_exit_2(capsys):
    code, _, err = run(capsys, ["pi1", "--d", "3", "--drop", "std-1"])
    assert code == 2
    assert json.loads(err)["error"]["name"] == "Disconnected"


def test_pi1_drop_end_cell(capsys):
    code, out, _ = run(capsys, ["pi1", "--d", "3", "--drop", "std-0"])
    assert code == 0
    assert json.loads(out)["group"] == "infinite-cyclic"


def test_pi1_drop_both_end_cells(capsys):
    code, out, _ = run(capsys, ["pi1", "--d", "4", "--drop", "std-0", "--drop", "std-3"])
    assert code == 0
    assert json.loads(out)["group"] == "free-of-rank-2"


def test_fiber_of_a_tiny_positive_slope_stays_below_half(capsys):
    code, out, _ = run(capsys, ["fiber", "--d", "4", "--charge", "1,1e-17,0,0"])
    assert code == 0
    labels = [f["label"] for f in json.loads(out)["families"]]
    assert [(l["p"], l["gamma"]) for l in labels] == [
        (1, {"approx": 0.49999999999999994}),
        (3, {"approx": 0.49999999999999994}),
    ]


def test_fiber_accepts_leading_negative_charge(capsys):
    code, out, _ = run(capsys, ["fiber", "--d", "5", "--charge", "-1,0,0,1"])
    assert code == 0
    labels = [f["label"] for f in json.loads(out)["families"]]
    assert labels == [{"kind": "std", "p": 1}, {"kind": "std", "p": 3}]


def test_fiber_text_renderings(capsys):
    code, out, _ = run(
        capsys, ["fiber", "--d", "5", "--charge", "1,1,0,0", "--format", "text"]
    )
    assert code == 0
    assert out == (
        "deg p=1 gamma=1/4: positive-dimensional\n"
        "deg p=3 gamma=1/4: positive-dimensional\n"
    )
    code, out, _ = run(
        capsys, ["fiber", "--d", "5", "--charge", "0,1,0,0", "--format", "text"]
    )
    assert out == "empty fiber: the charge is not attained\n"


def test_twist_escape_command(capsys):
    argv = [
        "twist-escape", "--d", "4", "--ideal", "1,-1", "--twist", "1,0",
        "--gamma-minus", "2/5", "--charge", "1,0,0,1",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == '{"n": 3, "schema": "stabtorus/1"}\n'
    code, out, _ = run(capsys, argv + ["--format", "text"])
    assert out == "escapes at n = 3\n"


@pytest.mark.parametrize(
    "argv, n",
    [
        (["--ideal", "3,-2", "--twist", "2,5", "--gamma-minus", "1/2",
          "--charge", "5,7,1/15,1000000000000000000"], 3),
        (["--ideal", "0,-1", "--twist", "1,1", "--gamma-minus", "0.49999999999999999999",
          "--charge", "1,0,0,1"], 1),
    ],
    ids=["twist-a-hair-above-the-record", "iterate-at-one-half"],
)
def test_twist_escape_command_decides_the_crossing_exactly(capsys, argv, n):
    code, out, _ = run(capsys, ["twist-escape", "--d", "4"] + argv)
    assert (code, out) == (0, f'{{"n": {n}, "schema": "stabtorus/1"}}\n')


def test_helix_svg_defaults_to_text(capsys):
    code, out, _ = run(capsys, ["helix-svg", "--d", "3"])
    assert code == 0
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    code, out2, _ = run(capsys, ["helix-svg", "--d", "3"])
    assert out == out2


def test_helix_svg_json_and_labels(capsys):
    code, out, _ = run(capsys, ["helix-svg", "--d", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"schema", "svg"}
    code, out, _ = run(capsys, ["helix-svg", "--d", "3", "--no-labels"])
    assert out.count("<text") == 0


def test_helix_svg_out_file(capsys, tmp_path):
    target = tmp_path / "helix.svg"
    code, out, _ = run(capsys, ["helix-svg", "--d", "5", "--out", str(target)])
    assert code == 0
    assert out == f"wrote {target}\n"
    body = target.read_text()
    assert body.count("<ellipse") == 6 and body.count("<path") == 4


def test_helix_svg_unwritable_out_exits_1(capsys, tmp_path):
    for target in (str(tmp_path), str(tmp_path / "missing" / "x.svg")):
        code, out, err = run(capsys, ["helix-svg", "--d", "3", "--out", target])
        assert code == 1 and out == ""
        assert err.startswith("stabtorus: error: --out: ") and err.count("\n") == 1


def test_helix_svg_low_dimension_exit_2(capsys):
    code, _, err = run(capsys, ["helix-svg", "--d", "2"])
    assert code == 2
    assert json.loads(err)["error"]["name"] == "DomainError"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--d", "4", "--charge", "1,0,0,1", "--phi", "1"],
        ["nonsense", "--d", "4"],
        ["classify", "--d", "4", "--charge", "1,0,0", "--phi", "1", "--psi", "1/2"],
        ["boundary", "--d", "4", "--p", "1", "--gamma", "abc"],
        ["act", "--d", "4", "--point", "{not json", "--auto", "{}"],
        ["spectrum", "--d", "4", "--label", "weird:1"],
        ["tilt-chain", "--d", "4", "--p", "2", "--check-mass", "-2"],
        ["tilt-chain", "--d", "4", "--p", "2", "--check-mass", "0"],
        ["twist-escape", "--d", "4", "--ideal", "1,-1", "--twist", "1,0",
         "--gamma-minus", "nan", "--charge", "1,0,0,1"],
        ["twist-escape", "--d", "4", "--ideal", "1,-1", "--twist", "1,0",
         "--gamma-minus", "inf", "--charge", "1,0,0,1"],
        ["twist-escape", "--d", "4", "--ideal", "1,-1", "--twist", "1,0",
         "--gamma-minus", "2/5", "--charge", "1,0,-inf,1"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err != ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (ESCAPE[:4] + ["1,2,3"] + ESCAPE[5:] + ["--gamma-minus", "2/5", "--charge", "1,0,0,1"],
         "--ideal"),
        (["spectrum", "--d", "4", "--label", "std:x"], "--label"),
        (["spectrum", "--d", "4", "--point", "{not json"], "--point"),
    ],
    ids=["ideal-of-three", "label-std-x", "point-not-json"],
)
def test_flags_that_do_not_convert_exit_1_with_the_usage_line(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: stabtorus ") and f"error: argument {flag}: " in err
    assert "Traceback" not in err


def test_a_point_with_a_bad_label_exits_2_while_flags_are_read(capsys):
    point = IDENTITY_POINT.replace('"p": 1', '"p": -1')
    code, out, err = run(capsys, ["spectrum", "--d", "4", "--point", point])
    assert code == 2 and out == "" and "Traceback" not in err
    assert json.loads(err)["error"] == {
        "name": "DomainError", "message": "heart index must be a nonnegative integer, got -1"}


def test_json_outputs_are_key_sorted(capsys):
    for argv in (
        ["pi1", "--d", "4"],
        ["orbit-graph", "--d", "4"],
        ["boundary", "--d", "4", "--p", "1", "--gamma", "3/10"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == sorted(payload)
        assert payload["schema"] == "stabtorus/1"


def _run_module(*argv):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "stabtorus", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_command_with_an_empty_stderr(capsys):
    done = _run_module("orbit-graph", "--d", "3")
    code, out, _ = run(capsys, ["orbit-graph", "--d", "3"])
    assert code == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "")
    failed = _run_module("orbit-graph", "--d", "2")
    assert failed.returncode == 2 and failed.stdout == ""
    envelope = json.loads(failed.stderr)
    assert envelope["error"]["name"] == "DomainError"
    assert envelope["schema"] == "stabtorus/1"
