"""Command-line interface.

Subcommands expose the main library operations with JSON output by default
(stable key order, "schema" version key) and a plain text rendering behind
--format text. Numeric flags accept integers, rationals "n/d" and decimals.
Exit status: 0 on success, 1 on usage errors, 2 on domain errors, which are
reported as {"error": {"name": ..., "message": ...}} on stderr.

Layers are called through their modules and looked up at call time, so a
function rebound on its module is the one called.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import hearts, jsonio, presentations, sheaves, stability, svg, walls
from .charges import CentralCharge, KClass
from .errors import DomainError, StabTorusError
from .exactnum import as_number, format_number


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1.

    Also widens the negative-number recognizer so values like -1/2 or the
    charge tuple -1,0,0,1 pass as flag arguments instead of being mistaken
    for option names.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-\d*\.\d+$|^-[\d./]+(,-?[\d./]+)+$"
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# flag converters: argparse reports a ValueError or ArgumentTypeError from
# one as a usage error; a StabTorusError propagates to main


def number(s: str):
    try:
        return as_number(s)
    except DomainError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {s!r}") from None


def charge(s: str) -> CentralCharge:
    a, b, c, e = map(number, s.split(","))
    return CentralCharge(a, b, c, e)


def kclass(s: str) -> KClass:
    rk, chd = s.split(",")
    return KClass(int(rk), int(chd))


def label(s: str):
    kind, *rest = s.split(":")
    if kind == "std" and len(rest) == 1:
        return stability.StdLabel(int(rest[0]))
    if kind == "deg" and len(rest) == 2:
        return stability.DegLabel(int(rest[0]), number(rest[1]))
    raise ValueError(s)


def point_json(s: str):
    return jsonio.decode_point(json.loads(s))


def auto_json(s: str):
    return jsonio.decode_auto(json.loads(s))


def object_json(s: str):
    return jsonio.decode_object(json.loads(s))


def _num_text(x) -> str:
    return "-" if x is None else format_number(x)


def _matrix_text(G) -> str:
    rows = [", ".join(_num_text(x) for x in row) for row in G.T.rows()]
    return "[[" + "], [".join(rows) + "]]"


def _label_text(label) -> str:
    if isinstance(label, stability.DegLabel):
        return f"deg p={label.p} gamma={_num_text(label.gamma)}"
    return f"std p={label.p}"


def _point_text(sigma) -> str:
    return "\n".join(
        [
            f"label: {_label_text(sigma.label)}",
            f"T: {_matrix_text(sigma.g)}",
            f"winding: {sigma.g.winding}",
        ]
    )


# ---------------------------------------------------------------------------
# handlers: each returns (json payload, text rendering)


def _cmd_classify(args):
    sigma = stability.classify(args.charge, args.phi, args.psi, args.d)
    return jsonio.encode_point(sigma), _point_text(sigma)


def _cmd_act(args):
    stability.check_label(args.point.label, args.d)
    moved = stability.act(args.auto, args.point)
    return jsonio.encode_point(moved), _point_text(moved)


def _cmd_hn(args):
    factors = stability.hn_filtration(args.point, args.object, args.d)
    payload = {"factors": [jsonio.encode_hn_factor(f) for f in factors]}
    lines = []
    for f in factors:
        stable = "-" if f.stable is None else str(f.stable).lower()
        lines.append(
            f"class ({f.kclass.rk}, {f.kclass.chd})  phase {_num_text(f.phase)}  "
            f"stable {stable}"
        )
    return payload, "\n".join(lines) if lines else "no factors (zero object)"


def _cmd_tilt_chain(args):
    if args.check_mass < 1:
        raise UsageError(f"--check-mass: must be at least 1, got {args.check_mass}")
    heart = hearts.iterated_heart(args.p, args.d)
    levels = [
        {"level": k, "pair": hearts.standard_pair(k, args.d).name} for k in range(args.p)
    ]
    mismatch = hearts.hearts_agree_on(
        heart,
        hearts.StandardHeart(args.p, args.d),
        sheaves.enumerate_objects(args.check_mass, range(-args.p, 1), args.d),
    )
    payload = {
        "target_level": args.p,
        "tilts": levels,
        "checked_mass": args.check_mass,
        "agrees_with_direct": mismatch is None,
    }
    if mismatch is not None:
        payload["mismatch"] = jsonio.encode_object(mismatch)
    lines = [f"tilt {x['level']}: {x['pair']}" for x in levels]
    lines.append(
        f"agrees with the direct heart on mass <= {args.check_mass}: "
        f"{'yes' if mismatch is None else 'NO'}"
    )
    return payload, "\n".join(lines)


def _cmd_spectrum(args):
    if args.point is None and args.label is None:
        raise UsageError("spectrum: one of --label or --point is required")
    if args.point is not None:
        descriptor, families = stability.stable_objects(args.point, args.d)
        payload = {
            "spectrum": jsonio.encode_spectrum(descriptor),
            "families": [jsonio.encode_family(f) for f in families],
        }
        lines = [f"label: {_label_text(args.point.label)}"]
        for f in families:
            lines.append(
                f"family {f.kind}: shift {f.shift}, phase {_num_text(f.phase)}"
            )
        return payload, "\n".join(lines)
    descriptor = stability.spectrum_of(args.label, args.d)
    payload = {"spectrum": jsonio.encode_spectrum(descriptor)}
    lines = [
        f"points: {', '.join(_num_text(q) for q in descriptor.points)}",
        f"complete: {'yes' if descriptor.complete else 'no'}",
    ]
    for s in descriptor.series:
        lines.append(f"series {s.kind}: computable {'yes' if s.computable else 'no'}")
    return payload, "\n".join(lines)


def _cmd_gamma_bounds(args):
    below, above, be, ae = walls.gamma_pm(stability.spectrum_of(args.label, args.d), args.gamma)
    payload = {
        "below": jsonio.encode_number(below),
        "above": jsonio.encode_number(above),
        "below_exact": be,
        "above_exact": ae,
    }
    text = (
        f"below: {_num_text(below)} ({'exact' if be else 'bound only'})\n"
        f"above: {_num_text(above)} ({'exact' if ae else 'bound only'})"
    )
    return payload, text


def _cmd_boundary(args):
    decision = walls.boundary_at(args.p, args.gamma, args.d)
    payload = jsonio.encode_wall_decision(decision)
    if decision.is_wall:
        text = f"wall: {_label_text(decision.target)}"
    else:
        text = f"no boundary: {decision.reason}"
    return payload, text


def _cmd_orbit_graph(args):
    cx = walls.orbit_complex(args.d)
    payload = jsonio.encode_complex(cx)
    lines = [f"{nd.name}: {nd.kind}, {nd.homotopy}" for nd in cx.nodes]
    lines += [f"edge {w} - {c}" for w, c in cx.edges]
    return payload, "\n".join(lines)


def _cmd_pi1(args):
    if args.wall_only:
        cx = walls.wall_only_complex()
    else:
        cx = walls.orbit_complex(args.d)
    for name in args.drop or ():
        cx = walls.remove_node(cx, name)
    group = presentations.pi1(cx)
    payload = jsonio.encode_group(group)
    text = (
        f"group: {group.name}\n"
        f"generators: {len(group.generators)}\n"
        f"relations: {len(group.relations)}"
    )
    return payload, text


def _cmd_fiber(args):
    families = walls.fiber_types(args.charge, args.d)
    payload = {"families": [jsonio.encode_family(f) for f in families]}
    if not families:
        return payload, "empty fiber: the charge is not attained"
    lines = [f"{_label_text(f.label)}: {f.structure}" for f in families]
    return payload, "\n".join(lines)


def _cmd_twist_escape(args):
    n = walls.twist_escape(args.ideal, args.twist, args.gamma_minus, args.charge)
    return {"n": n}, f"escapes at n = {n}"


def _cmd_helix_svg(args):
    doc = svg.helix_svg(args.d, labels=not args.no_labels)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except OSError as exc:
            raise UsageError(f"--out: {exc}") from None
        return {"written": args.out}, f"wrote {args.out}"
    return {"svg": doc}, doc


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(
        prog="stabtorus",
        description=(
            "Symbolic model of the simply connected region of the stability "
            "manifold of a generic complex torus"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, handler, help_text, default_format="json"):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--d", type=int, required=True, help="torus dimension (>= 3)")
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default=default_format,
            help=f"output format (default {default_format})",
        )
        p.set_defaults(handler=handler)
        return p

    p = add("classify", _cmd_classify, "normal form of a point from charge and phases")
    p.add_argument("--charge", type=charge, required=True, help="a,b,c,e")
    p.add_argument("--phi", type=number, required=True, help="lifted skyscraper phase")
    p.add_argument("--psi", type=number, required=True, help="lifted rank-ray phase")

    p = add("act", _cmd_act, "move a point by a lifted automorphism")
    p.add_argument("--point", type=point_json, required=True,
                   help="point JSON, as emitted by classify")
    p.add_argument("--auto", type=auto_json, required=True,
                   help='automorphism JSON {"T": ..., "winding": ...}')

    p = add("hn", _cmd_hn, "Harder-Narasimhan factors of an object at a point")
    p.add_argument("--point", type=point_json, required=True,
                   help="point JSON, as emitted by classify")
    p.add_argument("--object", type=object_json, required=True, help="formal object JSON")

    p = add("tilt-chain", _cmd_tilt_chain, "rebuild a standard heart by iterated tilts")
    p.add_argument("--p", type=int, required=True, help="target heart index")
    p.add_argument(
        "--check-mass", type=int, default=3,
        help="verify against the direct heart on objects up to this mass",
    )

    p = add("spectrum", _cmd_spectrum, "stable phases of a labeled orbit or a point")
    p.add_argument("--label", type=label, help="std:<p> or deg:<p>:<gamma>")
    p.add_argument("--point", type=point_json, help="point JSON; reports transported families too")

    p = add("gamma-bounds", _cmd_gamma_bounds, "nearest stable phases around gamma")
    p.add_argument("--label", type=label, required=True, help="std:<p> or deg:<p>:<gamma>")
    p.add_argument("--gamma", type=number, required=True)

    p = add("boundary", _cmd_boundary, "wall or escape behind the phase gap at gamma")
    p.add_argument("--p", type=int, required=True, help="standard orbit index")
    p.add_argument("--gamma", type=number, required=True)

    add("orbit-graph", _cmd_orbit_graph, "cells, walls and adjacencies as JSON")

    p = add("pi1", _cmd_pi1, "fundamental group of the orbit complex")
    p.add_argument(
        "--wall-only", action="store_true",
        help="use the single-wall sanity complex instead",
    )
    p.add_argument(
        "--drop", action="append", metavar="NODE",
        help="remove a node (repeatable), e.g. --drop std-1",
    )

    p = add("fiber", _cmd_fiber, "orbit families over a charge")
    p.add_argument("--charge", type=charge, required=True, help="a,b,c,e")

    p = add("twist-escape", _cmd_twist_escape, "least twist pushing the phase past the record")
    p.add_argument("--ideal", type=kclass, required=True, help="rk,chd of the starting class")
    p.add_argument("--twist", type=kclass, required=True, help="rk,chd of the twisting class")
    p.add_argument("--gamma-minus", type=number, required=True,
                   help="record phase below the gap")
    p.add_argument("--charge", type=charge, required=True, help="a,b,c,e")

    p = add("helix-svg", _cmd_helix_svg, "schematic helix drawing", default_format="text")
    p.add_argument("--no-labels", action="store_true", help="omit all text nodes")
    p.add_argument("--out", help="write the SVG to this path instead of stdout")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, text = args.handler(args)
    except UsageError as exc:
        print(f"stabtorus: error: {exc}", file=sys.stderr)
        return 1
    except StabTorusError as exc:
        err = {"error": {"name": type(exc).__name__, "message": str(exc)}}
        print(jsonio.dumps(err), file=sys.stderr)
        return 2
    if args.format == "json":
        print(jsonio.dumps(payload))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
