"""Workload inputs, operations and output checks.

Library code is reached through module attributes (``hearts.heart_membership``
and so on), never through names bound at import, so that the tracer's
wrappers see every call. Checks rest on each answer's defining property and
are computed here, independently of the library where that is practical.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
HALF = Fraction(1, 2)

# ---------------------------------------------------------------------------
# tilt-sweep: acceptance criterion 3 at one dimension

SWEEP_D = 4  # three tilt levels; d = 5 takes ~22 s per sweep, too long to repeat
SWEEP_MASS = 6
SMALL_SWEEP_MASS = 3
# (d, mass) -> (corpus size, heart memberships summed over p), measured at the
# commit that introduced the benchmark; a change to either is a wrong answer
SWEEP_EXPECTED = {(4, 6): (33393, 473), (4, 3): (432, 65)}


def sweep_setup(d: int = SWEEP_D):
    """The tilt chains of every index, built before the first timed object."""
    from stabtorus import hearts

    return [hearts.iterated_heart(p, d) for p in range(d)]


def sweep(tracer, mass: int, d: int = SWEEP_D, ready=None) -> dict:
    """Stream the mass <= ``mass`` corpus over degrees -(d-1)..0 and compare
    the iterated tilt heart with the direct predicate for every index."""
    from stabtorus import hearts, sheaves

    chains = sweep_setup(d)
    if ready is not None:
        ready()
    if tracer is not None:
        tracer.active = True
    now = time.perf_counter_ns
    latencies = array("q")
    digest = hashlib.sha256()
    objects = members = mismatches = 0
    it = sheaves.enumerate_objects(mass, range(-(d - 1), 1), d)
    start = now()
    while True:
        t0 = now()
        token = tracer.begin("bench.object", objects) if tracer is not None else None
        E = next(it, None)
        if E is None:
            if token is not None:
                tracer.end(token)
            break
        bits = bytearray(d)
        bad = False
        for p in range(d):
            inside = hearts.heart_membership(E, p, d)
            if chains[p].contains(E) != inside:
                bad = True
            if inside:
                members += 1
                bits[p] = 1
        if token is not None:
            tracer.end(token)
        latencies.append(now() - t0)
        mismatches += bad
        digest.update(bits)
        objects += 1
    elapsed = now() - start
    if tracer is not None:
        tracer.active = False
    expected = SWEEP_EXPECTED.get((d, mass))
    return {
        "ops": objects,
        "failed": mismatches,
        "elapsed_ns": elapsed,
        "latencies_ns": latencies,
        "digest": digest.hexdigest(),
        "members": members,
        "totals_ok": expected == (objects, members),
    }


# ---------------------------------------------------------------------------
# point-queries: a seeded stream of library calls on points

POINT_D = 5
TWIST_CAP = 4096  # crossing indices are log-uniform in 1..TWIST_CAP
DECK = (  # query kind -> count per deck of 100; decks are shuffled
    ("roundtrip", 20),
    ("gl_assoc", 15),
    ("gl_inverse", 10),
    ("hn", 15),
    ("stab_gate", 15),
    ("boundary_at", 15),
    ("boundary_heart", 5),
    ("twist_escape", 5),
)


def _rand_matrix(rng):
    while True:
        m = tuple(rng.randint(-5, 5) for _ in range(4))
        if m[0] * m[3] - m[1] * m[2] > 0:
            return m


def _rand_auto(rng):
    return (_rand_matrix(rng), rng.randint(-2, 2))


def _rand_frac(rng, lo=-9, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def _escape_phase(k: int, n: int) -> float:
    # phase of the class (1 + n, -k) under the index-0 standard charge
    return math.atan2(float(1 + n), float(k)) / math.pi


def _wall_target(p, gamma, d):
    """The decision-table rule: (target p, target gamma) or None for escape."""
    if gamma < HALF:
        return None if p == 0 else (p, gamma)
    return None if p == d - 1 else (p + 1, 1 - gamma)


def _random_gamma(rng, p):
    while True:
        n = rng.randint(3, 40)
        g = Fraction(rng.randint(1, n - 1), n)
        if g != HALF and not (p == 0 and g == Fraction(1, 4)):
            return g


class PointContext:
    """Inputs shared by all queries of one process: hn objects per heart
    and the probe sets that boundary hearts are compared on."""

    def __init__(self, d: int = POINT_D):
        from stabtorus import hearts, sheaves

        self.d = d
        self.hn_pool = {}
        for p in range(d):
            window = range(-p, 1) if p else (0,)
            pool = []
            for E in sheaves.enumerate_objects(3, window, d):
                if not hearts.heart_membership(E, p, d) or E.is_zero():
                    continue
                if p == 0 and _has_torsion_free(E.component(0), sheaves):
                    continue  # needs declared filtration data
                pool.append(E)
            self.hn_pool[p] = pool
        self.probes = {
            q: list(sheaves.enumerate_objects(2, range(-min(q + 1, d - 1), 1), d))
            for q in range(1, d)
        }


def _has_torsion_free(S, sheaves):
    free = S.free if isinstance(S, sheaves.Mixed) else S
    return isinstance(free, sheaves.TorsionFree)


def make_deck(rng, ctx: PointContext):
    d = ctx.d
    kinds = [kind for kind, count in DECK for _ in range(count)]
    rng.shuffle(kinds)
    n_escape = dict(DECK)["twist_escape"]
    escapes = [
        max(1, round(TWIST_CAP ** ((j + rng.random()) / n_escape))) for j in range(n_escape)
    ]
    rng.shuffle(escapes)
    deck = []
    for kind in kinds:
        if kind == "roundtrip":
            params = (rng.randrange(d),) + _rand_auto(rng)
        elif kind == "gl_assoc":
            params = (_rand_auto(rng), _rand_auto(rng), _rand_auto(rng),
                      Fraction(rng.randint(-10, 10), 7))
        elif kind == "gl_inverse":
            params = (_rand_auto(rng), Fraction(rng.randint(-10, 10), 7))
        elif kind == "hn":
            p = rng.randrange(d)
            params = (p, _rand_auto(rng), rng.randrange(len(ctx.hn_pool[p])))
        elif kind == "stab_gate":
            p = rng.randrange(d)
            if rng.random() < 0.5:
                Z = tuple(_rand_frac(rng) for _ in range(4))
            else:  # a charge of the accepted shape
                eps = (-1) ** p
                Z = (_rand_frac(rng, 1, 9), _rand_frac(rng),
                     _rand_frac(rng, -9, 0) if p else Fraction(0),
                     eps * _rand_frac(rng, 1, 9))
            params = (p, Z)
        elif kind == "boundary_at":
            p = rng.randrange(d)
            params = (p, _random_gamma(rng, p))
        elif kind == "boundary_heart":
            while True:
                p = rng.randrange(d)
                gamma = _random_gamma(rng, p)
                if _wall_target(p, gamma, d) is not None:
                    break
            params = (p, gamma)
        else:
            k = rng.randint(1, 4)
            n = escapes.pop()
            gm = Fraction((_escape_phase(k, n - 1) + _escape_phase(k, n)) / 2)
            params = (k, n, gm)
        deck.append((kind, params))
    return deck


def _auto(spec):
    from stabtorus import cover, linalg

    m, w = spec
    return cover.LiftedAuto(linalg.Matrix2(*m), w)


def run_query(kind, params, ctx: PointContext):
    from stabtorus import charges, cover, stability, walls

    d = ctx.d
    if kind == "roundtrip":
        p, m, w = params
        moved = stability.act(_auto((m, w)), stability.make_std(p, d))
        return stability.classify(moved.charge(), moved.phi_sky(), moved.psi_line(), d)
    if kind == "gl_assoc":
        s1, s2, s3, phi = params
        g1, g2, g3 = _auto(s1), _auto(s2), _auto(s3)
        left = cover.gl_compose(cover.gl_compose(g1, g2), g3)
        right = cover.gl_compose(g1, cover.gl_compose(g2, g3))
        chained = cover.lift_eval(g1, cover.lift_eval(g2, cover.lift_eval(g3, phi)))
        return (left, right, cover.lift_eval(left, phi), chained)
    if kind == "gl_inverse":
        spec, phi = params
        g = _auto(spec)
        inv = cover.gl_inverse(g)
        return (inv, cover.gl_compose(g, inv), cover.lift_eval(inv, cover.lift_eval(g, phi)))
    if kind == "hn":
        p, spec, idx = params
        sigma = stability.act(_auto(spec), stability.make_std(p, d))
        return (sigma, stability.hn_filtration(sigma, ctx.hn_pool[p][idx], d))
    if kind == "stab_gate":
        p, Z = params
        return charges.is_stability_function(charges.CentralCharge(*Z), p, d)
    if kind == "boundary_at":
        return walls.boundary_at(params[0], params[1], d)
    if kind == "boundary_heart":
        return walls.boundary_heart(params[0], params[1], d)
    k, _, gm = params
    return walls.twist_escape(
        charges.KClass(1, -k), charges.KClass(1, 0), gm, charges.std_charge(0)
    )


def _rows(m):
    return ((Fraction(m[0]), Fraction(m[1])), (Fraction(m[2]), Fraction(m[3])))


def _matmul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def _near_int(x) -> bool:
    return abs(x - round(x)) <= 1e-9


def _class_of(E):
    rk = chd = 0
    for i, S in E.graded:
        r, c = _sheaf_class(S)
        sign = 1 if i % 2 == 0 else -1
        rk += sign * r
        chd += sign * c
    return (rk, chd)


def _sheaf_class(S):
    kind = type(S).__name__
    if kind == "Torsion":
        return (0, sum(length for _, length in S.points))
    if kind == "LocallyFree":
        return (S.rank, 0)
    if kind == "TorsionFree":
        return (S.rank, -S.colength)
    t, f = _sheaf_class(S.torsion), _sheaf_class(S.free)
    return (t[0] + f[0], t[1] + f[1])


def _in_upper_half(re, im) -> bool:
    return im > 0 or (im == 0 and re < 0)


def _effective(p, rk, chd) -> bool:
    if rk == 0:
        return chd >= 1
    if p == 0:
        return rk >= 1
    return rk * (-1) ** p >= 1 and chd >= 0


def _charge_value(Z, rk, chd):
    a, b, c, e = Z
    return (a * -chd + b * rk, c * -chd + e * rk)


def check_query(kind, params, answer, ctx: PointContext):
    """(ok, digest text) for one answer; the digest feeds the traced-versus-
    untraced comparison."""
    from stabtorus import hearts

    d = ctx.d
    if kind == "roundtrip":
        p, m, w = params
        ok = (type(answer.label).__name__ == "StdLabel" and answer.label.p == p
              and answer.g.T.rows() == _rows(m) and answer.g.winding == w)
        return ok, repr((answer.label, answer.g.T.rows(), answer.g.winding))
    if kind == "gl_assoc":
        (m1, _), (m2, _), (m3, _), phi = params
        left, right, v_left, v_chain = answer
        ok = (left.T.rows() == right.T.rows() == _matmul(_matmul(_rows(m1), _rows(m2)), _rows(m3))
              and left.winding == right.winding
              and abs(float(v_left) - float(v_chain)) <= 1e-9)
        return ok, repr((left.T.rows(), left.winding, float(v_left)))
    if kind == "gl_inverse":
        (m, _), phi = params
        inv, round_trip, back = answer
        ok = (_matmul(_rows(m), inv.T.rows()) == _rows((1, 0, 0, 1))
              and round_trip.T.rows() == _rows((1, 0, 0, 1)) and round_trip.winding == 0
              and abs(float(back) - float(phi)) <= 1e-9)
        return ok, repr((inv.T.rows(), inv.winding, float(back)))
    if kind == "hn":
        p, _, idx = params
        sigma, factors = answer
        Z = sigma.charge()
        frame = (Z.a, Z.b, Z.c, Z.e)
        total = (sum(f.kclass.rk for f in factors), sum(f.kclass.chd for f in factors))
        phases = [float(f.phase) for f in factors]
        ok = total == _class_of(ctx.hn_pool[p][idx]) and bool(factors)
        ok = ok and all(a > b for a, b in zip(phases, phases[1:]))
        for f, phase in zip(factors, phases):
            re, im = _charge_value(frame, f.kclass.rk, f.kclass.chd)
            theta = math.atan2(float(im), float(re)) / math.pi
            ok = ok and _near_int((phase - theta) / 2)
        return ok, repr([(f.kclass.rk, f.kclass.chd, phase) for f, phase in zip(factors, phases)])
    if kind == "stab_gate":
        p, Z = params
        accepted, witness = answer
        if accepted:
            probes = [(0, t) for t in (1, 2, 3)] + [
                (r * (1 if p == 0 else (-1) ** p), m)
                for r in (1, 2, 3) for m in range(-6 if p == 0 else 0, 7)
            ]
            ok = witness is None and all(_in_upper_half(*_charge_value(Z, *v)) for v in probes)
        else:
            ok = (witness is not None and _effective(p, witness.rk, witness.chd)
                  and not _in_upper_half(*_charge_value(Z, witness.rk, witness.chd)))
        return ok, repr(answer)
    if kind == "boundary_at":
        p, gamma = params
        want = _wall_target(p, gamma, d)
        if want is None:
            ok = answer.target is None and answer.reason == "twist-escape"
        else:
            ok = answer.target is not None and (answer.target.p, answer.target.gamma) == want
        return ok, repr(answer)
    if kind == "boundary_heart":
        p, gamma = params
        q = _wall_target(p, gamma, d)[0]
        seen = [bool(answer.contains(E)) for E in ctx.probes[q]]
        want = [hearts.heart_membership(E, q, d) for E in ctx.probes[q]]
        return seen == want, repr(seen)
    k, n, gm = params
    crossed = _escape_phase(k, answer) > gm
    before = answer == 1 or _escape_phase(k, answer - 1) <= gm
    return answer == n and crossed and before, repr(answer)


def _stream(rng, ctx):
    while True:
        yield from make_deck(rng, ctx)


def run_queries(ctx, seed: str, tracer=None, deadline_ns=None, count=None, on_ready=None):
    """Closed loop, one query at a time, until the deadline or the count.

    Only the library call is timed; deck generation and checks run between
    timed regions with the tracer switched off. A query that raises counts
    as failed and the stream goes on.
    """
    now = time.perf_counter_ns
    rng = random.Random(seed)
    latencies = array("q")
    failed = 0
    digest = hashlib.sha256()
    failures = []
    kinds = {}
    if on_ready is not None:
        on_ready()
    done = 0
    for kind, params in _stream(rng, ctx):
        if count is not None and done >= count:
            break
        if deadline_ns is not None and now() >= deadline_ns:
            break
        if tracer is not None:
            tracer.active = True
            token = tracer.begin(f"bench.{kind}", done)
        t0 = now()
        try:
            answer = run_query(kind, params, ctx)
            error = None
        except Exception as exc:  # a failed operation, counted below
            answer, error = None, f"{type(exc).__name__}: {exc}"
        t1 = now()
        if tracer is not None:
            tracer.end(token)
            tracer.active = False
        latencies.append(t1 - t0)
        kinds[kind] = kinds.get(kind, 0) + 1
        if error is None:
            try:
                ok, text = check_query(kind, params, answer, ctx)
            except Exception as exc:
                ok, text = False, f"check raised {type(exc).__name__}: {exc}"
        else:
            ok, text = False, error
        digest.update(f"{kind}:{text}\n".encode())
        if not ok:
            failed += 1
            if len(failures) < 5:
                failures.append(f"{kind} {params!r}: {text}")
        done += 1
    return {
        "ops": done,
        "failed": failed,
        "elapsed_ns": sum(latencies),
        "latencies_ns": latencies,
        "digest": digest.hexdigest(),
        "kinds": kinds,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# cli-cold: one stabtorus invocation at a time, from a committed pool

CLI_POOL = HERE / "cli_pool.json"


def load_cli_pool():
    with open(CLI_POOL, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def cli_sequence(entries, rng):
    """The pool in a seeded order; an entry's steps stay together in order."""
    order = list(range(len(entries)))
    rng.shuffle(order)
    return [entries[i] for i in order]


CLI_SCRIPT = "import sys; from stabtorus.cli import main; sys.exit(main())"


def cli_command(argv):
    """What the installed ``stabtorus`` console script runs."""
    return [sys.executable, "-c", CLI_SCRIPT, *argv]


def fill_argv(argv, outputs):
    """Replace ``{out:N}`` by the stripped stdout of step N of the entry."""
    filled = []
    for a in argv:
        for n, text in enumerate(outputs):
            a = a.replace("{out:%d}" % n, text.strip())
        filled.append(a)
    return filled


def check_invocation(step, code, stdout, stderr):
    """(ok, reason). Valid calls must exit 0 with the golden stdout; malformed
    ones must exit 1 (usage) or 2 (domain error with a JSON envelope on
    stderr), never with a traceback."""
    if step["expect"] == "ok":
        if code != 0:
            return False, f"exit {code}"
        if stdout != step["stdout"]:
            return False, "stdout differs from the golden output"
        return True, ""
    if "Traceback" in stderr:
        return False, f"exit {code} with a traceback"
    if code == 1:
        return ("error" in stderr), "exit 1 without an error message"
    if code == 2:
        try:
            env = json.loads(stderr.strip().splitlines()[-1])
            ok = set(env["error"]) == {"name", "message"}
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        return ok, "exit 2 without an error envelope"
    return False, f"exit {code} for a malformed call"
