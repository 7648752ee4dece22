"""Acceptance gate: the ten package-level checks, one test (and one
pass/fail line under pytest -v) per criterion.

These are intentionally redundant with the per-module tests; they pin the
headline behaviors at the stated scales and tolerances.
"""

import random
import time
from fractions import Fraction

from stabtorus.charges import (
    CentralCharge,
    KClass,
    charge_eval,
    deg_charge,
    is_stability_function,
    std_charge,
)
from stabtorus.cover import LiftedAuto, gl_compose, gl_inverse, lift_eval
from stabtorus.exactnum import phase_mod1
from stabtorus.hearts import (
    StandardHeart,
    chain_stabilizes,
    heart_membership,
    hearts_agree_on,
    iterated_heart,
)
from stabtorus.linalg import Matrix2
from stabtorus.presentations import pi1
from stabtorus.sheaves import (
    LocallyFree,
    Torsion,
    class_of,
    enumerate_objects,
    formal_object,
    make_torsion,
    make_torsion_free,
    object_mass,
    sheaf_at,
)
from stabtorus.stability import (
    DegLabel,
    StdLabel,
    act,
    classify,
    heart_phase,
    is_stable_in_model,
    make_std,
)
from stabtorus.walls import (
    boundary_at,
    boundary_heart,
    fiber_types,
    orbit_complex,
    twist_escape,
    wall_only_complex,
)

HALF = Fraction(1, 2)


def random_auto(rng, lo=-5, hi=5, windings=(-2, -1, 0, 1, 2)):
    while True:
        m = Matrix2(*(Fraction(rng.randint(lo, hi)) for _ in range(4)))
        if m.det() > 0:
            return LiftedAuto(m, rng.choice(windings))


def test_criterion_01_classification_round_trip():
    rng = random.Random(10)
    started = time.perf_counter()
    checked = 0
    for d in (3, 4, 5, 6):
        for p in range(d):
            base = make_std(p, d)
            for _ in range(100):
                G = random_auto(rng)
                moved = act(G, base)
                sigma = classify(
                    moved.charge(), moved.phi_sky(), moved.psi_line(), d
                )
                assert sigma.label == StdLabel(p)
                assert sigma.g.winding == G.winding
                err = max(
                    abs(float(x - y))
                    for rx, ry in zip(sigma.g.T.rows(), G.T.rows())
                    for x, y in zip(rx, ry)
                )
                assert err <= 1e-9
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"round-trip sweep took {elapsed:.1f}s"
    print(f"criterion 1: PASS ({checked} round trips in {elapsed:.1f}s)")


def test_criterion_02_interior_stable_set_is_sky_and_shifted_line():
    def is_skyscraper(E):
        pieces = list(E.graded)
        if len(pieces) != 1 or pieces[0][0] != 0:
            return False
        S = pieces[0][1]
        return isinstance(S, Torsion) and S.total_length() == 1

    def is_shifted_line(E, p):
        pieces = list(E.graded)
        if len(pieces) != 1 or pieces[0][0] != -p:
            return False
        S = pieces[0][1]
        return isinstance(S, LocallyFree) and S.rank == 1

    surveyed = 0
    for d in (4, 5):
        for p in range(1, d - 1):
            stable_phases = set()
            saw_sky = saw_line = False
            for E in enumerate_objects(6, range(-p, 1), d):
                if not heart_membership(E, p, d):
                    continue
                surveyed += 1
                stable = is_stable_in_model(E, p, d)
                expected = is_skyscraper(E) or is_shifted_line(E, p)
                assert stable == expected, (d, p, E)
                if stable:
                    stable_phases.add(heart_phase(class_of(E), p))
                    saw_sky = saw_sky or is_skyscraper(E)
                    saw_line = saw_line or is_shifted_line(E, p)
            assert saw_sky and saw_line
            assert stable_phases == {1, HALF}
    print(f"criterion 2: PASS ({surveyed} heart objects surveyed)")


def test_criterion_03_tilt_chains_equal_direct_hearts():
    started = time.perf_counter()
    mismatches = 0
    total = 0
    for d in (3, 4, 5, 6):
        chains = [iterated_heart(p, d) for p in range(d)]
        for E in enumerate_objects(6, range(-(d - 1), 1), d):
            total += 1
            for p in range(d):
                if chains[p].contains(E) != heart_membership(E, p, d):
                    mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - started
    print(f"criterion 3: PASS ({total} objects x all hearts, 0 mismatches, {elapsed:.1f}s)")


def test_criterion_04_stability_function_gate():
    rng = random.Random(11)
    rejected = 0
    for _ in range(1000):
        c = Fraction(0)
        while c == 0:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        Z = CentralCharge(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            c,
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        )
        ok, witness = is_stability_function(Z, 0)
        assert not ok and witness is not None
        rejected += 1
    for d in range(3, 8):
        for p in range(d):
            ok, _ = is_stability_function(std_charge(p), p, d)
            assert ok
        for p in range(1, d):
            for gamma in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
                ok, _ = is_stability_function(deg_charge(p, gamma), p, d)
                assert ok
    print(f"criterion 4: PASS ({rejected} rejections, all accepts)")


def _expected_wall(p, gamma, d):
    """Wall target for the phase gap at gamma, None for a twist escape."""
    low = gamma < HALF
    if p == 0:
        return None if low else DegLabel(1, 1 - gamma)
    if p == d - 1:
        return DegLabel(d - 1, gamma) if low else None
    return DegLabel(p, gamma) if low else DegLabel(p + 1, 1 - gamma)


def test_criterion_05_wall_decision_table():
    started = time.perf_counter()
    gammas = [Fraction(s) for s in ("1/10", "3/10", "49/100", "51/100", "7/10", "9/10")]
    cells = walls = 0
    for d in range(3, 8):
        check_mass = 4 if d <= 5 else 3
        for p in range(d):
            for gamma in gammas:
                decision = boundary_at(p, gamma, d)
                target = _expected_wall(p, gamma, d)
                cells += 1
                if target is None:
                    assert not decision.is_wall
                    assert decision.reason == "twist-escape"
                    continue
                assert decision.is_wall and decision.target == target
                walls += 1
                q = target.p
                window = range(-min(q + 1, d - 1), 1)
                witness = hearts_agree_on(
                    boundary_heart(p, gamma, d),
                    StandardHeart(q, d),
                    enumerate_objects(check_mass, window, d),
                )
                assert witness is None, (d, p, gamma, witness)
    elapsed = time.perf_counter() - started
    print(f"criterion 5: PASS ({cells} table cells, {walls} wall-heart checks, {elapsed:.1f}s)")


def test_criterion_06_trivial_fundamental_group():
    started = time.perf_counter()
    for d in range(3, 8):
        group = pi1(orbit_complex(d))
        assert group.name == "trivial"
        assert len(group.generators) == d - 1
        assert len(group.relations) == d - 1
    lone = pi1(wall_only_complex())
    assert lone.name == "infinite-cyclic" and lone.free_rank == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"pi1 sweep took {elapsed:.2f}s"
    print(f"criterion 6: PASS (d in 3..7 trivial, wall-only Z, {elapsed:.2f}s)")


def test_criterion_07_fibers_witness_non_covering():
    for d in range(3, 8):
        over_std = fiber_types(std_charge(0), d)
        over_deg = fiber_types(CentralCharge(1, 1, 0, 0), d)
        std_structures = {f.structure for f in over_std}
        deg_structures = {f.structure for f in over_deg}
        assert std_structures == {"countable"}
        assert deg_structures == {"positive-dimensional"}
        assert std_structures.isdisjoint(deg_structures)
    print("criterion 7: PASS (countable vs positive-dimensional, d in 3..7)")


def test_criterion_08_group_law_suite():
    rng = random.Random(12)
    probes = [Fraction(k, 7) for k in range(-10, 11)]
    for _ in range(1000):
        g1, g2, g3 = (random_auto(rng) for _ in range(3))
        left = gl_compose(gl_compose(g1, g2), g3)
        right = gl_compose(g1, gl_compose(g2, g3))
        assert left.T == right.T and left.winding == right.winding
        phi = rng.choice(probes)
        assert abs(
            float(lift_eval(left, phi)) - float(lift_eval(g1, lift_eval(g2, lift_eval(g3, phi))))
        ) <= 1e-10
        inv = gl_inverse(g1)
        round_trip = gl_compose(g1, inv)
        assert round_trip.T == Matrix2(1, 0, 0, 1)
        assert round_trip.winding == 0
        assert abs(float(lift_eval(inv, lift_eval(g1, phi))) - float(phi)) <= 1e-10
        lo = rng.choice(probes)
        hi = lo + Fraction(rng.randint(1, 5), 9)
        assert float(lift_eval(g1, lo)) < float(lift_eval(g1, hi)) + 1e-10
        assert float(lift_eval(g1, lo)) != float(lift_eval(g1, hi))
    print("criterion 8: PASS (1000 associativity/inverse/monotonicity checks)")


def _random_descending_chain(rng):
    d = rng.randint(3, 6)
    p = rng.randint(1, d - 1)
    r = rng.randint(0, 3)
    q = rng.randint(0, 4) if (p == 1 and r > 0) else 0
    t = rng.randint(0 if r else 1, 5)
    while r + q + t > 12:
        t = max(0 if r else 1, t - 1)

    def entry(qq, tt):
        graded = {}
        if r:
            graded[-p] = make_torsion_free(r, qq)
        if tt:
            graded[0] = make_torsion((("y", tt),))
        return formal_object(graded)

    chain = [entry(q, t)]
    while q + t > 0 and rng.random() < 0.8:
        drop = rng.randint(1, q + t)
        take_q = min(q, rng.randint(0, drop))
        if drop - take_q > t:
            take_q = drop - t
        q, t = q - take_q, t - (drop - take_q)
        if r == 0 and t == 0:
            break
        chain.append(entry(q, t))
    chain.append(chain[-1])
    return chain, p, d


def test_criterion_09_descending_chains_stabilize():
    rng = random.Random(13)
    for _ in range(500):
        chain, p, d = _random_descending_chain(rng)
        n = chain_stabilizes(chain, p, d)
        assert n <= object_mass(chain[0])
        assert n == len(chain) - 2
    print("criterion 9: PASS (500 chains, all stabilize within mass steps)")


def test_criterion_10_twist_escape_terminates():
    assert twist_escape(KClass(1, -1), KClass(1, 0), Fraction(2, 5), std_charge(0)) == 3
    rng = random.Random(14)
    accepted = 0
    while accepted < 200:
        Z = CentralCharge(1, rng.randint(-2, 2), 0, rng.randint(1, 3))
        ideal = KClass(1, -rng.randint(1, 6))
        twist = KClass(rng.randint(1, 3), rng.randint(-3, 3))
        limit = float(phase_mod1(*charge_eval(Z, twist)))
        gm = Fraction(rng.randint(1, 599), 1000) * Fraction(round(limit * 1000), 1000)
        if not 0 < float(gm) < limit:
            continue
        n = twist_escape(ideal, twist, gm, Z)
        assert 1 <= n <= 10 ** 6
        hit = KClass(ideal.rk + n * twist.rk, ideal.chd + n * twist.chd)
        assert float(phase_mod1(*charge_eval(Z, hit))) > float(gm)
        if n > 1:
            prev = KClass(ideal.rk + (n - 1) * twist.rk, ideal.chd + (n - 1) * twist.chd)
            re, im = charge_eval(Z, prev)
            if (re, im) != (0, 0):
                assert float(phase_mod1(re, im)) <= float(gm)
        accepted += 1
    print("criterion 10: PASS (worked example n=3 and 200 random escapes)")
