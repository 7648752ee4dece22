"""Finite combinatorial stand-in for coherent sheaves on a generic torus.

Because the torus is generic there are no curves or divisors: a coherent
sheaf is determined, for our purposes, by a zero-dimensional torsion part
(finitely many points with lengths), a locally free hull, and a colength
measuring how far the torsion-free part is from its hull. Everything is
integers, so enumeration by total mass is finite and exact.

Point identifiers are opaque strings; isomorphism never depends on them,
only on the multiset of lengths, which is what ``canonical_form`` computes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .charges import KClass, ZERO_CLASS, check_dimension, check_index, is_int
from .errors import DomainError, InconsistentMorphism


# ---------------------------------------------------------------------------
# sheaves


@dataclass(frozen=True)
class Torsion:
    """Zero-dimensional sheaf: finitely many points with positive lengths."""

    points: tuple

    json_kind = "torsion"

    def __post_init__(self):
        merged: dict = {}
        for entry in self.points:
            try:
                pid, length = entry
            except (TypeError, ValueError):
                raise DomainError(f"a point is an (id, length) pair, got {entry!r}") from None
            if not isinstance(pid, str) or not pid:
                raise DomainError(f"point id must be a nonempty string, got {pid!r}")
            check_index(length, "point length must be an integer >= 1, got {p!r}", lo=1)
            merged[pid] = merged.get(pid, 0) + length
        if not merged:
            raise DomainError("a torsion sheaf needs at least one point")
        object.__setattr__(self, "points", tuple(sorted(merged.items())))

    def total_length(self) -> int:
        return sum(l for _, l in self.points)


@dataclass(frozen=True)
class LocallyFree:
    """Semihomogeneous locally free sheaf of the given rank, degree zero."""

    rank: int

    json_kind = "locally_free"

    def __post_init__(self):
        check_index(self.rank, "rank must be an integer >= 1, got {p!r}", lo=1)


@dataclass(frozen=True)
class TorsionFree:
    """Torsion-free non-locally-free sheaf: rank, colength of the hull quotient.

    ``hn`` optionally declares the filtration steps of the sheaf seen from the
    standard point with heart index 0: a tuple of (KClass, stable_flag) pairs
    with strictly decreasing phases in (0, 1/2] summing to the sheaf class.
    """

    rank: int
    colength: int
    hn: tuple | None = None

    json_kind = "torsion_free"

    def __post_init__(self):
        check_index(self.rank, "rank must be an integer >= 1, got {p!r}", lo=1)
        check_index(self.colength, "colength must be an integer >= 1, got {p!r}", lo=1)
        if self.hn is not None:
            try:
                given = iter(self.hn)
            except TypeError:
                raise DomainError(
                    f"a declared filtration must be iterable, got {self.hn!r}"
                ) from None
            steps = []
            total = ZERO_CLASS
            prev = None
            for step in given:
                try:
                    cls, stable = step
                except (TypeError, ValueError):
                    cls = stable = None
                if not isinstance(cls, KClass) or not isinstance(stable, bool):
                    raise DomainError(
                        f"a declared filtration step must be a (KClass, bool) pair, got {step!r}")
                steps.append((cls, stable))
                if cls.rk < 1:
                    raise DomainError("declared filtration steps must have rank >= 1")
                if cls.chd > 0:
                    raise DomainError("declared filtration steps must have chd <= 0")
                if prev is not None:
                    # phases of (rk, chd) under the index-0 charge compare by
                    # the cross product of the vectors (-chd, rk); strictly
                    # decreasing phase means the next vector sits clockwise
                    cross = (-prev.chd) * cls.rk - prev.rk * (-cls.chd)
                    if cross >= 0:
                        raise DomainError("declared filtration phases must strictly decrease")
                prev = cls
                total = total + cls
            if total != KClass(self.rank, -self.colength):
                raise DomainError("declared filtration does not sum to the sheaf class")
            object.__setattr__(self, "hn", tuple(steps))


@dataclass(frozen=True)
class Mixed:
    """Direct sum of a torsion part and a positive-rank part."""

    torsion: Torsion
    free: object

    json_kind = "mixed"

    def __post_init__(self):
        if not isinstance(self.torsion, Torsion):
            raise DomainError("mixed sheaf needs a Torsion first component")
        if not isinstance(self.free, (LocallyFree, TorsionFree)):
            raise DomainError("mixed sheaf needs a positive-rank second component")


def make_torsion(points) -> Torsion:
    return Torsion(tuple(points))


def skyscraper(pid: str = "y", length: int = 1) -> Torsion:
    return Torsion(((pid, length),))


def make_locally_free(rank: int) -> LocallyFree:
    return LocallyFree(rank)


def make_torsion_free(rank: int, colength: int, hn=None):
    """Torsion-free sheaf; colength 0 collapses to the locally free hull."""
    if colength == 0:
        if hn is not None:
            raise DomainError("a locally free sheaf carries no filtration data")
        return LocallyFree(rank)
    return TorsionFree(rank, colength, hn)


def make_mixed(torsion: Torsion | None, free) -> object:
    if torsion is None:
        if free is None:
            raise DomainError("empty sheaf; use no atom instead")
        return free
    if free is None:
        return torsion
    return Mixed(torsion, free)


def torsion_part(S) -> Torsion | None:
    if isinstance(S, Torsion):
        return S
    if isinstance(S, Mixed):
        return S.torsion
    return None


def positive_rank_part(S):
    if isinstance(S, (LocallyFree, TorsionFree)):
        return S
    if isinstance(S, Mixed):
        return S.free
    return None


def hull_rank(S) -> int:
    F = positive_rank_part(S)
    return 0 if F is None else F.rank


def hull_defect_length(S) -> int:
    """Colength of the torsion-free part inside its locally free hull."""
    F = positive_rank_part(S)
    if isinstance(F, TorsionFree):
        return F.colength
    return 0


def _torsion_length(S) -> int:
    if not isinstance(S, _SHEAF_KINDS):
        raise DomainError(f"not a sheaf: {S!r}")
    t = torsion_part(S)
    return 0 if t is None else t.total_length()


def sheaf_class(S) -> KClass:
    return KClass(hull_rank(S), _torsion_length(S) - hull_defect_length(S))


def sheaf_mass(S) -> int:
    """Rank plus colength plus torsion length; the enumeration weight."""
    return _torsion_length(S) + hull_rank(S) + hull_defect_length(S)


def sheaf_sum(S1, S2):
    """Direct sum in the model; None acts as the zero sheaf."""
    if S1 is None:
        return S2
    if S2 is None:
        return S1
    t1, t2 = torsion_part(S1), torsion_part(S2)
    f1, f2 = positive_rank_part(S1), positive_rank_part(S2)
    t = _torsion_sum(t1, t2)
    f = _free_sum(f1, f2)
    return make_mixed(t, f)


def _torsion_sum(t1, t2):
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    return Torsion(t1.points + t2.points)


def _free_sum(f1, f2):
    if f1 is None:
        return f2
    if f2 is None:
        return f1
    rank = f1.rank + f2.rank
    q = hull_defect_length(f1) + hull_defect_length(f2)
    # summing forgets declared filtrations; callers redeclare when needed
    return make_torsion_free(rank, q)


# ---------------------------------------------------------------------------
# formal objects


_SHEAF_KINDS = (Torsion, LocallyFree, TorsionFree, Mixed)


@dataclass(frozen=True)
class FormalObject:
    """Formal direct sum of sheaf atoms placed in cohomological degrees.

    ``graded`` holds (degree, sheaf) pairs and ``nonsplit`` the adjacent degree
    pairs whose extension is declared nontrivial, the others being split. Every
    build is checked once and stored in normal form: tuples, degrees strictly
    increasing, flags sorted. The zero object is the empty graded tuple.
    """

    graded: tuple = ()
    nonsplit: tuple = ()

    json_kind = "object"  # written by jsonio.encode_object, with no "kind" key

    def __post_init__(self):
        normal, last = type(self.graded) is tuple, None  # normal form needs only this loop
        for atom in self.graded if normal else ():
            if not (type(atom) is tuple and len(atom) == 2 and type(atom[0]) is int
                    and (last is None or atom[0] > last) and isinstance(atom[1], _SHEAF_KINDS)):
                normal = False
                break
            last = atom[0]
        if not normal:
            try:
                atoms = [(i, S) for i, S in self.graded]
            except (TypeError, ValueError):
                raise DomainError(
                    f"graded data is (degree, sheaf) pairs: {self.graded!r}") from None
            for i, _ in atoms:
                if not is_int(i):
                    raise DomainError(f"a degree must be an integer, got {i!r}")
            if len({i for i, _ in atoms}) != len(atoms):
                raise DomainError("duplicate degree in graded data")
            atoms.sort(key=lambda atom: atom[0])  # sheaves have no order
            for _, S in atoms:
                if not isinstance(S, _SHEAF_KINDS):
                    raise DomainError(f"not a sheaf: {S!r}")
            object.__setattr__(self, "graded", tuple(atoms))
        if self.nonsplit != ():
            adj = {(a[0], b[0]) for a, b in zip(self.graded, self.graded[1:])}
            flags = set()
            for entry in self.nonsplit:
                try:
                    i, j = entry
                except (TypeError, ValueError):
                    i = j = None
                if not (is_int(i) and is_int(j)):
                    raise DomainError(f"a flag is a pair of degrees, got {entry!r}")
                if (i, j) not in adj:
                    raise DomainError(f"flag on non-adjacent degrees ({i}, {j})")
                flags.add((i, j))
            object.__setattr__(self, "nonsplit", tuple(sorted(flags)))

    def degrees(self) -> tuple:
        return tuple(i for i, _ in self.graded)

    def component(self, i: int):
        for j, S in self.graded:
            if j == i:
                return S
        return None

    def is_zero(self) -> bool:
        return not self.graded

    def flag(self, i: int, j: int) -> str:
        return "nonsplit" if (i, j) in self.nonsplit else "split"


ZERO_OBJECT = FormalObject()


def formal_object(graded, nonsplit=()) -> FormalObject:
    """Build a FormalObject from a {degree: sheaf} mapping or pair iterable."""
    if isinstance(graded, dict):
        graded = tuple(graded.items())
    return FormalObject(tuple(graded), tuple(nonsplit))


def sheaf_at(degree: int, S) -> FormalObject:
    return FormalObject(((degree, S),))


def class_of(E: FormalObject) -> KClass:
    total = ZERO_CLASS
    for i, S in E.graded:
        c = sheaf_class(S)
        total = total + (c if i % 2 == 0 else -c)
    return total


def object_mass(E: FormalObject) -> int:
    return sum(sheaf_mass(S) for _, S in E.graded)


def object_shift(E: FormalObject, k: int) -> FormalObject:
    """E[k]: the atom in degree i moves to degree i - k."""
    check_index(k, "a shift must be an integer, got {p!r}", lo=None)
    return FormalObject(
        tuple((i - k, S) for i, S in E.graded),
        tuple((i - k, j - k) for i, j in E.nonsplit),
    )


def object_sum(E1: FormalObject, E2: FormalObject) -> FormalObject:
    """Degreewise direct sum; declared nonsplit flags survive when their
    degree pair is still adjacent in the sum."""
    graded: dict = {}
    for i, S in E1.graded + E2.graded:
        graded[i] = sheaf_sum(graded.get(i), S)
    degrees = sorted(graded)
    adj = set(zip(degrees, degrees[1:]))
    flags = {fl for fl in E1.nonsplit + E2.nonsplit if fl in adj}
    return FormalObject(tuple(graded.items()), tuple(flags))


def object_is_legal(E: FormalObject, d: int):
    """Check the declared nonsplit extensions against the dimension d.

    A nonsplit extension across degrees (i, j) has span n = j - i + 1. It is
    never possible for n > d. When the upper atom is pure torsion and the
    lower atom is locally free it needs n = d exactly; every other kind pair
    admits nontrivial extensions for n <= d. Returns (ok, reason).
    """
    check_dimension(d)
    for i, j in E.nonsplit:
        fault = _flag_fault(E.component(i), E.component(j), i, j, d)
        if fault is not None:
            return (False, fault)
    return (True, None)


def _flag_fault(lower, upper, i: int, j: int, d: int):
    """Why a nonsplit extension of the atom ``upper`` in degree j by ``lower``
    in degree i is impossible on a d-torus, None when it is possible."""
    n = j - i + 1
    if n > d:
        return f"span {n} across ({i}, {j}) exceeds d = {d}"
    if isinstance(upper, Torsion) and isinstance(lower, LocallyFree) and n != d:
        return f"torsion over locally free across ({i}, {j}) needs span exactly d = {d}"
    return None


def canonical_form(E: FormalObject) -> FormalObject:
    """Relabel point ids by a deterministic rule; equal canonical forms
    characterize isomorphism in the model."""
    profiles: dict = {}
    for i, S in E.graded:
        t = torsion_part(S)
        if t is not None:
            for pid, length in t.points:
                profiles.setdefault(pid, []).append((i, length))
    order = sorted(profiles, key=lambda pid: sorted(profiles[pid]))
    rename = {pid: f"x{k}" for k, pid in enumerate(order)}
    graded = []
    for i, S in E.graded:
        t = torsion_part(S)
        f = positive_rank_part(S)
        if t is not None:
            t = Torsion(tuple((rename[pid], l) for pid, l in t.points))
        graded.append((i, make_mixed(t, f)))
    return FormalObject(tuple(graded), E.nonsplit)


def objects_isomorphic(E1: FormalObject, E2: FormalObject) -> bool:
    return canonical_form(E1) == canonical_form(E2)


# ---------------------------------------------------------------------------
# morphisms between torsion sheaves

@dataclass(frozen=True)
class TorsionMorphism:
    """Map of torsion sheaves recorded per point as (kernel, cokernel) lengths.

    ``action`` holds triples (point_id, kernel_length, cokernel_length);
    points of the source or target missing from the action are understood to
    be hit by the zero map there.
    """

    source: Torsion
    target: Torsion
    action: tuple = ()


def identity_torsion_morphism(T: Torsion) -> TorsionMorphism:
    return TorsionMorphism(T, T, tuple((pid, 0, 0) for pid, _ in T.points))


def zero_torsion_morphism(S: Torsion, T: Torsion) -> TorsionMorphism:
    return TorsionMorphism(S, T, ())


def torsion_kernel_cokernel(f: TorsionMorphism, p: int):
    """Kernel and cokernel of a torsion morphism inside the heart p.

    All the standard hearts contain the torsion sheaves as a full abelian
    subcategory closed under kernels and cokernels, so the answer does not
    depend on p; the argument is validated and otherwise ignored. Returns
    (kernel, cokernel) as Torsion sheaves or None for zero. Raises
    InconsistentMorphism when the per-point data violates rank bookkeeping.
    """
    check_index(p, "heart index must be a nonnegative integer, got {p!r}")
    src = dict(f.source.points)
    tgt = dict(f.target.points)
    seen = set()
    given = {}
    for entry in f.action:
        try:
            pid, k, c = entry
        except (TypeError, ValueError):
            raise DomainError(f"not a (point, kernel, cokernel) triple: {entry!r}") from None
        if not isinstance(pid, str) or not pid:
            raise DomainError(f"point id must be a nonempty string, got {pid!r}")
        check_index(k, "kernel length must be an integer, got {p!r}", lo=None)
        check_index(c, "cokernel length must be an integer, got {p!r}", lo=None)
        if pid in seen:
            raise InconsistentMorphism(f"duplicate action entry for point {pid!r}")
        seen.add(pid)
        given[pid] = (k, c)
    ker = []
    coker = []
    for pid in sorted(set(src) | set(tgt) | set(given)):
        s = src.get(pid, 0)
        t = tgt.get(pid, 0)
        k, c = given.get(pid, (s, t))
        if not (0 <= k <= s) or not (0 <= c <= t):
            raise InconsistentMorphism(f"kernel or cokernel length out of range at {pid!r}")
        if s - k != t - c:
            raise InconsistentMorphism(
                f"rank bookkeeping fails at {pid!r}: {s}-{k} != {t}-{c}"
            )
        if k > 0:
            ker.append((pid, k))
        if c > 0:
            coker.append((pid, c))
    return (
        Torsion(tuple(ker)) if ker else None,
        Torsion(tuple(coker)) if coker else None,
    )


# ---------------------------------------------------------------------------
# enumeration

def _partitions(m: int):
    """Integer partitions of m as weakly decreasing tuples."""
    def rec(rest, largest):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    yield from rec(m, m)


def enumerate_torsion_sheaves(mass: int):
    for lam in _partitions(mass):
        if lam:
            yield Torsion(tuple((f"x{k}", l) for k, l in enumerate(lam)))


def enumerate_positive_rank_sheaves(mass: int):
    for rank in range(1, mass + 1):
        q = mass - rank
        yield make_torsion_free(rank, q)


def enumerate_sheaves(mass: int):
    """All model sheaves of the given mass, canonical point ids, no
    declared filtrations."""
    check_index(mass, "a mass must be an integer, got {p!r}", lo=None)
    if mass < 1:
        return
    yield from enumerate_torsion_sheaves(mass)
    yield from enumerate_positive_rank_sheaves(mass)
    for t_mass in range(1, mass):
        for t in enumerate_torsion_sheaves(t_mass):
            for f in enumerate_positive_rank_sheaves(mass - t_mass):
                yield Mixed(t, f)


def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers with the given sum, in
    lexicographic order: the gaps between parts - 1 cuts of 0..total."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def enumerate_objects(max_mass: int, degrees, d: int):
    """All legal formal objects of mass 1..max_mass supported on ``degrees``.

    Each choice of atoms comes with every split/nonsplit assignment of its
    adjacent degree pairs that ``object_is_legal`` accepts, all split first.
    Every object is built once, as the FormalObject yielded.
    """
    check_dimension(d)
    check_index(max_mass, "a mass bound must be an integer, got {p!r}", lo=None)
    degrees = sorted(degrees)
    sheaf_pool = {m: tuple(enumerate_sheaves(m)) for m in range(1, max_mass + 1)}
    for count in range(1, len(degrees) + 1):
        for slots in itertools.combinations(degrees, count):
            adj = tuple(zip(slots, slots[1:]))
            for total in range(count, max_mass + 1):
                for masses in _compositions(total, count):
                    for choice in itertools.product(
                        *(sheaf_pool[m] for m in masses)
                    ):
                        graded = tuple(zip(slots, choice))
                        options = [
                            ((), (fl,)) if _flag_fault(lower, upper, *fl, d) is None else ((),)
                            for fl, lower, upper in zip(adj, choice, choice[1:])
                        ]
                        for combo in itertools.product(*options):
                            flags = tuple(fl for part in combo for fl in part)
                            yield FormalObject(graded, flags)
