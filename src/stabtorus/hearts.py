"""Hearts of bounded t-structures in the model and tilting between them.

The standard heart with index 0 is the sheaf category itself. For index
p >= 1 the heart consists of the torsion sheaves in degree 0 together with a
shifted torsion-free piece in degree -p (arbitrary torsion-free for p = 1,
locally free for p >= 2), plus extensions where the model allows them.

``iterated_heart`` rebuilds the index-p heart by p successive tilts starting
from the sheaf category, each at the evident torsion pair; agreeing with the
direct membership predicate on enumerated corpora is one of the package's
main consistency checks.

Every decomposition follows one rule. At the standard point with heart index
p, torsion has phase 1 and a shifted locally free sheaf phase 1/2; a shifted
torsion-free sheaf splits into its hull defect, torsion of phase 1, and its
locally free hull, of phase 1/2 (``hull_split``); at p = 0 a torsion-free
sheaf has the phases of its declared filtration steps, in (0, 1/2].
``split_at_phase`` cuts these HN pieces at one phase, and every torsion pair
the package builds is such a cut of a standard heart (``_phase_cut``): the
standard pairs cut at 3/4, the wall pairs of ``walls.phase_cut_pair`` at
their gamma. ``stability.hn_filtration`` lists the pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import sheaves
from .charges import _check_range, check_index
from .errors import DomainError, InvalidTorsionPair, MissingHNData, NotInHeart
from .exactnum import HALF, phase_above

# synthetic point id used for hull-defect torsion
DEFECT_POINT = "~q"

# a phase strictly between 1/2 and 1, the two phases of a standard heart p >= 1
_STANDARD_CUT = Fraction(3, 4)


def _in_heart_shape(E: sheaves.FormalObject, p: int) -> bool:
    """Does every atom of E sit where the standard heart p allows?

    That is degree 0 for p = 0; for p >= 1 torsion in degree 0 and, in
    degree -p, a torsion-free sheaf (p = 1) or a locally free one (p >= 2).
    The split-flag rule of ``heart_membership`` is not checked.
    """
    if p == 0:
        return all(i == 0 for i, _ in E.graded)
    free_kind = (sheaves.LocallyFree, sheaves.TorsionFree) if p == 1 else sheaves.LocallyFree
    for i, S in E.graded:
        if i == 0:
            if not isinstance(S, sheaves.Torsion):
                return False
        elif i != -p or not isinstance(S, free_kind):
            return False
    return True


def heart_membership(E: sheaves.FormalObject, p: int, d: int) -> bool:
    """Does E lie in the standard heart with index p on a d-torus?

    Index 0 is the sheaf category: everything concentrated in degree 0.
    For p >= 1 the object may have a torsion sheaf in degree 0 and a
    torsion-free sheaf in degree -p (locally free once p >= 2); whenever
    2 <= p <= d-2 the extension between the two pieces must be split because
    the relevant extension group vanishes.
    """
    _check_range(p, d)
    if not _in_heart_shape(E, p):
        return False
    return not (2 <= p <= d - 2 and (-p, 0) in E.nonsplit)


def canonical_decomposition(E: sheaves.FormalObject, p: int, d: int):
    """Split a member E of the standard heart p >= 1 on a d-torus into its
    two canonical pieces.

    Returns (shifted_part, torsion_part): the degree -p atom kept in place
    and the degree 0 atom, as formal objects; either may be the zero object.
    Their classes add up to the class of E. Raises NotInHeart when E is not
    in the heart, split-flag rule included.
    """
    check_index(p, "decomposition needs a heart index p >= 1, got {p!r}", lo=1)
    if not heart_membership(E, p, d):
        raise NotInHeart(f"object is not in the standard heart {p}")
    upper = E.component(-p)
    lower = E.component(0)
    f_part = sheaves.sheaf_at(-p, upper) if upper is not None else sheaves.ZERO_OBJECT
    t_part = sheaves.sheaf_at(0, lower) if lower is not None else sheaves.ZERO_OBJECT
    return (f_part, t_part)


# ---------------------------------------------------------------------------
# the phase split


def hull_split(F):
    """(hull defect, hull) of a positive-rank sheaf F without torsion.

    The hull defect is the torsion sheaf of length colength at DEFECT_POINT,
    None when F is locally free; the hull is the locally free sheaf of F's
    rank, F itself when F is locally free. F = None gives (None, None).
    """
    if isinstance(F, sheaves.TorsionFree):
        return (sheaves.Torsion(((DEFECT_POINT, F.colength),)), sheaves.LocallyFree(F.rank))
    return (None, F)


def _hn_pieces(E: sheaves.FormalObject, p: int, steps: bool) -> list:
    """HN pieces of the heart-p member E at the standard point, top phase first.

    Each piece is (phase, degree, sheaf, step). Torsion, with the hull defect
    of the shifted piece, sits at phase 1 and the locally free hull at phase
    1/2. At p = 0 a torsion-free sheaf contributes its declared steps, each
    with ``step`` = (class, stable flag) and neither phase nor sheaf of its
    own: ``_count_above`` places a step by its class, exactly; when ``steps``
    is false it stays whole at phase 1/2, the top of its phases.
    E must have the heart-p shape. Raises MissingHNData when declared steps
    are needed but absent.
    """
    pieces = []
    if p == 0:
        S = E.component(0)
        t, F = sheaves.torsion_part(S), sheaves.positive_rank_part(S)
        if t is not None:
            pieces.append((1, 0, t, None))
        if steps and isinstance(F, sheaves.TorsionFree):
            if F.hn is None:
                raise MissingHNData("torsion-free piece carries no declared filtration data")
            pieces += [(None, 0, None, step) for step in F.hn]
        elif F is not None:
            pieces.append((HALF, 0, F, None))
        return pieces
    defect, hull = hull_split(E.component(-p))
    torsion = sheaves.sheaf_sum(E.component(0), defect)
    if torsion is not None:
        pieces.append((1, 0, torsion, None))
    if hull is not None:
        pieces.append((HALF, -p, hull, None))
    return pieces


def split_at_phase(E: sheaves.FormalObject, p: int, cut):
    """Cut the heart-p member E at phase ``cut`` into (above, below).

    ``above`` sums the HN pieces of phase greater than cut, ``below`` the
    rest; a side that receives every piece is E itself and the other side is
    the zero object. At p = 0 declared steps are read only when cut < 1/2.
    Raises NotInHeart when E does not have the heart-p shape.
    """
    if not _in_heart_shape(E, p):
        raise NotInHeart(f"object has no place in heart {p}")
    pieces = _hn_pieces(E, p, cut < HALF)
    k = _count_above(pieces, cut)
    if k == len(pieces):
        return (E, sheaves.ZERO_OBJECT)
    if k == 0:
        return (sheaves.ZERO_OBJECT, E)
    return (_assemble(pieces[:k]), _assemble(pieces[k:]))


def _count_above(pieces, cut) -> int:
    """How many HN pieces, top phase first, lie above the phase cut; a declared
    step (rk, chd) by its charge -chd + i*rk at Std(0), decided exactly."""
    k = 0
    for phase, _, _, step in pieces:
        if not (phase > cut if step is None else phase_above(-step[0].chd, step[0].rk, cut)):
            break
        k += 1
    return k


def _assemble(pieces) -> sheaves.FormalObject:
    """Direct sum of HN pieces; declared steps join into one torsion-free sheaf."""
    graded: dict = {}
    steps = tuple(step for *_, step in pieces if step is not None)
    if steps:
        colength = -sum(cls.chd for cls, _ in steps)
        rank = sum(cls.rk for cls, _ in steps)
        graded[0] = sheaves.make_torsion_free(rank, colength, steps if colength else None)
    for _, i, S, step in pieces:
        if step is None:
            graded[i] = sheaves.sheaf_sum(graded.get(i), S)
    return sheaves.formal_object(graded)


# ---------------------------------------------------------------------------
# hearts as objects


def _atom_cohomology(S, p: int) -> dict:
    """Cohomology of the sheaf S (placed in degree 0) relative to heart p.

    Values are heart-p members presented in base degrees. The torsion-free
    part of S contributes its hull defect in inner degree 1 and its hull in
    inner degree p once p >= 2; for p = 1 it stays in one piece.
    """
    if p == 0:
        return {0: sheaves.sheaf_at(0, S)}
    out: dict = {}
    t = sheaves.torsion_part(S)
    if t is not None:
        out[0] = sheaves.sheaf_at(0, t)
    F = sheaves.positive_rank_part(S)
    if F is not None:
        if p == 1:
            _merge_coh(out, 1, sheaves.sheaf_at(-1, F))
        else:
            defect, hull = hull_split(F)
            if defect is not None:
                _merge_coh(out, 1, sheaves.sheaf_at(0, defect))
            _merge_coh(out, p, sheaves.sheaf_at(-p, hull))
    return out


def _merge_coh(coh: dict, n: int, piece: sheaves.FormalObject) -> None:
    coh[n] = sheaves.object_sum(coh[n], piece) if n in coh else piece


class StandardHeart:
    """The standard heart with index p inside the derived model category."""

    def __init__(self, p: int, d: int):
        _check_range(p, d)
        self.p = p
        self.d = d
        self.level = p

    def __repr__(self):
        return f"StandardHeart(p={self.p}, d={self.d})"

    def contains(self, E: sheaves.FormalObject) -> bool:
        return heart_membership(E, self.p, self.d)

    def cohomology(self, E: sheaves.FormalObject) -> dict:
        """Degree -> heart member, flag-blind, additive over atoms."""
        out: dict = {}
        for i, S in E.graded:
            for n, piece in _atom_cohomology(S, self.p).items():
                _merge_coh(out, n + i, piece)
        return out

    def sample_members(self, max_mass: int):
        degrees = (0,) if self.p == 0 else (-self.p, 0)
        for E in sheaves.enumerate_objects(max_mass, degrees, self.d):
            if self.contains(E):
                yield E


@dataclass
class TorsionPairSpec:
    """A torsion pair on a heart, given by predicates and a splitting.

    ``decompose`` must send a heart member E to (t_part, f_part) with
    t_part in the torsion class, f_part in the free class and classes adding
    to the class of E.
    """

    name: str
    in_torsion: object
    in_free: object
    decompose: object


class TiltedHeart:
    """Heart obtained from ``base`` by tilting at ``pair``."""

    def __init__(self, base, pair: TorsionPairSpec):
        self.base = base
        self.pair = pair
        self.d = base.d
        self.level = base.level + 1
        # the last (object, base cohomology) read: a sweep asks every level of
        # a tilt chain about one object, so each level computes its own once
        self._memo = None

    def __repr__(self):
        return f"TiltedHeart({self.base!r}, pair={self.pair.name})"

    def _base_cohomology(self, E: sheaves.FormalObject) -> dict:
        memo = self._memo
        if memo is None or memo[0] != E:
            memo = self._memo = (E, self.base.cohomology(E))
        return memo[1]

    def contains(self, E: sheaves.FormalObject) -> bool:
        pair = self.pair
        for n, piece in self._base_cohomology(E).items():
            if not (pair.in_torsion(piece) if n == 0 else n == -1 and pair.in_free(piece)):
                return False
        return True

    def cohomology(self, E: sheaves.FormalObject) -> dict:
        out: dict = {}
        for n, piece in self._base_cohomology(E).items():
            t_part, f_part = self.pair.decompose(piece)
            if not t_part.is_zero():
                _merge_coh(out, n, t_part)
            if not f_part.is_zero():
                # the free part shows up one degree later, shifted into the
                # new heart's window
                _merge_coh(out, n + 1, sheaves.object_shift(f_part, 1))
        return out

    def sample_members(self, max_mass: int):
        degrees = range(-self.level, 1)
        for E in sheaves.enumerate_objects(max_mass, degrees, self.d):
            if self.contains(E):
                yield E


def hearts_agree_on(h1, h2, objects):
    """First object on which the membership predicates differ, else None."""
    for E in objects:
        if bool(h1.contains(E)) != bool(h2.contains(E)):
            return E
    return None


# ---------------------------------------------------------------------------
# torsion pairs and tilting


def _certain_hom(S1, S2) -> bool:
    """Morphisms the model is sure exist between sheaves (degree 0 to 0)."""
    if sheaves.objects_isomorphic(sheaves.sheaf_at(0, S1), sheaves.sheaf_at(0, S2)):
        return True
    t1, t2 = sheaves.torsion_part(S1), sheaves.torsion_part(S2)
    if t1 is not None and t2 is not None:
        shared = {pid for pid, _ in t1.points} & {pid for pid, _ in t2.points}
        if shared:
            return True
    if sheaves.positive_rank_part(S1) is not None and t2 is not None:
        return True  # evaluation at a point
    f1, f2 = sheaves.positive_rank_part(S1), sheaves.positive_rank_part(S2)
    if (
        isinstance(f1, sheaves.TorsionFree)
        and isinstance(f2, sheaves.LocallyFree)
        and f1.rank == f2.rank
        and t1 is None
        and t2 is None
    ):
        return True  # hull inclusion
    return False


def _atom_hom_nonzero(A: sheaves.FormalObject, B: sheaves.FormalObject, d: int) -> bool:
    """Certainly-nonzero Hom between single-atom objects in the derived model."""
    (i, SA), = A.graded
    (j, SB), = B.graded
    m = i - j
    if m == 0:
        return _certain_hom(SA, SB)
    if m == d:
        return _certain_hom(SB, SA)  # Serre duality, trivial canonical bundle
    return False


def hrs_tilt(heart, pair: TorsionPairSpec, max_check_mass: int = 3) -> TiltedHeart:
    """Tilt ``heart`` at ``pair`` after validating the pair on small objects.

    Checks, over the heart members of mass up to ``max_check_mass``: the two
    classes intersect only in zero, decompositions land in the right classes
    with additive K-classes, and no single-atom member of the torsion class
    maps nontrivially to one of the free class (only morphisms the finite
    model can certify are considered). Members on which the pair's predicates
    need data the corpus does not carry are skipped. Raises InvalidTorsionPair
    with a witness attached.
    """
    members = list(heart.sample_members(max_check_mass))
    atoms = [E for E in members if len(E.graded) == 1]
    free_atoms = [B for B in atoms if _try_pred(pair.in_free, B) is True]
    for E in members:
        try:
            if pair.in_torsion(E) and pair.in_free(E) and not E.is_zero():
                _reject(pair, f"object in both classes: {E}", (E, E, "identity morphism"))
            t_part, f_part = pair.decompose(E)
            if not pair.in_torsion(t_part):
                _reject(pair, f"torsion part of {E} is not in the torsion class",
                        (E, t_part, "decomposition"))
            if not pair.in_free(f_part):
                _reject(pair, f"free part of {E} is not in the free class",
                        (E, f_part, "decomposition"))
            if sheaves.class_of(t_part) + sheaves.class_of(f_part) != sheaves.class_of(E):
                _reject(pair, f"decomposition of {E} does not add up in K",
                        (E, (t_part, f_part), "class bookkeeping"))
        except MissingHNData:
            continue
    for A in atoms:
        if _try_pred(pair.in_torsion, A) is not True:
            continue
        for B in free_atoms:
            if _atom_hom_nonzero(A, B, heart.d):
                _reject(pair, f"nonzero morphism from torsion class to free class ({A} to {B})",
                        (A, B, "nonzero morphism"))
    return TiltedHeart(heart, pair)


def _reject(pair: TorsionPairSpec, message: str, witness):
    """Raise InvalidTorsionPair for ``pair`` with the witness attached."""
    err = InvalidTorsionPair(f"pair {pair.name!r}: {message}")
    err.witness = witness
    raise err


def _try_pred(pred, E):
    try:
        return bool(pred(E))
    except MissingHNData:
        return None


def _phase_cut(name: str, p: int, cut) -> TorsionPairSpec:
    """The torsion pair on the standard heart p cut at phase ``cut``.

    The torsion class holds the heart-p members whose HN pieces all lie above
    cut, the free class those whose pieces all lie at or below it, and
    ``decompose`` is ``split_at_phase``. An object off the heart-p shape is in
    neither class. Every torsion pair of the package is built here.
    """
    steps = cut < HALF

    def within(E, above: bool) -> bool:
        if not _in_heart_shape(E, p):
            return False
        pieces = _hn_pieces(E, p, steps)
        k = _count_above(pieces, cut)
        return k == len(pieces) if above else k == 0

    return TorsionPairSpec(name, lambda E: within(E, True), lambda E: within(E, False),
                           lambda E: split_at_phase(E, p, cut))


def standard_pair(level: int, d: int) -> TorsionPairSpec:
    """The torsion pair on the standard heart ``level`` whose tilt is the
    standard heart ``level + 1``: its cut at 3/4, as at any phase between 1/2
    and 1.

    On the sheaf category the pair is (torsion sheaves, torsion-free sheaves).
    On heart k >= 1 the torsion class is the degree-0 torsion and the free
    class the shifted locally free sheaves; a shifted torsion-free sheaf
    splits as its hull defect (torsion class) against its hull (free class).
    """
    _check_range(level, d)
    name = f"degree-zero-torsion-at-level-{level}" if level else "torsion-against-torsion-free"
    return _phase_cut(name, level, _STANDARD_CUT)


def iterated_heart(p: int, d: int):
    """Rebuild the standard heart p by p successive tilts from the sheaf
    category. Validation of the intermediate pairs is skipped: they are the
    fixed standard pairs, exercised by the test suite instead.

    Returned hearts are cached per (p, d) so that chains share their tails;
    each tilt changes only its memo of the last base cohomology it read,
    which no answer depends on, so reuse is safe.
    """
    _check_range(p, d)
    return _iterated_heart(p, d)


@cache
def _iterated_heart(p: int, d: int):
    if p == 0:
        return StandardHeart(0, d)
    return TiltedHeart(_iterated_heart(p - 1, d), standard_pair(p - 1, d))


def chain_stabilizes(chain, p: int, d: int) -> int:
    """First index n with chain[n] isomorphic to chain[n+1].

    The chain models successive quotients inside the standard heart p on a
    d-torus; each entry is checked for membership first (NotInHeart). Raises
    DomainError when the chain runs out before stabilizing.
    """
    chain = list(chain)
    for E in chain:
        if not heart_membership(E, p, d):
            raise NotInHeart(f"chain entry not in the standard heart {p}")
    for n in range(len(chain) - 1):
        if sheaves.objects_isomorphic(chain[n], chain[n + 1]):
            return n
    raise DomainError("chain exhausted without stabilizing")
