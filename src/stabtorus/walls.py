"""Wall-and-chamber structure at the boundary of the standard orbits.

Deforming a standard point so that the phase gap around a value gamma
collapses either runs into a genuine boundary family (a wall, reached in
finite distance) or escapes to infinity because twisting by degree-zero line
bundles pushes the relevant phases back apart. ``boundary_at`` records which
of the two happens; ``boundary_heart`` produces the heart carried by the
wall through a tilt; ``twist_escape`` exhibits the escape mechanism;
``orbit_complex`` assembles the resulting cell complex and ``fiber_types``
inverts the charge map over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import hearts, stability
from .charges import (
    CentralCharge,
    KClass,
    _charge_num,
    _check_range,
    _orbits_over,
    check_dimension,
)
from .errors import DomainError, NeverEscapes, OnSpectrum, ZeroCharge
from .exactnum import HALF, as_number, cot_brackets, num_eq, phase_above, phase_eq

# reasons a deformation direction fails to reach a wall
GAMMA_PLUS_VACUOUS = "gamma-plus-vacuous"
GAMMA_MINUS_VACUOUS = "gamma-minus-vacuous"
TWIST_ESCAPE = "twist-escape"


# ---------------------------------------------------------------------------
# neighbouring phases in a spectrum


def gamma_pm(spectrum: stability.SpectrumDescriptor, gamma):
    """Nearest spectrum phases around gamma, with certainty flags.

    Returns (below, above, below_exact, above_exact) where the flags say
    whether the corresponding gap is certified free of further stable
    phases (no uncertain interval of the spectrum meets it, modulo integer
    shift). Raises OnSpectrum when gamma is a stable phase by the rule of
    ``on_spectrum``, and DomainError when gamma leaves (0, 1) or falls below
    the float range of a computable series.
    """
    g = _unit_gamma(gamma)
    candidates = _candidates(spectrum, g)
    if _on_spectrum(spectrum, g, candidates):
        raise OnSpectrum(f"gamma = {gamma} is a stable phase")
    below = max(c for c in candidates if c < g)
    # >= keeps a float member equal in value to an exact gamma, as bracket does
    above = min(c for c in candidates if c >= g)

    def certain(lo, hi):
        for a, b in spectrum.uncertain:
            for k in (-1, 0, 1):
                if a + k < hi and b + k > lo:
                    return False
        return True

    return (below, above, certain(below, g), certain(g, above))


def on_spectrum(label, gamma, d: int) -> bool:
    """Is gamma in (0, 1) a stable phase of the base point of label, up to
    integer shift? DomainError when gamma leaves (0, 1), or when a float
    gamma falls below the float range of a computable series.

    An exact gamma is decided exactly, at any magnitude: the points shifted
    by -1 or 1 leave (0, 1), and the members of a series after the top one,
    1/4, are arctangent phases, irrational by Niven's theorem. So an exact
    gamma is on the spectrum exactly when it is one of the points or the top
    member of a computable series. A float gamma is compared with every
    candidate of ``_candidates`` within TOL.
    """
    return _on_spectrum(stability.spectrum_of(label, d), _unit_gamma(gamma))


def _on_spectrum(spectrum: stability.SpectrumDescriptor, g, candidates=None) -> bool:
    """on_spectrum for a number g already in (0, 1); a float g is compared
    with ``candidates``, built here when not given."""
    if g.__class__ is not Fraction:
        return any(phase_eq(c, g) for c in candidates or _candidates(spectrum, g))
    return g in spectrum.points or any(s.computable and s.value(1) == g for s in spectrum.series)


def _unit_gamma(gamma):
    """gamma as a number, raising DomainError unless it lies in (0, 1)."""
    g = as_number(gamma)
    if not 0 < g < 1:
        raise DomainError("gamma must lie strictly between 0 and 1")
    return g


def _candidates(spectrum: stability.SpectrumDescriptor, g) -> list:
    """The spectrum phases ``gamma_pm`` picks from for a g in (0, 1): the
    points shifted by -1, 0 and 1 and the series members bracketing g."""
    candidates = [q + k for q in spectrum.points for k in (-1, 0, 1)]
    for series in spectrum.series:
        if series.computable:
            candidates += [c for c in series.bracket(g) if c is not None]
    return candidates


# ---------------------------------------------------------------------------
# the boundary decision table


@dataclass(frozen=True)
class WallDecision:
    """Outcome of pushing a standard point against a phase gap at gamma.

    ``target`` is the boundary label when a wall is reached in finite
    distance, otherwise None and ``reason`` explains which mechanism makes
    the boundary empty there.
    """

    target: stability.DegLabel | None
    reason: str | None = None

    @property
    def is_wall(self) -> bool:
        return self.target is not None


def boundary_at(p: int, gamma, d: int) -> WallDecision:
    """Decide the boundary behind the phase gap at gamma seen from Std(p).

    gamma must lie in (0, 1), off 1/2 and off the known stable phases. Below
    1/2 the wall carries the boundary family Deg(p, gamma), above 1/2
    Deg(p + 1, 1 - gamma), unless a series of the spectrum of Std(p)
    accumulates on gamma's side of 1/2: twisting by degree-zero line bundles
    then escapes any wall. That is the ideal sheaves below 1/2 at p = 0 and
    the unclassified tail above 1/2 at p = d - 1.

    Its spectrum test is exact for an exact gamma of any size
    (``on_spectrum``); a float gamma is tested within TOL, and one within TOL
    of 1/2 counts as 1/2.
    """
    _check_range(p, d)
    g = _unit_gamma(gamma)
    if num_eq(g, HALF):
        raise DomainError("gamma = 1/2 sits on the shifted-bundle phase")
    spectrum = stability._std_spectrum(p, d)
    if _on_spectrum(spectrum, g):
        raise DomainError(f"gamma = {gamma} is a stable phase of Std({p})")
    below = g < HALF
    if any((s.limit < HALF) == below for s in spectrum.series):
        return WallDecision(None, TWIST_ESCAPE)
    return WallDecision(stability.DegLabel(p, g) if below else stability.DegLabel(p + 1, 1 - g))


# ---------------------------------------------------------------------------
# the tilt carried by a wall


def phase_cut_pair(p: int, gamma, d: int) -> hearts.TorsionPairSpec:
    """Torsion pair on the standard heart p cutting its members at phase
    gamma: the torsion class keeps the members whose HN pieces all lie above
    gamma, the free class those whose pieces all lie at or below it.

    Above 1/2 its classes are those of the standard pair of heart p. Below
    1/2 every member of heart p >= 1 is in the torsion class, its pieces
    having phase 1/2 or 1, and at p = 0 the cut splits the declared
    filtration steps of torsion-free sheaves.
    """
    _check_range(p, d)
    return hearts._phase_cut(f"phase-cut-{p}-at-{gamma}", p, as_number(gamma))


def boundary_heart(p: int, gamma, d: int) -> hearts.TiltedHeart:
    """The heart carried by the boundary behind the gap at gamma: the tilt of
    the standard heart p at the phase-cut pair, after ``boundary_at``'s
    checks. Below 1/2 the cut is trivial at p >= 1 and the heart is
    unchanged; above 1/2 it reproduces the next standard heart.

    It is built like the tilts of ``iterated_heart``, with no check of the
    pair at run time. The check cannot depend on gamma: above 1/2 the cut
    sorts the members of heart p as ``standard_pair(p, d)`` does, and below
    it puts every enumerated member in the torsion class. The test suite
    runs ``hrs_tilt`` on each kind of pair.
    """
    boundary_at(p, gamma, d)  # validates p, gamma and the spectrum condition
    return hearts.TiltedHeart(hearts.StandardHeart(p, d), phase_cut_pair(p, gamma, d))


# ---------------------------------------------------------------------------
# the twisting escape


def twist_escape(ideal_class: KClass, twist_class: KClass, gamma_minus, Z: CentralCharge) -> int:
    """Least n >= 1 for which the phase of Z(ideal + n * twist) climbs back
    above gamma_minus, the record phase below the gap.

    Models the escape move: twisting by a degree-zero line bundle changes
    the class by multiples of twist_class, and when the twist's own phase
    sits above gamma_minus the iterates eventually cross. Iterates with zero
    charge (at most one) are skipped.

    Exact, in closed form: with X_n + i*Y_n the numerators of iterate n and
    c = cot(pi*gamma_minus), iterate n crosses when Y_n * (c*Y_n - X_n) > 0
    or Y_n = 0 != X_n. Past iterate 1 the answer is the root n0 = -Y_0/Y_1
    when that is an integer with a nonzero iterate, else the first integer
    past n0 and t = -(c*Y_0 - X_0)/(c*Y_1 - X_1), from ``cot_brackets``.

    Raises NeverEscapes when the twist phase is not above gamma_minus, the
    escape's premise; this compares the twist phase only, and says nothing
    of single iterates, of which some may lie above gamma_minus. It raises
    it too, with a proof, when the twist charge is real and the iterates
    approach it from the side where the folded phase falls to 0. Raises
    ZeroCharge when Z kills either class, and DomainError on non-finite
    input.
    """
    gm = as_number(gamma_minus)
    x0, y0, _ = _charge_num(Z, ideal_class)
    if x0 == 0 and y0 == 0:
        raise ZeroCharge("the charge kills the starting class")
    x1, y1, _ = _charge_num(Z, twist_class)
    if x1 == 0 and y1 == 0:
        raise ZeroCharge("the charge kills the twisting class")
    if not phase_above(x1, y1, gm):
        raise NeverEscapes("the twisting class sits at or below the record phase")
    if x0 + x1 == 0 and y0 + y1 == 0:
        return 2  # iterate 1 is zero, and iterate 2 is the twist itself
    if phase_above(x0 + x1, y0 + y1, gm):
        return 1
    if y1 == 0 and y0 * x1 > 0:
        raise NeverEscapes("the iterates approach the real twist charge from the side "
                           "where the phase falls to 0; they never cross the record phase")
    k, r = divmod(-y0, y1) if y1 else (0, 1)  # floor(n0), and n0 an integer when r == 0
    if r == 0 and k > 0 and x0 + k * x1:
        return k
    for (ln, ld), (hn, hd) in cot_brackets(gm):
        # t is a Moebius map of c; with its pole off the bracket it is monotone there
        dl, dh = ln * y1 - ld * x1, hn * y1 - hd * x1
        if dl * dh > 0 and (ld * x0 - ln * y0) // dl == (hd * x0 - hn * y0) // dh:
            return max(k, (ld * x0 - ln * y0) // dl) + 1


# ---------------------------------------------------------------------------
# the orbit complex and the charge fibers


@dataclass(frozen=True)
class ComplexNode:
    name: str
    kind: str  # "cell" | "wall"
    index: int
    homotopy: str  # "contractible" | "circle"
    note: str = ""


@dataclass(frozen=True)
class OrbitComplex:
    nodes: tuple
    edges: tuple  # (wall name, cell name) incidences

    def node(self, name: str) -> ComplexNode:
        for nd in self.nodes:
            if nd.name == name:
                return nd
        raise DomainError(f"no node named {name!r}")


def orbit_complex(d: int) -> OrbitComplex:
    """Cells Std(0..d-1) joined in a path by the boundary families.

    Each cell is a free orbit of the covering group, hence contractible;
    each wall family retains a circle's worth of fundamental group from the
    stabilizer of its points.
    """
    check_dimension(d)
    nodes = []
    edges = []
    for p in range(d):
        nodes.append(
            ComplexNode(
                f"std-{p}", "cell", p, "contractible",
                "free orbit of the covering group",
            )
        )
    for k in range(1, d):
        nodes.append(
            ComplexNode(
                f"wall-{k}", "wall", k, "circle",
                "boundary family between std-%d and std-%d, parameter in (0, 1/2)"
                % (k - 1, k),
            )
        )
        edges.append((f"wall-{k}", f"std-{k - 1}"))
        edges.append((f"wall-{k}", f"std-{k}"))
    return OrbitComplex(tuple(nodes), tuple(edges))


def wall_only_complex() -> OrbitComplex:
    """A single wall node with no cells glued in; its group survives."""
    node = ComplexNode(
        "wall-1", "wall", 1, "circle",
        "boundary family with nothing glued to it",
    )
    return OrbitComplex((node,), ())


def remove_node(cx: OrbitComplex, name: str) -> OrbitComplex:
    cx.node(name)  # raises when absent
    nodes = tuple(nd for nd in cx.nodes if nd.name != name)
    edges = tuple(e for e in cx.edges if name not in e)
    return OrbitComplex(nodes, edges)


@dataclass(frozen=True)
class FiberFamily:
    """One family of points over a charge: an orbit label pattern plus the
    structure of the fiber piece over it."""

    label: object
    structure: str  # "countable" | "positive-dimensional"
    note: str = ""


def fiber_types(Z: CentralCharge, d: int):
    """Patterns of points of the region hitting the given charge, over the
    labels that ``charges._orbits_over`` reads from it.

    A nondegenerate charge is reached from every standard orbit whose parity
    matches the orientation of its frame, one point for each winding. A
    degenerate rank-one charge lands on the boundary families of the matching
    parity, where the stabilizer makes the fiber positive-dimensional; the
    two functional directions that correspond to the excluded parameter
    values have empty fiber. Float entries count as the dyadic rationals
    they equal, so every charge is read exactly. The zero charge raises
    ZeroCharge.
    """
    check_dimension(d)
    if Z.a == 0 and Z.b == 0 and Z.c == 0 and Z.e == 0:
        raise ZeroCharge("the zero charge is hit nowhere")
    degenerate, indices, gamma = _orbits_over(Z, d)
    if degenerate:
        return [FiberFamily(stability.DegLabel(p, gamma()), "positive-dimensional",
                            "stabilizer quotient over the boundary family") for p in indices]
    note = "one point in the orbit of std-%d per winding"
    return [FiberFamily(stability.StdLabel(p), "countable", note % p) for p in indices]
