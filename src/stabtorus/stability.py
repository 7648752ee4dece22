"""Points of the simply connected part of the stability manifold.

A point is an orbit label plus an element g of the covering group acting on
the right: StabPoint(label, g) is the base point of the labeled orbit moved
by g. Standard labels Std(p) name the points whose heart is the standard
heart p; boundary labels Deg(p, gamma) name the degenerate-charge families
separating consecutive standard orbits, with gamma in (0, 1/2).

Base-point data is normalized by two phases: phi_sky, the lifted phase of
the skyscraper class, equal to 1 at every base point, and psi_line, the
lifted phase of the rank ray, equal to 1/2 - p at Std(p) base points and to
1 - p on the boundary families. classify() inverts this normal form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import cover, hearts, sheaves
from .charges import (
    CentralCharge,
    KClass,
    SKYSCRAPER_CLASS,
    _charge_num,
    _check_range,
    _orbits_over,
    check_dimension,
    check_index,
    deg_charge,
    std_charge,
)
from .errors import (
    DomainError,
    NotInHeart,
    NotInU,
    NotNumericallyConsistent,
    UnsupportedSpectrum,
)
from .exactnum import (
    HALF,
    PHASE_TOL,
    as_number,
    cot_pi,
    direction_angle,
    phase_mod1,
    to_float,
)
from .linalg import Matrix2


# ---------------------------------------------------------------------------
# labels and points


@dataclass(frozen=True)
class StdLabel:
    """Orbit of the standard point with heart index p."""

    p: int

    gamma = None
    json_kind = "std"

    def __post_init__(self):
        check_index(self.p, "heart index must be a nonnegative integer, got {p!r}")


@dataclass(frozen=True)
class DegLabel:
    """Boundary family between the standard orbits p-1 and p, at parameter
    gamma in (0, 1/2)."""

    p: int
    gamma: object

    json_kind = "deg"

    def __post_init__(self):
        check_index(self.p, "boundary index must be an integer >= 1, got {p!r}", lo=1)
        g = as_number(self.gamma)
        if not 0 < g < HALF:
            raise DomainError("boundary parameter gamma must lie in (0, 1/2)")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class StabPoint:
    label: object
    g: cover.LiftedAuto

    def base_charge(self) -> CentralCharge:
        if isinstance(self.label, StdLabel):
            return std_charge(self.label.p)
        return deg_charge(self.label.p, self.label.gamma)

    @functools.cached_property
    def _g_inverse(self) -> cover.LiftedAuto:
        """gl_inverse(g), computed once per point. It is not a field, so ==,
        hash and repr ignore it."""
        return cover.gl_inverse(self.g)

    def charge(self) -> CentralCharge:
        """act_on_charge(g, base charge), through the shared inverse."""
        return self._g_inverse.T @ self.base_charge()

    def phi_sky(self):
        """Lifted skyscraper phase at this point."""
        return cover.lift_eval(self._g_inverse, 1)

    def psi_line(self):
        """Lifted phase of the positive rank ray at this point."""
        p = self.label.p
        base = Fraction(1 - 2 * p, 2) if isinstance(self.label, StdLabel) else 1 - p
        return cover.lift_eval(self._g_inverse, base)


def make_std(p: int, d: int) -> StabPoint:
    """Base point of the standard orbit with heart index p, 0 <= p <= d-1."""
    _check_range(p, d)
    return StabPoint(StdLabel(p), cover.identity_auto())


def make_deg(p: int, gamma, d: int) -> StabPoint:
    """Base point of the boundary family Deg(p, gamma), 1 <= p <= d-1."""
    _check_range(p, d, 1, "boundary")
    return StabPoint(DegLabel(p, gamma), cover.identity_auto())


def act(G: cover.LiftedAuto, sigma: StabPoint) -> StabPoint:
    """Right action of the cover on points: the label is fixed and the group
    part composes on the right, so acting twice composes in order."""
    g = cover.gl_compose(sigma.g, G)
    return StabPoint(sigma.label, g)


# ---------------------------------------------------------------------------
# stable objects and spectra


@dataclass(frozen=True)
class StableFamily:
    """One family of stable objects at a point.

    ``kind`` is one of "skyscraper", "shifted_line_bundle", "ideal_sheaves",
    "unclassified_tail". ``phase`` is the transported phase for the two
    single-phase families, None for the series (use ideal_family_phase).
    """

    kind: str
    shift: int
    kclass: KClass | None
    phase: object
    note: str = ""


@dataclass(frozen=True)
class PhaseSeries:
    """Accumulating series of stable phases in a spectrum.

    The ideal-sheaf series is computable: member n >= 1 has class (1, -n)
    and base phase arctan(1/n)/pi, decreasing to 0. The unclassified tail
    near the top of the window is not computable; only its monotone
    approach to the skyscraper phase is known.
    """

    kind: str
    computable: bool
    increasing: bool
    limit: object

    def value(self, n: int):
        if not self.computable:
            raise UnsupportedSpectrum(f"series {self.kind!r} has no computable members")
        check_index(n, "series index must be an integer >= 1", lo=1)
        if n == 1:
            return Fraction(1, 4)
        return math.atan2(1.0, to_float(n)) / math.pi

    def bracket(self, gamma):
        """Members (below, above) with below < gamma <= above, gamma in
        (0, 1); above is None past the top member 1/4, and equals gamma only
        when gamma is 1/4 or the float value of a member.

        Member n lies below gamma exactly when n > cot(pi*gamma); one step
        either way absorbs the float error of the cotangent. Raises
        DomainError past n = 2**53, where the members stop being distinct.
        """
        top = self.value(1)
        if gamma > top:
            return (top, None)
        cot = cot_pi(gamma)
        if cot < 2**53:
            n = math.floor(cot) + 1
            if not self.value(n) < gamma:
                n += 1
            elif self.value(n - 1) < gamma:
                n -= 1
            below, above = self.value(n), self.value(n - 1)
            if below < gamma <= above:
                return (below, above)
        raise DomainError(f"gamma lies below the float range of the series {self.kind!r}")


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Stable phases of a point, understood modulo integer shift.

    ``points`` are isolated known phases in the base window (0, 1];
    ``series`` lists accumulating families; ``uncertain`` lists the open
    subintervals where the classification is not complete. ``complete`` says
    whether this accounts for every stable object.
    """

    points: tuple
    series: tuple
    uncertain: tuple
    complete: bool


def check_label(label, d: int) -> None:
    """Raise DomainError unless d is a torus dimension and label names an
    orbit on it: a heart index in 0..d-1 or a boundary index in 1..d-1."""
    if isinstance(label, DegLabel):
        _check_range(label.p, d, 1, "boundary")
    else:
        _check_range(label.p, d)


def spectrum_of(label, d: int) -> SpectrumDescriptor:
    """Spectrum descriptor of a labeled base point in the window (0, 1]."""
    check_label(label, d)
    if isinstance(label, DegLabel):
        return _DEG_SPECTRUM
    return _std_spectrum(label.p, d)


def _std_spectrum(p: int, d: int) -> SpectrumDescriptor:
    """The descriptor of Std(p) for a p already in 0..d-1: the ideal-sheaf
    series at p = 0, the unclassified tail at p = d - 1, else complete."""
    return _STD_SPECTRA[0 if p == 0 else 2 if p == d - 1 else 1]


# the descriptors are immutable, so every call shares one of these
_POINTS = (HALF, Fraction(1))
_STD_SPECTRA = (
    SpectrumDescriptor(_POINTS, (PhaseSeries("ideal_sheaves", True, False, Fraction(0)),),
                       ((Fraction(0), HALF),), False),
    SpectrumDescriptor(_POINTS, (), (), True),
    SpectrumDescriptor(_POINTS, (PhaseSeries("unclassified_tail", False, True, Fraction(1)),),
                       ((HALF, Fraction(1)),), False),
)
# every object of the boundary heart has phase 1; nothing else occurs
_DEG_SPECTRUM = SpectrumDescriptor((Fraction(1),), (), (), True)


_SERIES_NOTES = {
    "ideal_sheaves": "twisted ideal sheaves of n points, classes (1, -n); phases "
                     "decrease to the bottom of the window",
    "unclassified_tail": "an incomplete family with phases increasing toward the "
                         "skyscraper phase",
}


def stable_objects(sigma: StabPoint, d: int):
    """Families of stable objects at sigma with transported phases.

    Returns (SpectrumDescriptor, families). The descriptor stays in the base
    window of the label; family phases are transported through the group
    part of the point. Every point has the skyscraper and shifted line bundle
    families; each series of the descriptor adds one more family, shifted by
    the heart index, with no single phase. Boundary points raise
    UnsupportedSpectrum since their stable objects are not classified.
    """
    check_dimension(d)
    if isinstance(sigma.label, DegLabel):
        raise UnsupportedSpectrum("stable objects on boundary families are not classified")
    p = sigma.label.p
    descriptor = spectrum_of(sigma.label, d)
    gi = sigma._g_inverse
    sky_phase = cover.lift_eval(gi, 1)
    line_phase = cover.lift_eval(gi, HALF)
    families = [
        StableFamily(
            "skyscraper", 0, SKYSCRAPER_CLASS, sky_phase,
            "length-one torsion sheaves, one for each point of the torus",
        ),
        StableFamily(
            "shifted_line_bundle", p, KClass((-1) ** p, 0), line_phase,
            "simple semihomogeneous bundles of degree zero, shifted into the heart",
        ),
    ]
    families += [StableFamily(s.kind, p, None, None, _SERIES_NOTES[s.kind])
                 for s in descriptor.series]
    return (descriptor, tuple(families))


def ideal_family_phase(sigma: StabPoint, n: int, d: int):
    """Transported phase of the n-th ideal-sheaf stable at a Std(0) point."""
    check_dimension(d)
    if not isinstance(sigma.label, StdLabel) or sigma.label.p != 0:
        raise UnsupportedSpectrum("the ideal-sheaf family lives at index-0 points")
    (series,) = spectrum_of(sigma.label, d).series
    return cover.lift_eval(sigma._g_inverse, series.value(n))


# ---------------------------------------------------------------------------
# Harder-Narasimhan data


@dataclass(frozen=True)
class HNFactor:
    """One semistable factor: its class, transported phase, a representative
    object of the model when one exists, and the declared stable flag when
    the input carried one."""

    kclass: KClass
    phase: object
    part: sheaves.FormalObject | None = None
    stable: bool | None = None


def hn_filtration(sigma: StabPoint, E: sheaves.FormalObject, d: int):
    """Harder-Narasimhan factors of E at the point sigma, top phase first.

    E is presented relative to the base heart of sigma's label; phases are
    transported through the group part. At a standard point with p >= 1 the
    torsion part (including the hull defect of the shifted piece) sits at
    transported phase 1 and the hull at transported phase 1/2. At p = 0 the
    torsion part leads and the torsion-free part contributes its declared
    filtration, without which MissingHNData is raised; locally free pieces
    need no declaration. On a boundary family every heart object is
    semistable of phase 1.
    """
    label = sigma.label
    check_label(label, d)
    p = label.p
    gi = sigma._g_inverse
    if isinstance(label, DegLabel):
        if not hearts.heart_membership(E, p, d):
            raise NotInHeart(f"object is not in the boundary heart at index {p}")
        if E.is_zero():
            return ()
        return (HNFactor(sheaves.class_of(E), cover.lift_eval(gi, 1), E),)

    if not hearts.heart_membership(E, p, d):
        raise NotInHeart(f"object is not in the standard heart {p}")
    factors = []
    for phase, i, S, step in hearts._hn_pieces(E, p, steps=True):
        if step is None:
            # a one-atom part, E itself when E is that atom; its class is its
            # sheaf's, signed by the degree
            part = E if E.graded == ((i, S),) else sheaves.sheaf_at(i, S)
            v = sheaves.sheaf_class(S)
            factors.append(HNFactor(-v if i % 2 else v, cover.lift_eval(gi, phase), part))
        else:
            v, stable = step
            factors.append(HNFactor(v, cover.lift_eval(gi, heart_phase(v, 0)), None, stable))
    return tuple(factors)


# ---------------------------------------------------------------------------
# brute-force stability on the enumerable hearts


def subobject_classes(E: sheaves.FormalObject, p: int, d: int) -> set:
    """Classes of proper nonzero subobjects of E in the standard heart p >= 1.

    Write the shifted piece as rank r with hull defect (colength) q, the
    torsion mass as t and eps = (-1)**p. A subobject of class (eps*r', m)
    exists precisely when r' = 0 with 1 <= m <= q + t, or 0 < r' < r with
    0 <= m <= q + t, or r' = r with q <= m <= q + t. For p = 1 long exact
    sequences mix the hull defect into the torsion this way; for p >= 2 the
    shifted piece is locally free, q = 0, and the subobjects are exactly the
    pairs (sub-bundle shift, torsion subsheaf).
    """
    _check_range(p, d, 1)
    if not hearts.heart_membership(E, p, d):
        raise NotInHeart(f"object is not in the standard heart {p}")
    upper = E.component(-p)
    lower = E.component(0)
    r = upper.rank if upper is not None else 0
    q = sheaves.hull_defect_length(upper) if upper is not None else 0
    t = lower.total_length() if lower is not None else 0
    eps = (-1) ** p
    out = set()
    for rp in range(r + 1):
        if rp == 0:
            lo = 1
        else:
            lo = q if rp == r else 0
        out.update(KClass(eps * rp, m) for m in range(lo, q + t + 1))
    out.discard(sheaves.class_of(E))
    return out


def heart_phase(v: KClass, p: int):
    """Phase in (0, 1] of a nonzero class under the index-p standard charge."""
    return phase_mod1(*_charge_num(std_charge(p), v))


def is_stable_in_model(E: sheaves.FormalObject, p: int, d: int) -> bool:
    """Stability of a heart-p object (p >= 1) by exhaustive subobject classes."""
    if E.is_zero():
        return False
    phi = heart_phase(sheaves.class_of(E), p)
    for v in subobject_classes(E, p, d):
        if not (heart_phase(v, p) < phi):
            return False
    return True


# ---------------------------------------------------------------------------
# classification of normalized point data


def classify(Z: CentralCharge, phi_sky, psi_line, d: int) -> StabPoint:
    """Rebuild the unique point of the simply connected part with the given
    charge and normalized phases.

    phi_sky is the lifted skyscraper phase, psi_line the lifted phase of the
    positive rank ray; each must lift the direction of its vector under Z,
    dir Z(skyscraper) + 2j and dir Z(rank) + 2k. The cover acts freely on
    each orbit, so Z and the integers j and k fix the point. On a
    nondegenerate frame the sign of det Z gives the parity of the heart index
    p and the frame gives the group element up to its winding; j gives the
    winding, and k gives p, by the whole turns that carry dir Z(rank) to the
    base rank phase 1/2 - p. No window or floor of phi_sky - psi_line is
    read there. A degenerate frame lands on the boundary families, where
    phi_sky - psi_line must be the boundary index p within ``PHASE_TOL``. The
    labels over Z come from ``charges._orbits_over``, the one inverse of the
    charge map. Raises NotInU when the data names no point of the region and
    NotNumericallyConsistent when a phase lifts no direction of its vector.
    """
    check_dimension(d)
    phi = as_number(phi_sky)
    psi = as_number(psi_line)
    re, im, den = _charge_num(Z, SKYSCRAPER_CLASS)
    if re == 0 and im == 0:
        raise NotInU("the skyscraper class has zero charge")
    j = _lift_count(phi, direction_angle(re, im, den),
                    "phi_sky = {} is not a lift of the skyscraper direction {}")
    degenerate, indices, gamma = _orbits_over(Z, d)
    if degenerate:
        # exact for exact phases; a float and an exact one meet through to_float
        delta = phi - psi if type(phi) is type(psi) else to_float(phi) - to_float(psi)
        p = round(delta)
        if abs(delta - p) > PHASE_TOL:  # interior data cannot carry a degenerate charge
            raise NotInU("degenerate charge with interior phase data")
        if not 1 <= p <= d - 1:
            raise NotInU(f"boundary index {p} outside 1..{d - 1}")
        if p not in indices:
            raise NotInU("boundary parameter would leave (0, 1/2)")
        alpha, beta = Z.column0()
        norm = alpha * alpha + beta * beta
        # T0 sends (alpha, beta) to (1, 0) exactly and has determinant one
        T0 = Matrix2(alpha / norm, beta / norm, -beta, alpha)
        return StabPoint(DegLabel(p, gamma()), cover._lifted(T0, _winding(T0, Z, j)))
    # (-1)**p is the sign of det Z, and M = diag(1, (-1)**p) Z^-1 has det M > 0
    odd = Z.det_sign() < 0
    M = _FLIP @ Z.inverse() if odd else Z.inverse()
    G = cover._lifted(M, _winding(M, Z, j))
    # M sends Z(rank) = Z(0, 1) to (0, (-1)**p), whose base phase is 1/2 - p:
    # G carries dir Z(rank) + 2k there, so (1 - p) // 2 = k + turns + winding
    _, b, _, e = Z.num
    k = _lift_count(psi, direction_angle(b, e, max(abs(b), abs(e))),
                    "psi_line = {} disagrees with the rank-ray phase {}")
    p = odd - 2 * (k + cover._turns(M, b, e) + G.winding)
    if not 0 <= p <= d - 1:
        raise NotInU(f"heart index {p} outside 0..{d - 1}")
    return StabPoint(StdLabel(p), G)


def _lift_count(phase, theta, refusal: str) -> int:
    """The integer k with phase = theta + 2k within the slack ``PHASE_TOL``
    (in units of 2), for a direction theta in (-1, 1]. The phase is split
    exactly as 2n + r with 0 <= r < 2, as lift_eval splits, so only r meets
    the float theta; NotNumericallyConsistent, with refusal formatted by the
    phase and theta, when no k fits."""
    num, den = phase.as_integer_ratio()
    n, r = divmod(num, 2 * den)
    gap = (r / den - to_float(theta)) / 2
    k = round(gap)
    if abs(gap - k) > PHASE_TOL:
        raise NotNumericallyConsistent(refusal.format(phase, theta))
    return n + k


_FLIP = Matrix2(1, 0, 0, -1)


def _winding(M: Matrix2, F: Matrix2, j: int) -> int:
    """The winding w that makes (M, w) carry phi_sky = theta + 2j to the base
    skyscraper phase 1, theta = dir Z(sky), Z(sky) = -F(1, 0). M sends Z(sky)
    to a positive multiple of (-1, 0), so f_M(theta) = 1 + 2 * _turns."""
    a, _, c, _ = F.num
    return -(cover._turns(M, -a, -c) + j)
