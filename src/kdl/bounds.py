"""Closed-form invariants and two-sided distortion bounds for plat specs.

Everything here is arithmetic on the diagram's combinatorics plus two
measured geometric quantities (longest twist-arc nominal length l and
clearance alpha) when a built curve is supplied.  The report bundles the
pieces so a caller gets the full sandwich

    lower_bound  <=  true distortion of any embedding
                 <=  4 b^2 d l / alpha   (for our built embedding)

in one object.

A combinatorial note: with one region per (row, region) slot, b bridges
and n rows give b*n - (n+1)/2 regions; along the family n = 4b(b-2)+1
this evaluates to 4b^3 - 10b^2 + 5b - 1 (the coefficient of b is 5; a
once-circulated value of 9 for that coefficient does not match direct
evaluation, which the tests pin down).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .distortion import helix_ratio_bound
from .errors import HypothesisViolated, NonPositiveClearance, NotAlternating
from .geom import PolyCurve, min_clearance
from .plat import PlatSpec, regions_for

__all__ = [
    "BoundsReport",
    "bridge_distance",
    "distortion_lower_bound",
    "pardon_bound",
    "upper_bound",
    "half_length_bound",
    "twist_region_count",
    "crossing_number_alternating",
    "make_report",
]


def bridge_distance(b: int, n: int) -> int:
    """ceil(n / (2(b-2))): plat distance of a highly twisted diagram.

    Only asserted for b >= 3 and n >= 4b(b-2); outside that range the
    formula has no backing and HypothesisViolated is raised.
    """
    if b < 3 or n < 4 * b * (b - 2):
        raise HypothesisViolated(
            f"bridge_distance needs b >= 3 and n >= 4b(b-2) "
            f"(b={b} needs n >= {4 * b * (b - 2)}, got n={n})"
        )
    return -(-n // (2 * (b - 2)))


def distortion_lower_bound(b: int, d: int) -> float:
    """min(d, 2b)/160, the distortion floor in terms of bridge data."""
    return min(d, 2 * b) / 160.0


def pardon_bound(I: int = 2) -> float:
    """I/160 where I is the representativity (2 for alternating knots)."""
    return I / 160.0


def upper_bound(b: int, d: int, l: float, alpha: float) -> float:
    """4 b^2 d l / alpha: distortion ceiling for the built embedding."""
    if alpha <= 0.0:
        raise NonPositiveClearance(
            f"upper bound needs positive clearance, got alpha={alpha!r}"
        )
    return 4.0 * b * b * d * l / alpha


def half_length_bound(b: int, n: int, l: float) -> float:
    """b*n*(l+1): bound for half the curve length, hence for any
    shorter-way arclength distance on it."""
    return b * n * (l + 1.0)


def twist_region_count(b: int, n: int) -> int:
    """b*n - (n+1)/2 regions: b per even row, b-1 per odd row, n odd."""
    if b < 3 or n < 1 or n % 2 == 0:
        raise HypothesisViolated(
            f"region count needs b >= 3 and odd n >= 1, got b={b}, n={n}"
        )
    return b * n - (n + 1) // 2


def crossing_number_alternating(b: int, n: int, counts: dict) -> int:
    """Total crossings of a reduced alternating plat: sum of |count|.

    Valid only when the handedness alternates by row (all odd rows one
    sign, all even rows the other); mixed-handedness rows can cancel
    crossings, so the sum is then not the crossing number.
    """
    expected = set(regions_for(b, n))
    if set(counts) != expected:
        raise HypothesisViolated(
            "counts must cover exactly the (row, region) grid of the diagram"
        )
    odd_signs = {counts[k] > 0 for k in counts if k[0] % 2 == 1}
    even_signs = {counts[k] > 0 for k in counts if k[0] % 2 == 0}
    if len(odd_signs) != 1 or len(even_signs) != 1 or odd_signs == even_signs:
        raise NotAlternating(
            "handedness must be uniform within odd rows and opposite in "
            "even rows for the diagram to be alternating"
        )
    if any(abs(w) < 3 for w in counts.values()):
        raise HypothesisViolated("every region needs at least 3 crossings")
    return sum(abs(w) for w in counts.values())


@dataclass(frozen=True)
class BoundsReport:
    """All closed-form values for one spec, plus measured l/alpha when a
    built curve is available.  alpha and upper_bound are None for
    spec-only reports; crossing_number is None when the handedness
    pattern is not alternating."""

    b: int
    d: int
    k: float
    lower_bound: float
    pardon_bound: float
    l: float
    half_length_bound: float
    region_count: int
    crossing_number: int | None
    alpha: float | None = None
    upper_bound: float | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def make_report(spec: PlatSpec, curve: PolyCurve | None = None) -> BoundsReport:
    """Assemble the full report for one spec.

    l is the largest twist-arc nominal length -- read off the curve's
    tags when present, otherwise computed from the largest |count| in
    the PlatSpec (the two agree for curves built here).  alpha is the
    measured clearance of the supplied curve.  The Pardon bound is taken
    at representativity 2, the value for alternating knots.
    """
    b, n = spec.b, spec.n
    d = bridge_distance(b, n)
    k = float(min(d, 2 * b))
    tmax = max(abs(w) for w in spec.twists.values())
    l = helix_ratio_bound(tmax)
    if curve is not None and curve.arcs:
        tag_l = max(
            (a.nominal_length for a in curve.arcs if a.kind == "twist"), default=l
        )
        l = max(l, tag_l)
    try:
        cn = crossing_number_alternating(b, n, spec.twists)
    except NotAlternating:
        cn = None
    alpha = up = None
    if curve is not None:
        alpha = min_clearance(curve)
        up = upper_bound(b, d, l, alpha)
    return BoundsReport(
        b=b,
        d=d,
        k=k,
        lower_bound=distortion_lower_bound(b, d),
        pardon_bound=pardon_bound(),
        l=l,
        half_length_bound=half_length_bound(b, n, l),
        region_count=twist_region_count(b, n),
        crossing_number=cn,
        alpha=alpha,
        upper_bound=up,
    )
