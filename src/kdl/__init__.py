"""Certified Gromov-distortion bounds for knotted polygonal curves.

The library has three layers:

* geometry: closed polygonal curves with arclength bookkeeping,
  point-pair metrics, segment distances and clearance (``geom``);
* measurement: sampled and certified (branch-and-bound interval)
  distortion, plus the closed-form helix and corner ratios
  (``distortion``), and a simulated-annealing refiner that pushes a
  curve's distortion down without losing clearance (``refine``);
* knots: an explicit plat builder for high-bridge-distance twist
  diagrams (``plat``) and the bound/invariant formulas that sandwich
  their distortion (``bounds``).

``cli`` wraps everything in a small command-line tool (``kdl``).
"""

from .bounds import (
    BoundsReport,
    bridge_distance,
    crossing_number_alternating,
    distortion_lower_bound,
    half_length_bound,
    make_report,
    pardon_bound,
    twist_region_count,
    upper_bound,
)
from .distortion import (
    DistortionCertificate,
    WitnessPair,
    cell_upper_bound,
    corner_ratio,
    distortion_certified,
    distortion_sampled,
    helix_ratio_bound,
    max_pair_ratio_open,
)
from .errors import (
    DegenerateCurve,
    HypothesisViolated,
    InfeasibleStart,
    InvalidSpec,
    KdlError,
    NonPositiveClearance,
    NotAKnot,
    NotAlternating,
    NotEmbedded,
    OutOfRange,
    SelfIntersecting,
)
from .geom import (
    PolyCurve,
    arclength_distance,
    build_polycurve,
    chord_distance,
    curve_from_json,
    curve_to_json,
    interior_angle,
    load_curve,
    min_clearance,
    point_at,
    save_curve,
    segment_min_distance,
    wrap_param,
)
from .plat import (
    ArcTag,
    PlatSpec,
    arc_polyline,
    build_plat,
    component_count,
    make_uniform_jm_spec,
    max_adjacent_arc_ratio,
    regions_for,
    run_claim_checks,
)
from .refine import RefineConfig, refine

__version__ = "0.1.0"

__all__ = [
    "ArcTag",
    "BoundsReport",
    "DegenerateCurve",
    "DistortionCertificate",
    "HypothesisViolated",
    "InfeasibleStart",
    "InvalidSpec",
    "KdlError",
    "NonPositiveClearance",
    "NotAKnot",
    "NotAlternating",
    "NotEmbedded",
    "OutOfRange",
    "PlatSpec",
    "PolyCurve",
    "RefineConfig",
    "SelfIntersecting",
    "WitnessPair",
    "arc_polyline",
    "arclength_distance",
    "bridge_distance",
    "build_plat",
    "build_polycurve",
    "cell_upper_bound",
    "chord_distance",
    "component_count",
    "corner_ratio",
    "crossing_number_alternating",
    "curve_from_json",
    "curve_to_json",
    "distortion_certified",
    "distortion_lower_bound",
    "distortion_sampled",
    "half_length_bound",
    "helix_ratio_bound",
    "interior_angle",
    "load_curve",
    "make_report",
    "make_uniform_jm_spec",
    "max_adjacent_arc_ratio",
    "max_pair_ratio_open",
    "min_clearance",
    "pardon_bound",
    "point_at",
    "refine",
    "regions_for",
    "run_claim_checks",
    "save_curve",
    "segment_min_distance",
    "twist_region_count",
    "upper_bound",
    "wrap_param",
]
