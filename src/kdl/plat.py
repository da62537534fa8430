"""Builder for plat-closed twist diagrams as embedded polygonal curves.

Layout
------
2b strand positions sit at x = k + 0.5 (k = 1..2b) in the y = 0 plane.
Row i (i = 1..n, top to bottom) occupies the slab z in [-i, -i+1].  Odd
rows carry b-1 coupled regions j = 1..b-1, region j pairing positions
(2j, 2j+1) around the vertical axis x = 2j+1; even rows carry b regions
j = 1..b pairing positions (2j-1, 2j) around x = 2j.  Positions 1 and 2b
pass through odd rows as straight unit verticals.  The top of the
diagram is closed by b semicircular bridges at z = 0 pairing positions
(2m-1, 2m), bulging upward; the bottom mirrors them below z = -n.

Inside a region with signed half-twist count w, the two strands wind as
a double helix of radius 1/2 about the region axis:

    x = axis + (1/2) cos(theta0 + pi*w*u)
    y =        (1/2) sin(theta0 + pi*w*u)
    z = -(i-1) - u,            u in [0, 1]

with theta0 = 0 for the strand entering at the right position and pi for
the left one.  Odd w swaps the two positions, even w restores them.
Alternating specs give positive w to odd rows and negative w to even
rows; at a junction between equal counts of opposite sign the strand
tangents are collinear, so the assembled curve has no sharp corners
along strand-to-strand transfers.

Each returned curve carries one tag per arc recording what the arc is
(twist strand / vertical / bridge), which strand of its piece it is, the
half-open vertex index range [i0, i1) it owns, and its smooth nominal
length; the discretized length converges to the nominal quadratically in
the per-half-twist sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distortion import _max_ratio, helix_ratio_bound, max_pair_ratio_open
from .errors import InvalidSpec, NotAKnot, SelfIntersecting
from .geom import PolyCurve, build_polycurve, _min_clearance_pair

__all__ = [
    "PlatSpec",
    "ArcTag",
    "arc_polyline",
    "make_uniform_jm_spec",
    "regions_for",
    "component_count",
    "build_plat",
    "max_adjacent_arc_ratio",
    "run_claim_checks",
]


def regions_for(b: int, n: int):
    """All (row, region) keys for a b-bridge, n-row diagram."""
    keys = []
    for i in range(1, n + 1):
        width = b - 1 if i % 2 == 1 else b
        for j in range(1, width + 1):
            keys.append((i, j))
    return keys


@dataclass(frozen=True)
class PlatSpec:
    """A plat diagram: b bridges, n rows, and signed half-twist counts.

    ``twists`` maps every (row, region) key from :func:`regions_for` to a
    signed integer count with absolute value at least 3.
    """

    b: int
    n: int
    twists: dict

    def __post_init__(self):
        b, n = self.b, self.n
        if not isinstance(b, int) or b < 3:
            raise InvalidSpec(f"b must be an integer >= 3, got {b!r}")
        if not isinstance(n, int) or n < 1 or n % 2 == 0:
            raise InvalidSpec(f"n must be a positive odd integer, got {n!r}")
        if n < 4 * b * (b - 2):
            raise InvalidSpec(
                f"n >= 4b(b-2) is required for the bridge-distance bound "
                f"(b={b} needs n >= {4 * b * (b - 2)}, got {n})"
            )
        expected = set(regions_for(b, n))
        got = set(self.twists)
        if got != expected:
            missing = sorted(expected - got)[:4]
            extra = sorted(got - expected)[:4]
            raise InvalidSpec(
                f"twist regions must cover exactly the (row, region) grid; "
                f"missing {missing}, unexpected {extra}"
            )
        for key, w in self.twists.items():
            if not isinstance(w, int) or abs(w) < 3:
                raise InvalidSpec(
                    f"region {key}: every region needs at least 3 crossings "
                    f"(|count| >= 3), got {w!r}"
                )

    def region_axis(self, i: int, j: int) -> float:
        return float(2 * j + 1) if i % 2 == 1 else float(2 * j)

    def region_positions(self, i: int, j: int):
        if i % 2 == 1:
            return (2 * j, 2 * j + 1)
        return (2 * j - 1, 2 * j)

    def piece_at(self, i: int, k: int):
        """What position k runs through in row i: ('twist', j) or ('vertical', k)."""
        if i % 2 == 1:
            if k == 1 or k == 2 * self.b:
                return ("vertical", k)
            j = k // 2
            return ("twist", j)
        j = (k + 1) // 2
        return ("twist", j)


@dataclass(frozen=True)
class ArcTag:
    """Provenance of one arc of a built curve.

    ``vrange`` = (i0, i1) owns vertices i0..i1-1; the arc's polyline is
    those vertices plus vertex i1 mod m.  ``strand`` is 1 or 2: for twist
    arcs, 1 enters its region's top at the right position (plan angle 0)
    and 2 at the left; for verticals, 1 is the left rail (position 1) and
    2 the right (position 2b); for bridges, 1 is a top bridge and 2 a
    bottom one.
    """

    kind: str  # "twist" | "vertical" | "bridge"
    strand: int
    vrange: tuple
    nominal_length: float
    region: tuple | None = None  # (row, region) for twist arcs
    half_twists: int | None = None  # signed, twist arcs only

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "strand": self.strand,
            "range": [int(self.vrange[0]), int(self.vrange[1])],
            "nominal_length": self.nominal_length,
        }
        if self.kind == "twist":
            out["region"] = [int(self.region[0]), int(self.region[1])]
            out["half_twists"] = int(self.half_twists)
        return out

    def check(self, curve: PolyCurve) -> None:
        """Raise ValueError unless the tag can describe an arc of curve:
        a known kind, a nonempty range inside the m vertices, and a
        positive finite nominal length no shorter (rel 1e-9) than the
        range's polyline, which inscribes the smooth arc."""
        i0, i1 = self.vrange
        if self.kind not in ("twist", "vertical", "bridge"):
            raise ValueError(f"unknown arc kind {self.kind!r}")
        if not 0 <= i0 < i1 <= curve.m:
            raise ValueError(f"range [{i0}, {i1}) is not inside the {curve.m} vertices")
        if not (math.isfinite(self.nominal_length) and self.nominal_length > 0.0):
            raise ValueError(f"nominal length {self.nominal_length!r} is not positive and finite")
        length = float(curve.edge_lens[i0:i1].sum())
        if self.nominal_length < length * (1.0 - 1e-9):
            raise ValueError(
                f"nominal length {self.nominal_length!r} is below the length "
                f"{length!r} of its polyline [{i0}, {i1}]"
            )

    @staticmethod
    def from_json(d: dict) -> "ArcTag":
        return ArcTag(
            kind=d["kind"],
            strand=int(d["strand"]),
            vrange=(int(d["range"][0]), int(d["range"][1])),
            nominal_length=float(d["nominal_length"]),
            region=tuple(d["region"]) if "region" in d else None,
            half_twists=int(d["half_twists"]) if "half_twists" in d else None,
        )


def make_uniform_jm_spec(b: int, n: int, t: int = 3) -> PlatSpec:
    """Uniform spec: |count| = t everywhere, right-handed in odd rows and
    left-handed in even rows.  For odd t at n = 4b(b-2)+1 the closure is
    a knot (checked by :func:`component_count`; the builder enforces it)."""
    if not isinstance(t, int) or t < 3:
        raise InvalidSpec(f"every region needs at least 3 crossings, got t={t!r}")
    tw = {}
    for (i, j) in regions_for(b, n):
        tw[(i, j)] = t if i % 2 == 1 else -t
    return PlatSpec(b=b, n=n, twists=tw)


def _row_permutation(spec: PlatSpec, i: int):
    """Position map across row i (odd counts swap the coupled pair)."""
    perm = list(range(2 * spec.b + 1))  # 1-based
    width = spec.b - 1 if i % 2 == 1 else spec.b
    for j in range(1, width + 1):
        ka, kb = spec.region_positions(i, j)
        if abs(spec.twists[(i, j)]) % 2 == 1:
            perm[ka], perm[kb] = perm[kb], perm[ka]
    return perm


def component_count(spec: PlatSpec) -> int:
    """Number of link components of the plat closure.

    Computed combinatorially: propagate each top position through every
    row to its bottom position, then union top/bottom ports through the
    bridge pairings and the strands.
    """
    b = spec.b
    down = list(range(2 * b + 1))
    for i in range(1, spec.n + 1):
        perm = _row_permutation(spec, i)
        down = [perm[k] if k else 0 for k in down]

    parent = list(range(4 * b))  # 0..2b-1 top ports, 2b..4b-1 bottom ports

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for m_ in range(1, b + 1):
        union(2 * m_ - 2, 2 * m_ - 1)                    # top bridge
        union(2 * b + 2 * m_ - 2, 2 * b + 2 * m_ - 1)    # bottom bridge
    for k in range(1, 2 * b + 1):
        union(k - 1, 2 * b + down[k] - 1)                # strand k -> down[k]
    return len({find(x) for x in range(4 * b)})


def _position_x(k: int) -> float:
    return k + 0.5


def _twist_strand_points(axis_x, z_top, theta0, signed_count, n_seg):
    """Discretized strand: theta0 + pi*w*u winding, unit descent."""
    u = np.linspace(0.0, 1.0, n_seg + 1)
    th = theta0 + math.pi * signed_count * u
    pts = np.empty((n_seg + 1, 3))
    pts[:, 0] = axis_x + 0.5 * np.cos(th)
    pts[:, 1] = 0.5 * np.sin(th)
    pts[:, 2] = z_top - u
    # snap the ports exactly onto the y = 0 plane so junctions are bit-exact
    for row, ang in ((0, theta0), (n_seg, theta0 + math.pi * signed_count)):
        side = math.cos(ang)
        pts[row, 0] = axis_x + (0.5 if side > 0 else -0.5)
        pts[row, 1] = 0.0
    return pts


def _bridge_points(cx, z0, x_from, upward, n_seg):
    """Semicircle of radius 1/2 in the xz-plane from (x_from, 0, z0) to
    its mirror across x = cx, bulging up (top) or down (bottom)."""
    phi = np.linspace(0.0, math.pi, n_seg + 1)
    direction = 1.0 if x_from < cx else -1.0
    pts = np.empty((n_seg + 1, 3))
    pts[:, 0] = cx - direction * 0.5 * np.cos(phi)
    pts[:, 1] = 0.0
    pts[:, 2] = z0 + (0.5 if upward else -0.5) * np.sin(phi)
    pts[0] = (x_from, 0.0, z0)
    pts[-1] = (2 * cx - x_from, 0.0, z0)
    return pts


def build_plat(spec: PlatSpec, samples_per_half_twist: int = 16) -> PolyCurve:
    """Embed the plat closure of ``spec`` as a closed polygonal curve.

    Walks the diagram from the top-left port, stitching twist strands,
    verticals and bridges in traversal order.  Raises NotAKnot when the
    closure has more than one component and SelfIntersecting if the
    assembled curve has zero clearance (which would indicate a layout
    bug, not a bad spec).
    """
    if not isinstance(samples_per_half_twist, int) or samples_per_half_twist < 8:
        raise InvalidSpec(
            f"samples_per_half_twist must be an integer >= 8, got {samples_per_half_twist!r}"
        )
    comps = component_count(spec)
    if comps != 1:
        raise NotAKnot(
            f"plat closure has {comps} components, not a knot; adjust the "
            f"half-twist parities (odd counts swap strands, even do not)"
        )
    b, n = spec.b, spec.n
    n_seg_bridge = max(16, samples_per_half_twist)
    perms = {i: _row_permutation(spec, i) for i in range(1, n + 1)}

    def descend(i, k):
        """The piece entering row i from above at position k: its walk
        key, its points from top to bottom and its tag skeleton."""
        kind, j = spec.piece_at(i, k)
        if kind == "vertical":
            x = _position_x(k)
            pts = np.array([[x, 0.0, -float(i - 1)], [x, 0.0, -float(i)]])
            return ("vertical", i, k), pts, ArcTag("vertical", 1 if k == 1 else 2, (0, 0), 1.0)
        axis = spec.region_axis(i, j)
        w = spec.twists[(i, j)]
        theta0 = 0.0 if _position_x(k) > axis else math.pi
        pts = _twist_strand_points(
            axis, -float(i - 1), theta0, w, samples_per_half_twist * abs(w)
        )
        tag = ArcTag(
            "twist",
            1 if theta0 == 0.0 else 2,
            (0, 0),
            helix_ratio_bound(w),
            region=(i, j),
            half_twists=w,
        )
        return ("twist", i, j, theta0), pts, tag

    def bridge(k, top):
        """The bridge leaving position k at the top or the bottom."""
        m_ = (k + 1) // 2
        z0 = 0.0 if top else -float(n)
        pts = _bridge_points(2.0 * m_, z0, _position_x(k), top, n_seg_bridge)
        return ("bridge", top, m_), pts, ArcTag("bridge", 1 if top else 2, (0, 0), math.pi / 2.0)

    pieces = []  # (points, tag-skeleton) in traversal order
    visited = set()

    def add(key, pts, tag):
        assert key not in visited, "walk revisited a piece"
        visited.add(key)
        pieces.append((pts, tag))

    # Rows only swap coupled pairs, so each row permutation is its own
    # inverse: climbing row i from bottom position k retraces the descent
    # from top position perms[i][k].
    k = 1
    while True:
        for i in range(1, n + 1):
            add(*descend(i, k))
            k = perms[i][k]
        add(*bridge(k, top=False))
        k = k + 1 if k % 2 == 1 else k - 1
        for i in range(n, 0, -1):
            k = perms[i][k]
            key, pts, tag = descend(i, k)
            add(key, pts[::-1], tag)
        add(*bridge(k, top=True))
        k = k + 1 if k % 2 == 1 else k - 1
        if k == 1:
            break

    n_regions = len(spec.twists)
    expected = 2 * b + (n + 1) + 2 * n_regions
    assert len(pieces) == expected, (
        f"walk covered {len(pieces)} pieces, expected {expected}"
    )

    vert_chunks = []
    tags = []
    offset = 0
    for pts, tag in pieces:
        owned = len(pts) - 1
        vert_chunks.append(pts[:-1])
        tags.append(replace(tag, vrange=(offset, offset + owned)))
        offset += owned
    curve = build_polycurve(np.concatenate(vert_chunks), arcs=tags)
    clear, ci, cj = _min_clearance_pair(curve)
    if clear <= 0.0:
        raise SelfIntersecting(
            f"assembled curve self-intersects between edges {ci} and {cj}",
            edge_pair=(ci, cj),
        )
    return curve


def arc_polyline(curve: PolyCurve, tag: ArcTag) -> np.ndarray:
    """The vertices of one tagged arc, including its far junction point."""
    i0, i1 = tag.vrange
    idx = list(range(i0, i1)) + [i1 % curve.m]
    return curve.vertices[idx]


def max_adjacent_arc_ratio(curve: PolyCurve):
    """Worst ratio over vertex pairs on two consecutive arcs.

    For every cyclically consecutive pair of tagged arcs, takes all pairs
    of vertices of the two arcs joined (through the far junction point of
    the second) and evaluates shorter-way arclength over chord.  Returns
    (ratio, (arc_index, next_arc_index)).
    """
    if not curve.arcs:
        raise InvalidSpec("curve carries no arc tags; build it with build_plat")
    best, best_pair = 0.0, (0, 0)
    n_arcs = len(curve.arcs)
    for a in range(n_arcs):
        b_ = (a + 1) % n_arcs
        i0, i1 = curve.arcs[a].vrange[0], curve.arcs[b_].vrange[1]
        idx = np.arange(i0, i1 + 1 if i1 > i0 else curve.m + i1 + 1) % curve.m
        r, _, _ = _max_ratio(curve.vertices[idx].T, curve.cum_len[idx], curve.total_len)
        if r > best:
            best, best_pair = r, (a, b_)
    return best, best_pair


# ---------------------------------------------------------------------------
# Strand-level checks used by the CLI's verify command


def run_claim_checks(t: int = 3, samples: int = 64, strand_fn=None):
    """Check the strand-shape facts the coupled-region layout relies on.

    1. A single strand's worst pair ratio stays below the closed-form
       sqrt((pi t / 2)^2 + 1), itself below 2 pi t.
    2. Through-junction ratios across every junction type that occurs in
       a built diagram (strand-to-strand, strand-to-vertical,
       strand-to-bridge) stay below 4 pi t.

    ``strand_fn`` replaces the twist-strand generator (same signature as
    the internal one); it exists so tests can inject a broken shape and
    watch the checks fail.  Returns a list of result dicts with keys
    name, ratio, bound, passed, witness (the realizing point pair, or
    None for the purely arithmetic check).
    """
    if strand_fn is None:
        strand_fn = _twist_strand_points
    t = int(t)
    if t < 1:
        raise InvalidSpec("t must be a positive integer")
    n_seg = samples * t
    results = []

    single = strand_fn(0.0, 0.0, 0.0, t, n_seg)
    r1, i1, j1 = max_pair_ratio_open(single)
    bound1 = helix_ratio_bound(t)
    results.append(
        {
            "name": f"single strand, {t} half-twists",
            "ratio": r1,
            "bound": bound1,
            "passed": bool(r1 <= bound1 * (1.0 + 1e-9)),
            "witness": (tuple(single[i1]), tuple(single[j1])),
        }
    )
    results.append(
        {
            "name": "closed form below circumference cap",
            "ratio": bound1,
            "bound": 2.0 * math.pi * t,
            "passed": bool(bound1 <= 2.0 * math.pi * t),
            "witness": None,
        }
    )

    bound2 = 4.0 * math.pi * t
    # every junction type that occurs in a built diagram, assembled in
    # its real configuration around a shared port at (0.5, 0, 0)
    upper = strand_fn(0.0, 1.0, -math.pi * t, t, n_seg)  # exits at the port
    lower_strand = strand_fn(1.0, 0.0, math.pi, -t, n_seg)  # adjacent axis, opposite hand
    vertical = np.array([[0.5, 0.0, 0.0], [0.5, 0.0, -1.0]])
    bridge = _bridge_points(1.0, 0.0, 1.5, True, max(16, samples))  # ends at the port
    descending = strand_fn(0.0, 0.0, 0.0, t, n_seg)
    assemblies = (
        ("strand to strand", np.concatenate([upper, lower_strand[1:]])),
        ("strand to vertical", np.concatenate([upper, vertical[1:]])),
        ("bridge to strand", np.concatenate([bridge, descending[1:]])),
    )
    for name, joined in assemblies:
        r, i, j = max_pair_ratio_open(joined)
        results.append(
            {
                "name": name,
                "ratio": r,
                "bound": bound2,
                "passed": bool(r <= bound2 * (1.0 + 1e-9)),
                "witness": (tuple(joined[i]), tuple(joined[j])),
            }
        )
    return results
