"""Front projections of Legendrian links on the Morse diagram.

A front is an oriented closed multicurve drawn in the torus charts:
straight segments of nonpositive dt/dx slope, cusp vertices where the
x-direction of travel reverses, and teleport vertex pairs where the
curve enters the skeleton on one trace curve and re-emerges on its
partner at the same page parameter.  Coordinates are lifted rationals;
each component carries explicit integer closure offsets so windings in
x and t are recorded exactly.

One lift rule reads a component past either end of its vertex list:
vertex ``i`` continues the list periodically, and each pass across the
end adds the closure, so ``lifted(i + k*n) == lifted(i) + k*closure``.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import (
    curve_orientation,
    h1_presentation,
    propagate_labels,
    validate_diagram,
)
from .geometry import (
    DegenerateGeometry,
    branch_side,
    det,
    cusp_direction,
    integer_crossings,
    slope,
    slope_closer_to_zero,
    sub,
    torus_meets,
)
from .validation import InvalidInput, ValidationReport

PLAIN = "plain"
CUSP = "cusp"
TELEPORT = "teleport"
EXIT = "exit"
ENTER = "enter"


class Vertex:
    __slots__ = ("x", "t", "kind", "pair", "side", "role")

    def __init__(self, x, t, kind=PLAIN, pair=None, side=None, role=None):
        self.x = Fraction(x)
        self.t = Fraction(t)
        self.kind = kind
        self.pair = pair
        self.side = side
        self.role = role

    @property
    def point(self):
        return (self.x, self.t)

    def shifted(self, dx, dt):
        return Vertex(self.x + dx, self.t + dt, self.kind, self.pair, self.side, self.role)

    def __repr__(self):
        extra = "" if self.kind == PLAIN else " %s" % self.kind
        return "Vertex(%s, %s%s)" % (self.x, self.t, extra)


class FrontComponent:
    """One oriented closed curve: cyclic vertices plus closure winding."""

    def __init__(self, torus, vertices, closure=(0, 0)):
        self.torus = int(torus)
        self.vertices = list(vertices)
        self.closure = (int(closure[0]), int(closure[1]))

    def __len__(self):
        return len(self.vertices)

    def vertex(self, i):
        return self.vertices[i % len(self.vertices)]

    def lifted(self, i):
        """The point of vertex ``i mod n`` in the lift that continues the
        list periodically: shifted by ``i // n`` times the closure."""
        n = len(self.vertices)
        if 0 <= i < n:
            return self.vertices[i].point
        k, j = divmod(i, n)
        x, t = self.vertices[j].point
        return (x + k * self.closure[0], t + k * self.closure[1])

    def neighbor_points(self, i):
        """Previous and next geometric points around vertex i (lift-corrected)."""
        return self.lifted(i - 1), self.lifted(i + 1)

    def segments(self):
        """Oriented segments (i, a, b); teleport jumps are skipped."""
        for i, v in enumerate(self.vertices):
            if v.kind == TELEPORT and v.role == EXIT:
                continue  # the jump to the re-entry point is not drawn
            yield (i, v.point, self.lifted(i + 1))

    def reversed(self):
        verts = []
        for v in reversed(self.vertices):
            role = None
            if v.kind == TELEPORT:
                role = EXIT if v.role == ENTER else ENTER
            verts.append(Vertex(v.x, v.t, v.kind, v.pair, v.side, role))
        return FrontComponent(
            self.torus, verts, (-self.closure[0], -self.closure[1])
        )


class FrontProjection:
    def __init__(self, components):
        self.components = list(components)

    def reversed(self):
        return FrontProjection([c.reversed() for c in self.components])

    def union(self, other):
        return FrontProjection(self.components + other.components)

    def all_segments(self):
        for ci, comp in enumerate(self.components):
            for i, a, b in comp.segments():
                yield (ci, i, comp.torus, a, b)


class Crossing:
    """A transverse double point with depth and sign.

    The over strand is the one whose slope is closer to zero; the sign
    is +1 when (over direction, under direction) is a positively
    oriented frame of the chart.
    """

    def __init__(self, torus, point, over, under, sign):
        self.torus = torus
        self.point = point
        self.over = over  # (component index, segment index)
        self.under = under
        self.sign = sign

    def __repr__(self):
        return "Crossing(%s %s over=%r under=%r sign=%+d)" % (
            self.torus,
            self.point,
            self.over,
            self.under,
            self.sign,
        )


def validate_front(d, f):
    """Check every FrontProjection invariant against the diagram."""
    report = ValidationReport()
    diag_report = validate_diagram(d)
    if not diag_report.ok:
        report.add("diagram", "underlying diagram is invalid")
        return report
    pair_ids = {p.id for p in d.trace_pairs}

    for ci, comp in enumerate(f.components):
        loc = "component %d" % ci
        if not (0 <= comp.torus < d.binding_count):
            report.add(loc, "torus index out of range")
            continue
        if len(comp.vertices) < 2:
            report.add(loc, "component needs at least two vertices")
            continue

        # teleport vertices pair up as exit followed by enter
        for i, v in enumerate(comp.vertices):
            if v.kind != TELEPORT:
                continue
            if v.role == EXIT:
                w = comp.vertex(i + 1)
                if w.kind != TELEPORT or w.role != ENTER:
                    report.add(loc, "teleport exit not followed by an enter vertex")
                    continue
                if v.pair not in pair_ids or v.pair != w.pair:
                    report.add(loc, "teleport pair ids missing or mismatched")
                    continue
                if v.side == w.side:
                    report.add(loc, "teleport must re-enter on the partner curve")
                if v.t != comp.lifted(i + 1)[1]:
                    report.add(loc, "teleport exit and entry at different t")
            elif v.role == ENTER:
                w = comp.vertex(i - 1)
                if w.kind != TELEPORT or w.role != EXIT:
                    report.add(loc, "teleport enter not preceded by an exit vertex")
            else:
                report.add(loc, "teleport vertex without exit/enter role")

        # slope constraint and vertex-local structure
        dirs = {i: sub(b, a) for i, a, b in comp.segments()}
        for i, (dx, dt) in dirs.items():
            if dx == 0 and dt == 0:
                report.add(loc, "zero-length segment at vertex %d" % i)
                continue
            if dx * dt > 0:
                report.add(loc, "slope constraint violated at segment %d" % i)
            if dx == 0:
                v1 = comp.vertices[i]
                v2 = comp.vertex(i + 1)
                if v1.kind != CUSP and v2.kind != CUSP:
                    report.add(loc, "vertical segment not adjacent to a cusp")
        for i, v in enumerate(comp.vertices):
            if v.kind == TELEPORT:
                continue
            prev_pt, next_pt = comp.neighbor_points(i)
            prev_v = comp.vertex(i - 1)
            next_v = comp.vertex(i + 1)
            if prev_v.kind == TELEPORT and prev_v.role == EXIT:
                report.add(loc, "vertex %d follows a teleport exit directly" % i)
                continue
            try:
                side_in = branch_side(v.point, prev_pt)
                side_out = branch_side(v.point, next_pt)
            except DegenerateGeometry:
                continue  # zero-length segment already reported
            if v.kind == CUSP and side_in != side_out:
                report.add(loc, "cusp vertex %d does not reverse x-direction" % i)
            elif v.kind == CUSP and prev_pt[0] == v.point[0] == next_pt[0]:
                report.add(loc, "cusp vertex %d between two vertical segments" % i)
            elif v.kind == CUSP and det(dirs[(i - 1) % len(comp.vertices)], dirs[i]) == 0:
                report.add(loc, "cusp vertex %d has collinear branches" % i)
            if v.kind == PLAIN and side_in == side_out:
                report.add(loc, "plain vertex %d reverses x-direction" % i)

        # teleport coincidences with the trace curves
        for i, v in enumerate(comp.vertices):
            if v.kind != TELEPORT or v.pair is None:
                continue
            try:
                pair = d.trace_pairs[d.pair_index(v.pair)]
            except KeyError:
                continue
            curve = pair.curve(v.side)
            if curve.torus != comp.torus:
                report.add(loc, "teleport vertex %d on the wrong torus" % i)
                continue
            t_pos = v.t % 1
            try:
                x_curve = curve.x_at(t_pos)
            except ValueError:
                report.add(loc, "teleport vertex %d at a broken trace t" % i)
                continue
            if (v.x - x_curve) % 1 != 0:
                report.add(loc, "teleport vertex %d not on its trace curve" % i)

    if not report.ok:
        return report

    # transversality against trace curves, away from teleport endpoints
    teleport_pts = set()
    for comp in f.components:
        for v in comp.vertices:
            if v.kind == TELEPORT:
                teleport_pts.add((comp.torus, v.x % 1, v.t % 1))
    for ci, i, torus, a, b, _, _, q1, q2, _, error in _front_trace_pairs(d, f):
        if error is None:
            continue
        if not any((torus, p[0] % 1, p[1] % 1) in teleport_pts for p in (a, b, q1, q2)):
            report.add(
                "component %d" % ci,
                "front touches a trace curve non-transversally at segment %d" % i,
            )

    # self-crossings: transverse, no triple points
    try:
        pts = [c.point for c in crossings_raw(f)]
    except DegenerateGeometry as e:
        report.add("front", "degenerate crossing: %s" % e)
        return report
    seen = {}
    for p in pts:
        key = (p[0] % 1, p[1] % 1)
        seen[key] = seen.get(key, 0) + 1
    for key, cnt in seen.items():
        if cnt > 1:
            report.add("front", "triple point at %s" % (key,))
    return report


def crossings_raw(f):
    """All transverse crossings among front segments (exact, unsorted)."""
    segs = list(f.all_segments())

    def adjacent(i, j):
        ci1, i1 = segs[i][:2]
        ci2, i2 = segs[j][:2]
        return ci1 == ci2 and _adjacent_segments(f.components[ci1], i1, i2)

    out = []
    for i, j, hits, error in torus_meets([s[2:] for s in segs], skip=adjacent):
        if error is not None:
            raise DegenerateGeometry(error)
        ci1, i1, t1, a1, b1 = segs[i]
        ci2, i2, _, a2, b2 = segs[j]
        for _, _, point in hits:
            out.append(_make_crossing(t1, point, (ci1, i1, a1, b1), (ci2, i2, a2, b2)))
    return out


def _adjacent_segments(comp, i1, i2):
    n = len(comp.vertices)
    return (i1 - i2) % n in (0, 1) or (i2 - i1) % n in (0, 1)


def _make_crossing(torus, point, seg1, seg2):
    ci1, i1, a1, b1 = seg1
    ci2, i2, a2, b2 = seg2
    s1 = slope(a1, b1)
    s2 = slope(a2, b2)
    if s1 == s2:
        raise DegenerateGeometry("crossing of equal slopes")
    if slope_closer_to_zero(s1, s2):
        over, under = seg1, seg2
    else:
        over, under = seg2, seg1
    d_over = sub(over[3], over[2])
    d_under = sub(under[3], under[2])
    sign = 1 if det(d_over, d_under) > 0 else -1
    return Crossing(torus, point, (over[0], over[1]), (under[0], under[1]), sign)


def crossings(f):
    """Transverse double points with depth and sign, canonically ordered."""
    out = crossings_raw(f)
    out.sort(key=lambda c: (c.torus, c.point[0] % 1, c.point[1] % 1, c.over, c.under))
    return out


def cusp_counts(f):
    """(D, U): cusps traversed downward and upward."""
    down = up = 0
    for comp in f.components:
        for i, v in enumerate(comp.vertices):
            if v.kind != CUSP:
                continue
            prev_pt, next_pt = comp.neighbor_points(i)
            if cusp_direction(prev_pt, v.point, next_pt) == "down":
                down += 1
            else:
                up += 1
    return down, up


def _page_crossings(f):
    """Directions (+1 upward) in which the front crosses the page t=0."""
    out = []
    for ci, i, torus, a, b in f.all_segments():
        if a[1] % 1 == 0 or b[1] % 1 == 0:
            raise InvalidInput("front vertex on t=0; perturb input")
        out.extend(direction for _, direction in integer_crossings(a[1], b[1]))
    return out


def lk_binding(f):
    """Signed crossings of the horizontal curve t = 0, +1 when t increases."""
    return sum(_page_crossings(f))


def _front_trace_pairs(d, f):
    """Each front segment with each trace segment on its torus that it
    meets or touches, with the torus_meets results of the pair."""
    fsegs = list(f.all_segments())
    tsegs = [
        (pi, side, curve.torus, q1, q2)
        for pi, side, curve in d.curves()
        for _, q1, q2 in curve.segments()
    ]
    for i, j, hits, error in torus_meets([s[2:] for s in fsegs], [s[2:] for s in tsegs]):
        pi, side, _, q1, q2 = tsegs[j]
        yield fsegs[i] + (pi, side, q1, q2, hits, error)


def trace_crossings(d, f):
    """Transverse crossings of a valid front with the labeled trace curves.

    Returns (pair_index, sign, t_mod, side) per crossing, the sign being
    +1 when the front crosses the oriented trace curve from its left to
    its right.
    """
    out = []
    # degenerate contacts are teleport junctions on valid fronts
    for _, _, _, a, b, pi, side, q1, q2, hits, _ in _front_trace_pairs(d, f):
        for _, _, point in hits:
            upward = 1 if det(sub(b, a), sub(q2, q1)) > 0 else -1
            out.append((pi, curve_orientation(side) * upward, point[1] % 1, side))
    return out


def _cylinder(d, f, labeled):
    """(class in the cylinder, trace crossings) of a valid front."""
    if _page_crossings(f):
        raise InvalidInput("front crosses the page t=0; not contained in the cylinder")
    hits = trace_crossings(d, f)
    coeffs = [0] * d.k
    for pi, sign, t_mod, _ in hits:
        lab = labeled.pair_label_at(pi, t_mod)
        for j in range(d.k):
            coeffs[j] += sign * lab.coeffs[j]
    return tuple(coeffs), hits


def cylinder_class(d, f):
    """Unreduced signed label sum over trace crossings (class in the
    cylinder).  Validates the front once at entry."""
    validate_front(d, f).raise_if_invalid("front")
    return _cylinder(d, f, propagate_labels(d))[0]


def front_class(d, f, group=None):
    """The class of the front in H_1(M), via the label counting rule.
    Validates the front once at entry."""
    labeled = propagate_labels(d)
    if group is None:
        group = h1_presentation(d, labeled)
    validate_front(d, f).raise_if_invalid("front")
    return group.reduce(_cylinder(d, f, labeled)[0])


def null_trace_crossings(d, f):
    """The trace crossings of a valid front that is null in the cylinder;
    any other class in the cylinder raises InvalidInput naming it."""
    cyl, hits = _cylinder(d, f, propagate_labels(d))
    if any(cyl):
        raise InvalidInput(
            "class in the cylinder is %r; supply auxiliary link X" % (cyl,)
        )
    return hits
