"""The generalized Lagrangian projection on a planar ribbon page.

The page is a round disc with untwisted rectangular bands, so the
constant horizontal field trivializes its tangent bundle; a Legendrian
contained in the cylinder over the page projects to an immersed
polygonal curve with over/under data.  Thurston-Bennequin is the
writhe, the rotation number is the turning number in the constant
trivialization, and the correction term against the Morse vector field
is the winding around the critical points, index +1 at the centre
source and -1 at each band saddle.

All computations are exact: turning and winding numbers come from
signed ray crossings, and the direct field-relative rotation sums the
Cauchy index of each edge's field against a reference direction, read
off a signed remainder sequence of integer polynomials at the edge's
two ends.

Every public function builds one integer frame at entry, ``_frame``:
the curve's edges, the marked points, the band arcs, the band corners,
the disc centre and the squared radius, all scaled once by the common
denominator.  ``_validate`` checks the frame, and the private bodies
that trust its verdict read the same frame; ``tb_writhe`` reads the
writhe off the crossing list that validation found.  The disc test
compares squared distances, the band test is a bounding box and a
convexity test on the corners, and the edge directions of the
reversal check, the turning number and the writhe are integer pairs.
One positive factor scales every point, so each sign and decision is
the one the rationals give.  Segment meets are geometry's
``_meet_int``; the crossing list tests only the pairs whose boxes meet.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .geometry import DegenerateGeometry, _meet_int, _scaled, box_overlaps, det, sub
from .validation import InvalidInput, ValidationReport


class Band:
    """An untwisted rectangular band attached along two edges.

    Corners are listed so that edges corner[0]-corner[1] and
    corner[2]-corner[3] are the attaching edges (overlapping the disc);
    the saddle point sits at the centroid.
    """

    def __init__(self, corners):
        self.corners = [(Fraction(x), Fraction(y)) for x, y in corners]
        if len(self.corners) != 4:
            raise ValueError("a band needs exactly four corners")

    @property
    def saddle(self):
        xs = sum(c[0] for c in self.corners)
        ys = sum(c[1] for c in self.corners)
        return (xs / 4, ys / 4)

    @property
    def transverse_arc(self):
        """The arc across the band; signed crossings count band passes."""
        a = _midpoint(self.corners[1], self.corners[2])
        b = _midpoint(self.corners[3], self.corners[0])
        return (a, b)


def _midpoint(a, b):
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


def _in_convex(corners, p):
    sign = 0
    n = len(corners)
    for i in range(n):
        a, b = corners[i], corners[(i + 1) % n]
        c = det(sub(b, a), sub(p, a))
        if c == 0:
            continue
        if sign == 0:
            sign = 1 if c > 0 else -1
        elif (c > 0) != (sign > 0):
            return False
    return True


class PageModel:
    def __init__(self, center, radius, bands=()):
        self.center = (Fraction(center[0]), Fraction(center[1]))
        self.radius = Fraction(radius)
        self.bands = list(bands)

    @property
    def source(self):
        return self.center

    @property
    def marked_points(self):
        return [self.center] + [b.saddle for b in self.bands]


class LagrangianDiagram:
    """Oriented immersed polygonal curves with crossing over/under data.

    ``over_under`` lists entries {"over": [comp, seg], "under": [comp,
    seg]}, one per geometric crossing.
    """

    def __init__(self, components, over_under=()):
        self.components = [
            [(Fraction(x), Fraction(y)) for x, y in comp] for comp in components
        ]
        self.over_under = [dict(e) for e in over_under]

    def segments(self):
        for ci, comp in enumerate(self.components):
            n = len(comp)
            for i in range(n):
                yield (ci, i, comp[i], comp[(i + 1) % n])


class _Frame(NamedTuple):
    """The page and the curve as integers over their common denominator."""

    scale: int
    edges: list  # per component, its edges (a, b), segment i from vertex i
    marked: list  # the centre, then each band's saddle
    arcs: list  # each band's transverse arc (a, b)
    corners: list  # each band's four corners
    centre: tuple
    r2: int  # the squared radius


def _frame(p, c):
    """The frame of page ``p`` and curve ``c``, scaled by one positive factor."""
    arcs = [b.transverse_arc for b in p.bands]
    marked = p.marked_points
    pts = [v for comp in c.components for v in comp] + marked + [q for arc in arcs for q in arc]
    pts += [q for b in p.bands for q in b.corners]
    scale = math.lcm(p.radius.denominator, *(q.denominator for pt in pts for q in pt))
    radius = p.radius.numerator * (scale // p.radius.denominator)
    return _Frame(
        scale,
        [_edges([_scaled(v, scale) for v in comp]) for comp in c.components],
        [_scaled(m, scale) for m in marked],
        [(_scaled(a, scale), _scaled(b, scale)) for a, b in arcs],
        [[_scaled(q, scale) for q in b.corners] for b in p.bands],
        _scaled(p.center, scale),
        radius * radius,
    )


def _edges(comp):
    n = len(comp)
    return [(comp[i], comp[(i + 1) % n]) for i in range(n)]


def _pieces(fr, v):
    """The page pieces that hold the scaled point v: "disc" and band indices."""
    dx, dy = sub(v, fr.centre)
    held = {"disc"} if dx * dx + dy * dy < fr.r2 else set()
    for i, corners in enumerate(fr.corners):
        xs = [q[0] for q in corners]
        ys = [q[1] for q in corners]
        if min(xs) <= v[0] <= max(xs) and min(ys) <= v[1] <= max(ys) and _in_convex(corners, v):
            held.add(i)
    return held


def diagram_crossings(c, fr=None):
    """All transverse self-intersections with their segment pairs.

    Returns ((ci1, s1), (ci2, s2), point) triples in ascending order of
    the two segments' places in ``c.segments()``, the point in the
    input coordinates.  Raises InvalidInput at the first such pair that
    overlaps collinearly or touches at an endpoint.  The tests run on
    the frame ``fr`` of the caller's page and ``c``, on the pairs whose
    boxes meet; without one, ``c`` is framed on the unit disc, which
    adds no denominator.  Edges of zero length are rejected by
    validation first.
    """
    if fr is None:
        fr = _frame(PageModel((0, 0), 1), c)
    segs = [(ci, si, e) for ci, comp in enumerate(fr.edges) for si, e in enumerate(comp)]
    boxes = [
        (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))
        for _, _, (a, b) in segs
    ]
    out = []
    for i, j in box_overlaps(boxes):
        ci1, s1, (a1, b1) = segs[i]
        ci2, s2, e2 = segs[j]
        if ci1 == ci2:
            n = len(fr.edges[ci1])
            if (s1 - s2) % n in (0, 1) or (s2 - s1) % n in (0, 1):
                continue
        try:
            meet = _meet_int(a1, b1, *e2)
        except DegenerateGeometry as e:
            if str(e) == "endpoint contact":
                raise InvalidInput("segments touch at an endpoint; perturb input") from None
            raise InvalidInput("collinear overlapping segments") from None
        if meet is not None:
            s_num, _, denom = meet
            scaled = fr.scale * denom
            pt = (
                Fraction(a1[0] * denom + s_num * (b1[0] - a1[0]), scaled),
                Fraction(a1[1] * denom + s_num * (b1[1] - a1[1]), scaled),
            )
            out.append(((ci1, s1), (ci2, s2), pt))
    return out


def band_pass_counts(p, c):
    """Signed traversals of each band: crossings with its transverse arc.

    A segment parallel to the arc, or along it, does not pass.
    """
    return _band_passes(_frame(p, c))


def _band_passes(fr):
    segs = [e for comp in fr.edges for e in comp]
    out = []
    for a, b in fr.arcs:
        total = 0
        d2 = sub(b, a)
        for q1, q2 in segs:
            sign = det(sub(q2, q1), d2)
            if sign == 0:
                continue
            try:
                meet = _meet_int(q1, q2, a, b)
            except DegenerateGeometry:
                raise InvalidInput("curve touches a band core endpoint; perturb") from None
            if meet is not None:
                total += 1 if sign > 0 else -1
        out.append(total)
    return out


def _require_null(fr):
    passes = _band_passes(fr)
    if any(passes):
        raise InvalidInput(
            "curve is not null-homologous in the page: band passes %r" % (passes,)
        )


def validate_lagrangian(p, c):
    """Check the diagram against the page and its own transversality."""
    return _validate(p, c)[0]


def _checked(p, c):
    """Validate at entry: the frame and the crossing list, or InvalidInput."""
    report, fr, found = _validate(p, c)
    report.raise_if_invalid("lagrangian diagram")
    return fr, found


def _validate(p, c):
    """The validation report, the frame and the crossing list that it checked.

    The list is None when the report fails before the crossings.
    """
    report = ValidationReport()
    fr = _frame(p, c)
    for i, m in enumerate(fr.marked):
        if m in fr.marked[:i]:
            report.add("page", "two marked points coincide; perturb the bands")
    for ci, comp in enumerate(fr.edges):
        loc = "component %d" % ci
        n = len(comp)
        if n < 3:
            report.add(loc, "component needs at least three vertices")
            continue
        pieces = [_pieces(fr, a) for a, _ in comp]
        for i, held in enumerate(pieces):
            if not held:
                report.add(loc, "vertex %d outside the page" % i)
        for i, (a, b) in enumerate(comp):
            if a == b:
                report.add(loc, "zero-length edge at vertex %d" % i)
                continue
            if not pieces[i] & pieces[(i + 1) % n]:
                report.add(loc, "segment %d leaves the page pieces" % i)
        # reversals make the turning number ill-defined
        dirs = _dirs(comp)
        for i in range(n):
            u, v = dirs[i], dirs[(i + 1) % n]
            if det(u, v) == 0 and (u[0] * v[0] + u[1] * v[1]) < 0:
                report.add(loc, "tangent reversal at vertex %d" % ((i + 1) % n))
    if not report.ok:
        return report, fr, None

    points = fr.marked + [q for corners in fr.corners for q in corners]
    for comp in fr.edges:
        for a, b in comp:
            for m in points:
                if _on_segment(a, b, m):
                    report.add("page", "curve passes through a marked or corner point")

    try:
        found = diagram_crossings(c, fr)
    except InvalidInput as e:
        report.add("crossings", str(e))
        return report, fr, None
    pts = {}
    for _, _, pt in found:
        pts[pt] = pts.get(pt, 0) + 1
    for pt, cnt in pts.items():
        if cnt > 1:
            report.add("crossings", "triple point at %s" % (pt,))
    keys = {frozenset([tuple(e["over"]), tuple(e["under"])]) for e in c.over_under}
    if len(keys) != len(c.over_under):
        report.add("crossings", "duplicate over/under entries")
    want = {frozenset([k1, k2]) for k1, k2, _ in found}
    if keys != want:
        report.add("crossings", "over/under table does not match the crossings")
    return report, fr, found


def _on_segment(a, b, m):
    if not (min(a[0], b[0]) <= m[0] <= max(a[0], b[0])):
        return False
    if not (min(a[1], b[1]) <= m[1] <= max(a[1], b[1])):
        return False
    return det(sub(b, a), sub(m, a)) == 0


def _dirs(comp):
    """The direction b - a of each edge (a, b)."""
    return [sub(b, a) for a, b in comp]


def tb_writhe(p, c):
    """Thurston-Bennequin number: the writhe; validates once at entry."""
    fr, found = _checked(p, c)
    _require_null(fr)
    dirs = [_dirs(comp) for comp in fr.edges]
    table = {
        frozenset([tuple(e["over"]), tuple(e["under"])]): (
            tuple(e["over"]),
            tuple(e["under"]),
        )
        for e in c.over_under
    }
    total = 0
    for k1, k2, _ in found:
        (co, so), (cu, su) = table[frozenset([k1, k2])]
        total += 1 if det(dirs[co][so], dirs[cu][su]) > 0 else -1
    return total


# deterministic fallback directions, as primitive integer pairs: simple
# ones first, then slopes with a large prime denominator that miss
# structured rational data
_FALLBACK_RAYS = [(1, 0), (1, 1), (1, -1), (2, 1), (1, 2), (3, 1)] + [
    (257, (-1) ** k * (2 * k + 1)) for k in range(48)
]


def _first_ray(count, message):
    """count(rho) on the first fallback ray where it is not None."""
    for rho in _FALLBACK_RAYS:
        val = count(rho)
        if val is not None:
            return val
    raise InvalidInput(message)


def turning_number(p, c):
    """Whitney index of the tangent, summed over components; validates once at entry."""
    fr, _ = _checked(p, c)
    return _turning(fr)


def _turning(fr):
    total = 0
    for comp in fr.edges:
        dirs = _dirs(comp)
        total += _first_ray(
            lambda rho: _direction_winding(dirs, rho) if all(det(rho, d) for d in dirs) else None,
            "could not select a reference direction",
        )
    return total


def _direction_winding(dirs, rho):
    """Signed crossings of the cyclic direction sequence through rho."""
    total = 0
    n = len(dirs)
    for i in range(n):
        u, v = dirs[i], dirs[(i + 1) % n]
        c = det(u, v)
        if c == 0:
            continue  # straight continuation
        if c > 0:
            if det(u, rho) > 0 and det(rho, v) > 0:
                total += 1
        else:
            if det(v, rho) > 0 and det(rho, u) > 0:
                total -= 1
    return total


def winding_numbers(p, c):
    """Winding of the curve around each marked point; validates once at entry."""
    fr, _ = _checked(p, c)
    return _windings(fr)


def _windings(fr):
    _require_null(fr)
    segs = [e for comp in fr.edges for e in comp]
    return [
        _first_ray(
            lambda rho: _try_ray(segs, m, rho),
            "no admissible ray around %r; perturb input"
            % ((Fraction(m[0], fr.scale), Fraction(m[1], fr.scale)),),
        )
        for m in fr.marked
    ]


def _try_ray(segs, m, rho):
    """Signed crossings of the ray from m along rho; None when the ray
    starts on a segment, meets a vertex or runs along a segment.  A
    segment whose line, but not the segment itself, passes through m
    does not block the ray."""
    total = 0
    for a, b in segs:
        d = sub(b, a)
        denom = det(rho, d)
        w = sub(a, m)
        if denom == 0:
            if det(w, d) == 0:
                return None  # segment collinear with the ray
            continue
        # m + s*rho = a + u*d with s = s_num/denom and u = u_num/denom
        sign = 1 if denom > 0 else -1
        s_num, u_num, denom = sign * det(w, d), sign * det(w, rho), sign * denom
        if u_num in (0, denom) and s_num >= 0:
            return None  # vertex on the ray: reselect
        if s_num == 0 and 0 <= u_num <= denom:
            return None  # m on the segment
        if s_num > 0 and 0 < u_num < denom:
            total += sign
    return total


# --- the Morse field: a source at the centre, a saddle per band -------
#
# Polynomials are integer coefficient lists, lowest degree first.  Only
# signs are read, so each is kept primitive, and only at s = 0 and s = 1:
# the constant term and the coefficient sum.


def _primitive(p):
    """p without leading zeros, divided by its content; signs are unchanged."""
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    g = math.gcd(*p[:n])
    return [x // g for x in p[:n]] if g > 1 else p[:n]


def _remainders(p, q):
    """The signed remainder sequence p, q, -rem(p, q), ..., each member primitive.

    Each remainder is the pseudo-remainder times |lc|^(delta+1) over its
    lc^(delta+1), negated: a positive multiple of minus the remainder.
    """
    seq = [_primitive(p), _primitive(q)]
    while any(seq[-1]) and len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        lead, db = b[-1], len(b) - 1
        steps = max(len(a) - db, 0)  # none when deg a < deg b: rem(a, b) = a
        r = list(a)
        for _ in range(steps):
            top = r.pop()
            shift = len(r) - db
            r = [lead * x for x in r]
            for i in range(db):
                r[shift + i] -= top * b[i]
        if not any(r):
            break
        sign = -1 if lead < 0 and steps % 2 else 1
        seq.append(_primitive([-sign * x for x in r]))
    return seq


def _variations(values):
    """Sign changes along the sequence of values, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _edge_fields(edges, c0, saddles):
    """The field (X(s), Y(s)) along each edge a + s(b - a): (z - c0)
    times the product of conj(z - c_j), exact in s."""
    out = []
    for a, b in edges:
        dx, dy = b[0] - a[0], b[1] - a[1]
        re, im = [a[0] - c0[0], dx], [a[1] - c0[1], dy]
        for s in saddles:
            fre, fim = (a[0] - s[0], dx), (s[1] - a[1], -dy)  # conjugate factor
            re, im = (
                [x - y for x, y in zip(_times(re, fre), _times(im, fim))],
                [x + y for x, y in zip(_times(re, fim), _times(im, fre))],
            )
        out.append((re, im))
    return out


def _times(p, u):
    """p times the linear polynomial u[0] + u[1]*s."""
    return [x * u[0] + y * u[1] for x, y in zip(p + [0], [0] + p)]


def field_relative_turning(p, c):
    """Rotation of the tangent against the Morse field, directly.

    Computed as turning(tangent) minus the exact winding of the field
    direction along the curve, the latter by Cauchy indices against a
    reference direction.  Validates once at entry.
    """
    fr, _ = _checked(p, c)
    return _turning(fr) - _field_windings(fr)


def _field_windings(fr):
    """Winding of the Morse field's direction along the curve."""
    total = 0
    for comp in fr.edges:
        fields = _edge_fields(comp, fr.centre, fr.marked[1:])
        total += _first_ray(
            lambda rho: _field_winding_ray(fields, rho),
            "no admissible reference direction for the field winding",
        )
    return total


def _field_winding_ray(fields, rho):
    """Winding of the field (X, Y) along the closed curve against rho.

    By Sturm-Tarski, the Cauchy index of Q/D over an edge, with
    D = det(rho, V) and Q = dot(rho, V), is the sign variation of their
    signed remainder sequence at s = 0 (the constant terms) minus that
    at s = 1 (the coefficient sums).  Q/D jumps from -inf to +inf each
    time V turns positively past rho or past -rho, so the indices sum to
    twice the winding.  None when D vanishes at a vertex.
    """
    if any(rho[0] * im[0] == rho[1] * re[0] for re, im in fields):
        return None  # field aligned with rho at a vertex
    total = 0
    for re, im in fields:
        seq = _remainders(
            [rho[0] * y - rho[1] * x for x, y in zip(re, im)],
            [rho[0] * x + rho[1] * y for x, y in zip(re, im)],
        )
        total += _variations([p[0] for p in seq]) - _variations([sum(p) for p in seq])
    if total % 2:
        raise AssertionError("odd Cauchy index %d of the field along a closed curve" % total)
    return total // 2


class LagrangianRotation:
    """The rotation number with its Morse-field decomposition."""

    def __init__(self, rot, surface_term, rot_v0, windings):
        self.rot = rot
        self.surface_term = surface_term
        self.rot_v0 = rot_v0
        self.windings = windings

    def as_dict(self):
        return {
            "rot": self.rot,
            "L_dot_H": self.surface_term,
            "rot_V0": self.rot_v0,
            "windings": self.windings,
        }


def rot_lagrangian(p, c):
    """Rotation number from the page projection.

    rot equals the turning number in the constant trivialization; the
    surface term is winding(c0) minus the saddle windings, and the
    field-relative rotation is cross-checked against an independent
    direct computation along the curve.  Validates once at entry and
    counts the turning once.
    """
    fr, _ = _checked(p, c)
    w = _windings(fr)
    rot = _turning(fr)
    surface = w[0] - sum(w[1:])
    rot_v0 = rot - surface
    direct = rot - _field_windings(fr)
    if direct != rot_v0:
        raise AssertionError(
            "field-relative rotation mismatch: direct %d vs decomposition %d"
            % (direct, rot_v0)
        )
    return LagrangianRotation(rot, surface, rot_v0, w)
