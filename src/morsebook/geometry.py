"""Exact planar/toroidal geometry for diagram charts.

Points are pairs (x, t) of Fractions in *lifted* coordinates: the chart
position on the torus is (x mod 1, t mod 1), and consecutive polyline
vertices carry literal displacements, so windings are recorded by the
lift.  All intersection tests are exact; degenerate contact (shared
interior points, touching endpoints, collinear overlap) is reported to
the caller, never resolved by epsilon.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def frac_str(q):
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator) if q.denominator != 1 else str(q.numerator)


def det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


class DegenerateGeometry(Exception):
    """Non-transverse contact between diagram elements."""


def segment_meet(p1, p2, q1, q2):
    """Meet of two closed segments in the plane (no torus wrapping).

    Returns None if disjoint, or (s, u, point) for a transverse
    crossing with parameters strictly inside both segments.  Raises
    DegenerateGeometry for collinear overlap or endpoint contact.
    """
    d1 = sub(p2, p1)
    d2 = sub(q2, q1)
    denom = det(d1, d2)
    w = sub(q1, p1)
    if denom == 0:
        if det(w, d1) != 0:
            return None  # parallel, distinct lines
        # collinear: overlap iff parameter intervals intersect
        if d1 == (0, 0) and d2 == (0, 0):
            if p1 == q1:
                raise DegenerateGeometry("coincident points")
            return None
        ref = d1 if d1 != (0, 0) else d2
        axis = 0 if ref[0] != 0 else 1
        a1, a2 = p1[axis], p2[axis]
        b1, b2 = q1[axis], q2[axis]
        lo1, hi1 = min(a1, a2), max(a1, a2)
        lo2, hi2 = min(b1, b2), max(b1, b2)
        if max(lo1, lo2) <= min(hi1, hi2):
            raise DegenerateGeometry("collinear overlap")
        return None
    s = Fraction(det(w, d2), denom)
    u = Fraction(det(w, d1), denom)
    if s < 0 or s > 1 or u < 0 or u > 1:
        return None
    if s == 0 or s == 1 or u == 0 or u == 1:
        raise DegenerateGeometry("endpoint contact")
    point = (p1[0] + s * d1[0], p1[1] + s * d1[1])
    return (s, u, point)


def box_overlaps(boxes):
    """Index pairs (i, j), i < j, of closed boxes that meet, in ascending order.

    ``boxes`` holds (x_lo, x_hi, y_lo, y_hi) tuples.  A sweep over the
    boxes sorted by x_lo keeps those whose x-extent still reaches the
    sweep line and compares only their y-extents: the candidate-pair
    step of a Bentley & Ottmann sweep (IEEE Trans. Comput. 1979).
    Boxes that share only an edge or a corner count as meeting.
    """
    out = []
    active = []
    for i in sorted(range(len(boxes)), key=lambda k: boxes[k][0]):
        x_lo, _, y_lo, y_hi = boxes[i]
        active = [j for j in active if boxes[j][1] >= x_lo]
        for j in active:
            if boxes[j][2] <= y_hi and y_lo <= boxes[j][3]:
                out.append((j, i) if j < i else (i, j))
        active.append(i)
    out.sort()
    return out


def _shift_range(a_lo, a_hi, b_lo, b_hi):
    """Integers n with [b_lo + n, b_hi + n] meeting [a_lo, a_hi]."""
    lo = a_lo - b_hi
    hi = a_hi - b_lo
    n0 = math.ceil(lo)
    n1 = math.floor(hi)
    return range(n0, n1 + 1)


def segment_meet_torus(p1, p2, q1, q2, skip_degenerate=False):
    """All transverse meets of two segments on the unit torus.

    Segments are given in lifted coordinates; the second segment is
    compared against all integer translates that can touch the first.
    Returns a list of (s, u, point) with the point in the first
    segment's lift.  A non-transverse translate contact raises
    DegenerateGeometry, or is dropped when ``skip_degenerate`` is set
    (used where an endpoint contact is a known, legitimate junction).
    """
    out = []
    ax_lo, ax_hi = min(p1[0], p2[0]), max(p1[0], p2[0])
    bx_lo, bx_hi = min(q1[0], q2[0]), max(q1[0], q2[0])
    at_lo, at_hi = min(p1[1], p2[1]), max(p1[1], p2[1])
    bt_lo, bt_hi = min(q1[1], q2[1]), max(q1[1], q2[1])
    for nx in _shift_range(ax_lo, ax_hi, bx_lo, bx_hi):
        for nt in _shift_range(at_lo, at_hi, bt_lo, bt_hi):
            r1 = (q1[0] + nx, q1[1] + nt)
            r2 = (q2[0] + nx, q2[1] + nt)
            try:
                hit = segment_meet(p1, p2, r1, r2)
            except DegenerateGeometry:
                if skip_degenerate:
                    continue
                raise
            if hit is not None:
                out.append(hit)
    return out


def torus_meets(segs, others=None, skip=None):
    """Every touching pair of segments on the unit tori, in exact integers.

    ``segs`` (and ``others``) hold (torus, a, b) triples in lifted
    coordinates.  The pairs are (i, j), i < j, within ``segs``, or each
    i of ``segs`` with each j of ``others``; only segments on one torus
    pair up, and ``skip(i, j)`` leaves a pair out before any test.
    Yields (i, j, hits, error) in ascending (i, j) for each pair that
    segment_meet_torus(a_i, b_i, a_j, b_j) finds a meet or a contact
    in: ``hits`` are its (s, u, point) meets on the transverse
    translates, in its translate order, and ``error`` is the message of
    its first degenerate translate, or None.

    The points are scaled once to integers over their common
    denominator.  Each segment's box goes into ``box_overlaps`` once for
    every unit cell it reaches, shifted into the cell [0, 1)^2, so a
    translate of one segment meets the other exactly when two of their
    copies meet; only those translates are tested, with integer
    determinants, and only a meet builds Fractions.
    """
    both = list(segs) if others is None else list(segs) + list(others)
    first = len(segs)
    scale = math.lcm(*(q.denominator for _, a, b in both for q in (*a, *b)))
    ints = [(_scaled(a, scale), _scaled(b, scale)) for _, a, b in both]
    cells = {}  # torus -> (boxes, (segment, x-cell, t-cell) per box)
    for k, (torus, _, _) in enumerate(both):
        (ax, at), (bx, bt) = ints[k]
        x_lo, x_hi, t_lo, t_hi = min(ax, bx), max(ax, bx), min(at, bt), max(at, bt)
        boxes, owners = cells.setdefault(torus, ([], []))
        for mx in range(-(x_hi // scale), (scale - 1 - x_lo) // scale + 1):
            for mt in range(-(t_hi // scale), (scale - 1 - t_lo) // scale + 1):
                dx, dt = mx * scale, mt * scale
                boxes.append((x_lo + dx, x_hi + dx, t_lo + dt, t_hi + dt))
                owners.append((k, mx, mt))
    shifts = set()  # (i, j, nx, nt): translate (nx, nt) of j meets i's box
    for boxes, owners in cells.values():
        for c1, c2 in box_overlaps(boxes):
            (k1, mx1, mt1), (k2, mx2, mt2) = sorted((owners[c1], owners[c2]))
            if k1 == k2 or (others is not None and not k1 < first <= k2):
                continue
            i, j = (k1, k2) if others is None else (k1, k2 - first)
            if skip is None or not skip(i, j):
                shifts.add((i, j, mx2 - mx1, mt2 - mt1))
    for (i, j), translates in itertools.groupby(sorted(shifts), key=lambda s: s[:2]):
        p1, p2 = ints[i]
        q1, q2 = ints[j if others is None else j + first]
        hits, error = [], None
        for _, _, nx, nt in translates:
            dx, dt = nx * scale, nt * scale
            try:
                meet = _meet_int(p1, p2, (q1[0] + dx, q1[1] + dt), (q2[0] + dx, q2[1] + dt))
            except DegenerateGeometry as e:
                error = error or str(e)
                continue
            if meet is not None:
                s_num, u_num, denom = meet
                den = scale * denom
                point = (
                    Fraction(p1[0] * denom + s_num * (p2[0] - p1[0]), den),
                    Fraction(p1[1] * denom + s_num * (p2[1] - p1[1]), den),
                )
                hits.append((Fraction(s_num, denom), Fraction(u_num, denom), point))
        if hits or error:
            yield i, j, hits, error


def _scaled(p, scale):
    """The point ``p`` times ``scale``, a common multiple of its denominators."""
    x, y = p
    return (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))


def _meet_int(p1, p2, q1, q2):
    """segment_meet on integer points: None, or (s_num, u_num, denom)
    with s = s_num / denom and u = u_num / denom, denom > 0."""
    d1 = sub(p2, p1)
    d2 = sub(q2, q1)
    denom = det(d1, d2)
    w = sub(q1, p1)
    if denom == 0:
        if det(w, d1) != 0:
            return None
        if d1 == (0, 0) and d2 == (0, 0):
            if p1 == q1:
                raise DegenerateGeometry("coincident points")
            return None
        axis = 0 if (d1 if d1 != (0, 0) else d2)[0] != 0 else 1
        a1, a2, b1, b2 = p1[axis], p2[axis], q1[axis], q2[axis]
        if max(min(a1, a2), min(b1, b2)) <= min(max(a1, a2), max(b1, b2)):
            raise DegenerateGeometry("collinear overlap")
        return None
    s_num, u_num = det(w, d2), det(w, d1)
    if denom < 0:
        denom, s_num, u_num = -denom, -s_num, -u_num
    if s_num < 0 or s_num > denom or u_num < 0 or u_num > denom:
        return None
    if s_num in (0, denom) or u_num in (0, denom):
        raise DegenerateGeometry("endpoint contact")
    return (s_num, u_num, denom)


VERTICAL = object()  # slope -infinity sentinel


def slope(p, q):
    """Front slope dt/dx of the segment p -> q; VERTICAL when x is constant."""
    dx = q[0] - p[0]
    dt = q[1] - p[1]
    if dx == 0:
        return VERTICAL
    return Fraction(dt, dx)


def slope_closer_to_zero(s1, s2):
    """True if slope s1 is strictly closer to 0 than s2 (both <= 0).

    VERTICAL counts as -infinity, the farthest from zero.
    """
    if s1 is VERTICAL:
        return False
    if s2 is VERTICAL:
        return True
    return s1 > s2


def branch_side(v, w):
    """Horizontal side on which the branch v->w leaves the vertex v.

    +1 for the right, -1 for the left.  Vertical branches count as the
    slope -infinity limit: downward = rightward, upward = leftward.
    """
    if w[0] > v[0]:
        return 1
    if w[0] < v[0]:
        return -1
    if w[1] < v[1]:
        return 1
    if w[1] > v[1]:
        return -1
    raise DegenerateGeometry("zero-length branch")


def cusp_direction(prev_pt, v, next_pt):
    """Classify a cusp vertex as 'down' or 'up'.

    The incident branches must leave v on a common horizontal side; the
    traversal runs prev -> v -> next.  'down' means the upper branch is
    the incoming one (the front passes from the upper branch to the
    lower), matching the classical front convention.
    """
    side_in = branch_side(v, prev_pt)
    side_out = branch_side(v, next_pt)
    if side_in != side_out:
        raise DegenerateGeometry("branches of a cusp on opposite sides")
    s_in = slope(v, prev_pt)
    s_out = slope(v, next_pt)
    if s_in is not VERTICAL and s_in == s_out:
        raise DegenerateGeometry("cusp with collinear branches")
    if s_in is VERTICAL and s_out is VERTICAL:
        raise DegenerateGeometry("cusp with two vertical branches")
    if side_in == 1:
        in_upper = slope_closer_to_zero(s_in, s_out)
    else:
        in_upper = slope_closer_to_zero(s_out, s_in)
    return "down" if in_upper else "up"


def integer_crossings(c1, c2):
    """Integers strictly between c1 and c2 with the crossing direction.

    Returns a list of (n, sign) where sign = +1 if the coordinate
    increases through n.  An endpoint exactly on an integer raises.
    """
    if c1 == c2:
        return []
    lo, hi = (c1, c2) if c1 < c2 else (c2, c1)
    if lo.denominator == 1 or hi.denominator == 1:
        raise DegenerateGeometry("endpoint on an integer line")
    sign = 1 if c2 > c1 else -1
    ns = range(math.floor(lo) + 1, math.ceil(hi))
    return [(n, sign) for n in ns]


def eval_piecewise(points, t):
    """Value x(t) of the piecewise-linear graph through ``points``.

    ``points`` is a list of (x, t) with t strictly increasing; t must
    lie within the covered range.
    """
    for (x1, t1), (x2, t2) in zip(points, points[1:]):
        if t1 <= t <= t2:
            if t1 == t2:
                return x1
            return x1 + (x2 - x1) * Fraction(t - t1, t2 - t1)
    raise ValueError("t=%s outside strand range" % (t,))


def min_positive_gap(values):
    """Smallest positive difference between distinct sorted values (or None)."""
    vals = sorted(set(values))
    best = None
    for a, b in zip(vals, vals[1:]):
        gap = b - a
        if best is None or gap < best:
            best = gap
    return best
