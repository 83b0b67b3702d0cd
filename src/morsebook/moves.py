"""Local rewrites of front projections: the front Reidemeister moves.

Every move is a deterministic pattern-to-replacement rewrite at a
user-addressed site, built in exact rational coordinates.  apply_move
validates the whole output front; apply_script validates its input
once and each output only where the move rewrote it, in full only when
that local check refuses.  Quantitative contracts: r1 inserts a kink
with one up and one down cusp and a single new crossing; k2 wraps the
front once around the binding direction, trading one horizontal curve
of the resolution against a same-direction cusp pair; b1 folds the
front once around the page direction, trading one binding crossing
against a same-direction cusp pair; cusp_trace passes a cusp across a
trace curve; s1 nudges a cusp tip within its face; k3 exchanges a cusp
poked through a trace curve for a cusp teleported behind the partner
curve.  stabilize inserts a same-direction cusp pair and is the one
move that changes the Legendrian class.

Sites are never searched for: the caller addresses a component, a
segment or vertex, and parameters.  A site that does not match a
move's input pattern raises PatternNotFound.

r1 and stabilize splice one template in at the first of twelve halving
scales whose open box around it is clear: no trace or front segment
other than the host meets the box on any lattice translate.  The box and
the segments are scaled once to integers, and each segment is clipped
against the box's two slabs (Liang & Barsky 1984) by cross-multiplication.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .diagram import MINUS, PLUS
from .fileio import ParseError, _is_int, _rat
from .front import (
    CUSP,
    ENTER,
    EXIT,
    PLAIN,
    TELEPORT,
    FrontComponent,
    FrontProjection,
    Vertex,
    _rewrite_is_valid,
    validate_front,
)
from .geometry import DegenerateGeometry, _scaled, branch_side, cusp_direction, det, sub
from .validation import InvalidInput


class PatternNotFound(InvalidInput):
    """The addressed site does not match the move's input pattern."""


MOVE_NAMES = ("r1", "r1_inv", "stabilize", "cusp_trace", "s1", "k2", "b1", "k3")

# moves whose instances are Legendrian isotopies; stabilize changes the
# knot and is excluded from the invariance suites
ISOTOPY_MOVES = ("r1", "r1_inv", "cusp_trace", "s1", "k2", "b1", "k3")


def apply_move(d, f, move, site):
    """Apply one named move at the given site; the whole output front is
    validated, the input is not."""
    out, _ = _step(d, f, move, site)
    _require_valid(d, out, move)
    return out


def apply_script(d, f, script):
    """Apply an ordered list of {move, site} records.

    The input front is validated once, in full; each step's output is
    then checked only where the move rewrote it, and in full only when
    that local check refuses.  A move rewrites one window of one
    component and shifts the vertices after it by an integer vector
    (k2 and b1 by a page or a turn), moving the closure with them; it
    removes no teleport vertex.  So every segment outside the window is
    a lattice translate of a segment of the valid input, and the rules
    that read only translates of what held there still hold: the
    vertex-local rules away from the window, the trace contacts of old
    segments (their teleport exemptions survive) and the crossings and
    contacts among old segments.  What remains is local: the vertex
    rules at the rewritten vertices and their two neighbours, the new
    segments against the trace curves and against every segment, and
    the points of the crossings they add (``front._rewrite_is_valid``).
    A new segment meets its old neighbour on every translate but the
    one where they share a vertex, so no separate check of the old
    neighbours is needed: a triple point there shows among those
    crossings twice.  Every refusal therefore comes from the full ``validate_front`` and
    reads as ``apply_move``'s does.
    """
    validate_front(d, f).raise_if_invalid("front")
    for step in script:
        move = step["move"]
        f, window = _step(d, f, move, step.get("site", {}))
        if not _rewrite_is_valid(d, f, *window):
            _require_valid(d, f, move)
    return f


def _step(d, f, move, site):
    """The unchecked output of one move and its window (component,
    first and last rewritten segment)."""
    if move not in MOVE_NAMES:
        raise InvalidInput("unknown move %r" % (move,))
    return globals()["_move_" + move](d, f, dict(site))


def _require_valid(d, f, move):
    report = validate_front(d, f)
    if not report.ok:
        raise PatternNotFound(
            "move %s yields an invalid front here: %s" % (move, report.issues[0][1])
        )


# --------------------------------------------------------------- helpers


def _replace_component(f, ci, comp, first, last):
    """``f`` with component ``ci`` replaced, and the window of the
    rewrite: segments ``first`` to ``last`` of ``comp`` are new."""
    comps = list(f.components)
    comps[ci] = comp
    return FrontProjection(comps), (ci, first, last)


def _segment_endpoints(comp, si):
    a = comp.vertices[si]
    if a.kind == TELEPORT and a.role == EXIT:
        raise PatternNotFound("site addresses a teleport jump, not a segment")
    return a.point, comp.lifted(si + 1)


def _insert_vertices(f, ci, si, new_vertices, shift=(0, 0)):
    """Splice vertices into component ci after vertex si, shifting the
    rest of the lift by the integer vector ``shift``."""
    comp = f.components[ci]
    out = []
    for i, v in enumerate(comp.vertices):
        if i <= si:
            out.append(v)
        else:
            out.append(v.shifted(shift[0], shift[1]))
        if i == si:
            out.extend(new_vertices)
    closure = (comp.closure[0] + shift[0], comp.closure[1] + shift[1])
    out_comp = FrontComponent(comp.torus, out, closure)
    return _replace_component(f, ci, out_comp, si, si + len(new_vertices))


def _site_key(site, key):
    if key not in site:
        raise PatternNotFound("site has no %r" % (key,))
    return site[key]


def _site_index(site, key, items):
    """The index ``site[key]`` into ``items``, checked to be in range;
    only a Python ``int`` is an index (no bool, float or string)."""
    i = _site_key(site, key)
    if not _is_int(i):
        raise PatternNotFound("site %s %r is not an integer" % (key, i))
    if not 0 <= i < len(items):
        raise PatternNotFound("site %s %d is out of range" % (key, i))
    return i


def _site_component(f, site):
    ci = _site_index(site, "component", f.components)
    return ci, f.components[ci]


def _site_fraction(site, key, default):
    """``site[key]`` as a Fraction, or ``default`` when the key is absent.
    Besides a Fraction, only what a workspace takes as a rational passes:
    an int (not a bool) or an ASCII ``p/q`` string."""
    value = site.get(key, default)
    if isinstance(value, Fraction):
        return value
    try:
        return _rat(value, key)
    except ParseError:
        raise PatternNotFound("site %s %r is not a rational" % (key, value)) from None


def _site_pair(d, site):
    """The trace pair and the side that a site names."""
    pid = _site_key(site, "pair")
    side = _site_key(site, "side")
    if side not in (PLUS, MINUS):
        raise PatternNotFound("site side must be %r or %r" % (PLUS, MINUS))
    try:
        return d.trace_pairs[d.pair_index(pid)], side
    except KeyError:
        raise PatternNotFound("no trace pair with id %r" % (pid,)) from None


def _site_cusp(comp, site):
    vi = _site_index(site, "vertex", comp.vertices)
    if comp.vertices[vi].kind != CUSP:
        raise PatternNotFound("site vertex is not a cusp")
    return vi, comp.vertices[vi]


def _site_point(comp, site, key="u"):
    si = _site_index(site, "segment", comp.vertices)
    u = _site_fraction(site, key, Fraction(1, 2))
    if not (0 < u < 1):
        raise PatternNotFound("parameter %s must lie strictly inside the segment" % key)
    a, b = _segment_endpoints(comp, si)
    p = (a[0] + u * (b[0] - a[0]), a[1] + u * (b[1] - a[1]))
    return si, u, a, b, p


def _box_is_clear(d, f, torus, box, skip=()):
    """True when no trace or front segment on ``torus``, on any lattice
    translate, meets the open box (x_lo, x_hi, t_lo, t_hi); ``skip``
    lists (component, segment) pairs belonging to the site itself.

    Each segment visits only the translates whose extent reaches the
    box, and meets it exactly when the open parameter intervals of its
    x-slab and t-slab meet each other and [0, 1] (Liang & Barsky, ACM
    TOG 3(1), 1984).
    """
    segs = [(a, b) for _, _, c in d.curves() if c.torus == torus for _, a, b in c.segments()]
    for ci, comp in enumerate(f.components):
        if comp.torus == torus:
            segs += [(a, b) for si, a, b in comp.segments() if (ci, si) not in skip]
    coords = [*box, *(c for seg in segs for point in seg for c in point)]
    scale = math.lcm(*(c.denominator for c in coords))
    (x_lo, t_lo), (x_hi, t_hi) = _scaled(box[::2], scale), _scaled(box[1::2], scale)
    for a, b in segs:
        (ax, at), (bx, bt) = _scaled(a, scale), _scaled(b, scale)
        for nx in _reach(ax, bx, x_lo, x_hi, scale):
            l1, h1, d1 = _slab(ax + nx * scale, bx + nx * scale, x_lo, x_hi)
            for nt in _reach(at, bt, t_lo, t_hi, scale):
                l2, h2, d2 = _slab(at + nt * scale, bt + nt * scale, t_lo, t_hi)
                low, high = max(l1 * d2, l2 * d1), min(h1 * d2, h2 * d1)
                if low < high and low < d1 * d2 and high > 0:
                    return False
    return True


def _reach(a, b, lo, hi, scale):
    """The n for which [a, b] + n * scale, either way round, meets (lo, hi)."""
    return range((lo - max(a, b)) // scale + 1, -((min(a, b) - hi) // scale))


def _slab(a, b, lo, hi):
    """The open parameter interval of a -> b inside (lo, hi), as
    (low numerator, high numerator, denominator > 0).  A constant
    coordinate, which ``_reach`` has put inside, gives (-1, 2): all of
    [0, 1]."""
    if a < b:
        return (lo - a, hi - a, b - a)
    if a > b:
        return (a - hi, a - lo, a - b)
    return (-1, 2, 1)


def _descent(a, b, move):
    """The |slope| of the host segment a -> b, which must run rightward
    and strictly down."""
    dx, dt = b[0] - a[0], b[1] - a[1]
    if dx <= 0 or dt >= 0:
        raise PatternNotFound("%s wants a rightward strictly descending segment" % move)
    return Fraction(-dt, dx)


def _cusp_dir_at(comp, vi):
    prev_pt, next_pt = comp.neighbor_points(vi)
    return cusp_direction(prev_pt, comp.vertices[vi].point, next_pt)


def _move_tip(f, ci, comp, vi, new_x, refusal):
    """``f`` with the tip of cusp ``vi`` moved to x = ``new_x``; refused
    with ``refusal`` when that would change the cusp's direction or
    leave it without one."""
    before = _cusp_dir_at(comp, vi)
    verts = list(comp.vertices)
    verts[vi] = Vertex(new_x, verts[vi].t, CUSP)
    out_comp = FrontComponent(comp.torus, verts, comp.closure)
    try:
        after = _cusp_dir_at(out_comp, vi)
    except DegenerateGeometry:
        after = None
    if after != before:
        raise PatternNotFound(refusal)
    return _replace_component(f, ci, out_comp, vi - 1, vi)


# ------------------------------------------------------ r1 and stabilize
# Templates in units of (h, h*|s|) around the insertion point p on a
# host of slope -|s|: the two cusps, the rejoin point q, the open box
# (x_lo, x_hi, t_lo, t_hi) that must be clear, and the divisor of the
# largest scale h.  The r1 kink carries one down cusp, one up cusp and
# one positive crossing with the strand just behind p; the stabilizing
# cusp pairs, 'down' and 'up', carry no crossing, and their boxes are
# the template's hull widened by 1/10.

_KINKS = {
    "r1": (
        ((Fraction(1, 2), -2), (Fraction(-3, 2), 2), (1, -1)),
        (Fraction(-8, 5), Fraction(11, 10), Fraction(-21, 10), Fraction(21, 10)),
        4,
    ),
    "down": (
        ((1, -4), (-1, Fraction(-7, 2)), (8, -8)),
        (Fraction(-11, 10), Fraction(81, 10), Fraction(-81, 10), Fraction(1, 10)),
        16,
    ),
    "up": (
        ((1, Fraction(-1, 4)), (Fraction(7, 8), Fraction(1, 2)), (Fraction(9, 4), Fraction(-9, 4))),
        (Fraction(-1, 10), Fraction(47, 20), Fraction(-47, 20), Fraction(3, 5)),
        16,
    ),
}


def _move_r1(d, f, site):
    ci, comp = _site_component(f, site)
    return _insert_kink(d, f, site, ci, comp, "r1", "r1", "the r1 kink")


def _move_stabilize(d, f, site):
    """Insert a same-direction cusp pair: variant 'down' (default) or 'up'."""
    ci, comp = _site_component(f, site)
    variant = site.get("variant", "down")
    if variant not in ("down", "up"):
        raise PatternNotFound("stabilize variant must be 'down' or 'up'")
    return _insert_kink(d, f, site, ci, comp, "stabilize", variant, "the stabilization")


def _insert_kink(d, f, site, ci, comp, move, kink, what):
    """Splice the ``_KINKS[kink]`` template in at the site's point, at
    the first of twelve halving scales (or the site's ``scale``) whose
    box lies inside the host's x-span and is clear."""
    (v1, v2, q), box, divisor = _KINKS[kink]
    si, u, a, b, p = _site_point(comp, site)
    s_abs = _descent(a, b, move)
    top = min(p[0] - a[0], b[0] - p[0]) / divisor
    scales = [top / 2 ** k for k in range(12)]
    if "scale" in site:
        scales = [_site_fraction(site, "scale", None)]
    for h in scales:
        if h <= 0:
            continue

        def world(x, t):
            return (p[0] + x * h, p[1] + t * h * s_abs)

        (x_lo, t_lo), (x_hi, t_hi) = world(*box[::2]), world(*box[1::2])
        if a[0] < x_lo and x_hi < b[0] and _box_is_clear(
            d, f, comp.torus, (x_lo, x_hi, t_lo, t_hi), skip={(ci, si)}
        ):
            verts = [Vertex(*p, PLAIN), Vertex(*world(*v1), CUSP), Vertex(*world(*v2), CUSP)]
            verts.append(Vertex(*world(*q), PLAIN))
            return _insert_vertices(f, ci, si, verts)
    raise PatternNotFound("no clear room for %s at this site" % what)


def _move_r1_inv(d, f, site):
    """Remove a kink: a plain-cusp-cusp-plain splice collapses to a segment."""
    ci, comp = _site_component(f, site)
    i = _site_index(site, "vertex", comp.vertices)
    n = len(comp.vertices)
    if n < 6:
        raise PatternNotFound("component too small to carry a kink")
    if [comp.vertex(i + k).kind for k in range(4)] != [PLAIN, CUSP, CUSP, PLAIN]:
        raise PatternNotFound("site is not a kink (plain, cusp, cusp, plain)")
    prev_pt, p, q, next_pt = (comp.lifted(i + k) for k in (-1, 0, 3, 4))
    d1 = sub(q, p)
    if det(sub(p, prev_pt), d1) != 0 or det(d1, sub(next_pt, q)) != 0:
        raise PatternNotFound("kink endpoints are not collinear with the strand")
    out = [v for k, v in enumerate(comp.vertices) if not (0 <= (k - i) % n < 4)]
    # the one new segment joins the kink's two neighbours; the list now
    # ends at the first of them when the kink ran across its start
    joint = min(i, n - 4) - 1
    return _replace_component(f, ci, FrontComponent(comp.torus, out, comp.closure), joint, joint)


# ----------------------------------------------------------- cusp_trace


def _move_cusp_trace(d, f, site):
    """Pass a cusp tip across a trace curve (the curve must be vertical
    over the cusp's t-extent and the swept strip otherwise clear)."""
    ci, comp = _site_component(f, site)
    vi, v = _site_cusp(comp, site)
    pair, side = _site_pair(d, site)
    curve = pair.curve(side)
    if curve.torus != comp.torus:
        raise PatternNotFound("target trace curve lives on another torus")
    prev_pt, next_pt = comp.neighbor_points(vi)
    x_line = _constant_x_on(curve, (prev_pt[1], v.t, next_pt[1]))
    tip_side = branch_side(v.point, prev_pt)
    gap = _gap_to_line(v.x, x_line)
    if gap is None:
        raise PatternNotFound("cusp tip sits on the trace curve")
    dist, direction = gap
    if direction == tip_side:
        raise PatternNotFound("cusp points away from the trace curve")
    depth = _site_fraction(site, "depth", dist / 2)
    new_x = v.x - tip_side * (dist + depth)
    return _move_tip(f, ci, comp, vi, new_x, "crossing would flip the cusp; change depth")


def _constant_x_on(curve, ts):
    """The x (mod 1) of ``curve``, which must be vertical at one x over
    the t-span of the values ``ts``."""
    span_lo = min(ts) % 1
    span_hi = span_lo + (max(ts) - min(ts))
    xs = set()
    for strand in curve.strands:
        for (x1, t1), (x2, t2) in zip(strand, strand[1:]):
            if t2 <= span_lo or t1 >= span_hi:
                continue
            if x1 != x2:
                raise PatternNotFound("trace curve is not vertical over the site band")
            xs.add(x1 % 1)
    if len(xs) != 1:
        raise PatternNotFound("trace curve is not constant over the site band")
    return xs.pop()


def _gap_to_line(x, x_line):
    delta = (x_line - x) % 1
    if delta == 0:
        return None
    if delta <= Fraction(1, 2):
        return (delta, 1)
    return (1 - delta, -1)


# ------------------------------------------------------------------- s1


def _move_s1(d, f, site):
    """Nudge a cusp tip along its pointing direction within its face."""
    ci, comp = _site_component(f, site)
    vi, v = _site_cusp(comp, site)
    prev_pt, _ = comp.neighbor_points(vi)
    tip_side = branch_side(v.point, prev_pt)
    depth = _site_fraction(site, "depth", Fraction(1, 1024))
    new_x = v.x - tip_side * depth
    return _move_tip(f, ci, comp, vi, new_x, "nudge would flip the cusp; reduce depth")


# ------------------------------------------------------------------- k2


def _move_k2(d, f, site):
    """Wrap the front once around the binding direction.

    Variant 'left' inserts an ascending leftward wrap (x-winding -1,
    two down cusps); 'right' a descending rightward wrap (+1, two up
    cusps).  The wrap teleports through each trace pair it meets and
    crosses the seam; it needs a clean horizontal band with all trace
    curves vertical across it, and a partner walk that meets every
    trace curve at most once (which also makes it land back at the
    detach position exactly).
    """
    ci, comp = _site_component(f, site)
    variant = site.get("variant", "left")
    if variant not in ("left", "right"):
        raise PatternNotFound("k2 variant must be 'left' or 'right'")
    si, u, a, b, p = _site_point(comp, site)
    u2 = _site_fraction(site, "u2", u + (1 - u) / 4)
    if not (u < u2 < 1):
        raise PatternNotFound("u2 must lie strictly between u and 1")
    q = (a[0] + u2 * (b[0] - a[0]), a[1] + u2 * (b[1] - a[1]))
    s_abs = _descent(a, b, "k2")
    w = q[0] - p[0]
    eta = _site_fraction(site, "overshoot", Fraction(1, 2 ** 14))

    if variant == "left":
        height = _site_fraction(site, "band", min(s_abs, Fraction(1, 32)) / 8)
        if not height < s_abs:
            raise PatternNotFound("band must be flatter than the host segment")
        t_lo, t_hi = p[1] % 1, p[1] % 1 + height
    else:
        height = _site_fraction(site, "band", (w * s_abs) * 2)
        # below the drop over chord and overshoot, the return leg is
        # flatter than the host and the final cusp at q turns down
        if not ((w + eta) * s_abs < height < s_abs):
            raise PatternNotFound("band height must sit between the drop to q + eta and the slope")
        t_lo, t_hi = p[1] % 1 - height, p[1] % 1
    if not (0 < t_lo and t_hi < 1):
        raise PatternNotFound("band crosses the page t=0; choose another site")
    _require_clear_band(d, t_lo, t_hi)
    stations = _vertical_stations(d, comp.torus, (t_lo, t_hi))
    sign = -1 if variant == "left" else 1
    for x_st, _, _ in stations:
        if (x_st - p[0]) % 1 <= (q[0] - p[0] + eta) % 1:
            raise PatternNotFound("a trace curve foot sits between detach and attach")
    extra = Fraction(0) if variant == "left" else (w + eta)
    legs, end_lift, revisit = _partner_walk(p[0], stations, sign, extra)
    if revisit:
        raise PatternNotFound("partner walk revisits a trace curve; site ineligible")
    if (end_lift - p[0]) % 1 != (0 if variant == "left" else (w + eta) % 1):
        raise PatternNotFound("partner walk does not land at the detach position")

    total = sum(l for l, _ in legs)
    verts = []
    travelled = Fraction(0)
    for length, event in legs:
        travelled += length
        if event is None:
            continue
        lift_exit, pid, side, lift_enter, partner = event
        t_here = p[1] - sign * height * travelled / total
        verts.append(Vertex(lift_exit, t_here, TELEPORT, pair=pid, side=side, role=EXIT))
        verts.append(Vertex(lift_enter, t_here, TELEPORT, pair=pid, side=partner, role=ENTER))
    t_far = p[1] - sign * height

    if variant == "left":  # detach at a cusp, rejoin plainly
        p_kind, q_kind, q_x = CUSP, PLAIN, end_lift + w
    else:  # detach plainly, rejoin at a cusp one overshoot short
        p_kind, q_kind, q_x = PLAIN, CUSP, end_lift - eta
    new_vertices = [Vertex(p[0], p[1], p_kind)] + verts
    new_vertices += [Vertex(end_lift, t_far, CUSP), Vertex(q_x, q[1], q_kind)]
    shift_x = q_x - q[0]
    if shift_x % 1 != 0:
        raise AssertionError("k2 wrap shift is not integral")
    return _insert_vertices(f, ci, si, new_vertices, (int(shift_x), 0))


def _require_clear_band(d, t_lo, t_hi):
    # other front strands may cross the wrap transversally; only handle
    # slides inside the band break the construction
    for pair in d.trace_pairs:
        for tp in pair.teleports:
            if t_lo < tp.t < t_hi:
                raise PatternNotFound("a handle slide sits in the wrap band")


def _vertical_stations(d, torus, band):
    out = []
    for pair in d.trace_pairs:
        for side in (PLUS, MINUS):
            curve = pair.curve(side)
            if curve.torus == torus:
                out.append((_constant_x_on(curve, band), pair.id, side))
    return out


def _partner_walk(start_lift, stations, sign, extra=Fraction(0)):
    """Walk around the torus once (plus ``extra``), teleporting through
    every trace curve met; returns (legs, final lift, revisit flag).

    Each leg is (length, event) where event is None for the final run
    or (exit lift, pair id, side, enter lift, partner side).
    """
    pos = {(pid, side): x for x, pid, side in stations}
    total = Fraction(1) + (extra if sign > 0 else Fraction(0))
    legs = []
    visited = set()
    travelled = Fraction(0)
    cur_mod = start_lift % 1
    cur_lift = start_lift
    revisit = False

    def gap(station):
        """How far the walk runs to the station: a full turn when on it."""
        x = station[0]
        return ((cur_mod - x) % 1 if sign < 0 else (x - cur_mod) % 1) or Fraction(1)

    while True:
        remaining = total - travelled
        best = min(stations, key=gap, default=None)
        if best is None or gap(best) >= remaining:
            cur_lift += sign * remaining
            legs.append((remaining, None))
            break
        gap_next = gap(best)
        travelled += gap_next
        cur_lift += sign * gap_next
        x, pid, side = best
        if (pid, side) in visited:
            revisit = True
        visited.add((pid, side))
        partner = MINUS if side == PLUS else PLUS
        px = pos.get((pid, partner))
        if px is None:
            raise PatternNotFound("partner curve lives on another torus")
        jump = ((cur_lift % 1) - px) % 1 if sign < 0 else (px - (cur_lift % 1)) % 1
        enter_lift = cur_lift + (jump if sign > 0 else -jump)
        legs.append((gap_next, (cur_lift, pid, side, enter_lift, partner)))
        cur_lift = enter_lift
        cur_mod = px
    return legs, cur_lift, revisit


# ------------------------------------------------------------------- b1


def _move_b1(d, f, site):
    """Fold the front once around the page direction.

    Variant 'down' dives rightward through t=0 a full turn and climbs
    shallowly back onto the strand, adding two down cusps and lowering
    lk(B) by one; 'up' is the mirror (two up cusps, lk(B) + 1).  The
    dive crosses trace curves transversally; each pair is crossed with
    cancelling labels, so the front's class is unchanged.
    """
    ci, comp = _site_component(f, site)
    variant = site.get("variant", "down")
    if variant not in ("down", "up"):
        raise PatternNotFound("b1 variant must be 'down' or 'up'")
    si, u, a, b, p = _site_point(comp, site)
    s_abs = _descent(a, b, "b1")
    dx = b[0] - a[0]
    width = _site_fraction(site, "width", Fraction(1, 64))
    # keep the shallow leg flatter than the host so the re-entry cusp
    # direction matches the dive's
    sigma = _site_fraction(site, "sigma", min(Fraction(1, 512), s_abs * width / 4))
    u2_default = u + min((1 - u) / 16, sigma / (8 * s_abs * dx), width / (8 * dx))
    u2 = _site_fraction(site, "u2", u2_default)
    if not (u < u2 < 1):
        raise PatternNotFound("u2 must lie strictly between u and 1")
    q = (a[0] + u2 * (b[0] - a[0]), a[1] + u2 * (b[1] - a[1]))
    w = q[0] - p[0]
    drop = p[1] - q[1]
    if width <= 4 * w:
        raise PatternNotFound("width must well exceed the strand chord at this site")
    if sigma <= 4 * drop:
        raise PatternNotFound("sigma must well exceed the strand drop at this site")
    if not (sigma < p[1] % 1 < 1):
        raise PatternNotFound("detach point too close to the page t=0")

    if variant == "down":
        # plain detach, steep dive right, tip cusp, shallow climb left
        # back onto the strand one page-turn lower
        new_vertices = [
            Vertex(p[0], p[1], PLAIN),
            Vertex(p[0] + width, p[1] - 1 - sigma, CUSP),
            Vertex(q[0], q[1] - 1, CUSP),
        ]
        shift = (0, -1)
    else:
        if not (0 < p[1] % 1 < 1 - sigma):
            raise PatternNotFound("detach point too close to the page t=1")
        if s_abs * width >= 1 + sigma:
            raise PatternNotFound("host steeper than the climb: the detach cusp would turn down")
        # cusp detach, steep climb left, tip cusp, shallow dive right
        # back onto the strand one page-turn higher
        new_vertices = [
            Vertex(p[0], p[1], CUSP),
            Vertex(p[0] - width, p[1] + 1 + sigma, CUSP),
            Vertex(q[0], q[1] + 1, PLAIN),
        ]
        shift = (0, 1)
    return _insert_vertices(f, ci, si, new_vertices, shift)


# ------------------------------------------------------------------- k3


def _move_k3(d, f, site):
    """Exchange a cusp poked through a trace curve for a teleported cusp.

    The site cusp's two incident segments must each cross the named
    trace curve exactly once, with both neighbour vertices on the far
    side; the replacement truncates the poke at the curve, teleports to
    the partner, reproduces the cusp there with the same direction, and
    teleports back.
    """
    ci, comp = _site_component(f, site)
    vi, v = _site_cusp(comp, site)
    pair, side = _site_pair(d, site)
    partner_side = MINUS if side == PLUS else PLUS
    curve = pair.curve(side)
    partner = pair.curve(partner_side)
    if curve.torus != comp.torus or partner.torus != comp.torus:
        raise PatternNotFound("trace pair does not live on the site torus")
    prev_pt, next_pt = comp.neighbor_points(vi)
    ts = (prev_pt[1], v.t, next_pt[1])
    x_line, x_part = _constant_x_on(curve, ts), _constant_x_on(partner, ts)

    hit_in = _line_crossing(prev_pt, v.point, x_line)
    hit_out = _line_crossing(v.point, next_pt, x_line)
    if hit_in is None or hit_out is None:
        raise PatternNotFound("cusp branches do not both cross the trace curve")
    (xe1, te1) = hit_in
    (xe2, te2) = hit_out
    depth = abs(v.x - xe1)

    before = _cusp_dir_at(comp, vi)
    tip_side = branch_side(v.point, prev_pt)  # branches side; tip points -side
    for new_tip_side in (-tip_side, tip_side):
        # rebuild the poke behind the partner curve
        tip_x = x_part - new_tip_side * depth
        cand = [
            Vertex(xe1, te1, TELEPORT, pair=pair.id, side=side, role=EXIT),
            Vertex(x_part, te1, TELEPORT, pair=pair.id, side=partner_side, role=ENTER),
            Vertex(tip_x, v.t, CUSP),
            Vertex(x_part, te2, TELEPORT, pair=pair.id, side=partner_side, role=EXIT),
            Vertex(xe2, te2, TELEPORT, pair=pair.id, side=side, role=ENTER),
        ]
        verts = list(comp.vertices)
        verts[vi: vi + 1] = cand
        out_comp = FrontComponent(comp.torus, verts, comp.closure)
        try:
            new_dir = _cusp_dir_at(out_comp, vi + 2)
        except DegenerateGeometry:
            continue
        if new_dir != before:
            continue
        out = _replace_component(f, ci, out_comp, vi - 1, vi + 4)
        if validate_front(d, out[0]).ok:
            return out
    raise PatternNotFound("no direction-preserving teleported poke fits here")


def _line_crossing(a, b, x_line):
    """Where the segment crosses the vertical line x = x_line (mod 1)."""
    lo, hi = min(a[0], b[0]), max(a[0], b[0])
    hits = []
    for n in range(math.floor(lo - x_line), math.ceil(hi - x_line) + 1):
        xv = x_line + n
        if lo < xv < hi:
            s = Fraction(xv - a[0], b[0] - a[0])
            hits.append((xv, a[1] + s * (b[1] - a[1])))
    if len(hits) != 1:
        return None
    return hits[0]
