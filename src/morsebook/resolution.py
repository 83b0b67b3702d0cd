"""The generalized Seifert algorithm on Morse diagrams.

A front whose class vanishes in the cylinder bounds a surface built
from discs; combinatorially this becomes: propagate integer
multiplicities along trace-curve intervals from the teleport endpoints
of the front, lay down that many parallel skeleton segments, join
everything at the interval boundaries, and smooth every crossing
respecting orientation.  The resulting disjoint simple closed curves
each bound a disc in the chart or are isotopic to a horizontal circle;
the signed count of horizontal ones is the intersection with the
index-0 critical link.

Multiplicities are measured against the upward orientation of the
chart: a positive interval carries upward parallels.  The bottom
interval of every curve is 0, a front endpoint changes the count by +1
where the front runs into the skeleton and -1 where it comes back out,
and at a handle slide the sliding curve's count pours into (or drains
from) the crossed curves while carrying across its own break.

The intersection with the index-0 link can also be read off the front
projection and the multiplicities alone, as the paper's explicit
formula: smoothing keeps the class in H_1 of the torus, and every
resolution curve winds at most once in x, so the signed count of
horizontal curves is the x-displacement of the resolution cycle.  That
is the x-displacement of the front's own segments, plus, on every
trace interval, its multiplicity times the trace curve's
x-displacement over the interval (``_horizontal_sum``).  ``rot`` uses
this formula and builds no resolution; ``resolve``, ``render``,
``intersect_L0`` and ``intersect_curve_surface`` build the full
construction, which is the check on the formula.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .diagram import MINUS, PLUS, curve_orientation
from .front import ENTER, EXIT, TELEPORT, null_trace_crossings, validate_front
from .geometry import (
    DegenerateGeometry,
    det,
    eval_piecewise,
    integer_crossings,
    min_positive_gap,
    slope,
    slope_closer_to_zero,
    sub,
    torus_meets,
)
from .validation import InvalidInput

MAX_SHRINK_RETRIES = 48


class TeleportEndpoint:
    """A front teleport endpoint on a trace curve, with its flow sign."""

    def __init__(self, pair_id, side, t, point, sign, component, vertex_index):
        self.pair_id = pair_id
        self.side = side
        self.t = t
        self.point = point
        self.sign = sign
        self.component = component
        self.vertex_index = vertex_index

    def __repr__(self):
        return "TeleportEndpoint(pair=%s %s t=%s sign=%+d)" % (
            self.pair_id,
            self.side,
            self.t,
            self.sign,
        )


def teleport_signs(d, f):
    """Signs of all teleport endpoints of the front.

    +1 where the front arrives on the trace curve (running into the
    skeleton), -1 where it leaves; the two endpoints of one event get
    opposite signs, so the induced multiplicity changes on the two
    curves of the pair are equal and opposite.  Validates the front once
    at entry.
    """
    validate_front(d, f).raise_if_invalid("front")
    return _teleport_signs(f)


def _teleport_signs(f):
    out = []
    for ci, comp in enumerate(f.components):
        for vi, v in enumerate(comp.vertices):
            if v.kind != TELEPORT:
                continue
            sign = 1 if v.role == EXIT else -1
            out.append(
                TeleportEndpoint(
                    v.pair, v.side, v.t % 1, (v.x % 1, v.t % 1), sign, ci, vi
                )
            )
    out.sort(key=lambda e: (e.pair_id, e.side, e.t))
    return out


class MultiplicityAssignment:
    """Interval multiplicities per trace curve, keyed by (pair id, side)."""

    def __init__(self, intervals, endpoints):
        self.intervals = intervals  # (pair_id, side) -> [(t0, t1, m)]
        self.endpoints = endpoints

    def value_at(self, pair_id, side, t):
        spans = self.intervals[(pair_id, side)]
        for t0, t1, m in spans:
            if t0 <= t < t1:
                return m
        return spans[-1][2]

    def max_abs(self):
        return max(
            (abs(m) for spans in self.intervals.values() for _, _, m in spans),
            default=0,
        )

    def coalesced(self):
        """Intervals with equal-multiplicity neighbours merged."""
        out = {}
        for key, spans in self.intervals.items():
            merged = []
            for t0, t1, m in spans:
                if merged and merged[-1][2] == m and merged[-1][1] == t0:
                    merged[-1] = (merged[-1][0], t1, m)
                else:
                    merged.append((t0, t1, m))
            out[key] = merged
        return out


def multiplicities(d, f):
    """Propagate interval multiplicities up every trace curve.

    Requires the front to be null-homologous in the cylinder; errors
    with a request for an auxiliary link otherwise.  The top interval
    of every curve must come out 0 again or the input is rejected as
    inconsistent.  Validates the front once at entry.
    """
    validate_front(d, f).raise_if_invalid("front")
    null_trace_crossings(d, f)
    return _multiplicities(d, f)


def _multiplicities(d, f):
    endpoints = _teleport_signs(f)

    events = []  # (t, order, kind, curve_key, payload)
    for ep in endpoints:
        events.append((ep.t, 0, "front", (ep.pair_id, ep.side), ep.sign))
    for pair in d.trace_pairs:
        for tp in pair.teleports:
            slider_key = (pair.id, tp.side)
            target = d.trace_pairs[d.pair_index(tp.target_pair)]
            exit_key = (target.id, tp.target_side)
            entry_key = (target.id, MINUS if tp.target_side == PLUS else PLUS)
            events.append((tp.t, 1, "merge", exit_key, slider_key))
            events.append((tp.t, 1, "split", entry_key, slider_key))
            # the sliding curve's interval is cut at its own break, with
            # the multiplicity carried across the jump
            events.append((tp.t, 2, "break", slider_key, None))

    per_curve_ts = {}
    for t, _, kind, key, _ in events:
        per_curve_ts.setdefault(key, []).append(t)
    for key, ts in per_curve_ts.items():
        if len(ts) != len(set(ts)):
            raise InvalidInput(
                "coincident events on trace curve %s; perturb input" % (key,)
            )

    current = {}
    for pair in d.trace_pairs:
        for side in (PLUS, MINUS):
            current[(pair.id, side)] = 0
    history = {k: [(Fraction(0), 0)] for k in current}
    for t, _, kind, key, payload in sorted(events, key=lambda e: (e[0], e[1])):
        if kind == "front":
            new = current[key] + payload
        elif kind == "merge":
            new = current[key] + current[payload]
        elif kind == "split":
            new = current[key] - current[payload]
        else:  # break: carried across the jump
            new = current[key]
        current[key] = new
        history[key].append((t, new))

    intervals = {}
    for key, hist in history.items():
        spans = [(t0, t1, m) for (t0, m), (t1, _) in zip(hist, hist[1:])]
        spans.append((hist[-1][0], Fraction(1), hist[-1][1]))
        intervals[key] = [(a, b, m) for a, b, m in spans if a != b]
        if hist[-1][1] != 0:
            raise InvalidInput(
                "nonzero top multiplicity on trace curve %s: inconsistent diagram/front"
                % (key,)
            )
    return MultiplicityAssignment(intervals, endpoints)


def _horizontal_sum(d, f, assignment):
    """L0.H of a cylinder-null front, read off the front and its
    multiplicities without building the resolution.

    Equals ``_total_resolution(d, f, assignment).horizontal_sum()``:
    the x-displacement of the front's segments (teleport jumps left
    out) plus, on every trace interval, its multiplicity times the
    curve's x-displacement over the interval.
    """
    total = sum(b[0] - a[0] for _, _, _, a, b in f.all_segments())
    for (pair_id, side), spans in assignment.intervals.items():
        curve = d.trace_pairs[d.pair_index(pair_id)].curve(side)
        for t0, t1, m in spans:
            for strand in curve.strands:
                lo, hi = max(strand[0][1], t0), min(strand[-1][1], t1)
                if m and lo < hi:
                    total += m * (eval_piecewise(strand, hi) - eval_piecewise(strand, lo))
    if total % 1 != 0:
        raise AssertionError("resolution cycle with a fractional x-class")
    return int(total)


class Piece:
    """An oriented polyline of the augmented diagram.

    kind 'front' pieces obey the slope depth rule; 'parallel' and
    'chord' pieces are skeleton segments and always cross under.
    Closed pieces wrap from the last point back to the first shifted by
    the closure offsets.
    """

    __slots__ = ("kind", "torus", "points", "closed", "closure")

    def __init__(self, kind, torus, points, closed=False, closure=(0, 0)):
        self.kind = kind
        self.torus = torus
        self.points = points
        self.closed = closed
        self.closure = closure

    def segments(self):
        pts = self.points
        n = len(pts)
        for i in range(n - 1):
            yield (i, pts[i], pts[i + 1])
        if self.closed:
            wrap = (pts[0][0] + self.closure[0], pts[0][1] + self.closure[1])
            yield (n - 1, pts[n - 1], wrap)

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]


class ResolutionCurve:
    """One smoothed closed curve with its x-winding classification."""

    def __init__(self, points, winding, torus=0):
        self.points = points
        self.winding = winding
        self.torus = torus
        if winding == 0:
            self.kind = "disc"
        elif abs(winding) == 1:
            self.kind = "horizontal"
        else:
            raise AssertionError("resolution curve with |x-winding| >= 2")

    @property
    def orientation(self):
        return 0 if self.winding == 0 else (1 if self.winding > 0 else -1)


class TotalResolution:
    def __init__(self, curves, pieces, assignment, epsilon, delta):
        self.curves = curves
        self.pieces = pieces
        self.assignment = assignment
        self.epsilon = epsilon
        self.delta = delta

    def horizontal_sum(self):
        return sum(c.orientation for c in self.curves)

    def counts(self):
        disc = sum(1 for c in self.curves if c.kind == "disc")
        return {"disc": disc, "horizontal": len(self.curves) - disc}


def _front_arcs(f):
    """Split components at teleport jumps into oriented open arcs.

    Open arcs run from an enter vertex to the next exit vertex; the
    endpoint hints record the adjacent interior points so windows can
    be angularly sorted.
    """
    arcs = []
    for ci, comp in enumerate(f.components):
        tele = [i for i, v in enumerate(comp.vertices) if v.kind == TELEPORT]
        if not tele:
            arcs.append(
                ("closed", ci, [v.point for v in comp.vertices], comp.closure, comp.torus)
            )
            continue
        for enter in tele:
            if comp.vertices[enter].role != ENTER:
                continue
            leave = enter + 1
            while comp.vertex(leave).kind != TELEPORT:
                leave += 1
            if comp.vertex(leave).role != EXIT:
                raise AssertionError("enter vertex inside an arc")
            pts = [comp.lifted(j) for j in range(enter, leave + 1)]
            arcs.append(("open", ci, pts, None, comp.torus))
    return arcs


def _safe_shrink(d, f, m_max):
    xs = []
    ts = []
    for _, _, curve in d.curves():
        for strand in curve.strands:
            for x, t in strand:
                xs.append(x % 1)
                ts.append(t % 1)
    for comp in f.components:
        for v in comp.vertices:
            xs.append(v.x % 1)
            ts.append(v.t % 1)
    gx = min_positive_gap(xs) or Fraction(1, 4)
    gt = min_positive_gap(ts) or Fraction(1, 4)
    return gx / (16 * (m_max + 2)), gt / 16


def total_resolution(d, f):
    """Construct the total resolution of a cylinder-null front.
    Validates the front once at entry."""
    return _total_resolution(d, f, multiplicities(d, f))


def _total_resolution(d, f, assignment):
    eps, delta = _safe_shrink(d, f, assignment.max_abs())
    last_err = None
    for _ in range(MAX_SHRINK_RETRIES):
        try:
            return _build_with(d, f, assignment, eps, delta)
        except DegenerateGeometry as e:
            # shrink at different rates so ratio-locked coincidences
            # (an offset endpoint on a sloped segment) cannot persist
            last_err = e
            eps /= 2
            delta /= 3
    raise InvalidInput("could not realize resolution geometry: %s" % (last_err,))


class _Node(NamedTuple):
    """A node of the resolution on the curve ``curve`` = (pair id, side)
    at (x, t): a front endpoint ('front'), or where a handle slide's
    sliding curve pours into ('merge') or drains from ('split') it."""

    kind: str
    curve: tuple
    t: Fraction
    x: Fraction
    torus: int
    endpoint: TeleportEndpoint = None  # front: the endpoint itself
    hint: tuple = None  # front: the direction the front leaves in
    slider: tuple = None  # merge, split: the sliding curve's key
    slider_strand: list = None  # merge, split: its strand below, above


def _node_list(d, f, assignment):
    """Front-endpoint and trivalent nodes, each sitting on one curve."""
    nodes = []
    for ep in assignment.endpoints:
        pair = d.trace_pairs[d.pair_index(ep.pair_id)]
        curve = pair.curve(ep.side)
        comp = f.components[ep.component]
        vi = ep.vertex_index
        v = comp.vertices[vi]
        hint = sub(comp.lifted(vi - 1 if v.role == EXIT else vi + 1), v.point)
        nodes.append(
            _Node("front", (ep.pair_id, ep.side), ep.t, curve.x_at(ep.t), curve.torus, ep, hint)
        )
    for pair in d.trace_pairs:
        for tp in pair.teleports:
            target = d.trace_pairs[d.pair_index(tp.target_pair)]
            slider = pair.curve(tp.side)
            below = above = None
            for s1, s2 in zip(slider.strands, slider.strands[1:]):
                if s1[-1][1] == tp.t:
                    below, above = s1, s2
            exit_side = tp.target_side
            entry_side = MINUS if exit_side == PLUS else PLUS
            for kind, side, strand in (("merge", exit_side, below), ("split", entry_side, above)):
                curve = target.curve(side)
                nodes.append(
                    _Node(
                        kind, (target.id, side), tp.t, curve.x_at(tp.t), curve.torus,
                        slider=(pair.id, tp.side), slider_strand=strand,
                    )
                )
    return nodes


def _offset_run(curve, t0, t1, offset):
    """The curve's path over [t0, t1], shifted by offset in x."""
    pts = []
    for strand in curve.strands:
        lo, hi = strand[0][1], strand[-1][1]
        if hi <= t0 or lo >= t1:
            continue
        a = max(lo, t0)
        b = min(hi, t1)
        run = [(eval_piecewise(strand, a) + offset, a)]
        for x, t in strand:
            if a < t < b:
                run.append((x + offset, t))
        run.append((eval_piecewise(strand, b) + offset, b))
        for p in run:
            if not pts or p != pts[-1]:
                pts.append(p)
    if len(pts) < 2:
        raise DegenerateGeometry("empty parallel run")
    return pts


def _slider_value(assignment, slider_key, t):
    """The slider's multiplicity carried across its break at t."""
    val = 0
    for t0, t1, m in assignment.intervals[slider_key]:
        if t0 < t <= t1:
            val = m
    return val


def _attachments(d, assignment, node, eps, delta):
    """(point, direction, io) triples around one node window.

    'end' marks an arriving strand head needing continuation, 'start' a
    departing tail; directions are measured from the node center for
    the nested matching.
    """
    key = node.curve
    pair = d.trace_pairs[d.pair_index(key[0])]
    curve = pair.curve(key[1])
    t = node.t
    center = (node.x, t)
    m_below = assignment.value_at(key[0], key[1], t - delta)
    m_above = assignment.value_at(key[0], key[1], t)
    out = []

    def bundle(x_of, t_at, m, role_if_up, role_if_down):
        for j in range(1, abs(m) + 1):
            pt = (x_of + j * eps, t_at)
            io = role_if_up if m > 0 else role_if_down
            out.append((pt, sub(pt, center), io))

    if m_below != 0:
        bundle(curve.x_at(t - delta), t - delta, m_below, "end", "start")
    if m_above != 0:
        bundle(curve.x_at(t + delta), t + delta, m_above, "start", "end")

    if node.kind == "front":
        io = "end" if node.endpoint.sign > 0 else "start"
        out.append((center, node.hint, io))
    else:
        m_s = _slider_value(assignment, node.slider, t)
        if m_s != 0:
            strand = node.slider_strand
            if node.kind == "merge":
                t_at = t - delta
            else:
                t_at = t + delta
            x_s = eval_piecewise(strand, t_at)
            for j in range(1, abs(m_s) + 1):
                pt = (x_s + j * eps, t_at)
                if node.kind == "merge":
                    io = "end" if m_s > 0 else "start"
                else:
                    io = "start" if m_s > 0 else "end"
                out.append((pt, sub(pt, center), io))
    ends = sum(1 for a in out if a[2] == "end")
    if 2 * ends != len(out):
        raise AssertionError("flow imbalance at a resolution node")
    return out


def _angular_order(attachments):
    """Counterclockwise order of attachment directions, exactly."""

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(i, j):
        u = attachments[i][1]
        v = attachments[j][1]
        hu, hv = half(u), half(v)
        if hu != hv:
            return hu - hv
        c = det(u, v)
        if c > 0:
            return -1
        if c < 0:
            return 1
        return i - j

    return sorted(range(len(attachments)), key=functools.cmp_to_key(cmp))


def _match_nested(attachments):
    """Pair ends to starts without crossings: repeatedly match adjacent
    compatible attachments around the window."""
    order = _angular_order(attachments)
    work = [attachments[i] for i in order]
    matched = []
    while work:
        n = len(work)
        for i in range(n):
            a = work[i]
            b = work[(i + 1) % n]
            if a[2] == b[2]:
                continue
            if a[2] == "end":
                matched.append((a[0], b[0]))
            else:
                matched.append((b[0], a[0]))
            for idx in sorted((i, (i + 1) % n), reverse=True):
                work.pop(idx)
            break
        else:
            raise AssertionError("no adjacent end/start pair at a node")
    return matched


def _build_with(d, f, assignment, eps, delta):
    pieces = []
    junction_next = {}  # start key -> piece index
    junction_prev = {}

    def key_of(torus, pt):
        return (torus, pt[0] % 1, pt[1] % 1)

    def register(piece):
        idx = len(pieces)
        pieces.append(piece)
        if not piece.closed:
            kout = key_of(piece.torus, piece.start)
            kin = key_of(piece.torus, piece.end)
            if kout in junction_next or kin in junction_prev:
                raise DegenerateGeometry("colliding junction points")
            junction_next[kout] = idx
            junction_prev[kin] = idx

    for kind, ci, pts, closure, torus in _front_arcs(f):
        if kind == "closed":
            pieces.append(Piece("front", torus, pts, closed=True, closure=closure))
        else:
            register(Piece("front", torus, pts))

    for key, spans in assignment.intervals.items():
        pair = d.trace_pairs[d.pair_index(key[0])]
        curve = pair.curve(key[1])
        for t0, t1, m in spans:
            if m == 0:
                continue
            lo, hi = t0 + delta, t1 - delta
            if lo >= hi:
                raise DegenerateGeometry("window overlap on a short interval")
            for j in range(1, abs(m) + 1):
                run = _offset_run(curve, lo, hi, j * eps)
                if m < 0:
                    run = list(reversed(run))
                register(Piece("parallel", curve.torus, run))

    for node in _node_list(d, f, assignment):
        for pt_end, pt_start in _match_nested(
            _attachments(d, assignment, node, eps, delta)
        ):
            if pt_end == pt_start:
                raise DegenerateGeometry("zero-length chord")
            register(Piece("chord", node.torus, [pt_end, pt_start]))

    curves = _assemble(pieces, junction_next)
    return TotalResolution(curves, pieces, assignment, eps, delta)


def _assemble(pieces, junction_next):
    """Split pieces at crossings, Seifert-smooth, and trace cycles."""
    seglist = []
    for pi, piece in enumerate(pieces):
        for si, a, b in piece.segments():
            seglist.append((pi, si, a, b))

    ends = [_ends_mod1(a, b) for _, _, a, b in seglist]

    def joined(i, j):
        # register refuses colliding junction keys, so an endpoint
        # shared mod 1 is a designed junction
        return not ends[i].isdisjoint(ends[j])

    crossings = []  # (seg_i tuple, seg_j tuple)
    cross_params = {}  # (pi, si) -> list of (param, cid, slot)
    segs = [(pieces[pi].torus, a, b) for pi, _, a, b in seglist]
    for i, j, hits, error in torus_meets(segs, joined=joined):
        if error is not None:
            raise DegenerateGeometry(error)
        pi, si = seglist[i][:2]
        pj, sj = seglist[j][:2]
        for s, u, _ in hits:
            cid = len(crossings)
            crossings.append(((pi, si), (pj, sj)))
            cross_params.setdefault((pi, si), []).append((s, cid, 0))
            cross_params.setdefault((pj, sj), []).append((u, cid, 1))

    # edges: maximal runs of each piece between crossing stations
    edges = []  # dict: points, from (cid, slot) or None, to ...
    out_at = {}
    in_at = {}
    piece_first = {}
    piece_last = {}
    for pi, piece in enumerate(pieces):
        cur_pts = None
        cur_from = None
        first_edge = None
        for si, a, b in piece.segments():
            if cur_pts is None:
                cur_pts = [a]
            stations = sorted(cross_params.get((pi, si), []))
            prev_param = Fraction(0)
            for s, cid, slot in stations:
                pt = _lerp(a, b, s)
                cur_pts.append(pt)
                eid = len(edges)
                edges.append({"points": cur_pts, "from": cur_from, "to": (cid, slot)})
                in_at[(cid, slot)] = eid
                if cur_from is not None:
                    out_at[cur_from] = eid
                elif first_edge is None:
                    first_edge = eid
                cur_from = (cid, slot)
                cur_pts = [pt]
            cur_pts.append(b)
        eid = len(edges)
        edges.append({"points": cur_pts, "from": cur_from, "to": None})
        if cur_from is not None:
            out_at[cur_from] = eid
        if first_edge is None:
            first_edge = eid
        piece_first[pi] = first_edge
        piece_last[pi] = eid

    succ = {}
    for cid in range(len(crossings)):
        ia, ib = in_at.get((cid, 0)), in_at.get((cid, 1))
        oa, ob = out_at.get((cid, 0)), out_at.get((cid, 1))
        if None in (ia, ib, oa, ob):
            raise AssertionError("crossing with missing edges")
        succ[ia] = ob
        succ[ib] = oa
    for pi, piece in enumerate(pieces):
        last = piece_last[pi]
        if piece.closed:
            succ[last] = piece_first[pi]
        else:
            key = (piece.torus, piece.end[0] % 1, piece.end[1] % 1)
            nxt = junction_next.get(key)
            if nxt is None:
                raise AssertionError("unconsumed endpoint at %r" % (key,))
            succ[last] = piece_first[nxt]

    edge_torus = {}
    for pi, piece in enumerate(pieces):
        for eid in range(piece_first[pi], piece_last[pi] + 1):
            edge_torus[eid] = piece.torus

    seen = set()
    curves = []
    for eid in range(len(edges)):
        if eid in seen:
            continue
        poly = []
        offset = (Fraction(0), Fraction(0))
        cur = eid
        while cur not in seen:
            seen.add(cur)
            pts = edges[cur]["points"]
            if poly:
                last = poly[-1]
                dx = last[0] - pts[0][0]
                dt = last[1] - pts[0][1]
                if dx % 1 != 0 or dt % 1 != 0:
                    raise AssertionError("edges meet at incompatible lifts")
                offset = (dx, dt)
            else:
                offset = (Fraction(0), Fraction(0))
            for p in pts if not poly else pts[1:]:
                poly.append((p[0] + offset[0], p[1] + offset[1]))
            cur = succ[cur]
        if cur != eid:
            raise AssertionError("edge traversal did not close")
        wx = poly[-1][0] - poly[0][0]
        wt = poly[-1][1] - poly[0][1]
        if wx % 1 != 0 or wt != 0:
            raise AssertionError("bad closure winding on a resolution curve")
        curves.append(ResolutionCurve(poly, int(wx), edge_torus[eid]))
    return curves


def _lerp(a, b, s):
    return (a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))


def _ends_mod1(a, b):
    return {(a[0] % 1, a[1] % 1), (b[0] % 1, b[1] % 1)}


def intersect_L0(d, f):
    """Intersection of the index-0 link with the front's Seifert class.

    The signed count of horizontal curves in the total resolution,
    positive for +x winding.
    """
    return total_resolution(d, f).horizontal_sum()


def intersect_L0_local(d, f):
    """Shortcut for fronts confined to a band of locally trivial monodromy.

    Counts signed crossings of the front with the vertical line x=0,
    +1 when x increases.  Errors if any trace curve fails to be
    vertical across the front's t-extent.
    """
    lo, hi = _t_extent(f)
    for _, _, curve in d.curves():
        for _, a, b in curve.segments():
            t0, t1 = min(a[1], b[1]), max(a[1], b[1])
            if t1 <= lo or t0 >= hi:
                continue
            if a[0] != b[0]:
                raise InvalidInput(
                    "monodromy is not locally trivial on the front's band; "
                    "shortcut inapplicable"
                )
    total = 0
    for ci, i, torus, a, b in f.all_segments():
        for _, direction in integer_crossings(a[0], b[0]):
            total += direction
    return total


def _t_extent(f):
    ts = []
    for comp in f.components:
        for v in comp.vertices:
            ts.append(v.t % 1)
    return min(ts), max(ts)


def intersect_L1(d, f, pair_id):
    """Intersection of one index-1 component with the front's surface.

    Counted as signed transverse crossings of the front with either
    trace curve of the pair, both oriented upward; the two choices must
    agree (they do exactly when the front is null in the cylinder).
    Validates the front once at entry.
    """
    validate_front(d, f).raise_if_invalid("front")
    return _intersect_L1(d, null_trace_crossings(d, f), pair_id)


def _intersect_L1(d, hits, pair_id):
    """intersect_L1 summed over the front's trace crossings ``hits``."""
    pi = d.pair_index(pair_id)
    totals = {PLUS: 0, MINUS: 0}
    for hit_pi, sign, _, side in hits:
        if hit_pi == pi:
            # the crossing signs follow the minus curve downward
            totals[side] += sign * curve_orientation(side)
    if totals[PLUS] != totals[MINUS]:
        raise AssertionError(
            "two trace-curve counts disagree for pair %s: %r" % (pair_id, totals)
        )
    return totals[PLUS]


def intersect_curve_surface(d, f_owner, f_other):
    """Signed crossings where the other front passes over the owner's
    total resolution; skeleton segments always count as under-strands.
    Validates each front once at entry."""
    validate_front(d, f_other).raise_if_invalid("front")
    res = total_resolution(d, f_owner)
    others = list(f_other.all_segments())
    own = [(piece, q1, q2) for piece in res.pieces for _, q1, q2 in piece.segments()]
    total = 0
    for i, j, hits, error in torus_meets(
        [s[2:] for s in others], [(piece.torus, q1, q2) for piece, q1, q2 in own]
    ):
        _, _, _, a, b = others[i]
        piece, q1, q2 = own[j]
        if not _ends_mod1(a, b).isdisjoint(_ends_mod1(q1, q2)):
            raise InvalidInput("fronts share points; perturb input")
        if error is not None:
            raise InvalidInput("degenerate contact between fronts; perturb input")
        for _ in hits:
            if piece.kind == "front":
                s_other, s_own = slope(a, b), slope(q1, q2)
                if s_other == s_own:
                    raise InvalidInput("equal-slope crossing; perturb input")
                if not slope_closer_to_zero(s_other, s_own):
                    continue  # the other front passes under
            total += 1 if det(sub(b, a), sub(q2, q1)) > 0 else -1
    return total
