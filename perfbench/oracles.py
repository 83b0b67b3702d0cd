"""Output checks that do not take the program's answers as expected values.

Fronts are recounted from their vertex data: cusp directions, signed
crossings with the lines t in Z (the binding term lk_B) and with the
lines x in Z (on a front in the disc-page chart this is the horizontal
term L0.H).  Page projections are checked against a float oracle for the
writhe, the turning number and the winding numbers.  Each ``check_*``
takes the captured standard output of an operation's commands and
returns a list of mismatch messages; an empty list means the reports
passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


# ------------------------------------------------------------- fronts


def front_from_doc(doc):
    """Components of a front/1 document as (vertices, closure) pairs.

    Each vertex is (x, t, kind, pair, side, role) with exact Fractions;
    the last three are None except on teleport vertices.
    """
    comps = []
    for comp in doc["components"]:
        verts = []
        for _, x, t, ann in comp["vertices"]:
            if isinstance(ann, list):
                verts.append((Fraction(x), Fraction(t), ann[0], ann[1], ann[2], ann[3]))
            else:
                verts.append((Fraction(x), Fraction(t), ann, None, None, None))
        wx, wt = comp.get("closure", ["0", "0"])
        comps.append((verts, (int(wx), int(wt))))
    return comps


def front_from_model(front):
    """The same shape from a morsebook FrontProjection."""
    return [
        ([(v.x, v.t, v.kind, v.pair, v.side, v.role) for v in comp.vertices], comp.closure)
        for comp in front.components
    ]


def _lifted(verts, closure, i):
    """Point of vertex i (taken cyclically) in the lift that starts at vertex 0."""
    n = len(verts)
    k, r = divmod(i, n)
    x, t = verts[r][0], verts[r][1]
    return (x + k * closure[0], t + k * closure[1])


def _drawn_segments(verts, closure):
    """Segments of one component; a teleport jump (exit -> enter) is not drawn."""
    n = len(verts)
    for i in range(n):
        if verts[i][2] == "teleport" and verts[i][5] == "exit":
            continue
        yield _lifted(verts, closure, i), _lifted(verts, closure, i + 1)


def _leaves_right(v, w):
    """Side of v on which the branch v -> w lies; vertical counts by the
    slope -infinity limit (down is right, up is left)."""
    if w[0] != v[0]:
        return w[0] > v[0]
    return w[1] < v[1]


def cusp_tally(comps):
    """(D, U): cusps whose incoming branch is the upper one, and the rest."""
    down = up = 0
    for verts, closure in comps:
        for i, vert in enumerate(verts):
            if vert[2] != "cusp":
                continue
            v = _lifted(verts, closure, i)
            a = _lifted(verts, closure, i - 1)
            b = _lifted(verts, closure, i + 1)
            inc = (a[0] - v[0], a[1] - v[1])
            out = (b[0] - v[0], b[1] - v[1])
            # the incoming branch is the upper one when it lies
            # counterclockwise of the outgoing one on the right side
            # (clockwise on the left side)
            turn = _det(out, inc)
            if not _leaves_right(v, a):
                turn = -turn
            if turn > 0:
                down += 1
            else:
                up += 1
    return down, up


def _line_crossings(c1, c2):
    """Signed count of integers strictly between c1 and c2."""
    if c1 == c2:
        return 0
    lo, hi = min(c1, c2), max(c1, c2)
    if lo.denominator == 1 or hi.denominator == 1:
        raise ValueError("front vertex on an integer line")
    count = math.ceil(hi) - math.floor(lo) - 1
    return count if c2 > c1 else -count


def lines_tally(comps, axis):
    """Signed crossings of the front with the lines x in Z (axis 0) or
    t in Z (axis 1), +1 where the coordinate increases."""
    return sum(
        _line_crossings(a[axis], b[axis])
        for verts, closure in comps
        for a, b in _drawn_segments(verts, closure)
    )


def front_counts(comps):
    down, up = cusp_tally(comps)
    return {"D": down, "U": up, "lk": lines_tally(comps, 1), "x": lines_tally(comps, 0)}


def _report(text, command, raw):
    """The report/1 result of a command, or the mismatches that stop the check."""
    doc = json.loads(text)
    problems = []
    if doc.get("command") != command:
        problems.append("command %r, wanted %r" % (doc.get("command"), command))
    if doc.get("input_sha256") != hashlib.sha256(raw).hexdigest():
        problems.append("input hash does not match the workspace bytes")
    return doc.get("result", {}), problems


def _compare(problems, what, got, want):
    if got != want:
        problems.append("%s = %r, wanted %r" % (what, got, want))


def check_rot(texts, item):
    """A ``rot`` report against the move-sequence prediction and the recounts."""
    res, problems = _report(texts[0], "rot", item["raw"])
    want = item["want"]
    counts = item.get("counts")
    if counts is None:
        counts = item["counts"] = front_counts(front_from_model(item["front"]))
    _compare(problems, "rot", res.get("rot"), want["rot"])
    _compare(problems, "D-U", res.get("D", 0) - res.get("U", 0), want["DU"])
    _compare(problems, "L_dot_H", res.get("L_dot_H"), want["L"])
    _compare(problems, "D", res.get("D"), counts["D"])
    _compare(problems, "U", res.get("U"), counts["U"])
    _compare(problems, "lk_B", res.get("lk_B"), counts["lk"])
    _compare(problems, "L0_dot_H", res.get("L0_dot_H"), want["L0"])
    if item["seed_front"] == "disk":
        _compare(problems, "L0_dot_H vs x-lines", res.get("L0_dot_H"), counts["x"])
    return problems


# (d D, d U, d lk_B, d x-lines) of each scripted move on the disc page
MOVE_TRADES = {
    ("r1", None): (1, 1, 0, 0),
    ("r1_inv", None): (-1, -1, 0, 0),
    ("stabilize", "down"): (2, 0, 0, 0),
    ("stabilize", "up"): (0, 2, 0, 0),
    ("k2", "left"): (2, 0, 0, -1),
    ("b1", "down"): (2, 0, -1, 0),
}


def check_moves(texts, item):
    """A ``moves`` output front against its script's trades.

    A grow-and-undo script must give back its input vertex for vertex.
    """
    problems = []
    doc = json.loads(texts[0])
    if doc.get("format") != "front/1":
        return ["output is not a front/1 document"]
    got = front_from_doc(doc)
    before = front_from_model(item["front"])
    if item["kind"] == "undo":
        _compare(problems, "undone front", got, before)
        return problems
    want = item.get("want")
    if want is None:
        want = front_counts(before)
        for step in item["steps"]:
            dd, du, dlk, dx = MOVE_TRADES[(step["move"], step["site"].get("variant"))]
            want = {"D": want["D"] + dd, "U": want["U"] + du, "lk": want["lk"] + dlk, "x": want["x"] + dx}
        item["want"] = want
    counts = front_counts(got)
    for key in ("D", "U", "lk"):
        _compare(problems, key, counts[key], want[key])
    if item["seed_front"] == "disk":
        _compare(problems, "x-lines", counts["x"], want["x"])
    return problems


# ------------------------------------------------------ page projections


def plane_oracle(curve, marked):
    """Writhe, turning number and winding numbers in floats.

    The writhe comes from pairwise segment intersections, the turning
    number from summed exterior angles and each winding number from the
    summed angle the curve subtends at the point; all are integers,
    recovered by rounding.
    """
    table = {
        frozenset([tuple(e["over"]), tuple(e["under"])]): tuple(e["over"])
        for e in curve.over_under
    }
    segs = []
    for ci, comp in enumerate(curve.components):
        pts = [(float(x), float(y)) for x, y in comp]
        n = len(pts)
        for i in range(n):
            segs.append((ci, i, n, pts[i], pts[(i + 1) % n]))
    writhe = 0
    for i, (ci1, s1, n1, a1, b1) in enumerate(segs):
        d1 = (b1[0] - a1[0], b1[1] - a1[1])
        for ci2, s2, n2, a2, b2 in segs[i + 1:]:
            if ci1 == ci2 and ((s1 - s2) % n1 in (0, 1) or (s2 - s1) % n1 in (0, 1)):
                continue
            d2 = (b2[0] - a2[0], b2[1] - a2[1])
            den = _det(d1, d2)
            if den == 0:
                continue
            w = (a2[0] - a1[0], a2[1] - a1[1])
            s = _det(w, d2) / den
            u = _det(w, d1) / den
            if 0 < s < 1 and 0 < u < 1:
                over = table[frozenset([(ci1, s1), (ci2, s2)])]
                do, du = (d1, d2) if over == (ci1, s1) else (d2, d1)
                writhe += 1 if _det(do, du) > 0 else -1
    turning = 0.0
    for comp in curve.components:
        pts = [(float(x), float(y)) for x, y in comp]
        n = len(pts)
        for i in range(n):
            p, q, r = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
            u = (q[0] - p[0], q[1] - p[1])
            v = (r[0] - q[0], r[1] - q[1])
            turning += math.atan2(_det(u, v), u[0] * v[0] + u[1] * v[1])
    windings = []
    for m in marked:
        m = (float(m[0]), float(m[1]))
        total = 0.0
        for _, _, _, a, b in segs:
            u = (a[0] - m[0], a[1] - m[1])
            v = (b[0] - m[0], b[1] - m[1])
            total += math.atan2(_det(u, v), u[0] * v[0] + u[1] * v[1])
        windings.append(round(total / (2 * math.pi)))
    return {"tb": writhe, "rot": round(turning / (2 * math.pi)), "windings": windings}


def check_lagr(texts, item):
    """``tb`` and ``rot-lagr`` reports against the construction and the oracle."""
    oracle = item.get("oracle")
    if oracle is None:
        oracle = item["oracle"] = plane_oracle(item["curve"], item["page"].marked_points)
    tb, problems = _report(texts[0], "tb", item["raw"])
    rot, more = _report(texts[1], "rot-lagr", item["raw"])
    problems += more
    want = item["want"]
    _compare(problems, "oracle tb", oracle["tb"], want["tb"])
    _compare(problems, "oracle rot", oracle["rot"], want["rot"])
    _compare(problems, "oracle windings", oracle["windings"], want["windings"])
    _compare(problems, "tb", tb.get("tb"), oracle["tb"])
    _compare(problems, "rot", rot.get("rot"), oracle["rot"])
    _compare(problems, "windings", rot.get("windings"), oracle["windings"])
    if None in (rot.get("rot_V0"), rot.get("L_dot_H")) or rot["rot_V0"] + rot["L_dot_H"] != rot.get("rot"):
        problems.append("rot_V0 + L_dot_H = %r + %r, not rot %r" % (
            rot.get("rot_V0"), rot.get("L_dot_H"), rot.get("rot")))
    return problems


# the check of each workload's reports, by workload name
CHECKS = {"front-rot": check_rot, "front-moves": check_moves, "lagr-classical": check_lagr}
