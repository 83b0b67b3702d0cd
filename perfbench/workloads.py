"""Seeded inputs for the three workloads, written as morsebook workspaces.

Every input is a function of the workload seed alone.  Fronts are grown
from two fixture fronts by moves applied through the public
``morsebook.moves.apply_move``, so each step is validated by the program
itself; page projections are built directly from a template, so their
crossing signs, turning and windings are known by construction.  Each
input carries the expectation the checks compare the program's report
against.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction as F

from morsebook import fixtures as fx
from morsebook.fileio import MOVES_FORMAT, Workspace, serialize_workspace
from morsebook.lagrangian import Band, LagrangianDiagram, PageModel
from morsebook.moves import apply_move
from morsebook.validation import InvalidInput

# Vertex counts at which a growing front is snapshotted; rung 0 is the
# fixture front itself.
FRONT_RUNGS = (16, 32, 64, 128)
LAGR_RUNGS = (10, 16, 32, 64, 128)

# The rotation-report terms of the two seed fronts (rot, D - U, L0.H,
# L.H); D, U and lk_B are recounted by the checks from the vertex data.
SEED_FRONTS = {
    "disk": (fx.disk_s3, fx.disk_s3_unknot, {"rot": 0, "DU": 0, "L0": 0, "L": 0}),
    "lambda": (fx.fig5_diagram, fx.fig5_lambda, {"rot": 0, "DU": 0, "L0": 0, "L": 0}),
}

# Growth cycles through these moves in this order, so every seed grows
# fronts of the same vertex counts; the seed picks the sites.  k2 only in
# its 'left' variant: 'right' is not an isotopy when the chord is short
# (see CHANGES.md).
GROWTH_CYCLE = ("r1", "stabilize", "r1", "k2")
SITE_TRIES = 40

# (d rot, d (D - U), d L0.H) of each growth step; L.H moves with L0.H.
TRADES = {
    ("r1", None): (0, 0, 0),
    ("stabilize", "down"): (1, 2, 0),
    ("stabilize", "up"): (-1, -2, 0),
    ("k2", "left"): (0, 2, -1),
}


def _hosts(front):
    """The longest quarter of the rightward strictly descending segments.

    Every move here takes such a segment.  Keeping to long ones grows
    fronts evenly: kinks set inside kinks would shrink the coordinates'
    scale, and the cost of exact arithmetic with them, from seed to seed.
    """
    comp = front.components[0]
    last = len(comp.vertices) - 1  # r1_inv cannot undo a kink on the closing segment
    hosts = sorted(
        (a[0] - b[0], i) for i, a, b in comp.segments() if i != last and b[0] > a[0] and b[1] < a[1]
    )
    return [i for _, i in hosts[: max(1, len(hosts) // 4)]]


def _site(rng, front, move):
    site = {"component": 0, "segment": rng.choice(_hosts(front)), "u": F(rng.randint(3, 7), 10)}
    if move == "stabilize":
        site["variant"] = rng.choice(("down", "up"))
    elif move == "k2":
        site["variant"] = "left"
    elif move == "b1":
        # 'up' is not an isotopy on hosts steeper than its climb (see
        # CHANGES.md), so only the 'down' fold is scripted
        site["variant"] = "down"
    return site


def try_move(d, front, move, rng):
    """Apply ``move`` at up to SITE_TRIES seeded sites; (front, step) or None."""
    for _ in range(SITE_TRIES):
        site = _site(rng, front, move)
        try:
            return apply_move(d, front, move, site), {"move": move, "site": site}
        except InvalidInput:
            continue
    return None


def grow(d, front, rng, top, extra=0):
    """Grow ``front`` by seeded moves until it has ``top`` vertices.

    Returns the list of fronts after each step (the input first) and the
    steps.  The step after each rung snapshot is forced to be an r1, so
    the moves workload can take it as a grow-and-undo script.  ``extra``
    steps are applied past the top rung.
    """
    fronts, steps = [front], []
    cycle = 0
    force_r1 = True
    top_at = None
    while top_at is None or len(steps) < top_at + extra:
        move = "r1" if force_r1 else GROWTH_CYCLE[cycle % len(GROWTH_CYCLE)]
        cycle += not force_r1
        n = len(fronts[-1].components[0].vertices)
        got = try_move(d, fronts[-1], move, rng)
        if got is None:
            raise RuntimeError("no site for %s on a %d-vertex front" % (move, n))
        fronts.append(got[0])
        steps.append(got[1])
        m = len(got[0].components[0].vertices)
        force_r1 = any(n < r <= m for r in FRONT_RUNGS)
        if top_at is None and m >= top:
            top_at = len(steps)
    return fronts, steps


def _rung_indices(fronts):
    """Index into ``fronts`` of rung 0 and of each FRONT_RUNGS snapshot."""
    out = [0]
    for r in FRONT_RUNGS:
        out.append(next(i for i, f in enumerate(fronts) if len(f.components[0].vertices) >= r))
    return out


def _step_key(step):
    return (step["move"], step["site"].get("variant"))


def _write_workspace(path, d, fronts=None, pages=None, lagrangians=None):
    text = serialize_workspace(Workspace(d, fronts or {}, pages or {}, lagrangians or {}, b""))
    with open(path, "w") as handle:
        handle.write(text)
    return text.encode("utf-8")


def _write_script(path, steps):
    doc = {
        "format": MOVES_FORMAT,
        "steps": [
            {"move": s["move"], "site": {k: (str(v) if isinstance(v, F) else v) for k, v in s["site"].items()}}
            for s in steps
        ],
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)


# ------------------------------------------------------------ front-rot


def front_rot_inputs(seed, workdir):
    """One workspace per (seed front, rung), each with its predicted terms."""
    items = []
    for name, (diagram, seed_front, terms) in sorted(SEED_FRONTS.items()):
        d = diagram()
        rng = random.Random("front-rot/%d/%s" % (seed, name))
        fronts, steps = grow(d, seed_front(), rng, FRONT_RUNGS[-1])
        for rung, idx in enumerate(_rung_indices(fronts)):
            want = dict(terms)
            for step in steps[:idx]:
                dr, ddu, dl = TRADES[_step_key(step)]
                want["rot"] += dr
                want["DU"] += ddu
                want["L0"] += dl
                want["L"] += dl
            path = os.path.join(workdir, "rot-%s-%d.json" % (name, rung))
            raw = _write_workspace(path, d, {"front": fronts[idx]})
            items.append({
                "argvs": (["rot", path, "--front", "front", "--format", "json"],),
                "seed_front": name,
                "rung": rung,
                "raw": raw,
                "front": fronts[idx],
                "want": want,
            })
    return items


# ---------------------------------------------------------- front-moves


def front_moves_inputs(seed, workdir):
    """Two scripts per (seed front, rung): a trade script and a grow-and-undo.

    The trade script is the three growth steps that follow the rung
    snapshot; the growth already applied them, so they are known to fit.
    On the disc fronts a b1 fold follows, tried here.  The fronts grown
    from lambda get no fold: their teleport jump closes the vertex list,
    and b1 shifts the exit of that jump a page away from its entry, which
    validation refuses (see CHANGES.md).  The grow-and-undo script
    inserts the r1 kink of the first growth step and removes it again.
    """
    items = []
    for name, (diagram, seed_front, _) in sorted(SEED_FRONTS.items()):
        d = diagram()
        rng = random.Random("front-moves/%d/%s" % (seed, name))
        fronts, steps = grow(d, seed_front(), rng, FRONT_RUNGS[-1], extra=3)
        for rung, idx in enumerate(_rung_indices(fronts)):
            trade = steps[idx: idx + 3]
            if name == "disk":
                got = try_move(d, fronts[idx + 3], "b1", rng)
                if got is None:
                    raise RuntimeError("no b1 site on rung %d of %s" % (rung, name))
                trade.append(got[1])
            r1 = steps[idx]
            kink = int(r1["site"]["segment"]) + 1
            undo = [r1, {"move": "r1_inv", "site": {"component": 0, "vertex": kink}}]
            ws = os.path.join(workdir, "moves-%s-%d.json" % (name, rung))
            raw = _write_workspace(ws, d, {"front": fronts[idx]})
            for kind, script in (("trade", trade), ("undo", undo)):
                spath = os.path.join(workdir, "moves-%s-%d-%s.json" % (name, rung, kind))
                _write_script(spath, script)
                items.append({
                    "argvs": (["moves", ws, "--front", "front", "--script", spath],),
                    "seed_front": name,
                    "rung": rung,
                    "raw": raw,
                    "front": fronts[idx],
                    "kind": kind,
                    "steps": script,
                })
    return items


# ------------------------------------------------------- lagr-classical

_BAND_X = Band([(5, F(1, 2)), (5, -F(1, 2)), (8, -F(1, 2)), (8, F(1, 2))])
_BAND_Y = Band([(F(1, 2), 5), (-F(1, 2), 5), (-F(1, 2), 8), (F(1, 2), 8)])
PAGES = {0: (), 1: (_BAND_X,), 2: (_BAND_X, _BAND_Y)}

# A curl along an edge A -> B, in units of (B - A)/8 along the edge and
# J(B - A)/8 across it (J = quarter turn left).  It leaves the edge line
# to the right, comes back across the segment from A and rejoins the
# line: one crossing (segment A->P1 against P3->P4) and a clockwise
# turn.  Mirrored across the edge it turns counterclockwise.
_CURL = ((3, 0), (3, -2), (1, -2), (1, 1), (4, 1), (5, 0))

# A tongue from the base polygon into a band, past its saddle and back:
# it winds once around the saddle without traversing the band.
_TONGUE = {
    0: ((3, -F(1, 4)), (F(29, 4), -F(1, 4)), (F(29, 4), F(1, 4)), (3, F(1, 4))),
    1: ((F(1, 4), 3), (F(1, 4), F(29, 4)), (-F(1, 4), F(29, 4)), (-F(1, 4), 3)),
}
_RADIUS = 4


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def lagr_polygon(rng, bands, target):
    """A polygon with about ``target`` vertices, its crossing table and
    its expected tb, turning number and windings."""
    m = 4 * max(1, math.ceil(target / 24))
    base = []
    for k in range(m):
        ang = 2 * math.pi * (k + 0.5) / m
        base.append((F(round(_RADIUS * 64 * math.cos(ang)), 64), F(round(_RADIUS * 64 * math.sin(ang)), 64)))
    # tongue b sits on the edge crossing angle b * pi/2
    tongue_edge = {(m - 1) if b == 0 else (m // 4 - 1): b for b in range(bands)}
    free = [k for k in range(m) if k not in tongue_edge]
    curls = max(0, math.ceil((target - m - 4 * bands) / 6))
    curl_edges = set(rng.sample(free, min(curls, len(free))))

    pts, table, tb, turning = [], [], 0, 0
    for k in range(m):
        a, b = base[k], base[(k + 1) % m]
        pts.append(a)
        if k in tongue_edge:
            pts.extend(_TONGUE[tongue_edge[k]])
        elif k in curl_edges:
            e = (b[0] - a[0], b[1] - a[1])
            j = (-e[1], e[0])
            side = rng.choice((1, -1))  # 1: clockwise curl, -1: mirrored
            start = len(pts) - 1
            pts.extend(
                (a[0] + (u * e[0] + side * v * j[0]) / 8, a[1] + (u * e[1] + side * v * j[1]) / 8)
                for u, v in _CURL
            )
            edge = (start, (pts[start + 1][0] - a[0], pts[start + 1][1] - a[1]))
            rise = (start + 3, (pts[start + 4][0] - pts[start + 3][0], pts[start + 4][1] - pts[start + 3][1]))
            over, under = (edge, rise) if rng.random() < 0.5 else (rise, edge)
            table.append({"over": [0, over[0]], "under": [0, under[0]]})
            tb += 1 if _det(over[1], under[1]) > 0 else -1
            turning -= side
    orient = rng.choice((1, -1))
    if orient < 0:
        # reversing relabels segment i as n - 2 - i (segment n - 1 keeps
        # its index); a curl traversed backwards turns the other way
        n = len(pts)
        pts = pts[::-1]
        table = [{k: [0, (n - 2 - e[k][1]) % n] for k in ("over", "under")} for e in table]
        turning = -turning
    turning += orient
    windings = [orient] + [orient] * bands
    return LagrangianDiagram([pts], table), {"tb": tb, "rot": turning, "windings": windings}


def lagr_inputs(seed, workdir):
    """One workspace per (band count, rung)."""
    items = []
    d = fx.disk_s3()
    for bands, band_list in sorted(PAGES.items()):
        rng = random.Random("lagr-classical/%d/%d" % (seed, bands))
        page = PageModel((0, 0), 10, band_list)
        for rung, target in enumerate(LAGR_RUNGS):
            curve, want = lagr_polygon(rng, bands, target)
            path = os.path.join(workdir, "lagr-%d-%d.json" % (bands, rung))
            raw = _write_workspace(path, d, pages={"page": page}, lagrangians={"curve": curve})
            argv = [path, "--page", "page", "--lagr", "curve", "--format", "json"]
            items.append({
                "argvs": (["tb"] + argv, ["rot-lagr"] + argv),
                "bands": bands,
                "rung": rung,
                "raw": raw,
                "page": page,
                "curve": curve,
                "want": want,
            })
    return items


BUILDERS = {
    "front-rot": front_rot_inputs,
    "front-moves": front_moves_inputs,
    "lagr-classical": lagr_inputs,
}
