"""Parsing and serialization of the on-disk formats.

All formats are JSON documents with a versioned ``format`` field and
rationals encoded as "p/q" strings.  Parsing is strict: unknown fields,
malformed rationals, booleans where integers are wanted, bad versions
and dangling references are errors carrying the offending path.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .diagram import MINUS, PLUS, MorseDiagram, Teleport, TraceCurve, TracePair
from .front import CUSP, ENTER, EXIT, PLAIN, TELEPORT, FrontComponent, FrontProjection, Vertex
from .geometry import frac_str
from .lagrangian import Band, LagrangianDiagram, PageModel

DIAGRAM_FORMAT = "morse-diagram/1"
FRONT_FORMAT = "front/1"
PAGE_FORMAT = "page/1"
LAGR_FORMAT = "lagr/1"
MOVES_FORMAT = "moves/1"
REPORT_FORMAT = "report/1"
RESOLUTION_FORMAT = "resolution/1"

# an optional minus sign, ASCII digits, and an optional "/" with digits
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class ParseError(ValueError):
    def __init__(self, path, message):
        self.path = path
        super().__init__("%s: %s" % (path, message))


def _rat(value, path):
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value):
            num, _, den = value.partition("/")
            try:
                return Fraction(int(num), int(den or 1))
            except (ValueError, ZeroDivisionError):  # more digits than int reads, or q = 0
                pass
        raise ParseError(path, "malformed rational %r" % (value,))
    if _is_int(value):
        return Fraction(value)
    raise ParseError(path, "expected a rational string, got %r" % (value,))


def _is_int(value):
    """Whether a JSON value is an integer; booleans are not."""
    return type(value) is int


def _expect_keys(obj, required, optional, path):
    if not isinstance(obj, dict):
        raise ParseError(path, "expected an object")
    for k in obj:
        if k not in required and k not in optional:
            raise ParseError(path, "unknown field %r" % (k,))
    for k in sorted(required):
        if k not in obj:
            raise ParseError(path, "missing field %r" % (k,))


def _list(value, path, size=None, shape="a list"):
    """``value`` if it is a list (of ``size`` items, when given)."""
    if not isinstance(value, list) or size not in (None, len(value)):
        raise ParseError(path, "expected %s" % shape)
    return value


def _expect_format(obj, version, path):
    if obj.get("format") != version:
        raise ParseError(path + ".format", "expected %r" % (version,))


# ------------------------------------------------------------- diagrams


def parse_diagram(doc, path="diagram"):
    _expect_keys(
        doc,
        {"format", "binding_count", "trace_pairs"},
        {"fronts", "pages", "lagrangians"},
        path,
    )
    _expect_format(doc, DIAGRAM_FORMAT, path)
    if not _is_int(doc["binding_count"]) or doc["binding_count"] < 1:
        raise ParseError(path + ".binding_count", "must be a positive integer")
    pairs = []
    ids = set()
    for i, p in enumerate(_list(doc["trace_pairs"], path + ".trace_pairs")):
        ppath = "%s.trace_pairs[%d]" % (path, i)
        _expect_keys(p, {"id", "plus", "minus"}, {"teleports"}, ppath)
        if not _is_int(p["id"]):
            raise ParseError(ppath + ".id", "must be an integer")
        ids.add(p["id"])
        plus = _parse_curve(p["plus"], ppath + ".plus")
        minus = _parse_curve(p["minus"], ppath + ".minus")
        teleports = []
        for j, t in enumerate(_list(p.get("teleports", []), ppath + ".teleports")):
            tpath = "%s.teleports[%d]" % (ppath, j)
            _expect_keys(
                t, {"t", "side", "target_pair", "target_side", "orientation_sign"}, set(), tpath
            )
            if t["side"] not in (PLUS, MINUS) or t["target_side"] not in (PLUS, MINUS):
                raise ParseError(tpath, "sides must be 'plus' or 'minus'")
            if not _is_int(t["orientation_sign"]) or t["orientation_sign"] not in (1, -1):
                raise ParseError(tpath + ".orientation_sign", "must be +-1")
            if not _is_int(t["target_pair"]):
                raise ParseError(tpath + ".target_pair", "must be an integer")
            teleports.append(
                Teleport(
                    _rat(t["t"], tpath + ".t"),
                    t["side"],
                    t["target_pair"],
                    t["target_side"],
                    t["orientation_sign"],
                )
            )
        pairs.append(TracePair(p["id"], plus, minus, teleports))
    for i, p in enumerate(pairs):
        for j, t in enumerate(p.teleports):
            if t.target_pair not in ids:
                raise ParseError(
                    "%s.trace_pairs[%d].teleports[%d].target_pair" % (path, i, j),
                    "no trace pair with id %r" % (t.target_pair,),
                )
    return MorseDiagram(doc["binding_count"], pairs)


def _parse_curve(strands_doc, path):
    if not isinstance(strands_doc, list) or not strands_doc:
        raise ParseError(path, "expected a nonempty list of strands")
    tori = set()
    strands = []
    for si, strand in enumerate(strands_doc):
        spath = "%s[%d]" % (path, si)
        if not isinstance(strand, list) or len(strand) < 2:
            raise ParseError(spath, "a strand needs at least two vertices")
        pts = []
        for vi, triple in enumerate(strand):
            vpath = "%s[%d]" % (spath, vi)
            torus, x, t = _list(triple, vpath, 3, "[torus, x, t]")
            if not _is_int(torus):
                raise ParseError(vpath, "torus must be an integer")
            tori.add(torus)
            pts.append((_rat(x, vpath), _rat(t, vpath)))
        strands.append(pts)
    if len(tori) != 1:
        raise ParseError(path, "all strand vertices must share one torus")
    return TraceCurve(tori.pop(), strands)


def serialize_diagram(d, fronts=None, pages=None, lagrangians=None):
    doc = {
        "format": DIAGRAM_FORMAT,
        "binding_count": d.binding_count,
        "trace_pairs": [
            {
                "id": p.id,
                "plus": _curve_doc(p.plus),
                "minus": _curve_doc(p.minus),
                "teleports": [
                    {
                        "t": frac_str(t.t),
                        "side": t.side,
                        "target_pair": t.target_pair,
                        "target_side": t.target_side,
                        "orientation_sign": t.orientation_sign,
                    }
                    for t in p.teleports
                ],
            }
            for p in d.trace_pairs
        ],
    }
    if fronts:
        doc["fronts"] = {name: front_doc(f) for name, f in fronts.items()}
    if pages:
        doc["pages"] = {name: page_doc(p) for name, p in pages.items()}
    if lagrangians:
        doc["lagrangians"] = {name: lagr_doc(c) for name, c in lagrangians.items()}
    return doc


def _curve_doc(curve):
    return [
        [[curve.torus, frac_str(x), frac_str(t)] for x, t in strand]
        for strand in curve.strands
    ]


# --------------------------------------------------------------- fronts


def parse_front(doc, path="front"):
    _expect_keys(doc, {"format", "components"}, set(), path)
    _expect_format(doc, FRONT_FORMAT, path)
    comps = []
    for ci, comp in enumerate(_list(doc["components"], path + ".components")):
        cpath = "%s.components[%d]" % (path, ci)
        _expect_keys(comp, {"vertices"}, {"closure"}, cpath)
        closure = _list(comp.get("closure", ["0", "0"]), cpath + ".closure", 2, "[wx, wt]")
        wx = _rat(closure[0], cpath + ".closure")
        wt = _rat(closure[1], cpath + ".closure")
        if wx.denominator != 1 or wt.denominator != 1:
            raise ParseError(cpath + ".closure", "closure windings must be integers")
        verts = []
        tori = set()
        for vi, quad in enumerate(_list(comp["vertices"], cpath + ".vertices")):
            vpath = "%s.vertices[%d]" % (cpath, vi)
            torus, x, t, ann = _list(quad, vpath, 4, "[torus, x, t, annotation]")
            if not _is_int(torus):
                raise ParseError(vpath, "torus must be an integer")
            tori.add(torus)
            xf, tf = _rat(x, vpath), _rat(t, vpath)
            if ann == PLAIN or ann == CUSP:
                verts.append(Vertex(xf, tf, ann))
            elif (
                isinstance(ann, list)
                and len(ann) == 4
                and ann[0] == TELEPORT
                and ann[2] in (PLUS, MINUS)
                and ann[3] in (EXIT, ENTER)
                and _is_int(ann[1])
            ):
                verts.append(Vertex(xf, tf, TELEPORT, pair=ann[1], side=ann[2], role=ann[3]))
            else:
                raise ParseError(vpath, "bad annotation %r" % (ann,))
        if len(tori) != 1:
            raise ParseError(cpath, "all vertices must share one torus")
        comps.append(FrontComponent(tori.pop(), verts, (int(wx), int(wt))))
    return FrontProjection(comps)


def front_doc(f):
    out = []
    for comp in f.components:
        verts = []
        for v in comp.vertices:
            if v.kind == TELEPORT:
                ann = [TELEPORT, v.pair, v.side, v.role]
            else:
                ann = v.kind
            verts.append([comp.torus, frac_str(v.x), frac_str(v.t), ann])
        entry = {"vertices": verts}
        if comp.closure != (0, 0):
            entry["closure"] = [str(comp.closure[0]), str(comp.closure[1])]
        out.append(entry)
    return {"format": FRONT_FORMAT, "components": out}


# ------------------------------------------------------ pages and curves


def parse_page(doc, path="page"):
    _expect_keys(doc, {"format", "disc"}, {"bands"}, path)
    _expect_format(doc, PAGE_FORMAT, path)
    disc = doc["disc"]
    _expect_keys(disc, {"center", "radius"}, set(), path + ".disc")
    center = _list(disc["center"], path + ".disc.center", 2, "[x, y]")
    bands = []
    for bi, band in enumerate(_list(doc.get("bands", []), path + ".bands")):
        bpath = "%s.bands[%d]" % (path, bi)
        _expect_keys(band, {"corners"}, set(), bpath)
        corners = []
        for c in _list(band["corners"], bpath + ".corners", 4, "four corners"):
            c = _list(c, bpath + ".corners", 2, "[x, y]")
            corners.append((_rat(c[0], bpath), _rat(c[1], bpath)))
        bands.append(Band(corners))
    center = (_rat(center[0], path), _rat(center[1], path))
    radius = _rat(disc["radius"], path + ".disc.radius")
    if radius <= 0:
        raise ParseError(path + ".disc.radius", "must be positive")
    return PageModel(center, radius, bands)


def page_doc(p):
    doc = {
        "format": PAGE_FORMAT,
        "disc": {
            "center": [frac_str(p.center[0]), frac_str(p.center[1])],
            "radius": frac_str(p.radius),
        },
    }
    if p.bands:
        doc["bands"] = [
            {"corners": [[frac_str(x), frac_str(y)] for x, y in b.corners]}
            for b in p.bands
        ]
    return doc


def parse_lagrangian(doc, path="lagr"):
    _expect_keys(doc, {"format", "components"}, {"crossings"}, path)
    _expect_format(doc, LAGR_FORMAT, path)
    comps = []
    for ci, comp in enumerate(_list(doc["components"], path + ".components")):
        cpath = "%s.components[%d]" % (path, ci)
        pts = []
        for vi, pt in enumerate(_list(comp, cpath)):
            pt = _list(pt, "%s[%d]" % (cpath, vi), 2, "[x, y]")
            pts.append((_rat(pt[0], cpath), _rat(pt[1], cpath)))
        comps.append(pts)
    table = []
    for ei, e in enumerate(_list(doc.get("crossings", []), path + ".crossings")):
        epath = "%s.crossings[%d]" % (path, ei)
        _expect_keys(e, {"over", "under"}, set(), epath)
        for key in ("over", "under"):
            ref = e[key]
            if (
                not isinstance(ref, list)
                or len(ref) != 2
                or not all(_is_int(x) for x in ref)
            ):
                raise ParseError(epath, "crossing references are [component, segment]")
            if not (0 <= ref[0] < len(comps)) or not (0 <= ref[1] < len(comps[ref[0]])):
                raise ParseError(epath, "crossing reference out of range")
        table.append({"over": list(e["over"]), "under": list(e["under"])})
    return LagrangianDiagram(comps, table)


def lagr_doc(c):
    return {
        "format": LAGR_FORMAT,
        "components": [
            [[frac_str(x), frac_str(y)] for x, y in comp] for comp in c.components
        ],
        "crossings": [
            {"over": list(e["over"]), "under": list(e["under"])} for e in c.over_under
        ],
    }


# ------------------------------------------------------------ workspace


class Workspace:
    """A parsed diagram document with its named fronts, pages and curves."""

    def __init__(self, diagram, fronts, pages, lagrangians, raw_bytes):
        self.diagram = diagram
        self.fronts = fronts
        self.pages = pages
        self.lagrangians = lagrangians
        self.raw_bytes = raw_bytes

    def sha256(self):
        import hashlib

        return hashlib.sha256(self.raw_bytes).hexdigest()


def parse_workspace(data):
    """Strictly parse a workspace document from bytes or str."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        doc = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError("document", "not valid JSON: %s" % (e,))
    diagram = parse_diagram(doc)
    for key in ("fronts", "pages", "lagrangians"):
        if not isinstance(doc.get(key, {}), dict):
            raise ParseError(key, "expected an object")
    fronts = {}
    for name, fdoc in doc.get("fronts", {}).items():
        fronts[name] = parse_front(fdoc, "fronts[%r]" % (name,))
        _check_front_refs(diagram, fronts[name], "fronts[%r]" % (name,))
    pages = {}
    for name, pdoc in doc.get("pages", {}).items():
        pages[name] = parse_page(pdoc, "pages[%r]" % (name,))
    lagrangians = {}
    for name, ldoc in doc.get("lagrangians", {}).items():
        lagrangians[name] = parse_lagrangian(ldoc, "lagrangians[%r]" % (name,))
    return Workspace(diagram, fronts, pages, lagrangians, data)


def _check_front_refs(d, f, path):
    ids = {p.id for p in d.trace_pairs}
    for ci, comp in enumerate(f.components):
        if not (0 <= comp.torus < d.binding_count):
            raise ParseError(
                "%s.components[%d]" % (path, ci), "torus index out of range"
            )
        for vi, v in enumerate(comp.vertices):
            if v.kind == TELEPORT and v.pair not in ids:
                raise ParseError(
                    "%s.components[%d].vertices[%d]" % (path, ci, vi),
                    "teleport to nonexistent pair %r" % (v.pair,),
                )


def serialize_workspace(w):
    doc = serialize_diagram(w.diagram, w.fronts, w.pages, w.lagrangians)
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# ----------------------------------------------------------------- moves


def parse_moves(data, path="moves"):
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(path, "not valid JSON: %s" % (e,))
    _expect_keys(doc, {"format", "steps"}, set(), path)
    _expect_format(doc, MOVES_FORMAT, path)
    steps = []
    for i, step in enumerate(_list(doc["steps"], path + ".steps")):
        spath = "%s.steps[%d]" % (path, i)
        _expect_keys(step, {"move"}, {"site"}, spath)
        site = step.get("site", {})
        if not isinstance(site, dict):
            raise ParseError(spath + ".site", "expected an object")
        steps.append({"move": step["move"], "site": site})
    return steps


def resolution_doc(res):
    curves = []
    for c in res.curves:
        curves.append(
            {
                "kind": c.kind,
                "winding": c.winding,
                "points": [[frac_str(x), frac_str(t)] for x, t in c.points],
            }
        )
    mult = {}
    for (pid, side), spans in sorted(res.assignment.coalesced().items()):
        mult["%d/%s" % (pid, side)] = [
            [frac_str(a), frac_str(b), m] for a, b, m in spans
        ]
    return {
        "format": RESOLUTION_FORMAT,
        "curves": curves,
        "multiplicities": mult,
    }
