from fractions import Fraction as F

import contextlib
import io
import json
import math
import random
import re

import pytest

from morsebook.cli import main
from morsebook.diagram import MorseDiagram, TraceCurve, TracePair, validate_diagram
from morsebook.fileio import MOVES_FORMAT
from morsebook.fixtures import disk_s3, disk_s3_unknot, fig1_torus, fig5_diagram, fig5_lambda
from morsebook.front import CUSP, PLAIN, FrontComponent, FrontProjection, Vertex, cusp_counts, lk_binding
from morsebook.invariants import rot_front
from morsebook import moves
from morsebook.geometry import det
from morsebook.moves import PatternNotFound, apply_move
from morsebook.validation import InvalidInput


def small_almond(d1=None):
    return FrontProjection(
        [
            FrontComponent(
                0,
                [
                    Vertex(F(3, 16), F(7, 100), CUSP),
                    Vertex(F(4, 16), F(5, 100), PLAIN),
                    Vertex(F(5, 16), F(3, 100), CUSP),
                    Vertex(F(4, 16), F(6, 100), PLAIN),
                ],
            )
        ]
    )


def test_r1_then_inverse_restores_bit_exactly():
    d = disk_s3()
    f = disk_s3_unknot()
    kinked = apply_move(d, f, "r1", {"component": 0, "segment": 0, "u": F(1, 3)})
    back = apply_move(d, kinked, "r1_inv", {"component": 0, "vertex": 1})
    orig = [(v.x, v.t, v.kind) for v in f.components[0].vertices]
    rest = [(v.x, v.t, v.kind) for v in back.components[0].vertices]
    assert orig == rest
    assert back.components[0].closure == f.components[0].closure


def test_r1_adds_one_up_one_down_and_one_positive_crossing():
    from morsebook.front import crossings

    d = disk_s3()
    f = disk_s3_unknot()
    out = apply_move(d, f, "r1", {"component": 0, "segment": 0, "u": F(1, 2)})
    d0, u0 = cusp_counts(f)
    d1, u1 = cusp_counts(out)
    assert (d1 - d0, u1 - u0) == (1, 1)
    found = crossings(out)
    assert len(found) == 1 and found[0].sign == 1


def test_k2_changes_horizontal_count_against_cusp_pair():
    d = fig1_torus()
    f = small_almond()
    base = rot_front(d, f)
    for variant, want_l0, want_cusps in (("left", -1, 2), ("right", 1, -2)):
        out = apply_move(
            d, f, "k2", {"component": 0, "segment": 0, "u": F(1, 2), "variant": variant}
        )
        rep = rot_front(d, out)
        assert rep.L0_dot_H - base.L0_dot_H == want_l0
        assert (rep.D - rep.U) - (base.D - base.U) == want_cusps
        assert rep.rot == base.rot


def test_b1_changes_lk_against_cusp_pair():
    # on lambda the teleport jump closes the vertex list, so the fold
    # leaves its exit a page below or above its entry, one t-closure on
    for d, f, segment in ((disk_s3(), disk_s3_unknot(), 0), (fig5_diagram(), fig5_lambda(), 1)):
        D0, U0 = cusp_counts(f)
        lk0 = lk_binding(f)
        for variant, want_lk, want_cusps in (("down", -1, 2), ("up", 1, -2)):
            out = apply_move(
                d, f, "b1", {"component": 0, "segment": segment, "u": F(1, 2), "variant": variant}
            )
            D1, U1 = cusp_counts(out)
            assert lk_binding(out) - lk0 == want_lk
            assert (D1 - U1) - (D0 - U0) == want_cusps


def test_b1_up_refuses_a_host_steeper_than_its_climb():
    # the climb rises about 64 per unit of x; this host falls 400, so
    # the detach cusp would turn down and the fold would change rot
    steep = FrontProjection(
        [
            FrontComponent(
                0,
                [
                    Vertex(F(1, 10), F(9, 10), CUSP),
                    Vertex(F(101, 1000), F(1, 2), PLAIN),
                    Vertex(F(1, 5), F(1, 10), CUSP),
                    Vertex(F(3, 20), F(17, 20), PLAIN),
                ],
            )
        ]
    )
    site = {"component": 0, "segment": 0, "u": F(1, 2)}
    with pytest.raises(PatternNotFound, match="steeper"):
        apply_move(disk_s3(), steep, "b1", dict(site, variant="up"))
    out = apply_move(disk_s3(), steep, "b1", dict(site, variant="down"))
    assert cusp_counts(out) == (3, 1)


def test_k2_right_refuses_a_chord_within_the_overshoot():
    d = disk_s3()
    f = disk_s3_unknot()
    site = {"component": 0, "segment": 0, "variant": "right"}
    # the chord to q is 1/20000, under the default overshoot 2^-14: the
    # final cusp would turn down and rot would move to 1
    with pytest.raises(PatternNotFound, match="drop"):
        apply_move(d, f, "k2", dict(site, u=F(999, 1000)))
    rep = rot_front(d, apply_move(d, f, "k2", dict(site, u=F(99, 100))))
    assert (rep.rot, rep.D, rep.U) == (0, 1, 3)


def test_composite_pass_sequence_preserves_rotation():
    d = fig1_torus()
    f = small_almond()
    base = rot_front(d, f).rot
    script = [
        {"move": "r1", "site": {"component": 0, "segment": 0, "u": F(1, 2)}},
        {"move": "cusp_trace", "site": {"component": 0, "vertex": 6, "pair": 2, "side": "plus"}},
        {"move": "r1", "site": {"component": 0, "segment": 5, "u": F(1, 2)}},
        {"move": "s1", "site": {"component": 0, "vertex": 10, "depth": F(1, 2048)}},
        {"move": "k3", "site": {"component": 0, "vertex": 10, "pair": 2, "side": "plus"}},
    ]
    cur = f
    for step in script:
        cur = apply_move(d, cur, step["move"], step["site"])
        assert rot_front(d, cur).rot == base
    assert sum(1 for v in cur.components[0].vertices if v.kind == "teleport") == 4


def test_k3_exchanges_poke_for_teleports():
    d = fig1_torus()
    f = small_almond()
    poked = apply_move(
        d, f, "cusp_trace", {"component": 0, "vertex": 2, "pair": 2, "side": "plus"}
    )
    out = apply_move(d, poked, "k3", {"component": 0, "vertex": 2, "pair": 2, "side": "plus"})
    teleports = [v for v in out.components[0].vertices if v.kind == "teleport"]
    assert len(teleports) == 4
    assert cusp_counts(out) == cusp_counts(poked)
    assert rot_front(d, out).rot == rot_front(d, poked).rot


def _started_at(comp, r):
    """The same closed curve with its vertex list started at vertex r;
    a vertex taken across the end of the list moves by the closure."""
    n = len(comp.vertices)
    verts = []
    for j in range(r, r + n):
        turns, i = divmod(j, n)
        verts.append(comp.vertices[i].shifted(turns * comp.closure[0], turns * comp.closure[1]))
    return FrontComponent(comp.torus, verts, comp.closure)


def _cyclic_mod_1(front):
    return [(v.x % 1, v.t % 1, v.kind) for v in front.components[0].vertices]


@pytest.mark.parametrize("start", [0, -1, -2, -3], ids=["0", "n-1", "n-2", "n-3"])
def test_r1_inv_removes_a_kink_at_or_across_the_list_start(start):
    d = disk_s3()
    wrap = {"component": 0, "segment": 0, "u": F(1, 2), "variant": "left"}
    f = apply_move(d, disk_s3_unknot(), "k2", wrap)
    kinked = apply_move(d, f, "r1", {"component": 0, "segment": 3, "u": F(1, 2)})
    comp = kinked.components[0]
    assert comp.closure == (-1, 0)
    # the kink starts at vertex 4; away from the list start it comes out
    plain = apply_move(d, kinked, "r1_inv", {"component": 0, "vertex": 4})
    vertex = start % len(comp)
    moved = FrontProjection([_started_at(comp, 4 - vertex)])
    out = apply_move(d, moved, "r1_inv", {"component": 0, "vertex": vertex})
    ref, got = _cyclic_mod_1(plain), _cyclic_mod_1(out)
    assert any(got == ref[r:] + ref[:r] for r in range(len(ref)))
    assert out.components[0].closure == plain.components[0].closure
    assert rot_front(d, out).rot == rot_front(d, plain).rot


def test_pattern_not_found_on_bad_sites():
    d = disk_s3()
    f = disk_s3_unknot()
    with pytest.raises(PatternNotFound):
        apply_move(d, f, "r1_inv", {"component": 0, "vertex": 0})
    with pytest.raises(PatternNotFound):
        apply_move(d, f, "cusp_trace", {"component": 0, "vertex": 1, "pair": 1, "side": "plus"})
    with pytest.raises(InvalidInput):
        apply_move(d, f, "nonsense", {})


@pytest.mark.parametrize(
    "site, code, message",
    [
        ({}, 1, "error: site has no 'component'"),
        (5, 2, "parse error: moves.steps[0].site: expected an object"),
        ({"component": 0, "segment": 9}, 1, "error: site segment 9 is out of range"),
        ({"component": 0, "segment": 0.9}, 1, "error: site segment 0.9 is not an integer"),
        ({"component": True, "segment": 0}, 1, "error: site component True is not an integer"),
        ({"component": 0, "segment": 0, "u": " 1/2 "}, 1, "error: site u ' 1/2 ' is not a rational"),
        ({"component": 0, "segment": 0, "u": 0.5}, 1, "error: site u 0.5 is not a rational"),
    ],
)
def test_malformed_sites_end_in_a_one_line_error(tmp_path, site, code, message):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"format": MOVES_FORMAT, "steps": [{"move": "r1", "site": site}]}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        got = main(["moves", str(tmp_path / "disk_s3.json"), "--front", "unknot", "--script", str(script)])
    assert (got, err.getvalue()) == (code, message + "\n")


@pytest.mark.parametrize(
    "move, site, message",
    [
        ("s1", {"component": 1, "vertex": 0}, "component 1 is out of range"),
        ("s1", {"component": 0, "vertex": -1}, "vertex -1 is out of range"),
        ("r1", {"component": 0, "segment": "x"}, "segment 'x' is not an integer"),
        ("r1", {"component": 0, "segment": 0, "u": "1/0"}, "u '1/0' is not a rational"),
        ("stabilize", {"component": 0, "segment": 0, "variant": []}, "variant"),
        ("cusp_trace", {"component": 0, "vertex": 0, "pair": 1}, "site has no 'side'"),
        ("r1", {"component": 0, "segment": 0.9}, "segment 0.9 is not an integer"),
        ("r1", {"component": True, "segment": 0}, "component True is not an integer"),
        ("r1", {"component": 0, "segment": 0, "u": " 1/2 "}, "u ' 1/2 ' is not a rational"),
        ("r1", {"component": 0, "segment": 0, "u": 0.5}, "u 0.5 is not a rational"),
    ],
)
def test_malformed_site_values_are_pattern_errors(move, site, message):
    with pytest.raises(PatternNotFound, match=re.escape(message)):
        apply_move(disk_s3(), disk_s3_unknot(), move, site)


from conftest import almond, move_walk, random_move_sites as _random_site_instances


def test_every_isotopy_move_preserves_rotation_on_random_sites():
    rng = random.Random(1234)
    per_move = 12
    for move in ("r1", "cusp_trace", "s1", "k2", "k3"):
        for d, f, site, out in _random_site_instances(rng, per_move, move):
            before = rot_front(d, f)
            after = rot_front(d, out)
            assert after.rot == before.rot, (move, site)


def test_b1_deltas_on_random_sites():
    rng = random.Random(4321)
    for variant, want_lk in (("down", -1), ("up", 1)):
        for d, f, site, out in _random_site_instances(rng, 10, "b1", variant):
            want_cusps = -2 * want_lk
            d0, u0 = cusp_counts(f)
            d1, u1 = cusp_counts(out)
            assert lk_binding(out) - lk_binding(f) == want_lk
            assert (d1 - u1) - (d0 - u0) == want_cusps


def test_lk_binding_invariant_under_all_moves_except_b1():
    rng = random.Random(777)
    for move in ("r1", "cusp_trace", "s1", "k2", "k3"):
        for d, f, site, out in _random_site_instances(rng, 5, move):
            assert lk_binding(out) == lk_binding(f), move


# ------------------------------------------------ exact outputs of the templates


def _vertex_text(front):
    return " ".join("%s,%s,%s" % (v.x, v.t, v.kind[0]) for v in front.components[0].vertices)


# r1, stabilize 'down' and stabilize 'up' on the disc unknot, on segment 0
# at u = 1/3 (the first scale fits) and, after one kink, at u = 2/3, where
# the kink blocks the first scales (three for r1 and 'down', one for 'up')
PINNED = {
    ("r1", None, False): "1/10,7/10,c 1/6,3/5,p 7/40,11/20,c 17/120,13/20,c 11/60,23/40,p"
    " 3/10,2/5,p 1/2,3/10,c 3/10,3/5,p",
    ("stabilize", "down", False): "1/10,7/10,c 1/6,3/5,p 41/240,23/40,c 13/80,37/64,c 1/5,11/20,p"
    " 3/10,2/5,p 1/2,3/10,c 3/10,3/5,p",
    ("stabilize", "up", False): "1/10,7/10,c 1/6,3/5,p 41/240,383/640,c 109/640,193/320,c"
    " 169/960,75/128,p 3/10,2/5,p 1/2,3/10,c 3/10,3/5,p",
    ("r1", None, True): "1/10,7/10,c 13/90,19/30,p 139/960,101/160,c 413/2880,61/96,c"
    " 209/1440,607/960,p 1/6,3/5,p 7/40,11/20,c 17/120,13/20,c 11/60,23/40,p 3/10,2/5,p"
    " 1/2,3/10,c 3/10,3/5,p",
    ("stabilize", "down", True): "1/10,7/10,c 13/90,19/30,p 833/5760,607/960,c"
    " 277/1920,1619/2560,c 7/48,101/160,p 1/6,3/5,p 7/40,11/20,c 17/120,13/20,c 11/60,23/40,p"
    " 3/10,2/5,p 1/2,3/10,c 3/10,3/5,p",
    ("stabilize", "up", True): "1/10,7/10,c 13/90,19/30,p 209/1440,2431/3840,c"
    " 557/3840,1217/1920,c 841/5760,2423/3840,p 1/6,3/5,p 7/40,11/20,c 17/120,13/20,c"
    " 11/60,23/40,p 3/10,2/5,p 1/2,3/10,c 3/10,3/5,p",
}


def test_insertion_templates_give_their_exact_vertices():
    d = disk_s3()
    f = disk_s3_unknot()
    kinked = apply_move(d, f, "r1", {"component": 0, "segment": 0, "u": F(1, 3)})
    for (move, variant, after_kink), want in PINNED.items():
        site = {"component": 0, "segment": 0, "u": F(2, 3) if after_kink else F(1, 3)}
        if variant:
            site["variant"] = variant
        out = apply_move(d, kinked if after_kink else f, move, site)
        assert _vertex_text(out) == want, (move, variant, after_kink)


# ------------------------------------------------- clearance against the oracle


def _box_is_clear_fraction(d, f, torus, x_lo, x_hi, t_lo, t_hi, skip=()):
    """The clearance test on Fractions: each segment over a superset of
    the translates reaching the box, plus every vertex over translates
    -1..1."""

    def hits(a, b):
        alo, ahi = min(a[0], b[0]), max(a[0], b[0])
        tlo, thi = min(a[1], b[1]), max(a[1], b[1])
        for nx in range(math.floor(x_lo - ahi), math.ceil(x_hi - alo) + 1):
            for nt in range(math.floor(t_lo - thi), math.ceil(t_hi - tlo) + 1):
                pa = (a[0] + nx, a[1] + nt)
                pb = (b[0] + nx, b[1] + nt)
                if max(pa[0], pb[0]) <= x_lo or min(pa[0], pb[0]) >= x_hi:
                    continue
                if max(pa[1], pb[1]) <= t_lo or min(pa[1], pb[1]) >= t_hi:
                    continue
                if _segment_meets_box_fraction(pa, pb, x_lo, x_hi, t_lo, t_hi):
                    return True
        return False

    for _, _, curve in d.curves():
        if curve.torus != torus:
            continue
        for _, a, b in curve.segments():
            if hits(a, b):
                return False
    for ci, comp in enumerate(f.components):
        if comp.torus != torus:
            continue
        for si, a, b in comp.segments():
            if (ci, si) in skip:
                continue
            if hits(a, b):
                return False
        for vi, v in enumerate(comp.vertices):
            if any((ci, s) in skip for s in ((vi - 1) % len(comp.vertices), vi)):
                continue
            for nx in (-1, 0, 1):
                for nt in (-1, 0, 1):
                    if x_lo < v.x + nx < x_hi and t_lo < v.t + nt < t_hi:
                        return False
    return True


def _segment_meets_box_fraction(a, b, x_lo, x_hi, t_lo, t_hi):
    """Closed segment versus open box: an endpoint inside, or a crossing
    of an open box edge.  It misses a segment through two opposite corners."""
    for p in (a, b):
        if x_lo < p[0] < x_hi and t_lo < p[1] < t_hi:
            return True
    corners = [(x_lo, t_lo), (x_hi, t_lo), (x_hi, t_hi), (x_lo, t_hi)]
    for c1, c2 in zip(corners, corners[1:] + corners[:1]):
        d1 = (b[0] - a[0], b[1] - a[1])
        d2 = (c2[0] - c1[0], c2[1] - c1[1])
        denom = det(d1, d2)
        w = (c1[0] - a[0], c1[1] - a[1])
        if denom == 0:
            continue
        s = F(det(w, d2), denom)
        u = F(det(w, d1), denom)
        if 0 <= s <= 1 and 0 < u < 1:
            return True
    return False


def _clearance_fronts(rng):
    """Seeded (diagram, front) pairs: moved fronts from ``random_move_sites``
    and the fronts of ``move_walk`` on the two seed fronts."""
    out = []
    for move in ("r1", "stabilize", "cusp_trace", "k2", "k3"):
        for d, f, _, moved in _random_site_instances(rng, 2, move):
            out += [(d, f), (d, moved)]
    for d, f in ((disk_s3(), disk_s3_unknot()), (fig5_diagram(), fig5_lambda())):
        out += [(d, g) for g in move_walk(rng, d, f, 16)]
    return out


def _random_box(rng, d, f):
    """An open box at a vertex, a trace point or a random point, on a
    random lattice translate; each edge sits on a vertex coordinate or
    off it."""
    points = [v.point for comp in f.components for v in comp.vertices]
    points += [p for _, _, c in d.curves() for s in c.strands for p in s]
    cx, ct = (F(rng.randrange(97), 97), F(rng.randrange(97), 97))
    if rng.random() < 0.5:
        cx, ct = rng.choice(points)
    nx, nt = rng.randint(-2, 2), rng.randint(-2, 2)
    edges = []
    for centre, shift in ((cx, nx), (ct, nt)):
        lo = centre + shift - F(rng.randint(0, 24), rng.choice((64, 256, 1024)))
        hi = centre + shift + F(rng.randint(1, 24), rng.choice((64, 256, 1024)))
        if rng.random() < 0.3:
            lo = rng.choice(points)[len(edges) // 2] + shift
        if rng.random() < 0.3:
            hi = rng.choice(points)[len(edges) // 2] + shift
        if lo >= hi:
            lo, hi = hi - F(1, 128), lo + F(1, 128)
        edges += [lo, hi]
    return tuple(edges)


def test_clearance_clip_matches_the_fraction_oracle():
    rng = random.Random(1984)
    seen = {True: 0, False: 0}
    for d, f in _clearance_fronts(rng):
        comp = f.components[0]
        for _ in range(30):
            box = _random_box(rng, d, f)
            skip = set()
            if rng.random() < 0.5:
                skip = {(0, rng.randrange(len(comp.vertices)))}
            got = moves._box_is_clear(d, f, comp.torus, box, skip)
            assert got == _box_is_clear_fraction(d, f, comp.torus, *box, skip=skip), (box, skip)
            seen[got] += 1
    assert seen[True] > 100 and seen[False] > 100, seen


def test_a_segment_through_two_opposite_corners_meets_the_box():
    assert not _segment_meets_box_fraction((-1, 2), (2, -1), 0, 1, 0, 1)
    diagonal = FrontProjection(
        [FrontComponent(0, [Vertex(F(-1), F(2), PLAIN), Vertex(F(2), F(-1), PLAIN)])]
    )
    box = (F(0), F(1), F(0), F(1))
    assert _box_is_clear_fraction(disk_s3(), diagonal, 0, *box, skip={(0, 1)})
    assert not moves._box_is_clear(disk_s3(), diagonal, 0, box, skip={(0, 1)})
    # a box on another cell, crossed from corner to corner only by the
    # segment's translate (1, -1)
    far = (F(2), F(3), F(-2), F(-1))
    assert not moves._box_is_clear(disk_s3(), diagonal, 0, far, skip={(0, 1)})


def test_k2_refuses_a_band_where_a_trace_curve_slants():
    wiggle = [(F(1, 4), F(0)), (F(1, 4), F(1, 2)), (F(9, 32), F(5, 8)), (F(9, 32), F(3, 4)),
              (F(1, 4), F(31, 32)), (F(1, 4), F(1))]
    straight = [(F(3, 4), F(0)), (F(3, 4), F(1))]
    d = MorseDiagram(1, [TracePair(1, TraceCurve(0, [wiggle]), TraceCurve(0, [straight]))])
    assert validate_diagram(d).ok
    # the host point sits at t = 39/64, where the wiggle slants
    f = FrontProjection([almond(F(3, 8), F(9, 16), F(1, 4), F(1, 16))])
    with pytest.raises(PatternNotFound, match="^trace curve is not vertical over the site band$"):
        apply_move(d, f, "k2", {"component": 0, "segment": 0, "u": F(1, 2), "variant": "left"})
