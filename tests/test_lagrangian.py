from fractions import Fraction as F

import contextlib
import importlib.util
import io
import json
import math
import random
import re
from pathlib import Path

import pytest

from conftest import band_tongue, random_lagrangian, random_page, star_polygon

from morsebook import lagrangian
from morsebook.cli import main
from morsebook.fileio import lagr_doc, page_doc
from morsebook.fixtures import disk_s3_lagr
from morsebook.geometry import DegenerateGeometry, box_overlaps, det, segment_meet, sub
from morsebook.lagrangian import (
    Band,
    LagrangianDiagram,
    PageModel,
    band_pass_counts,
    diagram_crossings,
    field_relative_turning,
    rot_lagrangian,
    tb_writhe,
    turning_number,
    validate_lagrangian,
    winding_numbers,
)
from morsebook.validation import InvalidInput


def small_circle():
    return LagrangianDiagram([[(2, 1), (3, 1), (3, 2), (2, 2)]], [])


def test_embedded_circle_is_valid_and_null():
    page = random_page(random.Random(0), with_bands=True)
    c = small_circle()
    assert validate_lagrangian(page, c).ok
    assert all(x == 0 for x in band_pass_counts(page, c))


def test_tongue_loop_is_null():
    page = PageModel((0, 0), 10, [Band([(5, F(1, 2)), (5, -F(1, 2)), (8, -F(1, 2)), (8, F(1, 2))])])
    # in and back out of the band: two opposite passes cancel
    loop = LagrangianDiagram([[(4, 1), (9, 1), (9, -1), (4, -1)]], [])
    assert validate_lagrangian(page, loop).ok
    assert band_pass_counts(page, loop) == [0]


def test_core_parallel_loop_is_flagged():
    # a chord band inside the disc; the loop traverses it once and
    # closes around the other side, so it is not null-homologous
    page = PageModel((0, 0), 8, [Band([(2, 5), (2, 3), (6, 3), (6, 5)])])
    loop = LagrangianDiagram(
        [[(3, F(7, 2)), (5, F(7, 2)), (5, -5), (-5, -5), (-5, F(7, 2))]], []
    )
    assert validate_lagrangian(page, loop).ok
    assert band_pass_counts(page, loop) == [1]
    with pytest.raises(InvalidInput, match="null-homologous"):
        tb_writhe(page, loop)


def test_fixture_is_valid():
    page, diag = disk_s3_lagr()
    assert validate_lagrangian(page, diag).ok


def test_tb_examples():
    page, diag = disk_s3_lagr()
    assert tb_writhe(page, small_circle()) == 0
    assert tb_writhe(page, diag) == -1


def test_tb_connect_sum_of_two_kinks():
    # two kinked circles side by side as separate components: writhes add
    _, diag = disk_s3_lagr()
    page = PageModel((0, 0), 40)
    shifted = [
        [(x - F(16), y) for x, y in comp] for comp in diag.components
    ]
    two = LagrangianDiagram(
        diag.components + shifted,
        diag.over_under
        + [
            {"over": [1, e["over"][1]], "under": [1, e["under"][1]]}
            for e in diag.over_under
        ],
    )
    assert tb_writhe(page, two) == -2


def test_turning_number_examples():
    page, diag = disk_s3_lagr()
    assert turning_number(page, small_circle()) == 1
    assert turning_number(page, diag) == 0


def test_figure_eight_has_turning_zero():
    page = PageModel((20, 20), 100)
    eight = LagrangianDiagram(
        [[(0, 0), (4, 0), (0, 3), (4, 3)]],
        [{"over": [0, 1], "under": [0, 3]}],
    )
    assert validate_lagrangian(page, eight).ok
    assert turning_number(page, eight) == 0


def test_winding_numbers_examples():
    rng = random.Random(3)
    page = PageModel((0, 0), 10, [Band([(5, F(1, 2)), (5, -F(1, 2)), (8, -F(1, 2)), (8, F(1, 2))])])
    # a curve in the disc away from the centre
    assert winding_numbers(page, small_circle()) == [0, 0]
    # counterclockwise around the centre only
    sq = LagrangianDiagram([[(1, -1), (1, 1), (-1, 1), (-1, -1)]], [])
    assert winding_numbers(page, sq) == [1, 0]
    # through the band, past the saddle: winds around it once
    tongue = LagrangianDiagram([band_tongue(page, 0)], [])
    report = validate_lagrangian(page, tongue)
    assert report.ok, report.issues
    w = winding_numbers(page, tongue)
    assert w[1] in (1, -1)


def test_rot_lagrangian_examples():
    page = PageModel((0, 0), 10)
    sq_off = LagrangianDiagram([[(2, 1), (3, 1), (3, 2), (2, 2)]], [])
    r = rot_lagrangian(page, sq_off)
    assert (r.rot, r.surface_term, r.rot_v0) == (1, 0, 1)
    sq_centered = LagrangianDiagram([[(1, -1), (1, 1), (-1, 1), (-1, -1)]], [])
    r = rot_lagrangian(page, sq_centered)
    assert (r.rot, r.surface_term, r.rot_v0) == (1, 1, 0)
    fixture_page, diag = disk_s3_lagr()
    r = rot_lagrangian(fixture_page, diag)
    assert r.rot == 0
    assert tb_writhe(fixture_page, diag) == -1


def test_decomposition_identity_on_random_diagrams():
    rng = random.Random(6021)
    done = 0
    attempts = 0
    while done < 120 and attempts < 2000:
        attempts += 1
        page = random_page(rng)
        c = random_lagrangian(rng, page)
        if not validate_lagrangian(page, c).ok:
            continue
        if any(band_pass_counts(page, c)):
            continue
        try:
            w = winding_numbers(page, c)
            turning = turning_number(page, c)
            direct = field_relative_turning(page, c)
        except InvalidInput:
            continue  # perturb-input configurations are skipped
        assert turning == direct + w[0] - sum(w[1:])
        done += 1
    assert done == 120


def test_orientation_reversal_behavior():
    page, diag = disk_s3_lagr()
    reversed_diag = LagrangianDiagram(
        [list(reversed(comp)) for comp in diag.components],
        [
            {
                "over": [e["over"][0], _rev_seg(diag, *e["over"])],
                "under": [e["under"][0], _rev_seg(diag, *e["under"])],
            }
            for e in diag.over_under
        ],
    )
    assert tb_writhe(page, reversed_diag) == tb_writhe(page, diag)
    assert turning_number(page, reversed_diag) == -turning_number(page, diag)
    assert winding_numbers(page, reversed_diag) == [
        -x for x in winding_numbers(page, diag)
    ]


def _rev_seg(diag, ci, si):
    n = len(diag.components[ci])
    return (n - 2 - si) % n


def test_vertex_perturbation_keeps_outputs():
    page, diag = disk_s3_lagr()
    nudged = LagrangianDiagram(
        [
            [
                (x + (F(1, 64) if i == 1 else 0), y)
                for i, (x, y) in enumerate(comp)
            ]
            for comp in diag.components
        ],
        diag.over_under,
    )
    assert validate_lagrangian(page, nudged).ok
    assert tb_writhe(page, nudged) == tb_writhe(page, diag)
    assert turning_number(page, nudged) == turning_number(page, diag)
    assert winding_numbers(page, nudged) == winding_numbers(page, diag)


def _all_pairs_crossings(c):
    """The all-pairs Fraction loop that the integer sweep replaced: the oracle."""
    segs = list(c.segments())
    out = []
    for i in range(len(segs)):
        ci1, s1, a1, b1 = segs[i]
        for j in range(i + 1, len(segs)):
            ci2, s2, a2, b2 = segs[j]
            if ci1 == ci2:
                n = len(c.components[ci1])
                if (s1 - s2) % n in (0, 1) or (s2 - s1) % n in (0, 1):
                    continue
            d1 = sub(b1, a1)
            d2 = sub(b2, a2)
            denom = det(d1, d2)
            w = sub(a2, a1)
            if denom == 0:
                if det(w, d1) == 0 and _collinear_overlap(a1, b1, a2, b2):
                    raise InvalidInput("collinear overlapping segments")
                continue
            s = F(det(w, d2), denom)
            u = F(det(w, d1), denom)
            if 0 < s < 1 and 0 < u < 1:
                pt = (a1[0] + s * d1[0], a1[1] + s * d1[1])
                out.append(((ci1, s1), (ci2, s2), pt))
            elif (s in (0, 1) and 0 <= u <= 1) or (u in (0, 1) and 0 <= s <= 1):
                raise InvalidInput("segments touch at an endpoint; perturb input")
    return out


def _collinear_overlap(a1, b1, a2, b2):
    axis = 0 if a1[0] != b1[0] else 1
    lo1, hi1 = sorted((a1[axis], b1[axis]))
    lo2, hi2 = sorted((a2[axis], b2[axis]))
    return max(lo1, lo2) <= min(hi1, hi2)


def _outcome(kernel, c):
    try:
        return kernel(c)
    except InvalidInput as e:
        return str(e)


def _grid_polygon(rng):
    """A closed polygon on a coarse rational grid: it crosses itself,
    touches and overlaps often; consecutive vertices differ."""
    denom = rng.choice((1, 2, 3))
    size = rng.randint(3, 9)
    pts = []
    while len(pts) < size:
        p = (F(rng.randint(-6, 6), denom), F(rng.randint(-6, 6), denom))
        if not pts or p != pts[-1]:
            pts.append(p)
    if pts[0] == pts[-1]:
        pts.pop()
    return pts


def test_crossing_kernel_matches_the_all_pairs_loop():
    rng = random.Random(1979)
    kinds = {"crossings": 0, "raised": 0}
    for i in range(600):
        if i % 2:
            c = random_lagrangian(rng, random_page(rng))
        else:
            c = LagrangianDiagram([_grid_polygon(rng) for _ in range(rng.randint(1, 2))])
        if any(len(comp) < 3 for comp in c.components):
            continue
        want = _outcome(_all_pairs_crossings, c)
        assert _outcome(diagram_crossings, c) == want, c.components
        if isinstance(want, str):
            kinds["raised"] += 1
        elif want:
            kinds["crossings"] += 1
    # the sample reaches both the crossing and the raising branches
    assert min(kinds.values()) > 50, kinds


TRIANGLE = [(0, 0), (4, 0), (2, 3)]


@pytest.mark.parametrize(
    "other, message",
    [
        # a vertex on the triangle's base
        ([(2, 0), (3, -2), (1, -2)], "segments touch at an endpoint; perturb input"),
        # an edge along the triangle's base
        ([(1, 0), (3, 0), (2, -3)], "collinear overlapping segments"),
        # boxes meeting only at the corner (4, 0), which both segments hold
        ([(4, 0), (6, -1), (5, -3)], "segments touch at an endpoint; perturb input"),
    ],
)
def test_crossing_kernel_raises_what_the_all_pairs_loop_raises(other, message):
    c = LagrangianDiagram([TRIANGLE, other])
    assert _outcome(_all_pairs_crossings, c) == message
    with pytest.raises(InvalidInput) as err:
        diagram_crossings(c)
    assert str(err.value) == message


def test_crossing_kernel_on_boxes_meeting_at_a_corner_only():
    # the boxes of (2, 3)-(0, 0) and (-1, 3)-(0, 5) meet at the corner
    # (0, 3), which neither segment holds
    assert box_overlaps([(0, 2, 0, 3), (-1, 0, 3, 5), (3, 4, 0, 1)]) == [(0, 1)]
    c = LagrangianDiagram([TRIANGLE, [(-1, 3), (0, 5), (-2, 6)]])
    assert diagram_crossings(c) == _all_pairs_crossings(c) == []


def test_triple_point_message_is_unchanged():
    page = PageModel((0, 0), 40)
    # three strands through (2, 1): a horizontal, a vertical and a diagonal
    c = LagrangianDiagram(
        [
            [(0, 1), (4, 1), (4, -2)],
            [(2, -1), (2, 3), (-3, 3)],
            [(0, -1), (4, 3), (5, -4)],
        ]
    )
    found = diagram_crossings(c)
    assert found == _all_pairs_crossings(c)
    assert [pt for _, _, pt in found].count((F(2), F(1))) == 3
    issues = [msg for _, msg in validate_lagrangian(page, c)]
    assert "triple point at (Fraction(2, 1), Fraction(1, 1))" in issues


def test_page_listing_one_band_twice_is_invalid():
    # two saddles at one point: the field-relative check used to trip
    # its assertion instead of validation refusing the page
    band = [(5, F(1, 2)), (5, -F(1, 2)), (8, -F(1, 2)), (8, F(1, 2))]
    page = PageModel((0, 0), 10, [Band(band), Band(band)])
    c = LagrangianDiagram([band_tongue(page, 0)], [])
    report = validate_lagrangian(page, c)
    assert ("page", "two marked points coincide; perturb the bands") in list(report)
    for compute in (rot_lagrangian, tb_writhe):
        with pytest.raises(InvalidInput, match="marked points coincide"):
            compute(page, c)
    # one copy of the band is a valid page for the same curve
    assert validate_lagrangian(PageModel((0, 0), 10, [Band(band)]), c).ok


ONE_BAND = PageModel((0, 0), 10, [Band([(5, F(1, 2)), (5, -F(1, 2)), (8, -F(1, 2)), (8, F(1, 2))])])


def test_band_pass_counts_on_the_transverse_arc():
    # the arc runs from (13/2, -1/2) to (13/2, 1/2)
    assert ONE_BAND.bands[0].transverse_arc == ((F(13, 2), -F(1, 2)), (F(13, 2), F(1, 2)))
    # a segment along the arc, past both ends, does not pass the band
    along = LagrangianDiagram([[(F(13, 2), -1), (F(13, 2), 1), (9, 1), (9, -1)]])
    assert band_pass_counts(ONE_BAND, along) == [0]
    # a segment through the arc's endpoint (13/2, 1/2) touches it
    touch = LagrangianDiagram([[(6, F(1, 2)), (7, F(1, 2)), (7, 3), (6, 3)]])
    with pytest.raises(InvalidInput) as err:
        band_pass_counts(ONE_BAND, touch)
    assert str(err.value) == "curve touches a band core endpoint; perturb"


def _counting(monkeypatch, name):
    """Replace lagrangian.<name> by a wrapper that counts its calls."""
    calls = []
    fn = getattr(lagrangian, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(lagrangian, name, wrapper)
    return calls


def test_rot_lagrangian_validates_and_turns_once(monkeypatch):
    page, diag = disk_s3_lagr()
    counted = {
        name: _counting(monkeypatch, name)
        for name in ("_validate", "diagram_crossings", "_turning", "_direction_winding")
    }
    assert rot_lagrangian(page, diag).rot == 0
    assert {name: len(calls) for name, calls in counted.items()} == {
        "_validate": 1,
        "diagram_crossings": 1,
        "_turning": 1,
        "_direction_winding": len(diag.components),
    }


@pytest.mark.parametrize("compute", [turning_number, winding_numbers, field_relative_turning])
def test_public_functions_reject_an_invalid_diagram(compute):
    # every vertex lies outside a page of radius 1
    page = PageModel((0, 0), 1)
    with pytest.raises(InvalidInput, match="lagrangian diagram invalid: vertex 0 outside the page"):
        compute(page, small_circle())


# --- the Fraction kernels that the integer frame replaced: the oracle -


class Poly:
    """Dense rational-coefficient polynomials, lowest degree first."""

    def __init__(self, coeffs):
        c = [F(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.c = c

    def __add__(self, o):
        n = max(len(self.c), len(o.c))
        pad = lambda c: c + [0] * (n - len(c))  # noqa: E731
        return Poly([a + b for a, b in zip(pad(self.c), pad(o.c))])

    def __sub__(self, o):
        return self + o.scale(-1)

    def scale(self, k):
        return Poly([k * x for x in self.c])

    def __mul__(self, o):
        out = [F(0)] * (len(self.c) + len(o.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(o.c):
                out[i + j] += a * b
        return Poly(out)

    def __call__(self, x):
        acc = F(0)
        for a in reversed(self.c):
            acc = acc * x + a
        return acc

    def deriv(self):
        return Poly([i * a for i, a in enumerate(self.c)][1:] or [0])

    def is_zero(self):
        return self.c == [0]


def _poly_rem(a, b):
    ra = list(a.c)
    db = len(b.c) - 1
    while len(ra) - 1 >= db and any(x != 0 for x in ra):
        if ra[-1] == 0:
            ra.pop()
            continue
        q = ra[-1] / b.c[-1]
        shift = len(ra) - 1 - db
        for i in range(db + 1):
            ra[shift + i] -= q * b.c[i]
        ra.pop()
    return Poly(ra or [0])


def _primitive_fraction(p):
    if p.is_zero():
        return p
    denom = math.lcm(*(c.denominator for c in p.c))
    ints = [int(c * denom) for c in p.c]
    g = math.gcd(*ints)
    return Poly([x // g for x in ints])


def _remainders_fraction(p, q):
    seq = [_primitive_fraction(p), _primitive_fraction(q)]
    while not seq[-1].is_zero() and len(seq[-1].c) > 1:
        r = _poly_rem(seq[-2], seq[-1])
        if r.is_zero():
            break
        seq.append(_primitive_fraction(r.scale(-1)))
    return seq


def _along_fraction(p):
    """The field polynomials along an edge, rebuilt on every call."""
    c0 = p.source
    saddles = [b.saddle for b in p.bands]

    def along(a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        re = Poly([a[0] - c0[0], dx])
        im = Poly([a[1] - c0[1], dy])
        for s in saddles:
            fre = Poly([a[0] - s[0], dx])
            fim = Poly([-(a[1] - s[1]), -dy])
            re, im = re * fre - im * fim, re * fim + im * fre
        return re, im

    return along


def _dpol_fraction(along, a, b, rho):
    re, im = along(a, b)
    return im.scale(rho[0]) - re.scale(rho[1]), re.scale(rho[0]) + im.scale(rho[1])


def _try_ray_fraction(c, m, rho):
    total = 0
    for _, _, a, b in c.segments():
        d = sub(b, a)
        denom = det(rho, d)
        w = sub(a, m)
        if denom == 0:
            if det(w, d) == 0:
                return None
            continue
        s = F(det(w, d), denom)
        u = F(det(w, rho), denom)
        if u in (0, 1) and s >= 0:
            return None
        if s == 0 and 0 <= u <= 1:
            return None
        if s > 0 and 0 < u < 1:
            total += 1 if det(rho, d) > 0 else -1
    return total


def _band_pass_counts_fraction(p, c):
    out = []
    for band in p.bands:
        a, b = band.transverse_arc
        total = 0
        for _, _, q1, q2 in c.segments():
            sign = det(sub(q2, q1), sub(b, a))
            if sign == 0:
                continue
            try:
                meet = segment_meet(q1, q2, a, b)
            except DegenerateGeometry:
                raise InvalidInput("curve touches a band core endpoint; perturb") from None
            if meet is not None:
                total += 1 if sign > 0 else -1
        out.append(total)
    return out


FRACTION_RAYS = [(F(1), F(0)), (F(1), F(1)), (F(1), F(-1)), (F(2), F(1)), (F(1), F(2)), (F(3), F(1))] + [
    (F(1), F((-1) ** k * (2 * k + 1), 257)) for k in range(48)
]


def _windings_fraction(p, c):
    passes = _band_pass_counts_fraction(p, c)
    if any(passes):
        raise InvalidInput("curve is not null-homologous in the page: band passes %r" % (passes,))
    out = []
    for m in p.marked_points:
        found = _first_ray_fraction(c, m)
        if found is None:
            raise InvalidInput("no admissible ray around %r; perturb input" % (m,))
        out.append(found)
    return out


def _first_ray_fraction(c, m):
    """The winding of c about m on the first admissible ray, or None."""
    vals = (_try_ray_fraction(c, m, rho) for rho in FRACTION_RAYS)
    return next((v for v in vals if v is not None), None)


def _argument_principle(page, comp):
    """The winding of the Morse field along one component, or None when
    the component runs through a marked point, where the field vanishes.

    The field is (z - c0) times the conjugate of each z - c_j, so its
    winding is the curve's winding about the centre c0 minus its
    windings about the saddles c_j.
    """
    c = LagrangianDiagram([comp])
    w = [_first_ray_fraction(c, m) for m in page.marked_points]
    return None if None in w else w[0] - sum(w[1:])


def _kernel_cases():
    """Seeded page projections, band tongues and hand-made degenerate curves."""
    rng = random.Random(1812)
    cases = []
    while len(cases) < 6:
        page = random_page(rng)
        c = random_lagrangian(rng, page)
        if validate_lagrangian(page, c).ok:
            cases.append((page, c))
    for depth in (F(3, 2), F(5, 4), F(7, 4)):
        cases.append((ONE_BAND, LagrangianDiagram([band_tongue(ONE_BAND, 0, depth)])))
    # a vertex on the first ray (1, 0) from the centre, an edge along
    # it, an edge along the band arc, and a vertex on the arc's end
    for curve in (
        [(3, 0), (1, 2), (-2, -1)],
        [(2, 0), (4, 0), (3, 3)],
        [(F(13, 2), -1), (F(13, 2), 1), (9, 1), (9, -1)],
        [(F(13, 2), F(1, 2)), (7, 3), (6, 3)],
    ):
        cases.append((ONE_BAND, LagrangianDiagram([curve])))
    return cases


def test_fallback_rays_are_the_fraction_rays_scaled():
    assert len(lagrangian._FALLBACK_RAYS) == len(FRACTION_RAYS)
    for (x, y), old in zip(lagrangian._FALLBACK_RAYS, FRACTION_RAYS):
        assert isinstance(x, int) and isinstance(y, int) and math.gcd(x, y) == 1
        assert x > 0 and old[0] > 0 and F(y, x) == old[1] / old[0]


def test_field_kernel_matches_the_fraction_kernel_on_every_ray():
    outcomes = {"int": 0, "None": 0}
    for page, c in _kernel_cases():
        along = _along_fraction(page)
        fr = lagrangian._frame(page, c)
        for comp, ints in zip(c.components, fr.edges):
            for got in _field_kernel_on_every_ray(page, comp):
                outcomes["None" if got is None else "int"] += 1
            # the integer remainder sequence is the Fraction one, member by member
            fields = lagrangian._edge_fields(ints, fr.centre, fr.marked[1:])
            rho = lagrangian._FALLBACK_RAYS[1]
            for (a, b), (re, im) in zip(lagrangian._edges(comp), fields):
                dpol, qpol = _dpol_fraction(along, a, b, FRACTION_RAYS[1])
                seq = lagrangian._remainders(
                    [rho[0] * y - rho[1] * x for x, y in zip(re, im)],
                    [rho[0] * x + rho[1] * y for x, y in zip(re, im)],
                )
                assert seq == [q.c for q in _remainders_fraction(dpol, qpol)]
    assert min(outcomes.values()) > 0, outcomes


def test_remainder_sequence_matches_the_fraction_one_on_any_degrees():
    # the field polynomials rarely have deg D < deg Q - 1; random pairs do
    rng = random.Random(9)
    gaps = 0
    for _ in range(300):
        p = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.choice((-3, -1, 1, 2))]
        q = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [rng.choice((-2, -1, 1, 3))]
        gaps += len(q) - len(p) >= 2 and q[-1] < 0
        want = [r.c for r in _remainders_fraction(Poly(p), Poly(q))]
        assert lagrangian._remainders(p, q) == want, (p, q)
    assert gaps > 0


def test_winding_rays_and_band_passes_match_the_fraction_kernels():
    outcomes = {"int": 0, "None": 0}
    for page, c in _kernel_cases():
        fr = lagrangian._frame(page, c)
        segs = [e for comp in fr.edges for e in comp]
        for m, q in zip(fr.marked, page.marked_points):
            for rho, old in zip(lagrangian._FALLBACK_RAYS, FRACTION_RAYS):
                want = _try_ray_fraction(c, q, old)
                assert lagrangian._try_ray(segs, m, rho) == want, (c.components, q, rho)
                outcomes["None" if want is None else "int"] += 1
        assert _outcome(lambda c: band_pass_counts(page, c), c) == _outcome(
            lambda c: _band_pass_counts_fraction(page, c), c
        )
        assert _outcome(lambda c: lagrangian._windings(fr), c) == _outcome(
            lambda c: _windings_fraction(page, c), c
        )
    assert min(outcomes.values()) > 0, outcomes


TWO_BANDS = PageModel(
    (0, 0),
    10,
    ONE_BAND.bands + [Band([(F(1, 2), 5), (-F(1, 2), 5), (-F(1, 2), 8), (F(1, 2), 8)])],
)
# a valid curve with no crossings; on segment 2, D = det((1, 0), V) has
# one root, and Q = dot((1, 0), V) changes sign once before it and once
# after it: Q < 0 at both ends of the edge and Q > 0 at the root, where
# the field passes rho, not -rho
SIGN_TWICE = [
    (F(7, 50), F(269, 200)), (F(-181, 100), F(271, 100)), (F(7, 50), F(-1, 50)),
    (F(-1153, 400), F(967, 400)), (F(-337, 100), F(889, 400)), (F(-997, 400), F(31, 10)),
    (F(-227, 50), F(971, 200)), (F(-997, 400), F(1357, 400)), (F(-1231, 400), F(427, 100)),
    (F(-11, 5), F(1357, 400)), (F(-89, 200), F(136, 25)), (F(-103, 100), F(1591, 400)),
    (F(-71, 50), F(31, 10)),
]


def _field_kernel_on_every_ray(page, comp):
    """The field winding of one component on every fallback ray, each
    checked against the argument principle; none when the component
    runs through a marked point."""
    want = _argument_principle(page, comp)
    if want is None:
        return []
    fr = lagrangian._frame(page, LagrangianDiagram([comp]))
    fields = lagrangian._edge_fields(fr.edges[0], fr.centre, fr.marked[1:])
    got = [lagrangian._field_winding_ray(fields, rho) for rho in lagrangian._FALLBACK_RAYS]
    assert set(got) <= {None, want}, (comp, want, got)
    return got


def test_rot_lagr_on_a_curve_where_the_dot_sign_changes_twice(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "disk_s3_lagr.json").read_text())
    doc["pages"]["disk"] = page_doc(TWO_BANDS)
    doc["lagrangians"]["unknot"] = lagr_doc(LagrangianDiagram([SIGN_TWICE]))
    target = tmp_path / "sign-twice.json"
    target.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    argv = ["rot-lagr", str(target), "--page", "disk", "--lagr", "unknot", "--format", "json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert json.loads(out.getvalue())["result"] == {
        "rot": -1, "L_dot_H": 0, "rot_V0": -1, "windings": [0, 0, 0]
    }
    assert _field_kernel_on_every_ray(TWO_BANDS, SIGN_TWICE)[0] == 0


def test_field_kernel_matches_the_argument_principle_on_star_polygons():
    rng = random.Random(23)
    checked = 0
    for _ in range(80):
        page = rng.choice((ONE_BAND, TWO_BANDS))
        centre = (F(rng.randint(-48, 48), 8), F(rng.randint(-48, 48), 8))
        comp = star_polygon(rng, centre, F(rng.randint(4, 32), 8), ccw=rng.random() < 0.5)
        if validate_lagrangian(page, LagrangianDiagram([comp])).ok:
            checked += sum(got is not None for got in _field_kernel_on_every_ray(page, comp))
    assert checked > 3000, checked


def test_field_polynomials_are_built_once_per_component(monkeypatch):
    # the field is aligned with the first ray (1, 0) at the vertex (3, 0)
    c = LagrangianDiagram([[(3, 0), (1, 2), (-2, -1)], [(2, 3), (3, 3), (3, 4)]])
    built = _counting(monkeypatch, "_edge_fields")
    tried = _counting(monkeypatch, "_field_winding_ray")
    lagrangian._field_windings(lagrangian._frame(ONE_BAND, c))
    assert len(built) == len(c.components)
    assert len(tried) > len(c.components)


ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


def _plane_oracle():
    """``perfbench/oracles.plane_oracle``, loaded read-only by path."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.plane_oracle


def test_a_marked_point_on_the_line_of_an_edge_does_not_block_the_rays():
    # each curve has an edge on a line through a marked point, (0, 0) or
    # the saddle (13/2, 0), far outside the edge itself
    plane_oracle = _plane_oracle()
    for curve in (
        [(2, 0), (4, 0), (3, 3)],
        [(3, 3), (4, 0), (2, 0)],
        [(0, 2), (0, 4), (-3, 3)],
        [(-1, -1), (-2, -2), (-1, -3)],
    ):
        c = LagrangianDiagram([curve])
        want = plane_oracle(c, ONE_BAND.marked_points)
        got = rot_lagrangian(ONE_BAND, c)
        assert winding_numbers(ONE_BAND, c) == want["windings"] == got.windings, curve
        assert (tb_writhe(ONE_BAND, c), got.rot) == (want["tb"], want["rot"]), curve
        assert _windings_fraction(ONE_BAND, c) == want["windings"], curve


# --- the Fraction page tests, directions and validation: the oracle ---


def _in_disc_fraction(p, v):
    dx = v[0] - p.center[0]
    dy = v[1] - p.center[1]
    return dx * dx + dy * dy < p.radius * p.radius


def _band_contains_fraction(band, v):
    xs = [q[0] for q in band.corners]
    ys = [q[1] for q in band.corners]
    if not (min(xs) <= v[0] <= max(xs) and min(ys) <= v[1] <= max(ys)):
        return False
    return lagrangian._in_convex(band.corners, v)


def _containing_pieces_fraction(p, v):
    out = ["disc"] if _in_disc_fraction(p, v) else []
    return out + [i for i, b in enumerate(p.bands) if _band_contains_fraction(b, v)]


def _edge_dirs_fraction(comp):
    n = len(comp)
    return [sub(comp[(i + 1) % n], comp[i]) for i in range(n)]


def _seg_dir_fraction(c, key):
    ci, si = key
    comp = c.components[ci]
    return sub(comp[(si + 1) % len(comp)], comp[si])


def _validate_fraction(p, c):
    """The report's issues and the crossing list, all on Fractions."""
    issues = []
    critical = p.marked_points
    for i, m in enumerate(critical):
        if m in critical[:i]:
            issues.append(("page", "two marked points coincide; perturb the bands"))
    for ci, comp in enumerate(c.components):
        loc = "component %d" % ci
        if len(comp) < 3:
            issues.append((loc, "component needs at least three vertices"))
            continue
        pieces = [set(_containing_pieces_fraction(p, v)) for v in comp]
        issues += [(loc, "vertex %d outside the page" % i) for i, held in enumerate(pieces) if not held]
        n = len(comp)
        for i in range(n):
            if comp[i] == comp[(i + 1) % n]:
                issues.append((loc, "zero-length edge at vertex %d" % i))
            elif not pieces[i] & pieces[(i + 1) % n]:
                issues.append((loc, "segment %d leaves the page pieces" % i))
        dirs = _edge_dirs_fraction(comp)
        for i in range(n):
            u, v = dirs[i], dirs[(i + 1) % n]
            if det(u, v) == 0 and u[0] * v[0] + u[1] * v[1] < 0:
                issues.append((loc, "tangent reversal at vertex %d" % ((i + 1) % n)))
    if issues:
        return issues, None
    points = critical + [q for b in p.bands for q in b.corners]
    for _, _, a, b in c.segments():
        for m in points:
            if lagrangian._on_segment(a, b, m):
                issues.append(("page", "curve passes through a marked or corner point"))
    try:
        found = _all_pairs_crossings(c)
    except InvalidInput as e:
        return issues + [("crossings", str(e))], None
    pts = [pt for _, _, pt in found]
    issues += [("crossings", "triple point at %s" % (pt,)) for pt in dict.fromkeys(pts) if pts.count(pt) > 1]
    keys = {frozenset([tuple(e["over"]), tuple(e["under"])]) for e in c.over_under}
    if len(keys) != len(c.over_under):
        issues.append(("crossings", "duplicate over/under entries"))
    if keys != {frozenset([k1, k2]) for k1, k2, _ in found}:
        issues.append(("crossings", "over/under table does not match the crossings"))
    return issues, found


def _turning_fraction(c):
    total = 0
    for comp in c.components:
        dirs = _edge_dirs_fraction(comp)
        ok = [rho for rho in FRACTION_RAYS if all(det(rho, d) != 0 for d in dirs)]
        if not ok:
            raise InvalidInput("could not select a reference direction")
        total += lagrangian._direction_winding(dirs, ok[0])
    return total


def _writhe_fraction(p, c, found):
    passes = _band_pass_counts_fraction(p, c)
    if any(passes):
        raise InvalidInput("curve is not null-homologous in the page: band passes %r" % (passes,))
    total = 0
    for e in c.over_under:
        d_over = _seg_dir_fraction(c, tuple(e["over"]))
        d_under = _seg_dir_fraction(c, tuple(e["under"]))
        total += 1 if det(d_over, d_under) > 0 else -1
    return total


def _with_table(rng, c, found):
    """``c`` with an over/under entry per crossing, each way at random."""
    table = []
    for k1, k2, _ in found:
        over, under = (k1, k2) if rng.random() < 0.5 else (k2, k1)
        table.append({"over": list(over), "under": list(under)})
    return LagrangianDiagram(c.components, table)


def _validation_cases():
    """Seeded page projections, valid and broken, with tongues and circle vertices."""
    rng = random.Random(2718)
    cases = []
    for _ in range(120):
        page = random_page(rng)
        c = random_lagrangian(rng, page)
        _, found = _validate_fraction(page, c)
        if found is not None and rng.random() < 0.8:
            c = _with_table(rng, c, found)
        cases.append((page, c))
        comp = c.components[0]
        i = rng.randrange(len(comp) - 1)
        (x, y), (u, v) = comp[i], comp[i + 1]
        broken = (
            comp[:i] + [(x + 12, y)] + comp[i + 1:],  # outside the page
            comp[:i] + [(x, y)] + comp[i:],  # a zero-length edge
            comp[: i + 2] + [((x + u) / 2, (y + v) / 2)] + comp[i + 2:],  # a reversal
            comp[:i] + [(F(5), F(1, 2))] + comp[i + 1:],  # on a band corner, if any
        )
        for curve in broken:
            cases.append((page, LagrangianDiagram([curve] + c.components[1:], c.over_under)))
    for depth in (F(3, 2), F(5, 4), F(7, 4)):
        cases.append((ONE_BAND, LagrangianDiagram([band_tongue(ONE_BAND, 0, depth)])))
    # vertices exactly on the disc circle, in no band and in a band that
    # crosses the circle, on an integer and on a rational disc
    outer = PageModel((0, 0), 10, [Band([(9, F(1, 2)), (9, -F(1, 2)), (12, -F(1, 2)), (12, F(1, 2))])])
    odd = PageModel((F(1, 3), F(1, 2)), F(5, 2))
    for page, curve in (
        (ONE_BAND, [(10, 0), (3, 3), (3, -3)]),
        (ONE_BAND, [(6, 8), (1, 1), (3, -1)]),
        (outer, [(10, 0), (11, F(1, 4)), (11, -F(1, 4))]),
        (outer, [(10, 0), (3, 3), (3, -3)]),
        (odd, [(F(1, 3) + F(3, 2), F(1, 2) + 2), (0, 0), (1, 0)]),
        (odd, [(F(1, 3) + F(3, 2) - F(1, 100), F(1, 2) + 2), (0, 0), (1, 0)]),
    ):
        cases.append((page, LagrangianDiagram([curve])))
    return cases


def test_validation_turning_and_writhe_match_the_fraction_oracle():
    kinds = {}
    for page, c in _validation_cases():
        issues, found = _validate_fraction(page, c)
        report, fr, got = lagrangian._validate(page, c)
        assert (list(report), got) == (issues, found), (c.components, c.over_under)
        for _, msg in issues:
            kind = re.sub(r"\d+", "%d", msg)
            kinds[kind] = kinds.get(kind, 0) + 1
        if issues:
            continue
        kinds["valid"] = kinds.get("valid", 0) + 1
        assert _outcome(lambda c: lagrangian._turning(fr), c) == _outcome(_turning_fraction, c)
        assert _outcome(lambda c: tb_writhe(page, c), c) == _outcome(
            lambda c: _writhe_fraction(page, c, found), c
        )
    # the sample reaches every first-pass issue, the page and crossing
    # checks, and valid diagrams
    for want in (
        "vertex %d outside the page",
        "segment %d leaves the page pieces",
        "zero-length edge at vertex %d",
        "tangent reversal at vertex %d",
        "curve passes through a marked or corner point",
        "over/under table does not match the crossings",
        "valid",
    ):
        assert kinds.get(want, 0) > 3, (want, kinds)


def test_vertices_on_the_disc_circle_are_outside_the_disc():
    odd = PageModel((F(1, 3), F(1, 2)), F(5, 2))
    on = (F(1, 3) + F(3, 2), F(1, 2) + 2)
    assert not _in_disc_fraction(odd, on)
    c = LagrangianDiagram([[on, (0, 0), (1, 0)]])
    assert list(validate_lagrangian(odd, c)) == [
        ("component 0", "vertex 0 outside the page"),
        ("component 0", "segment 0 leaves the page pieces"),
        ("component 0", "segment 2 leaves the page pieces"),
    ]
    fr = lagrangian._frame(odd, c)
    assert lagrangian._pieces(fr, fr.edges[0][0][0]) == set()


@pytest.mark.parametrize(
    "name",
    [
        "validate_lagrangian",
        "tb_writhe",
        "turning_number",
        "winding_numbers",
        "field_relative_turning",
        "rot_lagrangian",
        "band_pass_counts",
        "diagram_crossings",
    ],
)
def test_each_public_call_builds_the_frame_once(monkeypatch, name):
    page, diag = disk_s3_lagr()
    args = (diag,) if name == "diagram_crossings" else (page, diag)
    built = _counting(monkeypatch, "_frame")
    getattr(lagrangian, name)(*args)
    assert len(built) == 1
