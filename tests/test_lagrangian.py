from fractions import Fraction as F

import random

import pytest

from conftest import band_tongue, random_lagrangian, random_page

from morsebook import lagrangian
from morsebook.fixtures import disk_s3_lagr
from morsebook.geometry import box_overlaps, det, sub
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
