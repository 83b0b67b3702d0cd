from fractions import Fraction as F

import math
import random

from conftest import random_annulus_diagram, random_identity_diagram

from morsebook.abelian import smith_normal_form
from morsebook.diagram import (
    PLUS,
    LabelVector,
    MorseDiagram,
    Teleport,
    TraceCurve,
    TracePair,
    _is_contact,
    _teleport_contacts,
    h1_presentation,
    propagate_labels,
    validate_diagram,
    vertical_line_class_sum,
)
from morsebook.fixtures import disk_s3, fig1_torus, fig5_diagram, fig6_annulus
from morsebook.geometry import DegenerateGeometry, segment_meet_torus


def test_disk_is_valid():
    assert validate_diagram(disk_s3()).ok


def test_fig1_is_valid():
    assert validate_diagram(fig1_torus()).ok


def test_fig6_is_valid():
    assert validate_diagram(fig6_annulus()).ok


def test_missing_teleport_target_is_reported_not_raised():
    d = fig5_diagram()
    pair = next(p for p in d.trace_pairs if p.teleports)
    tp = pair.teleports[0]
    tp.target_pair = 99
    report = validate_diagram(d)
    assert ("pair %d teleport t=%s" % (pair.id, tp.t), "teleport target pair does not exist") in report.issues


def test_broken_closure_is_reported():
    d = fig1_torus()
    curve = d.trace_pairs[0].plus
    bad = TraceCurve(curve.torus, [[(F(1, 8), F(0)), (F(1, 8), F(1, 2)), (F(-3, 4), F(1))]])
    d.trace_pairs[0].plus = bad
    report = validate_diagram(d)
    assert any("close up" in msg for _, msg in report)


def test_equal_slide_times_rejected():
    plus1 = TraceCurve(0, [[(F(1, 8), F(0)), (F(1, 8), F(1))]])
    minus1 = TraceCurve(0, [[(F(3, 8), F(0)), (F(3, 8), F(1))]])
    plus2 = TraceCurve(0, [[(F(5, 8), F(0)), (F(5, 8), F(1))]])
    minus2 = TraceCurve(0, [[(F(7, 8), F(0)), (F(7, 8), F(1))]])
    p1 = TracePair(1, plus1, minus1, [Teleport(F(1, 2), PLUS, 2, PLUS, 1)])
    p2 = TracePair(2, plus2, minus2, [Teleport(F(1, 2), PLUS, 1, PLUS, 1)])
    report = validate_diagram(MorseDiagram(1, [p1, p2]))
    assert any("share a t-value" in msg for _, msg in report)


def test_labels_without_events_stay_at_generators():
    rng = random.Random(11)
    d = random_identity_diagram(rng)
    lab = propagate_labels(d)
    for j in range(d.k):
        spans = lab.pair_labels[j]
        assert all(vec.coeffs == LabelVector.unit(d.k, j).coeffs for _, _, vec in spans)
    assert all(vec.coeffs == (0,) * d.k for vec in lab.edge_diffs)


def test_same_orientation_slide_adds_label():
    # a generic slide: pair 1's plus curve crosses pair 2, same orientation
    plus1 = TraceCurve(
        0,
        [
            [(F(1, 8), F(0)), (F(3, 8), F(1, 2))],
            [(F(5, 8), F(1, 2)), (F(9, 8), F(1))],
        ],
    )
    minus1 = TraceCurve(0, [[(F(1, 2), F(0)), (F(1, 2), F(1))]])
    plus2 = TraceCurve(0, [[(F(3, 8), F(0)), (F(3, 8), F(1))]])
    minus2 = TraceCurve(0, [[(F(5, 8), F(0)), (F(5, 8), F(1))]])
    pair1 = TracePair(1, plus1, minus1, [Teleport(F(1, 2), PLUS, 2, PLUS, 1)])
    pair2 = TracePair(2, plus2, minus2)
    d = MorseDiagram(1, [pair1, pair2])
    assert validate_diagram(d).ok
    lab = propagate_labels(d)
    # the slider keeps A, the crossed pair becomes B + A above the slide
    assert lab.pair_label_at(0, F(3, 4)).coeffs == (1, 0)
    assert lab.pair_label_at(1, F(1, 4)).coeffs == (0, 1)
    assert lab.pair_label_at(1, F(3, 4)).coeffs == (1, 1)


def test_fig1_labels_match_worked_example():
    d = fig1_torus()
    lab = propagate_labels(d)
    assert lab.top_label(0).coeffs == (1, 0)
    assert lab.top_label(1).coeffs == (-1, 1)
    # left edge bottom and top labels differ by zero
    assert lab.edge_diffs[0].coeffs == (0, 0)


def test_h1_free_without_events():
    rng = random.Random(23)
    for _ in range(20):
        d = random_identity_diagram(rng)
        g = h1_presentation(d)
        assert g.free_rank == d.k
        assert not g.invariant_factors


def test_fig1_h1_is_integers_generated_by_b():
    g = h1_presentation(fig1_torus())
    assert g.describe() == "Z"
    assert g.reduce([1, 0]).is_zero()
    assert not g.reduce([0, 1]).is_zero()


def test_fig6_h1_trivial_against_snf_oracle():
    d = fig6_annulus()
    lab = propagate_labels(d)
    # oracle: assemble the relation matrix by hand and run SNF directly
    rels = []
    for j in range(d.k):
        row = list(lab.top_label(j).coeffs)
        row[j] -= 1
        rels.append(row)
    diffs = lab.edge_diffs
    for i in range(len(diffs)):
        for j in range(i + 1, len(diffs)):
            rels.append(
                [a - b for a, b in zip(diffs[i].coeffs, diffs[j].coeffs)]
            )
    cols = [r for r in rels if any(r)]
    matrix = [[r[i] for r in cols] for i in range(d.k)]
    diag, _, _ = smith_normal_form(matrix)
    torsion_free = sum(1 for x in diag if x != 0)
    assert d.k - torsion_free == 0
    assert all(x == 1 for x in diag if x != 0)
    assert h1_presentation(d).is_trivial()


def test_h1_relations_do_not_grow_with_empty_binding_components():
    # tori that no trace curve reaches add only zero edge differences,
    # which the fixture's second torus already has
    own = fig6_annulus()
    many = MorseDiagram(20000, own.trace_pairs)
    assert len(h1_presentation(own).relations) == 1
    assert h1_presentation(many).relations == h1_presentation(own).relations


def test_reduce_class_examples():
    g = h1_presentation(fig1_torus())
    assert g.reduce([1, 0]).is_zero()
    assert not g.reduce([0, 1]).is_zero()


def slide_between_seam_crossings():
    # every curve turns once leftward; pair 1's plus curve slides across
    # pair 2 at t = 1/2, between pair 2's seam crossings at t = 3/8 and
    # t = 5/8, so they meet the labels B and A + B
    plus1 = TraceCurve(
        0,
        [
            [(F(1, 8), F(0)), (F(-1, 8), F(1, 2))],
            [(F(1, 8), F(1, 2)), (F(1, 8), F(1))],
        ],
    )
    minus1 = TraceCurve(0, [[(F(1, 2), F(0)), (F(-1, 2), F(1))]])
    plus2 = TraceCurve(0, [[(F(3, 8), F(0)), (F(-5, 8), F(1))]])
    minus2 = TraceCurve(0, [[(F(5, 8), F(0)), (F(-3, 8), F(1))]])
    pair1 = TracePair(1, plus1, minus1, [Teleport(F(1, 2), PLUS, 2, PLUS, 1)])
    return MorseDiagram(1, [pair1, TracePair(2, plus2, minus2)])


def test_edge_difference_reads_labels_at_the_crossing_height():
    d = slide_between_seam_crossings()
    assert validate_diagram(d).ok
    # pair 1's crossings cancel; pair 2's give -B + (A + B)
    assert [v.coeffs for v in propagate_labels(d).edge_diffs] == [(1, 0)]


def test_label_conservation_by_independent_fold():
    # independent event-by-event fold over sorted events, then a fold of
    # every seam crossing with the pair label it meets
    crossings = 0
    diagrams = (fig1_torus(), fig5_diagram(), fig6_annulus(), slide_between_seam_crossings())
    for d in diagrams:
        lab = propagate_labels(d)
        k = d.k
        current = [[1 if i == j else 0 for i in range(k)] for j in range(k)]
        history = [[(0, current[j])] for j in range(k)]  # (from t, label)
        for e in d.events():
            tgt = e.target[0]
            src = e.slider[0]
            current[tgt] = [
                a + e.sign * b for a, b in zip(current[tgt], current[src])
            ]
            history[tgt].append((e.t, current[tgt]))
        for j in range(k):
            assert tuple(current[j]) == lab.top_label(j).coeffs

        # an upward curve crossing x = n rightward adds its label
        edges = [[0] * k for _ in range(d.binding_count)]
        for j, pair in enumerate(d.trace_pairs):
            for curve, up in ((pair.plus, 1), (pair.minus, -1)):
                for strand in curve.strands:
                    for (x1, t1), (x2, t2) in zip(strand, strand[1:]):
                        right = 1 if x2 > x1 else -1
                        lo, hi = sorted((x1, x2))
                        for n in range(math.floor(lo) + 1, math.ceil(hi)):
                            t = t1 + (n - x1) * (t2 - t1) / (x2 - x1)
                            label = [v for t0, v in history[j] if t0 <= t][-1]
                            edge = edges[curve.torus]
                            edges[curve.torus] = [
                                a + up * right * b for a, b in zip(edge, label)
                            ]
                            crossings += 1
        assert [tuple(e) for e in edges] == [v.coeffs for v in lab.edge_diffs]
    assert crossings > 0


def test_relation_well_definedness_on_annuli():
    rng = random.Random(5)
    for _ in range(50):
        d = random_annulus_diagram(rng)
        lab = propagate_labels(d)
        g = h1_presentation(d, lab)
        diffs = lab.edge_diffs
        reduced = [g.reduce(v.coeffs) for v in diffs]
        assert all(r == reduced[0] for r in reduced)
        # the upward curve winds n0 times across the seam, the downward n1
        pair = d.trace_pairs[0]
        n0 = pair.plus.end[0] - pair.plus.start[0]
        n1 = pair.minus.end[0] - pair.minus.start[0]
        assert [v.coeffs for v in diffs] == [(n0,), (-n1,)]


def test_determinism_bit_identical():
    d1 = fig1_torus()
    d2 = fig1_torus()
    lab1 = propagate_labels(d1)
    lab2 = propagate_labels(d2)
    assert [s for s in lab1.pair_labels] == [s for s in lab2.pair_labels] or all(
        (a[0], a[1], a[2].coeffs) == (b[0], b[1], b[2].coeffs)
        for sa, sb in zip(lab1.pair_labels, lab2.pair_labels)
        for a, b in zip(sa, sb)
    )
    assert [v.coeffs for v in lab1.edge_diffs] == [v.coeffs for v in lab2.edge_diffs]


def test_vertical_line_class_sum_on_fig1():
    d = fig1_torus()
    lab = propagate_labels(d)
    assert vertical_line_class_sum(lab, 0, F(1, 4)).coeffs == (0, 0)
    assert vertical_line_class_sum(lab, 0, F(1, 2)).coeffs == (1, 0)


def _oracle_disjointness(d):
    """The all-pairs Fraction loop of the trace-curve disjointness check."""
    out = []
    contacts = _teleport_contacts(d)
    curves = list(d.curves())
    for a in range(len(curves)):
        for b in range(a, len(curves)):
            i1, s1, c1 = curves[a]
            i2, s2, c2 = curves[b]
            if c1.torus != c2.torus:
                continue
            segs1 = list(c1.segments())
            segs2 = list(c2.segments())
            loc = "pair %d/%d" % (d.trace_pairs[i1].id, d.trace_pairs[i2].id)
            for n1, (si1, p1, p2) in enumerate(segs1):
                for n2, (si2, q1, q2) in enumerate(segs2):
                    if a == b and (n2 <= n1 or n2 == n1 + 1):
                        continue
                    if a == b and n1 == 0 and n2 == len(segs1) - 1:
                        continue
                    try:
                        hits = segment_meet_torus(p1, p2, q1, q2)
                    except DegenerateGeometry:
                        if not _is_contact(contacts, c1.torus, (p1, p2, q1, q2)):
                            out.append((loc, "trace curves touch degenerately away from teleports"))
                        continue
                    if hits:
                        out.append((loc, "trace curves cross transversally"))
    return out


def _random_crossing_curve(rng, shared):
    """One closed single-strand curve, winding up to twice across x = 1,
    sometimes through the point ``shared``."""
    ts = sorted(rng.sample(range(1, 16), rng.randint(0, 3)))
    x0 = F(2 * rng.randint(0, 7) + 1, 16)
    pts = [(x0, F(0))]
    for t in ts:
        pts.append((F(2 * rng.randint(-8, 23) + 1, 32), F(t, 16)))
    if rng.random() < 0.3:
        pts.insert(1, shared)
        pts.sort(key=lambda p: p[1])
    pts.append((x0 + rng.randint(-2, 2), F(1)))
    return TraceCurve(0, [pts])


def test_disjointness_kernel_matches_all_pairs_loop():
    rng = random.Random(77)
    seen = set()
    for _ in range(150):
        shared = (F(2 * rng.randint(0, 15) + 1, 32), F(2 * rng.randint(0, 15) + 1, 64))
        pairs = [
            TracePair(j + 1, _random_crossing_curve(rng, shared), _random_crossing_curve(rng, shared))
            for j in range(rng.randint(1, 2))
        ]
        d = MorseDiagram(1, pairs)
        got = [(loc, msg) for loc, msg in validate_diagram(d) if "/" in loc]
        assert got == _oracle_disjointness(d)
        seen.update(msg for _, msg in got)
    assert seen == {
        "trace curves cross transversally",
        "trace curves touch degenerately away from teleports",
    }
