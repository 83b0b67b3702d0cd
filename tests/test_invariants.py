from fractions import Fraction as F

import random

import pytest

from conftest import random_annulus_diagram, random_identity_diagram

from morsebook.diagram import (
    PLUS,
    MorseDiagram,
    Teleport,
    TraceCurve,
    TracePair,
    h1_presentation,
    propagate_labels,
)
from morsebook.fixtures import disk_s3, disk_s3_unknot, fig1_torus, fig6_annulus
from morsebook.invariants import class_L0, class_L1_component, euler_class, rot_front
from morsebook.validation import InvalidInput


def classical_rot_oracle(f):
    """Half the signed cusp count, recounted directly from the vertex data.

    For a front in a single chart with no trace interactions this is
    the full classical rotation formula.
    """
    from morsebook.geometry import cusp_direction

    total = 0
    for comp in f.components:
        for i, v in enumerate(comp.vertices):
            if v.kind != "cusp":
                continue
            prev_pt, next_pt = comp.neighbor_points(i)
            total += 1 if cusp_direction(prev_pt, v.point, next_pt) == "down" else -1
    assert total % 2 == 0
    return total // 2


def test_unknot_rotation_matches_classical_oracle():
    d = disk_s3()
    f = disk_s3_unknot()
    rep = rot_front(d, f)
    assert rep.rot == classical_rot_oracle(f) == 0
    assert (rep.D, rep.U) == (1, 1)


def test_k2_preserves_rotation():
    from morsebook.moves import apply_move

    d = fig1_torus()
    comp_front = disk_s3_unknot()
    # re-home the almond onto the torus diagram in a clean spot
    from conftest import almond
    from morsebook.front import FrontProjection

    f = FrontProjection([almond(F(3, 16), F(1, 64), F(1, 16), F(1, 64))])
    before = rot_front(d, f)
    out = apply_move(d, f, "k2", {"component": 0, "segment": 0, "u": F(1, 2)})
    after = rot_front(d, out)
    assert after.rot == before.rot
    assert after.L0_dot_H - before.L0_dot_H == -1


def test_orientation_reversal_negates_rotation():
    d = disk_s3()
    f = disk_s3_unknot()
    assert rot_front(d, f.reversed()).rot == -rot_front(d, f).rot


def test_rot_requires_cylinder_class_zero():
    from morsebook.fixtures import fig5_lambda_prime

    d = fig1_torus()
    with pytest.raises(InvalidInput, match="auxiliary"):
        rot_front(d, fig5_lambda_prime())


def test_rot_front_checks_the_front_and_finds_its_trace_crossings_once(monkeypatch):
    import sys

    from morsebook import diagram, front
    from morsebook.fixtures import fig5_diagram, fig5_lambda

    calls = {}
    for module, name in (
        (front, "validate_front"),
        (front, "trace_crossings"),
        (diagram, "propagate_labels"),
    ):
        orig = getattr(module, name)
        calls[name] = 0

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        # patch every morsebook module that imported the name, too
        for mod_name, holder in list(sys.modules.items()):
            if mod_name.split(".")[0] == "morsebook" and vars(holder).get(name) is orig:
                monkeypatch.setattr(holder, name, counted)
    rot_front(fig5_diagram(), fig5_lambda())
    assert calls == {"validate_front": 1, "trace_crossings": 1, "propagate_labels": 1}


def test_rot_with_auxiliary_link():
    # lambda-prime fails alone; a page-shifted reversed copy cancels its
    # class in the cylinder and serves as the auxiliary link X
    from morsebook.fixtures import fig5_lambda_prime
    from morsebook.front import cylinder_class

    from morsebook.front import validate_front

    d = fig1_torus()
    f = fig5_lambda_prime()
    aux = None
    for k in (1, 3, 5, 7):
        cand = _shift_front(f.reversed(), F(k, 2048))
        if validate_front(d, f.union(cand)).ok:
            aux = cand
            break
    assert aux is not None
    assert tuple(map(sum, zip(cylinder_class(d, f), cylinder_class(d, aux)))) == (0, 0)
    rep = rot_front(d, f, aux)
    assert rep.aux_component_count == 1
    assert (rep.D - rep.U) % 2 == 0


def _shift_front(f, dt):
    # teleport vertices stay on the (locally vertical) trace curves
    from morsebook.front import FrontComponent, FrontProjection, Vertex

    comps = []
    for comp in f.components:
        verts = [
            Vertex(v.x, v.t + dt, v.kind, v.pair, v.side, v.role)
            for v in comp.vertices
        ]
        comps.append(FrontComponent(comp.torus, verts, comp.closure))
    return FrontProjection(comps)


def test_class_L1_identity_without_slides():
    rng = random.Random(31)
    for _ in range(20):
        d = random_identity_diagram(rng)
        lab = propagate_labels(d)
        g = h1_presentation(d, lab)
        for pair in d.trace_pairs:
            assert class_L1_component(d, pair.id, lab, g).is_zero()


def test_class_L1_fig1_both_pairs_trivial():
    d = fig1_torus()
    lab = propagate_labels(d)
    g = h1_presentation(d, lab)
    assert class_L1_component(d, 1, lab, g).is_zero()
    assert class_L1_component(d, 2, lab, g).is_zero()


def test_class_L1_sees_a_single_slide():
    # pair 1's plus curve slides across pair 2 once (same orientation);
    # the line next to pair 2 picks up the slider's label
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
    lab = propagate_labels(d)
    g = h1_presentation(d, lab)
    from morsebook.diagram import vertical_line_class_sum
    from morsebook.invariants import _line_epsilon

    eps = _line_epsilon(d, 0)
    # the slider approaches from the left: the minus-side line sees it
    vec = vertical_line_class_sum(lab, 0, F(3, 8) - eps)
    assert vec.coeffs in ((1, 0), (-1, 0))
    # both translates reduce to the same class (A dies in H_1)
    left = class_L1_component(d, 2, lab, g, side=-1)
    right = class_L1_component(d, 2, lab, g, side=1)
    assert left == right


def test_class_L0_identity_without_edge_crossings():
    rng = random.Random(5)
    d = random_identity_diagram(rng, max_pairs=2, wiggles=False)
    assert class_L0(d).is_zero()


def test_class_L0_fig6_unreduced_minus_A():
    d = fig6_annulus()
    lab = propagate_labels(d)
    assert lab.edge_diffs[0].coeffs == (-1,)
    g = h1_presentation(d, lab)
    assert class_L0(d, lab, g).is_zero()  # trivial group


def test_class_L0_fig1_identity():
    d = fig1_torus()
    assert class_L0(d).is_zero()


def test_euler_identity_monodromy_and_annuli():
    rng = random.Random(2718)
    for _ in range(30):
        rep = euler_class(random_identity_diagram(rng))
        assert rep.is_zero()
    for _ in range(20):
        rep = euler_class(random_annulus_diagram(rng))
        assert rep.is_zero()


def test_euler_fig6_and_fig1_vanish():
    assert euler_class(fig6_annulus()).is_zero()
    assert euler_class(fig1_torus()).is_zero()


def test_preserved_flowline_reduced_computation_agrees():
    rep = euler_class(fig1_torus())
    assert rep.preserved_pairs == [1]
    for pid, reduced in rep.reduced_checks:
        assert reduced == rep.total


def test_rot_is_x_independent_when_euler_vanishes():
    # on a vanishing-Euler-class fixture every admissible auxiliary link
    # yields the same rotation number; exercised with the empty link and
    # a small null union
    from conftest import almond
    from morsebook.front import FrontProjection

    d = fig1_torus()
    f = FrontProjection([almond(F(3, 16), F(1, 64), F(1, 16), F(1, 64))])
    aux = FrontProjection([almond(F(13, 16), F(50, 64), F(1, 32), F(1, 64))])
    r0 = rot_front(d, f)
    r1 = rot_front(d, f, aux)
    assert r0.rot == r1.rot
