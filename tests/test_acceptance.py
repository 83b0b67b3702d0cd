"""The acceptance gate: every criterion at its stated tolerance (exact).

Each test prints one PASS line when its criterion holds; a failure
fails the test outright.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from conftest import (
    random_almond_front,
    random_annulus_diagram,
    random_identity_diagram,
    random_lagrangian,
    random_move_sites,
    random_page,
)
from matrices import mat_det, mat_mul

from morsebook import fixtures as fx
from morsebook.abelian import smith_normal_form
from morsebook.cli import main
from morsebook.diagram import h1_presentation, propagate_labels
from morsebook.front import cusp_counts, cylinder_class, front_class, lk_binding
from morsebook.invariants import class_L0, class_L1_component, euler_class, rot_front
from morsebook.lagrangian import (
    _field_windings,
    _frame,
    _turning,
    _windings,
    band_pass_counts,
    rot_lagrangian,
    tb_writhe,
    validate_lagrangian,
)
from morsebook.moves import apply_move
from morsebook.resolution import (
    intersect_L0,
    intersect_L0_local,
    intersect_L1,
    intersect_curve_surface,
    multiplicities,
)
from morsebook.validation import InvalidInput


def _announce(number, text):
    print("ACCEPTANCE %d PASS: %s" % (number, text))


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--dir", str(path)]) == 0
    return path


def test_criterion_1_figure7_homology_and_euler(fixture_dir, capsys):
    start = time.time()
    with capsys.disabled():
        pass
    code = main(["homology", str(fixture_dir / "fig1_torus.json"), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["result"]["h1"] == "Z"

    d = fx.fig1_torus()
    lab = propagate_labels(d)
    g = h1_presentation(d, lab)
    assert g.reduce([1, 0]).is_zero()  # A dies
    coords = g.reduce([0, 1]).coords  # B generates a free factor
    assert not g.reduce([0, 1]).is_zero()
    assert g.free_rank == 1 and not g.invariant_factors

    code = main(["euler", str(fixture_dir / "fig1_torus.json"), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(x == 0 for x in out["result"]["euler_class"])

    rep = euler_class(d)
    assert rep.total.is_zero()
    assert class_L0(d, lab, g).is_zero()
    assert class_L1_component(d, 1, lab, g).is_zero()
    assert class_L1_component(d, 2, lab, g).is_zero()
    for _, reduced in rep.reduced_checks:
        assert reduced == rep.total
    elapsed = time.time() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _announce(1, "fig1_torus: H1=Z (A=0, B generator), euler class 0, "
                     "all component computations agree (%.2fs)" % elapsed)


def test_criterion_2_figure6_annulus(capsys):
    start = time.time()
    d = fx.fig6_annulus()
    lab = propagate_labels(d)
    assert lab.edge_diffs[0].coeffs == (-1,)  # unreduced [L0] = -A
    rep = euler_class(d)
    assert rep.total.is_zero()
    elapsed = time.time() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _announce(2, "fig6_annulus: unreduced edge difference -A, euler class 0 "
                     "(%.2fs)" % elapsed)


def test_criterion_3_figure5_linking(capsys):
    start = time.time()
    d = fx.fig5_diagram()
    lam = fx.fig5_lambda()
    lamp = fx.fig5_lambda_prime()
    assert intersect_curve_surface(d, lam, lamp) == -1
    assert multiplicities(d, lam).coalesced() == fx.fig5_expected_multiplicities()
    assert cylinder_class(d, lam) == (0, 0)
    g = h1_presentation(d)
    cls = front_class(d, lamp, group=g)
    assert cls in (g.reduce([0, 1]), g.reduce([0, -1]))
    elapsed = time.time() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _announce(3, "fig5: lambda'.H = -1, multiplicities match the expected "
                     "file, lambda null in the cylinder, lambda' generates "
                     "(%.2fs)" % elapsed)


def test_criterion_4_vanishing_euler_class_suites(capsys):
    start = time.time()
    rng = random.Random(20260809)
    for _ in range(200):
        d = random_identity_diagram(rng)
        assert euler_class(d).is_zero()
    for _ in range(50):
        d = random_annulus_diagram(rng)
        assert euler_class(d).is_zero()
    elapsed = time.time() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _announce(4, "euler class vanished on 200 identity-monodromy and 50 "
                     "annulus diagrams (%.2fs)" % elapsed)


def test_criterion_5_move_invariance_suite(capsys):
    start = time.time()
    rng = random.Random(555)
    per_move = 50

    for move in ("r1", "cusp_trace", "s1", "k2", "k3"):
        for d, f, site, out in random_move_sites(rng, per_move, move):
            before = rot_front(d, f)
            after = rot_front(d, out)
            assert after.rot == before.rot, (move, site)
            if move == "k2":
                dl = after.L0_dot_H - before.L0_dot_H
                dc = (after.D - after.U) - (before.D - before.U)
                assert (dl, dc) in ((-1, 2), (1, -2)), (site,)

    # r1 followed by its inverse restores the front bit-exactly
    for d, f, site, out in random_move_sites(rng, per_move, "r1"):
        idx = int(site["segment"]) + 1
        back = apply_move(d, out, "r1_inv", {"component": 0, "vertex": idx})
        assert [(v.x, v.t, v.kind) for v in back.components[0].vertices] == [
            (v.x, v.t, v.kind) for v in f.components[0].vertices
        ]

    count_b1 = 0
    for variant, want_lk in (("down", -1), ("up", 1)):
        for d, f, site, out in random_move_sites(rng, per_move // 2, "b1", variant):
            d0, u0 = cusp_counts(f)
            d1, u1 = cusp_counts(out)
            assert lk_binding(out) - lk_binding(f) == want_lk
            assert (d1 - u1) - (d0 - u0) == -2 * want_lk
            count_b1 += 1
    assert count_b1 == per_move

    elapsed = time.time() - start
    assert elapsed < 30.0
    with capsys.disabled():
        _announce(5, "rotation invariant on 50 random sites for each move; "
                     "k2 traded (-+1, +-2), b1 traded (+-1, -+2) (%.2fs)" % elapsed)


def test_criterion_6_shortcut_equivalence(capsys):
    start = time.time()
    rng = random.Random(446)
    done = 0
    while done < 100:
        d = random_identity_diagram(rng, wiggles=False)
        f = random_almond_front(rng, d)
        if rng.random() < 0.6:
            variant = "left" if rng.random() < 0.5 else "right"
            try:
                f = apply_move(
                    d, f, "k2",
                    {"component": 0, "segment": 0, "u": F(1, 2), "variant": variant},
                )
            except InvalidInput:
                pass
        assert intersect_L0(d, f) == intersect_L0_local(d, f)
        done += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _announce(6, "total-resolution and vertical-line counts agree on 100 "
                     "random locally trivial fronts (%.2fs)" % elapsed)


def test_criterion_7_two_sided_agreement(capsys):
    # intersect_L1 computes both trace-curve counts and raises on any
    # disagreement, so a clean pass of 500 random fronts plus the
    # fixtures is the two-sided check
    start = time.time()
    d_fig = fx.fig5_diagram()
    for pair in d_fig.trace_pairs:
        intersect_L1(d_fig, fx.fig5_lambda(), pair.id)
    rng = random.Random(74)
    done = 0
    while done < 500:
        d = random_identity_diagram(rng, max_pairs=2, wiggles=False)
        if not d.trace_pairs:
            continue
        f = random_almond_front(rng, d)
        for pair in d.trace_pairs:
            intersect_L1(d, f, pair.id)
        done += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _announce(7, "both trace-curve choices agreed on all fixtures and 500 "
                     "random fronts (%.2fs)" % elapsed)


def brute_force_plane_oracle(diagram):
    """Classical Lagrangian-projection invariants, the blunt way.

    Writhe by pairwise segment intersection with float parameters, and
    the turning number by summing exterior angles in floats; both are
    integers, recovered by rounding.
    """
    import math

    writhe = 0.0
    table = {
        frozenset([tuple(e["over"]), tuple(e["under"])]): (
            tuple(e["over"]),
            tuple(e["under"]),
        )
        for e in diagram.over_under
    }
    segs = list(diagram.segments())
    for i in range(len(segs)):
        ci1, s1, a1, b1 = segs[i]
        for j in range(i + 1, len(segs)):
            ci2, s2, a2, b2 = segs[j]
            if ci1 == ci2:
                n = len(diagram.components[ci1])
                if (s1 - s2) % n in (0, 1) or (s2 - s1) % n in (0, 1):
                    continue
            d1 = (float(b1[0] - a1[0]), float(b1[1] - a1[1]))
            d2 = (float(b2[0] - a2[0]), float(b2[1] - a2[1]))
            den = d1[0] * d2[1] - d1[1] * d2[0]
            if den == 0:
                continue
            w = (float(a2[0] - a1[0]), float(a2[1] - a1[1]))
            s = (w[0] * d2[1] - w[1] * d2[0]) / den
            u = (w[0] * d1[1] - w[1] * d1[0]) / den
            if 0 < s < 1 and 0 < u < 1:
                over, under = table[frozenset([(ci1, s1), (ci2, s2)])]
                do = d1 if over == (ci1, s1) else d2
                du = d2 if over == (ci1, s1) else d1
                writhe += 1 if do[0] * du[1] - do[1] * du[0] > 0 else -1
    turning = 0.0
    for comp in diagram.components:
        n = len(comp)
        for i in range(n):
            u = (float(comp[(i + 1) % n][0] - comp[i][0]),
                 float(comp[(i + 1) % n][1] - comp[i][1]))
            v = (float(comp[(i + 2) % n][0] - comp[(i + 1) % n][0]),
                 float(comp[(i + 2) % n][1] - comp[(i + 1) % n][1]))
            cross = u[0] * v[1] - u[1] * v[0]
            dot = u[0] * v[0] + u[1] * v[1]
            turning += math.atan2(cross, dot)
    return int(round(writhe)), int(round(turning / (2 * math.pi)))


def test_criterion_8_lagrangian_decomposition(capsys):
    start = time.time()
    page, diag = fx.disk_s3_lagr()
    oracle_tb, oracle_rot = brute_force_plane_oracle(diag)
    assert (oracle_tb, oracle_rot) == (-1, 0)
    assert tb_writhe(page, diag) == -1
    assert rot_lagrangian(page, diag).rot == 0

    rng = random.Random(81)
    done = 0
    attempts = 0
    while done < 500 and attempts < 8000:
        attempts += 1
        p = random_page(rng)
        c = random_lagrangian(rng, p)
        if not validate_lagrangian(p, c).ok:
            continue
        if any(band_pass_counts(p, c)):
            continue
        try:
            fr = _frame(p, c)
            w = _windings(fr)
            turning = _turning(fr)
            direct = turning - _field_windings(fr)
        except InvalidInput:
            continue
        assert turning == direct + w[0] - sum(w[1:])
        done += 1
    assert done == 500
    elapsed = time.time() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _announce(8, "turning = direct V0 rotation + windings on 500 random "
                     "diagrams; fixture tb=-1, rot=0 match the plane oracle "
                     "(%.2fs)" % elapsed)


def test_criterion_9_snf_correctness(capsys):
    start = time.time()
    rng = random.Random(90210)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag, u, v = smith_normal_form(m)
        prod = mat_mul(mat_mul(u, m), v)
        for i in range(rows):
            for j in range(cols):
                want = diag[i] if i == j and i < len(diag) else 0
                assert prod[i][j] == want
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and (b % a == 0 if a else b == 0)
        assert abs(mat_det(u)) == 1 and abs(mat_det(v)) == 1
    elapsed = time.time() - start
    assert elapsed < 5.0
    with capsys.disabled():
        _announce(9, "1000 random matrices: U.m.V diagonal with divisibility "
                     "chain and unimodular transforms (%.2fs)" % elapsed)
