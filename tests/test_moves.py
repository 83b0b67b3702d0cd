from fractions import Fraction as F

import contextlib
import io
import json
import random
import re

import pytest

from morsebook.cli import main
from morsebook.fileio import MOVES_FORMAT
from morsebook.fixtures import disk_s3, disk_s3_unknot, fig1_torus, fig5_diagram, fig5_lambda
from morsebook.front import CUSP, PLAIN, FrontComponent, FrontProjection, Vertex, cusp_counts, lk_binding
from morsebook.invariants import rot_front
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
    ],
)
def test_malformed_site_values_are_pattern_errors(move, site, message):
    with pytest.raises(PatternNotFound, match=re.escape(message)):
        apply_move(disk_s3(), disk_s3_unknot(), move, site)


from conftest import random_move_sites as _random_site_instances


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
