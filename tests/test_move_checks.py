"""Move scripts check each step locally: soundness against the full check.

``apply_script`` validates its input front once.  After each step it
checks only what the move rewrote (``front._rewrite_is_valid``) and
runs the full ``validate_front`` only when that local check refuses.
The local check may refuse a valid front but must never pass an invalid
one.  Two properties pin this down, on generated move walks and on
hand-built sites:

1. on every step, a passing local check implies ``validate_front(...).ok``;
2. ``apply_script`` gives the front, or raises the message, that a fold
   of ``apply_move`` gives; the fold checks in full after every step.

The walks start from the fixture fronts, from almond fronts on
``conftest`` identity and annulus diagrams and on ``fig1``, and from
``move_walk`` fronts of 100 or more vertices.  Each step draws a move
and a site on the current front, with parameters pushed past the
moves' defaults so that some outputs are invalid.  Hypothesis runs
derandomized and keeps no example database.
"""

import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    almond,
    move_walk,
    random_almond_front,
    random_annulus_diagram,
    random_identity_diagram,
)
from morsebook import moves
from morsebook.diagram import MorseDiagram, TraceCurve, TracePair
from morsebook.fileio import front_doc
from morsebook.fixtures import disk_s3, disk_s3_unknot, fig1_torus, fig5_diagram, fig5_lambda, fig5_lambda_prime
from morsebook.front import CUSP, PLAIN, FrontComponent, FrontProjection, Vertex, _rewrite_is_valid, crossings, validate_front
from morsebook.moves import MOVE_NAMES, _step, apply_move, apply_script
from morsebook.validation import InvalidInput

SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
U = ("1/2", "3/10", "7/10", "1/1000", "999/1000")
DEPTHS = ("1/1024", "1/16", "-1/16", "1/2")
VARIANTS = {"stabilize": ("down", "up"), "k2": ("left", "right"), "b1": ("down", "up")}
# a parameter pushed past its default, for the segment moves
PUSHED = {"r1": ("scale", "1/4"), "stabilize": ("scale", "1/8"), "k2": ("band", "1/4"), "b1": ("width", "1/4")}
STEP = st.tuples(st.sampled_from(MOVE_NAMES), st.integers(0, 10 ** 6), st.sampled_from(U), st.integers(0, 3))


@functools.cache
def _bases():
    """Valid (diagram, front) pairs the walks start from."""
    rng = random.Random(27)
    out = [
        (disk_s3(), disk_s3_unknot()),
        (fig5_diagram(), fig5_lambda()),
        (fig5_diagram(), fig5_lambda_prime()),
        (fig1_torus(), FrontProjection([almond(F(3, 16), F(3, 100), F(1, 8), F(1, 25))])),
    ]
    for make in (random_identity_diagram, random_identity_diagram, random_annulus_diagram):
        d = make(rng)
        out.append((d, random_almond_front(rng, d)))
    for d, f in ((disk_s3(), disk_s3_unknot()), (fig5_diagram(), fig5_lambda())):
        *_, big = move_walk(rng, d, f, 40)
        out.append((d, big))
    return [(d, f) for d, f in out if validate_front(d, f).ok]


def _site(d, f, spec):
    """The (move, site) that a drawn step names on the front ``f``."""
    move, pick, u, k = spec
    comp = f.components[0]
    n = len(comp.vertices)
    if move in ("s1", "cusp_trace", "k3"):
        cusps = [i for i, v in enumerate(comp.vertices) if v.kind == CUSP] or [0]
        site = {"component": 0, "vertex": cusps[pick % len(cusps)]}
        if move == "s1":
            site["depth"] = DEPTHS[k]
        else:
            ids = [p.id for p in d.trace_pairs] or [1]
            site.update(pair=ids[pick % len(ids)], side=("plus", "minus")[k % 2])
            if move == "cusp_trace" and k >= 2:
                site["depth"] = "0"  # the tip lands on the trace curve
    elif move == "r1_inv":
        kinds = [PLAIN, CUSP, CUSP, PLAIN]
        kinks = [i for i in range(n) if [comp.vertex(i + j).kind for j in range(4)] == kinds] or [0]
        site = {"component": 0, "vertex": kinks[pick % len(kinks)]}
    else:
        # mostly a rightward descending segment, which these moves take
        hosts = [i for i, a, b in comp.segments() if b[0] > a[0] and b[1] < a[1]]
        segment = hosts[pick // 4 % len(hosts)] if hosts and pick % 4 else pick % n
        site = {"component": 0, "segment": segment, "u": u}
        if move in VARIANTS:
            site["variant"] = VARIANTS[move][k % 2]
        if k >= 2:
            site.update([PUSHED[move]])
    return move, site


def _sound_step(d, f, move, site):
    """One step from the valid front ``f``: the local check may pass only
    on a valid output.  The walk goes on from the output when it is
    valid; (next front, whether the full check refused the output)."""
    try:
        out, window = _step(d, f, move, site)
    except InvalidInput:
        return f, False
    valid = validate_front(d, out).ok
    assert valid or not _rewrite_is_valid(d, out, *window), (move, site)
    return (out, False) if valid else (f, True)


def _fold(d, f, script):
    for step in script:
        f = apply_move(d, f, step["move"], step["site"])
    return f


def _outcome(fn, d, f, script):
    try:
        return "front", front_doc(fn(d, f, script))
    except InvalidInput as e:
        return "raised", type(e).__name__, str(e)


@SETTINGS
@given(st.integers(0, 10 ** 6), st.lists(STEP, min_size=1, max_size=6))
def test_a_passing_local_check_means_a_valid_front(base, specs):
    bases = _bases()
    d, f = bases[base % len(bases)]
    for spec in specs:
        f, _ = _sound_step(d, f, *_site(d, f, spec))


@SETTINGS
@given(st.integers(0, 10 ** 6), st.lists(STEP, min_size=1, max_size=6))
def test_a_script_answers_as_a_fold_of_apply_move(base, specs):
    bases = _bases()
    d, f = bases[base % len(bases)]
    script, cur = [], f
    for spec in specs:
        move, site = _site(d, cur, spec)
        script.append({"move": move, "site": site})
        try:
            cur = apply_move(d, cur, move, site)
        except InvalidInput:
            break
    assert _outcome(apply_script, d, f, script) == _outcome(_fold, d, f, script)


def test_the_walks_start_from_fronts_of_100_vertices_and_more():
    sizes = [len(f.components[0].vertices) for _, f in _bases()]
    assert len(sizes) == 9 and max(sizes) >= 100, sizes


# ------------------------------------------------------------ hand-built sites


def _step_record(move, **site):
    return {"move": move, "site": dict(site, component=site.get("component", 0))}


def _started_at(comp, r):
    """The same closed curve with its vertex list started at vertex r."""
    n = len(comp.vertices)
    verts = []
    for j in range(r, r + n):
        turns, i = divmod(j, n)
        verts.append(comp.vertices[i].shifted(turns * comp.closure[0], turns * comp.closure[1]))
    return FrontComponent(comp.torus, verts, comp.closure)


def _through_a_crossing():
    """Two crossing almonds and a third whose cusp, nudged by s1, puts a
    branch through their crossing point: a triple point."""
    a = almond(F(1, 5), F(1, 5), F(2, 5), F(2, 5))
    b = almond(F(1, 10), F(3, 10), F(3, 5), F(3, 20))
    x = crossings(FrontProjection([a, b]))[0].point
    du, dt = F(1, 20), F(1, 30)
    c = almond(x[0] - 5 * du / 2, x[1] - dt, 3 * du, 16 * dt / 3)
    return FrontProjection([a, b, c]), [_step_record("s1", component=2, vertex=2, depth=du / 2)]


def _horizontal_branch():
    """A cusp with one horizontal branch: pushed back past both its
    neighbours, only the neighbours' rules fail."""
    comp = FrontComponent(
        0,
        [
            Vertex(F(1, 10), F(7, 10), CUSP),
            Vertex(F(3, 10), F(2, 5), PLAIN),
            Vertex(F(1, 2), F(3, 10), CUSP),
            Vertex(F(3, 10), F(3, 10), PLAIN),
        ],
    )
    return FrontProjection([comp]), [_step_record("s1", vertex=2, depth=F(-1, 4))]


def _wrapped_kink():
    """The disc unknot wrapped once by k2 left, with an r1 kink at
    segment 3; the kink starts at vertex 4."""
    f = apply_move(disk_s3(), disk_s3_unknot(), "k2", {"component": 0, "segment": 0, "variant": "left"})
    return apply_move(disk_s3(), f, "r1", {"component": 0, "segment": 3})


def _steep_almond():
    return FrontProjection(
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


def _slanted_trace():
    wiggle = [(F(1, 4), F(0)), (F(1, 4), F(1, 2)), (F(9, 32), F(5, 8)), (F(9, 32), F(3, 4)),
              (F(1, 4), F(31, 32)), (F(1, 4), F(1))]
    straight = [(F(3, 4), F(0)), (F(3, 4), F(1))]
    return MorseDiagram(1, [TracePair(1, TraceCurve(0, [wiggle]), TraceCurve(0, [straight]))])


def _hand_built():
    """name -> (diagram, front, script, index of the step whose output
    the full check refuses, or None)."""
    disk, fig5 = disk_s3(), fig5_diagram()
    fig1_almond = FrontProjection([almond(F(3, 16), F(3, 100), F(1, 8), F(1, 25))])
    kinked = _wrapped_kink()
    n = len(kinked.components[0])
    out = {
        "triple point": (disk, *_through_a_crossing(), 0),
        "neighbour rules": (disk, *_horizontal_branch(), 0),
        "new vertex on a trace curve": (
            fig1_torus(), fig1_almond,
            [_step_record("cusp_trace", vertex=2, pair=2, side="plus", depth="0")], 0,
        ),
        "b1 meets a trace curve": (
            fig5, fig5_lambda_prime(),
            [_step_record("r1", segment=0), _step_record("b1", segment=5, variant="down"),
             _step_record("s1", vertex=2)], 1,
        ),
        "k2 meets a vertex": (
            fig5, fig5_lambda_prime(),
            [_step_record("r1", segment=5), _step_record("k2", segment=5, variant="left")], 1,
        ),
        "k2 wraps": (
            disk, disk_s3_unknot(),
            [_step_record("k2", segment=0, variant="left"), _step_record("r1", segment=3),
             _step_record("k2", segment=8, u=F(99, 100), variant="right"), _step_record("r1_inv", vertex=4)],
            None,
        ),
        "k2 wraps lambda": (
            fig5, fig5_lambda(),
            [_step_record("k2", segment=1, variant="left"), _step_record("k2", segment=1, variant="right")],
            None,
        ),
        "b1 across lambda's closure": (
            fig5, fig5_lambda(),
            [_step_record("b1", segment=1, variant="down"), _step_record("b1", segment=3, variant="up"),
             _step_record("b1", segment=6, variant="down")],
            None,
        ),
        "refused sites": (
            disk, disk_s3_unknot(),
            [_step_record("r1", segment=0), _step_record("k2", segment=5, u=F(999, 1000), variant="right"),
             _step_record("r1_inv", vertex=0), _step_record("cusp_trace", vertex=1, pair=1, side="plus")],
            None,
        ),
        "b1 up on a steep host": (
            disk, _steep_almond(), [_step_record("b1", segment=0, variant="up")], None,
        ),
        "k2 over a slanted trace curve": (
            _slanted_trace(), FrontProjection([almond(F(3, 8), F(9, 16), F(1, 4), F(1, 16))]),
            [_step_record("k2", segment=0, variant="left")], None,
        ),
        "unknown move": (disk, disk_s3_unknot(), [{"move": "nonsense", "site": {}}], None),
    }
    for vertex in (n - 1, n - 2, n - 3):
        moved = FrontProjection([_started_at(kinked.components[0], 4 - vertex)])
        script = [_step_record("r1_inv", vertex=vertex), _step_record("r1", segment=1)]
        out["r1_inv across the list start at %d" % vertex] = (disk, moved, script, None)
    return out


@pytest.mark.parametrize("name", sorted(_hand_built()))
def test_hand_built_sites_keep_both_properties(name):
    d, f, script, refused_at = _hand_built()[name]
    assert validate_front(d, f).ok
    refused = []
    cur = f
    for step in script:
        cur, was_refused = _sound_step(d, cur, step["move"], step["site"])
        refused.append(was_refused)
    assert refused.index(True) == refused_at if refused_at is not None else not any(refused)
    assert _outcome(apply_script, d, f, script) == _outcome(_fold, d, f, script)


def test_a_valid_four_step_script_validates_one_front(monkeypatch):
    calls = []

    def counting(d, f):
        calls.append(f)
        return validate_front(d, f)

    monkeypatch.setattr(moves, "validate_front", counting)
    script = [
        _step_record("r1", segment=0), _step_record("stabilize", segment=5, variant="down"),
        _step_record("k2", segment=5, variant="left"), _step_record("b1", segment=5, variant="down"),
    ]
    f = disk_s3_unknot()
    out = apply_script(disk_s3(), f, script)
    assert len(out.components[0]) == 18
    assert calls == [f]
