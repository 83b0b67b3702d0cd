from fractions import Fraction as F

import random

import pytest

from conftest import (
    almond,
    move_walk,
    random_almond_front,
    random_identity_diagram,
    random_move_sites,
    translate_meets,
)

from morsebook.diagram import MINUS, PLUS, MorseDiagram, TraceCurve, TracePair
from morsebook.fixtures import (
    disk_s3,
    disk_s3_unknot,
    fig1_torus,
    fig5_expected_multiplicities,
    fig5_lambda,
    fig5_lambda_prime,
)
from morsebook.front import (
    ENTER,
    EXIT,
    TELEPORT,
    FrontComponent,
    FrontProjection,
    Vertex,
    null_trace_crossings,
    validate_front,
)
from morsebook.invariants import rot_front
from morsebook.moves import apply_move
from morsebook.resolution import (
    _horizontal_sum,
    _multiplicities,
    _total_resolution,
    intersect_L0,
    intersect_L0_local,
    intersect_L1,
    intersect_curve_surface,
    multiplicities,
    teleport_signs,
    total_resolution,
)
from morsebook.validation import InvalidInput


def test_no_teleports_no_signs():
    assert teleport_signs(disk_s3(), disk_s3_unknot()) == []


def test_single_event_changes_are_equal_and_opposite():
    d = fig1_torus()
    m = multiplicities(d, fig5_lambda())
    plus = m.coalesced()[(1, PLUS)]
    minus = m.coalesced()[(1, MINUS)]
    assert [x[2] for x in plus] == [0, 1, 0]
    assert [x[2] for x in minus] == [0, -1, 0]


def test_fig5_multiplicities_match_expected_file():
    d = fig1_torus()
    m = multiplicities(d, fig5_lambda())
    assert m.coalesced() == fig5_expected_multiplicities()


def test_multiplicities_zero_without_teleports():
    d = fig1_torus()
    f = FrontProjection([almond(F(3, 16), F(1, 50), F(1, 16), F(1, 50))])
    m = multiplicities(d, f)
    assert all(mm == 0 for spans in m.intervals.values() for _, _, mm in spans)


def test_two_event_hand_propagation():
    # one pair, vertical curves; two teleport events stacked in t: the
    # interval multiplicities follow the endpoint signs one by one
    plus = TraceCurve(0, [[(F(1, 4), F(0)), (F(1, 4), F(1))]])
    minus = TraceCurve(0, [[(F(3, 4), F(0)), (F(3, 4), F(1))]])
    d = MorseDiagram(1, [TracePair(1, plus, minus)])
    comp = FrontComponent(
        0,
        [
            Vertex(F(1, 4), F(2, 10), TELEPORT, pair=1, side=PLUS, role=ENTER),
            Vertex(F(1, 8), F(4, 10), "cusp"),
            Vertex(F(1, 4), F(3, 10), TELEPORT, pair=1, side=PLUS, role=EXIT),
            Vertex(F(3, 4), F(3, 10), TELEPORT, pair=1, side=MINUS, role=ENTER),
            Vertex(F(7, 8), F(15, 100), "cusp"),
            Vertex(F(3, 4), F(2, 10), TELEPORT, pair=1, side=MINUS, role=EXIT),
        ],
    )
    f = FrontProjection([comp])
    m = multiplicities(d, f)
    hand = {
        (1, PLUS): [0, -1, 0],
        (1, MINUS): [0, 1, 0],
    }
    got = {k: [x[2] for x in v] for k, v in m.coalesced().items()}
    assert got == hand


def test_nonzero_cylinder_class_is_rejected():
    d = fig1_torus()
    with pytest.raises(InvalidInput, match="auxiliary"):
        multiplicities(d, fig5_lambda_prime())


def test_band_straddling_a_slide_is_diagnosed():
    # a teleport band through the sliding pair across its handle slide
    # pours multiplicity into the crossed pair, which cannot close up;
    # this is rejected loudly rather than wrapped around the page
    d = fig1_torus()
    comp = FrontComponent(
        0,
        [
            Vertex(F(1, 2), F(3, 16), TELEPORT, pair=1, side=MINUS, role=ENTER),
            Vertex(F(27, 32), F(5, 32), "cusp"),
            Vertex(F(13, 16), F(5, 16), TELEPORT, pair=1, side=MINUS, role=EXIT),
            Vertex(F(1, 8), F(5, 16), TELEPORT, pair=1, side=PLUS, role=ENTER),
            Vertex(F(7, 32), F(3, 32), "cusp"),
            Vertex(F(1, 8), F(3, 16), TELEPORT, pair=1, side=PLUS, role=EXIT),
        ],
    )
    f = FrontProjection([comp])
    from morsebook.front import cylinder_class, validate_front

    assert validate_front(d, f).ok
    assert cylinder_class(d, f) == (0, 0)
    with pytest.raises(InvalidInput, match="inconsistent"):
        multiplicities(d, f)


def test_embedded_front_resolves_to_one_disc():
    res = total_resolution(disk_s3(), disk_s3_unknot())
    assert [c.kind for c in res.curves] == ["disc"]
    assert res.horizontal_sum() == 0


def test_fig5_resolution_structure():
    d = fig1_torus()
    res = total_resolution(d, fig5_lambda())
    assert res.horizontal_sum() == 0
    assert all(c.kind == "disc" for c in res.curves)
    kinds = sorted(p.kind for p in res.pieces)
    assert kinds.count("parallel") == 2
    assert kinds.count("chord") == 4


def test_wrapped_front_gives_one_horizontal_curve():
    d = disk_s3()
    f = apply_move(
        d, disk_s3_unknot(), "k2", {"component": 0, "segment": 0, "u": F(1, 2)}
    )
    res = total_resolution(d, f)
    horizontals = [c for c in res.curves if c.kind == "horizontal"]
    assert len(horizontals) == 1
    assert res.horizontal_sum() == -1
    assert intersect_L0_local(d, f) == -1


def test_intersect_L0_zero_for_disc_only_resolutions():
    assert intersect_L0(disk_s3(), disk_s3_unknot()) == 0


def test_shortcut_equivalence_on_random_fronts():
    rng = random.Random(411)
    checked = 0
    for _ in range(100):
        d = random_identity_diagram(rng)
        f = random_almond_front(rng, d)
        variant = "left" if rng.random() < 0.5 else "right"
        try:
            f = apply_move(
                d, f, "k2",
                {"component": 0, "segment": 0, "u": F(1, 2), "variant": variant},
            )
        except InvalidInput:
            pass
        assert intersect_L0(d, f) == intersect_L0_local(d, f)
        checked += 1
    assert checked == 100


def test_intersect_L1_zero_for_avoiding_fronts():
    d = fig1_torus()
    f = FrontProjection([almond(F(3, 16), F(1, 50), F(1, 16), F(1, 50))])
    assert intersect_L1(d, f, 1) == 0
    assert intersect_L1(d, f, 2) == 0


def test_intersect_L1_single_crossing_both_sides_agree():
    # the front crosses each curve of the pair once rightward, so its
    # class in the cylinder cancels while both surface counts agree
    plus = TraceCurve(0, [[(F(1, 4), F(0)), (F(1, 4), F(1))]])
    minus = TraceCurve(0, [[(F(3, 4), F(0)), (F(3, 4), F(1))]])
    d = MorseDiagram(1, [TracePair(1, plus, minus)])
    comp = FrontComponent(
        0,
        [
            Vertex(F(3, 4), F(47, 100), TELEPORT, pair=1, side=MINUS, role=ENTER),
            Vertex(F(11, 16), F(49, 100), "cusp"),
            Vertex(F(13, 16), F(42, 100), "cusp"),
            Vertex(F(3, 4), F(45, 100), TELEPORT, pair=1, side=MINUS, role=EXIT),
            Vertex(F(1, 4), F(45, 100), TELEPORT, pair=1, side=PLUS, role=ENTER),
            Vertex(F(1, 8), F(50, 100), "cusp"),
            Vertex(F(5, 16), F(40, 100), "cusp"),
            Vertex(F(1, 4), F(47, 100), TELEPORT, pair=1, side=PLUS, role=EXIT),
        ],
    )
    f = FrontProjection([comp])
    from morsebook.front import cylinder_class, validate_front

    assert validate_front(d, f).ok
    assert cylinder_class(d, f) == (0,)
    val = intersect_L1(d, f, 1)
    assert val in (1, -1)


def test_intersect_L1_two_sided_agreement_random():
    rng = random.Random(97)
    for _ in range(100):
        d = random_identity_diagram(rng, max_pairs=2)
        f = random_almond_front(rng, d)
        for pair in d.trace_pairs:
            assert intersect_L1(d, f, pair.id) == 0


def test_fig5_headline_linking_value():
    d = fig1_torus()
    assert intersect_curve_surface(d, fig5_lambda(), fig5_lambda_prime()) == -1


def test_disjoint_other_front_gives_zero():
    d = fig1_torus()
    other = FrontProjection([almond(F(13, 16), F(60, 100), F(1, 16), F(1, 50))])
    assert intersect_curve_surface(d, fig5_lambda(), other) == 0


def test_linking_symmetry_on_homology_sphere():
    # two unlinked null fronts on the disc page: both orders give zero
    d = disk_s3()
    f1 = FrontProjection([almond(F(1, 10), F(1, 10), F(2, 10), F(2, 10))])
    f2 = FrontProjection([almond(F(6, 10), F(6, 10), F(2, 10), F(2, 10))])
    assert intersect_curve_surface(d, f1, f2) == intersect_curve_surface(d, f2, f1)


def test_endpoint_consumption_and_circle_count():
    # every teleport endpoint is consumed by exactly one junction, and
    # the circle count matches an independent union-find recount
    d = fig1_torus()
    f = fig5_lambda().union(
        FrontProjection([almond(F(25, 64), F(3, 200), F(1, 32), F(1, 100))])
    )
    res = total_resolution(d, f)

    ends = {}
    for pi, piece in enumerate(res.pieces):
        if piece.closed:
            continue
        for pt in (piece.start, piece.end):
            key = (piece.torus, pt[0] % 1, pt[1] % 1)
            ends.setdefault(key, []).append(pi)
    for key, members in ends.items():
        assert len(members) == 2  # each endpoint consumed exactly once

    assert union_find_circles(res) == len(res.curves)
    for c in res.curves:
        assert c.kind in ("disc", "horizontal")


def _joined_segments(pieces):
    """The (piece, segment) pairs that the construction joins, as sets:
    consecutive segments of one piece (through the closure of a closed
    one), and the last segment of an open piece with the first segment
    of the piece that starts where it ends."""
    starts = {(p.torus, p.start[0] % 1, p.start[1] % 1): pi for pi, p in enumerate(pieces) if not p.closed}
    out = set()
    for pi, piece in enumerate(pieces):
        n = len(list(piece.segments()))
        out.update(frozenset({(pi, si), (pi, si + 1)}) for si in range(n - 1))
        if piece.closed:
            out.add(frozenset({(pi, n - 1), (pi, 0)}))
        else:
            nxt = starts[(piece.torus, piece.end[0] % 1, piece.end[1] % 1)]
            out.add(frozenset({(pi, n - 1), (nxt, 0)}))
    return out


def union_find_circles(res):
    """Independent Seifert-circle count: union sub-edges directly."""
    pieces = res.pieces
    joined = _joined_segments(pieces)
    seglist = []
    for pi, piece in enumerate(pieces):
        for si, a, b in piece.segments():
            seglist.append((pi, si, a, b))

    cross_params = {}
    n_crossings = 0
    for i in range(len(seglist)):
        pi, si, a1, b1 = seglist[i]
        for j in range(i + 1, len(seglist)):
            pj, sj, a2, b2 = seglist[j]
            if pieces[pi].torus != pieces[pj].torus:
                continue
            hits, error = translate_meets(a1, b1, a2, b2, frozenset({(pi, si), (pj, sj)}) in joined)
            assert error is None, (seglist[i], seglist[j], error)
            for s, u, _ in hits:
                cid = n_crossings
                n_crossings += 1
                cross_params.setdefault((pi, si), []).append((s, cid, 0))
                cross_params.setdefault((pj, sj), []).append((u, cid, 1))

    # enumerate sub-edges: per piece, crossings split it into runs
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    in_at = {}
    out_at = {}
    piece_bounds = {}
    eid = 0
    for pi, piece in enumerate(pieces):
        first = eid
        stations = []
        for si, a, b in piece.segments():
            for s, cid, slot in sorted(cross_params.get((pi, si), [])):
                stations.append((si, s, cid, slot))
        for _, _, cid, slot in stations:
            in_at[(cid, slot)] = eid
            out_at[(cid, slot)] = eid + 1
            eid += 1
        piece_bounds[pi] = (first, eid)
        find(eid)
        eid += 1

    for cid in range(n_crossings):
        union(in_at[(cid, 0)], out_at[(cid, 1)])
        union(in_at[(cid, 1)], out_at[(cid, 0)])

    junction_next = {}
    for pi, piece in enumerate(pieces):
        if piece.closed:
            continue
        key = (piece.torus, piece.start[0] % 1, piece.start[1] % 1)
        junction_next[key] = pi
    for pi, piece in enumerate(pieces):
        last = piece_bounds[pi][1]
        if piece.closed:
            union(last, piece_bounds[pi][0])
        else:
            key = (piece.torus, piece.end[0] % 1, piece.end[1] % 1)
            nxt = junction_next[key]
            union(last, piece_bounds[nxt][0])
    return len({find(x) for x in list(parent)})


# ---------------------------------------------------------------------
# L0.H read off the multiplicities against the total resolution

def assert_formula_matches(d, f):
    m = _multiplicities(d, f)
    assert _horizontal_sum(d, f, m) == _total_resolution(d, f, m).horizontal_sum()


def test_formula_matches_resolution_on_acceptance_generators():
    rng = random.Random(5)
    # criterion 5: the moves it runs rot on (b1 leaves the cylinder)
    for move in ("r1", "cusp_trace", "s1", "k2", "k3"):
        for d, f, _, out in random_move_sites(rng, 10, move):
            assert_formula_matches(d, f)
            assert_formula_matches(d, out)
    # criterion 6: locally trivial fronts, some wrapped by k2
    for _ in range(40):
        d = random_identity_diagram(rng, wiggles=False)
        f = random_almond_front(rng, d)
        variant = "left" if rng.random() < 0.5 else "right"
        try:
            f = apply_move(
                d, f, "k2", {"component": 0, "segment": 0, "u": F(1, 2), "variant": variant}
            )
        except InvalidInput:
            pass
        assert_formula_matches(d, f)
    # criterion 7: fronts among up to two wiggled pairs
    for _ in range(40):
        d = random_identity_diagram(rng, max_pairs=2)
        assert_formula_matches(d, random_almond_front(rng, d))


def test_formula_matches_resolution_on_lambda_walks():
    rng = random.Random(6)
    d = fig1_torus()
    f = fig5_lambda()
    lifted = FrontProjection(
        [
            FrontComponent(c.torus, [v.shifted(0, F(1, 64)) for v in c.vertices], c.closure)
            for c in f.components
        ]
    )
    auxes = (FrontProjection([almond(F(25, 64), F(3, 200), F(1, 32), F(1, 100))]), lifted)
    checked = 0
    for f in move_walk(rng, d, f, 24):
        assert_formula_matches(d, f)
        # unions with an auxiliary link, as rot --aux builds them
        for aux in auxes:
            union = f.union(aux)
            if not validate_front(d, union).ok:
                continue
            try:
                null_trace_crossings(d, union)
                _multiplicities(d, union)
            except InvalidInput:
                continue  # rot refuses this union before L0.H
            assert_formula_matches(d, union)
            checked += 1
    assert checked >= 5


def test_rot_never_builds_the_resolution(monkeypatch):
    import morsebook.resolution as resolution
    d, f = fig1_torus(), fig5_lambda()
    want = rot_front(d, f).as_dict()

    def refuse(*args):
        raise AssertionError("rot built the total resolution")

    monkeypatch.setattr(resolution, "_total_resolution", refuse)
    with pytest.raises(AssertionError, match="total resolution"):
        total_resolution(d, f)
    assert rot_front(d, f).as_dict() == want
