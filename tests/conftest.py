"""Shared deterministic generators for the property suites."""

from fractions import Fraction as F

from morsebook.diagram import MINUS, PLUS, MorseDiagram, TraceCurve, TracePair
from morsebook.front import CUSP, PLAIN, FrontComponent, FrontProjection, Vertex
from morsebook.lagrangian import Band, LagrangianDiagram, PageModel


def rational(rng, denom=64, lo=0, hi=1):
    n = rng.randint(int(lo * denom) + 1, int(hi * denom) - 1)
    return F(n, denom)


def random_identity_diagram(rng, max_pairs=3, wiggles=True):
    """No handle slides; curves are vertical with optional zero-sum wiggles.

    Wiggles stay above t = 1/2 so the lower half is a locally trivial
    band for front generators.
    """
    k = rng.randint(0, max_pairs)
    tori = rng.randint(1, 2)
    pairs = []
    # distinct lanes for every curve
    lanes = [F(2 * i + 1, 4 * max(k, 1) + 2) for i in range(2 * k)]
    rng.shuffle(lanes)
    for j in range(k):
        curves = []
        for side in range(2):
            x0 = lanes[2 * j + side]
            torus = rng.randint(0, tori - 1)
            width = F(1, 4 * max(k, 1) + 2) / 4
            if not wiggles or rng.random() < 0.5:
                strand = [(x0, F(0)), (x0, F(1))]
            else:
                # a wiggle out and back inside the lane, above mid-page,
                # with vertical stubs so the lower half stays trivial
                t1 = rational(rng, 16, F(9, 16), F(3, 4))
                t2 = rational(rng, 64, t1 + F(1, 64), F(15, 16))
                dx = width if rng.random() < 0.5 else -width
                strand = [
                    (x0, F(0)),
                    (x0, F(1, 2)),
                    (x0 + dx, t1),
                    (x0 + dx, t2),
                    (x0, F(31, 32)),
                    (x0, F(1)),
                ]
            curves.append(TraceCurve(torus, [strand]))
        pairs.append(TracePair(j + 1, curves[0], curves[1]))
    return MorseDiagram(tori, pairs)


def random_annulus_diagram(rng):
    """One pair on two tori, a random twist power showing as winding."""
    n0 = rng.randint(-3, 3)
    n1 = rng.randint(-3, 3)
    x0 = rational(rng, 16)
    x1 = rational(rng, 16)
    plus = TraceCurve(0, [[(x0, F(0)), (x0 + n0, F(1))]])
    minus = TraceCurve(1, [[(x1, F(0)), (x1 + n1, F(1))]])
    return MorseDiagram(2, [TracePair(1, plus, minus)])


def vertical_stations(d, torus):
    out = []
    for pair in d.trace_pairs:
        for side in (PLUS, MINUS):
            curve = pair.curve(side)
            if curve.torus == torus:
                out.append(curve.strands[0][0][0] % 1)
    return sorted(out)


def free_gap(d, rng, torus=0):
    """An x-interval on the torus free of trace curves near t in (0, 1/8)."""
    xs = vertical_stations(d, torus)
    if not xs:
        return (F(1, 8), F(7, 8))
    xs = sorted(xs)
    gaps = []
    for a, b in zip(xs, xs[1:] + [xs[0] + 1]):
        gaps.append((a, b))
    a, b = max(gaps, key=lambda g: g[1] - g[0])
    width = b - a
    return (a + width / 4, b - width / 4)


def almond(x0, t0, wx, wt):
    """A two-cusp closed front in the box [x0, x0+wx] x [t0, t0+wt]."""
    return FrontComponent(
        0,
        [
            Vertex(x0, t0 + wt, CUSP),
            Vertex(x0 + wx / 2, t0 + wt * F(3, 8), PLAIN),
            Vertex(x0 + wx, t0, CUSP),
            Vertex(x0 + wx / 2, t0 + wt * F(5, 8), PLAIN),
        ],
    )


def random_almond_front(rng, d, torus=0):
    a, b = free_gap(d, rng, torus)
    width = (b - a) * F(rng.randint(3, 7), 10)
    x0 = a + (b - a - width) * F(rng.randint(0, 4), 4)
    while any((x0 + k * width / 2) % 1 == 0 for k in (0, 1, 2)):
        x0 += F(1, 1024)
    t0 = F(rng.randint(2, 40), 256)
    wt = F(rng.randint(2, 20), 256)
    comp = almond(x0, t0, wx=width, wt=wt)
    comp = FrontComponent(torus, comp.vertices)
    return FrontProjection([comp])


def star_polygon(rng, center, max_radius, ccw=True):
    """An embedded star-shaped rational polygon around ``center``."""
    directions = [
        (F(1), F(0)), (F(4), F(3)), (F(1), F(1)), (F(3), F(4)),
        (F(0), F(1)), (F(-3), F(4)), (F(-1), F(1)), (F(-4), F(3)),
        (F(-1), F(0)), (F(-4), F(-3)), (F(-1), F(-1)), (F(-3), F(-4)),
        (F(0), F(-1)), (F(3), F(-4)), (F(1), F(-1)), (F(4), F(-3)),
    ]
    count = rng.randint(3, len(directions))
    picks = sorted(rng.sample(range(len(directions)), count))
    pts = []
    for i in picks:
        dx, dy = directions[i]
        scale = F(rng.randint(2, 8), 8) * max_radius / 5
        pts.append((center[0] + dx * scale, center[1] + dy * scale))
    if not ccw:
        pts.reverse()
    return pts


def random_page(rng, with_bands=True):
    bands = []
    if with_bands and rng.random() < 0.7:
        bands.append(Band([(5, F(1, 2)), (5, -F(1, 2)), (8, -F(1, 2)), (8, F(1, 2))]))
    if with_bands and rng.random() < 0.3:
        bands.append(Band([(F(1, 2), 5), (-F(1, 2), 5), (-F(1, 2), 8), (F(1, 2), 8)]))
    return PageModel((0, 0), 10, bands)


def random_lagrangian(rng, page):
    comps = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            center = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        else:
            center = (F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
        comps.append(star_polygon(rng, center, F(2), ccw=rng.random() < 0.5))
    return LagrangianDiagram(comps, [])


def random_move_sites(rng, count, move, variant=None):
    """Yield (diagram, front, site, moved front) tuples for one move."""
    from morsebook.moves import apply_move
    from morsebook.validation import InvalidInput

    made = 0
    guard = 0
    while made < count:
        guard += 1
        assert guard < count * 80, "generator starved for move %s" % move
        d = random_identity_diagram(rng, max_pairs=2, wiggles=False)
        f = random_almond_front(rng, d)
        site = {"component": 0, "segment": 0, "u": F(rng.randint(2, 8), 10)}
        if variant:
            site["variant"] = variant
        if move in ("cusp_trace", "s1", "k3"):
            site = {"component": 0, "vertex": 2}
        if move in ("cusp_trace", "k3"):
            if not d.trace_pairs:
                continue
            pair = rng.choice(d.trace_pairs)
            side = rng.choice(["plus", "minus"])
            if pair.curve(side).torus != 0:
                continue
            site.update({"pair": pair.id, "side": side})
        start = f
        if move == "k3":
            try:
                start = apply_move(d, f, "cusp_trace", site)
            except InvalidInput:
                continue
        try:
            out = apply_move(d, start, move, site)
        except InvalidInput:
            continue
        made += 1
        yield (d, start, site, out)


def move_walk(rng, d, f, steps):
    """``f``, then the fronts grown from it by seeded r1, stabilize, r1
    and k2 left moves, skipping the steps whose site does not fit."""
    from morsebook.moves import apply_move
    from morsebook.validation import InvalidInput

    yield f
    for k in range(steps):
        move = ("r1", "stabilize", "r1", "k2")[k % 4]
        site = {
            "component": 0,
            "segment": rng.randrange(len(f.components[0].vertices)),
            "u": F(rng.randint(3, 7), 10),
        }
        if move != "r1":
            site["variant"] = "left" if move == "k2" else rng.choice(["up", "down"])
        try:
            f = apply_move(d, f, move, site)
        except InvalidInput:
            continue
        yield f


def band_tongue(page, band_index, depth=F(3, 2)):
    """A null-homologous loop reaching through one band past its saddle."""
    band = page.bands[band_index]
    s = band.saddle
    # assumes the horizontal band template from random_page
    return [
        (F(3), F(1, 4)),
        (s[0] + depth / 2, F(1, 4)),
        (s[0] + depth / 2, -F(1, 4)),
        (F(3), -F(1, 4)),
        (F(2), -F(2)),
        (F(-2), F(0)),
        (F(2), F(2)),
    ]
