"""Morse diagrams: binding tori decorated with paired trace curves.

A diagram records, for each index-1 handle of the page, the pair of
curves traced on the boundary tori by the two co-core flowlines, with
handle slides appearing as teleport events that break one curve and
re-attach it across another pair.  Homology labels are propagated up
the t-coordinate and assembled into a presentation of H_1 of the
ambient manifold.
"""

from __future__ import annotations

from fractions import Fraction

from .abelian import AbelianGroup
from .geometry import (
    eval_piecewise,
    integer_crossings,
    torus_meets,
)
from .validation import ValidationReport

PLUS = "plus"
MINUS = "minus"

# Sign of a trace strand crossing an upward vertical line while moving in
# +x, for an up-oriented curve.  Calibrated once against the annulus
# example (left edge difference = -A for the left-handed twist fixture).
LINE_CROSSING_SIGN = 1


class TraceCurve:
    """One co-core trace: strands of strictly increasing t on one torus."""

    def __init__(self, torus, strands):
        self.torus = int(torus)
        self.strands = [
            [(Fraction(x), Fraction(t)) for (x, t) in strand] for strand in strands
        ]

    @property
    def start(self):
        return self.strands[0][0]

    @property
    def end(self):
        return self.strands[-1][-1]

    def segments(self):
        for si, strand in enumerate(self.strands):
            for a, b in zip(strand, strand[1:]):
                yield (si, a, b)

    def x_at(self, t):
        """x on the lifted curve at page parameter t (within one strand)."""
        for strand in self.strands:
            if strand[0][1] <= t <= strand[-1][1]:
                return eval_piecewise(strand, t)
        raise ValueError("t=%s not covered by a single strand" % (t,))


class Teleport:
    """A handle slide: one curve of the pair breaks across a target pair."""

    def __init__(self, t, side, target_pair, target_side, orientation_sign):
        self.t = Fraction(t)
        self.side = side
        self.target_pair = int(target_pair)
        self.target_side = target_side
        self.orientation_sign = int(orientation_sign)


class TracePair:
    def __init__(self, pair_id, plus, minus, teleports=()):
        self.id = int(pair_id)
        self.plus = plus
        self.minus = minus
        self.teleports = list(teleports)

    def curve(self, side):
        return self.plus if side == PLUS else self.minus


def curve_orientation(side):
    """Vertical orientation: the plus curve points up, the minus down."""
    return 1 if side == PLUS else -1


class MorseDiagram:
    """The combinatorial presentation of an open book with Morse structure."""

    def __init__(self, binding_count, trace_pairs):
        self.binding_count = int(binding_count)
        self.trace_pairs = list(trace_pairs)

    @property
    def k(self):
        return len(self.trace_pairs)

    def pair_index(self, pair_id):
        for i, p in enumerate(self.trace_pairs):
            if p.id == pair_id:
                return i
        raise KeyError("no trace pair with id %r" % (pair_id,))

    def curves(self):
        """All (pair_index, side, curve) triples."""
        for i, pair in enumerate(self.trace_pairs):
            yield (i, PLUS, pair.plus)
            yield (i, MINUS, pair.minus)

    def events(self):
        """All teleport events as records sorted by t."""
        evs = []
        for i, pair in enumerate(self.trace_pairs):
            for tp in pair.teleports:
                evs.append(
                    Event(
                        t=tp.t,
                        slider=(i, tp.side),
                        target=(self.pair_index(tp.target_pair), tp.target_side),
                        sign=tp.orientation_sign,
                    )
                )
        evs.sort(key=lambda e: e.t)
        return evs


class Event:
    def __init__(self, t, slider, target, sign):
        self.t = t
        self.slider = slider  # (pair_index, side)
        self.target = target  # (pair_index, exit side)
        self.sign = sign


def validate_diagram(d):
    """Check every MorseDiagram invariant; report violations, never raise."""
    report = ValidationReport()
    if d.binding_count < 1:
        report.add("diagram", "binding_count must be positive")
    ids = [p.id for p in d.trace_pairs]
    if len(set(ids)) != len(ids):
        report.add("diagram", "duplicate trace pair ids")

    for i, pair in enumerate(d.trace_pairs):
        for side in (PLUS, MINUS):
            loc = "pair %d %s" % (pair.id, side)
            curve = pair.curve(side)
            if not (0 <= curve.torus < d.binding_count):
                report.add(loc, "torus index out of range")
            if not curve.strands or any(len(s) < 2 for s in curve.strands):
                report.add(loc, "curve needs strands of at least two vertices")
                continue
            for strand in curve.strands:
                for (x1, t1), (x2, t2) in zip(strand, strand[1:]):
                    if t2 <= t1:
                        report.add(loc, "t not strictly increasing along a strand")
            if curve.start[1] != 0:
                report.add(loc, "curve must start at t=0")
            if curve.end[1] != 1:
                report.add(loc, "curve must end at t=1")
            if (curve.end[0] - curve.start[0]) % 1 != 0:
                report.add(loc, "trace curve does not close up")
            for strand in curve.strands:
                for x, t in strand:
                    if x % 1 == 0:
                        report.add(loc, "vertex on the left-edge seam; perturb")

    # d.events() raises on a missing target pair, so report those first
    # and skip the event checks
    orphans = [
        (pair.id, tp.t) for pair in d.trace_pairs for tp in pair.teleports
        if tp.target_pair not in ids
    ]
    for pid, t in orphans:
        report.add("pair %d teleport t=%s" % (pid, t), "teleport target pair does not exist")
    events = [] if orphans else d.events()
    ts = [e.t for e in events]
    if len(set(ts)) != len(ts):
        report.add("diagram", "two handle slides share a t-value")
    for e in events:
        if not (0 < e.t < 1):
            report.add("teleport", "event t must lie strictly inside (0,1)")
        if e.slider[0] == e.target[0]:
            report.add("teleport", "a pair cannot slide across itself")

    # strand breaks must match teleport events one-to-one
    for i, pair in enumerate(d.trace_pairs):
        for side in (PLUS, MINUS):
            curve = pair.curve(side)
            loc = "pair %d %s" % (pair.id, side)
            break_ts = []
            for s1, s2 in zip(curve.strands, curve.strands[1:]):
                if s1[-1][1] != s2[0][1]:
                    report.add(loc, "strand break with mismatched t")
                break_ts.append(s1[-1][1])
            event_ts = sorted(tp.t for tp in pair.teleports if tp.side == side)
            if sorted(break_ts) != event_ts:
                report.add(loc, "strand breaks do not match teleport events")

    if not report.ok:
        return report

    # teleport coincidences: exit on the target-side curve, entry on its partner
    for i, pair in enumerate(d.trace_pairs):
        for tp in pair.teleports:
            loc = "pair %d teleport t=%s" % (pair.id, tp.t)
            slider = pair.curve(tp.side)
            strand_idx = None
            for si, strand in enumerate(slider.strands[:-1]):
                if strand[-1][1] == tp.t:
                    strand_idx = si
                    break
            if strand_idx is None:
                report.add(loc, "sliding curve has no break at event t")
                continue
            exit_pt = slider.strands[strand_idx][-1]
            entry_pt = slider.strands[strand_idx + 1][0]
            tgt_pair = d.trace_pairs[d.pair_index(tp.target_pair)]
            exit_curve = tgt_pair.curve(tp.target_side)
            entry_curve = tgt_pair.curve(MINUS if tp.target_side == PLUS else PLUS)
            if exit_curve.torus != slider.torus or entry_curve.torus != slider.torus:
                report.add(loc, "teleport target on a different torus")
                continue
            try:
                if (exit_curve.x_at(tp.t) - exit_pt[0]) % 1 != 0:
                    report.add(loc, "exit point not on the target trace curve")
                if (entry_curve.x_at(tp.t) - entry_pt[0]) % 1 != 0:
                    report.add(loc, "entry point not on the partner trace curve")
            except ValueError:
                report.add(loc, "target curve broken at event t")
            want = 1 if curve_orientation(tp.side) == curve_orientation(tp.target_side) else -1
            if tp.orientation_sign != want:
                report.add(loc, "orientation sign inconsistent with curve orientations")

    # disjointness: distinct curves meet only at teleport contact points
    contacts = _teleport_contacts(d)
    segs = [
        (pi, ci, n, curve.torus, p1, p2)
        for ci, (pi, _, curve) in enumerate(d.curves())
        for n, (_, p1, p2) in enumerate(curve.segments())
    ]
    last = {ci: n for _, ci, n, *_ in segs}  # curve -> its last segment

    def consecutive(i, j):
        # along one curve, and through its t=1 closure
        _, c1, n1 = segs[i][:3]
        _, c2, n2 = segs[j][:3]
        return c1 == c2 and (n2 == n1 + 1 or (n1 == 0 and n2 == last[c1]))

    def curve_pair_order(meet):
        i, j = meet[:2]
        return (segs[i][1], segs[j][1], i, j)

    meets = torus_meets([s[3:] for s in segs], skip=consecutive)
    for i, j, hits, error in sorted(meets, key=curve_pair_order):
        pi1, _, _, torus, p1, p2 = segs[i]
        pi2, _, _, _, q1, q2 = segs[j]
        loc = "pair %d/%d" % (d.trace_pairs[pi1].id, d.trace_pairs[pi2].id)
        if error is not None:
            if not _is_contact(contacts, torus, (p1, p2, q1, q2)):
                report.add(loc, "trace curves touch degenerately away from teleports")
        elif hits:
            report.add(loc, "trace curves cross transversally")
    return report


def _teleport_contacts(d):
    pts = set()
    for pair in d.trace_pairs:
        for tp in pair.teleports:
            slider = pair.curve(tp.side)
            for s1, s2 in zip(slider.strands, slider.strands[1:]):
                if s1[-1][1] == tp.t:
                    pts.add((slider.torus, s1[-1][0] % 1, tp.t % 1))
                    pts.add((slider.torus, s2[0][0] % 1, tp.t % 1))
    return pts


def _is_contact(contacts, torus, segs):
    for seg in segs:
        if (torus, seg[0] % 1, seg[1] % 1) in contacts:
            return True
    return False


class LabelVector:
    """Integer combination of the core generators."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(int(c) for c in coeffs)

    @classmethod
    def unit(cls, k, j):
        return cls(tuple(1 if i == j else 0 for i in range(k)))

    @classmethod
    def zero(cls, k):
        return cls((0,) * k)

    def plus(self, other, scale=1):
        return LabelVector(tuple(a + scale * b for a, b in zip(self.coeffs, other.coeffs)))

    def minus(self, other):
        return self.plus(other, -1)

    def __eq__(self, other):
        return isinstance(other, LabelVector) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "LabelVector%r" % (self.coeffs,)


class LabeledDiagram:
    """A Morse diagram with propagated trace-curve labels.

    ``pair_labels``: per pair, list of (t_from, t_to, LabelVector), the
    common label of both curves of the pair on that t-range.
    ``edge_diffs``: per torus, the left edge's top label minus its
    bottom label, which is the seam line's sum: the signed label sum
    of the trace strands crossing x = 0.
    """

    def __init__(self, diagram, pair_labels):
        self.diagram = diagram
        self.pair_labels = pair_labels
        tori = range(diagram.binding_count)
        self.edge_diffs = list(vertical_line_class_sums(self, 0, tori).values())

    def pair_label_at(self, pair_index, t):
        for t0, t1, lab in self.pair_labels[pair_index]:
            if t0 <= t < t1:
                return lab
        return self.pair_labels[pair_index][-1][2]

    def top_label(self, pair_index):
        return self.pair_labels[pair_index][-1][2]


def propagate_labels(d):
    """Run the teleport label rule up the diagram.

    The sliding curve keeps its label; the crossed pair's label gains
    (orientation sign) times the slider's label above the event.  The
    left edges carry no labels of their own: each edge difference is
    the seam line's sum, ``vertical_line_class_sums`` at x = 0.
    """
    report = validate_diagram(d)
    report.raise_if_invalid("diagram")
    k = d.k
    pair_labels = [[(Fraction(0), Fraction(1), LabelVector.unit(k, j))] for j in range(k)]
    for e in d.events():
        spans = pair_labels[e.target[0]]
        t0, _, label = spans[-1]
        slider_label = pair_labels[e.slider[0]][-1][2]
        spans[-1] = (t0, e.t, label)
        spans.append((e.t, Fraction(1), label.plus(slider_label, e.sign)))
    return LabeledDiagram(d, pair_labels)


def vertical_line_class_sums(labeled, x_line, tori):
    """Signed label sums of trace-curve crossings with a vertical line.

    Returns {torus: LabelVector} for each torus in ``tori``, in their
    order.  The line {x = x_line} and its lattice translates are counted
    against every oriented, labeled trace curve on the torus: a strand
    crossing the upward line adds its pair's label at the crossing
    height, times LINE_CROSSING_SIGN, the curve's vertical orientation
    and the crossing direction.  At x = 0 the sum is the left edge's
    difference; other lines give the index-1 link classes.
    """
    d = labeled.diagram
    totals = dict.fromkeys(tori, LabelVector.zero(d.k))
    for pi, side, curve in d.curves():
        if curve.torus not in totals:
            continue
        orient = LINE_CROSSING_SIGN * curve_orientation(side)
        for _, a, b in curve.segments():
            for n, direction in integer_crossings(a[0] - x_line, b[0] - x_line):
                s = Fraction(x_line + n - a[0], b[0] - a[0])
                lab = labeled.pair_label_at(pi, a[1] + s * (b[1] - a[1]))
                totals[curve.torus] = totals[curve.torus].plus(lab, orient * direction)
    return totals


def vertical_line_class_sum(labeled, torus, x_line):
    """The one-torus entry of ``vertical_line_class_sums``."""
    return vertical_line_class_sums(labeled, x_line, (torus,))[torus]


def h1_presentation(d, labeled=None):
    """H_1 of the ambient manifold, presented on the core generators.

    Relations: for each pair, its top label minus its generator (the
    monodromy closure of the dual core class), plus all pairwise
    differences of the distinct edge label changes, in the order of
    their first binding component.
    """
    if labeled is None:
        labeled = propagate_labels(d)
    k = d.k
    relations = []
    for j in range(k):
        top = labeled.top_label(j)
        rel = top.minus(LabelVector.unit(k, j))
        relations.append(rel.coeffs)
    diffs = list(dict.fromkeys(labeled.edge_diffs))
    for i in range(len(diffs)):
        for j in range(i + 1, len(diffs)):
            relations.append(diffs[i].minus(diffs[j]).coeffs)
    relations = [r for r in relations if any(r)]
    return AbelianGroup(k, relations)

