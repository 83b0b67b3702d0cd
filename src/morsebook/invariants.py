"""Rotation numbers and the Euler class of the supported plane field.

The rotation number of a cylinder-null Legendrian front is half the
signed cusp count plus its linking with the binding plus the
intersection of the critical link with the chosen Seifert class; the
Euler class is Poincare dual to that critical link, computed from the
labeled diagram alone.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import (
    h1_presentation,
    propagate_labels,
    vertical_line_class_sum,
)
from .front import cusp_counts, lk_binding, null_trace_crossings, validate_front
from .geometry import min_positive_gap
from .resolution import _horizontal_sum, _intersect_L1, _multiplicities
from .validation import InvalidInput


class RotationReport:
    """All terms of the front rotation formula, with their sum."""

    def __init__(self, D, U, lk_B, L0_dot_H, L1_dot_H, aux_component_count):
        self.D = D
        self.U = U
        self.lk_B = lk_B
        self.L0_dot_H = L0_dot_H
        self.L1_dot_H = list(L1_dot_H)
        self.aux_component_count = aux_component_count
        self.L_dot_H = L0_dot_H - sum(self.L1_dot_H)
        if (D - U) % 2 != 0:
            raise InvalidInput("odd signed cusp count on a closed front")
        self.rot = (D - U) // 2 + lk_B + self.L_dot_H

    def as_dict(self):
        return {
            "D": self.D,
            "U": self.U,
            "lk_B": self.lk_B,
            "L0_dot_H": self.L0_dot_H,
            "L1_dot_H": self.L1_dot_H,
            "L_dot_H": self.L_dot_H,
            "aux_components": self.aux_component_count,
            "rot": self.rot,
        }

    def __repr__(self):
        return "RotationReport(rot=%d, D=%d, U=%d, lk_B=%d, L.H=%d)" % (
            self.rot,
            self.D,
            self.U,
            self.lk_B,
            self.L_dot_H,
        )


def rot_front(d, f_lambda, f_x=None):
    """Rotation number of the front with respect to the class chosen by X.

    Cusps and binding linking come from the knot's own front; the
    surface intersection terms use the union with the auxiliary link,
    which must make the class in the cylinder vanish.  Validates the
    front and the union once at entry; one pass over the union's trace
    crossings gives its class in the cylinder and every L1 term.

    L0.H is read off the union's multiplicities (``_horizontal_sum``)
    without building the total resolution, so unlike ``resolve`` and
    ``render`` this never fails with "could not realize resolution
    geometry" or an assertion of the resolution's assembly.
    """
    validate_front(d, f_lambda).raise_if_invalid("front")
    D, U = cusp_counts(f_lambda)
    lk = lk_binding(f_lambda)
    union = f_lambda if f_x is None else f_lambda.union(f_x)
    if f_x is not None:
        validate_front(d, union).raise_if_invalid("front union")
    hits = null_trace_crossings(d, union)
    L0 = _horizontal_sum(d, union, _multiplicities(d, union))
    L1s = [_intersect_L1(d, hits, pair.id) for pair in d.trace_pairs]
    aux = 0 if f_x is None else len(f_x.components)
    return RotationReport(D, U, lk, L0, L1s, aux)


def _line_epsilon(d, torus):
    """Half the smallest positive x-gap among chart coordinates."""
    xs = []
    for _, _, curve in d.curves():
        if curve.torus != torus:
            continue
        for strand in curve.strands:
            for x, _ in strand:
                xs.append(x % 1)
    gap = min_positive_gap(xs)
    return (gap / 2) if gap is not None else Fraction(1, 4)


def class_L1_component(d, pair_id, labeled=None, group=None, side=1):
    """Class of one index-1 critical circle in H_1(M).

    Sums labels of trace-curve crossings with the vertical line just to
    the positive-x side of the pair's upward curve endpoint (side=-1
    uses the other translate, for cross-checking).
    """
    if labeled is None:
        labeled = propagate_labels(d)
    if group is None:
        group = h1_presentation(d, labeled)
    pair = d.trace_pairs[d.pair_index(pair_id)]
    curve = pair.plus
    x_end = curve.start[0] % 1
    eps = _line_epsilon(d, curve.torus)
    vec = vertical_line_class_sum(labeled, curve.torus, x_end + side * eps)
    return group.reduce(vec.coeffs)


def class_L0(d, labeled=None, group=None):
    """Class of the index-0 critical circle: the reduced edge difference.

    The edge difference of every binding component must reduce to the
    same element; a mismatch is an internal consistency failure.
    """
    if labeled is None:
        labeled = propagate_labels(d)
    if group is None:
        group = h1_presentation(d, labeled)
    diffs = labeled.edge_diffs
    reduced = [group.reduce(v.coeffs) for v in diffs]
    for i, r in enumerate(reduced):
        if r != reduced[0]:
            raise AssertionError(
                "edge differences disagree between components 0 and %d" % i
            )
    return reduced[0]


class EulerReport:
    def __init__(
        self,
        group,
        l0_class,
        l1_classes,
        total,
        edge_diffs,
        preserved_pairs,
        reduced_checks,
    ):
        self.group = group
        self.l0_class = l0_class
        self.l1_classes = l1_classes
        self.total = total
        self.edge_diffs = edge_diffs
        self.preserved_pairs = preserved_pairs
        self.reduced_checks = reduced_checks

    def is_zero(self):
        return self.total.is_zero()

    def as_dict(self):
        return {
            "h1": self.group.describe(),
            "euler_class": list(self.total.coords),
            "L0_class": list(self.l0_class.coords),
            "L1_classes": {pid: list(g.coords) for pid, g in self.l1_classes},
            "edge_diffs": [list(v.coeffs) for v in self.edge_diffs],
            "preserved_pairs": self.preserved_pairs,
            "reduced_checks": {
                pid: list(g.coords) for pid, g in self.reduced_checks
            },
        }


def euler_class(d):
    """The class of the critical link, Poincare dual to e(xi).

    The total is the index-0 class minus the sum of index-1 classes.
    Pairs never crossed by a handle slide have a preserved flowline;
    for each, the report carries the reduced computation dropping that
    pair together with the index-0 circle, which must agree with the
    full total.
    """
    labeled = propagate_labels(d)
    group = h1_presentation(d, labeled)
    l0 = class_L0(d, labeled, group)
    l1s = [
        (pair.id, class_L1_component(d, pair.id, labeled, group))
        for pair in d.trace_pairs
    ]
    total = l0
    for _, g in l1s:
        total = total - g

    targeted = set()
    for pair in d.trace_pairs:
        for tp in pair.teleports:
            targeted.add(tp.target_pair)
    preserved = [pair.id for pair in d.trace_pairs if pair.id not in targeted]

    reduced_checks = []
    for pid in preserved:
        rest = group.zero()
        for other_id, g in l1s:
            if other_id != pid:
                rest = rest - g
        reduced_checks.append((pid, rest))
        if rest != total:
            raise AssertionError(
                "reduced Euler computation via preserved pair %s disagrees" % pid
            )
    return EulerReport(
        group, l0, l1s, total, labeled.edge_diffs, preserved, reduced_checks
    )
