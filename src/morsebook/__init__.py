"""Legendrian knot invariants from Morse diagrams of open books.

Exact-arithmetic computation of rotation numbers, Thurston-Bennequin
numbers, first homology classes and the Euler class of the supported
plane field, from combinatorial Morse diagrams, front projections and
page projections.
"""

from .abelian import AbelianGroup, GroupElement, smith_normal_form
from .diagram import (
    LabeledDiagram,
    LabelVector,
    MorseDiagram,
    Teleport,
    TraceCurve,
    TracePair,
    h1_presentation,
    propagate_labels,
    validate_diagram,
)
from .front import (
    Crossing,
    FrontComponent,
    FrontProjection,
    Vertex,
    crossings,
    cusp_counts,
    cylinder_class,
    front_class,
    lk_binding,
    validate_front,
)
from .invariants import (
    EulerReport,
    RotationReport,
    class_L0,
    class_L1_component,
    euler_class,
    rot_front,
)
from .lagrangian import (
    Band,
    LagrangianDiagram,
    PageModel,
    rot_lagrangian,
    tb_writhe,
    turning_number,
    validate_lagrangian,
    winding_numbers,
)
from .moves import MOVE_NAMES, PatternNotFound, apply_move, apply_script
from .resolution import (
    MultiplicityAssignment,
    TotalResolution,
    intersect_L0,
    intersect_L0_local,
    intersect_L1,
    intersect_curve_surface,
    multiplicities,
    teleport_signs,
    total_resolution,
)
from .validation import InvalidInput, ValidationReport

__all__ = [
    "AbelianGroup",
    "GroupElement",
    "smith_normal_form",
    "MorseDiagram",
    "TraceCurve",
    "TracePair",
    "Teleport",
    "LabelVector",
    "LabeledDiagram",
    "validate_diagram",
    "propagate_labels",
    "h1_presentation",
    "FrontProjection",
    "FrontComponent",
    "Vertex",
    "Crossing",
    "validate_front",
    "cusp_counts",
    "crossings",
    "lk_binding",
    "front_class",
    "cylinder_class",
    "RotationReport",
    "EulerReport",
    "rot_front",
    "class_L0",
    "class_L1_component",
    "euler_class",
    "teleport_signs",
    "multiplicities",
    "MultiplicityAssignment",
    "total_resolution",
    "TotalResolution",
    "intersect_L0",
    "intersect_L0_local",
    "intersect_L1",
    "intersect_curve_surface",
    "PageModel",
    "Band",
    "LagrangianDiagram",
    "validate_lagrangian",
    "tb_writhe",
    "turning_number",
    "winding_numbers",
    "rot_lagrangian",
    "apply_move",
    "apply_script",
    "MOVE_NAMES",
    "PatternNotFound",
    "InvalidInput",
    "ValidationReport",
]
