"""Exact combinatorics of linear series on algebraic curves.

Brill-Noether numbers and sequence algebra, Littlewood-Richardson Schubert
calculus, feasibility of limit linear series on compact-type curves, and
exact divisor-class slope computations on moduli of curves.
"""

from .curves import (
    CheckResult,
    CompactCurve,
    Component,
    FactSheet,
    Node,
    SeriesDimFact,
    TorsionPair,
    elliptic_single_point_check,
    elliptic_two_point_check,
    factsheet_check,
    general_pointed_check,
)
from .curvefile import CurveDescription, Witness, curve_from_json, curve_to_json, load_curve_file
from .limit_checker import (
    RefutationReport,
    WitnessReport,
    additivity_audit,
    min_complement,
    node_compatible,
    refute,
    verify_witness,
)
from .modspace import (
    Decomposition,
    DivisorClass,
    bn_class,
    boundary_multiplicity_table,
    canonical_class,
    decompose_canonical,
    gonal_family_slope,
    plane_pencil_slope,
    slope_bound,
    slope_of_class,
)
from .numerology import (
    RamificationSeq,
    SeriesType,
    VanishingSeq,
    adjusted_rho,
    bn_divisor_pairs,
    bn_divisor_triples,
    cusp_pointed_exists,
    pointed_exists,
    ramification_to_vanishing,
    residual,
    rho,
    vanishing_to_ramification,
    weight,
)
from .schubert import (
    CohomologyClass,
    bn_condition,
    cusp_class_power,
    identity_class,
    index_to_partition,
    lr_product,
    multiply_by_column,
    rect_for,
    schubert_class,
)

__version__ = "0.1.0"
