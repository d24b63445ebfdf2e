"""Exact combinatorics of linear series on algebraic curves.

Brill-Noether numbers and sequence algebra, Littlewood-Richardson Schubert
calculus, feasibility of limit linear series on compact-type curves, and
exact divisor-class slope computations on moduli of curves.

The names below are imported from their module on first use, so a caller
that needs one part of the package (Schubert calculus without the limit
engine, say) neither compiles nor holds the rest.
"""

from importlib import import_module

_HOMES = {name: module for module, names in {
    "curves": "CheckResult CompactCurve Component FactSheet Node SeriesDimFact TorsionPair"
              " elliptic_single_point_check elliptic_two_point_check factsheet_check"
              " general_pointed_check",
    "curvefile": "CurveDescription Witness curve_from_json curve_to_json load_curve_file",
    "limit_checker": "RefutationReport WitnessReport additivity_audit min_complement"
                     " node_compatible refute verify_witness",
    "modspace": "Decomposition DivisorClass bn_class boundary_multiplicity_table canonical_class"
                " decompose_canonical gonal_family_slope plane_pencil_slope slope_bound"
                " slope_of_class",
    "numerology": "RamificationSeq SeriesType VanishingSeq adjusted_rho bn_divisor_pairs"
                  " bn_divisor_triples pointed_exists"
                  " ramification_to_vanishing residual rho vanishing_to_ramification weight",
    "schubert": "CohomologyClass bn_condition cusp_class_power identity_class index_to_partition"
                " lr_product multiply_by_column rect_for schubert_class",
}.items() for name in names.split()}
__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(import_module(f".{_HOMES[name]}", __name__), name)
    if name in _HOMES.values():  # a module, as `import bnlimits` used to bind them all
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
