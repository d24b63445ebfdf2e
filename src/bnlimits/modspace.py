"""Divisor-class arithmetic on the rational Picard group of moduli of curves.

Classes are exact-rational coefficient vectors over the basis
(lambda, delta_0, ..., delta_[g/2]).  The module provides the divisorial
class attached to the genus-g Brill-Noether triples (up to a positive
scale), the canonical class, the decomposition of the canonical class
pinned on delta_0, the slope function, and the genus-23 slope computations
on gonal families, plane pencils, and boundary multiplicities.

No floating point anywhere; all values are fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .numerology import MAX_GENUS, SeriesType, bn_divisor_triples, rho

SLOPE_THRESHOLD = Fraction(13, 2)  # canonical slope at genus 23


class DivisorClass(NamedTuple("DivisorClass", [
    ("g", int), ("lam", Fraction), ("delta", tuple[Fraction, ...]), ("normalized_up_to_scale", bool),
])):
    """q * lambda + sum_i q_i * delta_i on the moduli space of genus-g curves."""

    __slots__ = ()

    def __new__(cls, g: int, lam: Fraction, delta: tuple[Fraction, ...],
                normalized_up_to_scale: bool = False) -> "DivisorClass":
        if not isinstance(lam, Fraction):
            lam = Fraction(lam)
        delta = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in delta)
        if len(delta) != g // 2 + 1:
            raise ValueError(
                f"need {g // 2 + 1} delta coefficients for genus {g}, got {len(delta)}"
            )
        return tuple.__new__(cls, (g, lam, delta, normalized_up_to_scale))

    def __str__(self) -> str:
        bits = [f"{self.lam}λ"]
        for i, c in enumerate(self.delta):
            sign = "-" if c < 0 else "+"
            bits.append(f"{sign} {abs(c)}δ{i}")
        return " ".join(bits)


class Decomposition(NamedTuple("Decomposition", [
    ("g", int), ("a", Fraction), ("b", Fraction), ("c", tuple[Fraction, ...]),
])):
    """Canonical class written as a * (divisorial class) + b * lambda + sum c_i delta_i."""

    __slots__ = ()

    def __new__(cls, g: int, a: Fraction, b: Fraction, c: tuple[Fraction, ...]) -> "Decomposition":
        if a < 0:
            raise ValueError("leading coefficient must be nonnegative")
        return tuple.__new__(cls, (g, a, b, c))

    @property
    def boundary_nonnegative(self) -> bool:
        return all(x >= 0 for x in self.c)


@lru_cache(maxsize=None)
def bn_class(g: int, r: int, d: int) -> DivisorClass:
    """Class of the divisor of genus-g curves carrying a g^r_d, rho = -1 only.

    Normalized with the unknown positive scale set to 1:
    (g+3) lambda - (g+1)/6 delta_0 - sum_i i(g-i) delta_i.
    The coefficient vector depends only on g.
    """
    t = SeriesType(g, r, d)
    if rho(t) != -1:
        raise ValueError(f"divisorial class needs rho = -1, got rho{g, r, d} = {rho(t)}")
    delta = [-Fraction(g + 1, 6)] + [-Fraction(i * (g - i)) for i in range(1, g // 2 + 1)]
    return DivisorClass(g, Fraction(g + 3), tuple(delta), normalized_up_to_scale=True)


@lru_cache(maxsize=None)
def canonical_class(g: int) -> DivisorClass:
    """13 lambda - 2 delta_0 - 3 delta_1 - 2 delta_2 - ... - 2 delta_[g/2]."""
    if g < 4:
        raise ValueError(f"canonical class needs genus >= 4, got {g}")
    if g > MAX_GENUS:
        raise ValueError(f"genus {g} is above the limit of {MAX_GENUS}")
    delta = [Fraction(-2)] + [Fraction(-3 if i == 1 else -2) for i in range(1, g // 2 + 1)]
    return DivisorClass(g, Fraction(13), tuple(delta))


def decompose_canonical(g: int, r: int, d: int) -> Decomposition:
    """Write the canonical class over the divisorial class, pinning c_0 = 0.

    Matching delta_0 exactly gives a = 12/(g+1); then b = (g-23)/(g+1) is
    the lambda leftover and c_i the slack on delta_i.  The reconstruction
    K = a * bn_class + b * lambda + sum c_i delta_i is an exact identity.
    Each k - a * n is one Fraction from integers, at half the cost of Fraction arithmetic.
    """
    kan = canonical_class(g)
    bn = bn_class(g, r, d)
    a = kan.delta[0] / bn.delta[0]  # c_0 = 0 pinned
    p, q = a.numerator, a.denominator
    b, *c = (Fraction(k.numerator * n.denominator * q - p * n.numerator * k.denominator,
                      k.denominator * n.denominator * q)
             for k, n in zip((kan.lam, *kan.delta), (bn.lam, *bn.delta)))
    assert c[0] == 0
    return Decomposition(g, a, b, tuple(c))


def slope_of_class(cls: DivisorClass) -> Fraction | None:
    """lambda coefficient over the smallest boundary drop; None when undefined.

    Defined only when the lambda coefficient is positive and every delta
    coefficient is negative; then the slope is lam / min_i(-delta_i).
    """
    if cls.lam <= 0 or any(c >= 0 for c in cls.delta):
        return None
    return cls.lam / min(-c for c in cls.delta)


def slope_bound(g: int) -> Fraction:
    """6 + 12/(g+1), the slope of the divisorial classes."""
    if g < 3:
        raise ValueError(f"need genus >= 3, got {g}")
    return 6 + Fraction(12, g + 1)


def gonal_family_slope(g: int, k: int) -> Fraction:
    """Slope of the covering families filling the k-gonal locus, k = 2, 3, 4."""
    if g < 2:
        raise ValueError(f"need genus >= 2, got {g}")
    if k == 2:
        return 8 + Fraction(4, g)
    if k == 3:
        return Fraction(36 * (g + 1), 5 * g + 1)
    if k == 4:
        return Fraction(4 * (5 * g + 7), 3 * g + 1)
    raise ValueError(f"gonal family slope known for k in (2, 3, 4), got {k}")


class PlanePencil(NamedTuple):
    """Pencil of plane curves of degree dd with assigned nodes, genus 23 fibres."""

    dd: int
    f: int  # assigned nodes
    b: int  # base points
    lam: int
    delta: int
    slope: Fraction
    exceeds_13_2: bool


def plane_pencil_slope(dd: int) -> PlanePencil:
    """Invariants of a genus-23 pencil of degree-dd plane curves.

    f = C(dd-1, 2) - 23 assigned nodes and b = dd^2 - 4f base points must
    both be nonnegative; then lambda = 23 and delta = 91 + b + f.
    """
    f = comb(dd - 1, 2) - 23
    b = dd * dd - 4 * f
    if f < 0 or b < 0:
        raise ValueError(f"no admissible pencil for degree {dd} (f={f}, b={b})")
    delta = 91 + b + f
    slope = Fraction(delta, 23)
    return PlanePencil(dd, f, b, 23, delta, slope, slope > SLOPE_THRESHOLD)


class BoundaryRow(NamedTuple):
    i: int
    decomposition_coeff: Fraction  # coefficient of delta_i in the pinned decomposition
    multiplicity: Fraction  # converted to the boundary divisor (factor 2 at i = 1)
    cited_bound: int | None
    coincide: bool


def boundary_multiplicity_table() -> list[BoundaryRow]:
    """Compare the forced boundary multiplicities with the decomposition at genus 23.

    The cited lower bounds are 16 at i=1, 19 at i=2, 21-i for i = 3..9 and
    i = 11 (nothing is cited at i = 10).  The decomposition coefficient is
    converted with the factor 2 at i = 1 since that boundary class is twice
    delta_1.
    """
    r, _, d = bn_divisor_triples(23)[0]
    dec = decompose_canonical(23, r, d)
    rows = []
    for i, coeff in enumerate(dec.c[1:], 1):
        mult = coeff * 2 if i == 1 else coeff
        bound = {1: 16, 2: 19, 10: None}.get(i, 21 - i)
        rows.append(BoundaryRow(i, coeff, mult, bound, bound is not None and mult == bound))
    return rows
