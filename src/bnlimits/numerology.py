"""Brill-Noether numerology.

The number rho(g, r, d) = g - (r+1)(g-d+r), vanishing and ramification
sequences at a point, Serre residuation, the divisorial (r, s, d) triples
for a given genus, and the closed-form existence tests for a linear series
with prescribed ramification on a general curve with one or two marked points.

Everything here is exact integer arithmetic on immutable values.
"""

from __future__ import annotations

from operator import add, lt, sub
from typing import Iterable, NamedTuple

# The largest genus that bn_divisor_triples and modspace.canonical_class take.
# The commands built on them (class, decompose, slope bn and canonical, triples)
# cost time, memory and output linearly in the genus: genus 10,000 costs about a
# cold start, but `class 1000000` took 1.8 s and 147 MB and wrote 11 MB (2-core x86).
# It bounds the series dimension r of the exist and schubert commands too, which
# build tuples of r + 1 entries: `exist 1 10000000 10000000` took 2.0 s and 169 MB.
MAX_GENUS = 10_000


class SeriesType(NamedTuple("SeriesType", [("g", int), ("r", int), ("d", int)])):
    """A linear series type g^r_d on a curve of genus g."""

    __slots__ = ()

    def __new__(cls, g: int, r: int, d: int) -> "SeriesType":
        self = tuple.__new__(cls, (g, r, d))
        if g < 0 or r < 0 or d < 0:
            raise ValueError(f"series type needs nonnegative g, r, d; got {self}")
        if r > d:
            raise ValueError(f"series dimension r={r} exceeds degree d={d}")
        return self

    def __str__(self) -> str:
        return f"g^{self.r}_{self.d} (genus {self.g})"


class VanishingSeq(NamedTuple("VanishingSeq", [("entries", tuple[int, ...]), ("d", int)])):
    """Strictly increasing vanishing orders 0 <= a_0 < ... < a_r <= d."""

    __slots__ = ()

    def __new__(cls, entries: tuple[int, ...], d: int) -> "VanishingSeq":
        a = tuple(entries)
        if not a:
            raise ValueError("vanishing sequence must be nonempty")
        if a[0] < 0 or a[-1] > d:
            raise ValueError(f"vanishing sequence {a} out of range [0, {d}]")
        if not all(map(lt, a, a[1:])):
            raise ValueError(f"vanishing sequence {a} is not strictly increasing")
        return tuple.__new__(cls, (a, d))

    @property
    def r(self) -> int:
        return len(self.entries) - 1


class RamificationSeq(NamedTuple("RamificationSeq",
                                 [("entries", tuple[int, ...]), ("r", int), ("d", int)])):
    """Weakly increasing ramification indices 0 <= b_0 <= ... <= b_r <= d-r."""

    __slots__ = ()

    def __new__(cls, entries: tuple[int, ...], r: int, d: int) -> "RamificationSeq":
        b = tuple(entries)
        if len(b) != r + 1:
            raise ValueError(f"expected {r + 1} entries, got {b}")
        if b[0] < 0 or b[-1] > d - r:
            raise ValueError(f"ramification sequence {b} out of range [0, {d - r}]")
        if any(x > y for x, y in zip(b, b[1:])):
            raise ValueError(f"ramification sequence {b} is not weakly increasing")
        return tuple.__new__(cls, (b, r, d))


def rho(t: SeriesType) -> int:
    """g - (r+1)(g-d+r), the expected dimension of the space of g^r_d's."""
    return t.g - (t.r + 1) * (t.g - t.d + t.r)


def weight(alpha: RamificationSeq) -> int:
    """Total ramification weight, the sum of the indices."""
    return sum(alpha.entries)


def _check_bound(t: SeriesType, alpha: RamificationSeq) -> None:
    if (alpha.r, alpha.d) != (t.r, t.d):
        raise ValueError(f"ramification bound ({alpha.r}, {alpha.d}) does not match series {t}")


def adjusted_rho(t: SeriesType, rams: list[RamificationSeq] | tuple[RamificationSeq, ...]) -> int:
    """rho(g, r, d) minus the total weight of the imposed ramification."""
    for a in rams:
        _check_bound(t, a)
    return rho(t) - sum(weight(a) for a in rams)


def vanishing_to_ramification(a: VanishingSeq) -> RamificationSeq:
    """Subtract i from the i-th vanishing order; weakly increasing in [0, d - r], so unchecked."""
    return tuple.__new__(RamificationSeq, (tuple(map(sub, a.entries, range(len(a.entries)))),
                                           len(a.entries) - 1, a.d))


def ramification_to_vanishing(alpha: RamificationSeq) -> VanishingSeq:
    """Add i to the i-th ramification index; inverse of vanishing_to_ramification."""
    return VanishingSeq(tuple(x + i for i, x in enumerate(alpha.entries)), alpha.d)


def residual(t: SeriesType) -> SeriesType:
    """Serre-dual series type (g, g-d+r-1, 2g-2-d); preserves rho."""
    r2 = t.g - t.d + t.r - 1
    if r2 < 0:
        raise ValueError(f"residual of {t} has negative dimension {r2}")
    return SeriesType(t.g, r2, 2 * t.g - 2 - t.d)


def bn_divisor_triples(g: int) -> list[tuple[int, int, int]]:
    """All (r, s, d) with g+1 = (r+1)(s-1), s >= 3, r >= 1 and d = r*s - 1.

    Every returned triple satisfies rho(g, r, d) = -1 and the set is closed
    under residuation.  Empty when g+1 admits no such factorization.
    """
    if g < 3:
        raise ValueError(f"need genus >= 3, got {g}")
    if g > MAX_GENUS:
        raise ValueError(f"genus {g} is above the limit of {MAX_GENUS}")
    out = []
    for rp1 in range(2, (g + 1) // 2 + 1):  # s - 1 = (g + 1) / (r + 1) >= 2, and r ascends
        if (g + 1) % rp1 == 0:
            r, s = rp1 - 1, (g + 1) // rp1 + 1
            out.append((r, s, r * s - 1))
    return out


def bn_divisor_pairs(g: int) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Group the divisorial triples of a genus into Serre-residual pairs."""
    triples = bn_divisor_triples(g)
    by_rd = {(r, d): (r, s, d) for r, s, d in triples}
    pairs = []
    for tr in triples:  # sorted, so each pair is met first at its smaller member
        res = residual(SeriesType(g, tr[0], tr[2]))
        if tr <= (other := by_rd[(res.r, res.d)]):
            pairs.append((tr, other))
    return pairs


def _clamp(t: SeriesType, sums: Iterable[int]) -> bool:
    """The clamp sum_i max(s_i + g - d + r, 0) <= g over bare ramification sums s_i."""
    shift = t.g - t.d + t.r
    return sum(max(x + shift, 0) for x in sums) <= t.g


def pointed_exists(t: SeriesType, alpha: RamificationSeq) -> bool:
    """Clamp criterion for a general 1-pointed curve of genus t.g.

    A general pointed curve carries a g^r_d with ramification at least alpha
    at the marked point iff sum_i max(alpha_i + g - d + r, 0) <= g.
    """
    _check_bound(t, alpha)
    return _clamp(t, alpha.entries)


def two_point_exists(t: SeriesType, alpha: RamificationSeq, beta: RamificationSeq) -> bool:
    """Eisenbud-Harris criterion for a general 2-pointed curve of genus t.g.

    A general curve with two general marked points carries a g^r_d with
    ramification at least alpha at one and beta at the other iff
    sum_i max(alpha_i + beta_{r-i} + g - d + r, 0) <= g.  With beta = 0 this
    is pointed_exists.
    """
    _check_bound(t, alpha)
    _check_bound(t, beta)
    return _clamp(t, map(add, alpha.entries, reversed(beta.entries)))


def cusp_pointed_exists(t: SeriesType, alpha: RamificationSeq) -> bool:
    """The clamp criterion with one extra cusp: pointed_exists at genus t.g + 1.

    A cusp is one more genus.  The library asks pointed_exists at the shifted
    genus itself; this name stays for perfbench's schubert-queries oracle.
    """
    return pointed_exists(SeriesType(t.g + 1, t.r, t.d), alpha)
