"""Exact Schubert calculus in the cohomology of a Grassmannian G(r+1, d+1).

Classes live in the quotient ring spanned by partitions inside the
(r+1) x (d-r) rectangle.  Every product, powers of the cusp class (a single
column 1^r) included, is computed by the Littlewood-Richardson rule
(enumeration of lattice skew tableaux, organized as chains of horizontal
strips).  Truncation to the rectangle happens inside every single
multiplication, so intermediate classes never leave the ring.

The existence criterion bn_condition never forms the g-th cusp power, nor
the full product of the marked classes: all Littlewood-Richardson
coefficients are nonnegative, so the product is nonzero iff one Schubert
class in the support of the marked points' product survives the power,
which is the one-point clamp.  The clamp holds on a down-set of partitions
and the support of s_lam * s_mu lies above lam, so the product's support is
searched depth first, factor by factor, keeping only partitions that pass.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import add
from typing import Iterable, Iterator, Mapping, NamedTuple

from .numerology import RamificationSeq, SeriesType, adjusted_rho

Partition = tuple[int, ...]
Rect = tuple[int, int]  # (rows, cols)


def rect_for(r: int, d: int) -> Rect:
    """Ambient rectangle of Schubert classes for series of type (r, d)."""
    if r > d:
        raise ValueError(f"need r <= d, got r={r}, d={d}")
    return (r + 1, d - r)


def _trim(parts: Iterable[int]) -> Partition:
    out = list(parts)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def validate_partition(p: Partition, rect: Rect) -> Partition:
    """Check weak decrease and containment in the rectangle; return trimmed."""
    p = _trim(p)
    k, m = rect
    if any(a < 0 for a in p) or any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"{p} is not a partition")
    if len(p) > k or (p and p[0] > m):
        raise ValueError(f"partition {p} does not fit in a {k}x{m} rectangle")
    return p


def index_to_partition(alpha: RamificationSeq) -> Partition:
    """Partition attached to a ramification index: the entries reversed."""
    return _trim(reversed(alpha.entries))


class CohomologyClass(NamedTuple("CohomologyClass", [
    ("rect", Rect), ("terms", Mapping[Partition, int]),
])):
    """Integer combination of Schubert classes inside a fixed rectangle."""

    __slots__ = ()

    def __new__(cls, rect: Rect, terms: Mapping[Partition, int] | None = None) -> "CohomologyClass":
        cleaned = {}
        for p, c in (terms or {}).items():
            if c:
                cleaned[validate_partition(p, rect)] = c
        return tuple.__new__(cls, (rect, cleaned))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, p: Partition) -> int:
        return self.terms.get(_trim(p), 0)

    def support(self) -> list[Partition]:
        return sorted(self.terms)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for p in self.support():
            c = self.terms[p]
            name = "s" + ("[" + ",".join(map(str, p)) + "]" if p else "[]")
            bits.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(bits)


def schubert_class(p: Partition, rect: Rect) -> CohomologyClass:
    return CohomologyClass(rect, {validate_partition(tuple(p), rect): 1})


def identity_class(rect: Rect) -> CohomologyClass:
    return CohomologyClass(rect, {(): 1})


def zero_class(rect: Rect) -> CohomologyClass:
    return CohomologyClass(rect, {})


@lru_cache(maxsize=None)
def lr_coefficients(lam: Partition, mu: Partition, k: int, m: int) -> tuple[tuple[Partition, int], ...]:
    """Littlewood-Richardson expansion of s_lam * s_mu inside the k x m rectangle.

    Counts lattice skew tableaux of content mu on lam: shapes are grown by
    one horizontal strip per letter, with the ballot condition checked row
    by row as the strip is placed.  Shapes leaving the rectangle are pruned
    immediately, which is exactly the ring truncation.  The strips are
    enumerated from an explicit stack, so neither the letters nor the rows
    are bounded by the recursion limit.
    """
    out: dict[Partition, int] = {}
    labels = _trim(mu)
    # the i-th iterator yields the tableaux with i letters placed, as (shape, the last
    # letter's boxes per row); only the strips on the current path are held
    stack = [iter([(tuple(lam) + (0,) * (k - len(lam)), (0,) * k)])]
    while stack:
        tableau = next(stack[-1], None)
        li = len(stack) - 1
        if tableau is None:
            stack.pop()
        elif li == len(labels):
            key = _trim(tableau[0])
            out[key] = out.get(key, 0) + 1
        else:
            stack.append(_strips(*tableau, labels[li], m, li > 0))
    return tuple(sorted(out.items()))


def _strips(old: Partition, prev: Partition, size: int, m: int,
            ballot: bool) -> Iterator[tuple[Partition, Partition]]:
    """Horizontal strips of size boxes on the padded shape old within m columns.

    Yields each new shape with its boxes per row.  With ballot, the boxes in
    rows 0..j number at most prev's in rows 0..j-1.  The rows are filled top
    down, each first with all it takes; the deepest row holding a box then
    gives one up, as in an odometer.
    """
    k = len(old)
    room = [above - x for above, x in zip((m,) + old, old)]
    allowed = list(accumulate(prev, initial=0)) if ballot else [size] * k
    boxes = [0] * k
    j = placed = 0  # boxes[j:] are empty, and placed is the sum of boxes[:j]
    while True:
        while placed < size and j < k:
            boxes[j] = min(room[j], size - placed, allowed[j] - placed)
            placed += boxes[j]
            j += 1
        if placed == size:
            yield tuple(map(add, old, boxes)), tuple(boxes)
        j -= 1
        while j >= 0 and not boxes[j]:
            j -= 1
        if j < 0:
            return
        boxes[j] -= 1
        placed -= 1
        j += 1


def lr_product(x: CohomologyClass, y: CohomologyClass) -> CohomologyClass:
    """Product in the truncated ring, extended bilinearly over the terms."""
    if x.rect != y.rect:
        raise ValueError(f"rectangle mismatch: {x.rect} vs {y.rect}")
    k, m = x.rect
    acc: dict[Partition, int] = {}
    for lam, a in x.terms.items():
        for mu, b in y.terms.items():
            # expansion is symmetric; run the strip recursion on the smaller factor
            lam2, mu2 = (lam, mu) if sum(mu) <= sum(lam) else (mu, lam)
            for nu, c in lr_coefficients(lam2, mu2, k, m):
                acc[nu] = acc.get(nu, 0) + a * b * c
    return CohomologyClass(x.rect, acc)


def cusp_class_power(t: int, rect: Rect) -> CohomologyClass:
    """t-th power of the cusp class, the column 1^r in an (r+1)-row rectangle."""
    if t < 0:
        raise ValueError("power must be nonnegative")
    k, m = rect
    acc = identity_class(rect)
    if k == 1:
        return acc  # one row: the cusp class 1^0 is the identity
    if m == 0:  # zero width (d = r): the column does not fit, so the cusp class is 0
        return acc if t == 0 else zero_class(rect)
    column = schubert_class((1,) * (k - 1), rect)
    for _ in range(t):
        if acc.is_zero():
            break
        acc = lr_product(acc, column)
    return acc


def bn_condition(t: SeriesType, rams: list[RamificationSeq] | tuple[RamificationSeq, ...]) -> bool:
    """Schubert nonvanishing criterion for a general t.g-pointed curve.

    A general curve of genus g with marked general points carries a g^r_d
    with ramification at least alpha^i at the i-th point iff the product of
    the classes of the alpha^i times the g-th power of the cusp class is
    nonzero in the rectangle ring.

    A product of degree sum_i |alpha^i| + g*r above (r+1)(d-r), the
    dimension of G(r+1, d+1), is zero: that is adjusted rho < 0.  Otherwise,
    since no coefficient is negative, the power of the cusp class kills the
    product iff it kills every sigma_lambda in the support of the marked
    classes' product.  sigma_lambda times the g-th cusp power is nonzero iff
    lambda passes the one-point clamp sum_i max(lambda_i + g - d + r, 0) <= g
    over all r+1 rows (Eisenbud-Harris), so the cost does not grow with g.

    The support is searched depth first, one marked factor per level,
    starting from the empty partition.  Every nu with c^nu_{lambda,mu} > 0
    contains lambda, and the clamp over the nonzero rows holds on a down-set
    (each row's term is nondecreasing in the row, and an empty row adds 0),
    so a partition that fails the clamp has no descendant that passes: only
    passing partitions are expanded, and the answer is yes at the first one
    reached after the last factor.  The stack is explicit, so the number of
    points is not bounded by the recursion limit.
    """
    if adjusted_rho(t, rams) < 0:  # checks every bound first
        return False
    k, m = rect_for(t.r, t.d)
    factors = [index_to_partition(alpha) for alpha in rams]
    if not factors:  # the empty product is sigma_(), which passes the clamp
        return True
    # empty rows add max(shift, 0); when shift > 0 the padded clamp is |lambda| <= rho,
    # which every lambda here meets since adjusted rho >= 0, so they can be left out
    g, shift, last = t.g, t.g - t.d + t.r, len(factors) - 1
    stack: list[tuple[int, Partition]] = [(0, ())]
    seen: set[tuple[int, Partition]] = set()
    while stack:
        i, lam = stack.pop()
        # pushed in reverse, so the child with the shortest first row, the likeliest
        # to pass the clamp at the next level too, is expanded first
        for nu, _ in reversed(lr_coefficients(lam, factors[i], k, m)):
            if sum(max(x + shift, 0) for x in nu) > g:
                continue
            if i == last:
                return True
            if (i + 1, nu) not in seen:
                seen.add((i + 1, nu))
                stack.append((i + 1, nu))
    return False
