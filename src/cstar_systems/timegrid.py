"""Exact time points and interval partitions.

Time points are strictly positive rationals; every poset argument downstream
relies on exact equality of cut points, so floats are never accepted here.
``as_timepoint`` hash-conses them: it returns one ``TimePoint`` (a
``Fraction``) per value, whose hash is computed once, so the partition keys of
every cache hash and compare without rational arithmetic.  A partition is a
strictly increasing tuple of at least two points; partitions ordered by set
inclusion form the index poset of every inductive construction in this
package.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

TimeLike = Union[Fraction, int, str]


class NotARefinementError(ValueError):
    pass


class EndpointMismatchError(ValueError):
    pass


class TimePoint(Fraction):
    """An interned time point: ``as_timepoint`` makes exactly one per rational value.

    Its hash is ``hash(Fraction(value))``, computed once, so dicts keyed by
    plain Fractions still find it, and so is its wire string ``"p/q"``.  Two
    time points are equal only when they are the same object, and they order
    by integer cross-multiplication.  Copies and unpickled points are the
    interned object itself.
    """

    __slots__ = ("_hash", "_wire")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is TimePoint:
            return self is other
        return Fraction.__eq__(self, other)

    def __lt__(self, other):
        if type(other) is TimePoint:
            return self._numerator * other._denominator < other._numerator * self._denominator
        return Fraction.__lt__(self, other)

    def __le__(self, other):
        if type(other) is TimePoint:
            return self._numerator * other._denominator <= other._numerator * self._denominator
        return Fraction.__le__(self, other)

    def __gt__(self, other):
        if type(other) is TimePoint:
            return self._numerator * other._denominator > other._numerator * self._denominator
        return Fraction.__gt__(self, other)

    def __ge__(self, other):
        if type(other) is TimePoint:
            return self._numerator * other._denominator >= other._numerator * self._denominator
        return Fraction.__ge__(self, other)

    def __reduce__(self):
        return as_timepoint, (format_timepoint(self),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


# Never cleared: equality of time points is identity, so a value must keep its object.
_INTERNED: dict[Fraction, TimePoint] = {}


def as_timepoint(value: TimeLike) -> TimePoint:
    """The interned time point of an int, Fraction or "p/q" string, which must be > 0."""
    if type(value) is TimePoint:
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(f"time points must be exact rationals, got {value!r}")
    try:
        t = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"time point {value!r} has a zero denominator") from None
    if t <= 0:
        raise ValueError(f"time points must be > 0, got {t}")
    point = _INTERNED.get(t)
    if point is None:
        point = Fraction.__new__(TimePoint, t.numerator, t.denominator)
        point._hash = hash(t)
        point._wire = format_timepoint(t)
        _INTERNED[t] = point
    return point


def format_timepoint(t: Fraction) -> str:
    """Render as "p/q", or just "p" for integers (the wire format)."""
    if type(t) is TimePoint:
        return t._wire
    return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"


@dataclass(frozen=True, eq=False)
class Partition:
    """A finite partition of the interval [min, max]: >= 2 strictly increasing points.

    The hash is computed once; equality tests identity, then the hash, then
    the points.
    """

    points: tuple[TimePoint, ...]
    _hash: int = field(init=False, repr=False)

    def __init__(self, points: Iterable[TimeLike]):
        pts = tuple(map(as_timepoint, points))
        if len(pts) < 2:
            raise ValueError(f"a partition needs at least 2 points, got {pts}")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError(f"partition points must be strictly increasing: {pts}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_hash", hash(pts))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not Partition:
            return NotImplemented
        return self._hash == other._hash and self.points == other.points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, t) -> bool:
        return t in self.points

    def __str__(self) -> str:
        return "{" + ", ".join(format_timepoint(p) for p in self.points) + "}"

    @property
    def endpoints(self) -> tuple[Fraction, Fraction]:
        return self.points[0], self.points[-1]

    @property
    def interior(self) -> tuple[Fraction, ...]:
        return self.points[1:-1]

    def pairs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Consecutive pairs (the cells of the partition)."""
        return tuple(zip(self.points, self.points[1:]))

    def restrict(self, lo: Fraction, hi: Fraction) -> "Partition":
        """The sub-partition of points within [lo, hi]; needs >= 2 survivors."""
        return Partition(p for p in self.points if lo <= p <= hi)


@dataclass(frozen=True)
class OuterDecomposition:
    """A refinement J of I split as (piece below min I) | (middle) | (piece above max I).

    Terminal pieces with fewer than 2 points are absent; the middle always
    shares endpoints with I and refines it.
    """

    lower: Optional[Partition]
    middle: Partition
    upper: Optional[Partition]


def is_refinement(coarse: Partition, fine: Partition) -> bool:
    """True iff every point of `coarse` occurs in `fine`."""
    return set(coarse.points) <= set(fine.points)


def _up_sets(parts: Sequence[Partition]) -> list[list[int]]:
    """For each partition, the indices of its strict refinements in `parts`, in list order.

    Points are indexed by the sorted union of the partitions' points, so a
    partition is an int bitmask and refinement is a submask test.
    """
    index = {t: n for n, t in enumerate(sorted({t for p in parts for t in p.points}))}
    masks = [sum(1 << index[t] for t in p.points) for p in parts]
    return [[j for j, mj in enumerate(masks) if mi != mj and mi & mj == mi] for mi in masks]


def refinement_pairs(parts: Sequence[Partition]) -> list[tuple[Partition, Partition]]:
    """The pairs (coarse, fine) of distinct partitions in `parts` where fine refines coarse.

    Ordered lexicographically by list index, like the nested loop over both.
    """
    up = _up_sets(parts)
    return [(parts[i], parts[j]) for i, js in enumerate(up) for j in js]


def refinement_chains(parts: Sequence[Partition]
                      ) -> list[tuple[Partition, Partition, Partition]]:
    """The strict chains (i, j, k) of `parts`, ordered lexicographically by list index."""
    up = _up_sets(parts)
    return [(parts[i], parts[j], parts[k])
            for i, js in enumerate(up) for j in js for k in up[j]]


def inner_decompose(coarse: Partition, fine: Partition) -> list[Partition]:
    """Split a same-endpoint refinement into blocks along the cells of `coarse`.

    Block i collects the points of `fine` inside the i-th cell of `coarse`
    (cell endpoints included).  Merging the blocks at shared endpoints
    reproduces `fine`.
    """
    if coarse.endpoints != fine.endpoints:
        raise EndpointMismatchError(f"{coarse} and {fine} have different endpoints")
    if not is_refinement(coarse, fine):
        raise NotARefinementError(f"{fine} does not refine {coarse}")
    return [fine.restrict(a, b) for a, b in coarse.pairs()]


def outer_decompose(coarse: Partition, fine: Partition) -> OuterDecomposition:
    """Split a refinement whose endpoints may extend beyond those of `coarse`."""
    if not is_refinement(coarse, fine):
        raise NotARefinementError(f"{fine} does not refine {coarse}")
    lo, hi = coarse.endpoints
    below = [p for p in fine.points if p <= lo]
    above = [p for p in fine.points if p >= hi]
    return OuterDecomposition(
        lower=Partition(below) if len(below) >= 2 else None,
        middle=fine.restrict(lo, hi),
        upper=Partition(above) if len(above) >= 2 else None,
    )


def common_refinement(one: Partition, other: Partition) -> Partition:
    """The join in the refinement poset: sorted union of the point sets."""
    return Partition(sorted(set(one.points) | set(other.points)))
