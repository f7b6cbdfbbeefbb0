"""Two-parameter multiplicative systems of finite sets with exact measures.

The fully computable commutative model: finite spaces X(s,t), associative
gluing maps chi[r,s,t]: X(r,s) x X(s,t) -> X(r,t), and probability measures
with exact rational weights.  Function algebras (all blocks of size one)
bridge this to the matrix machinery: pulling functions back along chi is a
0/1 superoperator, so every duality comparison is exact, and any reported
measure discrepancy is a true counterexample.

Point encoding: X_I for a partition I is the cartesian product of the cell
spaces in order, indexed in row-major mixed radix (first cell most
significant).  This matches the vec layout of the tensor function algebras,
which is what makes the duality checks entrywise comparisons.

The partition point maps are built here from the gluing tables, and nothing
here comes from ``partition_calculus``: by Gelfand duality their pullbacks
must be the connecting maps built there, and the commutative suite checks
this entry by entry, so the two constructions test each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping

import numpy as np

from .algebra import DEFAULT_DIM_CAP, FiniteCStarAlgebra, LinearFunctional
from .linalg import DEFAULT_TOL, Superoperator
from .report import CheckRecord, Report
from .systems import (
    FunctionalFamily,
    Grid,
    TensorialSystem,
    UnitFamily,
    check_comultiplicative,
    check_triple_dims,
)
from .timegrid import NotARefinementError, Partition, is_refinement

Pair = tuple[Fraction, Fraction]
Triple = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class FiniteSpace:
    size: int

    def __post_init__(self):
        if isinstance(self.size, bool) or not isinstance(self.size, (int, np.integer)):
            raise ValueError(f"a space size must be an integer, got {self.size!r}")
        if self.size < 1:
            raise ValueError("spaces must be non-empty")


@dataclass(frozen=True)
class MultMap:
    """chi: X x Y -> Z as an integer table of shape (|X|, |Y|) with values in Z."""

    table: np.ndarray
    out_size: int

    def __post_init__(self):
        t = np.asarray(self.table)
        if t.ndim != 2:
            raise ValueError("gluing tables are binary")
        if t.size and t.dtype.kind not in "iu":
            raise ValueError(f"table values must be integers, got {t.dtype} entries")
        if t.size and (t.min() < 0 or t.max() >= self.out_size):
            raise ValueError(f"table values must lie in range({self.out_size})")
        object.__setattr__(self, "table", t.astype(np.intp, copy=False))

    def __call__(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def surjective(self) -> bool:
        return len(np.unique(self.table)) == self.out_size

    def bijective(self) -> bool:
        return self.table.size == self.out_size and self.surjective()


@dataclass
class FiniteMultSystem:
    """Spaces X(s,t) and gluing maps chi[r,s,t]; each gluing table must have shape
    (|X(r,s)|, |X(s,t)|) and values in X(r,t), or construction raises ValueError."""

    grid: Grid
    spaces: Mapping[Pair, FiniteSpace]
    chi: Mapping[Triple, MultMap]

    def __post_init__(self):
        for (r, s, t), m in self.chi.items():
            want = (self.spaces[(r, s)].size, self.spaces[(s, t)].size), self.spaces[(r, t)].size
            if (m.table.shape, m.out_size) != want:
                raise ValueError(f"the gluing table at ({r},{s},{t}) has shape {m.table.shape} "
                                 f"into {m.out_size} points, expected {want[0]} into {want[1]}")

    def space(self, s, t) -> FiniteSpace:
        self.grid.require(s, t)
        return self.spaces[(s, t)]

    def glue(self, r, s, t) -> MultMap:
        self.grid.require(r, s, t)
        return self.chi[(r, s, t)]


Measure = tuple[Fraction, ...]


def as_measure(weights: Iterable) -> Measure:
    w = tuple(Fraction(x) for x in weights)
    if any(x < 0 for x in w):
        raise ValueError("measures must be nonnegative")
    if sum(w) != 1:
        raise ValueError(f"measures must sum to 1 exactly, got {sum(w)}")
    return w


# -- checks ---------------------------------------------------------------------

def check_mult_system(sys: FiniteMultSystem) -> Report:
    """Exhaustive associativity and surjectivity; classification by bijectivity."""
    report = Report()
    all_surj, all_bij = True, True
    for (r, s, t) in sys.grid.triples():
        m = sys.glue(r, s, t)
        surj = m.surjective()
        all_surj &= surj
        all_bij &= m.bijective()
        report.add(CheckRecord(
            check="gluing_surjective",
            law="chi[r,s,t] onto X(r,t) (function-algebra map injective iff onto)",
            params={"r": r, "s": s, "t": t}, passed=surj,
            detail="bijective" if m.bijective() else ("surjective" if surj else "not onto"),
        ))
    for (r, s, t, u) in sys.grid.quadruples():
        # entry (a, b, c): chi[r,t,u](chi[r,s,t](a, b), c) and chi[r,s,u](a, chi[s,t,u](b, c))
        left = sys.glue(r, t, u).table[sys.glue(r, s, t).table]
        right = sys.glue(r, s, u).table[:, sys.glue(s, t, u).table]
        bad = np.count_nonzero(left != right)
        report.add(CheckRecord(
            check="gluing_associative",
            law="chi[r,t,u](chi[r,s,t] x id) = chi[r,s,u](id x chi[s,t,u])",
            params={"r": r, "s": s, "t": t, "u": u}, passed=bad == 0,
            exact_discrepancy=str(bad),
        ))
    classification = "product" if all_bij else ("subproduct" if all_surj else "tensorial")
    report.add(CheckRecord(
        check="mult_system_classification",
        law="bijective gluing <-> product system; surjective <-> subproduct",
        params={}, passed=report.passed, detail=classification,
    ))
    return report


# -- built-in generators ----------------------------------------------------------

def glue_system(grid: Grid, base: FiniteSpace,
                dim_cap: int = DEFAULT_DIM_CAP) -> FiniteMultSystem:
    """X(s,t) = base^(cells in (s,t]); gluing = concatenation of words.

    With the row-major point encoding, concatenation is (a, b) -> a * |Y| + b.
    The gluing tables are as large as the function algebras' dimensions, so
    they are built only within ``dim_cap``.
    """
    sizes = {(s, t): base.size ** len(grid.cells(s, t)) for (s, t) in grid.pairs()}
    check_triple_dims(grid, sizes, dim_cap)
    spaces = {pair: FiniteSpace(sizes[pair]) for pair in sizes}
    chi = {}
    for (r, s, t) in grid.triples():
        na, nb = sizes[(r, s)], sizes[(s, t)]
        table = np.arange(na * nb, dtype=np.intp).reshape(na, nb)
        chi[(r, s, t)] = MultMap(table, na * nb)
    return FiniteMultSystem(grid, spaces, chi)


def modular_addition_system(grid: Grid, modulus: int = 2) -> FiniteMultSystem:
    """X = Z_n everywhere with chi(a, b) = a + b mod n: surjective, not injective."""
    spaces = {pair: FiniteSpace(modulus) for pair in grid.pairs()}
    table = np.add.outer(np.arange(modulus), np.arange(modulus)) % modulus
    chi = {triple: MultMap(table, modulus) for triple in grid.triples()}
    return FiniteMultSystem(grid, spaces, chi)


# -- Gelfand bridge ----------------------------------------------------------------

def to_cstar(sys: FiniteMultSystem, dim_cap: int = DEFAULT_DIM_CAP) -> TensorialSystem:
    """Function algebras with pullback comultiplications (f -> f o chi).

    The identification C(X x Y) = C(X) (x) C(Y) uses the same row-major pair
    order as the tensor algebra, so the superoperators are exact 0/1 matrices.
    """
    check_triple_dims(sys.grid, {pair: sp.size for pair, sp in sys.spaces.items()}, dim_cap)
    algebras = {
        pair: FiniteCStarAlgebra([1] * sp.size) for pair, sp in sys.spaces.items()
    }
    deltas = {triple: superop_from_point_map(m.table.reshape(-1), m.out_size)
              for triple, m in sys.chi.items()}
    return TensorialSystem(sys.grid, algebras, deltas, dim_cap=dim_cap)


def functional_from_measure(alg: FiniteCStarAlgebra, mu: Measure) -> LinearFunctional:
    if len(mu) != len(alg.blocks) or alg.blocks != (1,) * len(mu):
        raise ValueError("measure size must match a commutative algebra")
    return LinearFunctional.of_density(alg.from_vec(np.array([float(w) for w in mu])))


def measure_family_functionals(cstar: TensorialSystem,
                               mu: Mapping[Pair, Measure]) -> FunctionalFamily:
    return FunctionalFamily({
        pair: functional_from_measure(cstar.algebras[pair], as_measure(mu[pair]))
        for pair in cstar.algebras
    })


def indicator_unit(cstar: TensorialSystem, point: int = 0) -> UnitFamily:
    """The indicator of one compatible point orbit (works for glue-type systems)."""
    return UnitFamily({pair: alg.matrix_unit(point, 0, 0)
                       for pair, alg in cstar.algebras.items()})


# -- measures ----------------------------------------------------------------------

def measure_product(mu_left: Measure, mu_right: Measure) -> Measure:
    """The exact product measure on X x Y, in the row-major point order."""
    return tuple(x * y for x in mu_left for y in mu_right)


def measure_discrepancy(expected: Measure, actual: Measure) -> Fraction:
    return max((abs(x - y) for x, y in zip(expected, actual)), default=Fraction(0))


def check_measure_family(sys: FiniteMultSystem, mu: Mapping[Pair, Measure],
                         tol: float = DEFAULT_TOL) -> Report:
    """Exact multiplication law per triple plus the residual check on the function algebras.

    The two routes agree by construction (0/1 superoperators), so a float
    residual beyond rounding would flag an encoding bug, while a rational
    discrepancy is a genuine counterexample to the measure law.
    """
    report = Report()
    measures = {pair: as_measure(mu[pair]) for pair in mu}
    for (r, s, t) in sys.grid.triples():
        m = sys.glue(r, s, t)
        pf = pushforward_point_map(m.table.reshape(-1),
                                   measure_product(measures[(r, s)], measures[(s, t)]),
                                   m.out_size)
        disc = measure_discrepancy(measures[(r, t)], pf)
        report.add(CheckRecord(
            check="measure_multiplication_law",
            law="mu(r,t) = pushforward of mu(r,s) x mu(s,t) along chi[r,s,t]",
            params={"r": r, "s": s, "t": t}, passed=disc == 0,
            exact_discrepancy=str(disc),
        ))
    cstar = to_cstar(sys)
    fam = measure_family_functionals(cstar, measures)
    bridge = check_comultiplicative(cstar, fam, tol)
    agree = bridge.passed == report.passed
    report.extend(bridge)
    report.add(CheckRecord(
        check="measure_functional_bridge_agreement",
        law="the exact measure law holds iff the induced state family is co-multiplicative",
        params={}, passed=agree,
    ))
    return report


def measure_on_partition(mu: Mapping[Pair, Measure], partition: Partition) -> Measure:
    """Product measure over the cells, row-major."""
    return reduce(measure_product, (as_measure(mu[pair]) for pair in partition.pairs()),
                  (Fraction(1),))


def pushforward_point_map(point_map: np.ndarray, mu: Measure, out_size: int) -> Measure:
    """Exact pushforward of a measure along a unary point map."""
    if len(mu) != point_map.size:
        raise ValueError(f"measure has {len(mu)} weights, map has {point_map.size} points")
    out = [Fraction(0)] * out_size
    for j, w in enumerate(mu):
        out[int(point_map[j])] += w
    return tuple(out)


def measure_projectivity_discrepancy(point_map: np.ndarray, mu_fine: Measure,
                                     mu_coarse: Measure) -> Fraction:
    """Exact gap in mu_I = pushforward of mu_J along the partition point map.

    ``point_map`` is ``chi_cross`` of the refinement I <= J, and the measures
    are ``measure_on_partition`` of J and I.  The map may be padded, between
    partitions with different endpoints, where projectivity needs no
    normalization hypothesis: marginalizing the outer coordinates is automatic
    for probability measures.
    """
    pushed = pushforward_point_map(point_map, mu_fine, len(mu_coarse))
    return measure_discrepancy(mu_coarse, pushed)


# -- partition-level point maps ------------------------------------------------------

def space_on_partition(sys: FiniteMultSystem, partition: Partition) -> int:
    """|X_I|: the product of the cell sizes."""
    return math.prod(sys.space(a, b).size for a, b in partition.pairs())


def chi_cross(sys: FiniteMultSystem, coarse: Partition, fine: Partition) -> np.ndarray:
    """The point map X_J -> X_I of a refinement I <= J, as the table of its values.

    Each point of X_J is read as its coordinates on the cells of J (mixed
    radix).  The coordinates on the cells outside [min I, max I] are dropped,
    and the cells of J inside each cell [a, b] of I are glued from left to
    right: x -> chi[a, c, d](x, y) for each next cell [c, d].  The glued
    coordinates, one per cell of I, give the point of X_I.  Its pullback is
    the algebra map padded with the all-ones unit; the map is computed here
    from the gluing tables alone, so the duality check compares two separate
    constructions.
    """
    if not is_refinement(coarse, fine):
        raise NotARefinementError(f"{fine} does not refine {coarse}")
    cells = fine.pairs()
    coords = np.indices([sys.space(a, b).size for a, b in cells]).reshape(len(cells), -1)
    lo, hi = coarse.endpoints
    inside = {a: (b, x) for (a, b), x in zip(cells, coords) if lo <= a and b <= hi}
    glued = []
    for a, b in coarse.pairs():
        c, x = inside[a]
        while c != b:
            d, y = inside[c]
            x, c = sys.glue(a, c, d).table[x, y], d
        glued.append(x)
    return np.ravel_multi_index(glued, [sys.space(a, b).size for a, b in coarse.pairs()])


def superop_from_point_map(point_map: np.ndarray, dom_size: int) -> Superoperator:
    """The pullback f -> f o chi on function algebras, as a 0/1 superoperator."""
    mat = np.zeros((point_map.size, dom_size), dtype=complex)
    mat[np.arange(point_map.size), point_map] = 1.0
    return Superoperator(mat, (1,) * dom_size, (1,) * point_map.size)


# -- point germs and splitting ---------------------------------------------------------

def point_split(sys: FiniteMultSystem, partition: Partition, x: int,
                s: Fraction) -> tuple[tuple[Partition, int], tuple[Partition, int]]:
    """Split the coordinate tuple of a point of X_I at an interior point s of I."""
    lo, hi = partition.endpoints
    if s not in partition.points or not (lo < s < hi):
        raise ValueError(f"cut {s} must be an interior point of {partition}")
    left = partition.restrict(lo, s)
    right = partition.restrict(s, hi)
    n_right = space_on_partition(sys, right)
    xl, xr = divmod(int(x), n_right)
    return (left, xl), (right, xr)


def point_merge(sys: FiniteMultSystem, left: tuple[Partition, int],
                right: tuple[Partition, int]) -> tuple[Partition, int]:
    """Concatenate coordinate tuples sharing one cut point (inverse of point_split)."""
    (pl, xl), (pr, xr) = left, right
    if pl.points[-1] != pr.points[0]:
        raise ValueError("partitions must share exactly the cut point")
    joined = Partition(sorted(set(pl.points) | set(pr.points)))
    return joined, xl * space_on_partition(sys, pr) + xr


def split_marginals(sys: FiniteMultSystem, joint: Measure, partition: Partition,
                    s: Fraction) -> tuple[Measure, Measure]:
    """Marginals of a joint measure on X_K onto the two coordinate halves at s."""
    lo, hi = partition.endpoints
    left = partition.restrict(lo, s)
    right = partition.restrict(s, hi)
    n_left = space_on_partition(sys, left)
    n_right = space_on_partition(sys, right)
    if len(joint) != n_left * n_right:
        raise ValueError(f"joint measure has {len(joint)} weights, X_K has {n_left * n_right}")
    mu_l = tuple(sum(joint[i * n_right + j] for j in range(n_right)) for i in range(n_left))
    mu_r = tuple(sum(joint[i * n_right + j] for i in range(n_left)) for j in range(n_right))
    return mu_l, mu_r


def split_measure_idempotence(sys: FiniteMultSystem, joint: Measure,
                              partition: Partition, s: Fraction) -> Fraction:
    """Exact discrepancy between a joint measure on X_K and the glued product of its marginals.

    Zero iff the measure factorizes at the cut; the product measure of a
    multiplicative family always does, while correlated joints do not.
    """
    mu_l, mu_r = split_marginals(sys, joint, partition, s)
    return measure_discrepancy(as_measure(joint), measure_product(mu_l, mu_r))
