"""Two-parameter systems over a finite grid.

A grid fixes the admissible time points.  A Hilbert system assigns a space
H(s,t) to every grid pair and an isometry H(r,t) -> H(r,s) (x) H(s,t) to every
triple; a tensorial system does the same with matrix algebras and
*-homomorphisms between vectorized elements.  Asking for data off the grid is
a hard error: the continuum family is not representable, and every identity
under test is a partition-wise statement fully visible on grids.

Built-in generators are deterministic constructions that satisfy
co-associativity exactly; random data is used only for elements and negative
tests (a random isometry family almost surely fails co-associativity).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import count
from typing import Callable, Iterable, Mapping

import numpy as np

from .algebra import (
    AlgebraElement,
    DEFAULT_DIM_CAP,
    FiniteCStarAlgebra,
    LinearFunctional,
    functional_tensor,
    tensor_algebra,
    tensor_element,
)
from .linalg import (
    DEFAULT_TOL,
    Superoperator,
    Tolerance,
    check_star_homomorphism,
    compose,
    identity_superop,
    is_isometry,
    max_abs,
    superop_from_conjugation,
    superop_tensor,
)
from .report import CheckRecord, Report
from .timegrid import Partition, TimeLike, as_timepoint

Pair = tuple[Fraction, Fraction]
Triple = tuple[Fraction, Fraction, Fraction]


class OffGridError(KeyError):
    """A time point or tuple outside the declared grid was requested."""


@dataclass(frozen=True)
class Grid:
    """The declared finite set of admissible time points."""

    points: tuple[Fraction, ...]

    def __init__(self, points: Iterable[TimeLike]):
        pts = tuple(as_timepoint(p) for p in points)
        if len(pts) < 2 or any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError(f"grid needs >= 2 strictly increasing points, got {pts}")
        object.__setattr__(self, "points", pts)

    def __contains__(self, t) -> bool:
        return t in self.points

    def __iter__(self):
        return iter(self.points)

    def require(self, *ts: Fraction):
        for t in ts:
            if t not in self.points:
                raise OffGridError(f"time point {t} is not on the grid {self.points}")

    def pairs(self) -> list[Pair]:
        pts = self.points
        return [(s, t) for i, s in enumerate(pts) for t in pts[i + 1:]]

    def cells(self, s: Fraction, t: Fraction) -> list[Pair]:
        """The consecutive grid pairs inside [s, t], in order."""
        pts = self.points
        return [(a, b) for a, b in zip(pts, pts[1:]) if s <= a and b <= t]

    def triples(self) -> list[Triple]:
        pts = self.points
        return [
            (r, s, t)
            for i, r in enumerate(pts)
            for j, s in enumerate(pts[i + 1:], i + 1)
            for t in pts[j + 1:]
        ]

    def quadruples(self) -> list[tuple[Fraction, ...]]:
        pts = self.points
        out = []
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                for k in range(j + 1, len(pts)):
                    for m in range(k + 1, len(pts)):
                        out.append((pts[i], pts[j], pts[k], pts[m]))
        return out


@dataclass
class HilbertSystem:
    """Spaces per grid pair and co-associative isometries per grid triple."""

    grid: Grid
    dims: Mapping[Pair, int]
    isometries: Mapping[Triple, np.ndarray]
    _cache: dict = field(default_factory=dict, repr=False)

    def dim(self, s, t) -> int:
        self.grid.require(s, t)
        return self.dims[(s, t)]

    def u(self, r, s, t) -> np.ndarray:
        self.grid.require(r, s, t)
        return self.isometries[(r, s, t)]


@dataclass
class TensorialSystem:
    """Algebras per grid pair and comultiplication maps per grid triple."""

    grid: Grid
    algebras: Mapping[Pair, FiniteCStarAlgebra]
    deltas: Mapping[Triple, Superoperator]
    dim_cap: int = DEFAULT_DIM_CAP
    kind: str = "custom"
    payload: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    def alg(self, s, t) -> FiniteCStarAlgebra:
        self.grid.require(s, t)
        return self.algebras[(s, t)]

    def delta(self, r, s, t) -> Superoperator:
        self.grid.require(r, s, t)
        return self.deltas[(r, s, t)]


_unit_serial = count()


@dataclass
class UnitFamily:
    """Non-zero projections p(s,t) with delta(p(r,t)) = p(r,s) (x) p(s,t)."""

    elements: Mapping[Pair, AlgebraElement]
    cache_token: int = field(default_factory=lambda: next(_unit_serial), compare=False)

    def p(self, s, t) -> AlgebraElement:
        return self.elements[(s, t)]


@dataclass
class FunctionalFamily:
    """Functionals phi(s,t); a co-unit when all of them are states."""

    functionals: Mapping[Pair, LinearFunctional]

    def phi(self, s, t) -> LinearFunctional:
        return self.functionals[(s, t)]

    def is_counit(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return all(f.is_state(tol) for f in self.functionals.values())


@dataclass
class MorphismFamily:
    """Maps theta(s,t) between the pair algebras of two systems."""

    maps: Mapping[Pair, Superoperator]

    def theta(self, s, t) -> Superoperator:
        return self.maps[(s, t)]


# -- axiom checks -------------------------------------------------------------

LAW_COASSOCIATIVITY = "(id (x) D[s,t,u]) D[r,s,u] = (D[r,s,t] (x) id) D[r,t,u]"
LAW_HOMOMORPHISM = "each D[r,s,t] is a *-homomorphism A(r,t) -> A(r,s) (x) A(s,t)"
LAW_UNIT = "D[r,s,t](p(r,t)) = p(r,s) (x) p(s,t)"
LAW_COMULT_FAMILY = "phi(r,t) = (phi(r,s) (x) phi(s,t)) o D[r,s,t]"
LAW_MORPHISM = "G[r,s,t] theta(r,t) = (theta(r,s) (x) theta(s,t)) D[r,s,t]"
LAW_HS_COASSOCIATIVITY = "(1 (x) U[s,t,v]) U[r,s,v] = (U[r,s,t] (x) 1) U[r,t,v]"


def coassociativity_residual(sys: TensorialSystem, r, s, t, u) -> float:
    left = compose(
        superop_tensor(identity_superop(sys.alg(r, s).blocks), sys.delta(s, t, u)),
        sys.delta(r, s, u),
    )
    right = compose(
        superop_tensor(sys.delta(r, s, t), identity_superop(sys.alg(t, u).blocks)),
        sys.delta(r, t, u),
    )
    return max_abs(left.matrix - right.matrix)


def check_system_axioms(sys: TensorialSystem, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Homomorphism/mono/iso per triple, co-associativity per 4-tuple, classification."""
    report = Report()
    all_mono, all_iso, all_hom = True, True, True
    for (r, s, t) in sys.grid.triples():
        d = sys.delta(r, s, t)
        expected_cod = tensor_algebra(sys.alg(r, s), sys.alg(s, t)).blocks
        if d.dom != sys.alg(r, t).blocks or d.cod != expected_cod:
            raise ValueError(
                f"delta({r},{s},{t}) has blocks {d.dom}->{d.cod}, "
                f"expected {sys.alg(r, t).blocks}->{expected_cod}"
            )
        hom = check_star_homomorphism(d, tol=tol)
        all_hom &= hom.is_homomorphism
        all_mono &= hom.is_monomorphism
        all_iso &= hom.is_isomorphism
        report.add(CheckRecord(
            check="comultiplication_is_star_homomorphism",
            law=LAW_HOMOMORPHISM,
            params={"r": r, "s": s, "t": t},
            passed=hom.is_monomorphism,
            residual=max(hom.multiplicativity_residual, hom.adjoint_residual),
            detail=hom.classification,
        ))
    for (r, s, t, u) in sys.grid.quadruples():
        res = coassociativity_residual(sys, r, s, t, u)
        report.residual_record(
            "comultiplication_coassociativity", LAW_COASSOCIATIVITY,
            {"r": r, "s": s, "t": t, "u": u}, res, tol.eps,
        )
    if not all_hom:
        classification = "invalid"
    elif all_iso:
        classification = "product"
    elif all_mono:
        classification = "subproduct"
    else:
        classification = "tensorial"
    report.add(CheckRecord(
        check="system_classification",
        law="subproduct iff all maps are *-monomorphisms; product iff *-isomorphisms",
        params={},
        passed=classification != "invalid" and report.passed,
        detail=classification,
    ))
    return report


def classify_system(sys: TensorialSystem, tol: Tolerance = DEFAULT_TOL) -> str:
    return check_system_axioms(sys, tol).records[-1].detail


def check_hilbert_axioms(hs: HilbertSystem, tol: Tolerance = DEFAULT_TOL) -> Report:
    report = Report()
    for (r, s, t) in hs.grid.triples():
        u = hs.u(r, s, t)
        ok = is_isometry(u, tol) and u.shape == (hs.dim(r, s) * hs.dim(s, t), hs.dim(r, t))
        gram_res = max_abs(u.conj().T @ u - np.eye(u.shape[1]))
        report.add(CheckRecord(
            check="interval_isometry", law="U[r,s,t]* U[r,s,t] = 1",
            params={"r": r, "s": s, "t": t}, passed=ok, residual=gram_res,
        ))
    for (r, s, t, v) in hs.grid.quadruples():
        left = np.kron(np.eye(hs.dim(r, s)), hs.u(s, t, v)) @ hs.u(r, s, v)
        right = np.kron(hs.u(r, s, t), np.eye(hs.dim(t, v))) @ hs.u(r, t, v)
        report.residual_record(
            "isometry_coassociativity", LAW_HS_COASSOCIATIVITY,
            {"r": r, "s": s, "t": t, "v": v}, max_abs(left - right), tol.eps,
        )
    return report


def check_unit(sys: TensorialSystem, unit: UnitFamily, tol: Tolerance = DEFAULT_TOL) -> Report:
    report = Report()
    for (s, t) in sys.grid.pairs():
        p = unit.p(s, t)
        report.add(CheckRecord(
            check="unit_is_projection", law="p(s,t)* = p(s,t) = p(s,t)^2 != 0",
            params={"s": s, "t": t},
            passed=p.is_projection(tol) and not p.is_zero(tol),
        ))
    for (r, s, t) in sys.grid.triples():
        lhs = sys.delta(r, s, t).apply(unit.p(r, t).vec())
        rhs = tensor_element(unit.p(r, s), unit.p(s, t)).vec()
        report.residual_record(
            "unit_comultiplicativity", LAW_UNIT,
            {"r": r, "s": s, "t": t}, max_abs(lhs - rhs), tol.eps,
        )
    return report


def check_comultiplicative(sys: TensorialSystem, fam: FunctionalFamily,
                           tol: Tolerance = DEFAULT_TOL) -> Report:
    report = Report()
    for (r, s, t) in sys.grid.triples():
        pair = functional_tensor(fam.phi(r, s), fam.phi(s, t))
        res = max_abs(pair.row() @ sys.delta(r, s, t).matrix - fam.phi(r, t).row())
        report.residual_record(
            "functional_comultiplicativity", LAW_COMULT_FAMILY,
            {"r": r, "s": s, "t": t}, res, tol.eps,
        )
    report.add(CheckRecord(
        check="family_is_counit", law="a co-unit is a co-multiplicative family of states",
        params={}, passed=True, detail="counit" if fam.is_counit(tol) else "not all states",
    ))
    return report


def check_morphism(sys_a: TensorialSystem, sys_b: TensorialSystem, theta: MorphismFamily,
                   tol: Tolerance = DEFAULT_TOL) -> Report:
    report = Report()
    for (r, s, t) in sys_a.grid.triples():
        lhs = compose(sys_b.delta(r, s, t), theta.theta(r, t))
        rhs = compose(superop_tensor(theta.theta(r, s), theta.theta(s, t)), sys_a.delta(r, s, t))
        report.residual_record(
            "morphism_intertwining", LAW_MORPHISM,
            {"r": r, "s": s, "t": t}, max_abs(lhs.matrix - rhs.matrix), tol.eps,
        )
    return report


# -- built-in generators ------------------------------------------------------

def tensorial_from_hilbert(hs: HilbertSystem, kind: str = "custom",
                           payload: dict | None = None,
                           dim_cap: int = DEFAULT_DIM_CAP) -> TensorialSystem:
    """B(H(s,t)) with conjugation by the system isometries."""
    algebras = {pair: FiniteCStarAlgebra([hs.dims[pair]]) for pair in hs.dims}
    deltas = {
        (r, s, t): superop_from_conjugation(
            u, dom=(hs.dims[(r, t)],), cod=(hs.dims[(r, s)] * hs.dims[(s, t)],)
        )
        for (r, s, t), u in hs.isometries.items()
    }
    return TensorialSystem(hs.grid, algebras, deltas, dim_cap=dim_cap,
                           kind=kind, payload=payload or {})


def diagonal_isometry(d: int) -> np.ndarray:
    """e_i -> e_i (x) e_i, a (d^2 x d) isometry."""
    u = np.zeros((d * d, d), dtype=complex)
    for i in range(d):
        u[i * d + i, i] = 1.0
    return u


def diagonal_system(grid: Grid, d: int,
                    dim_cap: int = DEFAULT_DIM_CAP) -> tuple[HilbertSystem, TensorialSystem]:
    """All spaces C^d, the group-like isometry on every triple.

    A subproduct system for every d; a product system exactly when d = 1.
    Its unit, co-unit and GNS structure are computable in closed form, which
    makes it the reference example throughout the test-suite.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    u = diagonal_isometry(d)
    dims = {pair: d for pair in grid.pairs()}
    isometries = {triple: u for triple in grid.triples()}
    hs = HilbertSystem(grid, dims, isometries)
    return hs, tensorial_from_hilbert(hs, kind="diagonal", payload={"d": d}, dim_cap=dim_cap)


def glue_hilbert_system(grid: Grid, cell_dims: Iterable[int],
                        dim_cap: int = DEFAULT_DIM_CAP) -> tuple[HilbertSystem, TensorialSystem]:
    """H(s,t) = tensor of the cell spaces inside (s,t]; re-bracketing isometries.

    Since the Kronecker layout is associative, every re-bracketing is the
    identity matrix, so all maps are unitary conjugations: a product system.
    """
    consecutive = [(a, b) for a, b in zip(grid.points, grid.points[1:])]
    dims_list = [int(d) for d in cell_dims]
    if len(dims_list) != len(consecutive):
        raise ValueError(f"need one dim per grid cell ({len(consecutive)}), got {len(dims_list)}")
    if any(d < 1 for d in dims_list):
        raise ValueError("cell dims must be >= 1")
    cell_dim = dict(zip(consecutive, dims_list))
    dims = {(s, t): math.prod(cell_dim[c] for c in grid.cells(s, t))
            for (s, t) in grid.pairs()}
    isometries = {
        (r, s, t): np.eye(dims[(r, t)], dtype=complex) for (r, s, t) in grid.triples()
    }
    hs = HilbertSystem(grid, dims, isometries)
    ts = tensorial_from_hilbert(hs, kind="glue_hilbert",
                                payload={"cell_dims": dims_list}, dim_cap=dim_cap)
    return hs, ts


def glue_cell_state(sys: TensorialSystem, cell_dims: list[int]) -> FunctionalFamily:
    """Faithful product state per pair: each cell carries diag(1..d)/sum."""
    grid = sys.grid
    cells = list(zip(grid.points, grid.points[1:]))
    cell_density = {}
    for (a, b), d in zip(cells, cell_dims):
        w = np.arange(1, d + 1, dtype=float)
        cell_density[(a, b)] = np.diag(w / w.sum())
    functionals = {}
    for (s, t) in grid.pairs():
        rho = reduce(np.kron, [cell_density[cell] for cell in grid.cells(s, t)])
        functionals[(s, t)] = LinearFunctional(sys.alg(s, t), [rho])
    return FunctionalFamily(functionals)


def trivial_from_bialgebra(grid: Grid, alg: FiniteCStarAlgebra, delta: Superoperator,
                           tol: Tolerance = DEFAULT_TOL,
                           dim_cap: int = DEFAULT_DIM_CAP) -> TensorialSystem:
    """The same algebra on every pair and the same comultiplication on every triple."""
    expected_cod = tensor_algebra(alg, alg).blocks
    if delta.dom != alg.blocks or delta.cod != expected_cod:
        raise ValueError(
            f"comultiplication blocks {delta.dom}->{delta.cod} do not match "
            f"{alg.blocks}->{expected_cod}"
        )
    hom = check_star_homomorphism(delta, tol=tol)
    if not hom.is_homomorphism:
        raise ValueError(
            "comultiplication is not a *-homomorphism "
            f"(multiplicativity residual {hom.multiplicativity_residual:.3g})"
        )
    algebras = {pair: alg for pair in grid.pairs()}
    deltas = {triple: delta for triple in grid.triples()}
    return TensorialSystem(grid, algebras, deltas, dim_cap=dim_cap,
                           kind="trivial_bialgebra",
                           payload={"blocks": list(alg.blocks)})


def from_one_parameter(grid: Grid, z: Mapping[Fraction, FiniteCStarAlgebra],
                       xi: Mapping[tuple[Fraction, Fraction], Superoperator],
                       dim_cap: int = DEFAULT_DIM_CAP) -> TensorialSystem:
    """Duration-indexed data reshaped onto the grid: A(s,t) = Z(t-s), D[r,s,t] = Xi(s-r, t-s)."""
    algebras = {}
    for (s, t) in grid.pairs():
        if t - s not in z:
            raise ValueError(f"no algebra declared for duration {t - s}")
        algebras[(s, t)] = z[t - s]
    deltas = {}
    for (r, s, t) in grid.triples():
        key = (s - r, t - s)
        if key not in xi:
            raise ValueError(f"no map declared for duration pair {key}")
        deltas[(r, s, t)] = xi[key]
    return TensorialSystem(grid, algebras, deltas, dim_cap=dim_cap, kind="one_parameter")


def group_z2_bialgebra() -> tuple[FiniteCStarAlgebra, Superoperator]:
    """Functions on Z_2 with the convolution coproduct f -> ((x,y) -> f(x+y))."""
    alg = FiniteCStarAlgebra([1, 1])
    mat = np.zeros((4, 2), dtype=complex)
    for x in range(2):
        for y in range(2):
            mat[x * 2 + y, (x + y) % 2] = 1.0
    return alg, Superoperator(mat, (1, 1), (1, 1, 1, 1))


def enumerate_partitions(grid: Grid, s: Fraction, t: Fraction,
                         max_interior: int) -> list[Partition]:
    """All partitions of [s,t] from the grid with at most max_interior interior points.

    Deterministic order: by number of points, then lexicographically.
    """
    from itertools import combinations

    grid.require(s, t)
    if not s < t:
        raise ValueError(f"need s < t, got {s}, {t}")
    inner = [p for p in grid.points if s < p < t]
    out = []
    for k in range(0, min(max_interior, len(inner)) + 1):
        for combo in combinations(inner, k):
            out.append(Partition(sorted((s, t) + combo)))
    out.sort(key=lambda p: (len(p.points), p.points))
    return out


def enumerate_all_partitions(grid: Grid, max_points: int) -> list[Partition]:
    """All partitions drawn from the grid with 2..max_points points, any endpoints."""
    from itertools import combinations

    out = []
    for k in range(2, min(max_points, len(grid.points)) + 1):
        for combo in combinations(grid.points, k):
            out.append(Partition(combo))
    out.sort(key=lambda p: (len(p.points), p.points))
    return out


def standard_unit(sys: TensorialSystem) -> UnitFamily:
    """The rank-one projection at the first basis vector of the first block, per pair."""
    elements = {}
    for pair, alg in sys.algebras.items():
        elements[pair] = alg.matrix_unit(0, 0, 0)
    return UnitFamily(elements)


def trivial_unit(sys: TensorialSystem) -> UnitFamily:
    """The identity of each pair algebra (co-multiplicative for unital maps)."""
    return UnitFamily({pair: alg.one() for pair, alg in sys.algebras.items()})


def constant_functional_family(sys: TensorialSystem,
                               make: Callable[[FiniteCStarAlgebra], LinearFunctional]
                               ) -> FunctionalFamily:
    return FunctionalFamily({pair: make(alg) for pair, alg in sys.algebras.items()})
