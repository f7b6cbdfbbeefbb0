"""Partition-indexed calculus: interval algebras, refinement maps, germs.

For a partition I = {i_0 < ... < i_{m+1}} of [s,t], the interval algebra A_I
is the ordered tensor product of the pair algebras over consecutive points.
The interval-to-partition map A(s,t) -> A_I is built recursively by splitting
off the last cell; refinement maps A_I -> A_J tensor these over the cells of
I, and unit-padded maps A_I -> A_J additionally pad the stretches of J below
min I and above max I with unit projections.  This module is the one place
that builds these maps, for algebra systems and, through
``HilbertSystem.vectors``, for Hilbert systems.  The commutative model
computes its point maps on its own (``commutative.chi_cross``), so their
pullback duality checks this recursion rather than repeating it.

Inductive limits are represented at finite level by germs: pairs (partition,
element), identified when pushing both representatives to a common refinement
makes them equal.  Both limits of the paper use this one calculus: the
dilation (germs over one fixed interval) and the system algebra (germs over
all grid partitions, padded with a unit).  Passing a unit family decides
between them: without one, a representative that needs padding raises
``EndpointMismatchError``.  Splitting at a time (``comultiplication``) and
embedding into a larger interval are explicit re-indexing plus residual checks.

Equality of germs is decided at the single common refinement I u J; agreement
at every finer partition follows from the cocycle law, which is itself under
test.  Per-system caches keyed by partitions keep repeated map construction
cheap; systems are otherwise immutable.  Cached maps, elements and
functionals are shared as they are: a ``Superoperator`` holds only read-only
arrays, and an element (a functional's density too) is one read-only vec.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional

import numpy as np

from .algebra import (
    AlgebraElement,
    DimensionCapError,
    FiniteCStarAlgebra,
    LinearFunctional,
    functional_tensor,
    tensor_algebra,
    tensor_element,
)
from .linalg import (
    Superoperator,
    compose,
    composite_residual,
    identity_superop,
    max_abs,
    superop_tensor,
    superop_tensor_all,
    superop_tensor_const,
)
from .systems import FunctionalFamily, MorphismFamily, TensorialSystem, UnitFamily
from .timegrid import (
    EndpointMismatchError,
    Partition,
    common_refinement,
    inner_decompose,
    outer_decompose,
)


def partition_algebra(sys: TensorialSystem, partition: Partition) -> FiniteCStarAlgebra:
    """The ordered tensor product of the pair algebras over the cells of the partition."""
    sys.grid.require(*partition.points)
    key = ("alg", partition)
    if key not in sys._cache:
        alg = reduce(tensor_algebra, (sys.alg(a, b) for a, b in partition.pairs()))
        if alg.dim > sys.dim_cap:
            raise DimensionCapError(
                f"partition {partition} needs vectorized dimension {alg.dim} "
                f"> cap {sys.dim_cap}"
            )
        sys._cache[key] = alg
    return sys._cache[key]


def delta_interval_to_partition(sys: TensorialSystem, partition: Partition) -> Superoperator:
    """The map A(s,t) -> A_I, splitting off the last cell recursively.

    The two-point case is the identity (forced by the refinement-map
    convention D[I,I] = id and required for uniform code paths); three points
    give the comultiplication itself.  Beyond that the map is
    (map of the head (x) id) after D[s, second to last point, t].  When every
    comultiplication is a conjugation Ad(U), as on B(H(s,t)), ``compose``
    keeps the map one conjugation Ad(V), V the Hilbert map of the partition.
    """
    key = ("interval", partition)
    if key in sys._cache:
        return sys._cache[key]
    partition_algebra(sys, partition)
    pts = partition.points
    if len(pts) == 2:
        out = identity_superop(sys.alg(*pts).blocks)
    elif len(pts) == 3:
        out = sys.delta(*pts)
    else:
        head = delta_interval_to_partition(sys, Partition(pts[:-1]))
        out = compose(superop_tensor(head, identity_superop(sys.alg(*pts[-2:]).blocks)),
                      sys.delta(pts[0], pts[-2], pts[-1]))
    sys._cache[key] = out
    return out


def interval_map_left_nested(sys: TensorialSystem, partition: Partition) -> list[Superoperator]:
    """Oracle: the chain (D[i0,i1,i2] (x) id...), ..., D[i0,im,i(m+1)], outermost map first.

    Splits the last cell off first and keeps expanding the leading factor;
    written independently of the recursive builder.  Its composite is never
    formed here: each link is a triple map tensored with identities, and
    ``composite_residual`` takes the chain as it is.  Two points give the
    identity, one link.
    """
    sys.grid.require(*partition.points)
    pts = partition.points
    if len(pts) == 2:
        return [identity_superop(sys.alg(*pts).blocks)]
    chain = []
    for k in range(1, len(pts) - 1):
        step = sys.delta(pts[0], pts[k], pts[k + 1])
        ids = [identity_superop(sys.alg(a, b).blocks) for a, b in zip(pts[k + 1:-1], pts[k + 2:])]
        chain.append(superop_tensor_all([step, *ids]) if ids else step)
    return chain


def interval_map_right_nested(sys: TensorialSystem, partition: Partition) -> list[Superoperator]:
    """Oracle: the chain (id (x) ... (x) D[i(m-1),im,i(m+1)]), ..., D[i0,i1,i(m+1)],
    outermost map first.

    Splits the first cell off first and keeps expanding the trailing factor.
    Agreement with the left-nested expansion encodes co-associativity.
    """
    sys.grid.require(*partition.points)
    pts = partition.points
    if len(pts) == 2:
        return [identity_superop(sys.alg(*pts).blocks)]
    chain = []
    for k in reversed(range(len(pts) - 2)):
        step = sys.delta(pts[k], pts[k + 1], pts[-1])
        ids = [identity_superop(sys.alg(a, b).blocks) for a, b in zip(pts[:k], pts[1:k + 1])]
        chain.append(superop_tensor_all([*ids, step]) if ids else step)
    return chain


def delta_refinement(sys: TensorialSystem, coarse: Partition, fine: Partition) -> Superoperator:
    """The connecting map A_I -> A_J for a same-endpoint refinement I <= J.

    It is the tensor of the interval maps over the cells of I.  D[I,I] is the
    identity; it is rebuilt from the cached cell identities on every call
    rather than stored, so the cache holds no identity of A_I.
    """
    key = ("refine", coarse, fine)
    if key in sys._cache:
        return sys._cache[key]
    blocks = inner_decompose(coarse, fine)
    partition_algebra(sys, fine)
    out = reduce(superop_tensor, [delta_interval_to_partition(sys, b) for b in blocks])
    if coarse != fine:
        sys._cache[key] = out
    return out


def _cell_product(family, partition: Partition, cell, tensor):
    """The left fold ``tensor(...tensor(cell(i0, i1), cell(i1, i2))..., cell(im, im+1))``.

    Memoised per partition in ``family._cache`` and shared as it is, since
    elements and functionals are read-only: each product is one ``tensor``
    call on the stored product over all but the last cell, so it is bitwise
    the ``reduce`` of ``tensor`` over the cells.
    """
    out = family._cache.get(partition)
    if out is None:
        pts = partition.points
        out = cell(pts[-2], pts[-1])
        if len(pts) > 2:
            out = tensor(_cell_product(family, Partition(pts[:-1]), cell, tensor), out)
        family._cache[partition] = out
    return out


def unit_on_partition(unit: UnitFamily, partition: Partition) -> AlgebraElement:
    """The ordered tensor of the pairwise unit projections over the cells."""
    return _cell_product(unit, partition, unit.p, tensor_element)


def state_on_partition(fam: FunctionalFamily, partition: Partition) -> LinearFunctional:
    """The product functional over the cells; a state whenever the family is a co-unit."""
    return _cell_product(fam, partition, fam.phi, functional_tensor)


def delta_cross(sys: TensorialSystem, unit: Optional[UnitFamily],
                coarse: Partition, fine: Partition) -> Superoperator:
    """The unit-padded connecting map A_I -> A_J for arbitrary refinements in the grid.

    With equal endpoints this is the plain refinement map; otherwise the
    stretches of J outside [min I, max I] are filled with unit projections:
    x -> p_lower (x) D[I, middle](x) (x) p_upper.  Without a unit family there
    is no padding, and different endpoints raise ``EndpointMismatchError``.
    """
    if coarse.endpoints == fine.endpoints:
        return delta_refinement(sys, coarse, fine)
    if unit is None:
        raise EndpointMismatchError(f"padding {coarse} -> {fine} requires a unit family")
    key = ("cross", unit.cache_token, coarse, fine)
    if key in sys._cache:
        return sys._cache[key]
    dec = outer_decompose(coarse, fine)
    partition_algebra(sys, fine)

    def const(piece: Optional[Partition]):
        if piece is None:
            return None
        p = unit_on_partition(unit, piece)
        return p.algebra.blocks, p.vec()

    out = superop_tensor_const(delta_refinement(sys, coarse, dec.middle),
                               const(dec.lower), const(dec.upper))
    sys._cache[key] = out
    return out


# -- germs ---------------------------------------------------------------------

@dataclass(frozen=True)
class Germ:
    """A finite-level representative (partition, element) of a limit element, in
    either limit: the unit passed to the operations decides which."""

    partition: Partition
    element: AlgebraElement

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return self.partition.endpoints


def germ(sys: TensorialSystem, partition: Partition, element: AlgebraElement) -> Germ:
    """The germ of ``element``, which must lie in A_I for I = ``partition``."""
    alg = partition_algebra(sys, partition)
    if element.algebra.blocks != alg.blocks:
        raise ValueError(
            f"element blocks {element.algebra.blocks} do not match "
            f"A_{partition} = {alg.blocks}"
        )
    return Germ(partition, element)


def push_germ(sys: TensorialSystem, unit: Optional[UnitFamily], g: Germ,
              target: Partition) -> AlgebraElement:
    """The representative of ``g`` on the finer partition ``target``.

    On its own partition a germ is its element: D[I,I] is the identity.
    Otherwise the connecting map is the refinement map when the endpoints
    agree and the map padded with ``unit`` when they do not; without a unit,
    different endpoints raise ``EndpointMismatchError``.
    """
    if g.partition == target:
        return germ(sys, target, g.element).element
    mapper = delta_cross(sys, unit, g.partition, target)
    return partition_algebra(sys, target).from_vec(mapper.apply(g.element.vec()))


def germ_distance(sys: TensorialSystem, g1: Germ, g2: Germ,
                  unit: Optional[UnitFamily] = None) -> float:
    """Max-abs difference of the two representatives at their common refinement."""
    target = common_refinement(g1.partition, g2.partition)
    return push_germ(sys, unit, g1, target).distance(push_germ(sys, unit, g2, target))


def germ_binop(sys: TensorialSystem, g1: Germ, g2: Germ, op,
               unit: Optional[UnitFamily] = None) -> Germ:
    """The germ of ``op`` (``operator.add``, say) on the representatives at the common
    refinement."""
    target = common_refinement(g1.partition, g2.partition)
    return Germ(target, op(push_germ(sys, unit, g1, target), push_germ(sys, unit, g2, target)))


@dataclass(frozen=True)
class SplitGerm:
    """A germ presented over a split partition L u R sharing one cut point.

    The element lives on the joint partition algebra A_L (x) A_R; it is not
    factored because a split of a non-elementary tensor has no factored
    representative.  Marginals are obtained by pairing with states.
    """

    left_partition: Partition
    right_partition: Partition
    element: AlgebraElement

    @property
    def joint_partition(self) -> Partition:
        return common_refinement(self.left_partition, self.right_partition)

    def merged(self) -> Germ:
        """Forget the split: the germ of the joint representative."""
        return Germ(self.joint_partition, self.element)


def _straddling(sys: TensorialSystem, partition: Partition, s: Fraction) -> Partition:
    """The partition with s added, and the nearest grid point beyond s added where
    s would be an endpoint, so that s is interior."""
    points = set(partition.points) | {s}
    if min(points) == s:
        points.add(max(p for p in sys.grid.points if p < s))
    if max(points) == s:
        points.add(min(p for p in sys.grid.points if p > s))
    return Partition(sorted(points))


def comultiplication(sys: TensorialSystem, unit: Optional[UnitFamily], g: Germ,
                     s: Fraction) -> SplitGerm:
    """Split a germ at a grid point s with grid points on both sides.

    The representative is refined so its partition contains s and straddles
    it, then read as A_L (x) A_R.  For s interior to the germ's interval this
    only refines: the split of an interval germ.  Otherwise it is padded with
    ``unit``, the one-parameter D_s on padded germs; without a unit that
    raises ``EndpointMismatchError``.
    """
    sys.grid.require(s)
    if not sys.grid.points[0] < s < sys.grid.points[-1]:
        raise ValueError(f"the grid cannot straddle {s}")
    target = _straddling(sys, g.partition, s)
    lo, hi = target.endpoints
    return SplitGerm(target.restrict(lo, s), target.restrict(s, hi),
                     push_germ(sys, unit, g, target))


def interval_embedding(sys: TensorialSystem, unit: UnitFamily, g: Germ,
                    u: Fraction, v: Fraction) -> Germ:
    """Embed an interval germ over [s,t] into the calculus over [u,v] >= [s,t].

    The representative picks up unit projections over [u,s] and [t,v]:
    (I, x) -> ({u} u I u {v}, padded x).
    """
    s, t = g.interval
    sys.grid.require(u, v)
    if not (u <= s and t <= v):
        raise ValueError(f"[{u},{v}] does not contain [{s},{t}]")
    if (u, v) == (s, t):
        return g
    target = Partition(sorted({u, v} | set(g.partition.points)))
    return Germ(target, push_germ(sys, unit, g, target))


def unit_germ(sys: TensorialSystem, unit: UnitFamily, partition: Partition) -> Germ:
    """The padded germ of the unit projection over a partition."""
    return germ(sys, partition, unit_on_partition(unit, partition))


def one_param_coassociativity_residual(sys: TensorialSystem, unit: UnitFamily,
                                       g: Germ, r: Fraction, s: Fraction) -> float:
    """Residual of the deformed law (D_r (x) id) D_s = (id (x) D_s) D_r on one germ.

    Both routes produce a triple-split representative (cut at r and at s);
    they are compared as germs of the flat joint partition, which factors as
    the tensor of the per-slot connecting maps because refinements preserve
    interior cut points.
    """
    if not r < s:
        raise ValueError(f"cuts must satisfy r < s, got {r} >= {s}")

    def expand(sg: SplitGerm, side: int, cut: Fraction) -> tuple[Partition, np.ndarray]:
        """Split one side of ``sg`` (0 left, 1 right) again at ``cut``, the other side fixed."""
        parts = [sg.left_partition, sg.right_partition]
        refined = _straddling(sys, parts[side], cut)
        maps = [delta_cross(sys, unit, p, refined) if i == side
                else identity_superop(partition_algebra(sys, p).blocks)
                for i, p in enumerate(parts)]
        parts[side] = refined
        return common_refinement(*parts), superop_tensor(*maps).apply(sg.element.vec())

    part_a, vec_a = expand(comultiplication(sys, unit, g, s), 0, r)
    part_b, vec_b = expand(comultiplication(sys, unit, g, r), 1, s)
    target = common_refinement(part_a, part_b)
    pushed_a = delta_cross(sys, unit, part_a, target).apply(vec_a)
    pushed_b = delta_cross(sys, unit, part_b, target).apply(vec_b)
    return max_abs(pushed_a - pushed_b)


# -- lifted morphisms -----------------------------------------------------------

def lift_morphism(sys: TensorialSystem, thetas: MorphismFamily,
                  partition: Partition) -> Superoperator:
    """The ordered tensor of the pairwise maps over the cells of a partition."""
    sys.grid.require(*partition.points)
    return superop_tensor_all([thetas.theta(a, b) for a, b in partition.pairs()])


def lifted_morphism_residual(sys_a: TensorialSystem, sys_b: TensorialSystem,
                             thetas: MorphismFamily, coarse: Partition, fine: Partition,
                             unit_a: Optional[UnitFamily] = None,
                             unit_b: Optional[UnitFamily] = None) -> float:
    """Residual of theta_J D[I,J] = G[I,J] theta_I (padded maps when units are given)."""
    theta_i = lift_morphism(sys_a, thetas, coarse)
    theta_j = lift_morphism(sys_a, thetas, fine)
    d_ab = delta_cross(sys_a, unit_a, coarse, fine)
    d_cd = delta_cross(sys_b, unit_b, coarse, fine)
    return composite_residual([theta_j, d_ab], [d_cd, theta_i])
