"""Partition-indexed calculus: interval algebras, refinement maps, germs.

For a partition I = {i_0 < ... < i_{m+1}} of [s,t], the interval algebra A_I
is the ordered tensor product of the pair algebras over consecutive points.
The interval-to-partition map A(s,t) -> A_I is built recursively by splitting
off the last cell; refinement maps A_I -> A_J tensor these over the cells of
I, and unit-padded maps A_I -> A_J additionally pad the stretches of J below
min I and above max I with unit projections.

Inductive limits are represented at finite level by germs: pairs (partition,
element), identified when pushing both representatives to a common refinement
makes them equal.  All the dilation-level structure (splitting an interval
germ at an interior time, embedding into a larger interval, the one-parameter
comultiplication on padded germs) then becomes explicit re-indexing plus
residual checks.

Equality of germs is decided at the single common refinement I u J; agreement
at every finer partition follows from the cocycle law, which is itself under
test.  Per-system caches keyed by partitions keep repeated map construction
cheap; systems are otherwise immutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial, reduce
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
    compose_dense,
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
    MapBackend,
    Partition,
    _store,
    common_refinement,
    interval_map,
    padded_map,
    refinement_map,
)


class SpaceTag(Enum):
    """Which germ calculus an element belongs to.

    SHARP germs live over the partitions of one fixed interval [s,t] (the
    dilated pair algebra); CROSS germs live over all grid partitions with
    unit-padded connecting maps (the system algebra).
    """

    SHARP = "sharp"
    CROSS = "cross"


def _check_on_grid(sys: TensorialSystem, partition: Partition):
    sys.grid.require(*partition.points)


def partition_algebra(sys: TensorialSystem, partition: Partition) -> FiniteCStarAlgebra:
    """The ordered tensor product of the pair algebras over the cells of the partition."""
    _check_on_grid(sys, partition)
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


def _backend(sys: TensorialSystem) -> MapBackend:
    return MapBackend(lambda a, b: identity_superop(sys.alg(a, b).blocks), sys.delta,
                      superop_tensor, compose)


def delta_interval_to_partition(sys: TensorialSystem, partition: Partition) -> Superoperator:
    """The map A(s,t) -> A_I, splitting off the last cell recursively.

    The two-point case is the identity (forced by the refinement-map
    convention D[I,I] = id and required for uniform code paths); three points
    give the comultiplication itself.
    """
    return interval_map(_backend(sys), partition, partial(partition_algebra, sys), sys._cache)


def interval_map_left_nested(sys: TensorialSystem, partition: Partition) -> Superoperator:
    """Oracle: iterated products (D[i0,i1,i2] (x) id...) ... D[i0,im,i(m+1)].

    Splits the last cell off first and keeps expanding the leading factor;
    written independently of the recursive builder, and composed densely,
    without the factor-by-factor merge of ``compose``.
    """
    _check_on_grid(sys, partition)
    pts = partition.points
    if len(pts) == 2:
        return identity_superop(sys.alg(*pts).blocks)
    factors = []
    for k in range(len(pts) - 2, 0, -1):
        step = sys.delta(pts[0], pts[k], pts[k + 1])
        ids = [identity_superop(sys.alg(a, b).blocks) for a, b in zip(pts[k + 1:-1], pts[k + 2:])]
        factors.append(superop_tensor_all([step, *ids]) if ids else step)
    return reduce(compose_dense, reversed(factors))


def interval_map_right_nested(sys: TensorialSystem, partition: Partition) -> Superoperator:
    """Oracle: iterated products (id (x) ... (x) D[i(m-1),im,i(m+1)]) ... D[i0,i1,i(m+1)].

    Splits the first cell off first and keeps expanding the trailing factor.
    Agreement with the left-nested expansion encodes co-associativity.
    """
    _check_on_grid(sys, partition)
    pts = partition.points
    if len(pts) == 2:
        return identity_superop(sys.alg(*pts).blocks)
    factors = []
    for k in range(len(pts) - 2):
        step = sys.delta(pts[k], pts[k + 1], pts[-1])
        ids = [identity_superop(sys.alg(a, b).blocks) for a, b in zip(pts[:k], pts[1:k + 1])]
        factors.append(superop_tensor_all([*ids, step]) if ids else step)
    return reduce(compose_dense, reversed(factors))


def delta_refinement(sys: TensorialSystem, coarse: Partition, fine: Partition) -> Superoperator:
    """The connecting map A_I -> A_J for a same-endpoint refinement I <= J."""
    return refinement_map(_backend(sys), coarse, fine, partial(partition_algebra, sys), sys._cache)


def _cell_product(family, partition: Partition, cell, tensor):
    """The left fold ``tensor(...tensor(cell(i0, i1), cell(i1, i2))..., cell(im, im+1))``.

    Memoised per partition in ``family._cache``, read-only: each product is one
    ``tensor`` call on the stored product over all but the last cell, so it is
    bitwise the ``reduce`` of ``tensor`` over the cells.
    """
    out = family._cache.get(partition)
    if out is None:
        pts = partition.points
        out = cell(pts[-2], pts[-1])
        if len(pts) > 2:
            out = tensor(_cell_product(family, Partition(pts[:-1]), cell, tensor), out)
        out = _store(family._cache, partition, out)
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
    x -> p_lower (x) D[I, middle](x) (x) p_upper.
    """
    if unit is None and coarse.endpoints != fine.endpoints:
        raise ValueError(f"padding {coarse} -> {fine} requires a unit family")

    def const(piece: Optional[Partition]):
        if piece is None:
            return None
        p = unit_on_partition(unit, piece)
        return p.algebra.blocks, p.vec()

    return padded_map(_backend(sys), coarse, fine, partial(partition_algebra, sys), sys._cache,
                      lambda middle, lo, hi: superop_tensor_const(middle, const(lo), const(hi)),
                      None if unit is None else unit.cache_token)


# -- germs ---------------------------------------------------------------------

@dataclass(frozen=True)
class Germ:
    """A finite-level representative (partition, element) of a limit element."""

    partition: Partition
    element: AlgebraElement
    tag: SpaceTag

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return self.partition.endpoints


def sharp_germ(sys: TensorialSystem, partition: Partition, element: AlgebraElement) -> Germ:
    _validate_germ(sys, partition, element)
    return Germ(partition, element, SpaceTag.SHARP)


def cross_germ(sys: TensorialSystem, partition: Partition, element: AlgebraElement) -> Germ:
    _validate_germ(sys, partition, element)
    return Germ(partition, element, SpaceTag.CROSS)


def _validate_germ(sys: TensorialSystem, partition: Partition, element: AlgebraElement):
    alg = partition_algebra(sys, partition)
    if element.algebra.blocks != alg.blocks:
        raise ValueError(
            f"element blocks {element.algebra.blocks} do not match "
            f"A_{partition} = {alg.blocks}"
        )


def push_germ(sys: TensorialSystem, unit: Optional[UnitFamily], g: Germ,
              target: Partition) -> AlgebraElement:
    """The representative of ``g`` on the finer partition ``target``.

    On its own partition a germ is its element: D[I,I] is the identity.
    Otherwise the connecting map is the refinement map when the endpoints
    agree and the map padded with ``unit`` when they do not.
    """
    if g.partition == target:
        _validate_germ(sys, target, g.element)
        return g.element
    mapper = delta_cross(sys, unit, g.partition, target)
    return partition_algebra(sys, target).from_vec(mapper.apply(g.element.vec()))


def _join_target(g1: Germ, g2: Germ) -> Partition:
    if g1.tag is not g2.tag:
        raise ValueError(f"cannot mix germ spaces {g1.tag} and {g2.tag}")
    if g1.tag is SpaceTag.SHARP and g1.interval != g2.interval:
        raise EndpointMismatchError(
            f"interval germs live over fixed intervals: {g1.interval} vs {g2.interval}"
        )
    return common_refinement(g1.partition, g2.partition)


def germ_distance(sys: TensorialSystem, g1: Germ, g2: Germ,
                  unit: Optional[UnitFamily] = None) -> float:
    """Max-abs difference of the two representatives at their common refinement."""
    target = _join_target(g1, g2)
    return push_germ(sys, unit, g1, target).distance(push_germ(sys, unit, g2, target))


def germ_binop(sys: TensorialSystem, g1: Germ, g2: Germ, op,
               unit: Optional[UnitFamily] = None) -> Germ:
    target = _join_target(g1, g2)
    x = push_germ(sys, unit, g1, target)
    y = push_germ(sys, unit, g2, target)
    return Germ(target, op(x, y), g1.tag)


def germ_add(sys: TensorialSystem, g1: Germ, g2: Germ,
             unit: Optional[UnitFamily] = None) -> Germ:
    return germ_binop(sys, g1, g2, lambda x, y: x + y, unit)


def germ_mul(sys: TensorialSystem, g1: Germ, g2: Germ,
             unit: Optional[UnitFamily] = None) -> Germ:
    return germ_binop(sys, g1, g2, lambda x, y: x * y, unit)


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
    tag: SpaceTag

    @property
    def joint_partition(self) -> Partition:
        return common_refinement(self.left_partition, self.right_partition)

    def merged(self) -> Germ:
        """Forget the split: the germ of the joint representative."""
        return Germ(self.joint_partition, self.element, self.tag)


def _split_at(partition: Partition, element: AlgebraElement, s: Fraction,
              tag: SpaceTag) -> SplitGerm:
    if s not in partition.points or s in partition.endpoints:
        raise ValueError(f"cut point {s} must be interior to {partition}")
    return SplitGerm(
        left_partition=partition.restrict(partition.points[0], s),
        right_partition=partition.restrict(s, partition.points[-1]),
        element=element,
        tag=tag,
    )


def sharp_comultiplication(sys: TensorialSystem, g: Germ, s: Fraction) -> SplitGerm:
    """Split an interval germ over [r,t] at an interior grid point s.

    Refine the representative so its partition contains s, then read the
    partition algebra as A_L (x) A_R; the limit-level comultiplication is this
    re-indexing.
    """
    if g.tag is not SpaceTag.SHARP:
        raise ValueError("interval splitting acts on interval (sharp) germs")
    r, t = g.interval
    sys.grid.require(s)
    if not (r < s < t):
        raise ValueError(f"cut {s} is not interior to [{r},{t}]")
    target = common_refinement(g.partition, Partition([r, s, t]))
    pushed = push_germ(sys, None, g, target)
    return _split_at(target, pushed, s, SpaceTag.SHARP)


def sharp_embedding(sys: TensorialSystem, unit: UnitFamily, g: Germ,
                    u: Fraction, v: Fraction) -> Germ:
    """Embed an interval germ over [s,t] into the calculus over [u,v] >= [s,t].

    The representative picks up unit projections over [u,s] and [t,v]:
    (I, x) -> ({u} u I u {v}, padded x).
    """
    if g.tag is not SpaceTag.SHARP:
        raise ValueError("interval embedding acts on interval (sharp) germs")
    s, t = g.interval
    sys.grid.require(u, v)
    if not (u <= s and t <= v):
        raise ValueError(f"[{u},{v}] does not contain [{s},{t}]")
    if (u, v) == (s, t):
        return g
    target = Partition(sorted({u, v} | set(g.partition.points)))
    return Germ(target, push_germ(sys, unit, g, target), SpaceTag.SHARP)


def one_param_comultiplication(sys: TensorialSystem, unit: UnitFamily, g: Germ,
                               s: Fraction) -> SplitGerm:
    """Split a padded (cross) germ at a grid point s with grid points on both sides.

    The representative is padded/refined so its partition contains s and
    straddles it, then split; on elementary tensors over partitions already
    split at s this is the identity re-indexing.
    """
    if g.tag is not SpaceTag.CROSS:
        raise ValueError("the one-parameter comultiplication acts on padded (cross) germs")
    sys.grid.require(s)
    below = [p for p in sys.grid.points if p < s]
    above = [p for p in sys.grid.points if p > s]
    if not below or not above:
        raise ValueError(f"the grid cannot straddle {s}")
    points = set(g.partition.points) | {s}
    if min(points) == s:
        points.add(below[-1])
    if max(points) == s:
        points.add(above[0])
    target = Partition(sorted(points))
    pushed = push_germ(sys, unit, g, target)
    return _split_at(target, pushed, s, SpaceTag.CROSS)


def unit_germ(sys: TensorialSystem, unit: UnitFamily, partition: Partition) -> Germ:
    """The padded germ of the unit projection over a partition."""
    return cross_germ(sys, partition, unit_on_partition(unit, partition))


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

    def expand_left(sg: SplitGerm, cut: Fraction) -> tuple[Partition, np.ndarray]:
        pts = set(sg.left_partition.points) | {cut}
        if min(pts) == cut:
            pts.add(max(p for p in sys.grid.points if p < cut))
        refined = Partition(sorted(pts))
        big = superop_tensor(
            delta_cross(sys, unit, sg.left_partition, refined),
            identity_superop(partition_algebra(sys, sg.right_partition).blocks),
        )
        joint = Partition(sorted(set(refined.points) | set(sg.right_partition.points)))
        return joint, big.apply(sg.element.vec())

    def expand_right(sg: SplitGerm, cut: Fraction) -> tuple[Partition, np.ndarray]:
        pts = set(sg.right_partition.points) | {cut}
        if max(pts) == cut:
            pts.add(min(p for p in sys.grid.points if p > cut))
        refined = Partition(sorted(pts))
        big = superop_tensor(
            identity_superop(partition_algebra(sys, sg.left_partition).blocks),
            delta_cross(sys, unit, sg.right_partition, refined),
        )
        joint = Partition(sorted(set(sg.left_partition.points) | set(refined.points)))
        return joint, big.apply(sg.element.vec())

    part_a, vec_a = expand_left(one_param_comultiplication(sys, unit, g, s), r)
    part_b, vec_b = expand_right(one_param_comultiplication(sys, unit, g, r), s)
    target = common_refinement(part_a, part_b)
    pushed_a = delta_cross(sys, unit, part_a, target).apply(vec_a)
    pushed_b = delta_cross(sys, unit, part_b, target).apply(vec_b)
    return max_abs(pushed_a - pushed_b)


# -- lifted morphisms -----------------------------------------------------------

def lift_morphism(sys: TensorialSystem, thetas: MorphismFamily,
                  partition: Partition) -> Superoperator:
    """The ordered tensor of the pairwise maps over the cells of a partition."""
    _check_on_grid(sys, partition)
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
