"""Co-unit dilations, idempotent states on the germ calculus, GNS systems.

A co-multiplicative family of states evaluates consistently on germs: the
value of (I, x) is the product state of the cells applied to x, and pushing
the representative along a connecting map does not change it.  That single
functional is the idempotent state of the system algebra; its marginals
recover the family.

Applying the GNS construction per pair produces a Hilbert-space system whose
isometries V[r,s,t]: eta(x) -> (eta (x) eta)(D[r,s,t] x) come from the pair
GNS maps alone.  The agreement of its dilation with the GNS system of the
dilated states reduces to Gram-matrix preservation along refinements,
D* G_K D = G_I, which is checked here.  The Gram matrix of a product state
is the tensor of its cells' ones, so the law is one more pair of chains,
[D*, G_K, D] against G_I, for ``composite_residual`` like every other map
identity: the chain merges factor by factor, and neither the map nor a Gram
matrix of the finer partition is formed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .algebra import FiniteCStarAlgebra, GnsData, LinearFunctional, gns, gram_apply, gram_matrix
from .linalg import (
    DEFAULT_TOL,
    Superoperator,
    composite_residual,
    isometry_residual,
    max_abs,
    star_perm,
    superop_adjoint,
    superop_tensor_all,
    tensor_perm,
)
from .partition_calculus import (
    Germ,
    comultiplication,
    delta_cross,
    partition_algebra,
    state_on_partition,
    unit_germ,
)
from .report import CheckRecord, Report
from .systems import (
    FunctionalFamily,
    HilbertSystem,
    TensorialSystem,
    UnitFamily,
    check_comultiplicative,
    enumerate_all_partitions,
)
from .timegrid import Partition, refinement_pairs

Pair = tuple[Fraction, Fraction]
Triple = tuple[Fraction, Fraction, Fraction]


def counit_dilation_eval(sys: TensorialSystem, fam: FunctionalFamily, g: Germ,
                         tol: float = DEFAULT_TOL) -> complex:
    """Evaluate the dilated functional on an interval germ: (I, x) -> phi_I(x).

    Well-definedness across representatives is exactly the invariance of the
    product states under the connecting maps, which holds when the family is
    co-multiplicative; the family is validated on every call, so callers that
    evaluate many germs check it once and use ``GermFunctional``.
    """
    comult = check_comultiplicative(sys, fam, tol)
    if not comult.passed:
        raise ValueError(
            f"family is not co-multiplicative (max residual {comult.max_residual:.3g})"
        )
    return state_on_partition(fam, g.partition)(g.element)


@dataclass(frozen=True)
class GermFunctional:
    """The state of the germ calculus induced by a co-unit with phi(p) = 1."""

    family: FunctionalFamily

    def __call__(self, g: Germ) -> complex:
        return state_on_partition(self.family, g.partition)(g.element)


class GermStateError(ValueError):
    """A check of ``idempotent_state_report`` failed; ``record`` is the first that did."""

    def __init__(self, record: CheckRecord):
        where = ", ".join(f"{key} = {value}" for key, value in record.params.items())
        super().__init__(f"germ functional checks failed: {record.check} at {where}")
        self.record = record


def build_idempotent_state(sys: TensorialSystem, unit: UnitFamily, fam: FunctionalFamily,
                           tol: float = DEFAULT_TOL,
                           max_interior: int = 2) -> GermFunctional:
    """The unique germ-calculus state whose marginals are the given co-unit.

    Requires the family to be a co-unit with phi(s,t)(p(s,t)) = 1 on every
    grid pair (otherwise padded representatives change the value).  Verifies
    well-definedness along a chain sample and idempotency through the
    one-parameter splitting on generator germs before returning, and raises
    GermStateError if either fails.
    """
    for (s, t), phi in fam.functionals.items():
        if not phi.is_state(tol):
            neg, nrm = phi.state_residuals()
            raise ValueError(
                f"not a state at ({s},{t}): positivity residual {neg:.3g}, "
                f"trace error {nrm:.3g}"
            )
        val = phi(unit.p(s, t))
        if abs(val - 1.0) > tol:
            raise ValueError(
                f"normalization fails at ({s},{t}): phi(p) = {val:.6g}, expected 1"
            )
    comult = check_comultiplicative(sys, fam, tol)
    if not comult.passed:
        raise ValueError(
            f"family is not co-multiplicative (max residual {comult.max_residual:.3g})"
        )
    germ_phi = GermFunctional(fam)
    rep = idempotent_state_report(sys, unit, germ_phi, tol, max_interior)
    if not rep.passed:
        raise GermStateError(rep.failures()[0])
    return germ_phi


def idempotent_state_report(sys: TensorialSystem, unit: UnitFamily, phi: GermFunctional,
                            tol: float = DEFAULT_TOL, max_interior: int = 2) -> Report:
    """Well-definedness under padded refinement and idempotency under splitting."""
    report = Report()
    partitions = enumerate_all_partitions(sys.grid, max_points=max_interior + 2)
    for coarse, fine in refinement_pairs(partitions):
        mapper = delta_cross(sys, unit, coarse, fine)
        row_fine = state_on_partition(phi.family, fine).row()
        row_coarse = state_on_partition(phi.family, coarse).row()
        report.residual_record(
            "germ_state_well_defined",
            "phi_J o (padded connecting map I -> J) = phi_I",
            {"I": coarse, "J": fine},
            max_abs(mapper.rapply(row_fine) - row_coarse), tol,
        )
    for s in sys.grid.points[1:-1]:
        for coarse in partitions:
            report.residual_record(
                "germ_state_idempotent_on_units",
                "(phi (x) phi) o D_s = phi",
                {"I": coarse, "s": s},
                idempotency_residual(sys, unit, phi, unit_germ(sys, unit, coarse), s),
                tol,
            )
    return report


def idempotency_residual(sys: TensorialSystem, unit: UnitFamily, phi: GermFunctional,
                         g: Germ, s: Fraction) -> float:
    """| (phi (x) phi)(D_s g) - phi(g) | via the joint split representative."""
    split = comultiplication(sys, unit, g, s)
    lhs = state_on_partition(phi.family, split.joint_partition)(split.element)
    return abs(lhs - phi(g))


def marginal_states(phi: GermFunctional, sys: TensorialSystem) -> FunctionalFamily:
    """Evaluate on trivial-partition germs: the marginals are the original co-unit."""
    out = {}
    for (s, t) in sys.grid.pairs():
        alg = sys.alg(s, t)
        row = np.array([
            phi(Germ(Partition([s, t]), alg.from_vec(np.eye(1, alg.dim, a))))
            for a in range(alg.dim)
        ])
        out[(s, t)] = _functional_from_row(alg, row)
    return FunctionalFamily(out)


def _functional_from_row(alg: FiniteCStarAlgebra, row: np.ndarray) -> LinearFunctional:
    """The functional whose ``row()`` is ``row``: its density is ``row`` transposed."""
    return LinearFunctional.of_density(alg.from_vec(row[star_perm(alg.blocks)]))


# -- GNS systems ---------------------------------------------------------------

class GnsIsometryError(ValueError):
    """V[r,s,t] of a GNS system is not an isometry: the family is not co-multiplicative."""

    def __init__(self, triple: Triple, residual: float):
        r, s, t = triple
        super().__init__(
            f"V({r},{s},{t}) fails isometry (residual {residual:.3g}); "
            "the family is not co-multiplicative"
        )
        self.triple = triple
        self.residual = residual


@dataclass
class GnsSystem:
    """Per-pair GNS data and per-triple isometries forming a Hilbert system."""

    sys: TensorialSystem
    gns_data: Mapping[Pair, GnsData]
    isometries: Mapping[Triple, np.ndarray]

    def hilbert_system(self) -> HilbertSystem:
        dims = {pair: data.dim for pair, data in self.gns_data.items()}
        return HilbertSystem(self.sys.grid, dims, dict(self.isometries))


def gns_isometry(sys: TensorialSystem, r, s, t, gns_data: Mapping[Pair, GnsData]) -> np.ndarray:
    """V[r,s,t]: H(r,t) -> H(r,s) (x) H(s,t), eta(x) -> (eta (x) eta)(D[r,s,t] x).

    kron(eta_rs, eta_st) reads vec(x) (x) vec(y); with its columns placed at
    ``tensor_perm`` it reads vecs of A(r,s) (x) A(s,t), and ``rapply`` pulls it
    back through D[r,s,t] onto the lifted coordinates of H(r,t).
    """
    pair_eta = np.kron(gns_data[(r, s)].eta, gns_data[(s, t)].eta)
    eta = np.empty_like(pair_eta)
    eta[:, tensor_perm(sys.alg(r, s).blocks, sys.alg(s, t).blocks)] = pair_eta
    return sys.delta(r, s, t).rapply(eta) @ gns_data[(r, t)].lift


GNS_ISOMETRY_FLOOR = 1e-7


def gns_system(sys: TensorialSystem, fam: FunctionalFamily,
               tol: float = DEFAULT_TOL) -> GnsSystem:
    """Assemble the per-pair GNS spaces into a Hilbert-space system.

    Raises GnsIsometryError if some V is not an isometry within max(tol,
    GNS_ISOMETRY_FLOOR), which signals a family that is not co-multiplicative.
    """
    if not fam.is_counit(tol):
        raise ValueError("the functional family must consist of states")
    gns_data = {(s, t): gns(sys.alg(s, t), fam.phi(s, t), tol) for (s, t) in sys.grid.pairs()}
    isometries = {}
    for (r, s, t) in sys.grid.triples():
        v = gns_isometry(sys, r, s, t, gns_data)
        res = isometry_residual(v)
        if v.shape[0] < v.shape[1] or not res <= max(tol, GNS_ISOMETRY_FLOOR):
            raise GnsIsometryError((r, s, t), res)
        isometries[(r, s, t)] = v
    return GnsSystem(sys=sys, gns_data=gns_data, isometries=isometries)


def gns_unit_vector_residual(gsys: GnsSystem, unit: UnitFamily) -> float:
    """How far the GNS images of a normalized unit are from a unit of the Hilbert system.

    For phi(p) = 1 the cosets xi(s,t) = eta(p(s,t)) are unit vectors with
    V[r,s,t] xi(r,t) = xi(r,s) (x) xi(s,t); the residual covers both facts.
    """
    worst = 0.0
    coords = {}
    for (s, t), data in gsys.gns_data.items():
        xi = data.eta @ unit.p(s, t).vec()
        coords[(s, t)] = xi
        worst = np.maximum(worst, abs(float(np.linalg.norm(xi)) - 1.0))
    for (r, s, t), v in gsys.isometries.items():
        worst = np.maximum(worst, max_abs(
            v @ coords[(r, t)] - np.kron(coords[(r, s)], coords[(s, t)])))
    return float(worst)


# -- dilation agreement (Gram preservation) --------------------------------------

def gram_preservation_residual(sys: TensorialSystem, fam: FunctionalFamily,
                               coarse: Partition, fine: Partition,
                               unit: Optional[UnitFamily] = None,
                               perturbation: float = 0.0,
                               grams: Optional[dict] = None) -> float:
    """Residual of D* G_K D = G_I for the connecting map D: A_I -> A_K.

    This is G_K(D x, D y) = G_I(x, y): the well-definedness and isometry of
    the maps between the GNS spaces of the product states, i.e. the
    finite-level content of the equivalence between the two Hilbert-space
    dilations.  A nonzero ``perturbation`` is added to one entry of the map
    as a negative control, which reads the map densely (``_perturbed_map``)
    as one factor onto the whole of K; it is meant for a small pair.

    The Gram matrix of a product state is the tensor of its cells' ones
    (``_gram_map``), so a map of several factors, such as a padded map or a
    refinement of several cells, is checked as the chain [D*, G_K, D] against
    G_I by ``composite_residual``: every entry counts, zeros included, and
    the chain merges into one small factor per factor of D, a unit constant
    p giving the 1 x 1 value phi(p* p), so sides that hold equal factors
    settle without streaming.  A map of one factor does not merge; its
    F* G_K F is formed densely (``_gram_form``).  ``grams`` keeps the Gram
    maps built here for later calls on the same family.
    """
    grams = {} if grams is None else grams
    op = delta_cross(sys, unit, coarse, fine)
    if perturbation:
        op = _perturbed_map(op, partition_algebra(sys, fine), state_on_partition(fam, fine),
                            perturbation)
    if len(op.factors) > 1:
        lhs = [superop_adjoint(op), _gram_map(sys, fam, fine, grams), op]
    else:
        form = _gram_form(partition_algebra(sys, fine), state_on_partition(fam, fine), op)
        lhs = [Superoperator(form, op.dom, op.dom)]
        del op  # a perturbed copy is freed before G_I is formed
    return composite_residual(lhs, [_gram_map(sys, fam, coarse, grams)])


def _gram_map(sys: TensorialSystem, fam: FunctionalFamily, partition: Partition,
              grams: dict) -> Superoperator:
    """G_J for the product state on A_J: the tensor of one Gram map per cell of J.
    ``grams`` keeps each cell's map, under its pair, and G_J, under J."""
    if partition not in grams:
        maps = []
        for cell in partition.pairs():
            if cell not in grams:
                alg = sys.alg(*cell)
                grams[cell] = Superoperator(gram_matrix(alg, fam.phi(*cell)), alg.blocks,
                                            alg.blocks)
            maps.append(grams[cell])
        grams[partition] = superop_tensor_all(maps)
    return grams[partition]


def _gram_form(alg: FiniteCStarAlgebra, phi: LinearFunctional, op: Superoperator) -> np.ndarray:
    """F* G F for the Gram matrix G of phi and the matrix F of ``op``: G itself when F
    is one identity factor, else conj(F^T conj(G F)) with G F from ``gram_apply``, so
    no conjugate of F is formed."""
    if op.skip == (True,):
        return gram_matrix(alg, phi)
    f = op.matrix
    weighted = gram_apply(alg, phi, f)
    np.conjugate(weighted, out=weighted)
    out = f.T @ weighted
    np.conjugate(out, out=out)
    return out


def _perturbed_map(op: Superoperator, alg_fine: FiniteCStarAlgebra, phi_fine: LinearFunctional,
                   perturbation: float) -> Superoperator:
    """The map with ``perturbation`` added to the entry of largest Gram weight, as a dense map.

    The entry (j, c) maximises |G_K D| and the perturbation is divided by
    conj(w), w = (G_K D)[j, c]: entry (c, c) of D^H G_K D then moves by about
    2 * perturbation whatever the state's scale.
    """
    mat = op.matrix.copy()
    weighted = gram_apply(alg_fine, phi_fine, mat)
    j, c = np.unravel_index(np.argmax(np.abs(weighted)), weighted.shape)
    w = weighted[j, c]
    mat[j, c] += perturbation / np.conj(w) if w != 0 else perturbation
    return Superoperator(mat, op.dom, op.cod)


def dilation_isomorphism_check(sys: TensorialSystem, fam: FunctionalFamily,
                               pairs: Sequence[tuple[Partition, Partition]],
                               tol: float = DEFAULT_TOL,
                               unit: Optional[UnitFamily] = None,
                               negative_control: bool = False) -> Report:
    """Gram preservation on the given (coarse, fine) refinement pairs, plus a negative
    control on the first pair.

    Pass means the maps eta_I(x) -> eta_K(connecting(x)) are well-defined
    isometries, whose limit identifies the dilated GNS system with the GNS
    system of the dilated states.
    """
    report = Report()
    law = "G_K(D[I,K] x, D[I,K] y) = G_I(x, y)"
    grams = {}  # each cell's Gram map is built once for all pairs
    for coarse, fine in pairs:
        res = gram_preservation_residual(sys, fam, coarse, fine, unit, grams=grams)
        report.residual_record("gns_gram_preservation", law,
                               {"I": coarse, "K": fine}, res, tol)
    del grams  # freed before the control forms its dense map
    if negative_control and pairs:
        coarse, fine = pairs[0]
        res = gram_preservation_residual(sys, fam, coarse, fine, unit, perturbation=1e-3)
        report.residual_record(
            "gns_gram_preservation_negative_control", law + " (perturbed map must fail)",
            {"I": coarse, "K": fine, "perturbation": 1e-3},
            res, tol, expect_fail=True,
        )
    return report
