"""The identity-check suites that ``verify`` runs on a resolved ``Setup``.

Each runner takes the ``Setup`` and a random generator seeded per suite, and
returns a ``Report``; ``SUITE_RUNNERS`` maps the suite names of ``ALL_SUITES``
to them.  ``brute_force_gram`` and ``associativity_residual`` are independent
oracles: they share no code with the GNS construction or the functional
tensor they check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import FiniteCStarAlgebra, LinearFunctional, functional_tensor, gns, trace_functional
from .commutative import (
    FiniteMultSystem,
    FiniteSpace,
    check_measure_family,
    check_mult_system,
    chi_cross,
    glue_system,
    indicator_unit,
    measure_on_partition,
    measure_projectivity_discrepancy,
    modular_addition_system,
    point_merge,
    point_split,
    space_on_partition,
    split_measure_idempotence,
    superop_from_point_map,
    to_cstar,
)
from .linalg import (
    Tolerance,
    block_offsets,
    composite_residual,
    identity_superop,
    max_abs,
    numerical_rank,
    superop_from_conjugation,
    superop_tensor,
)
from .partition_calculus import (
    Germ,
    cross_germ,
    delta_cross,
    delta_interval_to_partition,
    delta_refinement,
    germ_add,
    germ_distance,
    germ_mul,
    interval_map_left_nested,
    interval_map_right_nested,
    lifted_morphism_residual,
    one_param_coassociativity_residual,
    one_param_comultiplication,
    partition_algebra,
    push_germ,
    sharp_comultiplication,
    sharp_embedding,
    sharp_germ,
    state_on_partition,
    unit_germ,
    unit_on_partition,
)
from .report import CheckRecord, Report
from .states_gns import (
    GermFunctional,
    GnsIsometryError,
    build_idempotent_state,
    dilation_isomorphism_check,
    gns_system,
    gns_unit_vector_residual,
    marginal_states,
)
from .systems import (
    FunctionalFamily,
    Grid,
    HilbertSystem,
    MorphismFamily,
    TensorialSystem,
    UnitFamily,
    check_comultiplicative,
    check_hilbert_axioms,
    check_morphism,
    check_system_axioms,
    check_unit,
    enumerate_all_partitions,
    enumerate_partitions,
    trivial_unit,
)
from .timegrid import Partition, refinement_chains, refinement_pairs

@dataclass
class Setup:
    """Everything a suite might need, resolved from the configuration."""

    system: TensorialSystem
    max_interior_points: int
    hilbert: Optional[HilbertSystem] = None
    unit: Optional[UnitFamily] = None
    counit: Optional[FunctionalFamily] = None
    mult_system: Optional[FiniteMultSystem] = None
    measures: Optional[dict] = None
    expected_class: Optional[str] = None
    tol: Tolerance = field(default_factory=Tolerance)


def _sharp_partitions(setup: Setup) -> list[Partition]:
    grid = setup.system.grid
    return enumerate_partitions(grid, grid.points[0], grid.points[-1],
                                setup.max_interior_points)


def _cross_partitions(setup: Setup) -> list[Partition]:
    return enumerate_all_partitions(setup.system.grid,
                                    setup.max_interior_points + 2)


def _counit_normalizes_unit(setup: Setup) -> bool:
    """phi(s,t)(p(s,t)) = 1 on every pair, within the tolerance."""
    return setup.counit is not None and all(
        abs(setup.counit.phi(s, t)(setup.unit.p(s, t)) - 1.0) <= setup.tol.eps
        for (s, t) in setup.system.grid.pairs()
    )


def run_axioms(setup: Setup, rng) -> Report:
    report = check_system_axioms(setup.system, setup.tol)
    if setup.expected_class is not None:
        got = report.records[-1].detail
        report.add(CheckRecord(
            check="expected_classification", law="generator produces the stated class",
            params={"expected": setup.expected_class}, passed=got == setup.expected_class,
            detail=got,
        ))
    if setup.hilbert is not None:
        report.extend(check_hilbert_axioms(setup.hilbert, setup.tol))
    if setup.unit is not None:
        report.extend(check_unit(setup.system, setup.unit, setup.tol))
    if setup.counit is not None:
        report.extend(check_comultiplicative(setup.system, setup.counit, setup.tol))
    return report


def run_partition(setup: Setup, rng) -> Report:
    sys = setup.system
    tol = setup.tol
    report = Report()
    sharp = _sharp_partitions(setup)
    for part in sharp:
        rec = delta_interval_to_partition(sys, part)
        left = interval_map_left_nested(sys, part)
        right = interval_map_right_nested(sys, part)
        report.residual_record(
            "interval_map_oracle_equivalence",
            "recursive interval map = left-nested product = right-nested product",
            {"I": part},
            max(max_abs(rec.matrix - left.matrix), max_abs(rec.matrix - right.matrix)),
            tol.eps,
        )
    for coarse, fine in refinement_pairs(sharp):
        res = composite_residual(
            [delta_interval_to_partition(sys, fine)],
            [delta_refinement(sys, coarse, fine), delta_interval_to_partition(sys, coarse)])
        report.residual_record(
            "interval_map_factors_through_refinement",
            "D[{s,t},J] = D[I,J] D[{s,t},I]",
            {"I": coarse, "J": fine}, res, tol.eps,
        )
        for cut in coarse.interior:
            lo, hi = coarse.endpoints
            split = superop_tensor(
                delta_refinement(sys, coarse.restrict(lo, cut), fine.restrict(lo, cut)),
                delta_refinement(sys, coarse.restrict(cut, hi), fine.restrict(cut, hi)),
            )
            report.residual_record(
                "refinement_map_splits_at_interior_point",
                "D[I,J] = D[I^[s,u], J^[s,u]] (x) D[I^[u,t], J^[u,t]] for u in I",
                {"I": coarse, "J": fine, "u": cut},
                composite_residual([delta_refinement(sys, coarse, fine)], [split]),
                tol.eps,
            )
        if setup.unit is not None:
            lhs_p = delta_refinement(sys, coarse, fine).apply(
                unit_on_partition(setup.unit, coarse).vec())
            report.residual_record(
                "unit_coherence_under_refinement", "D[I,J](p_I) = p_J",
                {"I": coarse, "J": fine},
                max_abs(lhs_p - unit_on_partition(setup.unit, fine).vec()), tol.eps,
            )
        if setup.counit is not None:
            row = delta_refinement(sys, coarse, fine).rapply(
                state_on_partition(setup.counit, fine).row())
            report.residual_record(
                "state_coherence_under_refinement", "phi_J o D[I,J] = phi_I",
                {"I": coarse, "J": fine},
                max_abs(row - state_on_partition(setup.counit, coarse).row()), tol.eps,
            )
    for i, j, k in refinement_chains(sharp):
        res = composite_residual([delta_refinement(sys, i, k)],
                                 [delta_refinement(sys, j, k), delta_refinement(sys, i, j)])
        report.residual_record(
            "refinement_cocycle", "D[I,K] = D[J,K] D[I,J]",
            {"I": i, "J": j, "K": k}, res, tol.eps,
        )
    if setup.unit is not None:
        # the padded state-coherence law assumes the states normalize the unit
        normalized = _counit_normalizes_unit(setup)
        cross = _cross_partitions(setup)
        for coarse, fine in refinement_pairs(cross):
            if coarse.endpoints == fine.endpoints:
                continue
            if normalized:
                row = delta_cross(sys, setup.unit, coarse, fine).rapply(
                    state_on_partition(setup.counit, fine).row())
                report.residual_record(
                    "state_coherence_under_padding",
                    "phi_J o padded D[I,J] = phi_I when phi(p) = 1",
                    {"I": coarse, "J": fine},
                    max_abs(row - state_on_partition(setup.counit, coarse).row()),
                    tol.eps,
                )
            lhs_p = delta_cross(sys, setup.unit, coarse, fine).apply(
                unit_on_partition(setup.unit, coarse).vec())
            report.residual_record(
                "unit_coherence_under_padding", "padded D[I,J](p_I) = p_J",
                {"I": coarse, "J": fine},
                max_abs(lhs_p - unit_on_partition(setup.unit, fine).vec()), tol.eps,
            )
        for i, j, k in refinement_chains(cross):
            res = composite_residual(
                [delta_cross(sys, setup.unit, i, k)],
                [delta_cross(sys, setup.unit, j, k), delta_cross(sys, setup.unit, i, j)])
            report.residual_record(
                "padded_cocycle", "padded D[I,K] = padded D[J,K] padded D[I,J]",
                {"I": i, "J": j, "K": k}, res, tol.eps,
            )
    return report


def run_dilation(setup: Setup, rng) -> Report:
    sys = setup.system
    tol = setup.tol
    report = Report()
    grid = sys.grid
    lo, hi = grid.points[0], grid.points[-1]

    def random_sharp(partition: Partition) -> Germ:
        return sharp_germ(sys, partition,
                          partition_algebra(sys, partition).random_element(rng))

    # split-then-merge round trips over the full interval
    base = Partition([lo, hi])
    for cut in grid.points[1:-1]:
        g = random_sharp(base)
        split = sharp_comultiplication(sys, g, cut)
        report.residual_record(
            "interval_split_round_trip",
            "splitting at s then merging reproduces the germ",
            {"I": base, "s": cut},
            germ_distance(sys, split.merged(), g), tol.eps,
        )
    # interval embedding functoriality over strictly nested interval triples
    intervals = grid.pairs()
    nested = [
        (a, b, c) for a in intervals for b in intervals for c in intervals
        if (b[0] <= a[0] and a[1] <= b[1] and (a != b))
        and (c[0] <= b[0] and b[1] <= c[1] and (b != c))
    ]
    if setup.unit is not None:
        for (q, r), (s, t), (u, v) in nested:
            g = random_sharp(Partition([q, r]))
            via = sharp_embedding(sys, setup.unit,
                                  sharp_embedding(sys, setup.unit, g, s, t), u, v)
            direct = sharp_embedding(sys, setup.unit, g, u, v)
            report.residual_record(
                "interval_embedding_functorial",
                "embed[(s,t)->(u,v)] o embed[(q,r)->(s,t)] = embed[(q,r)->(u,v)]",
                {"inner": Partition([q, r]), "mid": Partition([s, t]),
                 "outer": Partition([u, v])},
                germ_distance(sys, via, direct, unit=setup.unit), tol.eps,
            )
        # germ-encoding consistency: direct padded germ vs refine-then-embed route
        for (s, t) in intervals:
            if (s, t) == (lo, hi):
                continue
            part = Partition([s, t])
            x = partition_algebra(sys, part).random_element(rng)
            direct = cross_germ(sys, part, x)
            refined = Partition(sorted({s, t} | {p for p in grid.points if s < p < t}))
            pushed = sharp_germ(sys, refined,
                                push_germ(sys, None, sharp_germ(sys, part, x), refined))
            embedded = sharp_embedding(sys, setup.unit, pushed, lo, hi)
            route = cross_germ(sys, embedded.partition, embedded.element)
            report.residual_record(
                "germ_encoding_consistency",
                "padded germ of x = refine-then-embed representative of x",
                {"I": part}, germ_distance(sys, direct, route, unit=setup.unit),
                tol.eps,
            )
        # one-parameter comultiplication: deformed co-associativity
        interior = grid.points[1:-1]
        for idx_r, r in enumerate(interior):
            for s in interior[idx_r + 1:]:
                g = cross_germ(sys, Partition([lo, hi]),
                               partition_algebra(sys, Partition([lo, hi]))
                               .random_element(rng))
                res = one_param_coassociativity_residual(sys, setup.unit, g, r, s)
                report.residual_record(
                    "one_param_deformed_coassociativity",
                    "(D_r (x) id) D_s = (id (x) D_s) D_r on germs",
                    {"r": r, "s": s}, res, tol.eps,
                )
        # group-like unit germ
        ref = unit_germ(sys, setup.unit, Partition([lo, grid.points[1]]))
        for (s, t) in intervals:
            part = Partition([s, t])
            pg = unit_germ(sys, setup.unit, part)
            report.residual_record(
                "unit_germ_interval_independent",
                "the padded germ of p(s,t) does not depend on (s,t)",
                {"I": part}, germ_distance(sys, pg, ref, unit=setup.unit), tol.eps,
            )
        for s in grid.points[1:-1]:
            split = one_param_comultiplication(sys, setup.unit, ref, s)
            expected = unit_on_partition(setup.unit, split.joint_partition)
            report.residual_record(
                "unit_germ_group_like", "D_s(p) = p (x) p",
                {"s": s}, split.element.distance(expected), tol.eps,
            )
        # germ arithmetic is representative independent
        for cut in grid.points[1:-1]:
            part_a = Partition([lo, hi])
            part_b = Partition([lo, cut, hi])
            x = partition_algebra(sys, part_a).random_element(rng)
            g_a = sharp_germ(sys, part_a, x)
            g_b = sharp_germ(sys, part_b, push_germ(sys, None, g_a, part_b))
            other = random_sharp(part_b)
            for name, op in (("sum", germ_add), ("product", germ_mul)):
                report.residual_record(
                    f"germ_{name}_representative_independent",
                    f"the germ {name} does not depend on the representative",
                    {"I": part_a, "J": part_b, "s": cut},
                    germ_distance(sys, op(sys, g_a, other), op(sys, g_b, other)),
                    tol.eps,
                )
    return report


def brute_force_gram(alg: FiniteCStarAlgebra, phi: LinearFunctional) -> np.ndarray:
    """[phi(e_b* e_a)] over the matrix units, from their products.

    No structure of the Gram matrix is reused: for each b, e_b* is multiplied
    blockwise into every e_a at once and phi is evaluated on the products as
    sum_k Tr(rho_k x_k).
    """
    dim = alg.dim
    basis = np.eye(dim, dtype=complex)
    units = [basis[:, off:off + n * n].reshape(dim, n, n)
             for n, off in zip(alg.blocks, block_offsets(alg.blocks))]
    brute = np.empty((dim, dim), dtype=complex)
    for b in range(dim):
        brute[b] = sum(
            np.einsum("ij,aji->a", rho, u[b].conj().T @ u)
            for rho, u in zip(phi.densities, units)
        )
    return brute


def associativity_residual(phi: LinearFunctional) -> float:
    """max_abs of (phi (x) phi) (x) phi - phi (x) (phi (x) phi), streamed.

    Every entry of the triple density is compared, with the same np.kron
    products that ``functional_tensor`` forms, but one block triple and one
    row of the pair density at a time: row (p, q) of block (i, j) against
    rows q*nk..(q+1)*nk of block (j, k), so no triple density is held whole.
    """
    pair = functional_tensor(phi, phi).densities
    rhos = phi.densities
    nb = len(rhos)
    res = 0.0
    for i, ri in enumerate(rhos):
        for j, rj in enumerate(rhos):
            left = pair[i * nb + j]
            nj = rj.shape[0]
            for k, rk in enumerate(rhos):
                right = pair[j * nb + k]
                nk = rk.shape[0]
                for p in range(ri.shape[0]):
                    for q in range(nj):
                        lhs = np.kron(left[p * nj + q], rk)
                        rhs = np.kron(ri[p], right[q * nk:(q + 1) * nk])
                        res = max(res, max_abs(lhs - rhs))
    return res


def run_algebra(setup: Setup, rng) -> Report:
    sys = setup.system
    tol = setup.tol
    report = Report()
    fam = setup.counit
    for (s, t) in sys.grid.pairs():
        alg = sys.alg(s, t)
        phi = fam.phi(s, t) if fam is not None else trace_functional(alg, normalized=True)
        report.residual_record(
            "functional_tensor_associative",
            "(phi (x) phi) (x) phi = phi (x) (phi (x) phi)",
            {"s": s, "t": t}, associativity_residual(phi), tol.eps,
        )
        data = gns(alg, phi, tol)
        brute = brute_force_gram(alg, phi)
        rank = numerical_rank(brute)
        report.add(CheckRecord(
            check="gns_dimension_matches_brute_force_gram_rank",
            law="dim H_phi = rank of [phi(e_b* e_a)]",
            params={"s": s, "t": t, "dim": data.dim, "oracle_rank": rank},
            passed=data.dim == rank,
        ))
        report.residual_record(
            "gns_inner_product_reproduction", "<eta(x), eta(y)> = phi(y* x)",
            {"s": s, "t": t}, max_abs(data.eta.conj().T @ data.eta - brute), tol.eps,
        )
    # rejection of non-states
    alg0 = sys.alg(*sys.grid.pairs()[0])
    bad = trace_functional(alg0, normalized=False)
    total = sum(alg0.blocks)
    rejected = False
    if total > 1:
        try:
            gns(alg0, bad, tol)
        except ValueError:
            rejected = True
    else:
        rejected = True  # the unnormalized trace is a state only in total dimension 1
    report.add(CheckRecord(
        check="gns_rejects_non_states", law="the GNS construction requires a state",
        params={}, passed=rejected,
    ))
    return report


def run_gns(setup: Setup, rng) -> Report:
    sys = setup.system
    tol = setup.tol
    report = Report()
    if setup.counit is None or not setup.counit.is_counit(tol):
        report.add(CheckRecord(
            check="gns_suite_needs_counit", law="GNS systems are built from co-units",
            params={}, passed=False, detail="no co-unit configured",
        ))
        return report
    fam = setup.counit
    try:
        gsys = gns_system(sys, fam, tol)
    except GnsIsometryError as exc:
        r, s, t = exc.triple
        report.add(CheckRecord(
            check="gns_system_isometry", law="V[r,s,t] of the GNS system is an isometry",
            params={"r": r, "s": s, "t": t}, passed=False, residual=exc.residual,
            detail="the co-unit family is not co-multiplicative",
        ))
        return report
    # gns_system tests isometry at a looser threshold than tol, and the dilated
    # functional is well defined only on a co-multiplicative family
    comult = check_comultiplicative(sys, fam, tol)
    if not comult.passed:
        report.records.extend(comult.failures())
        return report
    hs = gsys.hilbert_system()
    report.extend(check_hilbert_axioms(hs, tol))
    if setup.hilbert is not None and sys.kind == "diagonal":
        for (r, s, t) in sys.grid.triples():
            report.residual_record(
                "gns_isometry_recovers_generator", "V[r,s,t] = U[r,s,t] entrywise",
                {"r": r, "s": s, "t": t},
                max_abs(gsys.isometries[(r, s, t)] - setup.hilbert.u(r, s, t)),
                tol.eps,
            )
    # dilated functional evaluation is representative independent
    germ_phi = GermFunctional(fam)
    sharp = _sharp_partitions(setup)
    pairs = refinement_pairs(sharp)
    for base, fine in pairs:
        if base != sharp[0]:
            continue
        x = partition_algebra(sys, base).random_element(rng)
        g1 = sharp_germ(sys, base, x)
        g2 = sharp_germ(sys, fine, push_germ(sys, None, g1, fine))
        report.residual_record(
            "dilated_functional_representative_independent",
            "the dilated functional agrees on equivalent representatives",
            {"I": base, "J": fine}, abs(germ_phi(g1) - germ_phi(g2)), tol.eps,
        )
    if setup.unit is not None:
        normalized = _counit_normalizes_unit(setup)
        report.add(CheckRecord(
            check="counit_normalization_on_unit",
            law="the germ state exists iff phi(s,t)(p(s,t)) = 1",
            params={}, passed=True,
            detail="normalized" if normalized else "not normalized; germ state skipped",
        ))
        if normalized:
            report.residual_record(
                "gns_unit_vectors",
                "eta(p) are unit vectors with V eta(p(r,t)) = eta(p(r,s)) (x) eta(p(s,t))",
                {}, gns_unit_vector_residual(sys, gsys, setup.unit), tol.eps,
            )
            phi = build_idempotent_state(sys, setup.unit, fam, tol,
                                         max_interior=min(2, setup.max_interior_points))
            marg = marginal_states(phi, sys)
            res = max(
                max_abs(marg.phi(s, t).row() - fam.phi(s, t).row())
                for (s, t) in sys.grid.pairs()
            )
            report.residual_record(
                "idempotent_state_marginal_round_trip",
                "the marginals of the germ state are the original co-unit",
                {}, res, 1e-12,
            )
    report.extend(dilation_isomorphism_check(sys, fam, pairs, tol, unit=setup.unit,
                                             negative_control=True))
    return report


def run_commutative(setup: Setup, rng) -> Report:
    tol_eps = setup.tol.eps
    report = Report()

    def exact_model_checks(mult: FiniteMultSystem, mu: dict, label: str,
                           unit_points: bool) -> None:
        rep = check_mult_system(mult)
        report.extend(rep)
        report.extend(check_measure_family(mult, mu, tol_eps))
        cstar = to_cstar(mult)
        ones = trivial_unit(cstar)
        report.add(CheckRecord(
            check="all_ones_indicator_is_unit",
            law="the indicator of the whole space is a unit",
            params={"model": label}, passed=check_unit(cstar, ones, setup.tol).passed,
        ))
        if unit_points:
            report.add(CheckRecord(
                check="singleton_indicator_is_unit",
                law="the indicator of a compatible point family is a unit",
                params={"model": label},
                passed=check_unit(cstar, indicator_unit(cstar, 0), setup.tol).passed,
            ))
        grid = mult.grid
        pairs = refinement_pairs(
            enumerate_all_partitions(grid, min(4, setup.max_interior_points + 2)))
        for coarse, fine in pairs:
            point_map = chi_cross(mult, coarse, fine)
            lifted = superop_from_point_map(point_map, space_on_partition(mult, coarse))
            alg_map = delta_cross(cstar, ones, coarse, fine)
            exact = np.array_equal(lifted.matrix, alg_map.matrix)
            report.add(CheckRecord(
                check="partition_map_duality_exact",
                law="pullback of the point-level map = algebra-level connecting map",
                params={"model": label, "I": coarse, "J": fine}, passed=exact,
                exact_discrepancy="0" if exact else "1",
            ))
        for coarse, fine in pairs:
            disc = measure_projectivity_discrepancy(mult, mu, coarse, fine)
            report.add(CheckRecord(
                check="measure_projectivity_under_point_maps",
                law="mu_I = pushforward of mu_J along the partition point map",
                params={"model": label, "I": coarse, "J": fine}, passed=disc == 0,
                exact_discrepancy=str(disc),
            ))
        full = Partition(list(grid.points))
        joint = measure_on_partition(mu, full)
        for s in full.interior:
            disc = split_measure_idempotence(mult, joint, full, s)
            report.add(CheckRecord(
                check="point_split_measure_idempotence",
                law="the partition-level measure factorizes at every cut",
                params={"model": label, "K": full, "s": s}, passed=disc == 0,
                exact_discrepancy=str(disc),
            ))
            n = space_on_partition(mult, full)
            ok = True
            for x in range(n):
                left, right = point_split(mult, full, x, s)
                ok &= point_merge(mult, left, right) == (full, x)
            report.add(CheckRecord(
                check="point_split_merge_round_trip",
                law="splitting a coordinate tuple at s then gluing is the identity",
                params={"model": label, "K": full, "s": s}, passed=ok,
            ))

    glue_grid = Grid([1, 2, 3, 4, 5])
    glue = glue_system(glue_grid, FiniteSpace(2))
    bern = (Fraction(1, 3), Fraction(2, 3))
    glue_mu = {}
    for (s, t) in glue_grid.pairs():
        m = (Fraction(1),)
        for _ in glue_grid.cells(s, t):
            m = tuple(x * y for x in m for y in bern)
        glue_mu[(s, t)] = m
    exact_model_checks(glue, glue_mu, "glue_base2_bernoulli_1_3", unit_points=True)

    z2_grid = Grid([1, 2, 3, 4])
    z2 = modular_addition_system(z2_grid, 2)
    uniform = {pair: (Fraction(1, 2), Fraction(1, 2)) for pair in z2_grid.pairs()}
    exact_model_checks(z2, uniform, "z2_addition_uniform", unit_points=False)

    # constructed counterexample: point mass against uniform cells
    broken = dict(uniform)
    r0, t0 = z2_grid.points[0], z2_grid.points[2]
    broken[(r0, t0)] = (Fraction(1), Fraction(0))
    rep = check_measure_family(z2, broken, tol_eps)
    worst = max(
        (Fraction(r.exact_discrepancy) for r in rep.records
         if r.exact_discrepancy is not None), default=Fraction(0),
    )
    report.add(CheckRecord(
        check="measure_law_counterexample_detected",
        law="a point mass cannot be the pushforward of uniform cells",
        params={"pair": Partition([r0, t0])},
        passed=(not rep.passed) and worst == Fraction(1, 2),
        exact_discrepancy=str(worst),
    ))

    if setup.mult_system is not None and setup.measures is not None:
        exact_model_checks(setup.mult_system, setup.measures, "configured",
                           unit_points=False)
    elif setup.mult_system is not None:
        report.extend(check_mult_system(setup.mult_system))
    return report


def _permutation_family(sys: TensorialSystem, head: list[int]) -> MorphismFamily:
    """Conjugation of every pair algebra M_d by the basis permutation starting with ``head``."""
    d = sys.payload["d"]
    perm = np.eye(d, dtype=complex)[head + list(range(len(head), d))]
    return MorphismFamily({pair: superop_from_conjugation(perm) for pair in sys.algebras})


def run_morphism(setup: Setup, rng) -> Report:
    sys = setup.system
    tol = setup.tol
    report = Report()
    identity = MorphismFamily({pair: identity_superop(alg.blocks)
                               for pair, alg in sys.algebras.items()})
    families = [("identity", identity, True)]
    if sys.kind == "diagonal" and sys.payload["d"] >= 3:
        families.append(("permutation_fixing_the_unit", _permutation_family(sys, [0, 2, 1]),
                         True))
    sharp = _sharp_partitions(setup)
    for name, fam, preserves_unit in families:
        rep = check_morphism(sys, sys, fam, tol)
        for rec in rep.records:
            rec.params = {"morphism": name, **rec.params}
        report.extend(rep)
        for coarse, fine in refinement_pairs(sharp):
            res = lifted_morphism_residual(sys, sys, fam, coarse, fine,
                                           setup.unit, setup.unit)
            report.residual_record(
                "lifted_morphism_intertwines_refinement",
                "theta_J D[I,J] = D[I,J] theta_I for the cellwise tensor lift",
                {"morphism": name, "I": coarse, "J": fine}, res, tol.eps,
            )
        if preserves_unit and setup.unit is not None:
            cross = [p for p in _cross_partitions(setup)
                     if p.endpoints != (sys.grid.points[0], sys.grid.points[-1])][:4]
            full = Partition(list(sys.grid.points))
            for coarse in cross:
                res = lifted_morphism_residual(sys, sys, fam, coarse, full,
                                               setup.unit, setup.unit)
                report.residual_record(
                    "lifted_morphism_intertwines_padding",
                    "theta_J (padded D[I,J]) = (padded D[I,J]) theta_I",
                    {"morphism": name, "I": coarse, "J": full}, res, tol.eps,
                )
    # negative control: a unit-moving automorphism breaks the padded intertwining
    if sys.kind == "diagonal" and sys.payload["d"] >= 2 and setup.unit is not None \
            and len(sys.grid.points) >= 3:
        theta = _permutation_family(sys, [1, 0])
        rep = check_morphism(sys, sys, theta, tol)
        report.add(CheckRecord(
            check="unit_moving_morphism_still_intertwines",
            law="basis permutations intertwine the diagonal comultiplication",
            params={"morphism": "swap_first_two"}, passed=rep.passed,
            residual=rep.max_residual,
        ))
        lo = sys.grid.points[0]
        coarse = Partition([lo, sys.grid.points[1]])
        full = Partition(list(sys.grid.points))
        res = lifted_morphism_residual(sys, sys, theta, coarse, full,
                                       setup.unit, setup.unit)
        report.residual_record(
            "unit_moving_morphism_fails_padding_negative_control",
            "padding intertwines only when the unit is preserved",
            {"morphism": "swap_first_two", "I": coarse, "J": full}, res, tol.eps,
            expect_fail=True, fail_floor=1e-4,
        )
    return report


SUITE_RUNNERS = {
    "axioms": run_axioms,
    "partition": run_partition,
    "dilation": run_dilation,
    "algebra": run_algebra,
    "gns": run_gns,
    "commutative": run_commutative,
    "morphism": run_morphism,
}
ALL_SUITES = tuple(SUITE_RUNNERS)
