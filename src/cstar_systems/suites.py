"""The identity-check suites that ``verify`` runs on a resolved ``Setup``.

Each runner takes the ``Setup`` and a random generator seeded per suite, and
returns a ``Report``; ``SUITE_RUNNERS`` maps the suite names of ``ALL_SUITES``
to them.  ``brute_force_gram`` and ``associativity_residual`` are independent
oracles: they share no code with the GNS construction or the functional
tensor they check.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
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
    DEFAULT_TOL,
    STREAM_ENTRIES,
    block_offsets,
    composite_residual,
    entry_coords,
    exact_real,
    identity_superop,
    max_abs,
    numerical_rank,
    superop_tensor,
    tensor_blocks,
)
from .partition_calculus import (
    Germ,
    comultiplication,
    delta_cross,
    delta_interval_to_partition,
    delta_refinement,
    germ,
    germ_binop,
    germ_distance,
    interval_embedding,
    interval_map_left_nested,
    interval_map_right_nested,
    lifted_morphism_residual,
    one_param_coassociativity_residual,
    partition_algebra,
    push_germ,
    state_on_partition,
    unit_germ,
    unit_on_partition,
)
from .report import CheckRecord, Report
from .states_gns import (
    GermFunctional,
    GermStateError,
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
    """Everything a suite might need, resolved from the configuration; ``tol`` is the
    config's ``tolerance``, a plain float."""

    system: TensorialSystem
    max_interior_points: int
    hilbert: Optional[HilbertSystem] = None
    unit: Optional[UnitFamily] = None
    counit: Optional[FunctionalFamily] = None
    mult_system: Optional[FiniteMultSystem] = None
    measures: Optional[dict] = None
    expected_class: Optional[str] = None
    tol: float = DEFAULT_TOL
    morphisms: tuple[tuple[str, MorphismFamily], ...] = ()  # besides the identity


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
        abs(setup.counit.phi(s, t)(setup.unit.p(s, t)) - 1.0) <= setup.tol
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
    sys, tol = setup.system, setup.tol
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
            np.maximum(composite_residual([rec], left), composite_residual([rec], right)),
            tol,
        )
    for coarse, fine in refinement_pairs(sharp):
        res = composite_residual(
            [delta_interval_to_partition(sys, fine)],
            [delta_refinement(sys, coarse, fine), delta_interval_to_partition(sys, coarse)])
        report.residual_record(
            "interval_map_factors_through_refinement",
            "D[{s,t},J] = D[I,J] D[{s,t},I]",
            {"I": coarse, "J": fine}, res, tol,
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
                tol,
            )
        if setup.unit is not None:
            lhs_p = delta_refinement(sys, coarse, fine).apply(
                unit_on_partition(setup.unit, coarse).vec())
            report.residual_record(
                "unit_coherence_under_refinement", "D[I,J](p_I) = p_J",
                {"I": coarse, "J": fine},
                max_abs(lhs_p - unit_on_partition(setup.unit, fine).vec()), tol,
            )
        if setup.counit is not None:
            row = delta_refinement(sys, coarse, fine).rapply(
                state_on_partition(setup.counit, fine).row())
            report.residual_record(
                "state_coherence_under_refinement", "phi_J o D[I,J] = phi_I",
                {"I": coarse, "J": fine},
                max_abs(row - state_on_partition(setup.counit, coarse).row()), tol,
            )
    for i, j, k in refinement_chains(sharp):
        res = composite_residual([delta_refinement(sys, i, k)],
                                 [delta_refinement(sys, j, k), delta_refinement(sys, i, j)])
        report.residual_record(
            "refinement_cocycle", "D[I,K] = D[J,K] D[I,J]",
            {"I": i, "J": j, "K": k}, res, tol,
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
                    tol,
                )
            lhs_p = delta_cross(sys, setup.unit, coarse, fine).apply(
                unit_on_partition(setup.unit, coarse).vec())
            report.residual_record(
                "unit_coherence_under_padding", "padded D[I,J](p_I) = p_J",
                {"I": coarse, "J": fine},
                max_abs(lhs_p - unit_on_partition(setup.unit, fine).vec()), tol,
            )
        for i, j, k in refinement_chains(cross):
            res = composite_residual(
                [delta_cross(sys, setup.unit, i, k)],
                [delta_cross(sys, setup.unit, j, k), delta_cross(sys, setup.unit, i, j)])
            report.residual_record(
                "padded_cocycle", "padded D[I,K] = padded D[J,K] padded D[I,J]",
                {"I": i, "J": j, "K": k}, res, tol,
            )
    return report


def run_dilation(setup: Setup, rng) -> Report:
    sys, tol = setup.system, setup.tol
    report = Report()
    grid = sys.grid
    lo, hi = grid.points[0], grid.points[-1]

    def random_germ(partition: Partition) -> Germ:
        return germ(sys, partition, partition_algebra(sys, partition).random_element(rng))

    # split-then-merge round trips over the full interval
    base = Partition([lo, hi])
    for cut in grid.points[1:-1]:
        g = random_germ(base)
        split = comultiplication(sys, None, g, cut)
        report.residual_record(
            "interval_split_round_trip",
            "splitting at s then merging reproduces the germ",
            {"I": base, "s": cut},
            germ_distance(sys, split.merged(), g), tol,
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
            g = random_germ(Partition([q, r]))
            via = interval_embedding(sys, setup.unit,
                                     interval_embedding(sys, setup.unit, g, s, t), u, v)
            direct = interval_embedding(sys, setup.unit, g, u, v)
            report.residual_record(
                "interval_embedding_functorial",
                "embed[(s,t)->(u,v)] o embed[(q,r)->(s,t)] = embed[(q,r)->(u,v)]",
                {"inner": Partition([q, r]), "mid": Partition([s, t]),
                 "outer": Partition([u, v])},
                germ_distance(sys, via, direct, unit=setup.unit), tol,
            )
        # germ-encoding consistency: direct padded germ vs refine-then-embed route
        for (s, t) in intervals:
            if (s, t) == (lo, hi):
                continue
            part = Partition([s, t])
            x = partition_algebra(sys, part).random_element(rng)
            direct = germ(sys, part, x)
            refined = Partition(sorted({s, t} | {p for p in grid.points if s < p < t}))
            pushed = germ(sys, refined, push_germ(sys, None, direct, refined))
            route = interval_embedding(sys, setup.unit, pushed, lo, hi)
            report.residual_record(
                "germ_encoding_consistency",
                "padded germ of x = refine-then-embed representative of x",
                {"I": part}, germ_distance(sys, direct, route, unit=setup.unit),
                tol,
            )
        # one-parameter comultiplication: deformed co-associativity
        interior = grid.points[1:-1]
        for idx_r, r in enumerate(interior):
            for s in interior[idx_r + 1:]:
                g = random_germ(Partition([lo, hi]))
                res = one_param_coassociativity_residual(sys, setup.unit, g, r, s)
                report.residual_record(
                    "one_param_deformed_coassociativity",
                    "(D_r (x) id) D_s = (id (x) D_s) D_r on germs",
                    {"r": r, "s": s}, res, tol,
                )
        # group-like unit germ
        ref = unit_germ(sys, setup.unit, Partition([lo, grid.points[1]]))
        for (s, t) in intervals:
            part = Partition([s, t])
            pg = unit_germ(sys, setup.unit, part)
            report.residual_record(
                "unit_germ_interval_independent",
                "the padded germ of p(s,t) does not depend on (s,t)",
                {"I": part}, germ_distance(sys, pg, ref, unit=setup.unit), tol,
            )
        for s in grid.points[1:-1]:
            split = comultiplication(sys, setup.unit, ref, s)
            expected = unit_on_partition(setup.unit, split.joint_partition)
            report.residual_record(
                "unit_germ_group_like", "D_s(p) = p (x) p",
                {"s": s}, split.element.distance(expected), tol,
            )
        # germ arithmetic is representative independent
        for cut in grid.points[1:-1]:
            part_a = Partition([lo, hi])
            part_b = Partition([lo, cut, hi])
            x = partition_algebra(sys, part_a).random_element(rng)
            g_a = germ(sys, part_a, x)
            g_b = germ(sys, part_b, push_germ(sys, None, g_a, part_b))
            other = random_germ(part_b)
            for name, op in (("sum", operator.add), ("product", operator.mul)):
                report.residual_record(
                    f"germ_{name}_representative_independent",
                    f"the germ {name} does not depend on the representative",
                    {"I": part_a, "J": part_b, "s": cut},
                    germ_distance(sys, germ_binop(sys, g_a, other, op),
                                  germ_binop(sys, g_b, other, op)),
                    tol,
                )
    return report


def brute_force_gram(alg: FiniteCStarAlgebra, phi: LinearFunctional) -> np.ndarray:
    """[phi(e_b* e_a)] over the matrix units, from their products.

    No structure of the Gram matrix is reused: every product e_b* e_a is
    formed and phi is evaluated on it as sum_k Tr(rho_k x_k).  On block k of
    size n, the units' parts ``u`` (dim, n, n) give one GEMM per chunk of b,
    the rows conj(u[b]).T times the columns of every u[a], at most
    ``STREAM_ENTRIES`` entries, and one contraction with rho_k.  A real
    density (``exact_real``) is contracted in float64.
    """
    dim = alg.dim
    basis = np.eye(dim)
    brute = np.zeros((dim, dim), dtype=complex)
    for rho, n, off in zip(phi.densities, alg.blocks, block_offsets(alg.blocks)):
        rho = exact_real(rho)
        u = basis[:, off:off + n * n].reshape(dim, n, n)
        left = np.ascontiguousarray(u.conj().transpose(0, 2, 1)).reshape(dim * n, n)
        right = np.ascontiguousarray(u.transpose(1, 0, 2)).reshape(n, dim * n)
        rows = max(1, STREAM_ENTRIES // (dim * n * n))
        for b0 in range(0, dim, rows):
            b1 = min(dim, b0 + rows)
            # (e_b* e_a)_k at [b, i, a, l]
            prods = (left[b0 * n:b1 * n] @ right).reshape(b1 - b0, n, dim, n)
            brute[b0:b1] += np.einsum("bial,li->ba", prods, rho)
    return brute


def associativity_residual(phi: LinearFunctional) -> float:
    """max_abs of (phi (x) phi) (x) phi - phi (x) (phi (x) phi), streamed.

    Let x be the vec of the density and S its nonzero entries.  Over
    every triple (u, v, w) of entries of x, the triple density holds
    (x_u x_v) x_w on the left and x_u (x_v x_w) on the right, where x_u x_v
    is the entry of the pair density ``functional_tensor`` forms.  Its
    entries over S, P[u, v], are read from its vec where np.kron would put
    them, at positions worked out here, not by the index map it checks.  The
    triple entries over S are compared in chunks of at most
    ``STREAM_ENTRIES``: P[u, v] x_S against x_u P[v, :].  Each is the one
    product np.kron forms, one scalar times a row, as in np.kron(pair, rho)
    and np.kron(rho, pair).  An entry off S has a zero factor, so for finite
    x it is exactly +-0 on both sides and the residual is that of the whole
    triple density; a NaN or an infinity in x makes it NaN.  Real densities
    (``exact_real``) are multiplied in float64.
    """
    blocks = phi.algebra.blocks
    x = exact_real(phi.density.vec())
    support = np.flatnonzero(x)
    xs = x[support]
    # x_u = rho_i[r, c] and x_v = rho_j[r', c'] meet in block (i, j) of the pair
    # density, kron(rho_i, rho_j), at row r n_j + r' and column c n_j + c'
    block, row, col, size, _ = (c[support] for c in entry_coords(blocks))
    offsets = np.reshape(block_offsets(tensor_blocks(blocks, blocks)), (len(blocks),) * 2)
    n_j = size[None, :]
    pos = (offsets[block[:, None], block[None, :]] + col[:, None] * n_j + col[None, :]
           + (row[:, None] * n_j + row[None, :]) * size[:, None] * n_j)
    p = exact_real(functional_tensor(phi, phi).density.vec()[pos])
    n = support.size
    # a chunk holds `rows` values of u, each with `cols` values of v and every w
    cols = min(n, max(1, STREAM_ENTRIES // max(1, n)))
    rows = max(1, STREAM_ENTRIES // max(1, cols * n))
    worst = 0.0
    for a0 in range(0, n, rows):
        left_x = xs[a0:a0 + rows, None, None]
        for b0 in range(0, n, cols):
            diff = p[a0:a0 + rows, b0:b0 + cols, None] * xs[None, None, :]
            diff -= left_x * p[None, b0:b0 + cols, :]
            worst = np.maximum(worst, max_abs(diff))
    return float(worst)


def run_algebra(setup: Setup, rng) -> Report:
    sys, tol = setup.system, setup.tol
    report = Report()
    fam = setup.counit
    for (s, t) in sys.grid.pairs():
        alg = sys.alg(s, t)
        phi = fam.phi(s, t) if fam is not None else trace_functional(alg, normalized=True)
        report.residual_record(
            "functional_tensor_associative",
            "(phi (x) phi) (x) phi = phi (x) (phi (x) phi)",
            {"s": s, "t": t}, associativity_residual(phi), tol,
        )
        try:
            data = gns(alg, phi, tol)
        except ValueError as exc:  # not a state: no GNS space to compare with the oracle
            report.add(CheckRecord(
                check="gns_needs_state", law="the GNS construction requires a state",
                params={"s": s, "t": t}, passed=False, detail=str(exc),
            ))
            continue
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
            {"s": s, "t": t}, max_abs(data.eta.conj().T @ data.eta - brute), tol,
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


# The bound of ``idempotent_state_marginal_round_trip``, whatever the config's tolerance.
MARGINAL_ROUND_TRIP_TOL = 1e-12


def run_gns(setup: Setup, rng) -> Report:
    sys, tol = setup.system, setup.tol
    report = Report()
    if setup.counit is None or not setup.counit.is_counit(tol):
        report.add(CheckRecord(
            check="gns_suite_needs_counit", law="GNS systems are built from co-units",
            params={}, passed=False,
            detail="no co-unit configured" if setup.counit is None
            else "the co-unit is not a family of states",
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
    # V = U can hold only where the co-unit is pure, so its GNS spaces are the H(s,t)
    if setup.hilbert is not None and all(v.shape == setup.hilbert.u(*triple).shape
                                         for triple, v in gsys.isometries.items()):
        for (r, s, t) in sys.grid.triples():
            report.residual_record(
                "gns_isometry_recovers_generator", "V[r,s,t] = U[r,s,t] entrywise",
                {"r": r, "s": s, "t": t},
                max_abs(gsys.isometries[(r, s, t)] - setup.hilbert.u(r, s, t)),
                tol,
            )
    # dilated functional evaluation is representative independent
    germ_phi = GermFunctional(fam)
    sharp = _sharp_partitions(setup)
    pairs = refinement_pairs(sharp)
    for base, fine in pairs:
        if base != sharp[0]:
            continue
        x = partition_algebra(sys, base).random_element(rng)
        g1 = germ(sys, base, x)
        g2 = germ(sys, fine, push_germ(sys, None, g1, fine))
        report.residual_record(
            "dilated_functional_representative_independent",
            "the dilated functional agrees on equivalent representatives",
            {"I": base, "J": fine}, abs(germ_phi(g1) - germ_phi(g2)), tol,
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
                {}, gns_unit_vector_residual(gsys, setup.unit), tol,
            )
            try:
                phi = build_idempotent_state(sys, setup.unit, fam, tol,
                                             max_interior=min(2, setup.max_interior_points))
            except GermStateError as exc:
                report.add(CheckRecord(
                    check="idempotent_state_checks",
                    law="the germ state is well defined and idempotent",
                    params={}, passed=False, residual=exc.record.residual, detail=str(exc),
                ))
            else:
                marg = marginal_states(phi, sys)
                res = np.max([max_abs(marg.phi(s, t).row() - fam.phi(s, t).row())
                              for (s, t) in sys.grid.pairs()])
                report.residual_record(
                    "idempotent_state_marginal_round_trip",
                    "the marginals of the germ state are the original co-unit",
                    {}, res, MARGINAL_ROUND_TRIP_TOL,
                )
    report.extend(dilation_isomorphism_check(sys, fam, pairs, tol, unit=setup.unit,
                                             negative_control=True))
    return report


def run_commutative(setup: Setup, rng) -> Report:
    report = Report()

    def exact_model_checks(mult: FiniteMultSystem, mu: dict, label: str,
                           unit_points: bool) -> None:
        rep = check_mult_system(mult)
        report.extend(rep)
        report.extend(check_measure_family(mult, mu, setup.tol))
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
        point_maps = [chi_cross(mult, coarse, fine) for coarse, fine in pairs]
        for (coarse, fine), point_map in zip(pairs, point_maps):
            lifted = superop_from_point_map(point_map, space_on_partition(mult, coarse))
            alg_map = delta_cross(cstar, ones, coarse, fine)
            exact = composite_residual([lifted], [alg_map]) == 0.0
            report.add(CheckRecord(
                check="partition_map_duality_exact",
                law="pullback of the point-level map = algebra-level connecting map",
                params={"model": label, "I": coarse, "J": fine}, passed=exact,
                exact_discrepancy="0" if exact else "1",
            ))
        measure = cache(partial(measure_on_partition, mu))
        for (coarse, fine), point_map in zip(pairs, point_maps):
            disc = measure_projectivity_discrepancy(point_map, measure(fine), measure(coarse))
            report.add(CheckRecord(
                check="measure_projectivity_under_point_maps",
                law="mu_I = pushforward of mu_J along the partition point map",
                params={"model": label, "I": coarse, "J": fine}, passed=disc == 0,
                exact_discrepancy=str(disc),
            ))
        full = Partition(list(grid.points))
        joint = measure(full)
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
    cells = Partition(glue_grid.points)
    bernoulli = dict.fromkeys(cells.pairs(), (Fraction(1, 3), Fraction(2, 3)))
    glue_mu = {(s, t): measure_on_partition(bernoulli, cells.restrict(s, t))
               for (s, t) in glue_grid.pairs()}
    exact_model_checks(glue, glue_mu, "glue_base2_bernoulli_1_3", unit_points=True)

    z2_grid = Grid([1, 2, 3, 4])
    z2 = modular_addition_system(z2_grid, 2)
    uniform = {pair: (Fraction(1, 2), Fraction(1, 2)) for pair in z2_grid.pairs()}
    exact_model_checks(z2, uniform, "z2_addition_uniform", unit_points=False)

    # constructed counterexample: point mass against uniform cells
    broken = dict(uniform)
    r0, t0 = z2_grid.points[0], z2_grid.points[2]
    broken[(r0, t0)] = (Fraction(1), Fraction(0))
    rep = check_measure_family(z2, broken, setup.tol)
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


def _fixes_unit(fam: MorphismFamily, unit: UnitFamily, tol: float) -> bool:
    """theta(s,t)(p(s,t)) = p(s,t) on every pair, within ``tol``."""
    return all(max_abs(fam.theta(*pair).apply(p.vec()) - p.vec()) <= tol
               for pair, p in unit.elements.items())


def run_morphism(setup: Setup, rng) -> Report:
    sys, tol, unit = setup.system, setup.tol, setup.unit
    report = Report()
    identity = MorphismFamily({pair: identity_superop(alg.blocks)
                               for pair, alg in sys.algebras.items()})
    sharp = _sharp_partitions(setup)
    full = Partition(list(sys.grid.points))
    for name, fam in [("identity", identity), *setup.morphisms]:
        rep = check_morphism(sys, sys, fam, tol)
        if unit is None or _fixes_unit(fam, unit, tol):
            for rec in rep.records:
                rec.params = {"morphism": name, **rec.params}
            report.extend(rep)
            for coarse, fine in refinement_pairs(sharp):
                report.residual_record(
                    "lifted_morphism_intertwines_refinement",
                    "theta_J D[I,J] = D[I,J] theta_I for the cellwise tensor lift",
                    {"morphism": name, "I": coarse, "J": fine},
                    lifted_morphism_residual(sys, sys, fam, coarse, fine, unit, unit), tol,
                )
            if unit is not None:
                cross = [p for p in _cross_partitions(setup) if p.endpoints != full.endpoints]
                for coarse in cross[:4]:
                    report.residual_record(
                        "lifted_morphism_intertwines_padding",
                        "theta_J (padded D[I,J]) = (padded D[I,J]) theta_I",
                        {"morphism": name, "I": coarse, "J": full},
                        lifted_morphism_residual(sys, sys, fam, coarse, full, unit, unit),
                        tol,
                    )
        elif len(sys.grid.points) >= 3:
            # negative control: a unit-moving automorphism breaks the padded intertwining
            report.add(CheckRecord(
                check="unit_moving_morphism_still_intertwines",
                law="basis permutations intertwine the diagonal comultiplication",
                params={"morphism": name}, passed=rep.passed, residual=rep.max_residual,
            ))
            coarse = Partition(sys.grid.points[:2])
            report.residual_record(
                "unit_moving_morphism_fails_padding_negative_control",
                "padding intertwines only when the unit is preserved",
                {"morphism": name, "I": coarse, "J": full},
                lifted_morphism_residual(sys, sys, fam, coarse, full, unit, unit), tol,
                expect_fail=True,
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
