"""Acceptance gate: every criterion at its stated tolerance, one line each.

Each test exercises one criterion end to end and registers a pass/fail line
printed in the terminal summary.  Tolerances are pinned here, not configured.
"""
import json
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import record_criterion
from cstar_systems.algebra import LinearFunctional, vector_state
from cstar_systems.cli import RunConfig, run
from cstar_systems.commutative import (
    FiniteSpace,
    check_measure_family,
    check_mult_system,
    chi_cross,
    glue_system,
    measure_on_partition,
    modular_addition_system,
    point_merge,
    point_split,
    space_on_partition,
    split_measure_idempotence,
    superop_from_point_map,
    to_cstar,
)
from cstar_systems.linalg import max_abs, superop_tensor
from cstar_systems.partition_calculus import (
    cross_germ,
    delta_cross,
    delta_interval_to_partition,
    delta_refinement,
    germ_distance,
    interval_map_left_nested,
    interval_map_right_nested,
    one_param_coassociativity_residual,
    one_param_comultiplication,
    partition_algebra,
    sharp_comultiplication,
    sharp_embedding,
    sharp_germ,
    state_on_partition,
    unit_on_partition,
)
from cstar_systems.states_gns import (
    build_idempotent_state,
    gns_system,
    gram_preservation_residual,
    idempotency_residual,
    marginal_states,
)
from cstar_systems.systems import (
    FunctionalFamily,
    Grid,
    check_comultiplicative,
    check_hilbert_axioms,
    check_system_axioms,
    check_unit,
    constant_functional_family,
    diagonal_system,
    enumerate_all_partitions,
    enumerate_partitions,
    glue_hilbert_system,
    standard_unit,
    trivial_unit,
)
from cstar_systems.timegrid import Partition

EPS = 1e-9
GRID6 = Grid([1, 2, 3, 4, 5, 6])
RNG = np.random.default_rng(2024)


def glue_fixture(grid, dims):
    hs, sys = glue_hilbert_system(grid, dims)
    cells = list(zip(grid.points, grid.points[1:]))
    density = {}
    for (a, b), d in zip(cells, dims):
        w = np.arange(1, d + 1, dtype=float)
        density[(a, b)] = np.diag(w / w.sum())
    functionals = {}
    for (s, t) in grid.pairs():
        rho = None
        for (a, b), dens in density.items():
            if s <= a and b <= t:
                rho = dens if rho is None else np.kron(rho, dens)
        functionals[(s, t)] = LinearFunctional(sys.alg(s, t), [rho])
    return hs, sys, standard_unit(sys), FunctionalFamily(functionals)


@pytest.fixture(scope="module")
def diagonal6():
    hs, sys = diagonal_system(GRID6, 2)
    return hs, sys, standard_unit(sys), constant_functional_family(sys, vector_state)


def test_criterion_1_axioms(diagonal6):
    """Co-associativity, homomorphism, unit and co-unit residuals < 1e-9; classes match."""
    start = time.perf_counter()
    passed = True

    hs, sys, unit, counit = diagonal6
    rep = check_system_axioms(sys)
    passed &= rep.passed and rep.max_residual < EPS
    passed &= rep.records[-1].detail == "subproduct"
    passed &= check_hilbert_axioms(hs).max_residual < EPS
    for fam_rep in (check_unit(sys, unit), check_comultiplicative(sys, counit)):
        passed &= fam_rep.passed and fam_rep.max_residual < EPS

    for grid, dims in ((GRID6, [2, 3, 2, 1, 1]), (Grid([1, 2, 3]), [3, 2])):
        ghs, gsys, gunit, gcounit = glue_fixture(grid, dims)
        rep = check_system_axioms(gsys)
        passed &= rep.passed and rep.max_residual < EPS
        passed &= rep.records[-1].detail == "product"
        passed &= check_hilbert_axioms(ghs).max_residual < EPS
        for fam_rep in (check_unit(gsys, gunit), check_comultiplicative(gsys, gcounit)):
            passed &= fam_rep.passed and fam_rep.max_residual < EPS

    elapsed = time.perf_counter() - start
    passed &= elapsed < 10.0
    record_criterion(
        f"criterion 1: system axioms and classification ({elapsed:.1f}s)", passed)
    assert passed


def test_criterion_2_partition_calculus(diagonal6):
    """Refinement-map laws over every partition pair with <= 4 interior points."""
    start = time.perf_counter()
    _, sys, unit, counit = diagonal6
    worst = 0.0

    sharp = enumerate_partitions(GRID6, F(1), F(6), 4)
    pairs = [(i, j) for i in sharp for j in sharp
             if i != j and set(i.points) <= set(j.points)]
    for coarse, fine in pairs:
        mapper = delta_refinement(sys, coarse, fine)
        worst = max(worst, max_abs(
            delta_interval_to_partition(sys, fine).matrix
            - mapper.matrix @ delta_interval_to_partition(sys, coarse).matrix))
        lo, hi = coarse.endpoints
        for u in coarse.interior:
            split = superop_tensor(
                delta_refinement(sys, coarse.restrict(lo, u), fine.restrict(lo, u)),
                delta_refinement(sys, coarse.restrict(u, hi), fine.restrict(u, hi)))
            worst = max(worst, max_abs(mapper.matrix - split.matrix))
        worst = max(worst, max_abs(
            mapper.apply(unit_on_partition(unit, coarse).vec())
            - unit_on_partition(unit, fine).vec()))
        worst = max(worst, max_abs(
            state_on_partition(counit, fine).row() @ mapper.matrix
            - state_on_partition(counit, coarse).row()))
    chains = [(i, j, k) for i in sharp for j in sharp for k in sharp
              if set(i.points) <= set(j.points) <= set(k.points) and i != j and j != k]
    for i, j, k in chains:
        worst = max(worst, max_abs(
            delta_refinement(sys, i, k).matrix
            - delta_refinement(sys, j, k).matrix @ delta_refinement(sys, i, j).matrix))

    cross = enumerate_all_partitions(GRID6, 6)
    cross_pairs = [(i, j) for i in cross for j in cross
                   if i != j and set(i.points) <= set(j.points)]
    for coarse, fine in cross_pairs:
        mapper = delta_cross(sys, unit, coarse, fine)
        worst = max(worst, max_abs(
            mapper.apply(unit_on_partition(unit, coarse).vec())
            - unit_on_partition(unit, fine).vec()))
        worst = max(worst, max_abs(
            state_on_partition(counit, fine).row() @ mapper.matrix
            - state_on_partition(counit, coarse).row()))
    cross_chains = [(i, j, k) for i in cross for j in cross for k in cross
                    if set(i.points) <= set(j.points) <= set(k.points)
                    and i != j and j != k]
    for i, j, k in cross_chains:
        worst = max(worst, max_abs(
            delta_cross(sys, unit, i, k).matrix
            - delta_cross(sys, unit, j, k).matrix @ delta_cross(sys, unit, i, j).matrix))

    elapsed = time.perf_counter() - start
    passed = worst < EPS and elapsed < 30.0
    record_criterion(
        f"criterion 2: partition calculus, worst residual {worst:.2e} ({elapsed:.1f}s)",
        passed)
    assert passed


def test_criterion_3_oracle_equivalence(diagonal6):
    """Recursive interval map = independent nested expansions, entrywise < 1e-9."""
    _, sys, _, _ = diagonal6
    _, glue_sys, _, _ = glue_fixture(Grid([1, 2, 3, 4, 5, 6]), [2, 3, 2, 1, 1])
    worst = 0.0
    for system in (sys, glue_sys):
        for part in enumerate_partitions(GRID6, F(1), F(6), 4):
            rec = delta_interval_to_partition(system, part).matrix
            worst = max(worst, max_abs(rec - interval_map_left_nested(system, part).matrix))
            worst = max(worst, max_abs(rec - interval_map_right_nested(system, part).matrix))
    passed = worst < EPS
    record_criterion(
        f"criterion 3: nested-expansion oracle equivalence, worst {worst:.2e}", passed)
    assert passed


def test_criterion_4_dilation_germs(diagonal6):
    """Split round trips, embedding functoriality, germ-encoding consistency < 1e-9."""
    _, sys, unit, _ = diagonal6
    worst = 0.0

    for part in (Partition([1, 6]), Partition([1, 3, 6]), Partition([2, 4, 5])):
        lo, hi = part.endpoints
        x = partition_algebra(sys, part).random_element(RNG)
        g = sharp_germ(sys, part, x)
        for cut in (p for p in GRID6.points if lo < p < hi):
            split = sharp_comultiplication(sys, g, cut)
            worst = max(worst, germ_distance(sys, split.merged(), g))

    intervals = GRID6.pairs()
    nested = [(a, b, c) for a in intervals for b in intervals for c in intervals
              if b[0] <= a[0] and a[1] <= b[1] and a != b
              and c[0] <= b[0] and b[1] <= c[1] and b != c]
    for (q, r), (s, t), (u, v) in nested:
        g = sharp_germ(sys, Partition([q, r]),
                       partition_algebra(sys, Partition([q, r])).random_element(RNG))
        via = sharp_embedding(sys, unit, sharp_embedding(sys, unit, g, s, t), u, v)
        direct = sharp_embedding(sys, unit, g, u, v)
        worst = max(worst, germ_distance(sys, via, direct, unit=unit))

    # generator germs: direct padded germ vs refine-then-embed representative
    for (s, t) in intervals:
        if (s, t) == (F(1), F(6)):
            continue
        part = Partition([s, t])
        x = partition_algebra(sys, part).random_element(RNG)
        refined = Partition([p for p in GRID6.points if s <= p <= t])
        pushed = sharp_germ(sys, refined, partition_algebra(sys, refined).from_vec(
            delta_refinement(sys, part, refined).apply(x.vec())))
        embedded = sharp_embedding(sys, unit, pushed, F(1), F(6))
        route = cross_germ(sys, embedded.partition, embedded.element)
        worst = max(worst, germ_distance(sys, cross_germ(sys, part, x), route, unit=unit))

    passed = worst < EPS
    record_criterion(f"criterion 4: dilation germ calculus, worst {worst:.2e}", passed)
    assert passed


def test_criterion_5_one_parameter_comultiplication(diagonal6):
    """Deformed co-associativity and the group-like unit germ on all interior pairs."""
    _, sys, unit, _ = diagonal6
    worst = 0.0
    interior = GRID6.points[1:-1]
    for part in (Partition([1, 6]), Partition([2, 5])):
        g = cross_germ(sys, part, partition_algebra(sys, part).random_element(RNG))
        lo, hi = part.endpoints
        for i, r in enumerate(interior):
            for s in interior[i + 1:]:
                worst = max(worst, one_param_coassociativity_residual(sys, unit, g, r, s))
    ref = cross_germ(sys, Partition([1, 2]), unit_on_partition(unit, Partition([1, 2])))
    for (s, t) in GRID6.pairs():
        part = Partition([s, t])
        pg = cross_germ(sys, part, unit_on_partition(unit, part))
        worst = max(worst, germ_distance(sys, pg, ref, unit=unit))
    for s in interior:
        split = one_param_comultiplication(sys, unit, ref, s)
        worst = max(worst, split.element.distance(
            unit_on_partition(unit, split.joint_partition)))
    passed = worst < EPS
    record_criterion(
        f"criterion 5: one-parameter comultiplication, worst {worst:.2e}", passed)
    assert passed


def test_criterion_6_states_and_gns(diagonal6):
    """Germ state, marginal round trip, GNS dimensions, V = U recovery."""
    hs, sys, unit, counit = diagonal6
    passed = True
    worst = 0.0

    phi = build_idempotent_state(sys, unit, counit)
    for part in (Partition([1, 2]), Partition([2, 4, 6])):
        g = cross_germ(sys, part, partition_algebra(sys, part).random_element(RNG))
        for cut in (F(3), F(5)):
            worst = max(worst, idempotency_residual(sys, unit, phi, g, cut))
    marg = marginal_states(phi, sys)
    round_trip = max(
        max_abs(marg.phi(s, t).row() - counit.phi(s, t).row())
        for (s, t) in GRID6.pairs())
    passed &= round_trip < 1e-12

    gsys = gns_system(sys, counit)
    passed &= all(d.dim == 2 for d in gsys.gns_data.values())
    hil = gsys.hilbert_system()
    rep = check_hilbert_axioms(hil)
    passed &= rep.passed and rep.max_residual < EPS
    for triple, v in gsys.isometries.items():
        worst = max(worst, max_abs(v - hs.u(*triple)))

    grid3 = Grid([1, 2, 3])
    _, glue_sys, _, glue_state = glue_fixture(grid3, [2, 3])
    glue_gns = gns_system(glue_sys, glue_state)
    passed &= glue_gns.gns_data[(F(1), F(2))].dim == 4      # faithful: n^2
    passed &= glue_gns.gns_data[(F(1), F(3))].dim == 36
    passed &= check_hilbert_axioms(glue_gns.hilbert_system()).max_residual < EPS

    passed &= worst < EPS
    record_criterion(
        f"criterion 6: states, GNS dimensions and V = U, worst {worst:.2e}", passed)
    assert passed


def test_criterion_7_gram_preservation(diagonal6):
    """Dilation agreement as Gram preservation; perturbed control fails at >= 1e-4."""
    _, sys, unit, counit = diagonal6
    grid3 = Grid([1, 2, 3, 4, 5])
    _, glue_sys, glue_unit, glue_state = glue_fixture(grid3, [2, 3, 2, 1])
    worst = 0.0
    for system, fam, un in ((sys, counit, unit), (glue_sys, glue_state, glue_unit)):
        grid = system.grid
        parts = enumerate_partitions(grid, grid.points[0], grid.points[-1], 3)
        chains = [(i, k) for i in parts for k in parts
                  if i != k and set(i.points) <= set(k.points)]
        for coarse, fine in chains:
            worst = max(worst, gram_preservation_residual(system, fam, coarse, fine, un))
    control = gram_preservation_residual(
        sys, counit, Partition([1, 3]), Partition([1, 2, 3]), unit, perturbation=1e-3)
    passed = worst < EPS and control >= 1e-4
    record_criterion(
        f"criterion 7: Gram preservation (worst {worst:.2e}) "
        f"with failing control ({control:.2e})", passed)
    assert passed


def test_criterion_8_commutative_model_exact():
    """All commutative checks exact; the broken measure shows discrepancy 1/2."""
    passed = True

    glue = glue_system(Grid([1, 2, 3, 4, 5]), FiniteSpace(2))
    bern = (F(1, 3), F(2, 3))
    mu = {}
    for (s, t) in glue.grid.pairs():
        m = (F(1),)
        for a, b in zip(glue.grid.points, glue.grid.points[1:]):
            if s <= a and b <= t:
                m = tuple(x * y for x in m for y in bern)
        mu[(s, t)] = m
    passed &= check_mult_system(glue).passed
    rep = check_measure_family(glue, mu)
    passed &= rep.passed and all(
        r.exact_discrepancy in (None, "0") for r in rep.records)

    cs = to_cstar(glue)
    ones = trivial_unit(cs)
    parts = enumerate_all_partitions(glue.grid, 4)
    for coarse in parts:
        for fine in parts:
            if coarse == fine or not set(coarse.points) <= set(fine.points):
                continue
            lifted = superop_from_point_map(chi_cross(glue, coarse, fine),
                                            space_on_partition(glue, coarse))
            if coarse.endpoints == fine.endpoints:
                alg_map = delta_refinement(cs, coarse, fine)
            else:
                alg_map = delta_cross(cs, ones, coarse, fine)
            passed &= bool(np.array_equal(lifted.matrix, alg_map.matrix))

    full = Partition(list(glue.grid.points))
    joint = measure_on_partition(mu, full)
    for cut in full.interior:
        passed &= split_measure_idempotence(glue, joint, full, cut) == 0
        for x in range(space_on_partition(glue, full)):
            left, right = point_split(glue, full, x, cut)
            passed &= point_merge(glue, left, right) == (full, x)

    z2 = modular_addition_system(Grid([1, 2, 3, 4]))
    uniform = {pair: (F(1, 2), F(1, 2)) for pair in z2.grid.pairs()}
    passed &= check_mult_system(z2).passed
    passed &= check_measure_family(z2, uniform).passed
    broken = dict(uniform)
    broken[(F(1), F(3))] = (F(1), F(0))
    broken_rep = check_measure_family(z2, broken)
    discs = {r.exact_discrepancy for r in broken_rep.records
             if r.exact_discrepancy not in (None, "0")}
    passed &= (not broken_rep.passed) and discs == {"1/2"}

    record_criterion("criterion 8: commutative model exact (counterexample = 1/2)",
                     passed)
    assert passed


def test_criterion_9_end_to_end_determinism():
    """The shipped configuration passes every suite twice, byte-identically, < 60 s."""
    with open("configs/oracle.json") as fh:
        raw = json.load(fh)
    config = RunConfig.from_json(raw)
    start = time.perf_counter()
    out1, ok1, _ = run(config)
    out2, ok2, _ = run(config)
    elapsed = time.perf_counter() - start
    blob1 = json.dumps(out1, indent=2, sort_keys=True)
    blob2 = json.dumps(out2, indent=2, sort_keys=True)
    passed = ok1 and ok2 and blob1 == blob2 and elapsed / 2 < 60.0
    passed &= set(out1["suites"]) == {"axioms", "partition", "dilation", "algebra",
                                      "gns", "commutative", "morphism"}
    record_criterion(
        f"criterion 9: end-to-end run deterministic ({elapsed / 2:.1f}s per run)",
        passed)
    assert passed
