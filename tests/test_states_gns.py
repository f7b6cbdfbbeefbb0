import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from cstar_systems.algebra import (
    FiniteCStarAlgebra,
    LinearFunctional,
    gns,
    gram_matrix,
    tensor_algebra,
    trace_functional,
    vector_state,
)
from cstar_systems.commutative import (
    FiniteSpace,
    glue_system,
    indicator_unit,
    measure_family_functionals,
    to_cstar,
)
from cstar_systems.linalg import (
    Superoperator,
    composite_residual,
    identity_superop,
    isometry_residual,
    max_abs,
    split_vec,
    superop_tensor,
    tensor_perm,
)
from cstar_systems.partition_calculus import (
    comultiplication,
    delta_cross,
    delta_interval_to_partition,
    delta_refinement,
    germ,
    germ_distance,
    partition_algebra,
    state_on_partition,
    unit_on_partition,
)
from cstar_systems.states_gns import (
    GnsIsometryError,
    build_idempotent_state,
    counit_dilation_eval,
    dilation_isomorphism_check,
    gns_system,
    gram_preservation_residual,
    idempotency_residual,
    marginal_states,
)
from cstar_systems.systems import (
    FunctionalFamily,
    Grid,
    TensorialSystem,
    check_hilbert_axioms,
    constant_functional_family,
    diagonal_system,
    enumerate_all_partitions,
    enumerate_partitions,
    glue_hilbert_system,
    standard_unit,
    trivial_unit,
)
from cstar_systems.suites import brute_force_gram
from cstar_systems.timegrid import Partition, refinement_pairs

RNG = np.random.default_rng(123)
GRID = Grid([1, 2, 3, 4])


@pytest.fixture(scope="module")
def diag():
    hs, sys = diagonal_system(GRID, 2)
    return hs, sys


@pytest.fixture(scope="module")
def diag_families(diag):
    _, sys = diag
    return standard_unit(sys), constant_functional_family(sys, vector_state)


def dense_gram_preservation_residual(sys, fam, coarse, fine, unit=None, perturbation=0.0):
    """The dense formula max|D^H G_K D - G_I|, with both Gram matrices from the
    brute-force oracle."""
    mat = delta_cross(sys, unit, coarse, fine).matrix
    g_fine = brute_force_gram(partition_algebra(sys, fine), state_on_partition(fam, fine))
    g_coarse = brute_force_gram(partition_algebra(sys, coarse),
                                state_on_partition(fam, coarse))
    if perturbation:
        weighted = g_fine @ mat
        j, c = np.unravel_index(np.argmax(np.abs(weighted)), weighted.shape)
        w = weighted[j, c]
        mat = mat.copy()
        mat[j, c] += perturbation / np.conj(w) if w != 0 else perturbation
    return max_abs(mat.conj().T @ g_fine @ mat - g_coarse)


def glue_with_faithful_state(grid, dims):
    hs, sys = glue_hilbert_system(grid, dims)
    cells = list(zip(grid.points, grid.points[1:]))
    cell_density = {}
    for (a, b), d in zip(cells, dims):
        w = np.arange(1, d + 1, dtype=float)
        cell_density[(a, b)] = np.diag(w / w.sum())
    functionals = {}
    for (s, t) in grid.pairs():
        rho = None
        for (a, b), dens in cell_density.items():
            if s <= a and b <= t:
                rho = dens if rho is None else np.kron(rho, dens)
        functionals[(s, t)] = LinearFunctional(sys.alg(s, t), [rho])
    return hs, sys, FunctionalFamily(functionals)


def random_complex_glue(dims, floor=0.0):
    """glue_hilbert on the grid 1..len(dims)+1 with the product of random complex,
    non-diagonal cell densities: a co-unit with genuine rounding.  ``floor`` adds
    that multiple of the identity to each a a^* before it is normalised, which
    bounds the cells' condition numbers."""
    grid = Grid(list(range(1, len(dims) + 2)))
    _, sys = glue_hilbert_system(grid, dims)
    rng = np.random.default_rng(19)
    cells = {}
    for cell, d in zip(zip(grid.points, grid.points[1:]), dims):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = a @ a.conj().T + floor * np.eye(d)
        cells[cell] = rho / np.trace(rho).real
    functionals = {}
    for (s, t) in grid.pairs():
        rho = np.ones((1, 1))
        for cell in grid.cells(s, t):
            rho = np.kron(rho, cells[cell])
        functionals[(s, t)] = LinearFunctional(sys.alg(s, t), [rho])
    return sys, standard_unit(sys), FunctionalFamily(functionals)


def faithful_glue():
    """glue [2, 3] with the faithful state of weights 1/3, 2/3 and 1/6, 2/6, 3/6."""
    _, sys, fam = glue_with_faithful_state(Grid([1, 2, 3]), [2, 3])
    return sys, standard_unit(sys), fam


def bernoulli_glue():
    """The commutative glue system on words over {0, 1} with Bernoulli(1/3, 2/3)
    letters: every partition algebra has one block per word."""
    grid = Grid([1, 2, 3, 4])
    sys = to_cstar(glue_system(grid, FiniteSpace(2)))
    letters = (F(1, 3), F(2, 3))
    measures = {(s, t): [math.prod(w) for w in
                         itertools.product(letters, repeat=len(grid.cells(s, t)))]
                for (s, t) in grid.pairs()}
    return sys, trivial_unit(sys), measure_family_functionals(sys, measures)


def indicator_glue_base3():
    """The commutative glue system on words over {0, 1, 2} with uniform letters and
    the first-point indicator unit: the largest Gram weight is far below 1."""
    grid = Grid([1, 2, 3, 4])
    sys = to_cstar(glue_system(grid, FiniteSpace(3)))
    measures = {(s, t): [F(1, 3 ** len(grid.cells(s, t)))] * 3 ** len(grid.cells(s, t))
                for (s, t) in grid.pairs()}
    return sys, indicator_unit(sys), measure_family_functionals(sys, measures)


class TestDilatedFunctional:
    def test_trivial_partition_evaluates_the_state(self, diag, diag_families):
        _, sys = diag
        _, fam = diag_families
        x = sys.alg(F(1), F(3)).random_element(RNG)
        g = germ(sys, Partition([1, 3]), x)
        assert counit_dilation_eval(sys, fam, g) == pytest.approx(fam.phi(F(1), F(3))(x))

    def test_product_value_on_unit_tensor(self, diag, diag_families):
        _, sys = diag
        unit, fam = diag_families
        part = Partition([1, 2, 3])
        g = germ(sys, part, unit_on_partition(unit, part))
        assert counit_dilation_eval(sys, fam, g) == pytest.approx(1.0)

    def test_representative_independence(self, diag, diag_families):
        _, sys = diag
        _, fam = diag_families
        coarse = Partition([1, 4])
        x = partition_algebra(sys, coarse).random_element(RNG)
        g1 = germ(sys, coarse, x)
        for fine in enumerate_partitions(sys.grid, F(1), F(4), 2):
            if fine == coarse:
                continue
            pushed = partition_algebra(sys, fine).from_vec(
                delta_refinement(sys, coarse, fine).apply(x.vec()))
            g2 = germ(sys, fine, pushed)
            assert abs(counit_dilation_eval(sys, fam, g1)
                       - counit_dilation_eval(sys, fam, g2)) < 1e-9

    def test_rejects_non_comultiplicative_family(self, diag):
        _, sys = diag
        fam = constant_functional_family(
            sys, lambda alg: trace_functional(alg, normalized=True))
        g = germ(sys, Partition([1, 2]),
                 sys.alg(F(1), F(2)).matrix_unit(0, 0, 0))
        with pytest.raises(ValueError, match="not co-multiplicative"):
            counit_dilation_eval(sys, fam, g)


class TestIdempotentState:
    def test_diagonal_state_passes_all_checks(self, diag, diag_families):
        _, sys = diag
        unit, fam = diag_families
        phi = build_idempotent_state(sys, unit, fam)
        part = Partition([1, 2, 4])
        g = germ(sys, part, unit_on_partition(unit, part))
        assert phi(g) == pytest.approx(1.0)
        for cut in (F(2), F(3)):
            assert idempotency_residual(sys, unit, phi, g, cut) < 1e-9

    def test_idempotency_on_random_germs(self, diag, diag_families):
        _, sys = diag
        unit, fam = diag_families
        phi = build_idempotent_state(sys, unit, fam)
        part = Partition([2, 4])
        for _ in range(3):
            g = germ(sys, part,
                     partition_algebra(sys, part).random_element(RNG))
            assert idempotency_residual(sys, unit, phi, g, F(3)) < 1e-9

    def test_unnormalized_trace_rejected_as_non_state(self, diag, diag_families):
        _, sys = diag
        unit, _ = diag_families
        fam = constant_functional_family(sys, trace_functional)
        # Tr(p) = 1 holds, yet Tr is not a state in dimension two
        assert fam.phi(F(1), F(2))(unit.p(F(1), F(2))) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="not a state"):
            build_idempotent_state(sys, unit, fam)

    def test_unnormalized_counit_rejected(self, diag, diag_families):
        _, sys = diag
        unit, _ = diag_families
        half = constant_functional_family(
            sys, lambda alg: trace_functional(alg, normalized=True))
        with pytest.raises(ValueError):
            build_idempotent_state(sys, unit, half)

    def test_scalar_system(self):
        _, sys = diagonal_system(GRID, 1)
        unit = standard_unit(sys)
        fam = constant_functional_family(sys, vector_state)
        phi = build_idempotent_state(sys, unit, fam)
        part = Partition([1, 2, 3, 4])
        g = germ(sys, part, partition_algebra(sys, part).one())
        assert phi(g) == pytest.approx(1.0)

    def test_marginals_round_trip(self, diag, diag_families):
        _, sys = diag
        unit, fam = diag_families
        phi = build_idempotent_state(sys, unit, fam)
        marg = marginal_states(phi, sys)
        for (s, t) in sys.grid.pairs():
            assert max_abs(marg.phi(s, t).row() - fam.phi(s, t).row()) < 1e-12


class TestGnsSystem:
    def test_diagonal_recovers_the_generating_isometry(self, diag, diag_families):
        hs, sys = diag
        _, fam = diag_families
        gsys = gns_system(sys, fam)
        for (r, s, t) in sys.grid.triples():
            assert gsys.gns_data[(r, s)].dim == 2
            assert max_abs(gsys.isometries[(r, s, t)] - hs.u(r, s, t)) < 1e-9
        rep = check_hilbert_axioms(gsys.hilbert_system())
        assert rep.passed and rep.max_residual < 1e-9

    def test_faithful_state_on_glue_product_system(self):
        grid = Grid([1, 2, 3])
        hs, sys, fam = glue_with_faithful_state(grid, [2, 3])
        gsys = gns_system(sys, fam)
        assert gsys.gns_data[(F(1), F(2))].dim == 4
        assert gsys.gns_data[(F(2), F(3))].dim == 9
        assert gsys.gns_data[(F(1), F(3))].dim == 36
        v = gsys.isometries[(F(1), F(2), F(3))]
        assert isometry_residual(v) <= 1e-9 and isometry_residual(v.conj().T) <= 1e-9  # unitary
        assert check_hilbert_axioms(gsys.hilbert_system()).passed

    def test_scalar_system_gives_scalar_spaces(self):
        _, sys = diagonal_system(GRID, 1)
        fam = constant_functional_family(sys, vector_state)
        gsys = gns_system(sys, fam)
        assert all(d.dim == 1 for d in gsys.gns_data.values())
        for v in gsys.isometries.values():
            assert max_abs(v - np.eye(1)) < 1e-12

    def test_rejects_non_states(self, diag):
        _, sys = diag
        fam = constant_functional_family(sys, trace_functional)
        with pytest.raises(ValueError, match="states"):
            gns_system(sys, fam)


def test_gns_images_of_the_unit_form_a_normalized_unit(diag, diag_families):
    from cstar_systems.states_gns import gns_unit_vector_residual

    _, sys = diag
    unit, fam = diag_families
    gsys = gns_system(sys, fam)
    assert gns_unit_vector_residual(gsys, unit) < 1e-9


def test_gns_unit_vector_residual_propagates_nan(diag, diag_families):
    from cstar_systems.states_gns import GnsSystem, gns_unit_vector_residual

    _, sys = diag
    unit, fam = diag_families
    gsys = gns_system(sys, fam)
    isometries = dict(gsys.isometries)
    triple = next(iter(isometries))
    isometries[triple] = np.full_like(isometries[triple], np.nan)
    broken = GnsSystem(sys=sys, gns_data=gsys.gns_data, isometries=isometries)
    assert np.isnan(gns_unit_vector_residual(broken, unit))


class TestHilbertPartitionIsometries:
    """The partition isometries of a Hilbert system are the maps of its vector system."""

    def test_identity_refinement(self, diag):
        hs, _ = diag
        part = Partition([1, 3])
        assert max_abs(delta_refinement(hs.vectors, part, part).matrix - np.eye(2)) == 0

    def test_single_block_is_interval_isometry(self, diag):
        hs, _ = diag
        coarse, fine = Partition([1, 4]), Partition([1, 2, 3, 4])
        assert max_abs(delta_refinement(hs.vectors, coarse, fine).matrix
                       - delta_interval_to_partition(hs.vectors, fine).matrix) == 0

    def test_diagonal_interval_isometry_on_basis(self, diag):
        hs, _ = diag
        v = delta_interval_to_partition(hs.vectors, Partition([1, 2, 3, 4]))
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            expected = np.kron(np.kron(e, e), e)
            assert max_abs(v.apply(e) - expected) == 0

    @pytest.mark.parametrize("make", [
        lambda: diagonal_system(Grid([1, 2, 3, 4, 5, 6]), 2),
        lambda: glue_hilbert_system(GRID, [2, 2, 2]),
    ], ids=["diagonal_d2", "glue_222"])
    def test_algebra_map_is_conjugation_by_the_interval_isometry(self, make):
        hs, sys = make()
        lo, hi = sys.grid.points[0], sys.grid.points[-1]
        for part in enumerate_partitions(sys.grid, lo, hi, 4):
            v = delta_interval_to_partition(hs.vectors, part).matrix
            assert np.array_equal(delta_interval_to_partition(sys, part).matrix,
                                  np.kron(v, v.conj()))

    def test_cocycle(self, diag):
        hs, _ = diag
        small, mid, big = Partition([1, 4]), Partition([1, 2, 4]), Partition([1, 2, 3, 4])
        assert composite_residual(
            [delta_refinement(hs.vectors, small, big)],
            [delta_refinement(hs.vectors, mid, big), delta_refinement(hs.vectors, small, mid)],
        ) < 1e-12

    def test_germ_split_mirrors_interval_split(self, diag):
        hs, _ = diag
        coarse = Partition([1, 4])
        e1 = np.array([1.0, 0.0])
        g = germ(hs.vectors, coarse,
                 partition_algebra(hs.vectors, coarse).from_vec(e1))
        split = comultiplication(hs.vectors, None, g, F(2))
        assert split.left_partition == Partition([1, 2])
        assert split.right_partition == Partition([2, 4])
        assert max_abs(split.element.vec() - np.kron(e1, e1)) == 0
        assert germ_distance(hs.vectors, g, split.merged()) < 1e-12


class TestGramPreservation:
    def chains(self, sys, max_interior=2):
        parts = enumerate_partitions(sys.grid, sys.grid.points[0],
                                     sys.grid.points[-1], max_interior)
        return [(i, k) for i in parts for k in parts
                if i != k and set(i.points) <= set(k.points)]

    def test_diagonal_preserves_grams(self, diag, diag_families):
        _, sys = diag
        unit, fam = diag_families
        rep = dilation_isomorphism_check(sys, fam, self.chains(sys), unit=unit)
        assert rep.passed and rep.max_residual < 1e-9

    def test_explicit_chain_value(self, diag, diag_families):
        _, sys = diag
        _, fam = diag_families
        res = gram_preservation_residual(sys, fam, Partition([1, 3]),
                                         Partition([1, 2, 3]))
        assert res < 1e-12

    def test_glue_product_system_preserves_grams(self):
        grid = Grid([1, 2, 3])
        _, sys, fam = glue_with_faithful_state(grid, [2, 3])
        rep = dilation_isomorphism_check(sys, fam, self.chains(sys, 1))
        assert rep.passed

    def test_negative_control_reports_and_fails(self, diag, diag_families):
        _, sys = diag
        unit, fam = diag_families
        chains = self.chains(sys)
        res = gram_preservation_residual(sys, fam, *chains[0], unit=unit,
                                         perturbation=1e-3)
        assert res >= 1e-4
        rep = dilation_isomorphism_check(sys, fam, chains, unit=unit,
                                         negative_control=True)
        control = rep.records[-1]
        assert control.check.endswith("negative_control")
        assert control.passed and control.residual >= 1e-4

    @pytest.mark.parametrize("make", [faithful_glue, bernoulli_glue, indicator_glue_base3],
                             ids=["glue_23_faithful", "commutative_bernoulli",
                                  "commutative_base3_indicator"])
    def test_blockwise_matches_dense_formula(self, make):
        sys, unit, fam = make()
        pairs = refinement_pairs(enumerate_all_partitions(sys.grid, len(sys.grid.points)))
        assert any(coarse.endpoints != fine.endpoints for coarse, fine in pairs)
        for coarse, fine in pairs:
            res = gram_preservation_residual(sys, fam, coarse, fine, unit)
            ref = dense_gram_preservation_residual(sys, fam, coarse, fine, unit)
            assert abs(res - ref) <= 1e-12
            res = gram_preservation_residual(sys, fam, coarse, fine, unit, perturbation=1e-3)
            ref = dense_gram_preservation_residual(sys, fam, coarse, fine, unit,
                                                   perturbation=1e-3)
            assert res == ref and res >= 1e-4

    @pytest.mark.parametrize("stream_entries", [None, 1], ids=["default_chunks", "one_column"])
    def test_streamed_matches_dense_formula_across_chunks(self, monkeypatch, stream_entries):
        # glue [3, 3, 3] under a product of random complex non-diagonal cell states: two
        # factored maps into the finest partition, one of them padded by a unit constant,
        # and the interval map, one conjugation factor; the 729 x 729 ones span several
        # chunks of STREAM_ENTRIES
        from cstar_systems import linalg

        sys, unit, fam = random_complex_glue([3, 3, 3])
        fine = Partition([1, 2, 3, 4])
        coarses = [Partition([1, 3, 4]), Partition([1, 4]), Partition([2, 4])]
        ops = [delta_cross(sys, unit, coarse, fine) for coarse in coarses]
        assert [op.ad for op in ops] == [(True, True), (True,), (False, True)]
        assert max(op.in_dim // linalg.chunk_width(op.in_dim, op.out_dim) for op in ops) > 1
        refs = [dense_gram_preservation_residual(sys, fam, coarse, fine, unit)
                for coarse in coarses]
        if stream_entries is not None:
            monkeypatch.setattr(linalg, "STREAM_ENTRIES", stream_entries)
        for coarse, ref in zip(coarses, refs):
            res = gram_preservation_residual(sys, fam, coarse, fine, unit)
            # the padded pair reads about 0.14: phi(p) != 1 for this state
            assert abs(res - ref) <= 1e-12

    @staticmethod
    def assert_peak_below(bound, sys, fam, coarse, fine, unit=None):
        tracemalloc.start()
        try:
            res = gram_preservation_residual(sys, fam, coarse, fine, unit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res == 0
        assert peak < bound

    def test_memory_stays_bounded_on_grid6(self):
        # the subproduct-grid6 pair with the largest Gram matrix: G_K would be 1024 x 1024;
        # what is formed is a 16 x 4 G F for the split cell, one 4 x 4 factor of D* G_K D
        # per cell of I and one 4 x 4 Gram matrix per cell of K and of I (0.08 MiB measured
        # in a fresh process)
        _, sys = diagonal_system(Grid([1, 2, 3, 4, 5, 6]), 2)
        fam = constant_functional_family(sys, vector_state)
        self.assert_peak_below(5 * 2**20, sys, fam, Partition([1, 3, 4, 5, 6]),
                               Partition([1, 2, 3, 4, 5, 6]))

    def test_memory_stays_bounded_on_dense_d3(self):
        # the 6561 x 729 map of diagonal d=3 would take 73 MB dense; it holds three
        # conjugation factors, 9 x 3 and two 3 x 3 (720 bytes), which give one 81 x 9 G F
        # and three 9 x 9 factors of D* G_K D, against three 9 x 9 cell Grams for G_I
        # (0.33 MiB measured in a fresh process)
        _, sys = diagonal_system(Grid([1, 2, 3, 4, 5]), 3, dim_cap=8192)
        fam = constant_functional_family(sys, vector_state)
        coarse, fine = Partition([1, 3, 4, 5]), Partition([1, 2, 3, 4, 5])
        op = delta_cross(sys, None, coarse, fine)
        assert (op.out_dim, op.in_dim) == (6561, 729) and op.ad == (True, True, True)
        assert sum(f.nbytes for f in op.factors) == 720
        self.assert_peak_below(4 * 2**20, sys, fam, coarse, fine)

    def test_memory_stays_bounded_on_m16(self):
        # the 256 x 256 map of glue [4, 4] is the conjugation by the identity of C^16,
        # flagged identity, and a map of one factor: F* G_K F is then the Gram matrix of
        # A_{1,2,3}, and it and G_I are 256 x 256, 1 MiB each (2.07 MiB measured in a fresh
        # process)
        _, sys = glue_hilbert_system(Grid([1, 2, 3]), [4, 4], dim_cap=65536)
        unit = standard_unit(sys)
        fam = constant_functional_family(sys, vector_state)
        coarse, fine = Partition([1, 3]), Partition([1, 2, 3])
        op = delta_cross(sys, unit, coarse, fine)
        assert op.ad == op.skip == (True,) and op.factors[0].shape == (16, 16)
        self.assert_peak_below(3.5 * 2**20, sys, fam, coarse, fine, unit)

    def test_factored_comultiplication_pairs_a_run_of_factors_with_its_piece(self):
        # glue [2, 2] with D[1,2,3] held as the tensor of the two cell identities: the map
        # [1, 3] -> [1, 2, 3] has two factors onto one cell of I, whose codomains (2,) and
        # (2,) only tensor to its algebra (4,) together, so D* G_K D is laid out unlike G_I
        # and the two are streamed
        base, unit, fam = random_complex_glue([2, 2])
        deltas = {(r, s, t): superop_tensor(identity_superop(base.alg(r, s).blocks),
                                            identity_superop(base.alg(s, t).blocks))
                  for (r, s, t) in base.grid.triples()}
        sys = TensorialSystem(base.grid, base.algebras, deltas, dim_cap=base.dim_cap)
        op = delta_cross(sys, unit, Partition([1, 3]), Partition([1, 2, 3]))
        assert len(op.factors) == 2 and op.fcods == ((2,), (2,))
        pairs = refinement_pairs(enumerate_all_partitions(sys.grid, len(sys.grid.points)))
        assert any(coarse.endpoints != fine.endpoints for coarse, fine in pairs)
        for coarse, fine in pairs:
            res = gram_preservation_residual(sys, fam, coarse, fine, unit)
            ref = dense_gram_preservation_residual(sys, fam, coarse, fine, unit)
            assert abs(res - ref) <= 1e-12


def test_padded_gram_pairs_settle(monkeypatch):
    # diagonal d=2 on grid 1..5 under the standard unit and the vector states: for each pair
    # whose endpoints differ, D* G_K D merges into one small factor per factor of D, a unit
    # constant p into phi(p* p) = 1, and so holds the factors of G_I: no unit column is
    # pushed through a map
    from cstar_systems import linalg, states_gns

    _, sys = diagonal_system(Grid([1, 2, 3, 4, 5]), 2)
    unit, fam = standard_unit(sys), constant_functional_family(sys, vector_state)
    pairs = [(coarse, fine) for coarse, fine in
             refinement_pairs(enumerate_all_partitions(sys.grid, len(sys.grid.points)))
             if coarse.endpoints != fine.endpoints]
    assert len(pairs) == 73
    chunks, streamed = linalg.unit_column_chunks, []

    def recording_chunks(in_dim, out_dim):
        streamed.append(in_dim)
        return chunks(in_dim, out_dim)

    monkeypatch.setattr(linalg, "unit_column_chunks", recording_chunks)
    for coarse, fine in pairs:
        assert gram_preservation_residual(sys, fam, coarse, fine, unit) == 0
    assert streamed == []
    # one check of all of them builds each cell's Gram matrix once
    built = []
    monkeypatch.setattr(states_gns, "gram_matrix",
                        lambda alg, phi: built.append(alg) or gram_matrix(alg, phi))
    assert dilation_isomorphism_check(sys, fam, pairs, unit=unit).max_residual == 0
    cells = {cell for pair in pairs for part in pair for cell in part.pairs()}
    assert len(built) == len(cells)


def test_gns_suite_streams_no_unit_columns_on_grid6(monkeypatch):
    # subproduct-grid6: every Gram pair, the control included, settles on equal factors
    # (or compares two dense maps), so no unit column is pushed through a map
    from cstar_systems import linalg, states_gns, suites
    from cstar_systems.cli import RunConfig, build_setup

    setup = build_setup(RunConfig.from_json({
        "grid": ["1", "2", "3", "4", "5", "6"], "system": {"kind": "diagonal", "d": 2},
        "unit": {"kind": "standard"}, "counit": {"kind": "standard"},
        "suites": ["gns"], "max_interior_points": 4}))
    chunks, residual = linalg.unit_column_chunks, states_gns.gram_preservation_residual
    streamed, pairs = [], []

    def recording_chunks(in_dim, out_dim):
        streamed.append(in_dim)
        return chunks(in_dim, out_dim)

    def recording_residual(*args, **kwargs):
        start = len(streamed)
        res = residual(*args, **kwargs)
        pairs.append(len(streamed) - start)
        return res

    monkeypatch.setattr(linalg, "unit_column_chunks", recording_chunks)
    monkeypatch.setattr(states_gns, "gram_preservation_residual", recording_residual)
    assert suites.run_gns(setup, np.random.default_rng(0)).passed
    assert len(pairs) == 66 and sum(pairs) == 0


def test_brute_force_gram_equals_the_pair_loop():
    # phi(e_b* e_a) over every pair of matrix units, each product formed blockwise
    alg = FiniteCStarAlgebra([1, 2, 3])
    densities = []
    for n in alg.blocks:
        a = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
        densities.append(a @ a.conj().T)
    total = sum(np.trace(rho).real for rho in densities)
    phi = LinearFunctional(alg, [rho / total for rho in densities])
    assert phi.is_state() and any(np.count_nonzero(rho - np.diag(np.diag(rho)))
                                  for rho in phi.densities)
    units = np.eye(alg.dim, dtype=complex)
    ref = np.empty((alg.dim, alg.dim), dtype=complex)
    for b in range(alg.dim):
        for a in range(alg.dim):
            prods = [x.conj().T @ y for x, y in zip(split_vec(alg.blocks, units[b]),
                                                    split_vec(alg.blocks, units[a]))]
            ref[b, a] = sum(np.sum(rho.T * x) for rho, x in zip(phi.densities, prods))
    assert np.array_equal(brute_force_gram(alg, phi), ref)


# -- V[r,s,t] against the GNS of the product state ----------------------------------

def product_state_isometry(sys, fam, r, s, t, gns_data):
    """Reference V[r,s,t] by the product-state route: the GNS of phi(r,s) (x) phi(s,t)
    on A(r,s) (x) A(s,t), the unitary W: H(r,s) (x) H(s,t) -> H_prod sending
    eta(x) (x) eta(y) to eta(x (x) y), and V = W^H eta_prod D[r,s,t] lift(r,t)."""
    a, b = sys.alg(r, s), sys.alg(s, t)
    prod_state = LinearFunctional(tensor_algebra(a, b), [
        np.kron(rf, rg) for rf in fam.phi(r, s).densities for rg in fam.phi(s, t).densities])
    prod = gns(tensor_algebra(a, b), prod_state)
    w = prod.eta[:, tensor_perm(a.blocks, b.blocks)] @ np.kron(gns_data[(r, s)].lift,
                                                              gns_data[(s, t)].lift)
    return sys.delta(r, s, t).rapply(w.conj().T @ prod.eta) @ gns_data[(r, t)].lift


def direct_sum_system():
    """M_2 (+) C on the grid 1..3: the diagonal comultiplication of M_2 into the
    (0, 0) block and the scalar into the (1, 1) block, with the state on e_11."""
    grid = Grid([1, 2, 3])
    u = np.zeros((4, 2))
    u[0, 0] = u[3, 1] = 1.0
    dmat = np.zeros((25, 5), dtype=complex)
    dmat[:16, :4] = np.kron(u, u)
    dmat[24, 4] = 1.0
    alg = FiniteCStarAlgebra([2, 1])
    sys = TensorialSystem(grid, {pair: alg for pair in grid.pairs()},
                          {triple: Superoperator(dmat, (2, 1), (4, 2, 2, 1))
                           for triple in grid.triples()})
    omega = LinearFunctional(alg, [np.diag([1.0, 0.0]), np.zeros((1, 1))])
    return sys, FunctionalFamily({pair: omega for pair in grid.pairs()})


@pytest.mark.parametrize("make, bound", [
    (lambda: random_complex_glue([2, 3], floor=1.0)[::2], 1e-12),
    (lambda: random_complex_glue([3, 2, 2], floor=1.0)[::2], 1e-12),
    (direct_sum_system, 1e-12),
    # pair states with eigenvalues down to 3.6e-6: both routes divide by their
    # square roots, and their rounding reaches 1.3e-12 (2.3e-12 off isometry
    # on the reference's side, 5.4e-13 on this side)
    (lambda: random_complex_glue([3, 2, 2])[::2], 1e-11),
], ids=["glue_23_complex", "glue_322_complex", "direct_sum_21", "glue_322_ill_conditioned"])
def test_gns_isometry_matches_the_product_state_route(make, bound):
    sys, fam = make()
    gsys = gns_system(sys, fam)
    for (r, s, t) in sys.grid.triples():
        ref = product_state_isometry(sys, fam, r, s, t, gsys.gns_data)
        v = gsys.isometries[(r, s, t)]
        assert v.shape == ref.shape
        assert max_abs(v - ref) <= bound


@pytest.mark.parametrize("d", [2, 3])
def test_gns_isometry_is_the_generator_bitwise_on_diagonal(d):
    hs, sys = diagonal_system(GRID, d)
    gsys = gns_system(sys, constant_functional_family(sys, vector_state))
    for (r, s, t) in sys.grid.triples():
        assert np.array_equal(gsys.isometries[(r, s, t)], hs.u(r, s, t))


def test_perturbed_glue16_names_the_triple_that_fails_isometry():
    from cstar_systems.cli import RunConfig, build_setup

    setup = build_setup(RunConfig.from_json({
        "grid": ["1", "2", "3"], "system": {"kind": "glue_hilbert", "cell_dims": [4, 4]},
        "dim_cap": 65536, "suites": ["gns"], "perturb_delta": {"epsilon": 1e-3}}))
    with pytest.raises(GnsIsometryError) as exc:
        gns_system(setup.system, setup.counit, setup.tol)
    assert exc.value.triple == (F(1), F(2), F(3))
    assert exc.value.residual == pytest.approx(2.001e-3, rel=1e-9)
