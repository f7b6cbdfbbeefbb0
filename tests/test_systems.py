from fractions import Fraction as F

import numpy as np
import pytest

from conftest import chain_matrix
from cstar_systems.algebra import (
    FiniteCStarAlgebra,
    tensor_element,
    trace_functional,
    vector_state,
)
from cstar_systems.linalg import (
    Superoperator,
    identity_superop,
    max_abs,
    numerical_rank,
    superop_from_conjugation,
)
from cstar_systems.systems import (
    Grid,
    MorphismFamily,
    OffGridError,
    TensorialSystem,
    UnitFamily,
    check_comultiplicative,
    check_hilbert_axioms,
    check_morphism,
    check_system_axioms,
    check_unit,
    constant_functional_family,
    diagonal_system,
    enumerate_all_partitions,
    enumerate_partitions,
    from_one_parameter,
    glue_hilbert_system,
    group_z2_bialgebra,
    standard_unit,
    trivial_from_bialgebra,
)
from cstar_systems.timegrid import Partition

GRID = Grid([1, 2, 3, 4])


def test_grid_validation_and_enumeration():
    with pytest.raises(ValueError):
        Grid([1])
    with pytest.raises(ValueError):
        Grid([2, 2])
    grid = Grid([1, 2, 3])
    assert grid.pairs() == [(F(1), F(2)), (F(1), F(3)), (F(2), F(3))]
    assert len(GRID.triples()) == 4 and len(GRID.quadruples()) == 1
    with pytest.raises(OffGridError):
        grid.require(F(5))


def test_enumerate_partitions():
    grid = Grid([1, 2, 3])
    assert enumerate_partitions(grid, F(1), F(3), 1) == \
        [Partition([1, 3]), Partition([1, 2, 3])]
    assert enumerate_partitions(grid, F(1), F(3), 0) == [Partition([1, 3])]
    grid4 = Grid([1, 2, 3, 4])
    assert len(enumerate_partitions(grid4, F(1), F(4), 2)) == 4
    assert len(enumerate_all_partitions(grid4, 3)) == 6 + 4


def test_an_incomplete_system_names_its_first_missing_pair_or_triple():
    # missing maps once surfaced as a KeyError inside the axioms suite
    _, sys = diagonal_system(Grid([1, 2, 3]), 2)
    algebras = {pair: alg for pair, alg in sys.algebras.items() if pair != (F(1), F(3))}
    with pytest.raises(ValueError, match=r"no entry for \{1, 3\}"):
        TensorialSystem(sys.grid, algebras, sys.deltas)
    with pytest.raises(ValueError, match=r"no entry for \{1, 2, 3\}"):
        TensorialSystem(sys.grid, sys.algebras, {})


class TestDiagonalSystem:
    def test_d1_is_a_product_system_of_scalars(self):
        _, sys = diagonal_system(GRID, 1)
        assert all(alg.blocks == (1,) for alg in sys.algebras.values())
        assert check_system_axioms(sys).records[-1].detail == "product"

    def test_basis_action(self):
        _, sys = diagonal_system(Grid([1, 2, 3]), 2)
        e12 = sys.alg(F(1), F(3)).matrix_unit(0, 0, 1)
        image = sys.delta(F(1), F(2), F(3)).apply(e12.vec())
        pair_unit = tensor_element(sys.alg(F(1), F(2)).matrix_unit(0, 0, 1),
                                   sys.alg(F(2), F(3)).matrix_unit(0, 0, 1))
        assert max_abs(image - pair_unit.vec()) == 0

    def test_d2_is_subproduct_not_product(self):
        _, sys = diagonal_system(GRID, 2)
        assert check_system_axioms(sys).records[-1].detail == "subproduct"
        assert numerical_rank(sys.delta(F(1), F(2), F(3)).matrix) == 4

    def test_axiom_report_all_zero_residuals(self):
        hs, sys = diagonal_system(GRID, 2)
        rep = check_system_axioms(sys)
        assert rep.passed and rep.max_residual < 1e-12
        hrep = check_hilbert_axioms(hs)
        assert hrep.passed and hrep.max_residual < 1e-12


class TestGlueSystem:
    def test_dimensions_and_rebracketing(self):
        hs, sys = glue_hilbert_system(Grid([1, 2, 3]), [2, 3])
        assert hs.dim(F(1), F(3)) == 6
        assert max_abs(hs.u(F(1), F(2), F(3)) - np.eye(6)) == 0

    def test_classification_product(self):
        _, sys = glue_hilbert_system(Grid([1, 2, 3]), [2, 3])
        assert check_system_axioms(sys).records[-1].detail == "product"

    def test_trivial_cells(self):
        _, sys = glue_hilbert_system(GRID, [1, 1, 1])
        assert check_system_axioms(sys).records[-1].detail == "product"
        assert all(alg.blocks == (1,) for alg in sys.algebras.values())

    def test_axioms_within_tolerance(self):
        hs, sys = glue_hilbert_system(Grid([1, 2, 3, 4, 5, 6]), [2, 3, 2, 1, 1])
        rep = check_system_axioms(sys)
        assert rep.passed and rep.max_residual < 1e-12

    def test_cell_count_mismatch(self):
        with pytest.raises(ValueError):
            glue_hilbert_system(Grid([1, 2, 3]), [2])


class TestTrivialFromBialgebra:
    def test_z2_group_functions(self):
        alg, delta = group_z2_bialgebra()
        sys = trivial_from_bialgebra(GRID, alg, delta)
        assert check_system_axioms(sys).records[-1].detail == "subproduct"
        # indicator of 0 maps to the sum of the diagonal pair indicators
        d0 = alg.matrix_unit(0, 0, 0)
        assert sys.delta(F(1), F(2), F(3)).apply(d0.vec()).real.tolist() == [1, 0, 0, 1]
        assert d0.vec().tolist() == [1, 0] and not d0.vec().flags.writeable

    def test_matrix_bialgebra(self):
        u = np.zeros((4, 2), dtype=complex)
        u[0, 0] = u[3, 1] = 1.0
        alg = FiniteCStarAlgebra([2])
        sys = trivial_from_bialgebra(GRID, alg, superop_from_conjugation(u))
        assert check_system_axioms(sys).records[-1].detail == "subproduct"

    def test_scalar_identity(self):
        alg = FiniteCStarAlgebra([1])
        sys = trivial_from_bialgebra(GRID, alg, identity_superop((1,)))
        assert check_system_axioms(sys).records[-1].detail == "product"

    def test_rejects_non_homomorphism(self):
        u = np.zeros((4, 2), dtype=complex)
        u[0, 0] = u[3, 1] = 1.0
        transpose = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                transpose[i * 2 + j, j * 2 + i] = 1.0
        anti = Superoperator(superop_from_conjugation(u).matrix @ transpose, (2,), (4,))
        with pytest.raises(ValueError, match="not a \\*-homomorphism"):
            trivial_from_bialgebra(GRID, FiniteCStarAlgebra([2]), anti)


def test_from_one_parameter_matches_trivial_construction():
    u = np.zeros((4, 2), dtype=complex)
    u[0, 0] = u[3, 1] = 1.0
    delta = superop_from_conjugation(u)
    alg = FiniteCStarAlgebra([2])
    grid = Grid([1, F(3, 2), 2])
    durations = {F(1, 2): alg, F(1): alg}
    maps = {(a, b): delta for a in (F(1, 2), F(1)) for b in (F(1, 2), F(1))}
    sys = from_one_parameter(grid, durations, maps)
    ref = trivial_from_bialgebra(grid, alg, delta)
    for triple in grid.triples():
        assert max_abs(sys.delta(*triple).matrix - ref.delta(*triple).matrix) == 0
    with pytest.raises(ValueError, match="duration"):
        from_one_parameter(grid, {F(1): alg}, maps)


class TestFamilies:
    def setup_method(self):
        self.hs, self.sys = diagonal_system(GRID, 2)

    def test_standard_unit_passes(self):
        rep = check_unit(self.sys, standard_unit(self.sys))
        assert rep.passed and rep.max_residual < 1e-12

    def test_moved_projection_fails_unit_law(self):
        unit = standard_unit(self.sys)
        elements = dict(unit.elements)
        elements[(F(1), F(2))] = self.sys.alg(F(1), F(2)).matrix_unit(0, 1, 1)
        rep = check_unit(self.sys, type(unit)(elements))
        assert not rep.passed

    def test_zero_unit_is_not_a_unit(self):
        zero = UnitFamily({pair: alg.from_vec(np.zeros(alg.dim)) for pair, alg in self.sys.algebras.items()})
        rep = check_unit(self.sys, zero)
        projections = [r for r in rep.records if r.check == "unit_is_projection"]
        assert len(projections) == len(GRID.pairs())
        assert not any(r.passed for r in projections)
        # its trace stays below UNIT_TRACE_FLOOR, however loose the tolerance
        assert not check_unit(self.sys, zero, tol=0.9).passed

    def test_vector_state_family_is_counit(self):
        fam = constant_functional_family(self.sys, vector_state)
        rep = check_comultiplicative(self.sys, fam)
        assert rep.passed and fam.is_counit()

    def test_unnormalized_trace_family_comultiplicative_but_not_counit(self):
        fam = constant_functional_family(self.sys, trace_functional)
        rep = check_comultiplicative(self.sys, fam)
        assert all(r.passed for r in rep.records if r.residual is not None)
        assert not fam.is_counit()
        assert rep.records[-1].detail == "not all states"

    def test_normalized_trace_family_fails_comultiplicativity(self):
        fam = constant_functional_family(
            self.sys, lambda alg: trace_functional(alg, normalized=True))
        rep = check_comultiplicative(self.sys, fam)
        assert not rep.passed

    def test_identity_morphism(self):
        theta = MorphismFamily({
            pair: identity_superop(alg.blocks)
            for pair, alg in self.sys.algebras.items()
        })
        assert check_morphism(self.sys, self.sys, theta).passed

    def test_permutation_morphism_intertwines(self):
        _, sys3 = diagonal_system(GRID, 3)
        perm = np.eye(3, dtype=complex)[[0, 2, 1]]
        theta = MorphismFamily({
            pair: superop_from_conjugation(perm) for pair in sys3.algebras
        })
        rep = check_morphism(sys3, sys3, theta)
        assert rep.passed and rep.max_residual < 1e-12

    def test_phase_morphism_fails_intertwining(self):
        w = np.diag([1.0, -1.0])
        theta = MorphismFamily({
            pair: superop_from_conjugation(w) for pair in self.sys.algebras
        })
        assert not check_morphism(self.sys, self.sys, theta).passed


def test_transposed_delta_makes_system_invalid():
    _, sys = diagonal_system(Grid([1, 2, 3]), 2)
    transpose = np.zeros((16, 16))
    for i in range(4):
        for j in range(4):
            transpose[i * 4 + j, j * 4 + i] = 1.0
    deltas = dict(sys.deltas)
    key = (F(1), F(2), F(3))
    deltas[key] = Superoperator(transpose @ deltas[key].matrix,
                                deltas[key].dom, deltas[key].cod)
    broken = TensorialSystem(sys.grid, sys.algebras, deltas)
    rep = check_system_axioms(broken)
    assert rep.records[-1].detail == "invalid"


def test_ad_construction_is_functorial():
    hs, sys = diagonal_system(GRID, 2)
    for triple, u in hs.isometries.items():
        assert max_abs(sys.delta(*triple).matrix
                       - superop_from_conjugation(u).matrix) == 0


def conjugated_copy(sys, rng):
    """An isomorphic system with dense float entries: D' = (w (x) w) D ad(w)^-1."""
    from cstar_systems.linalg import compose, superop_tensor

    w = {}
    for pair, alg in sys.algebras.items():
        q = np.linalg.qr(rng.standard_normal((alg.blocks[0],) * 2)
                         + 1j * rng.standard_normal((alg.blocks[0],) * 2))[0]
        w[pair] = q
    deltas = {}
    for (r, s, t), d in sys.deltas.items():
        outer = superop_tensor(superop_from_conjugation(w[(r, s)]),
                               superop_from_conjugation(w[(s, t)]))
        inverse = superop_from_conjugation(w[(r, t)].conj().T)
        deltas[(r, s, t)] = compose(outer, compose(d, inverse))
    theta = MorphismFamily({pair: superop_from_conjugation(q) for pair, q in w.items()})
    return TensorialSystem(sys.grid, sys.algebras, deltas), theta


class TestConjugatedSystem:
    """Dense float data: the laws must hold at tolerance, not exactly."""

    def setup_method(self):
        rng = np.random.default_rng(31)
        _, self.sys = diagonal_system(GRID, 2)
        self.other, self.theta = conjugated_copy(self.sys, rng)

    def test_still_a_subproduct_system(self):
        rep = check_system_axioms(self.other)
        assert rep.passed
        assert 0 < rep.max_residual < 1e-12
        assert rep.records[-1].detail == "subproduct"

    def test_conjugation_is_a_morphism_between_the_systems(self):
        rep = check_morphism(self.sys, self.other, self.theta)
        assert rep.passed and rep.max_residual < 1e-12

    def test_transported_unit_passes(self):
        from cstar_systems.systems import UnitFamily

        unit = standard_unit(self.sys)
        moved = UnitFamily({
            pair: self.other.alg(*pair).from_vec(
                self.theta.theta(*pair).apply(unit.p(*pair).vec()))
            for pair in self.other.algebras
        })
        rep = check_unit(self.other, moved)
        assert rep.passed and rep.max_residual < 1e-12

    def test_partition_laws_at_tolerance(self):
        from cstar_systems.partition_calculus import (
            delta_interval_to_partition,
            delta_refinement,
            interval_map_left_nested,
            interval_map_right_nested,
        )
        part = Partition([1, 2, 3, 4])
        rec = delta_interval_to_partition(self.other, part).matrix
        assert 0 < max_abs(rec - chain_matrix(interval_map_right_nested(self.other, part))) < 1e-12
        assert max_abs(rec - chain_matrix(interval_map_left_nested(self.other, part))) < 1e-12
        coarse = Partition([1, 4])
        lhs = delta_refinement(self.other, coarse, part).matrix @ \
            delta_interval_to_partition(self.other, coarse).matrix
        assert max_abs(rec - lhs) < 1e-12


class TestComparatorMatchesDenseReferences:
    """The streamed residuals on a gauged system, whose entries are not all 0 or 1.

    Each residual is compared with max_abs(L - R) of the dense matrices.  Both
    sum the same products in another order, so they agree to a few ulp of the
    scale of |L| |R|: the largest entry of the products of the entrywise
    absolute values.
    """

    def setup_method(self):
        _, sys = diagonal_system(GRID, 2)
        self.sys, self.theta = conjugated_copy(sys, np.random.default_rng(53))
        # one bumped entry makes the residuals of the laws it enters nonzero
        key = GRID.triples()[0]
        old = self.sys.deltas[key]
        bumped = old.matrix.copy()
        bumped[0, 0] += 1e-3
        self.bumped = TensorialSystem(GRID, self.sys.algebras,
                                      {**self.sys.deltas, key: Superoperator(bumped, old.dom,
                                                                             old.cod)})

    @staticmethod
    def dense_residual(lhs, rhs):
        """max_abs(L - R) for two-map chains, and the scale of |L| |R|."""
        left, right = (a.matrix @ b.matrix for a, b in (lhs, rhs))
        scale = max(max_abs(np.abs(a.matrix) @ np.abs(b.matrix)) for a, b in (lhs, rhs))
        return max_abs(left - right), scale

    def assert_close(self, got, reference, scale):
        assert abs(got - reference) <= 16 * np.finfo(float).eps * scale

    def test_coassociativity(self):
        from cstar_systems.linalg import superop_tensor
        from cstar_systems.systems import coassociativity_residual

        for sys in (self.sys, self.bumped):
            nonzero = 0
            for (r, s, t, u) in GRID.quadruples():
                ref, scale = self.dense_residual(
                    (superop_tensor(identity_superop(sys.alg(r, s).blocks), sys.delta(s, t, u)),
                     sys.delta(r, s, u)),
                    (superop_tensor(sys.delta(r, s, t), identity_superop(sys.alg(t, u).blocks)),
                     sys.delta(r, t, u)))
                self.assert_close(coassociativity_residual(sys, r, s, t, u), ref, scale)
                nonzero += ref > 1e-6
            assert nonzero == (sys is self.bumped)

    def test_morphism(self):
        from cstar_systems.linalg import superop_tensor

        _, base = diagonal_system(GRID, 2)
        for target in (self.sys, self.bumped):
            rep = check_morphism(base, target, self.theta)
            for rec in rep.records:
                r, s, t = rec.params["r"], rec.params["s"], rec.params["t"]
                th = self.theta.theta
                ref, scale = self.dense_residual(
                    (target.delta(r, s, t), th(r, t)),
                    (superop_tensor(th(r, s), th(s, t)), base.delta(r, s, t)))
                self.assert_close(rec.residual, ref, scale)
            assert rep.passed == (target is self.sys)

    def test_comultiplicative(self):
        from cstar_systems.algebra import functional_tensor

        for sys in (self.sys, self.bumped):
            fam = constant_functional_family(sys, vector_state)
            rep = check_comultiplicative(sys, fam)
            residuals = [rec for rec in rep.records if rec.residual is not None]
            assert len(residuals) == len(GRID.triples())
            for rec in residuals:
                r, s, t = rec.params["r"], rec.params["s"], rec.params["t"]
                row = functional_tensor(fam.phi(r, s), fam.phi(s, t)).row()
                mat = sys.delta(r, s, t).matrix
                ref = max_abs(row @ mat - fam.phi(r, t).row())
                scale = max(max_abs(np.abs(row) @ np.abs(mat)), max_abs(fam.phi(r, t).row()))
                self.assert_close(rec.residual, ref, scale)
            assert max(rec.residual for rec in residuals) > 1e-6
