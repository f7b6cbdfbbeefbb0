from fractions import Fraction as F

import numpy as np
import pytest

from cstar_systems.commutative import (
    FiniteMultSystem,
    FiniteSpace,
    MultMap,
    as_measure,
    check_measure_family,
    check_mult_system,
    chi_cross,
    chi_refinement,
    functional_from_measure,
    glue_system,
    indicator_unit,
    measure_on_partition,
    modular_addition_system,
    point_merge,
    point_split,
    pushforward,
    space_on_partition,
    split_measure_idempotence,
    superop_from_point_map,
    to_cstar,
)
from cstar_systems.partition_calculus import delta_cross, delta_refinement
from cstar_systems.systems import (
    Grid,
    check_comultiplicative,
    check_system_axioms,
    check_unit,
    classify_system,
    enumerate_all_partitions,
    trivial_unit,
)
from cstar_systems.timegrid import Partition

GRID5 = Grid([1, 2, 3, 4, 5])


@pytest.fixture(scope="module")
def glue():
    return glue_system(GRID5, FiniteSpace(2))


@pytest.fixture(scope="module")
def z2():
    return modular_addition_system(Grid([1, 2, 3, 4]))


def bernoulli_measures(grid, p=F(1, 3)):
    cell = (p, 1 - p)
    out = {}
    for (s, t) in grid.pairs():
        m = (F(1),)
        for a, b in zip(grid.points, grid.points[1:]):
            if s <= a and b <= t:
                m = tuple(x * y for x in m for y in cell)
        out[(s, t)] = m
    return out


def test_measure_validation():
    with pytest.raises(ValueError):
        as_measure([F(1, 2), F(1, 3)])
    with pytest.raises(ValueError):
        as_measure([F(3, 2), F(-1, 2)])
    assert as_measure(["1/3", "2/3"]) == (F(1, 3), F(2, 3))


class TestMultSystems:
    def test_glue_is_a_product_system(self, glue):
        rep = check_mult_system(glue)
        assert rep.passed and rep.records[-1].detail == "product"
        assert glue.space(F(1), F(3)).size == 4
        assert glue.glue(F(1), F(2), F(3))(1, 0) == 2  # concatenation of words

    def test_z2_addition_is_subproduct(self, z2):
        rep = check_mult_system(z2)
        assert rep.passed and rep.records[-1].detail == "subproduct"
        m = z2.glue(F(1), F(2), F(3))
        assert m.surjective() and not m.bijective()

    def test_constant_map_fails_surjectivity(self):
        grid = Grid([1, 2, 3])
        spaces = {pair: FiniteSpace(2) for pair in grid.pairs()}
        chi = {triple: MultMap(np.zeros((2, 2), dtype=int), 2)
               for triple in grid.triples()}
        rep = check_mult_system(FiniteMultSystem(grid, spaces, chi))
        assert not rep.passed

    def test_associativity_counts_failures_exactly(self):
        grid = Grid([1, 2, 3, 4])
        spaces = {pair: FiniteSpace(2) for pair in grid.pairs()}
        table = np.array([[0, 1], [1, 0]])
        chi = {triple: MultMap(table, 2) for triple in grid.triples()}
        broken = dict(chi)
        broken[(F(1), F(2), F(3))] = MultMap(np.array([[0, 1], [1, 1]]), 2)
        rep = check_mult_system(FiniteMultSystem(grid, spaces, broken))
        bad = [r for r in rep.records if r.check == "gluing_associative" and not r.passed]
        assert [(r.params, r.exact_discrepancy) for r in bad] == [
            ({"r": F(1), "s": F(2), "t": F(3), "u": F(4)}, "2")]


class TestGelfandBridge:
    def test_glue_function_algebras_form_a_product_system(self, glue):
        cs = to_cstar(glue)
        assert classify_system(cs) == "product"

    def test_z2_coproduct_of_point_indicator(self, z2):
        cs = to_cstar(z2)
        d0 = cs.alg(F(1), F(2)).zero()
        d0.block_matrices[0][0, 0] = 1.0
        image = cs.delta(F(1), F(2), F(3)).apply(d0.vec())
        assert image.real.tolist() == [1, 0, 0, 1]
        assert classify_system(cs) == "subproduct"

    def test_singleton_spaces_give_the_trivial_system(self):
        grid = Grid([1, 2, 3])
        sys = glue_system(grid, FiniteSpace(1))
        cs = to_cstar(sys)
        assert classify_system(cs) == "product"
        assert all(alg.blocks == (1,) for alg in cs.algebras.values())

    def test_units_of_the_glue_system(self, glue):
        cs = to_cstar(glue)
        assert check_unit(cs, trivial_unit(cs)).passed
        assert check_unit(cs, indicator_unit(cs, 0)).passed

    def test_moved_indicator_is_not_a_unit(self, glue):
        cs = to_cstar(glue)
        # indicator of the all-ones word is not compatible with concatenation
        # at a mixed index; the compatible families are words of a fixed letter
        broken = indicator_unit(cs, 1)
        assert not check_unit(cs, broken).passed


class TestMeasureFamilies:
    def test_glue_bernoulli_passes_exactly(self, glue):
        rep = check_measure_family(glue, bernoulli_measures(GRID5))
        assert rep.passed
        assert all(r.exact_discrepancy in (None, "0") for r in rep.records)

    def test_z2_uniform_passes(self, z2):
        uniform = {pair: (F(1, 2), F(1, 2)) for pair in z2.grid.pairs()}
        assert check_measure_family(z2, uniform).passed

    def test_z2_point_mass_fails_with_exact_discrepancy_one_half(self, z2):
        uniform = {pair: (F(1, 2), F(1, 2)) for pair in z2.grid.pairs()}
        broken = dict(uniform)
        broken[(F(1), F(3))] = (F(1), F(0))
        rep = check_measure_family(z2, broken)
        assert not rep.passed
        discs = {r.exact_discrepancy for r in rep.records
                 if r.exact_discrepancy not in (None, "0")}
        assert discs == {"1/2"}

    def test_pushforward_of_uniforms_is_uniform(self, z2):
        mu = (F(1, 2), F(1, 2))
        assert pushforward(z2.glue(F(1), F(2), F(3)), mu, mu) == mu

    def test_functional_from_measure_is_a_state(self, glue):
        cs = to_cstar(glue)
        phi = functional_from_measure(cs.alg(F(1), F(2)), as_measure(["1/3", "2/3"]))
        assert phi.is_state()


class TestPartitionPointMaps:
    def test_identity(self, glue):
        part = Partition([1, 3, 5])
        pm = chi_refinement(glue, part, part)
        assert pm.tolist() == list(range(space_on_partition(glue, part)))

    def test_cached_tables_are_read_only(self, glue):
        with pytest.raises(ValueError, match="read-only"):
            chi_refinement(glue, Partition([1, 3, 5]), Partition([1, 2, 3, 4, 5]))[0] = 1

    def test_glue_refinement_is_a_bijection(self, glue):
        coarse, fine = Partition([1, 3, 5]), Partition([1, 2, 3, 4, 5])
        pm = chi_refinement(glue, coarse, fine)
        assert sorted(pm.tolist()) == list(range(space_on_partition(glue, coarse)))

    def test_duality_with_algebra_maps_is_exact(self, glue):
        cs = to_cstar(glue)
        ones = trivial_unit(cs)
        parts = enumerate_all_partitions(glue.grid, 4)
        for coarse in parts:
            for fine in parts:
                if coarse == fine or not set(coarse.points) <= set(fine.points):
                    continue
                lifted = superop_from_point_map(
                    chi_cross(glue, coarse, fine),
                    space_on_partition(glue, coarse))
                if coarse.endpoints == fine.endpoints:
                    alg_map = delta_refinement(cs, coarse, fine)
                else:
                    alg_map = delta_cross(cs, ones, coarse, fine)
                assert np.array_equal(lifted.matrix, alg_map.matrix)

    def test_duality_on_z2(self, z2):
        cs = to_cstar(z2)
        coarse, fine = Partition([1, 4]), Partition([1, 2, 3, 4])
        lifted = superop_from_point_map(chi_refinement(z2, coarse, fine),
                                        space_on_partition(z2, coarse))
        assert np.array_equal(lifted.matrix,
                              delta_refinement(cs, coarse, fine).matrix)

    def test_cross_map_projects_then_refines(self, glue):
        coarse, fine = Partition([2, 3]), Partition([1, 2, 3, 4])
        pm = chi_cross(glue, coarse, fine)
        # each point of X_J maps to its middle coordinate
        n_lower, n_mid, n_upper = 2, 2, 2
        for lo in range(n_lower):
            for m in range(n_mid):
                for hi in range(n_upper):
                    assert pm[(lo * n_mid + m) * n_upper + hi] == m


class TestPointSplitting:
    def test_split_returns_the_two_halves(self, glue):
        part = Partition([1, 2, 4, 5])  # cells of sizes 2, 4, 2
        (left, xl), (right, xr) = point_split(glue, part, 11, F(2))
        assert (left, right) == (Partition([1, 2]), Partition([2, 4, 5]))
        assert (xl, xr) == (1, 3)

    def test_split_then_merge_is_identity(self, glue):
        part = Partition([1, 2, 3, 5])
        n = space_on_partition(glue, part)
        for x in range(n):
            for cut in (F(2), F(3)):
                left, right = point_split(glue, part, x, cut)
                assert point_merge(glue, left, right) == (part, x)

    def test_cut_must_be_interior(self, glue):
        with pytest.raises(ValueError):
            point_split(glue, Partition([1, 2, 3]), 0, F(1))
        with pytest.raises(ValueError):
            point_split(glue, Partition([1, 3]), 0, F(2))

    def test_product_measures_split_exactly(self, glue):
        mu = bernoulli_measures(GRID5)
        part = Partition([1, 2, 3, 4, 5])
        joint = measure_on_partition(mu, part)
        for cut in part.interior:
            assert split_measure_idempotence(glue, joint, part, cut) == 0

    def test_correlated_joint_measure_detected(self, glue):
        part = Partition([1, 2, 3])  # two cells of two letters each
        correlated = (F(1, 2), F(0), F(0), F(1, 2))
        disc = split_measure_idempotence(glue, correlated, part, F(2))
        assert disc == F(1, 4)

    def test_measure_on_partition_is_the_product(self, glue):
        mu = bernoulli_measures(GRID5)
        part = Partition([1, 2, 3])
        joint = measure_on_partition(mu, part)
        assert sum(joint) == 1
        assert joint[0] == F(1, 9)
        assert joint[3] == F(4, 9)

    def test_measure_projectivity_along_point_maps(self, glue):
        from cstar_systems.commutative import measure_projectivity_discrepancy

        mu = bernoulli_measures(GRID5)
        cases = [
            (Partition([1, 3]), Partition([1, 2, 3])),        # plain refinement
            (Partition([2, 3]), Partition([1, 2, 3, 4])),     # padded both sides
            (Partition([1, 3, 5]), Partition([1, 2, 3, 4, 5])),
        ]
        for coarse, fine in cases:
            assert measure_projectivity_discrepancy(glue, mu, coarse, fine) == 0

    def test_projectivity_detects_broken_families(self, z2):
        from cstar_systems.commutative import measure_projectivity_discrepancy

        mu = {pair: (F(1, 2), F(1, 2)) for pair in z2.grid.pairs()}
        mu[(F(1), F(3))] = (F(1), F(0))
        disc = measure_projectivity_discrepancy(
            z2, mu, Partition([1, 3]), Partition([1, 2, 3]))
        assert disc == F(1, 2)


def test_comultiplicative_family_from_measures(glue):
    cs = to_cstar(glue)
    from cstar_systems.commutative import measure_family_functionals
    fam = measure_family_functionals(glue, cs, bernoulli_measures(GRID5))
    assert check_comultiplicative(cs, fam).passed
    assert check_system_axioms(cs).passed
