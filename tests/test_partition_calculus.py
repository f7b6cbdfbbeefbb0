import operator
from fractions import Fraction as F
from functools import reduce

import numpy as np
import pytest

from conftest import chain_matrix
from cstar_systems import partition_calculus, states_gns, suites
from cstar_systems.algebra import (
    AlgebraElement,
    DimensionCapError,
    LinearFunctional,
    functional_tensor,
    tensor_element,
    vector_state,
)
from cstar_systems.cli import RunConfig, build_setup
from cstar_systems.linalg import DEFAULT_TOL, Superoperator, compose, max_abs, superop_tensor
from cstar_systems.partition_calculus import (
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
    lift_morphism,
    lifted_morphism_residual,
    one_param_coassociativity_residual,
    partition_algebra,
    push_germ,
    state_on_partition,
    unit_on_partition,
)
from cstar_systems.systems import (
    FunctionalFamily,
    Grid,
    MorphismFamily,
    OffGridError,
    UnitFamily,
    constant_functional_family,
    diagonal_system,
    enumerate_all_partitions,
    glue_hilbert_system,
    standard_unit,
)
from cstar_systems.timegrid import EndpointMismatchError, Partition

RNG = np.random.default_rng(99)
EPS = DEFAULT_TOL
GRID6 = Grid([1, 2, 3, 4, 5, 6])


def operator_norm(x):
    """The largest singular value over the blocks of an algebra element."""
    return max(np.linalg.norm(m, 2) for m in x.block_matrices)


@pytest.fixture(scope="module")
def diag():
    hs, sys = diagonal_system(GRID6, 2)
    return sys


@pytest.fixture(scope="module")
def diag_unit(diag):
    return standard_unit(diag)


@pytest.fixture(scope="module")
def diag_state(diag):
    return constant_functional_family(diag, vector_state)


@pytest.fixture(scope="module")
def glue():
    _, sys = glue_hilbert_system(Grid([1, 2, 3, 4]), [2, 3, 2])
    return sys


def test_partition_algebra_is_ordered_tensor(diag, glue):
    assert partition_algebra(diag, Partition([1, 2, 3])).blocks == (4,)
    assert partition_algebra(glue, Partition([1, 2, 3, 4])).blocks == (12,)
    with pytest.raises(OffGridError):
        partition_algebra(diag, Partition([1, F(3, 2), 2]))


def test_dimension_cap_names_partition():
    _, sys = diagonal_system(GRID6, 2, dim_cap=64)
    with pytest.raises(DimensionCapError, match="1, 2, 3, 4, 5"):
        partition_algebra(sys, Partition([1, 2, 3, 4, 5]))


class TestIntervalMap:
    def test_two_points_is_identity(self, diag):
        d = delta_interval_to_partition(diag, Partition([2, 5]))
        assert max_abs(d.matrix - np.eye(4)) == 0

    def test_three_points_is_the_comultiplication(self, diag):
        part = Partition([1, 3, 6])
        d = delta_interval_to_partition(diag, part)
        assert max_abs(d.matrix - diag.delta(F(1), F(3), F(6)).matrix) == 0

    def test_diagonal_basis_action(self, diag):
        part = Partition([1, 2, 3, 4])
        d = delta_interval_to_partition(diag, part)
        e12 = diag.alg(F(1), F(4)).matrix_unit(0, 0, 1)
        cells = [diag.alg(a, b).matrix_unit(0, 0, 1) for a, b in part.pairs()]
        expected = tensor_element(tensor_element(cells[0], cells[1]), cells[2])
        assert max_abs(d.apply(e12.vec()) - expected.vec()) == 0

    @pytest.mark.parametrize("pts", [[1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5, 6],
                                     [1, 2, 3, 4, 5, 6]])
    def test_oracle_equivalence(self, diag, pts):
        part = Partition(pts)
        rec = delta_interval_to_partition(diag, part).matrix
        assert max_abs(rec - chain_matrix(interval_map_left_nested(diag, part))) < 1e-9
        assert max_abs(rec - chain_matrix(interval_map_right_nested(diag, part))) < 1e-9

    def test_oracle_equivalence_on_glue(self, glue):
        part = Partition([1, 2, 3, 4])
        rec = delta_interval_to_partition(glue, part).matrix
        assert max_abs(rec - chain_matrix(interval_map_left_nested(glue, part))) < 1e-9
        assert max_abs(rec - chain_matrix(interval_map_right_nested(glue, part))) < 1e-9

    def test_interval_map_is_one_conjugation_by_the_hilbert_map(self):
        # A(1,5) -> A_{1,...,5} of diagonal d=3: the 6561 x 9 map (945 KB dense) is held
        # as the conjugation by its 81 x 3 Hilbert map V, e_i -> e_i (x) e_i (x) e_i (x) e_i
        _, sys = diagonal_system(Grid([1, 2, 3, 4, 5]), 3, dim_cap=8192)
        op = delta_interval_to_partition(sys, Partition([1, 2, 3, 4, 5]))
        assert (op.out_dim, op.in_dim) == (6561, 9) and op.ad == (True,)
        assert sum(f.nbytes for f in op.factors) <= 4096
        v = np.zeros((81, 3))
        v[np.arange(3) * 40, np.arange(3)] = 1.0
        assert np.array_equal(op.factors[0], v)

    @pytest.mark.parametrize("pts", [[1, 2, 3], [1, 2, 3, 4], [2, 3, 5, 6],
                                     [1, 2, 3, 4, 5, 6]])
    def test_oracles_are_chains_of_triple_maps(self, diag, pts):
        # one link per interior point, outermost first: each holds its triple map and
        # skipped identities only, and the innermost is the triple map itself
        part = Partition(pts)
        innermost = {interval_map_left_nested: (pts[0], pts[-2], pts[-1]),
                     interval_map_right_nested: (pts[0], pts[1], pts[-1])}
        for oracle, triple in innermost.items():
            chain = oracle(diag, part)
            assert len(chain) == len(pts) - 2
            assert chain[-1] is diag.delta(*triple)
            for link in chain:
                held = [f for f, skip in zip(link.factors, link.skip) if not skip]
                assert len(held) == 1
                assert any(held[0] is t.factors[0] for t in diag.deltas.values())

    def test_perturbed_oracle_link_fails_the_oracle_record(self, monkeypatch):
        # a copy of the left chain of I whose outermost link is scaled by 1 + 1e-6: the
        # oracle record of I fails, and no other record does
        setup = build_setup(RunConfig.from_json({
            "grid": ["1", "2", "3", "4"], "system": {"kind": "diagonal", "d": 2},
            "suites": ["partition"]}))
        target = Partition([1, 2, 3, 4])
        build = suites.interval_map_left_nested

        def perturbed(sys, part):
            chain = list(build(sys, part))
            if part == target:
                link = chain[0]
                assert link.ad == (True, True)
                chain[0] = Superoperator.factored(
                    [f if skip else f * (1 + 1e-6) for f, skip in zip(link.factors, link.skip)],
                    link.skip, link.fdoms, link.fcods, link.ad)
            return chain

        monkeypatch.setattr(suites, "interval_map_left_nested", perturbed)
        failing = suites.run_partition(setup, np.random.default_rng(0)).failures()
        assert [(r.check, r.params["I"]) for r in failing] == [
            ("interval_map_oracle_equivalence", target)]
        # the link's one non-identity factor is a conjugation u: u (1 + e) scales its map
        # by (1 + e)^2
        assert failing[0].residual == pytest.approx((1 + 1e-6) ** 2 - 1)


class TestRefinementMaps:
    def test_identity_refinement(self, diag):
        part = Partition([1, 3, 5])
        d = delta_refinement(diag, part, part)
        assert max_abs(d.matrix - np.eye(d.in_dim)) == 0

    def test_single_block_reduces_to_interval_map(self, diag):
        coarse, fine = Partition([1, 6]), Partition([1, 3, 4, 6])
        assert max_abs(delta_refinement(diag, coarse, fine).matrix
                       - delta_interval_to_partition(diag, fine).matrix) == 0

    def test_endpoint_mismatch_rejected(self, diag):
        with pytest.raises(EndpointMismatchError):
            delta_refinement(diag, Partition([1, 2]), Partition([1, 2, 3]))

    def test_factorization_through_refinement(self, diag):
        for coarse, fine in [
            (Partition([1, 3, 6]), Partition([1, 2, 3, 4, 5, 6])),
            (Partition([1, 6]), Partition([1, 4, 6])),
            (Partition([1, 2, 5, 6]), Partition([1, 2, 3, 5, 6])),
        ]:
            lhs = delta_interval_to_partition(diag, fine)
            rhs = compose(delta_refinement(diag, coarse, fine),
                          delta_interval_to_partition(diag, coarse))
            assert max_abs(lhs.matrix - rhs.matrix) < 1e-9

    def test_splits_at_interior_points(self, diag):
        coarse = Partition([1, 3, 5])
        fine = Partition([1, 2, 3, 4, 5])
        whole = delta_refinement(diag, coarse, fine)
        split = superop_tensor(
            delta_refinement(diag, Partition([1, 3]), Partition([1, 2, 3])),
            delta_refinement(diag, Partition([3, 5]), Partition([3, 4, 5])),
        )
        assert max_abs(whole.matrix - split.matrix) < 1e-12

    def test_cocycle(self, diag):
        chains = [
            (Partition([1, 6]), Partition([1, 3, 6]), Partition([1, 2, 3, 4, 6])),
            (Partition([2, 5]), Partition([2, 4, 5]), Partition([2, 3, 4, 5])),
        ]
        for small, mid, big in chains:
            lhs = delta_refinement(diag, small, big).matrix
            rhs = delta_refinement(diag, mid, big).matrix @ \
                delta_refinement(diag, small, mid).matrix
            assert max_abs(lhs - rhs) < 1e-9

    def test_cached_maps_hold_read_only_factors(self, diag, diag_unit):
        delta_refinement(diag, Partition([1, 3, 6]), Partition([1, 2, 3, 4, 6]))
        delta_cross(diag, diag_unit, Partition([2, 4]), Partition([1, 2, 3, 4, 5]))
        maps = [v for key, v in diag._cache.items() if key[0] in ("refine", "cross")]
        assert any(len(op.factors) > 1 for op in maps)
        for op in maps:
            for arr in (*op.factors, op.gather, op.scatter):
                assert arr is None or not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                op.factors[0][0, 0] = 1.0

    def test_glue_refinement_is_permutation_conjugation(self, glue):
        d = delta_refinement(glue, Partition([1, 4]), Partition([1, 2, 3, 4]))
        mat = d.matrix
        assert set(np.unique(np.abs(mat))) <= {0.0, 1.0}
        assert max_abs(mat.conj().T @ mat - np.eye(d.in_dim)) == 0


class TestPaddedMaps:
    def test_pad_above(self, diag, diag_unit):
        x = diag.alg(F(1), F(2)).matrix_unit(0, 0, 1)
        out = delta_cross(diag, diag_unit, Partition([1, 2]), Partition([1, 2, 3]))
        expected = tensor_element(x, diag_unit.p(F(2), F(3)))
        assert max_abs(out.apply(x.vec()) - expected.vec()) == 0

    def test_pad_both_sides(self, diag, diag_unit):
        x = diag.alg(F(2), F(3)).matrix_unit(0, 0, 1)
        out = delta_cross(diag, diag_unit, Partition([2, 3]), Partition([1, 2, 3, 4]))
        expected = tensor_element(tensor_element(diag_unit.p(F(1), F(2)), x),
                                  diag_unit.p(F(3), F(4)))
        assert max_abs(out.apply(x.vec()) - expected.vec()) == 0

    def test_same_endpoints_delegates(self, diag, diag_unit):
        coarse, fine = Partition([1, 3]), Partition([1, 2, 3])
        assert max_abs(delta_cross(diag, diag_unit, coarse, fine).matrix
                       - delta_refinement(diag, coarse, fine).matrix) == 0

    def test_missing_unit_rejected(self, diag):
        with pytest.raises(ValueError, match="unit"):
            delta_cross(diag, None, Partition([1, 2]), Partition([1, 2, 3]))

    def test_cross_cocycle_mixed_endpoints(self, diag, diag_unit):
        chains = [
            (Partition([3, 4]), Partition([2, 3, 4, 5]), Partition([1, 2, 3, 4, 5, 6])),
            (Partition([2, 3]), Partition([2, 3, 4]), Partition([1, 2, 3, 4, 5])),
            (Partition([1, 3]), Partition([1, 2, 3]), Partition([1, 2, 3, 6])),
        ]
        for small, mid, big in chains:
            lhs = delta_cross(diag, diag_unit, small, big).matrix
            rhs = delta_cross(diag, diag_unit, mid, big).matrix @ \
                delta_cross(diag, diag_unit, small, mid).matrix
            assert max_abs(lhs - rhs) < 1e-9

    def test_unit_and_state_coherence(self, diag, diag_unit, diag_state):
        coarse, fine = Partition([2, 4]), Partition([1, 2, 3, 4, 5])
        mapper = delta_cross(diag, diag_unit, coarse, fine)
        assert max_abs(mapper.apply(unit_on_partition(diag_unit, coarse).vec())
                       - unit_on_partition(diag_unit, fine).vec()) == 0
        row = state_on_partition(diag_state, fine).row() @ mapper.matrix
        assert max_abs(row - state_on_partition(diag_state, coarse).row()) == 0


def test_unit_and_state_on_partition(diag, diag_unit, diag_state):
    part = Partition([1, 2, 3])
    p = unit_on_partition(diag_unit, part)
    assert p.algebra.blocks == (4,)
    assert p.is_projection()
    assert np.trace(p.block_matrices[0]).real == pytest.approx(1.0)
    phi = state_on_partition(diag_state, part)
    assert phi.is_state()
    assert phi(p) == pytest.approx(1.0)


class TestGerms:
    def test_pushed_representative_is_the_same_germ(self, diag):
        part, fine = Partition([1, 6]), Partition([1, 2, 4, 6])
        x = partition_algebra(diag, part).random_element(RNG)
        g1 = germ(diag, part, x)
        pushed = partition_algebra(diag, fine).from_vec(
            delta_refinement(diag, part, fine).apply(x.vec()))
        g2 = germ(diag, fine, pushed)
        assert germ_distance(diag, g1, g2) <= EPS

    def test_push_to_own_partition_is_the_element(self, diag):
        part = Partition([1, 2, 4, 6])
        x = partition_algebra(diag, part).random_element(RNG)
        keys = set(diag._cache)
        assert push_germ(diag, None, germ(diag, part, x), part) is x
        assert set(diag._cache) == keys
        with pytest.raises(ValueError, match="blocks"):
            push_germ(diag, None, Germ(part, diag.alg(F(1), F(2)).one()), part)

    def test_distinct_elements_are_distinct_germs(self, diag):
        part = Partition([1, 6])
        alg = partition_algebra(diag, part)
        x = alg.random_element(RNG)
        bumped = x + 1e-3 * alg.matrix_unit(0, 0, 0)
        assert germ_distance(diag, germ(diag, part, x), germ(diag, part, bumped)) > EPS

    def test_cross_padding_identifies_padded_element(self, diag, diag_unit):
        x = diag.alg(F(1), F(2)).matrix_unit(0, 0, 0)
        g1 = germ(diag, Partition([1, 2]), x)
        g2 = germ(diag, Partition([1, 2, 3]),
                  tensor_element(x, diag_unit.p(F(2), F(3))))
        assert germ_distance(diag, g1, g2, unit=diag_unit) <= EPS

    def test_sharp_germs_require_matching_intervals(self, diag):
        g1 = germ(diag, Partition([1, 2]),
                  diag.alg(F(1), F(2)).matrix_unit(0, 0, 0))
        g2 = germ(diag, Partition([2, 3]),
                  diag.alg(F(2), F(3)).matrix_unit(0, 0, 0))
        with pytest.raises(EndpointMismatchError):
            germ_distance(diag, g1, g2)

    def test_projection_germ_is_idempotent(self, diag, diag_unit):
        part = Partition([1, 3, 5])
        g = germ(diag, part, unit_on_partition(diag_unit, part))
        assert germ_distance(diag, germ_binop(diag, g, g, operator.mul, unit=diag_unit), g,
                             unit=diag_unit) <= EPS
        assert operator_norm(g.element) == pytest.approx(1.0)

    def test_star_and_norm(self, diag):
        # the connecting maps are isometric *-maps, so star and norm are
        # representative-independent
        part, fine = Partition([2, 4]), Partition([2, 3, 4])
        w = np.linalg.qr(RNG.standard_normal((2, 2))
                         + 1j * RNG.standard_normal((2, 2)))[0]
        g = germ(diag, part, partition_algebra(diag, part).from_vec(w.reshape(-1)))
        pushed = push_germ(diag, None, g, fine)
        assert operator_norm(pushed) == pytest.approx(1.0)
        assert germ_distance(diag, germ(diag, fine, pushed.star()),
                             germ(diag, part, g.element.star())) <= EPS

    def test_arithmetic_is_representative_independent(self, diag):
        part, fine = Partition([1, 6]), Partition([1, 3, 6])
        alg = partition_algebra(diag, part)
        x, y = alg.random_element(RNG), alg.random_element(RNG)
        gx = germ(diag, part, x)
        gy = germ(diag, part, y)
        pushed = partition_algebra(diag, fine).from_vec(
            delta_refinement(diag, part, fine).apply(x.vec()))
        gx_fine = germ(diag, fine, pushed)
        assert germ_distance(diag, germ_binop(diag, gx, gy, operator.add),
                             germ_binop(diag, gx_fine, gy, operator.add)) <= EPS
        assert germ_distance(diag, germ_binop(diag, gx, gy, operator.mul),
                             germ_binop(diag, gx_fine, gy, operator.mul)) <= EPS


class TestIntervalSplitting:
    def test_basis_split(self, diag):
        g = germ(diag, Partition([1, 6]), diag.alg(F(1), F(6)).matrix_unit(0, 0, 1))
        split = comultiplication(diag, None, g, F(3))
        assert (split.left_partition, split.right_partition) == \
            (Partition([1, 3]), Partition([3, 6]))
        expected = tensor_element(diag.alg(F(1), F(3)).matrix_unit(0, 0, 1),
                                  diag.alg(F(3), F(6)).matrix_unit(0, 0, 1))
        assert split.element.distance(expected) == 0

    def test_split_of_compatible_partition_keeps_element(self, diag):
        part = Partition([1, 3, 6])
        x = partition_algebra(diag, part).random_element(RNG)
        split = comultiplication(diag, None, germ(diag, part, x), F(3))
        assert split.element.distance(x) == 0

    def test_split_then_merge_is_identity(self, diag):
        part = Partition([1, 4, 6])
        x = partition_algebra(diag, part).random_element(RNG)
        g = germ(diag, part, x)
        for cut in (F(2), F(4), F(5)):
            assert germ_distance(diag, comultiplication(diag, None, g, cut).merged(), g) <= EPS

    def test_interior_cut_only_refines(self, diag):
        # without a unit, an interior cut s splits I u {s} at s and pushes the
        # representative there by the refinement map
        for part in (Partition([1, 6]), Partition([1, 4, 6]), Partition([2, 3, 5])):
            g = germ(diag, part, partition_algebra(diag, part).random_element(RNG))
            lo, hi = part.endpoints
            for cut in (p for p in GRID6.points if lo < p < hi):
                target = Partition(sorted(set(part.points) | {cut}))
                split = comultiplication(diag, None, g, cut)
                assert split.left_partition == target.restrict(lo, cut)
                assert split.right_partition == target.restrict(cut, hi)
                expected = delta_refinement(diag, part, target).apply(g.element.vec())
                assert np.array_equal(split.element.vec(), expected)

    def test_cut_outside_the_interval_needs_a_unit(self, diag, diag_unit):
        # at or beyond an endpoint the split pads, which only a unit can do
        g = germ(diag, Partition([2, 4]), diag.alg(F(2), F(4)).matrix_unit(0, 0, 0))
        for cut in (F(2), F(4), F(5)):
            with pytest.raises(EndpointMismatchError):
                comultiplication(diag, None, g, cut)
            split = comultiplication(diag, diag_unit, g, cut)
            assert split.joint_partition.endpoints != (F(2), F(4))

    def test_cut_must_be_interior_grid_point(self, diag):
        g = germ(diag, Partition([2, 5]), diag.alg(F(2), F(5)).matrix_unit(0, 0, 0))
        with pytest.raises(OffGridError):
            comultiplication(diag, None, g, F(7, 2))
        with pytest.raises(ValueError):
            comultiplication(diag, None, g, F(6))


class TestIntervalEmbedding:
    def test_identity_case(self, diag, diag_unit):
        g = germ(diag, Partition([2, 4]), diag.alg(F(2), F(4)).matrix_unit(0, 0, 0))
        assert interval_embedding(diag, diag_unit, g, F(2), F(4)) is g

    def test_padding_formula(self, diag, diag_unit):
        x = diag.alg(F(2), F(4)).matrix_unit(0, 0, 1)
        g = interval_embedding(diag, diag_unit, germ(diag, Partition([2, 4]), x), F(1), F(5))
        assert g.partition == Partition([1, 2, 4, 5])
        expected = tensor_element(tensor_element(diag_unit.p(F(1), F(2)), x),
                                  diag_unit.p(F(4), F(5)))
        assert g.element.distance(expected) == 0

    def test_functoriality(self, diag, diag_unit):
        x = partition_algebra(diag, Partition([3, 4])).random_element(RNG)
        g = germ(diag, Partition([3, 4]), x)
        via = interval_embedding(diag, diag_unit,
                                 interval_embedding(diag, diag_unit, g, F(2), F(5)),
                                 F(1), F(6))
        direct = interval_embedding(diag, diag_unit, g, F(1), F(6))
        assert germ_distance(diag, via, direct, unit=diag_unit) <= EPS


class TestOneParamComultiplication:
    def test_generator_rule_on_elementary_tensors(self, diag, diag_unit):
        x = diag.alg(F(2), F(3)).matrix_unit(0, 0, 1)
        y = diag.alg(F(3), F(5)).matrix_unit(0, 1, 1)
        g = germ(diag, Partition([2, 3, 5]), tensor_element(x, y))
        split = comultiplication(diag, diag_unit, g, F(3))
        assert (split.left_partition, split.right_partition) == \
            (Partition([2, 3]), Partition([3, 5]))
        assert split.element.distance(tensor_element(x, y)) == 0

    def test_interior_cut_of_trivial_partition(self, diag, diag_unit):
        x = diag.alg(F(2), F(5)).matrix_unit(0, 0, 1)
        split = comultiplication(
            diag, diag_unit, germ(diag, Partition([2, 5]), x), F(3))
        expected = diag.delta(F(2), F(3), F(5)).apply(x.vec())
        assert max_abs(split.element.vec() - expected) == 0

    def test_support_right_of_cut_pads_with_unit(self, diag, diag_unit):
        x = diag.alg(F(4), F(5)).matrix_unit(0, 1, 1)
        split = comultiplication(
            diag, diag_unit, germ(diag, Partition([4, 5]), x), F(3))
        # the stretch [2,4] below the germ's support fills with unit projections
        assert split.left_partition == Partition([2, 3])
        assert split.right_partition == Partition([3, 4, 5])
        expected = tensor_element(diag_unit.p(F(2), F(3)),
                                  tensor_element(diag_unit.p(F(3), F(4)), x))
        assert split.element.distance(expected) == 0

    def test_grid_must_straddle_the_cut(self, diag, diag_unit):
        g = germ(diag, Partition([2, 3]), diag.alg(F(2), F(3)).matrix_unit(0, 0, 0))
        with pytest.raises(ValueError, match="straddle"):
            comultiplication(diag, diag_unit, g, F(1))
        with pytest.raises(OffGridError):
            comultiplication(diag, diag_unit, g, F(5, 2))

    def test_deformed_coassociativity_on_random_germs(self, diag, diag_unit):
        part = Partition([2, 5])
        for _ in range(3):
            g = germ(diag, part,
                     partition_algebra(diag, part).random_element(RNG))
            assert one_param_coassociativity_residual(
                diag, diag_unit, g, F(3), F(4)) < 1e-9

    def test_group_like_unit_germ(self, diag, diag_unit):
        ref = germ(diag, Partition([1, 2]),
                   unit_on_partition(diag_unit, Partition([1, 2])))
        for pair in [(F(2), F(4)), (F(3), F(6)), (F(1), F(6))]:
            part = Partition(pair)
            g = germ(diag, part, unit_on_partition(diag_unit, part))
            assert germ_distance(diag, g, ref, unit=diag_unit) <= EPS
        for cut in (F(2), F(3), F(5)):
            split = comultiplication(diag, diag_unit, ref, cut)
            joint_unit = unit_on_partition(diag_unit, split.joint_partition)
            assert split.element.distance(joint_unit) == 0


class TestLiftedMorphisms:
    def test_identity_lift(self, diag, diag_unit):
        from cstar_systems.linalg import identity_superop
        theta = MorphismFamily({
            pair: identity_superop(alg.blocks)
            for pair, alg in diag.algebras.items()
        })
        part = Partition([1, 2, 4])
        lifted = lift_morphism(diag, theta, part)
        assert max_abs(lifted.matrix - np.eye(lifted.in_dim)) == 0
        res = lifted_morphism_residual(diag, diag, theta,
                                       Partition([1, 4]), Partition([1, 2, 4]))
        assert res == 0

    def test_permutation_automorphism_intertwines_lifts(self):
        from cstar_systems.linalg import superop_from_conjugation
        _, sys = diagonal_system(Grid([1, 2, 3, 4]), 3)
        unit = standard_unit(sys)
        perm = np.eye(3, dtype=complex)[[0, 2, 1]]
        theta = MorphismFamily({
            pair: superop_from_conjugation(perm) for pair in sys.algebras
        })
        res = lifted_morphism_residual(sys, sys, theta,
                                       Partition([1, 4]), Partition([1, 2, 3, 4]))
        assert res < 1e-12
        res_pad = lifted_morphism_residual(sys, sys, theta,
                                           Partition([2, 3]), Partition([1, 2, 3, 4]),
                                           unit, unit)
        assert res_pad < 1e-12

    def test_unit_moving_morphism_fails_padded_intertwining(self, diag, diag_unit):
        from cstar_systems.linalg import superop_from_conjugation
        swap = np.eye(2, dtype=complex)[[1, 0]]
        theta = MorphismFamily({
            pair: superop_from_conjugation(swap) for pair in diag.algebras
        })
        res = lifted_morphism_residual(diag, diag, theta,
                                       Partition([2, 3]), Partition([1, 2, 3]),
                                       diag_unit, diag_unit)
        assert res >= 1e-4


def random_families(sys, rng):
    """A functional and an element per grid pair, all random: the fold's order shows
    bitwise.  Also returns the block arrays they were built from."""
    drawn = []

    def draw(alg):
        mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for n in alg.blocks]
        drawn.extend(mats)
        return mats

    return (FunctionalFamily({pair: LinearFunctional(alg, draw(alg))
                              for pair, alg in sys.algebras.items()}),
            UnitFamily({pair: AlgebraElement(alg, draw(alg))
                        for pair, alg in sys.algebras.items()}),
            drawn)


@pytest.mark.parametrize("make", [
    lambda: diagonal_system(Grid([1, 2, 3, 4, 5]), 2)[1],
    lambda: glue_hilbert_system(Grid([1, 2, 3, 4]), [2, 3, 2])[1],
], ids=["diagonal-d2-grid5", "glue-232-grid4"])
@pytest.mark.parametrize("order", [1, -1], ids=["short-first", "long-first"])
def test_memoised_products_are_the_left_fold(make, order):
    sys = make()
    fam, unit, drawn = random_families(sys, np.random.default_rng(5))
    parts = enumerate_all_partitions(sys.grid, len(sys.grid.points))[::order]
    shared = []
    for part in parts:
        cells = part.pairs()
        phi = state_on_partition(fam, part)
        want = reduce(functional_tensor, [fam.phi(a, b) for a, b in cells])
        assert phi.algebra == want.algebra
        assert np.array_equal(phi.density.vec(), want.density.vec())
        assert all(np.array_equal(x, y) for x, y in zip(phi.densities, want.densities))
        p = unit_on_partition(unit, part)
        want = reduce(tensor_element, [unit.p(a, b) for a, b in cells])
        assert p.algebra == want.algebra
        assert np.array_equal(p.vec(), want.vec())
        assert state_on_partition(fam, part) is phi and unit_on_partition(unit, part) is p
        with pytest.raises(ValueError):
            phi.densities[0][0, 0] = 1.0
        with pytest.raises(ValueError):
            p.block_matrices[0][0, 0] = 1.0
        shared += [phi.density.vec(), p.vec()]
    # the families' own elements are read-only too, and shared by the one-cell products
    own = [f.density.vec() for f in fam.functionals.values()]
    own += [x.vec() for x in unit.elements.values()]
    assert not any(v.flags.writeable for v in own)
    assert any(v is w for v in own for w in shared)
    # the arrays the families were built from stay writable and unshared
    assert all(a.flags.writeable for a in drawn)
    assert not any(np.shares_memory(a, v) for a in drawn for v in own + shared)


def test_partition_products_are_built_once(monkeypatch):
    # each product state the partition and gns suites use costs one
    # functional_tensor call on top of its cached prefix, however often it is used
    setup = build_setup(RunConfig.from_json({
        "grid": ["1", "2", "3", "4", "5"], "system": {"kind": "diagonal", "d": 2},
        "unit": {"kind": "standard"}, "counit": {"kind": "standard"},
        "suites": ["partition", "gns"]}))
    requested, calls = [], []
    tensor, state = partition_calculus.functional_tensor, partition_calculus.state_on_partition

    def counting_tensor(f, g):
        calls.append(1)
        return tensor(f, g)

    def recording_state(fam, partition):
        requested.append(partition)
        return state(fam, partition)

    monkeypatch.setattr(partition_calculus, "functional_tensor", counting_tensor)
    for module in (partition_calculus, states_gns, suites):
        monkeypatch.setattr(module, "state_on_partition", recording_state)
    rng = np.random.default_rng(0)
    assert suites.run_partition(setup, rng).passed and suites.run_gns(setup, rng).passed
    products = {Partition(p.points[:k]) for p in requested for k in range(3, len(p) + 1)}
    assert len(requested) > 2 * len(products)
    assert 0 < len(calls) <= len(products)
