import numpy as np
import pytest

from cstar_systems.algebra import (
    AlgebraElement,
    FiniteCStarAlgebra,
    LinearFunctional,
    functional_tensor,
    gns,
    gram_matrix,
    tensor_algebra,
    tensor_element,
    trace_functional,
    vector_state,
)
from cstar_systems.linalg import (
    DEFAULT_TOL,
    max_abs,
    numerical_rank,
    superop_from_conjugation,
)
from cstar_systems.systems import (
    Grid,
    check_comultiplicative,
    constant_functional_family,
    trivial_from_bialgebra,
)

RNG = np.random.default_rng(7)

M2 = FiniteCStarAlgebra([2])
M3 = FiniteCStarAlgebra([3])
C2 = FiniteCStarAlgebra([1, 1])


def operator_norm(x):
    """The largest singular value over the blocks of an algebra element."""
    return max(np.linalg.norm(m, 2) for m in x.block_matrices)


def diagonal_coproduct(d):
    u = np.zeros((d * d, d), dtype=complex)
    for i in range(d):
        u[i * d + i, i] = 1.0
    return superop_from_conjugation(u)


@pytest.mark.parametrize("a, b, blocks", [
    (M2, M3, (6,)),
    (C2, C2, (1, 1, 1, 1)),
    (M2, C2, (2, 2)),
])
def test_tensor_algebra_blocks(a, b, blocks):
    assert tensor_algebra(a, b).blocks == blocks


@pytest.mark.parametrize("blocks", [[1.0, 1.9], [2.0], ["2"], [None]])
def test_block_sizes_must_be_integers(blocks):
    # int() once truncated 1.9 to 1
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        FiniteCStarAlgebra(blocks)


@pytest.mark.parametrize("blocks", [[], [2, 0]])
def test_block_sizes_must_be_positive(blocks):
    with pytest.raises(ValueError, match="block sizes must be positive"):
        FiniteCStarAlgebra(blocks)


def test_numpy_block_sizes_are_stored_as_python_integers():
    alg = FiniteCStarAlgebra(np.array([2, 1]))
    assert alg.blocks == (2, 1) and all(type(n) is int for n in alg.blocks)


def test_element_arithmetic_and_norm():
    x = M2.matrix_unit(0, 0, 1)
    y = M2.matrix_unit(0, 1, 0)
    assert (x * y).distance(M2.matrix_unit(0, 0, 0)) == 0
    assert (x + y).star().distance(x + y) == 0
    unitary = AlgebraElement(M2, [np.array([[0, 1], [1, 0]], dtype=complex)])
    assert operator_norm(unitary) == pytest.approx(1.0)
    direct_sum = FiniteCStarAlgebra([2, 3])
    z = 5.0 * direct_sum.matrix_unit(1, 0, 0)
    assert operator_norm(z) == pytest.approx(5.0)
    assert np.array_equal(z.vec(), np.eye(13)[4] * 5.0)
    # an element is read-only, its blocks views of its vec
    with pytest.raises(ValueError):
        z.block_matrices[1][0, 0] = 1.0
    assert np.shares_memory(z.block_matrices[1], z.vec())
    with pytest.raises(IndexError):
        direct_sum.matrix_unit(0, 0, 2)


def _random_element(rng, blocks):
    alg = FiniteCStarAlgebra(blocks)
    return alg, [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                 for n in blocks]


def test_vec_storage_is_the_per_block_arithmetic_bitwise():
    rng = np.random.default_rng(23)
    for blocks in [(2, 1, 3), (1, 1, 1, 1), (3,), (2, 2)]:
        alg, xs = _random_element(rng, blocks)
        _, ys = _random_element(rng, blocks)
        x, y = AlgebraElement(alg, xs), AlgebraElement(alg, ys)
        c = complex(rng.standard_normal(), rng.standard_normal())

        def same(elem, mats):
            return (len(elem.block_matrices) == len(mats)
                    and all(np.array_equal(a, b) for a, b in zip(elem.block_matrices, mats)))

        assert same(x, xs)
        assert same(x.star(), [a.conj().T for a in xs])
        assert same(x + y, [a + b for a, b in zip(xs, ys)])
        assert same(x - y, [a - b for a, b in zip(xs, ys)])
        # x * c is c * x, as the per-block product was
        assert same(c * x, [c * a for a in xs]) and same(x * c, [c * a for a in xs])
        assert same(x * y, [a @ b for a, b in zip(xs, ys)])
        alg2, zs = _random_element(rng, (1, 2))
        z = AlgebraElement(alg2, zs)
        assert same(tensor_element(x, z), [np.kron(a, b) for a in xs for b in zs])
        f, g = LinearFunctional(alg, xs), LinearFunctional(alg2, zs)
        fg = functional_tensor(f, g)
        assert same(fg.density, [np.kron(a, b) for a in xs for b in zs])
        assert np.array_equal(f.row(), np.concatenate([a.T.reshape(-1) for a in xs]))
        assert np.array_equal(fg.row(), np.concatenate(
            [np.kron(a, b).T.reshape(-1) for a in xs for b in zs]))
        # results are read-only; the arrays passed stay writable and unshared
        for elem in (x, x.star(), x + y, x - y, c * x, x * y, tensor_element(x, z), fg.density):
            assert not elem.vec().flags.writeable
        assert all(a.flags.writeable for a in xs + ys + zs)
        assert not any(np.shares_memory(a, e.vec()) for a in xs for e in (x, f.density))


def test_from_vec_holds_a_read_only_view_without_a_copy():
    alg = FiniteCStarAlgebra([2, 1])
    v = np.arange(5, dtype=complex)
    x = alg.from_vec(v)
    assert np.shares_memory(x.vec(), v) and np.array_equal(x.vec(), v)
    assert not x.vec().flags.writeable and v.flags.writeable
    assert all(np.shares_memory(b, v) and not b.flags.writeable for b in x.block_matrices)
    with pytest.raises(ValueError):
        x.vec()[0] = 1.0
    real = np.arange(5.0)  # any other dtype is converted into a new complex vec
    assert not np.shares_memory(alg.from_vec(real).vec(), real)
    with pytest.raises(ValueError, match="does not fit blocks"):
        alg.from_vec(np.zeros(4))


def test_block_views_are_built_once_and_stay_read_only():
    from cstar_systems.linalg import split_vec

    rng = np.random.default_rng(5)
    alg, xs = _random_element(rng, (2, 1, 3))
    _, ys = _random_element(rng, (2, 1, 3))
    for x in (AlgebraElement(alg, xs), alg.from_vec(np.arange(14, dtype=complex))):
        views = x.block_matrices
        assert x.block_matrices is views and isinstance(views, tuple)
        assert all(np.shares_memory(b, x.vec()) for b in views)
        with pytest.raises(ValueError):
            views[2][0, 0] = 1.0
    # a functional reads the kept views, bitwise as it read a fresh split of each vec
    phi, y = LinearFunctional(alg, xs), AlgebraElement(alg, ys)
    ref = complex(sum(np.trace(r @ m) for r, m in zip(split_vec(alg.blocks, phi.density.vec()),
                                                      split_vec(alg.blocks, y.vec()))))
    assert phi(y) == ref and phi(y) == ref
    assert phi.densities is phi.density.block_matrices


def test_functional_tensor_of_normalized_traces():
    lhs = functional_tensor(trace_functional(M2, normalized=True),
                            trace_functional(M3, normalized=True))
    rhs = trace_functional(tensor_algebra(M2, M3), normalized=True)
    assert max_abs(lhs.row() - rhs.row()) < 1e-15


def test_functional_tensor_of_vector_states():
    lhs = functional_tensor(vector_state(M2), vector_state(M2))
    rhs = vector_state(tensor_algebra(M2, M2))
    assert max_abs(lhs.row() - rhs.row()) == 0


def test_functional_tensor_unnormalized_trace_on_unit():
    phi = functional_tensor(trace_functional(M2), trace_functional(M2))
    e = tensor_element(M2.matrix_unit(0, 0, 0), M2.matrix_unit(0, 0, 0))
    assert phi(e) == pytest.approx(1.0)


def test_functional_tensor_associative():
    phis = [
        LinearFunctional(M2, [np.diag([0.25, 0.75])]),
        vector_state(M2),
        trace_functional(C2, normalized=True),
    ]
    lhs = functional_tensor(functional_tensor(phis[0], phis[1]), phis[2])
    rhs = functional_tensor(phis[0], functional_tensor(phis[1], phis[2]))
    assert lhs.algebra.blocks == rhs.algebra.blocks
    assert max_abs(lhs.row() - rhs.row()) < 1e-15


def _random_functional(rng, integer):
    """A functional on 1-3 blocks of sizes 1-3 with complex densities: Gaussian, or
    Gaussian integers, whose products are all exact."""
    def draw(n):
        if integer:
            return rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    blocks = tuple(rng.integers(1, 4, rng.integers(1, 4)))
    return LinearFunctional(FiniteCStarAlgebra(blocks), [draw(n) for n in blocks])


def kron_triple_residual(rhos) -> float:
    """max_abs of (phi (x) phi) (x) phi - phi (x) (phi (x) phi), block triple by block
    triple from the densities np.kron forms."""
    return np.max([max_abs(np.kron(np.kron(ri, rj), rk) - np.kron(ri, np.kron(rj, rk)))
                   for ri in rhos for rj in rhos for rk in rhos])


@pytest.mark.parametrize("integer", [False, True], ids=["gaussian", "gaussian_integer"])
def test_functional_tensor_is_the_block_pair_kron_bitwise(integer):
    from cstar_systems.suites import associativity_residual

    rng = np.random.default_rng(11)
    for _ in range(40):
        f, g = _random_functional(rng, integer), _random_functional(rng, integer)
        fg = functional_tensor(f, g)
        ref = [np.kron(rf, rg) for rf in f.densities for rg in g.densities]
        assert fg.algebra == tensor_algebra(f.algebra, g.algebra)
        assert len(fg.densities) == len(ref)
        assert all(np.array_equal(x, y) for x, y in zip(fg.densities, ref))
        assert np.array_equal(fg.row(), np.concatenate([r.T.reshape(-1) for r in ref]))
        # the streamed associativity check against the triple densities np.kron forms
        dense = kron_triple_residual(f.densities)
        assert associativity_residual(f) == dense
        if integer:
            assert dense == 0


def test_associativity_residual_is_the_kron_triple_residual_bitwise():
    from cstar_systems.suites import associativity_residual

    rng = np.random.default_rng(24)
    # 128 one-by-one blocks, as on commutative systems, with a non-uniform measure;
    # the triple density is np.kron of the weights, one first weight at a time
    w = rng.dirichlet(np.ones(128))
    phi = LinearFunctional(FiniteCStarAlgebra([1] * 128), [np.array([[x]]) for x in w])
    dense = np.max([max_abs(np.kron(np.kron(w[i:i + 1], w), w) - np.kron(w[i:i + 1], np.kron(w, w)))
                    for i in range(w.size)])
    assert dense > 0
    assert associativity_residual(phi) == dense
    # complex densities with zero rows and a zero block
    rhos = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (3, 2, 2)]
    rhos[0][1] = 0
    rhos[1][:, 0] = rhos[1][0] = 0
    rhos[2][:] = 0
    dense = kron_triple_residual(rhos)
    assert dense > 0
    assert associativity_residual(LinearFunctional(FiniteCStarAlgebra((3, 2, 2)), rhos)) == dense


@pytest.mark.parametrize("rhos", [[np.diag([0.5, np.nan])], [np.diag([np.inf, 0.5]), np.eye(1)]],
                         ids=["nan", "inf"])
def test_associativity_residual_of_a_non_finite_density_fails(rhos):
    from cstar_systems.suites import associativity_residual

    phi = LinearFunctional(FiniteCStarAlgebra([r.shape[0] for r in rhos]), rhos)
    with np.errstate(invalid="ignore"):
        res = associativity_residual(phi)
    assert np.isnan(res)
    assert not res <= 1e-9


def test_functional_holds_complex_densities_and_family_views_stay_read_only():
    from cstar_systems.partition_calculus import state_on_partition
    from cstar_systems.systems import FunctionalFamily
    from cstar_systems.timegrid import Partition

    rho = np.diag([0.25, 0.75]).astype(complex)
    real = np.diag([0.25, 0.75])
    for given in (rho, real):  # the densities are copied into one complex vec
        held = LinearFunctional(M2, [given]).densities[0]
        assert held.dtype == complex and np.array_equal(held, given)
        assert not np.shares_memory(held, given) and not held.flags.writeable
    fam = FunctionalFamily({(1, 2): LinearFunctional(M2, [rho]), (2, 3): vector_state(M2)})
    for part in (Partition([1, 2]), Partition([1, 2, 3])):
        phi = state_on_partition(fam, part)
        assert not any(r.flags.writeable for r in phi.densities)
        assert np.shares_memory(phi.densities[0], phi.density.vec())
        # a functional built on the shared density holds it as it is, read-only
        again = LinearFunctional.of_density(phi.density)
        assert again.density is phi.density
        with pytest.raises(ValueError):
            again.densities[0][0, 0] = 1.0
    assert rho.flags.writeable and real.flags.writeable  # a caller's array is never frozen


def test_state_predicate():
    assert vector_state(M2).is_state()
    assert trace_functional(M2, normalized=True).is_state()
    assert not trace_functional(M2).is_state()
    assert not LinearFunctional(M2, [np.diag([2.0, -1.0])]).is_state()


def test_a_nan_density_is_not_a_state():
    # Python's max once dropped the NaN negativity, so this was a state and gns
    # failed in Gram-Schmidt with ArithmeticError
    phi = LinearFunctional(M2, [np.array([[0.5, np.nan], [np.nan, 0.5]])])
    neg, norm_err = phi.state_residuals()
    assert np.isnan(neg) and norm_err == 0.0
    assert not phi.is_state()
    with pytest.raises(ValueError, match="not a state"):
        gns(M2, phi)


class TestGns:
    def test_faithful_state_has_full_dimension(self):
        phi = LinearFunctional(M3, [np.diag([0.2, 0.3, 0.5])])
        assert gns(M3, phi).dim == 9

    def test_vector_state_on_m2(self):
        data = gns(M2, vector_state(M2))
        assert data.dim == 2
        # eta is the first-column map in the canonical basis
        x = M2.random_element(RNG)
        assert max_abs(data.eta @ x.vec() - x.block_matrices[0][:, 0]) < 1e-12

    def test_rank_two_density_on_m3(self):
        phi = LinearFunctional(M3, [np.diag([0.5, 0.5, 0.0])])
        data = gns(M3, phi)
        assert data.dim == 6

    @pytest.mark.parametrize("alg, phi", [
        (M2, vector_state(M2)),
        (M3, LinearFunctional(M3, [np.diag([0.5, 0.5, 0.0])])),
        (C2, LinearFunctional(C2, [[[0.5]], [[0.5]]])),
        (FiniteCStarAlgebra([2, 1]),
         LinearFunctional(FiniteCStarAlgebra([2, 1]), [np.diag([0.25, 0.25]), [[0.5]]])),
    ])
    def test_inner_product_reproduction_and_brute_force_rank(self, alg, phi):
        data = gns(alg, phi)
        dim = alg.dim
        brute = np.zeros((dim, dim), dtype=complex)
        basis = [alg.from_vec(np.eye(dim)[a]) for a in range(dim)]
        for a in range(dim):
            for b in range(dim):
                brute[b, a] = phi(basis[b].star() * basis[a])
        assert data.dim == numerical_rank(brute)
        worst = max(
            abs(np.vdot(data.eta[:, b], data.eta[:, a]) - brute[b, a])
            for a in range(dim) for b in range(dim)
        )
        assert worst < 1e-9

    def test_gram_matrix_matches_brute_force(self):
        phi = LinearFunctional(M2, [np.array([[0.5, 0.2], [0.2, 0.5]])])
        g = gram_matrix(M2, phi)
        basis = [M2.from_vec(np.eye(4)[a]) for a in range(4)]
        for a in range(4):
            for b in range(4):
                assert abs(g[b, a] - phi(basis[b].star() * basis[a])) < 1e-14

    def test_rejects_non_states(self):
        with pytest.raises(ValueError, match="not a state"):
            gns(M2, trace_functional(M2))
        with pytest.raises(ValueError, match="not a state"):
            gns(M2, LinearFunctional(M2, [np.diag([1.5, -0.5])]))

    def test_lift_is_right_inverse(self):
        phi = LinearFunctional(M3, [np.diag([0.5, 0.5, 0.0])])
        data = gns(M3, phi)
        assert max_abs(data.eta @ data.lift - np.eye(data.dim)) < 1e-12

    @pytest.mark.parametrize("eps", [0.4, 0.6, 1, 2])
    def test_non_diagonal_state_at_large_tolerance(self, eps):
        # both diagonal entries (0.5) lie below the cut from 0.6 on, the
        # eigenvalue 1 above it: the quotient is one vector per row
        phi = LinearFunctional(M2, [np.full((2, 2), 0.5)])
        data = gns(M2, phi, eps)
        assert data.dim == 2
        assert max_abs(data.eta @ data.lift - np.eye(data.dim)) < 1e-12

    def test_large_tolerance_drops_the_small_weight(self):
        # at tolerance 0.5 the weight 0.3 is kernel: e_00 and e_10 have no coset
        data = gns(M2, LinearFunctional(M2, [np.diag([0.3, 0.7])]), 0.5)
        assert data.dim == 2
        assert max_abs(data.eta[:, [0, 2]]) == 0
        assert max_abs(data.eta @ data.lift - np.eye(data.dim)) < 1e-12


def dense_gns_reference(alg, phi, tol=DEFAULT_TOL):
    """Modified Gram-Schmidt over all matrix units under the dense Gram matrix.

    The unfactored construction: returns (rank, eta, lift) with the basis in
    matrix-unit index order and the rank threshold eps * lambda_max of G.
    """
    g = gram_matrix(alg, phi)
    evals = np.linalg.eigvalsh(g)
    threshold = tol * max(float(evals[-1]), 0.0)
    rank = int(np.sum(evals > threshold))
    coeffs = []
    for a in range(alg.dim):
        u = np.zeros(alg.dim, dtype=complex)
        u[a] = 1.0
        for _ in range(2):
            for w in coeffs:
                u = u - w * (w.conj() @ g @ u)
        nrm2 = float((u.conj() @ g @ u).real)
        if nrm2 > threshold:
            coeffs.append(u / np.sqrt(nrm2))
        if len(coeffs) == rank:
            break
    w = np.array(coeffs).reshape(rank, alg.dim)
    return rank, w.conj() @ g, w.T


def random_density(rng, n, rank=None):
    rank = n if rank is None else rank
    a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return a @ a.conj().T


def random_state(rng, blocks, ranks=None):
    ranks = ranks or [None] * len(blocks)
    rhos = [random_density(rng, n, r) for n, r in zip(blocks, ranks)]
    total = sum(np.trace(r).real for r in rhos)
    alg = FiniteCStarAlgebra(blocks)
    return alg, LinearFunctional(alg, [r / total for r in rhos])


def _factored_cases():
    rng = np.random.default_rng(11)
    cases = {
        "faithful (1,2,3)": random_state(rng, (1, 2, 3)),
        "faithful (2,2)": random_state(rng, (2, 2)),
        "faithful M4": random_state(rng, (4,)),
        "rank-deficient (3,2)": random_state(rng, (3, 2), ranks=[1, 2]),
        "rank-2 density on M3": random_state(rng, (3,), ranks=[2]),
        "vector state on (2,3)": (FiniteCStarAlgebra([2, 3]),
                                  vector_state(FiniteCStarAlgebra([2, 3]), block=1, index=2)),
        "rank-2 diagonal on M3": (M3, LinearFunctional(M3, [np.diag([0.5, 0.5, 0.0])])),
    }
    # block 1 has eigenvalues near 1e-10: above eps * its own lambda_max, but
    # below eps * the global lambda_max, so the whole block is kernel
    alg = FiniteCStarAlgebra([2, 2])
    tiny = 1e-10 * np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    cases["global threshold (2,2)"] = (
        alg, LinearFunctional(alg, [np.diag([0.7, 0.3 - 1e-10]), tiny]))
    return cases


FACTORED_CASES = _factored_cases()


@pytest.mark.parametrize("name", sorted(FACTORED_CASES))
def test_factored_gns_matches_dense_gram_schmidt(name):
    alg, phi = FACTORED_CASES[name]
    rank, eta, lift = dense_gns_reference(alg, phi)
    data = gns(alg, phi)
    assert data.dim == rank
    assert data.eta.shape == eta.shape and data.lift.shape == lift.shape
    assert max_abs(data.eta - eta) < 1e-12
    assert max_abs(data.lift - lift) < 1e-12


def test_global_threshold_drops_a_block_above_its_own_threshold():
    alg, phi = FACTORED_CASES["global threshold (2,2)"]
    tiny = np.linalg.eigvalsh(phi.densities[1])
    big = np.linalg.eigvalsh(phi.densities[0])
    assert tiny.min() > DEFAULT_TOL * tiny.max()
    assert tiny.max() < DEFAULT_TOL * big.max()
    assert gns(alg, phi).dim == 2 * 2


class TestIdempotentFunctionals:
    """(phi (x) phi) o delta = phi, as the co-multiplicativity of a constant family."""

    GRID = Grid([1, 2, 3])

    def idempotent(self, alg, phi, delta):
        sys = trivial_from_bialgebra(self.GRID, alg, delta)
        return check_comultiplicative(sys, constant_functional_family(sys, lambda _: phi)).passed

    def test_vector_state_is_idempotent_for_diagonal_coproduct(self):
        assert self.idempotent(M2, vector_state(M2), diagonal_coproduct(2))

    def test_normalized_trace_is_not(self):
        assert not self.idempotent(M2, trace_functional(M2, normalized=True),
                                   diagonal_coproduct(2))

    def test_unnormalized_trace_is_idempotent_for_any_isometry(self):
        v = np.linalg.qr(RNG.standard_normal((4, 4))
                         + 1j * RNG.standard_normal((4, 4)))[0][:, :2]
        assert self.idempotent(M2, trace_functional(M2), superop_from_conjugation(v))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.idempotent(M3, vector_state(M3), diagonal_coproduct(2))
