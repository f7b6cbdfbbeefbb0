import tracemalloc

import numpy as np
import pytest

from cstar_systems import linalg
from cstar_systems.algebra import AlgebraElement, FiniteCStarAlgebra
from cstar_systems.linalg import (
    DEFAULT_TOL,
    Superoperator,
    check_star_homomorphism,
    compose,
    exact_real,
    identity_superop,
    isometry_residual,
    max_abs,
    numerical_rank,
    superop_adjoint,
    superop_from_conjugation,
    superop_tensor,
    superop_tensor_const,
    split_vec,
    star_perm,
    tensor_blocks,
    unit_products,
    vec_tensor,
)

RNG = np.random.default_rng(20240811)


def unit(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def random_complex(shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def test_kron_associative_exactly():
    # the vec layout of nested tensors is the Kronecker layout, associative exactly;
    # integer entries make the entry products exact, isolating the index layout
    a, b, c = (2, 1), (3,), (1, 2)
    va, vb, vc = (RNG.integers(-4, 5, size=sum(n * n for n in x)).astype(complex)
                  for x in (a, b, c))
    left = vec_tensor(tensor_blocks(a, b), c, vec_tensor(a, b, va, vb), vc)
    right = vec_tensor(a, tensor_blocks(b, c), va, vec_tensor(b, c, vb, vc))
    assert max_abs(left - right) == 0


def test_isometry_residual():
    assert isometry_residual(np.eye(3)) == 0
    assert isometry_residual(np.array([[1], [1]]) / np.sqrt(2)) <= 1e-15
    assert isometry_residual(np.diag([1.0, 2.0])) == 3.0
    u, v = np.linalg.qr(random_complex((4, 4)))[0], np.linalg.qr(random_complex((3, 3)))[0]
    assert isometry_residual(np.kron(u[:, :2], v[:, :2])) <= 1e-14


def test_is_projection():
    def element(m):
        return AlgebraElement(FiniteCStarAlgebra([len(m)]), [m])

    assert element(unit(2, 0, 0)).is_projection()
    assert element(np.eye(4)).is_projection()
    assert not element(np.array([[1, 1], [0, 0]], dtype=complex)).is_projection()
    with pytest.raises(ValueError):
        element(np.ones((2, 3)))


def test_conjugation_superoperator():
    assert max_abs(superop_from_conjugation(np.eye(2)).matrix - np.eye(4)) == 0
    # the group-like isometry sends e12 to e12 (x) e12
    u = np.zeros((4, 2), dtype=complex)
    u[0, 0] = u[3, 1] = 1.0
    image = superop_from_conjugation(u).apply(unit(2, 0, 1).reshape(-1)).reshape(4, 4)
    assert max_abs(image - np.kron(unit(2, 0, 1), unit(2, 0, 1))) == 0
    # the swap unitary exchanges tensor factors
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    a, b = random_complex((2, 2)), random_complex((2, 2))
    image = superop_from_conjugation(swap).apply(np.kron(a, b).reshape(-1)).reshape(4, 4)
    assert max_abs(image - np.kron(b, a)) < 1e-12


def test_superop_tensor_matches_conjugation_of_kron():
    a, b = random_complex((3, 2)), random_complex((2, 2))
    lhs = superop_tensor(superop_from_conjugation(a), superop_from_conjugation(b))
    rhs = superop_from_conjugation(np.kron(a, b))
    assert max_abs(lhs.matrix - rhs.matrix) < 1e-12


def test_superop_tensor_defining_property():
    f = superop_from_conjugation(random_complex((2, 2)))
    g = superop_from_conjugation(random_complex((3, 3)))
    x, y = unit(2, 0, 0), unit(3, 0, 0)
    joint = superop_tensor(f, g).apply(vec_tensor((2,), (3,), x.reshape(-1), y.reshape(-1)))
    expected = vec_tensor((2,), (3,), f.apply(x.reshape(-1)), g.apply(y.reshape(-1)))
    assert max_abs(joint - expected) < 1e-12


def test_superop_tensor_identity_and_associativity():
    ida, idb = identity_superop((2,)), identity_superop((3, 1))
    assert max_abs(superop_tensor(ida, idb).matrix - np.eye(4 * 10)) == 0
    f = superop_from_conjugation(random_complex((2, 2)))
    g = superop_from_conjugation(random_complex((2, 2)))
    h = superop_from_conjugation(random_complex((2, 2)))
    left = superop_tensor(superop_tensor(f, g), h)
    right = superop_tensor(f, superop_tensor(g, h))
    assert left.dom == right.dom and left.cod == right.cod
    assert max_abs(left.matrix - right.matrix) < 1e-12


def test_vec_layout_coherence_on_multiblock():
    blocks_a, blocks_b = (2, 1), (1, 2)
    dim_a = sum(n * n for n in blocks_a)
    dim_b = sum(n * n for n in blocks_b)
    va = random_complex(dim_a)
    vb = random_complex(dim_b)
    joint = vec_tensor(blocks_a, blocks_b, va, vb)
    # block (i,j) of the tensor element is the Kronecker product of the factors
    mats_a, mats_b = split_vec(blocks_a, va), split_vec(blocks_b, vb)
    mats_t = split_vec(tensor_blocks(blocks_a, blocks_b), joint)
    k = 0
    for i in range(len(blocks_a)):
        for j in range(len(blocks_b)):
            assert max_abs(mats_t[k] - np.kron(mats_a[i], mats_b[j])) == 0
            k += 1


def test_compose_matches_sequential_application():
    f = superop_from_conjugation(random_complex((3, 2)))
    g = superop_from_conjugation(random_complex((2, 4)))
    x = random_complex(16)
    scale = max_abs(f.matrix) * max_abs(g.matrix) * max_abs(x)
    assert max_abs(compose(f, g).apply(x) - f.apply(g.apply(x))) < 1e-13 * scale
    with pytest.raises(ValueError):
        compose(g, f)


def test_compose_is_always_dense():
    # factored maps whose layouts align compose densely too: only composite_residual merges
    from cstar_systems.linalg import _merge

    a = Superoperator(random_complex((4, 2)), (1, 1), (2,))
    b = Superoperator(random_complex((4, 4)), (2,), (2,))
    g = superop_tensor(a, identity_superop((2,)))
    f = superop_tensor(b, Superoperator(random_complex((5, 4)), (2,), (1, 2)))
    assert _merge(f, g) is not None
    for outer, inner in ((f, g), (b, a), (f, Superoperator(g.matrix, g.dom, g.cod))):
        composed = compose(outer, inner)
        assert composed.is_dense
        assert (composed.dom, composed.cod) == (inner.dom, outer.cod)
        assert np.array_equal(composed.matrix, outer.apply_many(inner.matrix))


def test_superop_tensor_const_pads_both_sides():
    f = identity_superop((2,))
    p = unit(2, 0, 0).reshape(-1)
    padded = superop_tensor_const(f, left_const=((2,), p), right_const=((2,), p))
    x = random_complex((2, 2))
    expected = np.kron(np.kron(unit(2, 0, 0), x), unit(2, 0, 0)).reshape(-1)
    assert max_abs(padded.apply(x.reshape(-1)) - expected) < 1e-12
    adj = superop_adjoint(padded)
    assert adj.ad == padded.ad and np.array_equal(adj.matrix, padded.matrix.conj().T)


def test_vec_mul_and_vec_star_follow_the_block_structure():
    # the index tables behind check_star_homomorphism, against blockwise algebra
    blocks = (2, 3)
    va = random_complex(13)
    vb = random_complex(13)
    a, b, target = unit_products(blocks)
    assert np.all(np.diff(a) >= 0)  # sorted by the left factor
    prod = np.zeros(13, dtype=complex)
    np.add.at(prod, target, va[a] * vb[b])
    for x, y, z in zip(split_vec(blocks, va), split_vec(blocks, vb), split_vec(blocks, prod)):
        assert max_abs(x @ y - z) < 1e-12
    starred = split_vec(blocks, va.conj()[star_perm(blocks)])
    for x, z in zip(split_vec(blocks, va), starred):
        assert max_abs(x.conj().T - z) == 0


def test_exact_real_drops_only_zero_imaginary_parts():
    x = np.array([[1.0, -2.5], [0.0, 3.0]], dtype=complex)
    assert exact_real(x).dtype == np.float64 and np.array_equal(exact_real(x), x.real)
    y = x.copy()
    y[1, 0] = 1e-300j
    assert exact_real(y) is y


def naive_multiplicativity(f: Superoperator) -> float:
    """max_abs(f(e_a e_b) - f(e_a) f(e_b)) pair by pair, with blockwise @."""
    mat, dom, cod = f.matrix, f.dom, f.cod
    eye = np.eye(f.in_dim, dtype=complex)
    worst = 0.0
    for a in range(f.in_dim):
        for b in range(f.in_dim):
            ab = np.concatenate([(x @ y).reshape(-1) for x, y in zip(
                split_vec(dom, eye[a]), split_vec(dom, eye[b]))])
            lhs = split_vec(cod, mat @ ab)
            rhs = [x @ y for x, y in zip(split_vec(cod, mat[:, a]), split_vec(cod, mat[:, b]))]
            worst = max(worst, *(max_abs(x - y) for x, y in zip(lhs, rhs)))
    return worst


def block_projection(u, w):
    """(a, B, C) -> (u B u*, w C w*) from C + M_2 + M_3 onto M_2 + M_3: a *-homomorphism."""
    mat = np.zeros((13, 14), dtype=complex)
    mat[:4, 1:5] = np.kron(u, u.conj())
    mat[4:, 5:] = np.kron(w, w.conj())
    return Superoperator(mat, (1, 2, 3), (2, 3))


class TestMultiplicativityAgainstPairLoop:
    def assert_agrees(self, f, exact):
        rep = check_star_homomorphism(f)
        ref = naive_multiplicativity(f)
        if exact:
            assert rep.multiplicativity_residual == ref
        else:
            # a few ulp of the largest product entry
            scale = max(f.cod) * max_abs(f.matrix) ** 2
            assert abs(rep.multiplicativity_residual - ref) <= 8 * np.finfo(float).eps * scale
        return rep

    def test_random_unitary_block_projection_is_a_homomorphism(self):
        u, w = np.linalg.qr(random_complex((2, 2)))[0], np.linalg.qr(random_complex((3, 3)))[0]
        rep = self.assert_agrees(block_projection(u, w), exact=False)
        assert rep.is_homomorphism and not rep.injective

    def test_random_complex_map_is_not_a_homomorphism(self):
        rep = self.assert_agrees(Superoperator(random_complex((13, 14)), (1, 2, 3), (2, 3)),
                                 exact=False)
        assert rep.multiplicativity_residual > 1 and not rep.is_homomorphism

    def test_zero_one_maps_agree_exactly(self):
        rep = self.assert_agrees(block_projection(np.eye(2), np.eye(3)[::-1]), exact=True)
        assert rep.is_homomorphism and rep.multiplicativity_residual == 0
        mat = RNG.integers(0, 2, (13, 14)).astype(complex)
        rep = self.assert_agrees(Superoperator(mat, (1, 2, 3), (2, 3)), exact=True)
        assert not rep.is_homomorphism

    def test_many_chunks_compare_every_pair(self, monkeypatch):
        # a one-row chunk still meets every pair; a perturbed cross-block entry is found
        monkeypatch.setattr(linalg, "STREAM_ENTRIES", 1)
        f = block_projection(np.eye(2), np.eye(3))
        mat = f.matrix.copy()
        mat[0, 0] = 0.5  # f(e_0) of the 1 x 1 block now lands in M_2
        rep = self.assert_agrees(Superoperator(mat, f.dom, f.cod), exact=True)
        # f(e_0) f(e_1) = 0.5 E_11 against f(e_0 e_1) = 0, across domain blocks
        assert rep.multiplicativity_residual == 0.5


@pytest.mark.parametrize("stream_entries", [None, 1], ids=["default_chunks", "one_column"])
def test_adjoint_residual_compares_every_column(monkeypatch, stream_entries):
    # a homomorphism with one column bumped at a time: the chunked residual is the dense
    # formula's bit for bit, wherever the column falls
    if stream_entries is not None:
        monkeypatch.setattr(linalg, "STREAM_ENTRIES", stream_entries)
    f = block_projection(np.linalg.qr(random_complex((2, 2)))[0],
                         np.linalg.qr(random_complex((3, 3)))[0])
    for col in range(f.in_dim):
        mat = f.matrix.copy()
        mat[0, col] += 0.5j
        ref = max_abs(mat[:, star_perm(f.dom)] - mat.conj()[star_perm(f.cod), :])
        res = check_star_homomorphism(Superoperator(mat, f.dom, f.cod)).adjoint_residual
        assert res == ref >= 0.5 - 1e-12


def test_numerical_rank():
    assert numerical_rank(np.eye(5)) == 5
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.outer([1, 2, 3], [1, 0, 1])) == 1


def test_numerical_rank_cuts_at_machine_precision():
    eps = np.finfo(float).eps
    # the cutoff is max(dims) * eps * sigma_max = 2 * eps here
    assert numerical_rank(np.diag([1.0, 1e-10])) == 2
    assert numerical_rank(np.diag([1.0, 3 * eps])) == 2
    assert numerical_rank(np.diag([1.0, eps])) == 1
    assert numerical_rank(np.diag([1e300, 1e299])) == 2


class TestStarHomomorphismCheck:
    def test_conjugation_by_isometry_is_monomorphism(self):
        u = np.zeros((4, 2), dtype=complex)
        u[0, 0] = u[3, 1] = 1.0
        rep = check_star_homomorphism(superop_from_conjugation(u))
        assert rep.is_monomorphism and not rep.is_isomorphism
        assert rep.classification == "monomorphism"

    def test_conjugation_by_unitary_is_isomorphism(self):
        w = np.linalg.qr(random_complex((3, 3)))[0]
        rep = check_star_homomorphism(superop_from_conjugation(w))
        assert rep.is_isomorphism

    def test_transpose_map_fails_multiplicativity(self):
        mat = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                mat[i * 2 + j, j * 2 + i] = 1.0
        rep = check_star_homomorphism(Superoperator(mat, (2,), (2,)))
        assert rep.multiplicativity_residual >= 1.0
        assert not rep.is_homomorphism

    def test_zero_map_fails_injectivity(self):
        rep = check_star_homomorphism(Superoperator(np.zeros((4, 4)), (2,), (2,)))
        assert rep.is_homomorphism and not rep.injective
        assert rep.classification == "homomorphism"

    def test_memory_stays_bounded_on_m16(self, monkeypatch):
        # the M_16 map of glue [4,4] held dense: basis pairs go through in STREAM_ENTRIES
        # chunks; held as Ad(1), it is checked at its Hilbert size, and its dense matrix
        # is never formed
        f = superop_from_conjugation(np.eye(16))
        assert peak_of_check(Superoperator(f.matrix, f.dom, f.cod)) < 32 * 2**20
        forbid_conjugation_matrix(monkeypatch)
        assert peak_of_check(f) < 256 * 2**10


def forbid_conjugation_matrix(monkeypatch):
    """Make ``Superoperator.matrix`` fail on a map of one conjugation factor."""
    matrix = Superoperator.matrix

    def guarded(op):
        if op.ad == (True,):
            pytest.fail("the dense matrix of a conjugation was formed")
        return matrix.fget(op)

    monkeypatch.setattr(Superoperator, "matrix", property(guarded))


def peak_of_check(f) -> int:
    """The tracemalloc peak of ``check_star_homomorphism(f)``, which must find an
    isomorphism with residual 0."""
    tracemalloc.start()
    try:
        rep = check_star_homomorphism(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.is_isomorphism and rep.multiplicativity_residual == rep.adjoint_residual == 0
    return peak


def test_tolerance_default():
    assert DEFAULT_TOL == 1e-9


from hypothesis import given, settings, strategies as st

block_lists = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)


# -- the index maps against entry-by-entry loops -----------------------------------

def _offsets(blocks):
    return np.cumsum([0] + [n * n for n in blocks])[:-1]


def loop_tensor_perm(a, b):
    """Reference for ``tensor_perm``: entry (r1, c1) of block i of A and (r2, c2) of
    block j of B land at row r1 nb + r2, column c1 nb + c2 of block (i, j)."""
    dim_b = sum(n * n for n in b)
    perm = np.empty(sum(n * n for n in a) * dim_b, dtype=np.intp)
    offs_a, offs_b = _offsets(a), _offsets(b)
    offs_t = _offsets(tensor_blocks(a, b))
    for i, na in enumerate(a):
        for j, nb in enumerate(b):
            off_t = offs_t[i * len(b) + j]
            n = na * nb
            for r1 in range(na):
                for c1 in range(na):
                    pa = offs_a[i] + r1 * na + c1
                    for r2 in range(nb):
                        for c2 in range(nb):
                            pb = offs_b[j] + r2 * nb + c2
                            perm[pa * dim_b + pb] = off_t + (r1 * nb + r2) * n + (c1 * nb + c2)
    return perm


def loop_star_perm(blocks):
    """Reference for ``star_perm``: entry (i, j) of each block reads (j, i)."""
    perm = np.empty(sum(n * n for n in blocks), dtype=np.intp)
    for n, off in zip(blocks, _offsets(blocks)):
        for i in range(n):
            for j in range(n):
                perm[off + i * n + j] = off + j * n + i
    return perm


def loop_unit_products(blocks):
    """Reference for ``unit_products``: (a, b, target) of e_ij e_jl = e_il, in the
    order of a, then l."""
    out = ([], [], [])
    for n, off in zip(blocks, _offsets(blocks)):
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    for arr, idx in zip(out, (i * n + j, j * n + l, i * n + l)):
                        arr.append(off + idx)
    return tuple(np.array(arr, dtype=np.intp) for arr in out)


index_blocks = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)


@settings(deadline=None, max_examples=200)
@given(index_blocks, index_blocks)
def test_index_maps_match_the_entry_loops(a, b):
    a, b = tuple(a), tuple(b)
    assert np.array_equal(linalg.tensor_perm(a, b), loop_tensor_perm(a, b))
    assert np.array_equal(star_perm(a), loop_star_perm(a))
    for got, want in zip(unit_products(a), loop_unit_products(a)):
        assert np.array_equal(got, want)


@given(block_lists, block_lists)
def test_tensor_perm_is_a_permutation(a, b):
    from cstar_systems.linalg import blocks_dim, tensor_perm

    perm = tensor_perm(tuple(a), tuple(b))
    assert sorted(perm.tolist()) == list(range(blocks_dim(tuple(a)) * blocks_dim(tuple(b))))


def test_vec_tensor_of_single_blocks_caches_no_index_map():
    # the vec of x (x) y in M_n (x) M_m is that of kron(x, y): no index map is built, and
    # every entry is the one product the index-map path forms
    rng = np.random.default_rng(7)
    va, vb = (rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n) for n in (3, 4))
    linalg.tensor_perm.cache_clear()
    got = linalg.vec_tensor((3,), (4,), va, vb)
    assert linalg.tensor_perm.cache_info().currsize == 0
    want = np.empty(got.size, dtype=complex)
    want[linalg.tensor_perm((3,), (4,))] = np.kron(va, vb)
    assert np.array_equal(got, want)


@given(block_lists)
def test_vec_round_trip(blocks):
    from cstar_systems.linalg import blocks_dim, join_vec

    blocks = tuple(blocks)
    v = np.arange(blocks_dim(blocks), dtype=complex)
    assert max_abs(join_vec(split_vec(blocks, v)) - v) == 0


# -- factored superoperators against the dense Kronecker reference ----------------

def dense_tensor(f, g) -> np.ndarray:
    """Reference: the dense Kronecker product of the two matrices, scattered by the
    entry loop ``loop_tensor_perm``."""
    k = np.kron(f.matrix, g.matrix)
    out = np.empty_like(k)
    out[np.ix_(loop_tensor_perm(f.cod, g.cod), loop_tensor_perm(f.dom, g.dom))] = k
    return out


DESCRIPTORS = [(1,), (2,), (1, 1), (1, 2), (1, 1, 3)]
# (dom, cod, identity): one-column constants have dom (1,)
FACTOR_SPECS = [(dom, cod, False) for dom in DESCRIPTORS for cod in DESCRIPTORS] + \
    [(d, d, True) for d in DESCRIPTORS]
ENTRY_BUDGET = 1 << 16


@st.composite
def factor_lists(draw):
    """2-4 factor maps whose tensor has at most ENTRY_BUDGET dense entries, and an entry kind."""
    from cstar_systems.linalg import blocks_dim

    binary = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size, factors = 1, []
    for _ in range(draw(st.integers(2, 4))):
        fitting = [s for s in FACTOR_SPECS
                   if size * blocks_dim(s[0]) * blocks_dim(s[1]) <= ENTRY_BUDGET]
        dom, cod, ident = draw(st.sampled_from(fitting))
        size *= blocks_dim(dom) * blocks_dim(cod)
        if ident:
            factors.append(identity_superop(dom))
            continue
        shape = (blocks_dim(cod), blocks_dim(dom))
        mat = rng.integers(0, 2, shape).astype(complex) if binary else rng.standard_normal(
            shape) + 1j * rng.standard_normal(shape)
        factors.append(Superoperator(mat, dom, cod))
    return factors, binary, rng


def _close(got, want, binary):
    if binary:
        return np.array_equal(got, want)
    return max_abs(got - want) <= 1e-12 * max(1.0, max_abs(want))


@settings(deadline=None, max_examples=60)
@given(factor_lists())
def test_factored_tensor_matches_dense_reference(case):
    from functools import reduce

    from cstar_systems.linalg import superop_tensor_all

    from cstar_systems.linalg import _is_identity

    factors, binary, rng = case
    op = superop_tensor_all(factors)
    # the identity flags are inherited from the operands, never recomputed
    assert op.skip == tuple(map(_is_identity, op.factors))
    ref = reduce(lambda f, g: Superoperator(dense_tensor(f, g), tensor_blocks(f.dom, g.dom),
                                            tensor_blocks(f.cod, g.cod)), factors).matrix
    assert op.matrix.shape == ref.shape == (op.out_dim, op.in_dim)
    if binary:
        x = rng.integers(0, 2, (op.in_dim, 3)).astype(complex)
        r = rng.integers(0, 2, (2, op.out_dim)).astype(complex)
    else:
        x = random_complex((op.in_dim, 3))
        r = random_complex((2, op.out_dim))
    assert _close(op.matrix, ref, binary)
    assert _close(op.apply_many(x), ref @ x, binary)
    assert _close(op.rapply(r), r @ ref, binary)
    assert _close(op.apply(x[:, 0]), ref @ x[:, 0], binary)
    assert _close(op.rapply(r[0]), r[0] @ ref, binary)
    # the adjoint, constants on (1,) included, is the conjugate transpose, factor by factor
    adj = superop_adjoint(op)
    assert (adj.fdoms, adj.fcods, adj.skip) == (op.fcods, op.fdoms, op.skip)
    assert _close(adj.matrix, op.matrix.conj().T, binary)


@settings(deadline=None, max_examples=60)
@given(factor_lists())
def test_factored_tensor_is_associative(case):
    factors, _, _ = case
    constant = Superoperator(np.ones((2, 1)), (1,), (1, 1))
    f, g, h = (factors + [constant])[:3]
    left = superop_tensor(superop_tensor(f, g), h)
    right = superop_tensor(f, superop_tensor(g, h))
    assert (left.dom, left.cod) == (right.dom, right.cod)
    assert np.array_equal(left.matrix, right.matrix)


def test_factored_maps_skip_identities_and_never_cache_the_matrix():
    f = superop_from_conjugation(random_complex((2, 2)))
    op = superop_tensor(identity_superop((1, 2)), f)
    assert op.skip == (True, False) and not op.is_dense
    assert op.matrix is not op.matrix
    assert max_abs(op.matrix - dense_tensor(identity_superop((1, 2)), f)) < 1e-12
    x = random_complex(op.in_dim)
    assert op.apply(x) is not x
    ident = superop_tensor(identity_superop((1, 1)), identity_superop((1,)))
    assert ident.gather is None and ident.scatter is None
    y = ident.apply(x[:ident.in_dim])
    assert np.array_equal(y, x[:ident.in_dim]) and not np.shares_memory(y, x)


def test_dense_map_leaves_the_callers_matrix_writable():
    u = random_complex((4, 2))
    op = Superoperator(u, (1, 1), (1,) * 4)
    assert u.flags.writeable and not op.factors[0].flags.writeable


def test_composite_residual_covers_every_matrix_unit(monkeypatch):
    from cstar_systems import linalg
    from cstar_systems.linalg import composite_residual

    monkeypatch.setattr(linalg, "STREAM_ENTRIES", 7)  # many chunks of one or two columns
    f = superop_from_conjugation(random_complex((2, 2)))
    g = superop_from_conjugation(random_complex((3, 3)))
    op = superop_tensor(f, g)
    mat = op.matrix.copy()
    assert composite_residual([op], [Superoperator(mat, op.dom, op.cod)]) < 1e-12
    for col in (0, op.in_dim - 1):
        bumped = mat.copy()
        bumped[-1, col] += 0.5
        res = composite_residual([op], [Superoperator(bumped, op.dom, op.cod)])
        assert abs(res - 0.5) < 1e-12
    # a two-map chain on each side: (f (x) g) o id = id o (f (x) g)
    ident_in, ident_out = identity_superop(op.dom), identity_superop(op.cod)
    assert composite_residual([op, ident_in], [ident_out, op]) < 1e-12
    with pytest.raises(ValueError):
        composite_residual([op], [identity_superop((2,))])


def test_residual_accumulators_propagate_nan():
    # Python's max keeps its first argument when the next one is NaN: one NaN entry
    # of a map must make each residual NaN, which fails its record
    from cstar_systems.linalg import _adjoint_residual, _multiplicativity_residual, composite_residual

    f = superop_from_conjugation(random_complex((2, 2)))
    a = superop_from_conjugation(random_complex((2, 2)))
    bad = a.matrix.copy()
    bad[1, 2] = np.nan
    assert np.isnan(composite_residual([f, a], [f, Superoperator(bad, a.dom, a.cod)]))
    assert np.isnan(_multiplicativity_residual(bad, (2,), (2,)))
    assert np.isnan(_adjoint_residual(bad, (2,), (2,)))


def test_star_homomorphism_check_reports_a_nan_map():
    # numerical_rank's SVD once raised LinAlgError on the NaN entry
    mat = superop_from_conjugation(np.eye(2)).matrix.copy()
    mat[1, 2] = np.nan
    with np.errstate(invalid="ignore"):
        rep = check_star_homomorphism(Superoperator(mat, (2,), (2,)))
    assert np.isnan(rep.multiplicativity_residual) and np.isnan(rep.adjoint_residual)
    assert rep.rank == 0 and not rep.injective and not rep.surjective
    assert rep.classification == "not a homomorphism"
    assert numerical_rank(np.array([[1.0, np.inf]])) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_star_homomorphism_check_reports_a_non_finite_conjugation(bad):
    # the closed form of Ad(u) would read adjoint 0 on it, so it takes the dense path
    u = np.eye(2, dtype=complex)
    u[0, 1] = bad
    with np.errstate(invalid="ignore"):
        rep = check_star_homomorphism(superop_from_conjugation(u))
    assert np.isnan(rep.multiplicativity_residual) and np.isnan(rep.adjoint_residual)
    assert rep.rank == 0 and not rep.injective and not rep.surjective
    assert rep.classification == "not a homomorphism"


def test_maps_reject_inputs_of_the_wrong_size():
    dense = Superoperator(random_complex((4, 4)), (2,), (2,))
    with pytest.raises(ValueError):
        dense.apply_many(np.eye(16))  # 16 rows would reshape into 4 x 4 columns
    with pytest.raises(ValueError):
        dense.rapply(np.eye(16))
    factored = superop_tensor(identity_superop((1, 2)), dense)
    with pytest.raises(ValueError):
        factored.apply_many(np.eye(factored.in_dim + 1))
    with pytest.raises(ValueError):
        factored.rapply(np.ones(factored.out_dim - 1))


def test_composite_residual_rejects_chains_that_do_not_compose():
    from cstar_systems.linalg import composite_residual

    a = Superoperator(random_complex((4, 16)), (4,), (2,))  # 16 -> 4: cannot follow itself
    b = Superoperator(random_complex((4, 4)), (2,), (2,))
    with pytest.raises(ValueError):
        composite_residual([a, a], [b, a])
    with pytest.raises(ValueError):
        composite_residual([b, a], [a, a])
    assert composite_residual([b, a], [b, a]) == 0.0


# -- map identities whose sides share identity factors ------------------------------

ENTRY_KINDS = ("binary", "real", "complex")


@st.composite
def shared_identity_cases(draw):
    """Two tensors of 2-4 factor maps with identity factors at the same positions.

    Each other factor of the right side is the left one's matrix, copied or
    perturbed.  Every non-identity matrix has entry (0, 0) nonzero, so a
    perturbation always shows in the residual.  Entries are 0/1 ("binary"),
    real or complex Gaussians; one-column constants have dom (1,).
    """
    from cstar_systems.linalg import blocks_dim

    kind = draw(st.sampled_from(ENTRY_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size, left, right, perturbed = 1, [], [], False
    for _ in range(draw(st.integers(2, 4))):
        ident = draw(st.booleans())
        fitting = [s for s in FACTOR_SPECS if s[2] == ident
                   and size * blocks_dim(s[0]) * blocks_dim(s[1]) <= ENTRY_BUDGET]
        dom, cod, _ = draw(st.sampled_from(fitting))
        size *= blocks_dim(dom) * blocks_dim(cod)
        if ident:
            left.append(identity_superop(dom))
            right.append(identity_superop(dom))
            continue
        shape = (blocks_dim(cod), blocks_dim(dom))
        if kind == "binary":
            mat = rng.integers(0, 2, shape).astype(complex)
        elif kind == "real":
            mat = rng.standard_normal(shape).astype(complex)
        else:
            mat = random_complex(shape)
        mat[0, 0] = 1.0
        other = mat.copy()
        if draw(st.booleans()):
            perturbed = True
            r, c = draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))
            other[r, c] += 0.5 if kind == "binary" else 1e-3 * rng.standard_normal()
        left.append(Superoperator(mat, dom, cod))
        right.append(Superoperator(other, dom, cod))
    from cstar_systems.linalg import superop_tensor_all

    return superop_tensor_all(left), superop_tensor_all(right), kind, perturbed


@settings(deadline=None, max_examples=80)
@given(shared_identity_cases())
def test_peeled_residual_matches_the_unpeeled_reference(case):
    # sides that share their identity factors are streamed whole: the residual
    # is that of the dense maps
    from cstar_systems.linalg import composite_residual

    lhs, rhs, kind, perturbed = case
    reference = max_abs(lhs.matrix - rhs.matrix)  # every entry of the full maps
    residual = composite_residual([lhs], [rhs])
    kept = sum(not s for s in lhs.skip)
    if not perturbed:
        assert residual == reference == 0.0
    elif kind == "complex" and kept > 1:
        # a product of two genuinely complex entries may be rounded differently
        # by the BLAS kernel of each shape: a few ulp of the largest entry
        scale = max(max_abs(lhs.matrix), max_abs(rhs.matrix))
        assert residual > 0 and abs(residual - reference) <= 16 * np.finfo(float).eps * scale
    else:
        assert residual == reference > 0


def test_peeled_complex_residual_is_the_unpeeled_one_to_a_few_ulp():
    from cstar_systems.linalg import composite_residual, superop_tensor_all

    f, g = random_complex((4, 1)), random_complex((5, 4))
    bumped = g.copy()
    bumped[2, 3] += 1e-3
    ident = identity_superop((1, 2))
    lhs = superop_tensor_all([Superoperator(f, (1,), (2,)), ident, Superoperator(g, (2,), (1, 2))])
    rhs = superop_tensor_all([Superoperator(f, (1,), (2,)), ident,
                              Superoperator(bumped, (2,), (1, 2))])
    reference = max_abs(lhs.matrix - rhs.matrix)
    scale = max(max_abs(lhs.matrix), max_abs(rhs.matrix))
    assert abs(composite_residual([lhs], [rhs]) - reference) <= 16 * np.finfo(float).eps * scale
    assert reference > 1e-4


def test_peel_leaves_maps_that_differ_in_layout_alone():
    from cstar_systems.linalg import composite_residual

    f = superop_from_conjugation(random_complex((2, 2)))
    op = superop_tensor(identity_superop((1, 2)), f)
    cases = {
        # different identity flags: g in place of the identity factor
        "skip": superop_tensor(Superoperator(np.ones((5, 5)), (1, 2), (1, 2)), f),
        # a different gather: the same factors, the identity read from blocks (2, 1)
        "gather": Superoperator.factored(op.factors, op.skip, ((2, 1), (2,)), op.fcods, op.ad),
        # a different scatter: the same factors, the identity written to blocks (2, 1)
        "scatter": Superoperator.factored(op.factors, op.skip, op.fdoms, ((2, 1), (2,)), op.ad),
        # different factor shapes (4 x 4 (x) 5 x 5) with the same flags and dimensions
        "shapes": Superoperator.factored((np.eye(4), random_complex((5, 5))), op.skip,
                                         ((2,), (1, 2)), ((2,), (1, 2))),
    }
    assert not np.array_equal(cases["gather"].gather, op.gather)
    assert not np.array_equal(cases["scatter"].scatter, op.scatter)
    for name, other in cases.items():
        assert other.in_dim == op.in_dim and other.out_dim == op.out_dim, name
        assert composite_residual([op], [other]) == max_abs(op.matrix - other.matrix) > 0, name


def test_split_family_streams_only_core_columns(monkeypatch):
    # refinement_map_splits_at_interior_point on diagonal d=3: both sides tensor the same
    # cell maps, so no column is streamed; with one cell map bumped, a record streams every
    # column of its domain
    from cstar_systems import linalg, suites
    from cstar_systems.cli import RunConfig, build_setup
    from cstar_systems.report import Report

    setup = build_setup(RunConfig.from_json({
        "grid": ["1", "2", "3", "4"], "system": {"kind": "diagonal", "d": 3},
        "unit": {"kind": "standard"}, "counit": {"kind": "standard"},
        "suites": ["partition"]}))
    streamed, pending, calls = [], [], {}
    chunks, residual = linalg.unit_column_chunks, suites.composite_residual
    record = Report.residual_record

    def recording_chunks(in_dim, out_dim):
        streamed.append(in_dim)
        return chunks(in_dim, out_dim)

    def recording_residual(lhs, rhs):
        start = len(streamed)
        res = residual(lhs, rhs)
        pending.append((lhs, rhs, streamed[start:]))
        return res

    def recording_record(self, check, *args, **kwargs):
        # the comparisons made since the previous record belong to this one
        calls.setdefault(check, []).extend(pending)
        pending.clear()
        return record(self, check, *args, **kwargs)

    monkeypatch.setattr(linalg, "unit_column_chunks", recording_chunks)
    monkeypatch.setattr(suites, "composite_residual", recording_residual)
    monkeypatch.setattr(Report, "residual_record", recording_record)
    report = suites.run_partition(setup, np.random.default_rng(0))
    assert report.passed
    records = [r for r in report.records if r.check == "refinement_map_splits_at_interior_point"]
    split_calls = calls["refinement_map_splits_at_interior_point"]
    assert all(len(lhs) == len(rhs) == 1 for lhs, rhs, _ in split_calls)
    splits = [(lhs[0], columns) for lhs, _, columns in split_calls]
    assert len(splits) == len(records) > 0
    for op, columns in splits:
        assert columns == []
        i = op.skip.index(False)
        bumped = op.factors[i].copy()
        bumped[0, 0] += 0.5
        other = Superoperator.factored(op.factors[:i] + (bumped,) + op.factors[i + 1:], op.skip,
                                       op.fdoms, op.fcods, op.ad)
        start = len(streamed)
        # the bumped factor is a conjugation u with u[0, 0] = 1: its map's entry
        # |u[0, 0]|^2 moves from 1 to 2.25, exactly
        assert op.ad[i] and linalg.composite_residual([op], [other]) == 1.25
        assert streamed[start:] == [op.in_dim]


# -- composing factored maps factor by factor ---------------------------------------

RUN_DESCRIPTORS = [(1, 1), (2,), (1, 2)]
SOURCE_DESCRIPTORS = [(1,), (1, 1), (2,)]
CHAIN_BUDGET = 256  # largest domain or codomain dimension of a generated chain


@st.composite
def aligned_chains(draw):
    """Factor lists of f and g whose tensors compose with aligned layouts, and an entry kind.

    g has 2-3 factors, each mapping onto the tensor of a run of 1-2 factors of f.  A factor
    of g may be a one-column constant (domain (1,)) and f may carry constants between and
    around its runs; identity factors appear on both sides.  Entries are 0/1 ("binary"),
    real or complex Gaussians.
    """
    from functools import reduce

    from cstar_systems.linalg import blocks_dim

    kind = draw(st.sampled_from(ENTRY_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def factor(dom, cod, ident):
        if ident:
            return identity_superop(dom)
        shape = (blocks_dim(cod), blocks_dim(dom))
        if kind == "binary":
            return Superoperator(rng.integers(0, 2, shape).astype(complex), dom, cod)
        if kind == "real":
            return Superoperator(rng.standard_normal(shape).astype(complex), dom, cod)
        return Superoperator(random_complex(shape), dom, cod)

    def maybe_constant(size):
        fitting = [d for d in RUN_DESCRIPTORS if size * blocks_dim(d) <= CHAIN_BUDGET]
        if not fitting or not draw(st.booleans()):
            return size
        cod = draw(st.sampled_from(fitting))
        fs.append(factor((1,), cod, False))
        return size * blocks_dim(cod)

    fs, gs, mid_size = [], [], 1
    out_size = maybe_constant(1)
    for _ in range(draw(st.integers(2, 3))):
        run = []
        for _ in range(draw(st.integers(1, 2))):
            fitting = [d for d in RUN_DESCRIPTORS
                       if max(mid_size, out_size) * blocks_dim(d) <= CHAIN_BUDGET] or [(1, 1)]
            dom = draw(st.sampled_from(fitting))
            ident = draw(st.booleans())
            cod = dom if ident else draw(st.sampled_from(fitting))
            run.append((dom, cod, ident))
            mid_size *= blocks_dim(dom)
            out_size *= blocks_dim(cod)
        target = reduce(tensor_blocks, [dom for dom, _, _ in run])
        if draw(st.booleans()):
            gs.append(identity_superop(target))
        else:
            gs.append(factor(draw(st.sampled_from(SOURCE_DESCRIPTORS)), target, False))
        fs.extend(factor(*spec) for spec in run)
        out_size = maybe_constant(out_size)
    return fs, gs, kind


def _abs_tensor(ops):
    from cstar_systems.linalg import superop_tensor_all

    return superop_tensor_all([Superoperator(np.abs(op.matrix), op.dom, op.cod) for op in ops])


@settings(deadline=None, max_examples=60)
@given(aligned_chains())
def test_merged_chain_matches_the_unmerged_chain(case):
    from cstar_systems.linalg import _merge, composite_residual, superop_tensor_all

    fs, gs, kind = case
    f, g = superop_tensor_all(fs), superop_tensor_all(gs)
    merged = _merge(f, g)
    assert merged is not None and not merged.is_dense
    assert (merged.dom, merged.cod) == (g.dom, f.cod)
    assert merged.in_dim == g.in_dim and merged.out_dim == f.out_dim
    cols = np.eye(g.in_dim, dtype=complex)
    chain = compose(f, g).matrix  # the unmerged chain, dense
    got = merged.apply_many(cols)
    target = chain.copy()
    target[-1, 0] += 0.5
    target = Superoperator(target, g.dom, f.cod)
    residual = composite_residual([target], [f, g])
    reference = max_abs(target.matrix - chain)
    if kind == "binary":
        assert np.array_equal(got, chain)
        assert residual == reference == 0.5
    else:
        # a sum of products may be rounded in another order: a few ulp of the largest entry
        scale = max_abs(_abs_tensor(fs).apply_many(_abs_tensor(gs).apply_many(cols)))
        assert max_abs(got - chain) <= 16 * np.finfo(float).eps * scale
        assert abs(residual - reference) <= 16 * np.finfo(float).eps * scale


def test_a_link_merges_once_the_links_after_it_have(monkeypatch):
    # D* G D for D = F1 (x) F2 with F1 onto the tensor of two cells: D* does not align with
    # the cell factors of G alone, but it does with G D, whose factors are those of D, so the
    # chain merges into one map, (F1* (G1 (x) G2) F1) (x) (F2* G3 F2), and settles against it
    from cstar_systems.linalg import composite_residual, superop_tensor_all

    rng = np.random.default_rng(5)
    d = superop_tensor(Superoperator(rng.integers(0, 2, (16, 2)), (1, 1), (4,)),
                       Superoperator(rng.integers(0, 2, (4, 2)), (1, 1), (2,)))
    grams = [Superoperator(rng.integers(0, 3, (4, 4)), (2,), (2,)) for _ in range(3)]
    g = superop_tensor_all(grams)
    f1, f2 = d.factors
    g12, g3 = superop_tensor(*grams[:2]).matrix, grams[2].matrix
    one = Superoperator.factored([f1.T @ g12 @ f1, f2.T @ g3 @ f2], (False, False), d.fdoms,
                                 d.fdoms)
    assert linalg._merge(superop_adjoint(d), g) is None
    chunks = []
    monkeypatch.setattr(linalg, "unit_column_chunks", lambda *args: chunks.append(args))
    assert composite_residual([superop_adjoint(d), g, d], [one]) == 0.0
    assert chunks == []


def test_merge_leaves_dense_operands_and_mismatched_layouts_alone():
    from cstar_systems.linalg import _merge

    a = Superoperator(random_complex((4, 2)), (1, 1), (2,))
    b = Superoperator(random_complex((5, 4)), (2,), (1, 2))
    factored = superop_tensor(a, b)
    dense = Superoperator(factored.matrix, factored.dom, factored.cod)
    after = superop_tensor(identity_superop((2,)), Superoperator(random_complex((2, 5)),
                                                                 (1, 2), (1, 1)))
    ad = superop_from_conjugation(random_complex((2, 3)))
    cases = {
        "dense inner map": (after, dense),
        "dense outer map": (Superoperator(after.matrix, after.dom, after.cod), factored),
        # a conjugation meets a dense map as any factor does
        "dense map inside a conjugation": (ad, Superoperator(random_complex((9, 4)), (2,), (3,))),
        "dense map outside a conjugation": (Superoperator(random_complex((4, 4)), (2,), (2,)),
                                            ad),
        # one factor of f, on (2,) (x) (2,) = (4,), would read two factors of g
        "a run across factors of g": (
            superop_tensor(Superoperator(random_complex((3, 16)), (4,), (1, 1, 1)),
                           Superoperator(random_complex((2, 1)), (1,), (1, 1))),
            superop_tensor(Superoperator(random_complex((4, 2)), (1, 1), (2,)),
                           Superoperator(random_complex((4, 4)), (2,), (2,)))),
        # g's factors map onto (2,) then (1, 1); f's read (1, 1) then (2,): both tensor to (2, 2)
        "runs of other sizes": (
            superop_tensor(Superoperator(random_complex((2, 2)), (1, 1), (1, 1)),
                           Superoperator(random_complex((4, 4)), (2,), (2,))),
            superop_tensor(Superoperator(random_complex((4, 4)), (2,), (2,)),
                           Superoperator(random_complex((2, 2)), (1, 1), (1, 1)))),
    }
    for name, (f, g) in cases.items():
        assert g.cod == f.dom, name
        assert _merge(f, g) is None, name
        composed = compose(f, g)
        assert composed.is_dense, name
        scale = max_abs(np.abs(f.matrix) @ np.abs(g.matrix))
        assert max_abs(composed.matrix - f.matrix @ g.matrix) <= 16 * np.finfo(float).eps * scale


def test_every_cocycle_chain_of_two_factored_maps_merges(monkeypatch):
    # dense-d3's partition suite: the right side D[J,K] D[I,J] of every refinement and padded
    # cocycle record, and D[I,J] D[{s,t},I] of a factorisation through a refinement, becomes
    # one factored map laid out as the left side, so ``_same_maps`` can settle it; every map
    # is factored, the interval maps one conjugation factor each
    from cstar_systems import linalg, suites
    from cstar_systems.cli import RunConfig, build_setup

    setup = build_setup(RunConfig.from_json({
        "grid": ["1", "2", "3", "4", "5"], "system": {"kind": "diagonal", "d": 3},
        "unit": {"kind": "standard"}, "counit": {"kind": "standard"},
        "suites": ["partition"], "max_interior_points": 3, "dim_cap": 8192}))
    merges, sides, oracle_chains, comparing = [], [], [], []
    merge, residual = linalg._merge, suites.composite_residual

    def recording_merge(f, g):
        out = merge(f, g)
        if comparing:  # not the merges of ``compose`` that build an interval map
            assert not (f.is_dense or g.is_dense)
            merges.append(out)
        return out

    def recording_oracle(build):
        def wrapper(sys, part):
            oracle_chains.append(build(sys, part))
            return oracle_chains[-1]
        return wrapper

    def recording_residual(lhs, rhs):
        start = len(merges)
        comparing.append(rhs)
        res = residual(lhs, rhs)
        comparing.pop()
        if any(rhs is chain for chain in oracle_chains):
            del merges[start:]  # a nested-expansion oracle's chain merges too; it is no cocycle
        elif len(rhs) == 2 and len(merges) > start:
            sides.append((lhs[0], merges[start]))
        return res

    monkeypatch.setattr(linalg, "_merge", recording_merge)
    monkeypatch.setattr(suites, "composite_residual", recording_residual)
    for name in ("interval_map_left_nested", "interval_map_right_nested"):
        monkeypatch.setattr(suites, name, recording_oracle(getattr(suites, name)))
    report = suites.run_partition(setup, np.random.default_rng(0))
    assert report.passed
    cocycles = [r for r in report.records if r.check in ("refinement_cocycle", "padded_cocycle")]
    assert len(cocycles) == 158
    factorisations = [r for r in report.records
                      if r.check == "interval_map_factors_through_refinement"]
    assert len(factorisations) == 19
    assert len(merges) == len(sides) == 158 + 19 and all(m is not None for m in merges)
    for lhs, one in sides:
        assert (one.fdoms, one.fcods, one.skip, one.ad) == (lhs.fdoms, lhs.fcods, lhs.skip,
                                                            lhs.ad)


# -- conjugation factors against their dense matrix u (x) conj(u) -------------------

def random_isometry(rng, kind, rows, cols):
    """An isometry (rows >= cols) of an entry kind: a 0/1 one ("binary") sends the basis
    to distinct basis vectors; a "real" or "complex" one is the Q of a Gaussian's QR."""
    if kind == "binary":
        u = np.zeros((rows, cols), dtype=complex)
        u[rng.permutation(rows)[:cols], np.arange(cols)] = 1.0
        return u
    a = rng.standard_normal((rows, cols))
    if kind == "complex":
        a = a + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(a)[0].astype(complex)


def dense_conjugation(u) -> Superoperator:
    """Reference: x -> u x u* as the dense matrix u (x) conj(u)."""
    return Superoperator(np.kron(u, u.conj()), (u.shape[1],), (u.shape[0],))


def within_bound(got, ref, scale):
    return max_abs(got - ref) <= 16 * np.finfo(float).eps * scale


@st.composite
def conjugation_cases(draw):
    """Isometries a (p x m1), b (q x m2) and u (m1 m2 x n) of one entry kind, and the rng
    that drew them."""
    kind = draw(st.sampled_from(ENTRY_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m1, m2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(1, m1 * m2))
    p, q = draw(st.integers(m1, 4)), draw(st.integers(m2, 4))
    a, b = random_isometry(rng, kind, p, m1), random_isometry(rng, kind, q, m2)
    return a, b, random_isometry(rng, kind, m1 * m2, n), kind, rng


@settings(deadline=None, max_examples=60)
@given(conjugation_cases())
def test_conjugation_factor_acts_as_its_dense_matrix(case):
    from cstar_systems.linalg import _merge

    a, b, u, kind, rng = case
    op, dense = superop_from_conjugation(u), dense_conjugation(u)
    assert op.ad == (True,) and not op.is_dense
    assert np.array_equal(op.matrix, dense.matrix)
    # the adjoint of Ad(u) is Ad(u*), and a dense map's is its conjugate transpose
    adjoints = superop_adjoint(op), superop_adjoint(dense)
    assert adjoints[0].ad == (True,) and adjoints[1].is_dense
    for adj in adjoints:
        assert (adj.dom, adj.cod) == (op.cod, op.dom)
        assert np.array_equal(adj.matrix, dense.matrix.conj().T)
    x = rng.standard_normal((op.in_dim, 3)) + 1j * rng.standard_normal((op.in_dim, 3))
    rows = rng.standard_normal((2, op.out_dim)) + 1j * rng.standard_normal((2, op.out_dim))
    mat = np.abs(dense.matrix)
    assert within_bound(op.apply_many(x), dense.matrix @ x, max_abs(mat @ np.abs(x)))
    assert within_bound(op.rapply(rows), rows @ dense.matrix, max_abs(np.abs(rows) @ mat))
    # a tensor keeps one factor per map, beside a conjugation or a matrix factor
    other = Superoperator(random_complex((5, 5)), (1, 2), (1, 2))
    for f, g in ((op, superop_from_conjugation(a)), (op, other), (other, op)):
        tensor = superop_tensor(f, g)
        assert tensor.ad == f.ad + g.ad
        scale = max_abs(np.kron(np.abs(f.matrix), np.abs(g.matrix)))
        assert within_bound(tensor.matrix, dense_tensor(f, g), scale)
    # a run of conjugations meeting a conjugation merges into one, Ad((a (x) b) u); a
    # factor on M_1 reads no input and stays one of its own, which ``compose`` tensors in
    f = superop_tensor(superop_from_conjugation(a), superop_from_conjugation(b))
    dense_f = Superoperator(dense_tensor(*(dense_conjugation(w) for w in (a, b))), f.dom, f.cod)
    merged, composed = _merge(f, op), compose(f, op)
    assert all(merged.ad) and composed.ad == (True,)
    assert composed.factors[0].shape == (a.shape[0] * b.shape[0], u.shape[1])
    ref = dense_f.matrix @ dense.matrix
    for got in (merged.matrix, composed.matrix):
        if kind == "binary":
            assert np.array_equal(got, ref)
        else:
            assert within_bound(got, ref, max_abs(np.abs(dense_f.matrix) @ mat))


@settings(deadline=None, max_examples=60)
@given(conjugation_cases())
def test_conjugation_identities_settle_only_on_equal_factors(case):
    a, b, u, kind, rng = case
    streamed = []
    chunks = linalg.unit_column_chunks

    def recording_chunks(in_dim, out_dim):
        streamed.append(in_dim)
        return chunks(in_dim, out_dim)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "unit_column_chunks", recording_chunks)
        check_conjugation_identities(a, b, u, streamed)


def check_conjugation_identities(a, b, u, streamed):
    from cstar_systems.linalg import composite_residual

    f = superop_tensor(superop_from_conjugation(a), superop_from_conjugation(b))
    g = superop_from_conjugation(u)
    # settled: the chain merges into the conjugation ``compose`` forms, factor for factor;
    # a factor on M_1 stays one of its own there, and an identity u leaves the chain first
    if min(a.shape[1], b.shape[1]) > 1 and not g.skip[0]:
        assert composite_residual([f, g], [compose(f, g)]) == 0.0 and streamed == []

    def streamed_residual(lhs, rhs):
        """The residual, checked against the dense maps; every column is streamed."""
        start = len(streamed)
        res = composite_residual([lhs], [rhs])
        assert streamed[start:] == [lhs.in_dim]
        reference = max_abs(lhs.matrix - rhs.matrix)
        assert abs(res - reference) <= 16 * np.finfo(float).eps * max(
            max_abs(lhs.matrix), max_abs(rhs.matrix))
        return res

    # streamed: beside the same conjugation, a matrix factor with one entry bumped
    mat = random_complex((5, 5))
    bumped = mat.copy()
    bumped[0, 0] += 1e-3
    lhs = superop_tensor(g, Superoperator(mat, (1, 2), (1, 2)))
    rhs = superop_tensor(g, Superoperator(bumped, (1, 2), (1, 2)))
    assert streamed_residual(lhs, rhs) > 0
    # a bumped u never settles, however small the bump
    for delta in (0.5, 2.0 ** -40):
        v = u.copy()
        v[0, 0] += delta
        assert streamed_residual(g, superop_from_conjugation(v)) > 0
    # nor does a conjugation against its own matrix u (x) conj(u), unless it is the identity
    if not g.skip[0]:
        streamed_residual(g, dense_conjugation(u))


CLOSED_FORM_SHAPES = ("isometry", "unitary", "wide", "zero_column", "repeated_column")


@st.composite
def closed_form_cases(draw):
    """A conjugation u of an entry kind and a shape, perturbed by 1e-3 or not: an
    isometry, a unitary, a wide u (fewer rows than columns, a co-isometry), or an
    isometry with a column set to 0 or to a copy of another, so of lower rank."""
    kind, shape = draw(st.sampled_from(ENTRY_KINDS)), draw(st.sampled_from(CLOSED_FORM_SHAPES))
    perturbed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2 if shape in ("wide", "repeated_column") else 1, 4))
    if shape == "wide":
        u = random_isometry(rng, kind, n, draw(st.integers(1, n - 1))).conj().T
    else:
        u = random_isometry(rng, kind, n if shape == "unitary" else draw(st.integers(n, 5)), n)
    c = rng.integers(n)
    if shape == "zero_column":
        u[:, c] = 0
    elif shape == "repeated_column":
        u[:, c] = u[:, (c + 1) % n]
    if perturbed:
        noise = rng.standard_normal(u.shape)
        u = u + 1e-3 * (noise + 1j * rng.standard_normal(u.shape) if kind == "complex" else noise)
    return u, kind == "binary" and not perturbed, kind == "complex"


@settings(deadline=None, max_examples=80)
@given(closed_form_cases())
def test_conjugation_check_in_closed_form_matches_the_dense_check(case):
    from cstar_systems.linalg import _adjoint_residual, _multiplicativity_residual

    u, zero_one, complex_entries = case
    f = superop_from_conjugation(u)
    with pytest.MonkeyPatch.context() as patch:
        forbid_conjugation_matrix(patch)
        rep = check_star_homomorphism(f)
    dense = Superoperator(f.matrix, f.dom, f.cod)
    mat = exact_real(dense.matrix)
    mult = _multiplicativity_residual(mat, f.dom, f.cod)
    adj = _adjoint_residual(mat, f.dom, f.cod)
    naive = naive_multiplicativity(dense)
    assert rep.rank == numerical_rank(mat)
    assert rep.adjoint_residual == 0.0
    if zero_one:
        assert rep.multiplicativity_residual == mult == naive
    else:
        # a few ulp of the largest entry of f(e_a) f(e_b) or of f(e_a e_b)
        bound = 16 * np.finfo(float).eps * max_abs(u) ** 2 * (max(f.cod) * max_abs(u) ** 2 + 1)
        assert abs(rep.multiplicativity_residual - mult) <= bound
        assert abs(rep.multiplicativity_residual - naive) <= bound
    # a real u (x) conj(u) holds mirrored entries that are the same float products; a
    # complex product may round them apart by a few ulp
    if complex_entries:
        assert adj <= 16 * np.finfo(float).eps * max_abs(u) ** 2
    else:
        assert adj == 0.0


def test_identity_maps_are_dropped_or_merged_before_a_chain_is_compared(monkeypatch):
    # [id, f, id] against [f]: identity maps that merge with no neighbour leave the chain,
    # so the two sides hold the same map and settle with no column streamed; a chain of
    # identities keeps one.  An identity that merges lays its neighbour's factors out as
    # its own, as D[I,J] = id does for D[J,K] in a cocycle of a product system
    from cstar_systems.linalg import composite_residual

    def refuse(*_):
        raise AssertionError("streamed")

    monkeypatch.setattr(linalg, "unit_column_chunks", refuse)
    f = superop_tensor(Superoperator(random_complex((5, 5)), (1, 2), (1, 2)),
                       superop_from_conjugation(random_complex((3, 2))))
    # dense identities of the two-block algebras, which ``_merge`` would leave alone
    ident_in, ident_out = identity_superop(f.dom), identity_superop(f.cod)
    assert ident_in.is_dense and ident_out.is_dense
    assert composite_residual([ident_out, f, ident_in], [f]) == 0.0
    assert composite_residual([f], [ident_out, ident_out, f]) == 0.0
    assert composite_residual([ident_in], [ident_in, ident_in]) == 0.0
    # a factored identity is dropped too
    split = superop_tensor(identity_superop((1, 2)), identity_superop((2,)))
    assert split.dom == f.dom and split.ad == (False, True) and all(split.skip)
    assert composite_residual([f, split], [f]) == 0.0
    a, b = random_complex((2, 2)), random_complex((3, 3))
    cells = superop_tensor(superop_from_conjugation(a), superop_from_conjugation(b))
    whole = superop_from_conjugation(np.kron(a, b))
    assert composite_residual([cells, identity_superop((6,))], [whole]) == 0.0
    # an identity factor is the same map held as Ad(1) or as a matrix
    assert composite_residual([identity_superop((2,))], [Superoperator(np.eye(4), (2,), (2,))]) == 0.0


def test_merge_passes_a_factor_of_g_through_a_run_of_identities():
    # a run of Ad(1) leaves a conjugation factor u of g as it is; a run of identity matrices
    # from (2,) to (1, 1, 1, 1) still moves g's entries from the vec layout of M_4 into the
    # Kronecker layout of its codomains
    from cstar_systems.linalg import _merge, superop_tensor_all

    relabel = Superoperator(np.eye(4), (2,), (1, 1, 1, 1))
    assert relabel.skip == (True,)
    u = random_complex((4, 3))
    g = superop_tensor(Superoperator(random_complex((16, 4)), (2,), (4,)),
                       superop_from_conjugation(u))
    f = superop_tensor_all([relabel, relabel, identity_superop((4,))])
    merged = _merge(f, g)
    assert merged.ad == (False, True) and np.array_equal(merged.factors[1], u)
    assert np.array_equal(merged.matrix, f.matrix @ g.matrix)


# -- the per-layout frame and the Kronecker helper ----------------------------------

SPECIAL_ENTRIES = (np.nan, np.inf, -np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf))
# a product with a NaN or an infinite entry warns; the tests compare what it gives
special_arithmetic = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


@st.composite
def entry_arrays(draw, shape):
    """An array of one entry kind, with up to three entries NaN or infinite."""
    kind = draw(st.sampled_from(ENTRY_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "binary":
        a = rng.integers(0, 2, shape).astype(complex)
    elif kind == "real":
        a = rng.standard_normal(shape).astype(complex)
    else:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if a.size:
        for value in draw(st.lists(st.sampled_from(SPECIAL_ENTRIES), max_size=3)):
            a[tuple(rng.integers(0, n) for n in shape)] = value
    return a


@st.composite
def layouts(draw):
    """Descriptors (fdoms, fcods, ad) of 1-3 factors and the shape of each factor: a
    conjugation only between single blocks."""
    fdoms, fcods, ad, shapes = [], [], [], []
    for _ in range(draw(st.integers(1, 3))):
        dom, cod = draw(st.sampled_from(DESCRIPTORS)), draw(st.sampled_from(DESCRIPTORS))
        conj = len(dom) == len(cod) == 1 and draw(st.booleans())
        shapes.append((cod[0], dom[0]) if conj else (sum(n * n for n in cod),
                                                     sum(n * n for n in dom)))
        fdoms.append(dom), fcods.append(cod), ad.append(conj)
    return tuple(fdoms), tuple(fcods), tuple(ad), shapes


@settings(deadline=None, max_examples=80)
@given(st.data())
@special_arithmetic
def test_kron_helper_is_bitwise_np_kron(data):
    from cstar_systems.linalg import _kron

    a, b = (data.draw(entry_arrays(data.draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))))
            for _ in range(2))
    for x, y in ((a, b), (a.T, b), (a, b.conj()), (a[::2], b[:, ::-1])):
        got, ref = _kron(x, y), np.kron(x, y)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


@settings(deadline=None, max_examples=60)
@given(st.data())
@special_arithmetic
def test_maps_laid_out_alike_share_one_frame(data):
    from cstar_systems.linalg import _frame, _layout

    fdoms, fcods, ad, shapes = data.draw(layouts())
    skip = (False,) * len(fdoms)
    one, two = (Superoperator.factored([data.draw(entry_arrays(s)) for s in shapes], skip,
                                       fdoms, fcods, ad) for _ in range(2))
    assert one.frame is two.frame is _frame(fdoms, fcods, ad)
    assert (one.dom, one.gather) == (two.dom, two.gather)
    assert (one.dom, one.cod) == (_layout(fdoms)[0], _layout(fcods)[0])
    assert (one.in_dim, one.out_dim) == (one.matrix.shape[1], one.matrix.shape[0])
    # a tensor of the factors' own maps has the same frame
    parts = [Superoperator.factored([f], [s], [d], [c], [a]) for f, s, d, c, a
             in zip(one.factors, skip, fdoms, fcods, ad)]
    from cstar_systems.linalg import superop_tensor_all
    assert superop_tensor_all(parts).frame is one.frame


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_a_factor_that_does_not_fit_its_descriptors_is_refused(data):
    fdoms, fcods, ad, shapes = data.draw(layouts())
    k = data.draw(st.integers(0, len(shapes) - 1))
    rows, cols = shapes[k]
    bad = list(shapes)
    bad[k] = data.draw(st.sampled_from([(rows + 1, cols), (rows, cols + 1), (cols, rows)])
                       .filter(lambda s: s != shapes[k]))
    factors = [data.draw(entry_arrays(s)) for s in bad]
    with pytest.raises(ValueError, match="does not match"):
        Superoperator.factored(factors, (False,) * len(factors), fdoms, fcods, ad)
    if not ad[k]:
        with pytest.raises(ValueError, match="does not match"):
            Superoperator(factors[k], fdoms[k], fcods[k])
    # a conjugation needs single blocks, whatever the shape of u
    with pytest.raises(ValueError, match="does not match"):
        Superoperator.factored([np.eye(2)], [False], [(1, 1)], [(1, 1)], [True])
    # as many factors as descriptors
    with pytest.raises(ValueError):
        Superoperator.factored([np.eye(1)] * 2, [True] * 2, [(1,)], [(1,)], [False])


@settings(deadline=None, max_examples=60)
@given(st.data())
@special_arithmetic
def test_identity_superop_is_shared_read_only_and_rebuilt_after_cache_clear(data):
    blocks = data.draw(st.sampled_from(DESCRIPTORS))
    ident = identity_superop(list(blocks))
    assert identity_superop(blocks) is ident and all(ident.skip)
    assert not any(f.flags.writeable for f in ident.factors)
    with pytest.raises(ValueError):
        ident.factors[0][0, 0] = 2.0
    x = data.draw(entry_arrays((ident.in_dim, 2)))
    assert np.array_equal(ident.apply_many(x), x, equal_nan=True)
    linalg._identity.cache_clear()
    again = identity_superop(blocks)
    assert again is not ident and np.array_equal(again.matrix, ident.matrix)


@settings(deadline=None, max_examples=60)
@given(st.data())
@special_arithmetic
def test_apply_many_never_returns_memory_of_its_input(data):
    fdoms, fcods, ad, shapes = data.draw(layouts())
    # a square factor may be an identity, flagged and skipped
    skip = [r == c and data.draw(st.booleans()) for r, c in shapes]
    op = Superoperator.factored([np.eye(s[0]) if i else data.draw(entry_arrays(s))
                                 for s, i in zip(shapes, skip)], skip, fdoms, fcods, ad)
    idents = superop_tensor(identity_superop(fdoms[0]), identity_superop((1, 2)))
    for f in (op, identity_superop(fdoms[0]), idents):
        x = data.draw(entry_arrays((f.in_dim, data.draw(st.integers(1, 3)))))
        before = x.copy()
        y = f.apply_many(x)
        assert not np.shares_memory(y, x)
        assert np.array_equal(x, before, equal_nan=True)
        if all(f.skip) and f.fdoms == f.fcods:
            assert np.array_equal(y, x, equal_nan=True)


def test_identity_factors_on_one_dimensional_cells_do_not_stop_a_settle(monkeypatch):
    # A (x) Ad(1) (x) B against A (x) B: the identity on blocks (1,) -> (1,) is neutral, as in
    # ``_layout``, so the sides settle with no column streamed.  A factor on (1,) that is not
    # flagged identity is compared as it is, and the sides stream
    from cstar_systems.linalg import _same_maps, composite_residual, superop_tensor_all

    a = superop_from_conjugation(random_complex((3, 2)))
    b = Superoperator(random_complex((5, 4)), (2,), (1, 2))
    one = identity_superop((1,))
    assert one.frame.trivial == (0,) and one.skip == (True,)
    with_cell, without = superop_tensor_all([a, one, b]), superop_tensor(a, b)
    assert (with_cell.dom, with_cell.cod) == (without.dom, without.cod)
    assert _same_maps([with_cell], [without]) and _same_maps([without], [with_cell])
    assert _same_maps([with_cell], [superop_tensor_all([one, a, one, b])])
    monkeypatch.setattr(linalg, "unit_column_chunks", lambda *_: pytest.fail("streamed"))
    assert composite_residual([with_cell], [without]) == 0.0
    monkeypatch.undo()
    two = Superoperator(np.full((1, 1), 2.0), (1,), (1,))
    assert not _same_maps([superop_tensor_all([a, two, b])], [without])
    doubled = composite_residual([superop_tensor_all([a, two, b])], [without])
    assert doubled == max_abs(without.matrix)
