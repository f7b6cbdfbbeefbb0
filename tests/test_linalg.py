import math
import tracemalloc

import numpy as np
import pytest

from cstar_systems.algebra import AlgebraElement, FiniteCStarAlgebra
from cstar_systems.linalg import (
    Superoperator,
    Tolerance,
    check_star_homomorphism,
    compose,
    identity_superop,
    is_isometry,
    max_abs,
    numerical_rank,
    superop_from_conjugation,
    superop_tensor,
    superop_tensor_const,
    split_vec,
    star_perm,
    tensor_blocks,
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


def test_is_isometry():
    assert is_isometry(np.eye(3))
    assert is_isometry(np.array([[1], [1]]) / np.sqrt(2))
    assert not is_isometry(np.diag([1.0, 2.0]))
    u, v = np.linalg.qr(random_complex((4, 4)))[0], np.linalg.qr(random_complex((3, 3)))[0]
    assert is_isometry(np.kron(u[:, :2], v[:, :2]))


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


def test_superop_tensor_const_pads_both_sides():
    f = identity_superop((2,))
    p = unit(2, 0, 0).reshape(-1)
    padded = superop_tensor_const(f, left_const=((2,), p), right_const=((2,), p))
    x = random_complex((2, 2))
    expected = np.kron(np.kron(unit(2, 0, 0), x), unit(2, 0, 0)).reshape(-1)
    assert max_abs(padded.apply(x.reshape(-1)) - expected) < 1e-12


def test_vec_mul_and_vec_star_follow_the_block_structure():
    # the index tables behind check_star_homomorphism, against blockwise algebra
    from cstar_systems.linalg import _product_index

    blocks = (2, 3)
    va = random_complex(13)
    vb = random_complex(13)
    idx = _product_index(blocks)
    prod = np.zeros(13, dtype=complex)
    for a, b in zip(*np.nonzero(idx >= 0)):
        prod[idx[a, b]] += va[a] * vb[b]
    for x, y, z in zip(split_vec(blocks, va), split_vec(blocks, vb), split_vec(blocks, prod)):
        assert max_abs(x @ y - z) < 1e-12
    starred = split_vec(blocks, va.conj()[star_perm(blocks)])
    for x, z in zip(split_vec(blocks, va), starred):
        assert max_abs(x.conj().T - z) == 0


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

    def test_descriptor_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_star_homomorphism(identity_superop((2,)), dom=(3,), cod=(2,))

    def test_memory_stays_bounded_on_m16(self):
        # the M_16 map of glue [4,4]: basis pairs go through in STREAM_ENTRIES chunks
        f = superop_from_conjugation(np.eye(16))
        tracemalloc.start()
        try:
            rep = check_star_homomorphism(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.is_isomorphism
        assert peak < 32 * 2**20


def test_tolerance_default():
    assert Tolerance().eps == 1e-9


from hypothesis import given, settings, strategies as st

block_lists = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)


@given(block_lists, block_lists)
def test_tensor_perm_is_a_permutation(a, b):
    from cstar_systems.linalg import blocks_dim, tensor_perm

    perm = tensor_perm(tuple(a), tuple(b))
    assert sorted(perm.tolist()) == list(range(blocks_dim(tuple(a)) * blocks_dim(tuple(b))))


@given(block_lists)
def test_vec_round_trip(blocks):
    from cstar_systems.linalg import blocks_dim, join_vec

    blocks = tuple(blocks)
    v = np.arange(blocks_dim(blocks), dtype=complex)
    assert max_abs(join_vec(split_vec(blocks, v)) - v) == 0


# -- factored superoperators against the dense Kronecker reference ----------------

def dense_tensor(f, g) -> np.ndarray:
    """Reference: the dense Kronecker product of the two matrices, scattered by tensor_perm."""
    from cstar_systems.linalg import tensor_perm

    k = np.kron(f.matrix, g.matrix)
    out = np.empty_like(k)
    out[np.ix_(tensor_perm(f.cod, g.cod), tensor_perm(f.dom, g.dom))] = k
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


# -- peeling shared identity factors off a map identity -----------------------------

ENTRY_KINDS = ("binary", "real", "complex")


@st.composite
def peel_cases(draw):
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
@given(peel_cases())
def test_peeled_residual_matches_the_unpeeled_reference(case):
    from cstar_systems.linalg import _peel_shared_identities, composite_residual

    lhs, rhs, kind, perturbed = case
    reference = max_abs(lhs.matrix - rhs.matrix)  # every entry of the full maps
    peeled = composite_residual([lhs], [rhs])
    (core_l,), (core_r,) = _peel_shared_identities([lhs], [rhs])
    kept = sum(not s for s in lhs.skip)
    # a perturbed 1 x 1 factor [[1]] is an identity on the left side only
    if lhs.skip == rhs.skip and any(lhs.skip):
        assert len(core_l.factors) == len(core_r.factors) == kept
        assert core_l.skip == core_r.skip == (False,) * kept
        assert core_l.in_dim * math.prod(
            f.shape[1] for f, s in zip(lhs.factors, lhs.skip) if s) == lhs.in_dim
    else:
        assert core_l is lhs and core_r is rhs
    if not perturbed:
        assert peeled == reference == 0.0
    elif kind == "complex" and kept > 1:
        # a product of two genuinely complex entries may be rounded differently
        # by the BLAS kernel of each shape: a few ulp of the largest entry
        scale = max(max_abs(lhs.matrix), max_abs(rhs.matrix))
        assert peeled > 0 and abs(peeled - reference) <= 16 * np.finfo(float).eps * scale
    else:
        assert peeled == reference > 0


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
    from cstar_systems.linalg import _peel_shared_identities, composite_residual

    f = superop_from_conjugation(random_complex((2, 2)))
    g = Superoperator(f.matrix + 0.25, f.dom, f.cod)
    op = superop_tensor(identity_superop((1, 2)), f)
    cases = {
        # different identity flags: g in place of the identity factor
        "skip": superop_tensor(Superoperator(np.ones((5, 5)), (1, 2), (1, 2)), f),
        # a different gather: the same factors, the identity read from blocks (2, 1)
        "gather": Superoperator.factored(op.factors, op.skip, ((2, 1), (2,)), op.fcods),
        # a different scatter: the same factors, the identity written to blocks (2, 1)
        "scatter": Superoperator.factored(op.factors, op.skip, op.fdoms, ((2, 1), (2,))),
        # different factor shapes (4 x 4 (x) 5 x 5) with the same flags and dimensions
        "shapes": Superoperator.factored((np.eye(4), random_complex((5, 5))), op.skip,
                                         ((2,), (1, 2)), ((2,), (1, 2))),
    }
    assert not np.array_equal(cases["gather"].gather, op.gather)
    assert not np.array_equal(cases["scatter"].scatter, op.scatter)
    for name, other in cases.items():
        assert other.in_dim == op.in_dim and other.out_dim == op.out_dim, name
        lhs, rhs = [op], [other]
        assert _peel_shared_identities(lhs, rhs) == (lhs, rhs), name
        assert composite_residual(lhs, rhs) == max_abs(op.matrix - other.matrix) > 0, name
    # chains of more than one map are streamed as they are
    ident = identity_superop(op.dom)
    assert _peel_shared_identities([op, ident], [op]) == ([op, ident], [op])
    peeled_l, peeled_r = _peel_shared_identities([op], [superop_tensor(
        identity_superop((1, 2)), g)])
    assert peeled_l[0].in_dim == f.in_dim and peeled_r[0].factors[0] is g.matrix


def test_split_family_streams_only_core_columns(monkeypatch):
    # refinement_map_splits_at_interior_point on diagonal d=3: both sides tensor the same
    # cell maps, so no column is streamed; with one cell map bumped, a record streams the
    # columns of its core, never those of the identity cells D[I,J] leaves unrefined
    from cstar_systems import linalg, suites
    from cstar_systems.cli import RunConfig, build_setup

    setup = build_setup(RunConfig.from_json({
        "grid": ["1", "2", "3", "4"], "system": {"kind": "diagonal", "d": 3},
        "unit": {"kind": "standard"}, "counit": {"kind": "standard"},
        "suites": ["partition"]}))
    streamed, splits = [], []
    chunks, residual = linalg.unit_column_chunks, suites.composite_residual

    def recording_chunks(in_dim, out_dim):
        streamed.append(in_dim)
        return chunks(in_dim, out_dim)

    def recording_residual(lhs, rhs):
        start = len(streamed)
        res = residual(lhs, rhs)
        if len(lhs) == len(rhs) == 1:  # only the split family compares two single maps
            splits.append((lhs[0], streamed[start:]))
        return res

    monkeypatch.setattr(linalg, "unit_column_chunks", recording_chunks)
    monkeypatch.setattr(suites, "composite_residual", recording_residual)
    report = suites.run_partition(setup, np.random.default_rng(0))
    assert report.passed
    records = [r for r in report.records if r.check == "refinement_map_splits_at_interior_point"]
    assert len(splits) == len(records) > 0
    full = core = 0
    for op, columns in splits:
        assert columns == []
        i = op.skip.index(False)
        bumped = op.factors[i].copy()
        bumped[0, 0] += 0.5
        other = Superoperator.factored(op.factors[:i] + (bumped,) + op.factors[i + 1:], op.skip,
                                       op.fdoms, op.fcods)
        start = len(streamed)
        assert linalg.composite_residual([op], [other]) == 0.5
        kept = math.prod(f.shape[1] for f, s in zip(op.factors, op.skip) if not s)
        assert streamed[start:] == [kept]
        full, core = full + op.in_dim, core + kept
    # {1,2,4} -> {1,2,3,4}: a 729 x 81 map whose core is the 81 x 9 split of [2,4]
    assert core < full and (729, 81) in {(op.out_dim, op.in_dim) for op, _ in splits}


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
    chain = f.apply_many(g.apply_many(cols))  # the unmerged chain, streamed
    got = merged.apply_many(cols)
    assert np.array_equal(compose(f, g).matrix, merged.matrix)
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


def test_merge_leaves_dense_operands_and_mismatched_layouts_alone():
    from cstar_systems.linalg import _merge, compose_dense

    a = Superoperator(random_complex((4, 2)), (1, 1), (2,))
    b = Superoperator(random_complex((5, 4)), (2,), (1, 2))
    factored = superop_tensor(a, b)
    dense = Superoperator(factored.matrix, factored.dom, factored.cod)
    after = superop_tensor(identity_superop((2,)), Superoperator(random_complex((2, 5)),
                                                                 (1, 2), (1, 1)))
    cases = {
        "dense inner map": (after, dense),
        "dense outer map": (Superoperator(after.matrix, after.dom, after.cod), factored),
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
        assert np.array_equal(composed.matrix, compose_dense(f, g).matrix), name


def test_every_cocycle_chain_of_two_factored_maps_merges(monkeypatch):
    # dense-d3's partition suite: the right side D[J,K] D[I,J] of every refinement and padded
    # cocycle record whose two maps are factored becomes one factored map laid out as the
    # left side D[I,K], so the identity peel reaches it
    from cstar_systems import linalg, suites
    from cstar_systems.cli import RunConfig, build_setup

    setup = build_setup(RunConfig.from_json({
        "grid": ["1", "2", "3", "4", "5"], "system": {"kind": "diagonal", "d": 3},
        "unit": {"kind": "standard"}, "counit": {"kind": "standard"},
        "suites": ["partition"], "max_interior_points": 3, "dim_cap": 8192}))
    merges, sides = [], []
    merge, residual = linalg._merge, suites.composite_residual

    def recording_merge(f, g):
        out = merge(f, g)
        if not (f.is_dense or g.is_dense):
            merges.append(out)
        return out

    def recording_residual(lhs, rhs):
        start = len(merges)
        res = residual(lhs, rhs)
        if len(rhs) == 2 and len(merges) > start:
            sides.append((lhs[0], merges[start]))
        return res

    monkeypatch.setattr(linalg, "_merge", recording_merge)
    monkeypatch.setattr(suites, "composite_residual", recording_residual)
    report = suites.run_partition(setup, np.random.default_rng(0))
    assert report.passed
    cocycles = [r for r in report.records if r.check in ("refinement_cocycle", "padded_cocycle")]
    assert len(cocycles) == 158
    assert len(merges) == len(sides) == 111 and all(m is not None for m in merges)
    for lhs, one in sides:
        assert (one.fdoms, one.fcods, one.skip) == (lhs.fdoms, lhs.fcods, lhs.skip)
