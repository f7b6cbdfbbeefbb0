"""Dense complex matrices and superoperators on vectorized algebra elements.

Algebras here are direct sums of full matrix blocks, described by their block
sizes alone.  An element is vectorized by stacking the row-major vec of each
block; a superoperator is an explicit (out_dim x in_dim) matrix acting on such
vectors, tagged with the block descriptors of its domain and codomain.  With
this encoding, composition is a matrix product, equality of maps is entrywise
comparison, and injectivity is a rank computation -- the three operations
every identity check reduces to.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

Blocks = tuple[int, ...]


@dataclass(frozen=True)
class Tolerance:
    """Max-absolute-entry residual threshold for all approximate predicates."""

    eps: float = 1e-9


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return m


def max_abs(a) -> float:
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def kron(a, b) -> np.ndarray:
    """Kronecker product; associative exactly by index layout."""
    return np.kron(as_matrix(a), as_matrix(b))


def is_isometry(v, tol: Tolerance = DEFAULT_TOL) -> bool:
    """v* v == identity, entrywise within eps (long matrices only)."""
    v = as_matrix(v)
    if v.shape[0] < v.shape[1]:
        return False
    gram = v.conj().T @ v
    return max_abs(gram - np.eye(v.shape[1])) <= tol.eps


def is_projection(p, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Self-adjoint and idempotent within eps."""
    p = as_matrix(p)
    if p.shape[0] != p.shape[1]:
        raise ValueError(f"projections must be square, got {p.shape}")
    return max_abs(p - p.conj().T) <= tol.eps and max_abs(p @ p - p) <= tol.eps


def numerical_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank by singular values, threshold eps * sigma_max * max(dims)."""
    m = as_matrix(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.eps * s[0] * max(m.shape)))


# -- block descriptor helpers -------------------------------------------------

def blocks_dim(blocks: Blocks) -> int:
    """Vectorized dimension of a direct sum of matrix blocks."""
    return sum(n * n for n in blocks)


def block_offsets(blocks: Blocks) -> tuple[int, ...]:
    offs, acc = [], 0
    for n in blocks:
        offs.append(acc)
        acc += n * n
    return tuple(offs)


def split_vec(blocks: Blocks, v: np.ndarray) -> list[np.ndarray]:
    """Unstack a vectorized element into its square block matrices."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != blocks_dim(blocks):
        raise ValueError(f"vector of size {v.size} does not fit blocks {blocks}")
    out, pos = [], 0
    for n in blocks:
        out.append(v[pos:pos + n * n].reshape(n, n))
        pos += n * n
    return out


def join_vec(mats) -> np.ndarray:
    return np.concatenate([as_matrix(m).reshape(-1) for m in mats])


def tensor_blocks(a: Blocks, b: Blocks) -> Blocks:
    """Blocks of the tensor product: all pairwise products in row-major pair order."""
    return tuple(na * nb for na in a for nb in b)


@lru_cache(maxsize=None)
def tensor_perm(a: Blocks, b: Blocks) -> np.ndarray:
    """Index map p with vec_T(x (x) y)[p] = (vec_A(x) (x) vec_B(y)) flattened.

    Here T is the tensor algebra of A and B with blocks in row-major pair
    order, block (i,j) holding the Kronecker product of the factors.  The map
    is a permutation of range(dim_A * dim_B); it is associative across nested
    tensor products because both the pair order and the Kronecker layout are.
    """
    dim_b = blocks_dim(b)
    perm = np.empty(blocks_dim(a) * dim_b, dtype=np.intp)
    offs_a, offs_b = block_offsets(a), block_offsets(b)
    offs_t = block_offsets(tensor_blocks(a, b))
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
                            q = off_t + (r1 * nb + r2) * n + (c1 * nb + c2)
                            perm[pa * dim_b + pb] = q
    return perm


def vec_tensor(a: Blocks, b: Blocks, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Vectorized elementary tensor of vectorized elements."""
    out = np.empty(va.size * vb.size, dtype=complex)
    out[tensor_perm(a, b)] = np.kron(va.reshape(-1), vb.reshape(-1))
    return out


# -- superoperators -----------------------------------------------------------

@dataclass(frozen=True)
class Superoperator:
    """A linear map between vectorized algebra elements.

    ``matrix`` has shape (out_dim, in_dim); ``dom``/``cod`` are the block
    descriptors of domain and codomain, with out_dim/in_dim their vectorized
    dimensions.  apply(x) = matrix @ vec(x); compose is the matrix product.
    """

    matrix: np.ndarray
    dom: Blocks
    cod: Blocks

    def __post_init__(self):
        m = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dom", tuple(self.dom))
        object.__setattr__(self, "cod", tuple(self.cod))
        if m.shape != (blocks_dim(self.cod), blocks_dim(self.dom)):
            raise ValueError(
                f"matrix shape {m.shape} does not match dom {self.dom} -> cod {self.cod}"
            )
        m.setflags(write=False)

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=complex).reshape(-1)


def identity_superop(blocks: Blocks) -> Superoperator:
    n = blocks_dim(tuple(blocks))
    return Superoperator(np.eye(n, dtype=complex), tuple(blocks), tuple(blocks))


def compose(f: Superoperator, g: Superoperator) -> Superoperator:
    """f after g."""
    if g.cod != f.dom:
        raise ValueError(f"cannot compose: inner blocks {g.cod} != {f.dom}")
    return Superoperator(f.matrix @ g.matrix, g.dom, f.cod)


def superop_from_conjugation(u, dom: Blocks | None = None, cod: Blocks | None = None) -> Superoperator:
    """The map x -> u x u* between single-block algebras, as a superoperator.

    For row-major vec, vec(u x u*) = (u (x) conj(u)) vec(x).
    """
    u = as_matrix(u)
    m, n = u.shape
    return Superoperator(np.kron(u, u.conj()), dom or (n,), cod or (m,))


def superop_tensor(f: Superoperator, g: Superoperator) -> Superoperator:
    """(f (x) g)(x (x) y) = f(x) (x) g(y), in the vec layout of the tensor algebras."""
    dom = tensor_blocks(f.dom, g.dom)
    cod = tensor_blocks(f.cod, g.cod)
    k = np.kron(f.matrix, g.matrix)
    out = np.empty_like(k)
    out[np.ix_(tensor_perm(f.cod, g.cod), tensor_perm(f.dom, g.dom))] = k
    return Superoperator(out, dom, cod)


def superop_tensor_all(factors) -> Superoperator:
    return reduce(superop_tensor, factors)


def superop_tensor_const(f: Superoperator, left_const=None, right_const=None) -> Superoperator:
    """Pad a map with fixed elements: x -> left (x) f(x) (x) right.

    ``left_const``/``right_const`` are (blocks, vec) pairs; either may be None.
    Each is tensored on as the one-column map (1,) -> blocks onto its element.
    """
    def const(blocks, vec):
        return Superoperator(np.asarray(vec, dtype=complex).reshape(-1, 1), (1,), blocks)

    factors = [f]
    if left_const is not None:
        factors.insert(0, const(*left_const))
    if right_const is not None:
        factors.append(const(*right_const))
    return superop_tensor_all(factors)


# -- *-homomorphism checking --------------------------------------------------

@dataclass(frozen=True)
class HomReport:
    """Residuals and classification of a candidate *-homomorphism."""

    multiplicativity_residual: float
    adjoint_residual: float
    rank: int
    injective: bool
    surjective: bool
    is_homomorphism: bool
    is_monomorphism: bool
    is_isomorphism: bool
    classification: str = field(init=False)

    def __post_init__(self):
        if self.is_isomorphism:
            cls = "isomorphism"
        elif self.is_monomorphism:
            cls = "monomorphism"
        elif self.is_homomorphism:
            cls = "homomorphism"
        else:
            cls = "not a homomorphism"
        object.__setattr__(self, "classification", cls)


def vec_mul(blocks: Blocks, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Blockwise product of vectorized elements."""
    return join_vec([x @ y for x, y in zip(split_vec(blocks, va), split_vec(blocks, vb))])


@lru_cache(maxsize=None)
def star_perm(blocks: Blocks) -> np.ndarray:
    """Index map with vec(x*) = conj(vec(x))[star_perm]."""
    perm = np.empty(blocks_dim(blocks), dtype=np.intp)
    for n, off in zip(blocks, block_offsets(blocks)):
        for i in range(n):
            for j in range(n):
                perm[off + i * n + j] = off + j * n + i
    return perm


def vec_star(blocks: Blocks, v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=complex).conj()[star_perm(blocks)]


@lru_cache(maxsize=None)
def _product_index(blocks: Blocks) -> np.ndarray:
    """idx[a, b] = vec index of e_a e_b for matrix units, or -1 when the product is 0."""
    dim = blocks_dim(blocks)
    idx = np.full((dim, dim), -1, dtype=np.intp)
    for n, off in zip(blocks, block_offsets(blocks)):
        for i in range(n):
            for j in range(n):
                a = off + i * n + j
                for q in range(n):
                    idx[a, off + j * n + q] = off + i * n + q
    return idx


def check_star_homomorphism(
    f: Superoperator,
    dom: Blocks | None = None,
    cod: Blocks | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> HomReport:
    """Test multiplicativity, adjoint preservation and injectivity on the matrix-unit basis.

    Cost is quadratic in the domain dimension (all basis pairs); intended for
    the pairwise algebras of a system, not for large partition algebras
    (those maps are homomorphisms by construction).
    """
    dom = tuple(dom) if dom is not None else f.dom
    cod = tuple(cod) if cod is not None else f.cod
    if (blocks_dim(dom), blocks_dim(cod)) != (f.in_dim, f.out_dim):
        raise ValueError(f"descriptors {dom}->{cod} do not match map dims {f.in_dim}->{f.out_dim}")

    n = f.in_dim
    prod_idx = _product_index(dom)
    columns_ext = np.hstack([f.matrix, np.zeros((f.out_dim, 1), dtype=complex)])
    mult = 0.0
    for m, off in zip(cod, block_offsets(cod)):
        # images of the basis in this codomain block, as a stack of matrices
        imgs = np.ascontiguousarray(
            f.matrix[off:off + m * m, :].T.reshape(n, m, m))
        # chunk the first index so rhs stays within a fixed memory budget
        chunk = max(1, int(4e6 / max(1, n * m * m)))
        for a0 in range(0, n, chunk):
            a1 = min(n, a0 + chunk)
            rhs = np.einsum("aij,bjk->abik", imgs[a0:a1], imgs, optimize=True)
            lhs = columns_ext[off:off + m * m, prod_idx[a0:a1, :]]
            lhs = lhs.transpose(1, 2, 0).reshape(a1 - a0, n, m, m)
            mult = max(mult, max_abs(lhs - rhs))

    # f(e_a*) is the sp_dom[a] column; f(e_a)* conjugates and transposes the image
    sp_dom, sp_cod = star_perm(dom), star_perm(cod)
    adj = max_abs(f.matrix[:, sp_dom] - f.matrix.conj()[sp_cod, :])

    rank = numerical_rank(f.matrix, tol)
    injective = rank == f.in_dim
    surjective = rank == f.out_dim
    is_hom = mult <= tol.eps and adj <= tol.eps
    return HomReport(
        multiplicativity_residual=mult,
        adjoint_residual=adj,
        rank=rank,
        injective=injective,
        surjective=surjective,
        is_homomorphism=is_hom,
        is_monomorphism=is_hom and injective,
        is_isomorphism=is_hom and injective and surjective,
    )
