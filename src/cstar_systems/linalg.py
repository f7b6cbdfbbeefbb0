"""Complex matrices and superoperators on vectorized algebra elements.

Algebras here are direct sums of full matrix blocks, described by their block
sizes alone.  An element is vectorized by stacking the row-major vec of each
block.  A superoperator is a linear map between such vectors, tagged with the
block descriptors of its domain and codomain.  It is held either as one dense
(out_dim x in_dim) matrix, or, when it is a tensor of smaller maps, as their
Kronecker factors, each with its own domain and codomain descriptors (Van
Loan, "The ubiquitous Kronecker product", J. Comput. Appl. Math. 123, 2000).
The input gather and output scatter of a factored map follow from those
descriptors and are cached per layout.  A factored map is applied one factor
at a time and never stored densely.

Every identity check reduces to three operations: composition, entrywise
comparison of maps and a rank.  Two factored maps whose layouts align compose
factor by factor, by the mixed-product rule (A (x) B)(C (x) D) = AC (x) BD, into
one factored map; other pairs compose densely, applying one map to the columns
of the other.  Two composites are compared entry by entry by pushing the
identity through both in column chunks (``composite_residual``), after each
chain has been merged as far as the layouts allow; the rank is taken of a
dense matrix, which only the small per-pair maps need.

Two factored maps laid out alike (same factor descriptors and identity
factors) are compared on their cores alone: the Kronecker products of their
non-identity factors.  This peel is exact.  L - R is a permutation of the
difference of the Kronecker products, and a shared identity factor makes each
of its entries either 0 - 0 or an entry of the cores' difference, formed by
the same products of factor entries in the same order.  When even the cores
hold equal factors, every entry is exactly 0 and nothing is streamed.
"""
from __future__ import annotations

import math
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


def is_isometry(v, tol: Tolerance = DEFAULT_TOL) -> bool:
    """v* v == identity, entrywise within eps (long matrices only)."""
    v = as_matrix(v)
    if v.shape[0] < v.shape[1]:
        return False
    gram = v.conj().T @ v
    return max_abs(gram - np.eye(v.shape[1])) <= tol.eps


def numerical_rank(m) -> int:
    """Rank by singular values above max(dims) * machine eps * sigma_max.

    The cutoff is the usual one for a matrix known to working precision
    (Golub and Van Loan, *Matrix Computations*, 4th ed., section 5.4); it does
    not depend on the residual tolerance of the checks.
    """
    m = as_matrix(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(m.shape) * np.finfo(float).eps * s[0]))


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

# Streamed products and materialisations hold at most this many complex
# entries per array: 1 MiB, whatever the dimensions of the maps.
STREAM_ENTRIES = 1 << 16


def unit_column_chunks(in_dim: int, out_dim: int):
    """Yield the identity of size ``in_dim`` as consecutive (start, columns) chunks.

    A chunk has as many columns as fit ``STREAM_ENTRIES`` entries in an array
    with ``max(in_dim, out_dim)`` rows, so pushing it through a map of either
    size stays within that budget.
    """
    width = max(1, STREAM_ENTRIES // max(1, in_dim, out_dim))
    for start in range(0, in_dim, width):
        stop = min(in_dim, start + width)
        cols = np.zeros((in_dim, stop - start), dtype=complex)
        cols[np.arange(start, stop), np.arange(stop - start)] = 1.0
        yield start, cols


def _is_identity(m: np.ndarray) -> bool:
    n = m.shape[0]
    return m.shape == (n, n) and np.count_nonzero(m) == n and bool(np.all(np.diagonal(m) == 1))


def _kron_apply(factors, skip, x: np.ndarray) -> np.ndarray:
    """(F_1 (x) ... (x) F_m) x for x of shape (product of column counts, k).

    Factor i acts on axis i of x read as an (n_1, ..., n_m, k) array, through
    a batched product over the axes before and after it; identity factors
    are skipped.  No Kronecker product is formed.
    """
    k = x.shape[1]
    rows = [f.shape[0] for f in factors]
    cols = [f.shape[1] for f in factors]
    for i, f in enumerate(factors):
        if skip[i]:
            continue
        left = math.prod(rows[:i])
        x = np.matmul(f, x.reshape(left, cols[i], -1))
    return x.reshape(-1, k)


@lru_cache(maxsize=None)
def _layout(descriptors: tuple[Blocks, ...]) -> tuple[Blocks, np.ndarray | None]:
    """The blocks of the ordered tensor of the algebras ``descriptors`` and its index map.

    ``index[k]`` is where entry k of the Kronecker layout ``vec_1 (x) ... (x) vec_m``
    sits in the vec layout of the tensor algebra: the gather of a factored map
    whose factors have these domains, or the scatter for their codomains; None
    when it is the identity order.  Each layout extends the cached one of all
    but its last descriptor by ``tensor_perm``, which is associative across
    nested tensors, so the result does not depend on how the tensor was bracketed.
    Blocks (1,) are neutral: they add no index and leave the layout unchanged.
    Plain vectors, all of whose blocks are 1 x 1, are already in the Kronecker
    layout; the empty tensor is the scalars.
    """
    if all(n == 1 for blocks in descriptors for n in blocks):
        return (1,) * math.prod(map(len, descriptors)), None
    last = descriptors[-1]
    if len(descriptors) == 1:
        return last, None
    head, index = _layout(descriptors[:-1])
    dim = blocks_dim(last)
    index = np.arange(blocks_dim(head)) if index is None else index
    out = tensor_perm(head, last)[(index[:, None] * dim + np.arange(dim)).reshape(-1)]
    if np.array_equal(out, np.arange(out.size)):
        out = None
    else:
        out.setflags(write=False)
    return tensor_blocks(head, last), out


class Superoperator:
    """A linear map between vectorized algebra elements, held as Kronecker factors.

    The map is x -> scatter((F_1 (x) ... (x) F_m) x[gather]): ``factors`` are
    the matrices F_i and factor i maps the blocks ``fdoms[i]`` to ``fcods[i]``.
    ``gather`` reads the input in the Kronecker layout and ``scatter`` writes
    the output back (y[scatter] = y_kron); both are derived from those
    descriptors by ``_layout`` and shared between maps laid out alike, and
    None stands for the identity order.  ``dom``/``cod`` are the block
    descriptors of domain and codomain, the tensors of the factors' ones.

    ``Superoperator(matrix, dom, cod)`` is a dense map: one factor, no index
    arrays.  ``superop_tensor`` and ``compose`` build the factored ones.
    ``apply_many`` and ``rapply`` act one factor at a time; ``matrix`` builds
    the dense (out_dim x in_dim) matrix of a factored map on every access and
    keeps nothing.  All arrays held are read-only.
    """

    __slots__ = ("factors", "skip", "fdoms", "fcods", "gather", "scatter", "dom", "cod",
                 "in_dim", "out_dim")

    def __init__(self, matrix, dom: Blocks, cod: Blocks):
        m = as_matrix(matrix)
        self._fill((m,), (_is_identity(m),), (tuple(dom),), (tuple(cod),))

    @classmethod
    def factored(cls, factors, skip, fdoms, fcods) -> "Superoperator":
        """A map held as ``factors``, factor i from blocks ``fdoms[i]`` to ``fcods[i]``;
        ``skip`` flags the identity factors, as carried over from the maps the
        factors came from."""
        op = cls.__new__(cls)
        op._fill(tuple(factors), tuple(skip), tuple(fdoms), tuple(fcods))
        return op

    def _fill(self, factors, skip, fdoms, fcods):
        for f, dom, cod in zip(factors, fdoms, fcods):
            if f.shape != (blocks_dim(cod), blocks_dim(dom)):
                raise ValueError(f"matrix shape {f.shape} does not match dom {dom} -> cod {cod}")
            f.setflags(write=False)
        self.factors, self.skip, self.fdoms, self.fcods = factors, skip, fdoms, fcods
        self.dom, self.gather = _layout(fdoms)
        self.cod, self.scatter = _layout(fcods)
        self.out_dim = math.prod(f.shape[0] for f in factors)
        self.in_dim = math.prod(f.shape[1] for f in factors)

    @property
    def is_dense(self) -> bool:
        return len(self.factors) == 1

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix: the stored one, or built column chunk by column chunk."""
        if self.is_dense:
            return self.factors[0]
        out = np.empty((self.out_dim, self.in_dim), dtype=complex)
        for start, cols in unit_column_chunks(self.in_dim, self.out_dim):
            out[:, start:start + cols.shape[1]] = self.apply_many(cols)
        out.setflags(write=False)
        return out

    def apply_many(self, x: np.ndarray) -> np.ndarray:
        """The map applied to each column of x (in_dim x k): the product matrix @ x."""
        x = np.asarray(x, dtype=complex)
        if x.ndim != 2 or x.shape[0] != self.in_dim:
            raise ValueError(f"cannot apply a map on dimension {self.in_dim} to shape {x.shape}")
        y = _kron_apply(self.factors, self.skip, x if self.gather is None else x[self.gather])
        if self.scatter is None:
            return y.copy() if np.may_share_memory(y, x) else y
        out = np.empty_like(y)
        out[self.scatter] = y
        return out

    def rapply(self, r: np.ndarray) -> np.ndarray:
        """Each row of r (k x out_dim, or one row) times the map: the product r @ matrix."""
        r = np.asarray(r, dtype=complex)
        if r.ndim not in (1, 2) or r.shape[-1] != self.out_dim:
            raise ValueError(f"cannot apply a map onto dimension {self.out_dim} to rows of shape "
                             f"{r.shape}")
        rt = np.atleast_2d(r).T
        z = _kron_apply([f.T for f in self.factors], self.skip,
                        rt if self.scatter is None else rt[self.scatter])
        out = np.empty((rt.shape[1], self.in_dim), dtype=complex)
        out[:, slice(None) if self.gather is None else self.gather] = z.T
        return out.reshape(r.shape[:-1] + (self.in_dim,))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.apply_many(np.asarray(v, dtype=complex).reshape(-1, 1)).reshape(-1)


def identity_superop(blocks: Blocks) -> Superoperator:
    n = blocks_dim(tuple(blocks))
    return Superoperator(np.eye(n, dtype=complex), tuple(blocks), tuple(blocks))


def compose(f: Superoperator, g: Superoperator) -> Superoperator:
    """f after g: factor by factor when both maps are factored and their layouts
    align (``_merge``), so the result stays factored; else ``compose_dense``."""
    return _merge(f, g) or compose_dense(f, g)


def compose_dense(f: Superoperator, g: Superoperator) -> Superoperator:
    """f after g, as a dense map: f applied to the columns of g's matrix."""
    if g.cod != f.dom:
        raise ValueError(f"cannot compose: inner blocks {g.cod} != {f.dom}")
    return Superoperator(f.apply_many(g.matrix), g.dom, f.cod)


def _merge(f: Superoperator, g: Superoperator) -> Superoperator | None:
    """f after g as one factored map, or None when either map is dense or their
    layouts do not align.

    The layouts align when each factor G_k of g meets a run of consecutive
    factors of f whose domains tensor to G_k's codomain.  g's scatter then
    reads back through f's gather as the runs' own gathers, and by the
    mixed-product rule (A (x) B)(C (x) D) = AC (x) BD each run composes with
    its G_k into one factor, (F_i (x) ... (x) F_j) G_k, from G_k's domain to
    the tensor of the run's codomains.  The result has g's gather and f's
    scatter.  A factor of f on blocks (1,), such as a unit constant of a
    padded map, reads no input: it stays a factor of its own, unless it
    borders the run of a G_k that reads none either.  That run then yields
    one constant, as a padded map of the composite's span holds.
    """
    if f.is_dense or g.is_dense or g.cod != f.dom:
        return None
    out, i, m = [], 0, len(f.factors)

    def own_constants(i):
        while i < m and f.fdoms[i] == (1,):
            out.append((f.factors[i], f.skip[i], (1,), f.fcods[i]))
            i += 1
        return i

    for gk, flag, dom, cod in zip(g.factors, g.skip, g.fdoms, g.fcods):
        constant = dom == (1,)
        if not constant:
            i = own_constants(i)
        j, size = i, 1
        while j < m and (size < gk.shape[0] or constant and f.fdoms[j] == (1,)):
            size *= f.factors[j].shape[1]
            j += 1
        if size != gk.shape[0] or _layout(f.fdoms[i:j])[0] != cod:
            return None
        if j > i:
            run = Superoperator.factored(f.factors[i:j], f.skip[i:j], f.fdoms[i:j],
                                         f.fcods[i:j])
            gk, cod = run.apply_many(gk), run.cod
            flag = _is_identity(gk)
        out.append((gk, flag, dom, cod))
        i = j
    if own_constants(i) < m:
        return None
    return Superoperator.factored(*zip(*out))


def _merge_chain(chain):
    """The chain with each map merged into the one before it wherever ``_merge`` can."""
    out = [chain[0]]
    for op in chain[1:]:
        merged = _merge(out[-1], op)
        if merged is None:
            out.append(op)
        else:
            out[-1] = merged
    return out


def _peel_shared_identities(lhs, rhs):
    """Two one-map chains with the identity factors both maps share dropped.

    The maps must have the same identity factors and the same factor
    descriptors, hence the same factor shapes, gather and scatter; any other
    pair of chains is returned as given.  The test compares tuples, one entry
    per factor.  Then L - R is one permutation of K_L - K_R, the difference of
    the Kronecker products, and each entry of that is either 0 - 0 (a shared
    identity factor is off its diagonal) or an entry of C_L - C_R, the
    difference of the cores: the Kronecker products of the other factors.
    The cores act on plain vectors in the Kronecker layout, that is on 1 x 1
    blocks.
    """
    if len(lhs) != 1 or len(rhs) != 1:
        return lhs, rhs
    a, b = lhs[0], rhs[0]
    if not any(a.skip) or a.skip != b.skip or a.fdoms != b.fdoms or a.fcods != b.fcods:
        return lhs, rhs

    def core(op):
        kept = [f for f, s in zip(op.factors, op.skip) if not s]
        return Superoperator.factored(kept, (False,) * len(kept),
                                      [(1,) * f.shape[1] for f in kept],
                                      [(1,) * f.shape[0] for f in kept])

    return [core(a)], [core(b)]


def _same_maps(lhs, rhs) -> bool:
    """Whether the two chains hold the same maps: equal descriptors and identity
    flags, and factors that are equal and finite entry by entry.  Each column
    then goes through the same products in the same order on both sides, so
    every entry of L - R is exactly 0."""
    return len(lhs) == len(rhs) and all(
        a.skip == b.skip and a.fdoms == b.fdoms and a.fcods == b.fcods
        and all(np.array_equal(f, g) and np.isfinite(f).all() for f, g in zip(a.factors, b.factors))
        for a, b in zip(lhs, rhs))


def composite_residual(lhs, rhs) -> float:
    """max_abs(L - R) for the composites L = lhs[0] o lhs[1] o ... and likewise R.

    Every column of the identity on the common domain goes through both
    sides, in chunks of ``unit_column_chunks``, so every entry of L - R is
    compared and no dense map is formed.

    First each chain is merged (``_merge_chain``): adjacent factored maps
    whose layouts align become one factored map, as the right side
    D[J,K] D[I,J] of a cocycle does.  The merged factors are the products a
    dense composite would hold, so with 0/1 or integer entries, as in the
    shipped systems, every entry is exact and the residual is the unmerged
    chain's bit for bit; with other entries a sum may be rounded in another
    order, by a few ulp of the entries.

    When each side is then one factored map and the two share their identity
    factors and descriptors, only their cores are streamed (an 81 x 9 core,
    say, in place of a 6561 x 729 map; ``_peel_shared_identities``).  This is
    exact, not a bound: every other entry of L - R is 0 - 0.  A unit column
    meets one nonzero term in every sum of ``_kron_apply``, which skips
    identity factors on both paths, so each entry is the same product of
    factor entries in the same order.  With real entries the residual is the
    unpeeled one bit for bit; a product of two complex entries may be rounded
    differently by the BLAS kernel of another shape, by a few ulp of the
    entries.  When the two sides then hold the same maps (``_same_maps``),
    every entry of L - R is exactly 0 and nothing is streamed.
    """
    for chain in (lhs, rhs):
        for outer, inner in zip(chain, chain[1:]):
            if inner.cod != outer.dom:
                raise ValueError(f"cannot compose: inner blocks {inner.cod} != {outer.dom}")
    if lhs[-1].in_dim != rhs[-1].in_dim or lhs[0].out_dim != rhs[0].out_dim:
        raise ValueError("the two composites map between different spaces")
    lhs, rhs = _peel_shared_identities(_merge_chain(lhs), _merge_chain(rhs))
    if _same_maps(lhs, rhs):
        return 0.0
    widest = max(op.out_dim for op in (*lhs, *rhs))
    worst = 0.0
    for _, cols in unit_column_chunks(lhs[-1].in_dim, widest):
        left, right = cols, cols
        for op in reversed(lhs):
            left = op.apply_many(left)
        for op in reversed(rhs):
            right = op.apply_many(right)
        worst = max(worst, max_abs(left - right))
    return worst


def superop_from_conjugation(u, dom: Blocks | None = None, cod: Blocks | None = None) -> Superoperator:
    """The map x -> u x u* between single-block algebras, as a superoperator.

    For row-major vec, vec(u x u*) = (u (x) conj(u)) vec(x).
    """
    u = as_matrix(u)
    m, n = u.shape
    return Superoperator(np.kron(u, u.conj()), dom or (n,), cod or (m,))


def superop_tensor(f: Superoperator, g: Superoperator) -> Superoperator:
    """(f (x) g)(x (x) y) = f(x) (x) g(y), in the vec layout of the tensor algebras.

    The result keeps the factors of f and g with their descriptors; its gather
    and scatter are the ``_layout`` of those.
    """
    return Superoperator.factored(f.factors + g.factors, f.skip + g.skip,
                                  f.fdoms + g.fdoms, f.fcods + g.fcods)


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


@lru_cache(maxsize=None)
def star_perm(blocks: Blocks) -> np.ndarray:
    """Index map with vec(x*) = conj(vec(x))[star_perm]."""
    perm = np.empty(blocks_dim(blocks), dtype=np.intp)
    for n, off in zip(blocks, block_offsets(blocks)):
        for i in range(n):
            for j in range(n):
                perm[off + i * n + j] = off + j * n + i
    return perm


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
    mat = f.matrix
    prod_idx = _product_index(dom)
    columns_ext = np.hstack([mat, np.zeros((f.out_dim, 1), dtype=complex)])
    mult = 0.0
    for m, off in zip(cod, block_offsets(cod)):
        # images of the basis in this codomain block, as a stack of matrices
        imgs = np.ascontiguousarray(
            mat[off:off + m * m, :].T.reshape(n, m, m))
        # chunk the first index so rhs stays within the streaming budget
        chunk = max(1, STREAM_ENTRIES // (n * m * m))
        for a0 in range(0, n, chunk):
            a1 = min(n, a0 + chunk)
            rhs = np.einsum("aij,bjk->abik", imgs[a0:a1], imgs, optimize=True)
            lhs = columns_ext[off:off + m * m, prod_idx[a0:a1, :]]
            lhs = lhs.transpose(1, 2, 0).reshape(a1 - a0, n, m, m)
            mult = max(mult, max_abs(lhs - rhs))

    # f(e_a*) is the sp_dom[a] column; f(e_a)* conjugates and transposes the image
    sp_dom, sp_cod = star_perm(dom), star_perm(cod)
    adj = max_abs(mat[:, sp_dom] - mat.conj()[sp_cod, :])

    rank = numerical_rank(mat)
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
