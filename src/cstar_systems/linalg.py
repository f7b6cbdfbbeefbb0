"""Complex matrices and superoperators on vectorized algebra elements.

Algebras here are direct sums of full matrix blocks, described by their block
sizes alone.  An element is vectorized by stacking the row-major vec of each
block.  A superoperator is a linear map between such vectors, tagged with the
block descriptors of its domain and codomain.  It is held either as one dense
(out_dim x in_dim) matrix, or, when it is a tensor of smaller maps, as their
Kronecker factors, each with its own domain and codomain descriptors (Van
Loan, "The ubiquitous Kronecker product", J. Comput. Appl. Math. 123, 2000).
A factor between single blocks M_n -> M_m may be a conjugation x -> u x u*,
held as u (m x n) instead of its (m^2 x n^2) matrix u (x) conj(u): every map
of a system whose comultiplications are conjugations, B(H(s,t)) with Ad(U),
is one conjugation per cell, by Ad(A) Ad(B) = Ad(AB) and, on single blocks,
Ad(A) (x) Ad(B) = Ad(A (x) B).  What the descriptors of a factored map fix,
its input gather and output scatter, dimensions and factor shapes, is one
cached frame per layout, shared by every map laid out alike, and the
identity of each block descriptor is built once and shared.  A factored map
is applied one factor at a time and never stored densely; the Kronecker
products of 2-D factors that merging forms are one broadcast product each.

Every identity check reduces to three operations: composition, entrywise
comparison of maps and a rank.  ``compose`` gives one conjugation when both
maps are conjugations and a dense map otherwise; only the recursive interval
map is built with it.  Every map identity is one ``composite_residual`` call
on two chains of maps, outermost first, such as the nested-expansion oracles
return, or [D*, G, D] for a Gram law, D* the adjoint (``superop_adjoint``),
held as the conjugate transposes of D's factors.  It merges factored maps
factor by factor, by the mixed-product rule (A (x) B)(C (x) D) = AC (x) BD,
each merged map again into the one before it, and drops the identity maps
that merge with no neighbour; returns 0 when the merged sides hold the same
maps, up to identity factors on blocks (1,), which no layout sees; and
otherwise pushes the identity through both sides in column chunks, so no
composite is formed.  The rank is taken of a dense matrix, which only the
small per-pair maps need.
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
    return 0.0 if a.size == 0 else float(np.abs(a).max())


def isometry_residual(v) -> float:
    """max_abs(v* v - 1); an isometry also needs rows >= cols, which callers check."""
    v = as_matrix(v)
    return max_abs(v.conj().T @ v - np.eye(v.shape[1]))


def numerical_rank(m) -> int:
    """Rank by singular values above max(dims) * machine eps * sigma_max.

    The cutoff is the usual one for a matrix known to working precision
    (Golub and Van Loan, *Matrix Computations*, 4th ed., section 5.4); it does
    not depend on the residual tolerance of the checks.  A real matrix
    (``exact_real``) is decomposed in float64.  A matrix with a NaN or an
    infinite entry has no singular values and is given rank 0.
    """
    m = exact_real(as_matrix(m))
    if m.size == 0 or not np.isfinite(m).all():
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
def entry_coords(blocks: Blocks) -> tuple[np.ndarray, ...]:
    """(block, row, column, size, offset) of each vec entry, offset + row * size + column."""
    sizes = np.asarray(blocks, dtype=np.intp)
    block = np.repeat(np.arange(sizes.size), sizes * sizes)
    size, offset = sizes[block], (np.cumsum(sizes * sizes) - sizes * sizes)[block]
    row, col = np.divmod(np.arange(block.size) - offset, size)
    return block, row, col, size, offset


@lru_cache(maxsize=None)
def tensor_perm(a: Blocks, b: Blocks) -> np.ndarray:
    """Index map p with vec_T(x (x) y)[p] = (vec_A(x) (x) vec_B(y)) flattened.

    Here T is the tensor algebra of A and B with blocks in row-major pair
    order, block (i,j) holding the Kronecker product of the factors.  The map
    is a permutation of range(dim_A * dim_B); it is associative across nested
    tensor products because both the pair order and the Kronecker layout are.
    """
    ka, r1, c1, na, _ = (x[:, None] for x in entry_coords(a))
    kb, r2, c2, nb, _ = entry_coords(b)
    offs_t = np.reshape(block_offsets(tensor_blocks(a, b)), (len(a), len(b)))
    # (r1, c1) of block i and (r2, c2) of block j meet at row r1 nb + r2, column
    # c1 nb + c2 of block (i,j); built in place, with one dim_A x dim_B temporary
    perm = r1 * nb
    perm += r2
    perm *= na
    perm += c1
    perm *= nb
    perm += c2
    perm += offs_t[ka, kb]
    return perm.reshape(-1)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2-D arrays: entry (i p + k, j q + l) is a[i, j] * b[k, l], for b
    (p x q), formed by one broadcast product, without np.kron's handling of other
    shapes; each entry is the same one product."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def vec_tensor(a: Blocks, b: Blocks, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Vectorized elementary tensor of vectorized elements.

    Of two single blocks it is the row-major vec of the Kronecker product of
    the two matrices, which needs no index map, so none is built or cached;
    each entry is the same one product either way.
    """
    if len(a) == len(b) == 1:
        return _kron(va.reshape(a[0], a[0]), vb.reshape(b[0], b[0])).reshape(-1)
    perm = tensor_perm(a, b)  # built before the product, so their peaks do not meet
    out = np.empty(va.size * vb.size, dtype=complex)
    out[perm] = np.kron(va.reshape(-1), vb.reshape(-1))
    return out


# -- superoperators -----------------------------------------------------------

# Streamed products and materialisations hold at most this many complex
# entries per array: 128 KiB, whatever the dimensions of the maps.  At 1 MiB,
# glibc's malloc handed the chunk buffers back to the system and faulted them
# in again: 14k minor page faults per dense-d3 verify, against 400 at this size.
STREAM_ENTRIES = 1 << 13


def chunk_width(in_dim: int, out_dim: int) -> int:
    """Columns per chunk: as many as fit ``STREAM_ENTRIES`` entries in an array
    with ``max(in_dim, out_dim)`` rows, and at least one."""
    return max(1, STREAM_ENTRIES // max(1, in_dim, out_dim))


def unit_column_chunks(in_dim: int, out_dim: int):
    """Yield the identity of size ``in_dim`` as consecutive (start, columns) chunks.

    A chunk has ``chunk_width(in_dim, out_dim)`` columns, so pushing it through
    a map of either size stays within the ``STREAM_ENTRIES`` budget.
    """
    width = chunk_width(in_dim, out_dim)
    for start in range(0, in_dim, width):
        stop = min(in_dim, start + width)
        cols = np.zeros((in_dim, stop - start), dtype=complex)
        cols[np.arange(start, stop), np.arange(stop - start)] = 1.0
        yield start, cols


def _is_identity(m: np.ndarray) -> bool:
    n = m.shape[0]
    return m.shape == (n, n) and np.count_nonzero(m) == n and bool((m.diagonal() == 1).all())


def _kron_apply(axes, x: np.ndarray) -> np.ndarray:
    """(A_1 (x) ... (x) A_m) x for x of shape (product of column counts, k).

    ``axes`` are (A_i, skip_i) pairs, as ``Superoperator._axes`` gives them.
    A_i acts on axis i of x read as an (n_1, ..., n_m, k) array, through a
    batched product over the axes before and after it; identity factors are
    skipped.  No Kronecker product is formed.
    """
    k, left = x.shape[1], 1
    for a, skip in axes:
        if not skip:
            x = np.matmul(a, x.reshape(left, a.shape[1], -1))
        left *= a.shape[0]
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


class _Frame:
    """What the descriptors of a factored map fix: the blocks ``dom``/``cod`` and
    dimensions ``in_dim``/``out_dim`` of its domain and codomain, its ``gather``
    and ``scatter``, the ``shapes`` of its factors (None where no matrix fits: a
    conjugation needs single blocks), and the indices of the factors on blocks
    (1,) -> (1,), ``trivial``."""

    __slots__ = ("dom", "cod", "gather", "scatter", "in_dim", "out_dim", "shapes", "trivial")


@lru_cache(maxsize=None)
def _frame(fdoms: tuple[Blocks, ...], fcods: tuple[Blocks, ...], ad: tuple[bool, ...]) -> _Frame:
    """The one ``_Frame`` of a layout, shared by every map laid out alike."""
    frame = _Frame()
    (frame.dom, frame.gather), (frame.cod, frame.scatter) = _layout(fdoms), _layout(fcods)
    frame.in_dim = math.prod(map(blocks_dim, fdoms))
    frame.out_dim = math.prod(map(blocks_dim, fcods))
    frame.shapes = tuple(((cod[0], dom[0]) if len(dom) + len(cod) == 2 else None) if conj
                         else (blocks_dim(cod), blocks_dim(dom))
                         for dom, cod, conj in zip(fdoms, fcods, ad))
    frame.trivial = tuple(i for i, (dom, cod) in enumerate(zip(fdoms, fcods))
                          if dom == cod == (1,))
    return frame


class Superoperator:
    """A linear map between vectorized algebra elements, held as Kronecker factors.

    The map is x -> scatter((F_1 (x) ... (x) F_m) x[gather]): factor i maps the
    blocks ``fdoms[i]`` to ``fcods[i]``.  It is stored in ``factors[i]``,
    either as its matrix F_i or, when ``ad[i]``, as a conjugation factor: a
    matrix u (m x n) standing for x -> u x u* from M_n to M_m, whose matrix
    F_i = u (x) conj(u) in the row-major vec is formed only by ``matrix``.
    ``skip`` flags the identity factors.  ``gather`` reads the input in the
    Kronecker layout and ``scatter`` writes the output back (y[scatter] =
    y_kron), None standing for the identity order.  ``dom``/``cod`` are the
    block descriptors of domain and codomain, the tensors of the factors'
    ones.  These, ``in_dim``/``out_dim`` and the shape each factor must have
    come from ``frame``, the one ``_frame`` of the descriptors, which maps
    laid out alike share; building a map looks it up and compares shapes.

    ``Superoperator(matrix, dom, cod)`` is a dense map: one matrix factor, no
    index arrays.  ``superop_from_conjugation`` builds a conjugation,
    ``superop_tensor`` the factored maps, and ``_merge`` composes them.
    ``apply_many`` and ``rapply`` act one factor at a time, a conjugation as
    two products on the (n, n) matrices of the vecs, u and conj(u) formed on
    first use and kept, as is the finiteness of each factor; ``matrix``
    builds the dense (out_dim x in_dim) matrix of any other map on every
    access and keeps nothing.  All arrays held are read-only; a dense map
    holds a view of the caller's matrix, which stays writable.
    """

    __slots__ = ("factors", "skip", "ad", "fdoms", "fcods", "frame", "dom", "cod", "gather",
                 "scatter", "in_dim", "out_dim", "_axes_list", "_finite")

    def __init__(self, matrix, dom: Blocks, cod: Blocks):
        m = as_matrix(matrix).view()
        self._fill((m,), (_is_identity(m),), (tuple(dom),), (tuple(cod),), (False,))

    @classmethod
    def factored(cls, factors, skip, fdoms, fcods, ad=None) -> "Superoperator":
        """A map held as ``factors``, factor i from blocks ``fdoms[i]`` to ``fcods[i]``;
        ``skip`` flags the identity factors, as carried over from the maps the
        factors came from, and ``ad`` the conjugation factors (none by default)."""
        op = cls.__new__(cls)
        factors = tuple(factors)
        op._fill(factors, tuple(skip), tuple(fdoms), tuple(fcods),
                 (False,) * len(factors) if ad is None else tuple(ad))
        return op

    def _fill(self, factors, skip, fdoms, fcods, ad):
        frame = _frame(fdoms, fcods, ad)
        if tuple(f.shape for f in factors) != frame.shapes:
            for f, dom, cod, shape in zip(factors, fdoms, fcods, frame.shapes):
                if f.shape != shape:
                    raise ValueError(
                        f"matrix shape {f.shape} does not match dom {dom} -> cod {cod}")
            raise ValueError(f"{len(factors)} factors for {len(fdoms)} pairs of descriptors")
        for f in factors:
            f.setflags(write=False)
        self.factors, self.skip, self.ad, self.fdoms, self.fcods = factors, skip, ad, fdoms, fcods
        self.frame, self.dom, self.cod = frame, frame.dom, frame.cod
        self.gather, self.scatter, self.in_dim, self.out_dim = (frame.gather, frame.scatter,
                                                                frame.in_dim, frame.out_dim)
        self._axes_list = self._finite = None

    @property
    def is_dense(self) -> bool:
        """Whether the map is one matrix factor, its dense matrix."""
        return self.ad == (False,)

    def run(self, i: int, j: int) -> "Superoperator":
        """The tensor of factors i, ..., j - 1 alone, as a map of its own."""
        return Superoperator.factored(self.factors[i:j], self.skip[i:j], self.fdoms[i:j],
                                      self.fcods[i:j], self.ad[i:j])

    def _axes(self, transpose: bool = False):
        """(A, skip) for each Kronecker axis of the factors, for ``_kron_apply``: a
        matrix factor is one axis, a conjugation u two, u and conj(u); with
        ``transpose``, each A is transposed.  The axes are built on first use
        and kept, so conj(u) is formed once per map."""
        if self._axes_list is None:
            self._axes_list = [(a, skip) for f, skip, conj in zip(self.factors, self.skip, self.ad)
                               for a in ((f, f.conj()) if conj else (f,))]
        return [(a.T, skip) for a, skip in self._axes_list] if transpose else self._axes_list

    def _finite_factors(self) -> tuple[bool, ...]:
        """Whether each factor has finite entries only; computed on first use."""
        if self._finite is None:
            self._finite = tuple(bool(np.isfinite(f).all()) for f in self.factors)
        return self._finite

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix: the stored one, u (x) conj(u) of one conjugation factor, or
        built column chunk by column chunk."""
        if self.is_dense:
            return self.factors[0]
        if self.ad == (True,):
            u = self.factors[0]
            out = _kron(u, u.conj())
        else:
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
        y = _kron_apply(self._axes(), x if self.gather is None else x[self.gather])
        if self.scatter is None:
            # y is x itself only when no factor acted on it and no gather copied it
            return y.copy() if self.gather is None and all(self.skip) else y
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
        z = _kron_apply(self._axes(transpose=True), rt if self.scatter is None else rt[self.scatter])
        out = np.empty((rt.shape[1], self.in_dim), dtype=complex)
        out[:, slice(None) if self.gather is None else self.gather] = z.T
        return out.reshape(r.shape[:-1] + (self.in_dim,))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.apply_many(np.asarray(v, dtype=complex).reshape(-1, 1)).reshape(-1)


def column_images(ops, rows: int):
    """Yield (start, images) over consecutive column chunks of maps on one domain:
    ``images[i]`` is ``ops[i].matrix[:, start:start + k]``.

    The chunks have ``chunk_width(in_dim, max(rows, out_dim of every map))``
    columns, so an array with ``rows`` rows per column stays within the budget
    too.  A dense map gives a read-only slice of its stored matrix; a factored
    one the unit columns of ``unit_column_chunks`` pushed through its factors.
    Unit columns are built only when some map is factored, and once per chunk
    for all of them.
    """
    in_dim = ops[0].in_dim
    rows = max(rows, *(op.out_dim for op in ops))
    if all(op.is_dense for op in ops):
        width = chunk_width(in_dim, rows)
        for start in range(0, in_dim, width):
            yield start, [op.factors[0][:, start:start + width] for op in ops]
        return
    for start, cols in unit_column_chunks(in_dim, rows):
        stop = start + cols.shape[1]
        yield start, [op.factors[0][:, start:stop] if op.is_dense else op.apply_many(cols)
                      for op in ops]


def identity_superop(blocks: Blocks) -> Superoperator:
    """The identity of an algebra: the conjugation by the identity of a single block,
    else the dense identity matrix.  One map per descriptor is built and shared
    (``_identity``); its arrays are read-only, as every map's are."""
    return _identity(tuple(blocks))


@lru_cache(maxsize=None)
def _identity(blocks: Blocks) -> Superoperator:
    if len(blocks) == 1:
        return superop_from_conjugation(np.eye(blocks[0]))
    n = blocks_dim(blocks)
    return Superoperator(np.eye(n, dtype=complex), blocks, blocks)


def compose(f: Superoperator, g: Superoperator) -> Superoperator:
    """f after g: one conjugation factor when ``_merge`` gives conjugation factors
    only, by Ad(A) (x) Ad(B) = Ad(A (x) B) on single blocks; else the dense
    map, f applied to the columns of g's matrix."""
    if g.cod != f.dom:
        raise ValueError(f"cannot compose: inner blocks {g.cod} != {f.dom}")
    merged = _merge(f, g)
    if merged is not None and all(merged.ad):
        return superop_from_conjugation(reduce(_kron, merged.factors))
    return Superoperator(f.apply_many(g.matrix), g.dom, f.cod)


def _merge(f: Superoperator, g: Superoperator) -> Superoperator | None:
    """f after g as one factored map, or None when either map is dense or their
    layouts do not align.

    The layouts align when each factor G_k of g meets a run of consecutive
    factors of f whose domains tensor to G_k's codomain.  g's scatter then
    reads back through f's gather as the runs' own gathers, and by the
    mixed-product rule (A (x) B)(C (x) D) = AC (x) BD each run composes with
    its G_k into one factor, (F_i (x) ... (x) F_j) G_k, from G_k's domain to
    the tensor of the run's codomains.  A run of conjugation factors u_i,
    ..., u_j meeting a conjugation g_k gives the conjugation by
    (u_i (x) ... (x) u_j) g_k, since Ad(A) (x) Ad(B) = Ad(A (x) B) on single
    blocks and Ad(A) Ad(B) = Ad(AB); any other run is applied to the matrix
    of G_k.  The result has g's gather and f's scatter.  A factor of f on
    blocks (1,), such as a unit constant of a padded map, reads no input: it
    stays a factor of its own, unless it borders the run of a G_k that reads
    none either.  That run then yields one constant, as a padded map of the
    composite's span holds.
    """
    if f.is_dense or g.is_dense or g.cod != f.dom:
        return None
    out, i, m = [], 0, len(f.factors)

    def own_constants(i):
        while i < m and f.fdoms[i] == (1,):
            out.append((f.factors[i], f.skip[i], (1,), f.fcods[i], f.ad[i]))
            i += 1
        return i

    for gk, flag, dom, cod, conj in zip(g.factors, g.skip, g.fdoms, g.fcods, g.ad):
        constant = dom == (1,)
        if not constant:
            i = own_constants(i)
        j, size, need = i, 1, blocks_dim(cod)
        while j < m and (size < need or constant and f.fdoms[j] == (1,)):
            size *= blocks_dim(f.fdoms[j])
            j += 1
        if size != need or _layout(f.fdoms[i:j])[0] != cod:
            return None
        if j > i:
            ad_run = conj and all(f.ad[i:j])
            # a run of identities that maps its blocks onto themselves leaves G_k as it is
            if not (all(f.skip[i:j]) and (ad_run or not conj and f.fdoms[i:j] == f.fcods[i:j])):
                if ad_run:
                    gk = reduce(_kron, f.factors[i:j]) @ gk
                else:
                    gk, conj = f.run(i, j).apply_many(_kron(gk, gk.conj()) if conj else gk), False
                flag = _is_identity(gk)
            cod = _layout(f.fcods[i:j])[0]
        out.append((gk, flag, dom, cod, conj))
        i = j
    if own_constants(i) < m:
        return None
    return Superoperator.factored(*zip(*out))


def _merge_chain(chain):
    """The chain with each map merged into the one before it wherever ``_merge`` can,
    and without the identity maps that merge with neither neighbour (one is kept if
    all are).  A merged map is tried again against the map before it, so a link
    that does not align with its successor alone, such as D* before G_K in
    D* G_K D, merges once the two after it have.

    A map is the identity when every factor is flagged identity and maps its
    blocks onto themselves, so that its gather and scatter are one index map.
    An identity that merges is kept in the merged map: it lays its neighbour's
    factors out as its own, as an identity D[I,J] of a product system lays
    out the factors of D[J,K] by the cells of I.
    """
    def identity(op):
        return all(op.skip) and op.fdoms == op.fcods

    out = []
    for op in chain:
        merged = _merge(out[-1], op) if out else None
        if merged is not None:
            out[-1] = merged
            while len(out) > 1 and (merged := _merge(out[-2], out[-1])) is not None:
                out[-2:] = [merged]
        elif out and identity(out[-1]):
            out[-1] = op
        elif not (out and identity(op)):
            out.append(op)
    return out


def _without_trivial(op: Superoperator) -> Superoperator:
    """op without its identity factors on blocks (1,) -> (1,): the same map, since
    blocks (1,) are neutral in ``_layout`` and such a factor is never applied."""
    trivial = op.frame.trivial
    keep = [i for i in range(len(op.factors)) if not (i in trivial and op.skip[i])]
    if len(keep) == len(op.factors):
        return op
    return Superoperator.factored(*([seq[i] for i in keep]
                                    for seq in (op.factors, op.skip, op.fdoms, op.fcods, op.ad)))


def _same_maps(lhs, rhs) -> bool:
    """Whether the two chains hold the same maps: after the identity factors on
    blocks (1,) -> (1,) are dropped (``_without_trivial``), equal descriptors and
    identity flags, and other factors that are equal and finite entry by entry,
    both conjugations (compared by u) or both matrices.  An identity factor is
    the same map whether held as Ad(1) or as a matrix, and neither side applies
    it.  Each column then goes through the same products in the same order on
    both sides, so every entry of L - R is exactly 0."""
    if len(lhs) != len(rhs):
        return False
    for a, b in zip(lhs, rhs):
        if a.frame.trivial or b.frame.trivial:
            a, b = _without_trivial(a), _without_trivial(b)
        if not (a.skip == b.skip and a.fdoms == b.fdoms and a.fcods == b.fcods and all(
                s or c == d and (f == g).all() and finite
                for f, g, s, c, d, finite in zip(a.factors, b.factors, a.skip, a.ad, b.ad,
                                                 a._finite_factors()))):
            return False
    return True


def composite_residual(lhs, rhs) -> float:
    """max_abs(L - R) for the composites L = lhs[0] o lhs[1] o ... and likewise R.

    Every column of the identity on the common domain goes through both
    sides, in the chunks of ``column_images``: the innermost map of each side
    gives its column image, a slice when it is stored dense, and the rest of
    the chain is applied to it.  So every entry of L - R is compared and no
    dense map is formed.  This is the one comparator of map
    identities.

    First each chain is merged (``_merge_chain``): adjacent factored maps
    whose layouts align become one factored map, as the right side
    D[J,K] D[I,J] of a cocycle does, a run of conjugations meeting a
    conjugation stays one conjugation, and identity maps that merge with no
    neighbour are dropped.  The merged factors are the products a dense
    composite would hold, so with 0/1 or integer entries, as in the shipped
    systems, every entry is exact and the residual is the unmerged chain's
    bit for bit; with other entries a sum may be rounded in another order, by
    a few ulp of the entries.

    When the merged sides hold the same maps (``_same_maps``), every entry of
    L - R is exactly 0 and nothing is streamed.  Otherwise every column of the
    common domain is streamed.
    """
    for chain in (lhs, rhs):
        for outer, inner in zip(chain, chain[1:]):
            if inner.cod != outer.dom:
                raise ValueError(f"cannot compose: inner blocks {inner.cod} != {outer.dom}")
    if lhs[-1].in_dim != rhs[-1].in_dim or lhs[0].out_dim != rhs[0].out_dim:
        raise ValueError("the two composites map between different spaces")
    lhs, rhs = _merge_chain(lhs), _merge_chain(rhs)
    if _same_maps(lhs, rhs):
        return 0.0
    widest = max(op.out_dim for op in (*lhs, *rhs))
    worst = 0.0
    for _, (left, right) in column_images([lhs[-1], rhs[-1]], widest):
        for op in reversed(lhs[:-1]):
            left = op.apply_many(left)
        for op in reversed(rhs[:-1]):
            right = op.apply_many(right)
        worst = np.maximum(worst, max_abs(left - right))
    return float(worst)


def superop_from_conjugation(u) -> Superoperator:
    """The map x -> u x u* from M_n to M_m, for u (m x n), as one conjugation factor.

    It holds a copy of u, flagged identity when u is the identity.  Its matrix,
    for row-major vec, is u (x) conj(u), since vec(u x u*) = (u (x) conj(u)) vec(x).
    """
    u = as_matrix(u).copy()
    m, n = u.shape
    return Superoperator.factored((u,), (_is_identity(u),), ((n,),), ((m,),), (True,))


def superop_adjoint(f: Superoperator) -> Superoperator:
    """The adjoint of f for the inner product of vecs: each factor conjugate-transposed,
    from its codomain back to its domain.  A conjugation Ad(u) becomes Ad(u*), whose
    matrix u* (x) conj(u*) is the adjoint of u (x) conj(u)."""
    return Superoperator.factored([a.conj().T for a in f.factors], f.skip, f.fcods, f.fdoms,
                                  f.ad)


def superop_tensor(f: Superoperator, g: Superoperator) -> Superoperator:
    """(f (x) g)(x (x) y) = f(x) (x) g(y), in the vec layout of the tensor algebras.

    The result keeps the factors of f and g with their descriptors and flags;
    its gather and scatter are the ``_layout`` of those.
    """
    return Superoperator.factored(f.factors + g.factors, f.skip + g.skip,
                                  f.fdoms + g.fdoms, f.fcods + g.fcods, f.ad + g.ad)


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
    """Index map with vec(x*) = conj(vec(x))[star_perm]: entry (i, j) reads (j, i)."""
    _, row, col, size, offset = entry_coords(blocks)
    return offset + col * size + row


@lru_cache(maxsize=None)
def unit_products(blocks: Blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero products of matrix units as index arrays: e_a e_b = e_target.

    Within a block, e_ij e_jl = e_il; every other product is 0.  The triples
    (a, b, target) are sorted by a, then by l.
    """
    _, row, col, size, offset = entry_coords(blocks)
    a = np.repeat(np.arange(size.size), size)  # e_a = e_ij meets e_jl for each l
    l = np.arange(a.size) - np.repeat(np.cumsum(size) - size, size)
    base = offset[a] + l
    triples = (a, base + col[a] * size[a], base + row[a] * size[a])
    for arr in triples:
        arr.setflags(write=False)
    return triples


def exact_real(a) -> np.ndarray:
    """``a`` as float64 when every imaginary part is exactly 0, else ``a`` as it is.

    Every product of such entries is then exactly the real part of the complex
    one, whose imaginary terms are all 0, at half the memory traffic.  A sum
    runs over the same terms, though a float64 GEMM may add them in another
    order than a complex one.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a) and not a.imag.any():
        return np.ascontiguousarray(a.real)
    return a


def check_star_homomorphism(f: Superoperator, tol: Tolerance = DEFAULT_TOL) -> HomReport:
    """Test multiplicativity, adjoint preservation and injectivity on the matrix-unit basis.

    Multiplicativity compares f(e_a) f(e_b) with f(e_a e_b) for every pair of
    matrix units and every entry.  Per codomain block of size m, the images
    are stacked as ``imgs`` (n, m, m), and a chunk of rows a gives one GEMM,
    ``imgs[a0:a1]`` as ((a1-a0) m, m) times ``imgs`` laid out as (m, n m):
    f(e_a) f(e_b) for every b, at most ``STREAM_ENTRIES`` entries.  f(e_target)
    is subtracted in place at the nonzero products (``unit_products``), and the
    max-abs runs over the whole chunk, so every other pair is compared with 0.
    A real map (``exact_real``) is multiplied in float64.  Adjoint
    preservation compares f(e_a*) with f(e_a)* in column chunks of the same
    budget.

    Cost is n^2 m^3 per codomain block, over all basis pairs; intended for
    the pairwise algebras of a system, not for large partition algebras
    (those maps are homomorphisms by construction).
    """
    mat = exact_real(f.matrix)
    mult = _multiplicativity_residual(mat, f.dom, f.cod)
    adj = _adjoint_residual(mat, f.dom, f.cod)
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


def _multiplicativity_residual(mat: np.ndarray, dom: Blocks, cod: Blocks) -> float:
    """max |f(e_a) f(e_b) - f(e_a e_b)| over every pair of matrix units, as
    ``check_star_homomorphism`` describes; its buffers are freed on return."""
    n = mat.shape[1]
    rmat = exact_real(mat)
    a_idx, b_idx, t_idx = unit_products(dom)
    mult = 0.0
    for m, off in zip(cod, block_offsets(cod)):
        # f(e_a) restricted to this codomain block, and the same stack as (m, n m)
        imgs = np.ascontiguousarray(rmat[off:off + m * m].T).reshape(n, m, m)
        right = np.ascontiguousarray(imgs.transpose(1, 0, 2)).reshape(m, n * m)
        rows = max(1, STREAM_ENTRIES // (n * m * m))
        for a0 in range(0, n, rows):
            a1 = min(n, a0 + rows)
            prod = (imgs[a0:a1].reshape(-1, m) @ right).reshape(a1 - a0, m, n, m)
            lo, hi = np.searchsorted(a_idx, (a0, a1))
            prod[a_idx[lo:hi] - a0, :, b_idx[lo:hi], :] -= imgs[t_idx[lo:hi]]
            mult = np.maximum(mult, max_abs(prod))
    return float(mult)


def _adjoint_residual(mat: np.ndarray, dom: Blocks, cod: Blocks) -> float:
    """max |f(e_a*) - f(e_a)*| over the matrix units a, in column chunks of at
    most ``STREAM_ENTRIES`` entries per array.

    f(e_a*) is column sp_dom[a] of the map, and f(e_a)* conjugates column a
    and reads it in the order sp_cod.
    """
    sp_dom, sp_cod = star_perm(dom), star_perm(cod)
    adj = 0.0
    width = chunk_width(*mat.shape)
    for a0 in range(0, mat.shape[1], width):
        diff = mat[:, sp_dom[a0:a0 + width]]
        star = mat[sp_cod, a0:a0 + width]
        diff -= np.conjugate(star, out=star)
        adj = np.maximum(adj, max_abs(diff))
    return float(adj)
