"""Finite-dimensional C*-algebras: direct sums of matrix blocks.

An element is stored as one read-only complex vec, the row-major entries of
its square blocks in block order, and its blocks are views of it.  A linear
functional is held by its density rho, an element of the same algebra with
phi(x) = sum_k Tr(rho_k x_k), which covers every bounded functional in finite
dimensions and turns positivity and normalization into eigenvalue checks;
tensoring functionals tensors their densities.  The GNS construction returns
the coordinate map onto an orthonormal basis of the quotient.  Its Gram matrix repeats the n x n matrix
rho_k^T along the rows of block k, so the basis is built by one Gram-Schmidt
per block, over the matrix units in index order, and placed along the rows:
the cost follows the block sizes, not the square of the algebra's dimension,
and bases line up canonically across runs.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    blocks_dim,
    block_offsets,
    join_vec,
    max_abs,
    split_vec,
    star_perm,
    tensor_blocks,
    vec_tensor,
)


class DimensionCapError(RuntimeError):
    """Raised when a construction would exceed the vectorized-dimension cap."""


DEFAULT_DIM_CAP = 4096


@dataclass(frozen=True)
class FiniteCStarAlgebra:
    """A direct sum of full matrix algebras, identified by its block sizes."""

    blocks: tuple[int, ...]

    def __init__(self, blocks: Iterable[int]):
        bl = tuple(map(operator.index, blocks))  # a float or string size is a TypeError
        if not bl or min(bl) < 1:
            raise ValueError(f"block sizes must be positive, got {bl}")
        object.__setattr__(self, "blocks", bl)

    @property
    def dim(self) -> int:
        """Vectorized dimension, sum of squared block sizes."""
        return blocks_dim(self.blocks)

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(n, dtype=complex) for n in self.blocks])

    def matrix_unit(self, block: int, i: int, j: int) -> "AlgebraElement":
        v = np.zeros(self.dim, dtype=complex)
        split_vec(self.blocks, v)[block][i, j] = 1.0
        return self.from_vec(v)

    def from_vec(self, v: np.ndarray) -> "AlgebraElement":
        """The element whose vec is ``v``, holding a read-only view of ``v``.

        A complex ``v`` is not copied (any other is converted), so the caller
        must not write to it afterwards.
        """
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.size != self.dim:
            raise ValueError(f"vector of size {v.size} does not fit blocks {self.blocks}")
        x = object.__new__(AlgebraElement)
        x.algebra, x._vec, x._blocks = self, v.view(), None
        x._vec.setflags(write=False)
        return x

    def random_element(self, rng: np.random.Generator) -> "AlgebraElement":
        mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for n in self.blocks]
        return AlgebraElement(self, mats)


class AlgebraElement:
    """An element of a direct sum of matrix blocks, stored as its vec.

    The vec is one read-only complex array: the row-major entries of the
    blocks in block order.  The constructor takes one square matrix per block
    and copies them into a new vec, so no array a caller passes is shared or
    frozen; ``FiniteCStarAlgebra.from_vec`` holds a given vec as it is.
    ``block_matrices`` are read-only views of the vec, built on first access
    and kept.  No element is ever written to, so elements are shared as they
    are.
    """

    __slots__ = ("algebra", "_vec", "_blocks")

    def __init__(self, algebra: FiniteCStarAlgebra, block_matrices: Iterable[np.ndarray]):
        mats = [as_matrix(m) for m in block_matrices]
        if len(mats) != len(algebra.blocks):
            raise ValueError("one matrix per block required")
        for m, n in zip(mats, algebra.blocks):
            if m.shape != (n, n):
                raise ValueError(f"block of shape {m.shape} does not fit size {n}")
        self.algebra, self._blocks = algebra, None
        self._vec = join_vec(mats)
        self._vec.setflags(write=False)

    @property
    def block_matrices(self) -> tuple[np.ndarray, ...]:
        if self._blocks is None:
            self._blocks = tuple(split_vec(self.algebra.blocks, self._vec))
        return self._blocks

    def vec(self) -> np.ndarray:
        return self._vec

    def star(self) -> "AlgebraElement":
        return self.algebra.from_vec(self._vec.conj()[star_perm(self.algebra.blocks)])

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_algebra(other)
        return self.algebra.from_vec(self._vec + other._vec)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_algebra(other)
        return self.algebra.from_vec(self._vec - other._vec)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._same_algebra(other)
            return AlgebraElement(
                self.algebra, [a @ b for a, b in zip(self.block_matrices, other.block_matrices)]
            )
        return self.algebra.from_vec(other * self._vec)

    __rmul__ = __mul__

    def _same_algebra(self, other: "AlgebraElement"):
        if self.algebra.blocks != other.algebra.blocks:
            raise ValueError(f"algebra mismatch: {self.algebra.blocks} vs {other.algebra.blocks}")

    def distance(self, other: "AlgebraElement") -> float:
        self._same_algebra(other)
        return max_abs(self._vec - other._vec)

    def is_projection(self, tol: float = DEFAULT_TOL) -> bool:
        return (
            max_abs(self._vec - self.star()._vec) <= tol
            and (self * self).distance(self) <= tol
        )


def tensor_algebra(a: FiniteCStarAlgebra, b: FiniteCStarAlgebra) -> FiniteCStarAlgebra:
    return FiniteCStarAlgebra(tensor_blocks(a.blocks, b.blocks))


def tensor_element(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    t = tensor_algebra(x.algebra, y.algebra)
    return t.from_vec(vec_tensor(x.algebra.blocks, y.algebra.blocks, x.vec(), y.vec()))


class LinearFunctional:
    """phi(x) = sum_k Tr(rho_k x_k), held as its density rho, an element of the algebra.

    ``LinearFunctional(algebra, densities)`` takes one square density matrix
    per block and copies them, as ``AlgebraElement`` does; ``of_density``
    holds a given element as it is.  ``densities`` are the density's
    read-only block views.
    """

    __slots__ = ("density",)

    def __init__(self, algebra: FiniteCStarAlgebra, densities: Iterable[np.ndarray]):
        self.density = AlgebraElement(algebra, densities)

    @classmethod
    def of_density(cls, rho: AlgebraElement) -> "LinearFunctional":
        phi = object.__new__(cls)
        phi.density = rho
        return phi

    @property
    def algebra(self) -> FiniteCStarAlgebra:
        return self.density.algebra

    @property
    def densities(self) -> tuple[np.ndarray, ...]:
        return self.density.block_matrices

    def __call__(self, x: AlgebraElement) -> complex:
        return complex(
            sum(np.trace(r @ m) for r, m in zip(self.densities, x.block_matrices))
        )

    def row(self) -> np.ndarray:
        """Row vector with phi(x) = row @ vec(x): the vec of the transposed density."""
        return self.density.vec()[star_perm(self.algebra.blocks)]

    def state_residuals(self) -> tuple[float, float]:
        """(negativity, normalization error): both ~0 iff this is a state; NaN if
        a density entry is."""
        neg = 0.0
        total = 0.0
        for r in self.densities:
            herm = max_abs(r - r.conj().T)
            eigs = np.linalg.eigvalsh((r + r.conj().T) / 2)
            neg = np.maximum(neg, np.maximum(herm, -eigs.min(initial=0.0)))
            total += float(np.trace(r).real)
        return float(neg), abs(total - 1.0)

    def is_state(self, tol: float = DEFAULT_TOL) -> bool:
        neg, norm_err = self.state_residuals()
        return neg <= tol and norm_err <= tol


def functional_tensor(f: LinearFunctional, g: LinearFunctional) -> LinearFunctional:
    """(f (x) g)(x (x) y) = f(x) g(y): the functional of the tensor of the densities.

    Block (i, j) of its density holds kron(rho_i, sigma_j), each entry the one
    product np.kron forms.
    """
    return LinearFunctional.of_density(tensor_element(f.density, g.density))


def trace_functional(algebra: FiniteCStarAlgebra, normalized: bool = False) -> LinearFunctional:
    total = sum(algebra.blocks)
    scale = 1.0 / total if normalized else 1.0
    return LinearFunctional(algebra, [scale * np.eye(n) for n in algebra.blocks])


def vector_state(algebra: FiniteCStarAlgebra, block: int = 0, index: int = 0) -> LinearFunctional:
    """The state x -> <e_index, x e_index> supported on one block: its density is
    the matrix unit at (index, index) of that block."""
    return LinearFunctional.of_density(algebra.matrix_unit(block, index, index))


# -- GNS construction ---------------------------------------------------------

@dataclass(frozen=True)
class GnsData:
    """Coordinates of the GNS space of (algebra, phi).

    ``eta`` (dim x vec_dim) sends vec(x) to the coordinates of the coset of x
    in an orthonormal basis, so that <eta(x), eta(y)> = phi(y* x).  ``lift``
    (vec_dim x dim) sends coordinates back to the vec of a representative:
    eta @ lift = identity.
    """

    dim: int
    eta: np.ndarray
    lift: np.ndarray


def gram_apply(algebra: FiniteCStarAlgebra, phi: LinearFunctional,
               x: np.ndarray) -> np.ndarray:
    """G @ x for the Gram matrix G[b, a] = phi(e_b* e_a), without forming G.

    Within block k the closed form is kron(I_n, rho_k^T); cross-block products
    vanish, so G is block diagonal.  Block k of G @ x is therefore one batched
    matmul of rho_k^T against the n row groups of x, written straight into
    its rows of the output.  ``x`` has ``algebra.dim`` rows and any trailing
    shape.
    """
    cols = x.reshape(algebra.dim, -1)
    out = np.empty(cols.shape, dtype=complex)
    for n, rho, off in zip(algebra.blocks, phi.densities, block_offsets(algebra.blocks)):
        rows = slice(off, off + n * n)
        np.matmul(rho.T, cols[rows].reshape(n, n, -1), out=out[rows].reshape(n, n, -1))
    return out.reshape(x.shape)


def gram_matrix(algebra: FiniteCStarAlgebra, phi: LinearFunctional) -> np.ndarray:
    """G[b, a] = phi(e_b* e_a) over the matrix-unit basis; Hermitian PSD for states.

    The dense form of ``gram_apply``: block k is kron(I_n, rho_k^T), so rho_k^T
    is written on the diagonal of each of its n row groups, and no identity is
    formed.
    """
    out = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    for n, rho, off in zip(algebra.blocks, phi.densities, block_offsets(algebra.blocks)):
        block = out[off:off + n * n, off:off + n * n].reshape(n, n, n, n)
        block[np.arange(n), :, np.arange(n), :] = rho.T
    return out


def gns(algebra: FiniteCStarAlgebra, phi: LinearFunctional, tol: float = DEFAULT_TOL) -> GnsData:
    """GNS coordinates for a state phi, built block by block.

    The Gram matrix is G = (+)_k kron(I_n, rho_k^T): block diagonal, and the
    same n x n matrix rho_k^T on every row of block k.  Modified Gram-Schmidt
    over the matrix units in index order therefore never mixes rows, so it is
    run once per block, on the n x n form g_k, giving coefficients C_k
    (n x r_k); eta and lift are kron(I_n, C_k^* g_k) and kron(I_n, C_k) along
    the diagonal.  The basis order is block, then row, then Gram-Schmidt
    order, which keeps it canonical under structural degeneracy.

    The quotient dimension is the numerical rank of G: eigenvalues <= eps *
    lambda_max count as kernel, with lambda_max taken over all blocks, so the
    rank is sum_k n_k * r_k.  lambda_max itself is never kernel, so a
    tolerance of 1 or more keeps its eigenspace rather than an empty space;
    nor is the cut ever below rounding level, max(blocks) * machine eps *
    lambda_max.  g_k is rho_k^T with its kernel eigenvalues taken out, so
    Gram-Schmidt, which drops only residuals at rounding level, finds exactly
    r_k vectors even where the diagonal of a non-diagonal rho_k lies below
    the cut; kernel eigenvalues that are exact zeros leave rho_k^T bit for
    bit.  The dim x dim Gram matrix is never formed.
    """
    if not phi.is_state(tol):
        neg, norm_err = phi.state_residuals()
        raise ValueError(
            f"not a state: positivity residual {neg:.3g}, trace error {norm_err:.3g}"
        )
    spectra = [np.linalg.eigh(rho.T) for rho in phi.densities]
    lam_max = max(float(ev[-1]) for ev, _ in spectra)
    floor = max(algebra.blocks) * np.finfo(float).eps * max(lam_max, 0.0)
    threshold = max(min(tol * lam_max, np.nextafter(lam_max, 0.0)), floor)
    grams, factors = [], []
    for rho, (ev, vecs) in zip(phi.densities, spectra):
        kernel = ev <= threshold
        g = rho.T - (vecs[:, kernel] * ev[kernel]) @ vecs[:, kernel].conj().T
        grams.append(g)
        factors.append(_gram_schmidt(g, int(np.sum(~kernel)), floor))
    rank = sum(n * c.shape[1] for n, c in zip(algebra.blocks, factors))
    eta = np.zeros((rank, algebra.dim), dtype=complex)
    lift = np.zeros((algebra.dim, rank), dtype=complex)
    row = 0
    for n, g, c, off in zip(algebra.blocks, grams, factors, block_offsets(algebra.blocks)):
        eta_k = c.conj().T @ g
        r = c.shape[1]
        for i in range(n):
            cols = slice(off + i * n, off + (i + 1) * n)
            eta[row:row + r, cols] = eta_k
            lift[cols, row:row + r] = c
            row += r
    return GnsData(dim=rank, eta=eta, lift=lift)


def _gram_schmidt(g: np.ndarray, rank: int, floor: float) -> np.ndarray:
    """Modified Gram-Schmidt of the unit vectors under the PSD form g of rank ``rank``.

    Returns the coefficients (n x rank): column m expresses the m-th
    orthonormal vector in the unit vectors, which are taken in index order
    and dropped when their residual norm^2 is <= floor.
    """
    n = g.shape[0]
    coeffs = []
    for a in range(n):
        if len(coeffs) == rank:
            break
        u = np.zeros(n, dtype=complex)
        u[a] = 1.0
        for _ in range(2):  # re-orthogonalize once for stability
            for w in coeffs:
                u = u - w * (w.conj() @ g @ u)
        nrm2 = float((u.conj() @ g @ u).real)
        if nrm2 > floor:
            coeffs.append(u / np.sqrt(nrm2))
    if len(coeffs) != rank:
        raise ArithmeticError(
            f"Gram-Schmidt found {len(coeffs)} vectors but Gram rank is {rank}"
        )
    return np.array(coeffs).reshape(rank, n).T
