"""The dissipative generator: action, vectorized matrix, spectrum, kernel.

The generator of the dynamics is

    L(rho) = -i [H, rho] + sum_m ( L_m rho L_m† - (1/2) {L_m† L_m, rho} )

and the vectorized form uses the column-stacking convention throughout:
vec stacks columns (Fortran order), so vec(A rho B) = (B^T kron A) vec(rho).
Mixing this up is the classic silent transpose bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .opalg import RESOLUTION, at_resolution

# kernel_and_values takes the vectors of blocks up to this size in the same
# LAPACK call as their values. Larger blocks take values only, and the few
# that reach below the cutoff are factorised again with vectors. Measured
# per call on the forms the benchmark solves (1 BLAS thread): with every
# block values-first, d = 2 Pauli forms (2 x 2 blocks) take 93 instead of
# 81 us; with 32 instead of 16, d = 8 forms (blocks of 20 to 32) take 355
# instead of 268 us.
VECTORS_WITH_VALUES = 16


class NumericalFailure(RuntimeError):
    """A linear-algebra step produced an unusable result."""


def effective_hamiltonian(ham: np.ndarray, jumps) -> np.ndarray:
    """K = H - (i/2) sum_m L_m† L_m, with the sum of the L_m† L_m taken first.

    This one K, rounded the same way, enters the closure's generators, the
    stationarity residuals and the invariant-block check.
    """
    total = np.zeros(ham.shape, dtype=complex)
    for jump in jumps:
        total += jump.conj().T @ jump
    return ham - 0.5j * total


def apply_matrices(ham: np.ndarray, jumps, rho: np.ndarray) -> np.ndarray:
    """The generator's action on ``rho``, from the matrices of H and the L_m.

    Written as -i(K rho - rho K†) + sum_m L_m rho L_m† with the effective
    Hamiltonian K of effective_hamiltonian, so each jump costs two
    products with rho. ``rho`` may be a stack of matrices.
    """
    k = effective_hamiltonian(ham, jumps)
    out = np.zeros(np.shape(rho), dtype=complex)
    for jump in jumps:
        out += jump @ rho @ jump.conj().T
    # the jump terms are summed first: for rho = 1 on a one-dimensional
    # space they then cancel the anticommutator exactly
    out -= 1j * (k @ rho - rho @ k.conj().T)
    return out


@dataclass
class LiouvillianMatrix:
    """The d² x d² matrix of the generator, column-stacking convention.

    Its real form for kernel_and_values is the matrix in the Hermitian
    matrix-unit basis of _hermitian_frame.
    """

    d: int
    matrix: np.ndarray

    def real_form(self):
        """B = T† A T for the generator matrix A, as Re B and ||Im B||_F.

        Each column of T has at most two nonzeros, so B comes from index
        arithmetic on A: reorder A to [diagonals, m, t], replace each pair
        of columns c_m, c_t by (c_m + c_t)/√2 and i(c_m - c_t)/√2, and each
        pair of rows r_m, r_t by (r_m + r_t)/√2 and -i(r_m - r_t)/√2.
        Elementwise operations keep exact cancellations exact, so entries
        that vanish in the arithmetic vanish in B. A map that preserves
        Hermiticity has a real B.
        """
        d = self.d
        grid, p, _, _ = _hermitian_frame(d)
        b = self.matrix[grid]
        for m, t, phase in ((b[:, d : d + p], b[:, d + p :], 1j), (b[d : d + p], b[d + p :], -1j)):
            diff = m - t
            m += t
            m *= _HALF
            np.multiply(diff, phase * _HALF, out=t)
        return np.ascontiguousarray(b.real), math.sqrt(np.vdot(b.imag, b.imag))

    def to_vectors(self, coords: np.ndarray) -> np.ndarray:
        """Column-stacked vectors of the frame coordinates ``coords``."""
        _, _, rows, weights = _hermitian_frame(self.d)
        return (coords[rows] * weights).sum(axis=1)


def assemble_matrices(ham: np.ndarray, jumps) -> LiouvillianMatrix:
    """The generator matrix, written in place without Kronecker products.

    As a (d, d, d, d) view, entry [a, i, b, j] is row a d + i and column
    b d + j, so I ⊗ X fills the blocks a = b with X[i, j], Xᵀ ⊗ I the
    positions i = j with X[b, a], and L̄ ⊗ L is the broadcast product
    L̄[a, b] L[i, j], added one row a at a time. The terms are added in
    the order of the formula, so every entry is the value the Kronecker
    products would give.
    """
    d = ham.shape[0]
    diag = np.arange(d)
    mat = np.zeros((d * d, d * d), dtype=complex)
    view = mat.reshape(d, d, d, d)
    view[diag, :, diag, :] = ham
    view[:, diag, :, diag] -= ham.T
    mat *= -1j
    for jump in jumps:
        jdj = jump.conj().T @ jump
        for a, row in enumerate(jump.conj()):
            # one d³ slab at a time, so no d⁴ temporary is made
            view[a] += row[None, :, None] * jump[:, None, :]
        view[diag, :, diag, :] -= 0.5 * jdj
        view[:, diag, :, diag] -= 0.5 * jdj.T
    return LiouvillianMatrix(d=d, matrix=mat)


def spectrum(form, tol: float | None = None) -> np.ndarray:
    """All eigenvalues of ``form.matrix``, by descending real, then imaginary part.

    ``form`` is the generator in any basis, a pauli.PauliForm or a
    LiouvillianMatrix: a change of basis leaves the eigenvalues as they
    are. The generator is non-normal, so these are reported for inspection
    only; kernel dimensions always come from the SVD in kernel_and_values().
    With ``tol``, the eigenvalues are first resolved (opalg.at_resolution) on
    the scale of the largest |eigenvalue|, so that roundoff neither shows
    in them nor decides their order.
    """
    try:
        vals = np.linalg.eigvals(form.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    if tol is not None and vals.size:
        vals = at_resolution(vals, tol, float(np.abs(vals).max()))
    order = np.lexsort((vals.imag, -vals.real))
    return vals[order]


_HALF = np.sqrt(0.5)


@lru_cache(maxsize=32)
def _hermitian_frame(d: int):
    """The real Hermitian basis T of d x d operators, as index arithmetic.

    T's columns are vec(E_jj), then (e_m + e_t)/√2 for each m < t =
    transpose(m), then i(e_m - e_t)/√2 in the same order. Every row of T
    has two nonzeros at most, so T is never formed. Returns

    * ``grid``, an index grid that reorders a d² x d² matrix to the vec
      indices [j(d + 1) for each j, then each m, then each t];
    * ``p``, the number of pairs;
    * ``rows`` and ``weights`` of shape (d², 2) and (d², 2, 1), with
      (T @ w)[v] = sum_k weights[v, k] w[rows[v, k]] for coordinates w
      (a diagonal lists its one nonzero twice, with weights 1 and 0).
    """
    idx = np.arange(d * d)
    m = idx[idx % d > idx // d]
    t = (m % d) * d + m // d
    p = len(m)
    order = np.concatenate([idx[:: d + 1], m, t])
    # rows of T in that order: diagonal j holds column j; m and t of pair
    # j hold the columns d + j and d + p + j
    sym = np.arange(d, d + p)
    pair = np.stack([sym, sym + p], axis=1)
    rows = np.concatenate([np.stack([np.arange(d)] * 2, axis=1), pair, pair])
    weights = np.concatenate(
        [np.tile([1.0, 0.0], (d, 1)), np.tile([_HALF, 1j * _HALF], (p, 1)),
         np.tile([_HALF, -1j * _HALF], (p, 1))]
    )
    inv = np.argsort(order)
    return np.ix_(order, order), p, rows[inv], weights[inv, :, None]


def _blocks(re: np.ndarray):
    """The connected components of re's exact nonzero pattern, by size.

    Indices i and j are joined when re[i, j] or re[j, i] is nonzero, with
    no threshold, so re is exactly block diagonal on the components. Each
    index takes the smallest label among itself and its neighbours, then
    the label of that label, until every nonzero joins equal labels. A
    label is always an index of the same component, so equal labels then
    mark exactly one component. Returns one (count, size) index array per
    block size, ascending, each row one block in ascending order.
    """
    adj = re != 0
    rows, cols = np.nonzero(adj | adj.T)
    label = np.arange(len(re))
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        label = low[low]
        if (label[rows] == label[cols]).all():
            break
    members = {}
    for v, root in enumerate(label.tolist()):
        members.setdefault(root, []).append(v)
    by_size = {}
    for block in members.values():
        by_size.setdefault(len(block), []).append(block)
    return [np.array(by_size[size]) for size in sorted(by_size)]


def _block_svd(re: np.ndarray, idx: np.ndarray, vectors: bool):
    """Stacked singular values of re[np.ix_(b, b)] for b in idx, descending.

    With ``vectors``, also the stacked right singular vectors; else None in
    their place, and LAPACK computes the values only.
    """
    if idx.shape[1] == 1:
        # a 1 x 1 block is its own SVD: |x|, with right vector 1
        return np.abs(re[idx, idx]), np.ones((len(idx), 1, 1))
    stack = re[idx[:, :, None], idx[:, None, :]]
    try:
        if vectors:
            _, svals, vh = np.linalg.svd(stack)
            return svals, vh
        return np.linalg.svd(stack, compute_uv=False), None
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD failed: {exc}") from exc


def kernel_and_values(form, tol: float = 1e-9):
    """Orthonormal kernel vectors (columns) and every singular value.

    The kernel is spanned by the right singular vectors whose singular
    value falls below tol * sigma_max; the values come back in descending
    order, so callers can report how decisively the rank was decided.
    SVD rather than eigendecomposition: the zero eigenvalue of a non-normal
    matrix can sit in a defective block, where eigenvector counts mislead
    but the rank decision does not.

    ``form`` is the generator in a real orthonormal basis of Hermitian
    operators: a LiouvillianMatrix, rotated into the matrix-unit basis of
    _hermitian_frame, or a pauli.PauliForm, built on the Pauli strings.
    Its ``real_form()`` gives the real matrix B and the norm of the
    imaginary part it dropped, and ``to_vectors`` maps B's coordinates back
    to column-stacked vectors. The basis is orthonormal, so B has the
    generator's singular values, and B is real because the generator maps
    Hermitian operators to Hermitian ones. The imaginary part is dropped
    only when its norm is at most RESOLUTION * tol * sigma_max; by Weyl's
    inequality that moves no singular value across the cutoff, and
    otherwise NumericalFailure is raised.

    B is then split into the connected components of its exact nonzero
    pattern: it is block diagonal under that permutation, so the blocks'
    singular values together are B's, with no approximation. The blocks
    are superoperator symmetry sectors, and the Pauli strings show more of
    them than the matrix units: at N = 5 tfim splits into 11 blocks of
    sizes C(10, k), the largest 252, and xyz into (1, 1, 510, 512), the
    identity and the parity string being steady on their own. Each block
    is solved by a real SVD, blocks of one size as one stack, and one
    cutoff, with sigma_max the largest over all blocks, decides the rank of
    every block, exactly as for the whole matrix.

    Blocks larger than VECTORS_WITH_VALUES take their singular values
    first, without vectors. Once the cutoff is known, only the blocks with
    a value under it are factorised again, with vectors, by the same call
    that takes them at once, so the kernel rows are the same either way.
    A single block must hold the steady state and takes its vectors at
    once. Most blocks hold no kernel vector: xyz's 510 and 512 blocks at
    N = 5, and 2046 and 2048 at N = 6, take their values only, and `ness`
    at N = 6 takes 4.8-5.1 s for xyz, 1.6-1.7 s for tfim and 1.2-1.4 s for
    tight binding (wall, 2-vCPU host, 2 OpenBLAS threads; README,
    Limitations). The kernel rows are embedded and mapped back to complex
    column-stacked vectors, each a Hermitian matrix (except the zero
    generator's identity).
    """
    n = len(form.matrix)
    re, imag_norm = form.real_form()
    if imag_norm == 0 and not re.any():
        # the zero generator: everything is steady
        return np.eye(n, dtype=complex), np.zeros(n)
    groups = _blocks(re)
    # a single block holds the steady state, so it needs its vectors
    whole = len(groups) == 1 and len(groups[0]) == 1
    solved = [
        (idx, *_block_svd(re, idx, whole or idx.shape[1] <= VECTORS_WITH_VALUES))
        for idx in groups
    ]
    svals = np.sort(np.concatenate([s.ravel() for _, s, _ in solved]))[::-1]
    smax = float(svals[0])
    if imag_norm > RESOLUTION * tol * smax:
        raise NumericalFailure(
            "the generator does not preserve Hermiticity: its imaginary part "
            f"in a Hermitian basis has norm {imag_norm:.3e}, sigma_max {smax:.3e}"
        )
    cutoff = tol * smax
    picked = []
    for idx, s, vh in solved:
        below = s < cutoff
        hit = below.any(axis=1)
        if not hit.any():
            continue
        # only the blocks that reach below the cutoff are factorised again,
        # by the same call as with vectors at once, so their rows are the same
        vh = _block_svd(re, idx[hit], True)[1] if vh is None else vh[hit]
        blk, row = np.nonzero(below[hit])
        picked.append((idx[hit][blk], vh[blk, row]))
    k = sum(len(vals) for _, vals in picked)
    if k == 0:
        raise NumericalFailure(
            "no kernel vector found, but a steady state always exists; "
            f"smallest singular value {svals[-1]:.3e} vs cutoff {cutoff:.3e}"
        )
    coords, col = np.zeros((n, k)), 0
    for pos, vals in picked:
        coords[pos, np.arange(col, col + len(vals))[:, None]] = vals
        col += len(vals)
    return form.to_vectors(coords), svals
