"""Dense operator kernels: spin chains and Hilbert-Schmidt geometry.

Conventions used throughout the package:

* Sites are numbered 1..n. Site 1 is the fastest-varying tensor factor, so a
  computational basis index reads little-endian: bit (j-1) of the index holds
  the state of site j.
* Per site, spin-up is index 0 and spin-down is index 1. The raising operator
  ``+`` is |up><down|, i.e. the matrix [[0, 1], [0, 0]].
* The inner product on operators is Tr(A† B), unnormalized. The identity on a
  d-dimensional space has norm sqrt(d), not 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

X = "X"
Y = "Y"
Z = "Z"
PLUS = "+"
MINUS = "-"
PAULI_LETTERS = (X, Y, Z, PLUS, MINUS)

SINGLE_SITE = {
    X: np.array([[0, 1], [1, 0]], dtype=complex),
    Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Z: np.array([[1, 0], [0, -1]], dtype=complex),
    PLUS: np.array([[0, 1], [0, 0]], dtype=complex),
    MINUS: np.array([[0, 0], [1, 0]], dtype=complex),
}

_I2 = np.eye(2, dtype=complex)

# Daniel-Gragg-Kaufman-Stewart criterion: a residual below this fraction of
# the norm it was projected from is re-orthogonalised once more
_DGKS = np.sqrt(0.5)

# reported roundoff-level quantities are resolved to this fraction of tol
# times their natural scale
RESOLUTION = 1e-3


def at_resolution(x, tol: float, scale: float = 1.0):
    """``x`` rounded to the nearest multiple of RESOLUTION * tol * scale.

    Values below half the quantum become exactly 0, so numbers that are
    roundoff (and differ between BLAS builds and thread counts) are
    reported as the same value everywhere. The result is n * quantum to
    within one ulp, which the 10-digit rounding of reports removes; what
    matters is that it depends on the integer n alone. Accepts a float, a
    complex number, an array, an Operator (returned as an array), a list of
    these (returned as a list) and None; complex parts are resolved
    separately. A nonpositive or non-finite quantum leaves ``x`` as it is.
    """
    if x is None:
        return None
    if isinstance(x, (list, tuple)):
        return [at_resolution(v, tol, scale) for v in x]
    q = RESOLUTION * tol * scale
    if isinstance(x, Operator):
        x = x.mat
    if not (q > 0 and np.isfinite(q)):
        return x
    arr = np.asarray(x)
    out = np.empty_like(arr)
    # adding 0.0 turns -0.0 into 0.0
    if np.iscomplexobj(arr):
        out.real = np.round(arr.real / q) * q + 0.0
        out.imag = np.round(arr.imag / q) * q + 0.0
    else:
        out[...] = np.round(arr / q) * q + 0.0
    return out if isinstance(x, np.ndarray) else out.item()


class Operator:
    """A square complex matrix with Hilbert-Schmidt helpers.

    Instances are immutable values: the wrapped array is copied on
    construction and marked read-only, and dag() returns a new Operator.
    That is what makes it safe to share operators across threads and to
    reuse them as basis elements.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        arr = np.array(mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("operator dimension must be at least 1")
        arr.setflags(write=False)
        self.mat = arr

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.mat.conj().T)

    def hs_norm(self) -> float:
        """Frobenius norm, i.e. sqrt(Tr(A† A))."""
        return float(np.linalg.norm(self.mat))

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return float(np.linalg.norm(self.mat - self.mat.conj().T)) <= tol

    def is_unitary(self, tol: float = 1e-10) -> bool:
        gram = self.mat.conj().T @ self.mat
        return float(np.linalg.norm(gram - np.eye(self.dim))) <= tol

    def __repr__(self):
        return f"Operator(dim={self.dim})"


@dataclass(frozen=True)
class PauliTerm:
    """One product term: a coefficient times single-site factors.

    ``factors`` holds (site, letter) pairs with strictly increasing sites;
    an empty tuple means a multiple of the identity. Letters are X, Y, Z,
    ``+`` (raising, |up><down|) and ``-`` (lowering).
    """

    coeff: complex
    factors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        facs = tuple((int(s), str(op)) for s, op in self.factors)
        object.__setattr__(self, "factors", facs)
        prev = 0
        for site, letter in facs:
            if letter not in PAULI_LETTERS:
                raise ValueError(f"unknown single-site operator {letter!r}")
            if site < 1:
                raise ValueError(f"site index must be positive, got {site}")
            if site <= prev:
                raise ValueError(
                    "factor sites must be strictly increasing "
                    f"(got {site} after {prev})"
                )
            prev = site


def pauli_to_operator(terms, n_sites: int) -> Operator:
    """Sum of embedded product terms on an n-site spin-1/2 chain.

    Each factor acts on its own site and identity elsewhere; factors on
    distinct sites therefore commute and their embedding order is immaterial.
    An empty term list gives the zero operator.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be at least 1")
    d = 2**n_sites
    total = np.zeros((d, d), dtype=complex)
    for term in terms:
        placed = dict(term.factors)
        for site in placed:
            if site > n_sites:
                raise ValueError(
                    f"term acts on site {site} but the chain has {n_sites} sites"
                )
        acc = np.ones((1, 1), dtype=complex)
        for site in range(n_sites, 0, -1):
            acc = np.kron(acc, SINGLE_SITE[placed[site]] if site in placed else _I2)
        total += term.coeff * acc
    return Operator(total)


class HSBasis:
    """A growing orthonormal family of operators under Tr(A† B).

    Vectors are stored flattened in a preallocated row matrix so projections
    are single BLAS calls. ``extend_block`` re-orthogonalises every residual
    whose projection cancelled most of its norm, which keeps the Gram matrix
    within 1e-12 of the identity through a whole closure (tested): a family
    that drifts from orthonormal projects badly and then accepts roundoff as
    new directions.

    ``support``, a boolean d x d mask, restricts the family to operators
    that vanish outside it. Rows are then stored, normalised and projected
    on the masked entries only, which drops exact zeros from every inner
    product; the interface still speaks d x d: ``extend_block`` takes
    d²-wide rows and refuses one with a nonzero entry outside the support,
    and ``rows``, ``matrix_at`` and ``vectors`` give full matrices. A mask
    that covers every entry is the unrestricted basis.
    """

    def __init__(self, dim_space: int, support=None):
        if dim_space < 1:
            raise ValueError("dim_space must be at least 1")
        self.dim_space = int(dim_space)
        d2 = self.dim_space**2
        # flat indices of the stored entries, or None when every entry is
        self._keep = None
        if support is not None:
            mask = np.asarray(support, dtype=bool)
            if mask.shape != (self.dim_space, self.dim_space):
                raise ValueError("support must be a d x d mask")
            if not mask.all():
                self._keep = np.flatnonzero(mask)
                self._drop = ~mask.ravel()
        self._width = d2 if self._keep is None else len(self._keep)
        self._buf = np.empty((min(16, self._width), self._width), dtype=complex)
        self._n = 0

    @classmethod
    def from_orthonormal(cls, ops) -> "HSBasis":
        """Wrap operators already orthonormal under Tr(A† B) (e.g. SVD output)."""
        ops = list(ops)
        if not ops:
            raise ValueError("cannot infer dimension from an empty list")
        basis = cls(ops[0].dim)
        for op in ops:
            if op.dim != basis.dim_space:
                raise ValueError("mixed dimensions in basis")
            basis._append(op.mat.ravel())
        return basis

    def __len__(self) -> int:
        return self._n

    @property
    def support(self) -> np.ndarray:
        """The d x d mask of entries the vectors may be nonzero on."""
        d = self.dim_space
        if self._keep is None:
            return np.ones((d, d), dtype=bool)
        return ~self._drop.reshape(d, d)

    def _full_width(self, stored: np.ndarray) -> np.ndarray:
        """Stored rows with the zeros outside the support put back."""
        if self._keep is None:
            return stored
        out = np.zeros(stored.shape[:-1] + (self.dim_space**2,), dtype=complex)
        out[..., self._keep] = stored
        return out

    @property
    def rows(self) -> np.ndarray:
        """The vectors as flattened rows, shape (len, dim_space**2).

        A view of the storage for an unrestricted basis, a copy otherwise.
        """
        return self._full_width(self._buf[: self._n])

    def matrix_at(self, i: int) -> np.ndarray:
        d = self.dim_space
        return self._full_width(self._buf[i]).reshape(d, d)

    @property
    def vectors(self):
        return [Operator(self.matrix_at(i)) for i in range(self._n)]

    def gram(self) -> np.ndarray:
        # the entries outside the support are zero in every vector
        stored = self._buf[: self._n]
        return stored.conj() @ stored.T

    def _append(self, row: np.ndarray):
        if self._n == self._buf.shape[0]:
            grown = np.empty(
                (min(max(2 * self._buf.shape[0], 16), self._width), self._width),
                dtype=complex,
            )
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        self._buf[self._n] = row
        self._n += 1

    def extend_block(self, cands: np.ndarray, tol: float, max_rows: int | None = None):
        """Orthonormalize candidate rows against the basis, appending survivors.

        ``cands`` has one flattened operator per row, processed in order. A
        candidate is accepted when its residual after projection exceeds
        tol * (1 + ||candidate||); the residual, not the raw candidate, is
        what gets appended, after normalization. Projection against the
        pre-existing rows is done for the whole block at once (twice, for
        stability); projection against rows accepted earlier in the same
        block is done per candidate, preserving the sequential semantics.

        That per-candidate projection can cancel most of what the block
        projection left, and the roundoff the block projection left along
        the older rows then dominates the residual. So an accepted residual
        below 1/√2 of its norm after the block projection is projected once
        more against the rows that predate the block before it is
        normalised (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772,
        1976). Ratios are taken before that step, so it changes what is
        appended, never which candidates are accepted.

        A basis with a support works on the supported entries alone, after
        checking that every other entry of every candidate is zero. Once it
        spans all of them the rest are dependent (ratio 0), as they are once
        an unrestricted basis spans the whole space.

        Returns (accepted_positions, ratios, truncated) where ratios[j] is
        residual/(1 + ||candidate_j||) and truncated reports whether the
        max_rows cap stopped processing before the last candidate.
        """
        cands = np.asarray(cands, dtype=complex)
        if cands.ndim != 2 or cands.shape[1] != self.dim_space**2:
            raise ValueError("candidate block has wrong shape")
        if not np.isfinite(cands).all():
            raise ValueError("candidate contains non-finite entries")
        if self._keep is None:
            work = cands.copy()
        elif cands[:, self._drop].any():
            raise ValueError("candidate is nonzero outside the basis support")
        else:
            # the gather is a copy, and drops only exact zeros
            work = cands[:, self._keep]
        cap = self.dim_space**2 if max_rows is None else min(max_rows, self.dim_space**2)
        norms0 = np.linalg.norm(work, axis=1)
        stored = self._buf[: self._n]
        # a basis that spans its whole support takes no candidate (see the
        # loop), so projecting onto it would be wasted
        if 0 < self._n < self._width:
            for _ in range(2):
                work -= (work @ stored.conj().T) @ stored
        norms1 = np.linalg.norm(work, axis=1)
        n0 = self._n
        accepted = []
        ratios = np.zeros(len(work))
        truncated = False
        full_space = self.dim_space**2
        for j in range(len(work)):
            if self._n >= cap:
                if cap < full_space:
                    # the cap, not the mathematics, stopped us
                    truncated = True
                    ratios[j:] = np.nan
                # else: the span is complete, the rest are dependent (ratio 0)
                break
            if self._n == self._width:
                # the span is the whole support: the same, within it
                break
            r = work[j]
            if self._n > n0:
                fresh = self._buf[n0 : self._n]
                for _ in range(2):
                    # conj(fresh @ conj(r)) = fresh.conj() @ r without copying fresh
                    r = r - (fresh @ r.conj()).conj() @ fresh
            resid = float(np.linalg.norm(r))
            ratio = resid / (1.0 + norms0[j])
            ratios[j] = ratio
            if ratio > tol:
                if n0 and resid < _DGKS * norms1[j]:
                    # the projection cancelled most of the row, so the
                    # roundoff it left along the older rows is no longer
                    # small next to the residual: project once more
                    old = self._buf[:n0]
                    r = r - (old @ r.conj()).conj() @ old
                    resid = float(np.linalg.norm(r))
                self._append(r / resid)
                accepted.append(j)
        return accepted, ratios, truncated
