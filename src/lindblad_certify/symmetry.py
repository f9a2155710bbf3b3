"""Strong symmetries: verification, sector decomposition, restriction.

A unitary S is a strong symmetry when it commutes with the Hamiltonian and
with every jump operator separately. The operator space then splits into
blocks V_a X V_b† indexed by pairs of eigenspaces of S, each invariant under
the dissipative generator, and every diagonal block carries at least one
steady state. Everything here works with S as an explicit matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .liouvillian import effective_hamiltonian
from .modelspec import ModelSpec
from .opalg import Operator, PauliTerm, pauli_to_operator

DEFAULT_CLUSTER_TOL = 1e-8
_TWO_PI = 2.0 * np.pi


def parity_z_operator(n_sites: int) -> Operator:
    """The spin-flip parity prod_j Z_j (eigenvalues +1 and -1)."""
    return pauli_to_operator(
        [PauliTerm(1.0, [(j, "Z") for j in range(1, n_sites + 1)])], n_sites
    )


def u1_number_operator(n_sites: int) -> Operator:
    """The total-number phase e^{i N_tot}, diagonal with entries e^{i.popcount}.

    Eigenvalues are e^{i a} for occupation a = 0..n; the phase labels are
    kept as-is rather than re-labeled by particle number.
    """
    counts = np.array([bin(i).count("1") for i in range(2**n_sites)])
    return Operator(np.diag(np.exp(1j * counts)))


def resolve_symmetry(descriptor, spec: ModelSpec) -> Operator:
    """Turn a declared-symmetry entry (name or Operator) into a matrix."""
    if isinstance(descriptor, Operator):
        return descriptor
    if descriptor == "parity_z":
        return parity_z_operator(spec.n_sites)
    if descriptor == "u1_number":
        return u1_number_operator(spec.n_sites)
    raise ValueError(f"unknown symmetry descriptor {descriptor!r}")


@dataclass
class SymmetryCheck:
    """Outcome of the commutation test, with one norm per generator."""

    ok: bool
    commutator_norms: dict


def _commutator(s: np.ndarray, g: np.ndarray, tol: float):
    """||[S, G]||_F, and whether S commutes with G: ||[S, G]||_F <= tol (1 + ||G||_F)."""
    norm = float(np.linalg.norm(s @ g - g @ s))
    return norm, norm <= tol * (1.0 + float(np.linalg.norm(g)))


def verify_strong_symmetry(S: Operator, spec: ModelSpec, tol: float = 1e-9) -> SymmetryCheck:
    """Check [S, H] = 0 and [S, L_m] = 0 for all m, each by _commutator's rule."""
    if S.dim != spec.dim:
        raise ValueError(f"S has dim {S.dim}, model has dim {spec.dim}")
    if not S.is_unitary(1e-8):
        raise ValueError("S is not unitary")
    ham, jumps = spec.operators()
    labels = ["H"] + [label for label, _ in spec.lindblad_ops]
    norms, oks = zip(*(_commutator(S.mat, op.mat, tol) for op in [ham] + jumps))
    return SymmetryCheck(ok=all(oks), commutator_norms=dict(zip(labels, norms)))


@dataclass
class SectorDecomposition:
    """Eigenspaces of a unitary S, ordered by angle on the unit circle."""

    eigenvalues: np.ndarray
    isometries: list
    unitary: Operator

    @property
    def dims(self):
        return [iso.shape[1] for iso in self.isometries]

    def restrict(self, mat: np.ndarray) -> list:
        """V_a† mat V_a for each sector a, in sector order."""
        return [iso.conj().T @ mat @ iso for iso in self.isometries]


def sector_decompose(S: Operator, tol: float = DEFAULT_CLUSTER_TOL) -> SectorDecomposition:
    """Cluster the unitary spectrum of S and return eigenspace isometries.

    A complex Schur decomposition of a unitary matrix is an eigendecomposition
    with orthonormal columns, which is exactly what the sector isometries
    need. Eigenphases are clustered with tolerance tol; clusters whose
    centers approach within 10 * tol are refused as ambiguous.
    """
    if not S.is_unitary(1e-8):
        raise ValueError("S is not unitary")
    T, Q = scipy.linalg.schur(S.mat, output="complex")
    evals = np.diag(T)
    theta = np.mod(np.angle(evals), _TWO_PI)
    order = np.argsort(theta, kind="stable")
    sorted_theta = theta[order]

    clusters = [[order[0]]]
    for pos in range(1, len(order)):
        if sorted_theta[pos] - sorted_theta[pos - 1] <= tol:
            clusters[-1].append(order[pos])
        else:
            clusters.append([order[pos]])
    if len(clusters) > 1:
        wrap_gap = sorted_theta[0] + _TWO_PI - sorted_theta[-1]
        if wrap_gap <= tol:
            clusters[0] = clusters.pop() + clusters[0]

    centers = []
    for members in clusters:
        mean = np.mean(evals[members])
        if abs(mean) < 0.5:
            raise ValueError(
                "eigenvalue cluster spreads around the circle; decrease tol "
                "or provide an explicit symmetry matrix with cleaner spectrum"
            )
        centers.append(mean / abs(mean))
    angles = [np.mod(np.angle(c), _TWO_PI) for c in centers]
    for i in range(len(angles)):
        for j in range(i + 1, len(angles)):
            gap = abs(angles[i] - angles[j])
            gap = min(gap, _TWO_PI - gap)
            if gap < 10 * tol:
                raise ValueError(
                    f"sector eigenvalues {centers[i]:.6g} and {centers[j]:.6g} "
                    f"are closer than 10*tol = {10 * tol:.1e}; clustering is "
                    "ambiguous - tighten the model or pass explicit sectors"
                )

    ordering = np.argsort(angles, kind="stable")
    eigenvalues = np.array([centers[i] for i in ordering])
    isometries = [np.ascontiguousarray(Q[:, clusters[i]]) for i in ordering]

    decomp = SectorDecomposition(eigenvalues=eigenvalues, isometries=isometries, unitary=S)
    for s_alpha, iso in zip(decomp.eigenvalues, decomp.isometries):
        defect = np.linalg.norm(S.mat @ iso - s_alpha * iso)
        if defect > 1e-8 * max(1, S.dim):
            raise ValueError(
                f"eigenvector defect {defect:.3e} for eigenvalue {s_alpha:.6g}; "
                "S is too far from normal for a sector decomposition"
            )
    return decomp


@dataclass
class BlockCheck:
    """Outcome of the invariant-block trial run."""

    status: str  # "passed" | "failed" | "skipped"
    max_leak: float | None = None
    detail: str = ""

    def __bool__(self):
        return self.status == "passed"


def verify_invariant_blocks(
    spec: ModelSpec,
    sectors: SectorDecomposition,
    trials: int = 20,
    seed: int = 0,
    leak_tol: float = 1e-10,
) -> BlockCheck:
    """Randomized check that the generator maps each block into itself.

    For every pair (a, b), random unit-norm operators supported on
    V_a X V_b† are pushed through the generator and their components on all
    other blocks measured. Gated on the symmetry actually holding: when it
    does not, the block structure is meaningless and the check reports
    "skipped" rather than a spurious failure.

    The generator is applied in the sector frame F, the isometries side by
    side: with K_f = F† K F and L_f = F† L_m F, an operator F X F† maps to
    F Y F† with Y = -i(K_f X - X K_f†) + sum_m L_f X L_f†. A trial X is
    nonzero in its block (a, b) only, so each product takes only the
    columns a or b of the rotated matrices.
    """
    check = verify_strong_symmetry(sectors.unitary, spec, tol=1e-8)
    if not check.ok:
        worst = max(check.commutator_norms, key=check.commutator_norms.get)
        return BlockCheck(
            status="skipped",
            detail=(
                "not a strong symmetry; largest commutator "
                f"||[S, {worst}]|| = {check.commutator_norms[worst]:.3e}"
            ),
        )
    rng = np.random.default_rng(seed)
    ham, jumps = spec.operators()
    jump_mats = [j.mat for j in jumps]
    frame = np.concatenate(sectors.isometries, axis=1)
    frame_h = frame.conj().T
    k_f = frame_h @ effective_hamiltonian(ham.mat, jump_mats) @ frame
    jumps_f = [frame_h @ jump @ frame for jump in jump_mats]
    # the rows of K_f† and L_f†, for the products on the right of X
    k_fh = k_f.conj().T
    jumps_fh = [l_f.conj().T for l_f in jumps_f]
    edges = np.cumsum([0] + sectors.dims)
    ranges = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    shape = (trials, len(frame_h), len(frame_h))
    max_leak = 0.0
    for a, rows in enumerate(ranges):
        for b, cols in enumerate(ranges):
            # all trials at once; per trial, the real part is drawn before
            # the imaginary part
            z = rng.standard_normal((trials, 2, sectors.dims[a], sectors.dims[b]))
            x = z[:, 0] + 1j * z[:, 1]
            x /= np.linalg.norm(x, axis=(1, 2), keepdims=True)
            blocks = np.zeros(shape, dtype=complex)
            for l_f, l_fh in zip(jumps_f, jumps_fh):
                blocks += (l_f[:, rows] @ x) @ l_fh[cols]
            blocks[:, :, cols] -= 1j * (k_f[:, rows] @ x)
            blocks[:, rows, :] += 1j * (x @ k_fh[cols])
            blocks[:, rows, cols] = 0.0
            sq = np.abs(blocks) ** 2
            norms = np.add.reduceat(np.add.reduceat(sq, edges[:-1], axis=1), edges[:-1], axis=2)
            max_leak = max(max_leak, float(np.sqrt(norms.max())))
    status = "passed" if max_leak <= leak_tol else "failed"
    return BlockCheck(status=status, max_leak=max_leak)
