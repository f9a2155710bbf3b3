"""Steady states and the cross-validation layer.

Everything upstream is algebra; this module is where predictions meet an
independent numerical solve. Kernels of the vectorized generator are turned
into density operators, positivity and uniqueness are measured rather than
assumed, sector-restricted dynamics are solved on their own, and a list of
named consistency checks records whether the algebraic verdicts and the
numerics agree. A disagreement here is a bug by definition, never noise to
be tuned away.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .closure import (
    CERTIFIED_UNIQUE,
    ClosureResult,
    CommutantResult,
    certifier_generators,
    certify_uniqueness,
    commutant,
    effective_hamiltonian,
    restricted_closure,
)
from .liouvillian import (
    NumericalFailure,
    apply_matrices,
    assemble_matrices,
    kernel_and_values,
)
from .modelspec import ModelSpec
from .opalg import HSBasis, Operator, at_resolution
from .pauli import generator_form
from .symmetry import (
    SectorDecomposition,
    SymmetryCheck,
    resolve_symmetry,
    sector_decompose,
    verify_strong_symmetry,
)

TRIVIAL_COMMUTANT = "trivial_commutant"
NONTRIVIAL_COMMUTANT = "nontrivial_commutant"

STATIONARITY_TOL = 1e-8
POSITIVITY_TOL = 1e-8
MIXED_STATE_TOL = 1e-8


@dataclass
class ConsistencyCheck:
    """One named implication between a verdict and the numerics.

    ``passed`` is the truth value of the implication, so a check whose
    premise does not apply passes with a detail saying why.
    """

    name: str
    passed: bool
    detail: str


@dataclass
class SectorReport:
    """Restricted analysis of one symmetry eigenspace."""

    index: int
    eigenvalue: complex
    theta: float
    dim: int
    closure: ClosureResult
    certified: bool
    kernel_dim: int
    state: Operator | None
    min_eigenvalue: float | None
    eigenvalue_ratio: float | None
    stationarity_norm: float | None
    distance_to_mixed: float | None
    sigma_max: float  # largest singular value of the sector's generator


@dataclass
class KernelInvarianceReport:
    """Whether the kernel of a stationary state is dynamically invariant."""

    kernel_dim: int
    residuals: dict
    max_residual: float
    passed: bool
    tol: float


@dataclass
class NessReport:
    """The hub every analysis fills a slice of.

    Fields left at None were not computed by the operation that produced
    the report; full_verdict fills everything it can. ``steady_states``
    holds only trace-one, positive representatives; the complete kernel
    always sits in ``hermitian_kernel_basis``.
    """

    tol: float
    generation_verdict: str | None = None
    closure: ClosureResult | None = None
    all_lindblads_hermitian: bool | None = None
    mixed_state_residual: float | None = None
    frigerio_verdict: str | None = None
    commutant: CommutantResult | None = None
    symmetry: str | None = None
    symmetry_check: SymmetryCheck | None = None
    sectors: SectorDecomposition | None = None
    per_sector: list | None = None
    kernel_dim: int | None = None
    kernel_cutoff: float | None = None
    kernel_sigma_below: float | None = None
    kernel_sigma_above: float | None = None
    hermitian_kernel_basis: list | None = None
    steady_states: list = field(default_factory=list)
    min_eigenvalues: list = field(default_factory=list)
    eigenvalue_ratios: list = field(default_factory=list)
    stationarity_norms: list = field(default_factory=list)
    canonical_state: Operator | None = None
    canonical_is_positive: bool | None = None
    consistency: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def all_consistent(self) -> bool:
        return all(c.passed for c in self.consistency)


PROBE_CHUNK = 32  # probe projections formed at once, each d² entries


def _probe_coefficients(rows: np.ndarray, d: int) -> np.ndarray:
    """Tr(M_j† P) for the ordered Hermitian probes P and operators M_j.

    ``rows`` holds the M_j flattened row-major. The probes are I/√d, then
    E_jj, then (E_jk + E_kj)/√2 and i(E_jk - E_kj)/√2 for j < k in
    row-major order: d² + 1 of them, so the result has shape (d² + 1, k).
    Each coefficient is read off the entries of M_j; the d² x d² probe
    block is never formed.
    """
    mats = rows.conj().reshape(-1, d, d)
    upper_j, upper_k = np.triu_indices(d, 1)
    above, below = mats[:, upper_j, upper_k], mats[:, upper_k, upper_j]
    pairs = np.empty((len(mats), 2 * len(upper_j)), dtype=complex)
    pairs[:, 0::2] = (above + below) / np.sqrt(2.0)
    pairs[:, 1::2] = 1j * (above - below) / np.sqrt(2.0)
    trace = np.trace(mats, axis1=1, axis2=2) / np.sqrt(d)
    diag = np.diagonal(mats, axis1=1, axis2=2)
    return np.concatenate([trace[:, None], diag, pairs], axis=1).T


def _probe_basis(raw: np.ndarray, d: int) -> HSBasis:
    """The Hermitian basis of an adjoint-closed kernel that its probes pick.

    ``raw`` holds the kernel vectors of kernel_and_values as columns. The
    SVD's basis of a kernel is its own choice (it changes with the LAPACK
    driver and the BLAS thread count, and even a one-dimensional kernel
    comes with an arbitrary phase), so the basis returned is the one the
    kernel itself picks out. Each probe of _probe_coefficients is projected
    onto the span, and the projections, made exactly Hermitian, are
    orthonormalized in probe order until k directions are found.
    Projections depend only on the subspace, so the basis does too, signs
    included. Accepting only residual ratios above 1/(4d) keeps roundoff
    from being amplified into the chosen directions and still always finds
    all k of them: the probes after I/√d are an orthonormal basis of the
    Hermitian operators, so some probe keeps a component of at least 1/d on
    whatever part of the span is still missing.
    """
    k = raw.shape[1]
    rows = raw.T.reshape(k, d, d).transpose(0, 2, 1).reshape(k, d * d)
    coeffs = _probe_coefficients(rows, d)
    out = HSBasis(d)
    for start in range(0, len(coeffs), PROBE_CHUNK):
        proj = (coeffs[start : start + PROBE_CHUNK] @ rows).reshape(-1, d, d)
        proj = 0.5 * (proj + proj.conj().transpose(0, 2, 1))
        out.extend_block(proj.reshape(-1, d * d), 0.25 / d, max_rows=k)
        if len(out) == k:
            return out
    raise NumericalFailure(
        f"kernel of dimension {k} yielded {len(out)} Hermitian directions "
        "from the probe operators"
    )


def _canonical_state(basis: HSBasis, d: int) -> Operator | None:
    """Project the maximally mixed state onto the kernel span, trace one.

    For a one-dimensional kernel this reduces to plain normalization of the
    Hermitian representative. Returns None when the projection is traceless,
    in which case no canonical choice is made.
    """
    mixed = (np.eye(d, dtype=complex) / d).ravel()
    coeffs = basis.rows.conj() @ mixed
    m = (coeffs @ basis.rows).reshape(d, d)
    m = 0.5 * (m + m.conj().T)
    tr = float(np.trace(m).real)
    if abs(tr) < 1e-12:
        return None
    return Operator(m / tr)


def _state_metrics(state: Operator, ham_mat, jump_mats):
    evals = np.linalg.eigvalsh(state.mat)
    min_eig = float(evals[0])
    max_eig = float(evals[-1])
    ratio = min_eig / max_eig if max_eig > 0 else float("nan")
    resid = float(np.linalg.norm(apply_matrices(ham_mat, jump_mats, state.mat)))
    return min_eig, ratio, resid


def _solve(lm, ham_mat, jump_mats, tol: float):
    """Solve the kernel of one generator and pick its canonical state.

    Returns the singular values, the Hermitian kernel basis, the canonical
    state, and the state's (min eigenvalue, eigenvalue ratio, stationarity
    residual). The state and its three metrics are None when the kernel
    has no canonical state.
    """
    raw, svals = kernel_and_values(lm, tol)
    basis = _probe_basis(raw, lm.d)
    state = _canonical_state(basis, lm.d)
    if state is None:
        return svals, basis, None, (None, None, None)
    return svals, basis, state, _state_metrics(state, ham_mat, jump_mats)


def _sector_slice(spec: ModelSpec, sectors: SectorDecomposition, tol: float):
    """Restricted closure plus an independent restricted solve, per sector."""
    gens = certifier_generators(spec)
    closures = restricted_closure(gens, sectors, tol)
    ham, jumps = spec.operators()
    h_blocks = sectors.restrict(ham.mat)
    l_blocks = [sectors.restrict(j.mat) for j in jumps]
    reports = []
    for i, (d_a, h_a) in enumerate(zip(sectors.dims, h_blocks)):
        l_a = [blocks[i] for blocks in l_blocks]
        svals, basis, state, (min_eig, ratio, resid) = _solve(
            assemble_matrices(h_a, l_a), h_a, l_a, tol
        )
        dist = None
        if state is not None:
            dist = float(
                np.linalg.norm(state.mat - np.eye(d_a, dtype=complex) / d_a)
            )
        eigenvalue = complex(sectors.eigenvalues[i])
        reports.append(
            SectorReport(
                index=i,
                eigenvalue=eigenvalue,
                theta=float(np.mod(np.angle(eigenvalue), 2 * np.pi)),
                dim=d_a,
                closure=closures[i],
                certified=closures[i].is_full,
                kernel_dim=len(basis),
                state=state,
                min_eigenvalue=min_eig,
                eigenvalue_ratio=ratio,
                stationarity_norm=resid,
                distance_to_mixed=dist,
                sigma_max=float(svals[0]) if svals.size else 0.0,
            )
        )
    return reports


def _implication(name, premise, conclusion, detail_applies, detail_not):
    if not premise:
        return ConsistencyCheck(name, True, detail_not)
    return ConsistencyCheck(name, bool(conclusion), detail_applies)


# The stages, in pipeline order. Each fills its own slice of the report.


def _closure_stage(report: NessReport, spec: ModelSpec, max_basis):
    cert = certify_uniqueness(spec, tol=report.tol, max_basis=max_basis)
    report.generation_verdict = cert.verdict
    report.closure = cert.closure


def _hermitian_path_stage(report: NessReport, spec: ModelSpec):
    """With Hermitian jumps I/d is stationary; measure ||L(I/d)||."""
    ham, jumps = spec.operators()
    if all(j.is_hermitian() for j in jumps):
        mixed = np.eye(spec.dim, dtype=complex) / spec.dim
        report.mixed_state_residual = float(
            np.linalg.norm(apply_matrices(ham.mat, [j.mat for j in jumps], mixed))
        )


def _commutant_stage(report: NessReport, spec: ModelSpec):
    ham, jumps = spec.operators()
    gens = [ham] + jumps + [j.dag() for j in jumps]
    report.commutant = commutant(gens, spec.dim, report.tol)
    report.frigerio_verdict = (
        TRIVIAL_COMMUTANT if report.commutant.commutant_dim == 1 else NONTRIVIAL_COMMUTANT
    )


def _sectors_stage(report: NessReport, spec: ModelSpec, symmetry):
    """Sector analysis under ``symmetry``, skipped when it fails verification."""
    report.symmetry = symmetry if isinstance(symmetry, str) else "custom"
    s_op = resolve_symmetry(symmetry, spec)
    report.symmetry_check = verify_strong_symmetry(s_op, spec, report.tol)
    if report.symmetry_check.ok:
        report.sectors = sector_decompose(s_op)
        report.per_sector = _sector_slice(spec, report.sectors, report.tol)


def _kernel_stage(report: NessReport, spec: ModelSpec):
    ham, jumps = spec.operators()
    svals, basis, state, (min_eig, ratio, resid) = _solve(
        generator_form(spec), ham.mat, [j.mat for j in jumps], report.tol
    )
    k = len(basis)
    report.kernel_dim = k
    report.kernel_cutoff = report.tol * float(svals[0]) if svals.size else 0.0
    report.kernel_sigma_below = float(svals[-k]) if k <= svals.size else None
    report.kernel_sigma_above = float(svals[-k - 1]) if k < svals.size else None
    report.hermitian_kernel_basis = basis.vectors
    if state is not None:
        report.canonical_is_positive = min_eig >= -POSITIVITY_TOL
        if report.canonical_is_positive:
            report.canonical_state = state
            report.steady_states = [state]
            report.min_eigenvalues = [min_eig]
            report.eigenvalue_ratios = [ratio]
            report.stationarity_norms = [resid]


def _consistency_stage(report: NessReport, spec: ModelSpec):
    """Named implications between the verdicts and the numerics.

    What the certificates imply for the kernel solves is checked when the
    global kernel was solved; the sector states are checked in every case.
    """
    all_herm = all(j.is_hermitian() for j in spec.lindblads())
    report.all_lindblads_hermitian = all_herm
    sectors = report.per_sector or []
    if report.kernel_dim is not None:
        certified = report.generation_verdict == CERTIFIED_UNIQUE
        report.consistency += [
            _implication(
                "certified_implies_unique_kernel",
                certified,
                report.kernel_dim == 1,
                f"kernel_dim = {report.kernel_dim}",
                "not certified; no uniqueness claim to check",
            ),
            _implication(
                "certified_implies_positive_state",
                certified,
                report.min_eigenvalues and report.min_eigenvalues[0] > 0,
                f"min eigenvalue = {at_resolution(report.min_eigenvalues[0], report.tol):.3e}"
                if report.min_eigenvalues
                else "no positive state found",
                "not certified; no positivity claim to check",
            ),
        ]
        mixed_check = "hermitian_certified_implies_maximally_mixed"
        state, d = report.canonical_state, spec.dim
        if certified and all_herm and state is not None:
            dist = float(np.linalg.norm(state.mat - np.eye(d, dtype=complex) / d))
            report.consistency.append(
                ConsistencyCheck(
                    mixed_check,
                    dist <= MIXED_STATE_TOL,
                    f"||rho - I/d|| = {at_resolution(dist, report.tol):.3e}",
                )
            )
        else:
            report.consistency.append(
                ConsistencyCheck(
                    mixed_check, True, "premise absent: needs certification and Hermitian jumps"
                )
            )
        degenerate = [s.index for s in sectors if s.certified and s.kernel_dim != 1]
        report.consistency.append(
            _implication(
                "sector_certified_implies_unique_sector_kernel",
                report.per_sector is not None,
                not degenerate,
                "all certified sectors have one-dimensional kernels"
                if not degenerate
                else f"sectors {degenerate} certified with degenerate kernels",
                "no sector analysis",
            )
        )
    unmixed = [
        s.index
        for s in sectors
        if s.certified
        and (s.distance_to_mixed is None or s.distance_to_mixed > MIXED_STATE_TOL)
    ]
    report.consistency.append(
        _implication(
            "hermitian_certified_sectors_maximally_mixed",
            all_herm and report.per_sector is not None,
            not unmixed,
            "every certified sector state is maximally mixed"
            if not unmixed
            else f"sectors {unmixed} certified but not maximally mixed",
            "premise absent: needs Hermitian jumps and sector analysis",
        )
    )


@contextmanager
def _stage(name: str, timings: dict):
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"[{name}] {exc.args[0]}",) + exc.args[1:]
        raise
    finally:
        timings[name] = time.perf_counter() - t0


def _run_stages(
    spec: ModelSpec, stages, tol: float, max_basis: int | None = None, symmetry=None
) -> NessReport:
    """Run the named stages on one model, in pipeline order, into one report.

    The pipeline is closure, hermitian_path, commutant, sectors, kernel,
    consistency; ``stages`` names the ones to run. Each is timed under its
    name, and an error it raises has the name prefixed to its message.
    ``max_basis`` caps the closure; ``symmetry`` is the declared-symmetry
    entry (a name or an Operator) that the sectors stage analyses.
    """
    report = NessReport(tol=tol)
    pipeline = {
        "closure": partial(_closure_stage, report, spec, max_basis),
        "hermitian_path": partial(_hermitian_path_stage, report, spec),
        "commutant": partial(_commutant_stage, report, spec),
        "sectors": partial(_sectors_stage, report, spec, symmetry),
        "kernel": partial(_kernel_stage, report, spec),
        "consistency": partial(_consistency_stage, report, spec),
    }
    total0 = time.perf_counter()
    for name, fill in pipeline.items():
        if name in stages:
            with _stage(name, report.timings):
                fill()
    report.timings["total"] = time.perf_counter() - total0
    return report


def steady_states(spec: ModelSpec, tol: float = 1e-9) -> NessReport:
    """Solve the vectorized generator's kernel and extract density operators.

    The kernel basis is re-expressed in Hermitian form; a canonical
    trace-one state is the projection of I/d onto the kernel (for a unique
    steady state this is the state itself). The canonical state enters
    ``steady_states`` only when it passes the positivity check; a
    degenerate kernel is reported in full either way.
    """
    return _run_stages(spec, {"kernel"}, tol)


def per_sector_ness(spec: ModelSpec, S, tol: float = 1e-9) -> NessReport:
    """Sector-by-sector restricted analysis under a verified strong symmetry.

    Raises when S fails the commutation test: restricting a model to the
    eigenspaces of a non-symmetry produces numbers with no meaning.
    """
    report = _run_stages(spec, {"sectors", "consistency"}, tol, symmetry=S)
    check = report.symmetry_check
    if not check.ok:
        worst = max(check.commutator_norms, key=check.commutator_norms.get)
        raise ValueError(
            "not a strong symmetry: largest commutator "
            f"||[S, {worst}]|| = {check.commutator_norms[worst]:.3e}"
        )
    return report


def full_verdict(
    spec: ModelSpec, tol: float = 1e-9, max_basis: int | None = None
) -> NessReport:
    """Run the whole pipeline on one model and cross-check the pieces.

    Stages: generation certificate, Hermitian-jump shortcut, commutant test
    (advisory: it presumes a full-rank steady state exists), sector analysis
    under the first declared symmetry, numerical kernel solve, consistency
    checks. A declared symmetry that fails verification is recorded and its
    sector analysis skipped; it does not abort the rest. Errors inside a
    stage propagate with the stage name prefixed.
    """
    stages = {"closure", "hermitian_path", "commutant", "kernel", "consistency"}
    if not spec.declared_symmetries:
        return _run_stages(spec, stages, tol, max_basis)
    return _run_stages(
        spec, stages | {"sectors"}, tol, max_basis, spec.declared_symmetries[0]
    )


def kernel_invariance_diagnostic(
    spec: ModelSpec, rho: Operator, tol: float = 1e-9
) -> KernelInvarianceReport:
    """Check that the kernel of a stationary state is preserved dynamically.

    For a positive semidefinite stationary rho, every vector annihilated by
    rho must stay annihilated under the adjoint jump operators and under
    H + (i/2) sum_m L_m† L_m; this is the structural fact that lets a full
    operator algebra force strict positivity. The reported residuals are
    ||(1 - WW†) G W|| with W spanning the numerical kernel of rho
    (eigenvalues below tol). A full-rank state has an empty kernel and
    passes trivially.

    Raises ValueError when rho is not approximately stationary, Hermitian,
    and positive semidefinite; the diagnostic is meaningless otherwise.
    """
    if rho.dim != spec.dim:
        raise ValueError(f"rho has dim {rho.dim}, model has dim {spec.dim}")
    herm_defect = float(np.linalg.norm(rho.mat - rho.mat.conj().T))
    if herm_defect > STATIONARITY_TOL * (1.0 + rho.hs_norm()):
        raise ValueError(f"rho is not Hermitian: defect {herm_defect:.3e}")
    evals, evecs = np.linalg.eigh(0.5 * (rho.mat + rho.mat.conj().T))
    if evals[0] < -POSITIVITY_TOL:
        raise ValueError(f"rho is not positive semidefinite: {evals[0]:.3e}")
    ham, jumps = spec.operators()
    stat = float(
        np.linalg.norm(apply_matrices(ham.mat, [j.mat for j in jumps], rho.mat))
    )
    if stat > STATIONARITY_TOL * (1.0 + rho.hs_norm()):
        raise ValueError(f"rho is not stationary: residual {stat:.3e}")

    w = evecs[:, evals < tol]
    if w.shape[1] == 0:
        return KernelInvarianceReport(0, {}, 0.0, True, tol)
    proj_out = np.eye(spec.dim, dtype=complex) - w @ w.conj().T
    checks = [("K_adjoint", effective_hamiltonian(spec).dag().mat)]
    checks += [
        (f"{label}_dag", op.mat.conj().T)
        for (label, _), op in zip(spec.lindblad_ops, jumps)
    ]
    residuals = {}
    passed = True
    for name, mat in checks:
        r = float(np.linalg.norm(proj_out @ mat @ w))
        residuals[name] = r
        if r > tol * (1.0 + float(np.linalg.norm(mat))):
            passed = False
    return KernelInvarianceReport(
        kernel_dim=w.shape[1],
        residuals=residuals,
        max_residual=max(residuals.values()),
        passed=passed,
        tol=tol,
    )
