"""Operator-algebra closure: the decidable core of the uniqueness criterion.

The certificate rests on one algebraic fact: when the effective Hamiltonian
K = H - (i/2) sum_m L_m† L_m together with the jump operators generates the
whole matrix algebra under multiplication, addition, and scalar
multiplication, the steady state is unique and has full rank. Generation is
decided by an explicit span closure: seed an orthonormal basis with the
generators, then repeatedly multiply basis elements by generators from both
sides and keep whatever sticks out of the current span. Every word
g_{i1} ... g_{ik} is reachable this way, because any word arises from a
shorter word by one left or right multiplication, and taking spans commutes
with appending letters to words.

The identity is deliberately NOT seeded: a generator set need not produce
it, and whether it does can carry physical content (an identity shift of H
changes the generated algebra without touching the dynamics).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .modelspec import ModelSpec
from .opalg import HSBasis, Operator
from .symmetry import SectorDecomposition, _commutator

CERTIFIED_UNIQUE = "certified_unique"
NOT_CERTIFIED = "not_certified"
INCONCLUSIVE = "inconclusive"

DEFAULT_TOL = 1e-9

# the closure forms its products this many rows at a time, and hands each
# block to HSBasis.extend_block before it forms the next
CHUNK = 64


@dataclass
class ClosureResult:
    """What the span closure found.

    ``saturated`` means a full further round would add nothing; when False
    the cap stopped the iteration and generated_dim is only a lower bound.
    The two residual margins record how decisively candidates cleared or
    missed the acceptance threshold, i.e. the numerical distance between
    this run and a different rank decision.
    """

    generated_dim: int
    full_dim_target: int
    rounds: int
    saturated: bool
    basis: HSBasis
    tol_used: float
    min_accepted_ratio: float | None = None
    max_rejected_ratio: float | None = None

    @property
    def is_full(self) -> bool:
        return self.generated_dim == self.full_dim_target


def algebra_closure(
    generators,
    d: int,
    tol: float = DEFAULT_TOL,
    max_basis: int | None = None,
) -> ClosureResult:
    """Span of all words in the generators, by round-based expansion.

    Each round multiplies every basis element accepted in the previous round
    by every generator, from both sides, in a fixed deterministic order
    (generator-major, then basis-index, left product before right). Stops at
    saturation, at the full dimension d², or at max_basis; only the last of
    these leaves ``saturated`` False.

    A round's products are streamed: they are formed CHUNK at a time, in
    that order, and each block goes to HSBasis.extend_block before the next
    is formed, so memory holds one block rather than the whole round. A
    product is projected against every row accepted before it, in earlier
    blocks of the same round too, exactly as if the round were one block.
    The round stops as soon as the basis reaches the cap.

    Before the first round the support of the words is fixed (see
    word_support), and the basis stores, normalises and projects only those
    entries. Every product is an exact 0.0 outside them, so the closure
    sees the same candidates and takes the same decisions; inner products
    just skip the zeros. Models with a strong symmetry diagonal in the
    computational basis (parity, particle number) have half or fewer of
    the d² entries in the support; without one it is all of them, and the
    run is the unrestricted one.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("generator list is empty")
    for g in gens:
        if not isinstance(g, Operator):
            raise TypeError(f"generators must be Operators, got {type(g).__name__}")
        if g.dim != d:
            raise ValueError(f"generator has dim {g.dim}, expected {d}")
    full = d * d
    cap = full if max_basis is None else min(int(max_basis), full)
    if cap < 1:
        raise ValueError("max_basis must allow at least one vector")

    gen_mats = [g.mat for g in gens]
    basis = HSBasis(d, word_support(gen_mats))
    min_accepted = None
    max_rejected = None

    def record(accepted_positions, ratios):
        nonlocal min_accepted, max_rejected
        for pos, ratio in enumerate(ratios):
            if np.isnan(ratio):
                continue
            if pos in accepted_positions:
                if min_accepted is None or ratio < min_accepted:
                    min_accepted = float(ratio)
            elif ratio > 0:
                if max_rejected is None or ratio > max_rejected:
                    max_rejected = float(ratio)

    seed_block = np.array([g.mat.ravel() for g in gens])
    accepted, ratios, _ = basis.extend_block(seed_block, tol, max_rows=cap)
    record(set(accepted), ratios)
    frontier = list(range(len(basis)))
    rounds = 0

    while frontier and len(basis) < cap:
        rounds += 1
        before = len(basis)
        pairs = _factor_pairs(gen_mats, basis, frontier)
        block = np.empty((min(CHUNK, 2 * len(gen_mats) * len(frontier)), full), dtype=complex)
        while len(basis) < cap:
            rows = 0
            for left, right in itertools.islice(pairs, len(block)):
                np.matmul(left, right, out=block[rows].reshape(d, d))
                rows += 1
            if not rows:
                break
            accepted, ratios, _ = basis.extend_block(block[:rows], tol, max_rows=cap)
            record(set(accepted), ratios)
        frontier = list(range(before, len(basis)))

    # a basis that reached a cap below d² is a lower bound, not saturation
    saturated = len(basis) == full or (not frontier and len(basis) < cap)
    return ClosureResult(
        generated_dim=len(basis),
        full_dim_target=full,
        rounds=rounds,
        saturated=saturated,
        basis=basis,
        tol_used=tol,
        min_accepted_ratio=min_accepted,
        max_rejected_ratio=max_rejected,
    )


def word_support(gen_mats) -> np.ndarray:
    """The d x d mask of entries at which some word in the generators can be nonzero.

    Entry (i, j) of a word g_1 ... g_k sums products along index paths
    i -> a_1 -> ... -> j whose every step is a nonzero entry of a
    generator. So the support of all words, the closure of the generators'
    nonzero patterns under P <- P ∪ G∘P ∪ P∘G, is the set of pairs joined by
    a path of length at least 1 in the graph of their union: its transitive
    closure, found by squaring the boolean matrix until it stops growing.
    No tolerance enters; outside the mask every word is an exact zero.
    """
    reach = np.zeros(gen_mats[0].shape, dtype=bool)
    for gmat in gen_mats:
        reach |= gmat != 0
    while True:
        # path counts are at most d, so the float product is exact
        step = reach.astype(float)
        grown = reach | (step @ step > 0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _factor_pairs(gen_mats, basis: HSBasis, frontier):
    """A round's products as (left, right) factors, in closure order."""
    for gmat in gen_mats:
        for idx in frontier:
            bmat = basis.matrix_at(idx)
            yield gmat, bmat
            yield bmat, gmat


def effective_hamiltonian(spec: ModelSpec) -> Operator:
    """K = H - (i/2) sum_m L_m† L_m."""
    ham, jumps = spec.operators()
    total = np.zeros((spec.dim, spec.dim), dtype=complex)
    for jump in jumps:
        total += jump.mat.conj().T @ jump.mat
    return Operator(ham.mat - 0.5j * total)


def certifier_generators(spec: ModelSpec):
    """The generator set the certificate closes over: {K, L_1, ..., L_M}."""
    _, jumps = spec.operators()
    return [effective_hamiltonian(spec)] + list(jumps)


@dataclass
class UniquenessCertificate:
    """Verdict plus the closure run that produced it.

    The verdict is one-sided: ``not_certified`` says the sufficient
    condition failed, not that the steady state is degenerate.
    """

    verdict: str
    closure: ClosureResult


def certify_uniqueness(
    spec: ModelSpec,
    tol: float = DEFAULT_TOL,
    max_basis: int | None = None,
) -> UniquenessCertificate:
    """Decide the generation criterion for a model.

    certified_unique when {K, L_m} generates the full d²-dimensional
    algebra; not_certified when the closure saturates short of it;
    inconclusive when max_basis stopped the iteration first.
    """
    closure = algebra_closure(
        certifier_generators(spec), spec.dim, tol=tol, max_basis=max_basis
    )
    if closure.is_full:
        verdict = CERTIFIED_UNIQUE
    elif closure.saturated:
        verdict = NOT_CERTIFIED
    else:
        verdict = INCONCLUSIVE
    return UniquenessCertificate(verdict=verdict, closure=closure)


@dataclass
class CommutantResult:
    """Dimension and basis of the commutant of a generator set."""

    commutant_dim: int
    basis: HSBasis


def commutant(generators, d: int, tol: float = DEFAULT_TOL) -> CommutantResult:
    """Everything commuting with all generators, via one stacked null space.

    [X, G] = 0 for all G is a linear condition on vec(X); the stacked
    matrix has a singular-value gap at the commutant dimension. The caller
    applying the positive-definite-steady-state uniqueness test (Frigerio)
    must include adjoints in the generator list; this function does not add
    them.

    The stack is (n_gen d²) x d² and only its singular values and right
    vectors are needed. They are those of its d² x d² R factor, so the stack
    is QR-factorised in place and only R goes through the SVD; neither U nor
    a Gram matrix (which would square the cutoff) is ever formed.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("generator list is empty")
    for g in gens:
        if g.dim != d:
            raise ValueError(f"generator has dim {g.dim}, expected {d}")
    d2 = d * d
    diag = np.arange(d)
    # Block k is I ⊗ G_k - G_kᵀ ⊗ I, the map vec(X) -> vec([G_k, X]) for
    # column stacking, written in place: as a (d, d, d, d) view its entry
    # [a, i, b, j] is δ_ab G[i, j] - δ_ij G[b, a]. Fortran order lets the QR
    # overwrite the stack instead of copying it.
    stacked = np.zeros((len(gens) * d2, d2), dtype=complex, order="F")
    for k, g in enumerate(gens):
        block = stacked[k * d2 : (k + 1) * d2].reshape(d, d, d, d)
        block[diag, :, diag, :] = g.mat
        block[:, diag, :, diag] -= g.mat.T
    # raw mode returns ((qr, tau), triu(qr[:d²])); the stack, now holding
    # the Householder vectors, is freed before the SVD
    r = scipy.linalg.qr(stacked, mode="raw", overwrite_a=True, check_finite=False)[1]
    del stacked
    _, svals, vh = np.linalg.svd(r)
    smax = float(svals[0])
    if smax == 0.0:
        # all generators are multiples of the identity
        mask = np.ones(d2, dtype=bool)
    else:
        mask = svals < tol * smax
    # the kron identities hold for column stacking, so unvec is F-order
    members = [
        Operator(vh[i].conj().reshape(d, d, order="F"))
        for i in np.nonzero(mask)[0]
    ]
    basis = HSBasis.from_orthonormal(members) if members else HSBasis(d)
    return CommutantResult(commutant_dim=len(members), basis=basis)


def restricted_closure(
    generators,
    sectors: SectorDecomposition,
    tol: float = DEFAULT_TOL,
):
    """Run the span closure inside each symmetry sector.

    All generators must commute with the sector unitary; restriction to an
    eigenspace is then an algebra morphism, so a sector closure reaching
    d_a² certifies generation of the full algebra on that sector. Returns
    one ClosureResult per sector, in sector order.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("generator list is empty")
    for pos, g in enumerate(gens):
        comm, ok = _commutator(sectors.unitary.mat, g.mat, tol)
        if not ok:
            raise ValueError(
                f"generator {pos} does not commute with the symmetry: "
                f"||[S, G]|| = {comm:.3e}"
            )
    blocks = [sectors.restrict(g.mat) for g in gens]
    return [
        algebra_closure([Operator(b[a]) for b in blocks], d_a, tol=tol, max_basis=None)
        for a, d_a in enumerate(sectors.dims)
    ]
