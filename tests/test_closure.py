import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindblad_certify import closure
from lindblad_certify.cli import run
from lindblad_certify.closure import (
    CERTIFIED_UNIQUE,
    INCONCLUSIVE,
    NOT_CERTIFIED,
    ClosureResult,
    CommutantResult,
    UniquenessCertificate,
    algebra_closure,
    certifier_generators,
    certify_uniqueness,
    commutant,
    restricted_closure,
    word_support,
)
from lindblad_certify.liouvillian import effective_hamiltonian, kernel_and_values
from lindblad_certify.modelspec import (
    MINUS,
    PLUS,
    X,
    Z,
    ModelSpec,
    PauliTerm,
    tfim_boundary_dephasing,
    tight_binding_dephasing,
    two_level_gain_loss,
    xyz_bulk_dephasing,
)
from lindblad_certify.opalg import PAULI_LETTERS, SINGLE_SITE, HSBasis, Operator
from lindblad_certify.symmetry import (
    parity_z_operator,
    sector_decompose,
    u1_number_operator,
)
from test_liouvillian import dense
from test_pauli import adjoint

SX = Operator(SINGLE_SITE[X])
SZ = Operator(SINGLE_SITE[Z])


def dephasing_qubit():
    """One site, no Hamiltonian, a single Hermitian jump Z."""
    return ModelSpec(1, [], [("L_z", [PauliTerm(1.0, [(1, Z)])])])


def xyz3():
    return xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0)


def tfim4():
    return tfim_boundary_dephasing(4, 1.0, 0.5)


def xyz4():
    return xyz_bulk_dephasing(4, 1.0, 0.5, 0.3, 0.7, 1.0)


def parity_witness():
    """An N=4 xyz chain that a closure with a drifting basis certified.

    Parity is a strong symmetry, so the algebra lies in the two sectors:
    4 sites, sectors of 8, at most 8² + 8² = 128 dimensions.
    """
    return xyz_bulk_dephasing(4, -0.77, 0.282, -0.177, 0.009, 0.656)


class TestAlgebraClosure:
    def test_two_paulis_generate_everything(self):
        res = algebra_closure([SX, SZ], 2)
        assert res.generated_dim == 4
        assert res.full_dim_target == 4
        assert res.is_full
        assert res.saturated
        # X, Z seed; XZ and XX land in round one, which reaches the full
        # dimension, so no confirming round is needed
        assert res.rounds == 1

    def test_single_z_stops_at_its_own_square(self, ratio_outside):
        res = algebra_closure([SZ], 2)
        assert res.generated_dim == 2
        assert not res.is_full
        assert res.saturated
        # the span must be {Z, I} exactly
        assert ratio_outside(res.basis, SZ) <= 1e-9
        assert ratio_outside(res.basis, Operator(np.eye(2))) <= 1e-9
        assert ratio_outside(res.basis, SX) > 1e-9

    def test_identity_is_not_seeded(self, ratio_outside):
        # a nilpotent generator: span{sigma+, sigma+^2=0} has dimension 1
        res = algebra_closure([Operator(SINGLE_SITE[PLUS])], 2)
        assert res.generated_dim == 1
        assert ratio_outside(res.basis, Operator(np.eye(2))) > 1e-9

    def test_zero_generators_span_nothing(self):
        res = algebra_closure([Operator(np.zeros((2, 2)))], 2)
        assert res.generated_dim == 0
        assert res.saturated

    def test_rejects_empty_and_mismatched_input(self):
        with pytest.raises(ValueError, match="empty"):
            algebra_closure([], 2)
        with pytest.raises(ValueError, match="dim"):
            algebra_closure([SZ], 4)
        with pytest.raises(TypeError):
            algebra_closure([np.eye(2)], 2)

    def test_cap_during_seeding_reports_unsaturated(self):
        gens = [SX, SZ, Operator(SINGLE_SITE[PLUS])]
        res = algebra_closure(gens, 2, max_basis=2)
        assert res.generated_dim == 2
        assert not res.saturated

    def test_margins_straddle_the_threshold(self):
        res = algebra_closure([SX, SZ], 2)
        assert res.min_accepted_ratio > res.tol_used
        # rejections in a clean Pauli closure are numerically zero products
        assert res.max_rejected_ratio < res.tol_used

    def test_repeat_runs_are_bit_identical(self):
        gens = certifier_generators(xyz3())
        a = algebra_closure(gens, 8)
        b = algebra_closure(gens, 8)
        assert a.generated_dim == b.generated_dim
        assert np.array_equal(a.basis.rows, b.basis.rows)


class TestCertifier:
    def test_effective_hamiltonian_hand_value(self):
        ham, jumps = two_level_gain_loss(0.8, 0.5, hx=0.3).operators()
        k = effective_hamiltonian(ham.mat, [j.mat for j in jumps])
        expected = 0.3 * SINGLE_SITE[X] - 0.5j * np.diag([0.5, 0.8])
        assert np.allclose(k, expected, atol=1e-14)

    def test_generators_are_k_then_the_jumps(self):
        spec = xyz3()
        ham, jumps = spec.operators()
        gens = certifier_generators(spec)
        assert np.array_equal(gens[0].mat, effective_hamiltonian(ham.mat, [j.mat for j in jumps]))
        assert gens[1:] == list(jumps)

    def test_two_level_gain_loss_is_certified(self):
        cert = certify_uniqueness(two_level_gain_loss(1.0, 1.0))
        assert cert.verdict == CERTIFIED_UNIQUE
        assert cert.closure.is_full

    def test_tfim_three_sites_is_certified(self):
        cert = certify_uniqueness(tfim_boundary_dephasing(3, 1.2, 0.8))
        assert cert.verdict == CERTIFIED_UNIQUE
        assert cert.closure.generated_dim == 64

    def test_dephasing_qubit_fails_and_kernel_agrees(self):
        spec = dephasing_qubit()
        cert = certify_uniqueness(spec)
        assert cert.verdict == NOT_CERTIFIED
        assert cert.closure.generated_dim == 2

        # independent oracle: for L(rho) = Z rho Z - rho the vectorized
        # generator is diag(0, -2, -2, 0), whose kernel is the diagonals
        lm = dense(spec)
        assert np.allclose(lm.matrix, np.diag([0.0, -2.0, -2.0, 0.0]))
        ker = kernel_and_values(lm)[0]
        assert ker.shape[1] == 2

    def test_xyz_ring_saturates_at_the_sector_bound(self):
        cert = certify_uniqueness(xyz3())
        assert cert.verdict == NOT_CERTIFIED
        # two parity sectors of dimension 4 each: 4^2 + 4^2
        assert cert.closure.generated_dim == 32
        assert cert.closure.saturated

    def test_small_cap_is_inconclusive_never_negative(self):
        cert = certify_uniqueness(tfim_boundary_dephasing(3, 1.2, 0.8), max_basis=10)
        assert cert.verdict == INCONCLUSIVE
        assert cert.closure.generated_dim == 10
        assert not cert.closure.saturated


class TestCommutant:
    def test_irreducible_pair_leaves_only_scalars(self, ratio_outside):
        res = commutant([SX, SZ], 2)
        assert res.commutant_dim == 1
        assert ratio_outside(res.basis, Operator(np.eye(2))) <= 1e-8

    def test_single_z_commutant_is_the_diagonals(self):
        res = commutant([SZ], 2)
        assert res.commutant_dim == 2
        for member in res.basis.vectors:
            off = member.mat - np.diag(np.diag(member.mat))
            assert np.linalg.norm(off) < 1e-10

    def test_scalar_generators_commute_with_everything(self):
        res = commutant([Operator(np.eye(3))], 3)
        assert res.commutant_dim == 9

    def test_xyz_commutant_is_spanned_by_identity_and_parity(self, ratio_outside):
        spec = xyz3()
        ham, jumps = spec.operators()
        gens = [ham] + jumps + [j.dag() for j in jumps]
        res = commutant(gens, 8)
        assert res.commutant_dim == 2
        assert ratio_outside(res.basis, Operator(np.eye(8))) <= 1e-8
        assert ratio_outside(res.basis, parity_z_operator(3)) <= 1e-8

    def test_rejects_empty_and_mismatched_input(self):
        with pytest.raises(ValueError, match="empty"):
            commutant([], 2)
        with pytest.raises(ValueError, match="dim"):
            commutant([SZ], 4)


def dense_commutant_projector(gens, d, tol=1e-9):
    """Projector onto the commutant, from a full SVD of the kron-built stack.

    The reference for ``commutant``: the same cutoff on the same stacked
    system, without the in-place fill or the QR. Acts on vec(X) in column
    stacking.
    """
    eye = np.eye(d)
    stacked = np.vstack([np.kron(eye, g.mat) - np.kron(g.mat.T, eye) for g in gens])
    _, svals, vh = np.linalg.svd(stacked)
    keep = np.ones(d * d, dtype=bool) if svals[0] == 0 else svals < tol * svals[0]
    null = vh[keep].conj().T
    return null @ null.conj().T


def planted_generators(rng, blocks, count):
    """``count`` random operators, block diagonal in one random unitary basis.

    Generic blocks are irreducible and pairwise inequivalent, so the
    commutant is one scalar per block: its dimension is ``len(blocks)``.
    """
    d = sum(blocks)
    unitary, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    gens = []
    for _ in range(count):
        mat = np.zeros((d, d), dtype=complex)
        start = 0
        for size in blocks:
            mat[start : start + size, start : start + size] = rng.normal(
                size=(size, size)
            ) + 1j * rng.normal(size=(size, size))
            start += size
        gens.append(Operator(unitary @ mat @ unitary.conj().T))
    return gens


class TestCommutantAgainstDenseSvd:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "blocks, expected_dim", [((6,), 1), ((2, 4), 2), ((1, 1, 2, 2), 4)]
    )
    def test_planted_blocks(self, blocks, expected_dim, seed):
        gens = planted_generators(np.random.default_rng(seed), blocks, count=3)
        self.assert_matches_reference(gens, 6, expected_dim)

    def test_identity_only_generators(self):
        gens = [Operator(np.eye(3)), Operator(2.5 * np.eye(3))]
        self.assert_matches_reference(gens, 3, 9)

    def test_single_generator(self):
        # a generic matrix commutes only with its polynomials: dimension d
        gens = planted_generators(np.random.default_rng(7), (5,), count=1)
        self.assert_matches_reference(gens, 5, 5)

    @staticmethod
    def assert_matches_reference(gens, d, expected_dim):
        res = commutant(gens, d)
        reference = dense_commutant_projector(gens, d)
        assert res.commutant_dim == expected_dim
        assert round(np.trace(reference).real) == expected_dim
        vecs = np.array([m.mat.ravel(order="F") for m in res.basis.vectors]).T
        assert np.abs(vecs @ vecs.conj().T - reference).max() <= 1e-10

    def test_peak_memory_stays_within_twice_the_stack(self):
        # the stacked system for {H, L_m, L_m†} of xyz N=4 is 2304 x 256
        # complex entries (9 MiB); a U factor of it (2304², 81 MiB) or a
        # second copy of the stack would break the bound
        ham, jumps = xyz_bulk_dephasing(4, 1.0, 0.5, 0.3, 0.7, 1.0).operators()
        gens = [ham] + jumps + [j.dag() for j in jumps]
        stack_bytes = len(gens) * 16**4 * 16
        tracemalloc.start()
        try:
            res = commutant(gens, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.commutant_dim == 2
        assert peak <= 2 * stack_bytes


class TestRestrictedClosure:
    def test_xyz_certifies_inside_each_parity_sector(self):
        spec = xyz3()
        sectors = sector_decompose(parity_z_operator(3))
        assert sectors.dims == [4, 4]
        results = restricted_closure(certifier_generators(spec), sectors)
        assert [r.generated_dim for r in results] == [16, 16]
        assert all(r.is_full and r.saturated for r in results)

    def test_tight_binding_certifies_every_number_sector(self):
        spec = tight_binding_dephasing(4, 1.0, 0.3, 1.0)
        sectors = sector_decompose(u1_number_operator(4))
        assert sectors.dims == [1, 4, 6, 4, 1]
        results = restricted_closure(certifier_generators(spec), sectors)
        assert [r.generated_dim for r in results] == [1, 16, 36, 16, 1]
        assert all(r.is_full for r in results)

    def test_zero_shift_breaks_only_the_vacuum_sector(self):
        spec = tight_binding_dephasing(4, 1.0, 0.0, 1.0)
        sectors = sector_decompose(u1_number_operator(4))
        results = restricted_closure(certifier_generators(spec), sectors)
        dims = [r.generated_dim for r in results]
        # every generator annihilates the vacuum, so its sector spans nothing
        assert dims[0] == 0
        assert dims[1:] == [16, 36, 16, 1]

    def test_noncommuting_generator_is_named(self):
        sectors = sector_decompose(SZ)
        with pytest.raises(ValueError, match=r"generator 1 does not commute"):
            restricted_closure([SZ, SX], sectors)


class TestInvariants:
    def test_closure_is_idempotent(self):
        first = algebra_closure(certifier_generators(xyz3()), 8)
        again = algebra_closure(first.basis.vectors, 8)
        assert again.generated_dim == first.generated_dim
        assert again.saturated
        assert again.rounds <= 1

    def test_result_span_is_product_closed(self):
        res = algebra_closure(certifier_generators(xyz3()), 8)
        mats = [res.basis.matrix_at(i) for i in range(len(res.basis))]
        prods = np.array([(a @ b).ravel() for a in mats for b in mats])
        # the basis accepts none of its own products at 10x the tolerance
        assert res.basis.extend_block(prods, 10 * res.tol_used)[0] == []

    def test_more_generators_never_shrink_the_span(self, ratio_outside):
        spec = xyz3()
        gens = certifier_generators(spec)
        small = algebra_closure(gens[:1], 8)
        big = algebra_closure(gens, 8)
        assert small.generated_dim <= big.generated_dim
        for member in small.basis.vectors:
            assert ratio_outside(big.basis, member) <= 1e-8

    @pytest.mark.parametrize("scale", [2j, 1e3, 1e-3])
    def test_generator_rescaling_is_invisible(self, scale):
        gens = certifier_generators(xyz_bulk_dephasing(2, 1.0, 0.5, 0.3, 0.7, 1.0))
        base = algebra_closure(gens, 4)
        scaled = algebra_closure([Operator(scale * g.mat) for g in gens], 4)
        assert scaled.generated_dim == base.generated_dim

    def test_adjoint_closed_sets_full_iff_commutant_trivial(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        random_pair = [Operator(h + h.conj().T), Operator(1j * (h - h.conj().T))]
        spec = xyz3()
        ham, jumps = spec.operators()
        star_closed_sets = [
            ([SX, SZ], 2),
            ([SZ], 2),
            ([ham] + jumps + [j.dag() for j in jumps], 8),
            (random_pair, 3),
        ]
        for gens, d in star_closed_sets:
            full = algebra_closure(gens, d).is_full
            trivial = commutant(gens, d).commutant_dim == 1
            assert full == trivial


class TestStreamedClosure:
    @pytest.mark.parametrize("build", [tfim4, parity_witness], ids=["tfim4", "witness"])
    def test_basis_stays_orthonormal(self, build):
        res = certify_uniqueness(build()).closure
        gram = res.basis.gram()
        assert np.abs(gram - np.eye(len(gram))).max() <= 1e-12

    def test_witness_stops_at_the_parity_sector_bound(self):
        cert = certify_uniqueness(parity_witness())
        assert cert.verdict == NOT_CERTIFIED
        assert cert.closure.generated_dim == 128
        assert cert.closure.saturated

    @pytest.mark.parametrize("build", [tfim4, xyz4], ids=["tfim4", "xyz4"])
    def test_block_size_does_not_change_the_answer(self, build, monkeypatch):
        spec = build()
        answers = []
        for chunk in (16, closure.CHUNK, 10**6):
            monkeypatch.setattr(closure, "CHUNK", chunk)
            cert = certify_uniqueness(spec)
            answers.append((cert.verdict, cert.closure.generated_dim, cert.closure.rounds))
        assert answers[0] == answers[1] == answers[2]

    def test_products_arrive_in_blocks_of_at_most_chunk_rows(self, monkeypatch):
        sizes = []
        original = HSBasis.extend_block

        def spy(self, cands, tol, max_rows=None):
            sizes.append(len(cands))
            return original(self, cands, tol, max_rows)

        monkeypatch.setattr(HSBasis, "extend_block", spy)
        gens = certifier_generators(tfim4())
        res = algebra_closure(gens, 16)
        assert res.is_full
        # the first block is the generators; every later one is products
        assert sizes[0] == len(gens)
        assert max(sizes[1:]) == closure.CHUNK
        assert len(sizes) > res.rounds + 1

    def test_cap_reached_mid_round_stops_the_round(self, monkeypatch):
        sizes_after = []
        original = HSBasis.extend_block

        def spy(self, cands, tol, max_rows=None):
            result = original(self, cands, tol, max_rows)
            sizes_after.append(len(self))
            return result

        monkeypatch.setattr(HSBasis, "extend_block", spy)
        res = algebra_closure(certifier_generators(xyz4()), 16, max_basis=40)
        assert res.generated_dim == 40
        assert not res.saturated
        # no block is formed once the basis is at the cap
        assert sizes_after[-1] == 40
        assert max(sizes_after[:-1]) < 40


def words_rank(gen_mats, support, threshold=1e-7):
    """Dimension of the span of all words, by dense SVDs on all d² entries.

    Level k holds words of length k; a word is kept when it raises the SVD
    rank of the kept words, so the kept words always span every word of
    length at most k. Once a level keeps nothing, longer words add nothing.
    Every word formed is checked to vanish outside ``support``.
    """
    kept = np.zeros((0, gen_mats[0].size), dtype=complex)
    level = list(gen_mats)
    while level:
        fresh = []
        for word in level:
            assert not word[~support].any()
            stack = np.vstack([kept, word.ravel()])
            svals = np.linalg.svd(stack, compute_uv=False)
            if np.sum(svals > threshold) > len(kept):
                unit = word / np.linalg.norm(word)
                kept = np.vstack([kept, unit.ravel()])
                fresh.append(unit)
        level = [g @ w for g in gen_mats for w in fresh]
    return len(kept)


COEFFS = (1.0, -1.0, 0.5, 2.0, 1.5, 1j, -0.5j)


@st.composite
def sparse_terms(draw, n_sites, max_terms):
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        sites = draw(st.sets(st.integers(1, n_sites), min_size=1, max_size=n_sites))
        factors = [(s, draw(st.sampled_from(PAULI_LETTERS))) for s in sorted(sites)]
        terms.append(PauliTerm(draw(st.sampled_from(COEFFS)), factors))
    return terms


@st.composite
def sparse_models(draw):
    n_sites = draw(st.integers(1, 2))
    # H is written as terms plus their adjoints: ModelSpec takes a Hermitian H only
    ham = draw(sparse_terms(n_sites, 3)) if draw(st.booleans()) else []
    ham += [adjoint(t) for t in ham]
    jumps = [(f"L{m}", draw(sparse_terms(n_sites, 2))) for m in range(draw(st.integers(1, 2)))]
    return ModelSpec(n_sites, ham, jumps)


class TestWordSupport:
    @pytest.mark.parametrize(
        "build, size",
        [
            (xyz3, 32),
            (lambda: tight_binding_dephasing(3, 1.0, 0.3, 0.5), 20),
            (lambda: tfim_boundary_dephasing(3, 1.0, 0.5), 64),
        ],
        ids=["xyz", "tight_binding", "tfim"],
    )
    def test_support_size_at_three_sites(self, build, size):
        res = certify_uniqueness(build()).closure
        assert res.basis.support.sum() == size
        assert res.full_dim_target == 64

    @pytest.mark.parametrize("build", [xyz3, parity_witness], ids=["xyz3", "witness"])
    def test_rows_and_products_vanish_outside_the_support(self, build):
        gens = [g.mat for g in certifier_generators(build())]
        d = len(gens[0])
        res = algebra_closure([Operator(g) for g in gens], d)
        outside = ~res.basis.support
        assert outside.any()
        assert not res.basis.rows[:, outside.ravel()].any()
        for b in (res.basis.matrix_at(i) for i in range(len(res.basis))):
            for g in gens:
                assert not (g @ b)[outside].any() and not (b @ g)[outside].any()

    def test_support_is_the_union_of_word_patterns(self):
        a = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        b = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
        # words: a, b, ab (entry (0, 2)); ba = a² = b² = 0
        expected = np.zeros((3, 3), dtype=bool)
        expected[0, 1] = expected[1, 2] = expected[0, 2] = True
        assert np.array_equal(word_support([a, b]), expected)

    def test_all_zero_model_spans_nothing(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "n_sites": 2,
            "hamiltonian": [],
            "lindblad": [{"label": "L", "terms": [
                {"coeff": [0, 0], "factors": [{"site": 1, "op": "X"}]}]}],
        }))
        assert run(["check", "--model", str(path)]) == 0
        out = capsys.readouterr().out
        assert "generated 0 of 16 dimensions in 0 round(s), saturated" in out
        assert "min accepted ratio n/a, max rejected ratio n/a" in out

    @given(sparse_models())
    @settings(max_examples=60, deadline=None)
    def test_generated_dim_is_the_rank_of_the_words(self, spec):
        gens = certifier_generators(spec)
        res = algebra_closure(gens, spec.dim)
        support = word_support([g.mat for g in gens])
        assert np.array_equal(res.basis.support, support)
        assert res.generated_dim == words_rank([g.mat for g in gens], support)
