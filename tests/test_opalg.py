import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindblad_certify.opalg import (
    HSBasis,
    Operator,
    PauliTerm,
    SINGLE_SITE,
    at_resolution,
    hs_inner,
    jordan_wigner,
    pauli_to_operator,
)


def random_operator(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator(m)


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))

    def test_immutable(self):
        op = Operator(np.eye(2))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    def test_dag_and_trace(self):
        op = Operator([[1, 2j], [0, -1]])
        assert np.allclose(op.dag().mat, [[1, 0], [-2j, -1]])
        assert op.trace() == 0

    def test_predicates(self):
        sx = Operator(SINGLE_SITE["X"])
        assert sx.is_hermitian(1e-14)
        assert sx.is_unitary(1e-14)
        assert not sx.is_positive_semidefinite(1e-14)
        proj = Operator([[1, 0], [0, 0]])
        assert proj.is_positive_semidefinite(1e-14)
        assert not Operator(SINGLE_SITE["+"]).is_hermitian(1e-14)

    def test_arithmetic(self):
        a = Operator([[0, 1], [1, 0]])
        b = Operator([[1, 0], [0, -1]])
        assert np.allclose((a @ b).mat, [[0, -1], [1, 0]])
        assert np.allclose((a + b).mat, [[1, 1], [1, -1]])
        assert np.allclose((2j * a).mat, [[0, 2j], [2j, 0]])
        assert np.allclose((a / 2).mat, [[0, 0.5], [0.5, 0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Operator(np.eye(2)) @ Operator(np.eye(4))


class TestAtResolution:
    def test_roundoff_becomes_an_exact_positive_zero(self):
        # quantum 1e-12 at tol 1e-9
        assert str(at_resolution(-4e-13, 1e-9)) == "0.0"
        assert at_resolution(6e-13, 1e-9) == pytest.approx(1e-12, rel=1e-12)
        assert at_resolution(0.0625 + 3e-16, 1e-9) == at_resolution(0.0625 - 3e-16, 1e-9)
        assert at_resolution(0.0625 + 3e-16, 1e-9) == pytest.approx(0.0625, rel=1e-15)

    def test_scale_sets_the_quantum(self):
        assert at_resolution(4e-10, 1e-9, scale=1000.0) == 0.0
        assert at_resolution(4e-10, 1e-9) == pytest.approx(4e-10, rel=1e-9)

    def test_complex_parts_arrays_operators_and_lists(self):
        z = at_resolution(complex(0.5, -1e-17), 1e-9)
        assert isinstance(z, complex) and z.imag == 0.0 and z.real == pytest.approx(0.5)
        arr = at_resolution(Operator(np.diag([0.25, 1e-15])), 1e-9)
        assert isinstance(arr, np.ndarray)
        assert arr[0, 0] == pytest.approx(0.25, rel=1e-15)
        assert arr[0, 1] == arr[1, 0] == arr[1, 1] == 0.0
        assert at_resolution([1e-14, None], 1e-9) == [0.0, None]
        assert at_resolution(None, 1e-9) is None

    def test_zero_quantum_leaves_values_alone(self):
        assert at_resolution(1e-17, 1e-9, scale=0.0) == 1e-17


class TestHSInner:
    def test_known_values(self):
        ident = Operator.identity(2)
        sx = Operator(SINGLE_SITE["X"])
        sy = Operator(SINGLE_SITE["Y"])
        sz = Operator(SINGLE_SITE["Z"])
        assert hs_inner(ident, ident) == pytest.approx(2)
        assert hs_inner(sx, sy) == pytest.approx(0)
        assert hs_inner(sz, sz) == pytest.approx(2)

    def test_identity_norm_unnormalized(self):
        assert Operator.identity(8).hs_norm() == pytest.approx(np.sqrt(8))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry_and_positivity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 3)
        b = random_operator(rng, 3)
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))
        norm_sq = hs_inner(a, a)
        assert norm_sq.imag == pytest.approx(0, abs=1e-12)
        assert norm_sq.real >= 0


class TestPauliTerm:
    def test_validates_letters(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, [(1, "Q")])

    def test_requires_increasing_sites(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, [(2, "X"), (1, "Z")])
        with pytest.raises(ValueError):
            PauliTerm(1.0, [(1, "X"), (1, "Z")])

    def test_empty_factors_is_identity_multiple(self):
        op = pauli_to_operator([PauliTerm(3.5)], 2)
        assert np.allclose(op.mat, 3.5 * np.eye(4))


class TestPauliToOperator:
    def test_single_site(self):
        op = pauli_to_operator([PauliTerm(1.0, [(1, "Z")])], 1)
        assert np.array_equal(op.mat, np.diag([1.0 + 0j, -1.0]))

    def test_raising_is_up_from_down(self):
        # spin-up is index 0, so "+" must be |0><1|
        op = pauli_to_operator([PauliTerm(1.0, [(1, "+")])], 1)
        assert np.array_equal(op.mat, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_site_one_is_fastest_varying(self):
        # Z on site 1 of two sites: diag(+1,-1,+1,-1) in little-endian order
        op = pauli_to_operator([PauliTerm(1.0, [(1, "Z")])], 2)
        assert np.array_equal(np.diag(op.mat).real, [1, -1, 1, -1])
        op2 = pauli_to_operator([PauliTerm(1.0, [(2, "Z")])], 2)
        assert np.array_equal(np.diag(op2.mat).real, [1, 1, -1, -1])

    def test_two_site_product_matches_kron(self):
        op = pauli_to_operator([PauliTerm(1.0, [(1, "X"), (2, "X")])], 2)
        assert np.array_equal(op.mat, np.kron(SINGLE_SITE["X"], SINGLE_SITE["X"]))

    def test_sum_of_terms(self):
        terms = [PauliTerm(2.0, [(1, "Z")]), PauliTerm(-1.0, [(2, "Z")])]
        op = pauli_to_operator(terms, 2)
        assert np.array_equal(np.diag(op.mat).real, [1, -3, 3, -1])

    def test_out_of_range_site(self):
        with pytest.raises(ValueError, match="site 3"):
            pauli_to_operator([PauliTerm(1.0, [(3, "X")])], 2)

    def test_empty_terms_is_zero(self):
        assert pauli_to_operator([], 2).hs_norm() == 0

    def test_disjoint_support_factorizes(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t1 = PauliTerm(c1, [(1, "X")])
            t2 = PauliTerm(c2, [(3, "Y")])
            joint = pauli_to_operator([PauliTerm(c1 * c2, [(1, "X"), (3, "Y")])], 3)
            a = pauli_to_operator([t1], 3)
            b = pauli_to_operator([t2], 3)
            assert np.allclose(joint.mat, (a @ b).mat)
            assert np.allclose(joint.mat, (b @ a).mat)


class TestJordanWigner:
    def test_number_operator_single_site(self):
        n_op = jordan_wigner(1, "number", 1)
        assert np.array_equal(n_op.mat, np.diag([0.0 + 0j, 1.0]))

    def test_car_exact(self):
        # anticommutation relations hold with exactly representable entries,
        # so the comparisons below are exact, no tolerance
        n = 3
        d = 2**n
        ann = [jordan_wigner(j, "annihilate", n).mat for j in range(1, n + 1)]
        cre = [jordan_wigner(j, "create", n).mat for j in range(1, n + 1)]
        zero = np.zeros((d, d), dtype=complex)
        for j in range(n):
            for k in range(n):
                assert np.array_equal(ann[j] @ ann[k] + ann[k] @ ann[j], zero)
                expected = np.eye(d, dtype=complex) if j == k else zero
                assert np.array_equal(ann[j] @ cre[k] + cre[k] @ ann[j], expected)

    def test_create_is_adjoint_of_annihilate(self):
        a = jordan_wigner(2, "annihilate", 3)
        c = jordan_wigner(2, "create", 3)
        assert np.array_equal(a.dag().mat, c.mat)

    def test_number_is_cdag_c(self):
        a = jordan_wigner(2, "annihilate", 3)
        c = jordan_wigner(2, "create", 3)
        n_op = jordan_wigner(2, "number", 3)
        assert np.array_equal((c @ a).mat, n_op.mat)

    def test_number_counts_basis_index_bits(self):
        total = sum(
            jordan_wigner(j, "number", 3).mat.diagonal().real for j in range(1, 4)
        )
        expected = [bin(i).count("1") for i in range(8)]
        assert np.array_equal(total, expected)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            jordan_wigner(4, "annihilate", 3)
        with pytest.raises(ValueError):
            jordan_wigner(1, "destroy", 3)


class TestHSBasis:
    def test_extend_accepts_new_directions(self):
        basis = HSBasis(2)
        # identity, then 5 x identity (dependent, rejected), then Z
        cands = np.array([np.eye(2).ravel(), 5.0 * np.eye(2).ravel(), SINGLE_SITE["Z"].ravel()])
        accepted, _, _ = basis.extend_block(cands, 1e-9)
        assert accepted == [0, 2]
        assert len(basis) == 2

    def test_appended_vector_is_residual_not_candidate(self):
        basis = HSBasis(2)
        # candidate = I + Z after I; only the Z part is new
        cands = np.array([np.eye(2).ravel(), (np.eye(2) + SINGLE_SITE["Z"]).ravel()])
        basis.extend_block(cands, 1e-9)
        appended = basis.vectors[1]
        assert abs(hs_inner(Operator.identity(2), appended)) < 1e-12
        assert appended.hs_norm() == pytest.approx(1.0)

    def test_full_basis_rejects_everything(self, ratio_outside):
        rng = np.random.default_rng(3)
        basis = HSBasis(2)
        basis.extend_block(np.array([random_operator(rng, 2).mat.ravel() for _ in range(4)]), 1e-9)
        assert len(basis) == 4
        for _ in range(10):
            assert ratio_outside(basis, random_operator(rng, 2)) <= 1e-9

    def test_gram_stays_identity(self):
        rng = np.random.default_rng(11)
        d = 4
        basis = HSBasis(d)
        for _ in range(40):
            basis.extend_block(random_operator(rng, d).mat.reshape(1, -1), 1e-9)
        assert len(basis) == d * d
        gram = basis.gram()
        assert np.linalg.norm(gram - np.eye(d * d)) < 1e-12

    def test_zero_candidate_rejected(self):
        basis = HSBasis(2)
        accepted, ratios, _ = basis.extend_block(np.zeros((1, 4)), 1e-9)
        assert accepted == [] and ratios[0] == 0.0
        assert len(basis) == 0

    def test_near_duplicate_rejected_at_tolerance(self, ratio_outside):
        basis = HSBasis.from_orthonormal([Operator(np.eye(2) / np.sqrt(2))])
        perturbed = Operator(np.eye(2) * (1 + 1e-13))
        assert ratio_outside(basis, perturbed) <= 1e-9

    def test_nonfinite_candidate_errors(self):
        basis = HSBasis(2)
        bad = np.eye(2)
        bad = bad.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            basis.extend_block(bad.reshape(1, -1), 1e-9)
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            basis.extend_block(bad.reshape(1, -1), 1e-9)

    def test_dimension_mismatch(self):
        basis = HSBasis(2)
        with pytest.raises(ValueError, match="wrong shape"):
            basis.extend_block(np.eye(4).reshape(1, -1), 1e-9)

    def test_from_orthonormal_trusts_input(self):
        sz = Operator(SINGLE_SITE["Z"] / np.sqrt(2))
        ident = Operator(np.eye(2) / np.sqrt(2))
        basis = HSBasis.from_orthonormal([ident, sz])
        assert len(basis) == 2
        assert np.linalg.norm(basis.gram() - np.eye(2)) < 1e-14

    def test_contains_and_residual(self, ratio_outside):
        basis = HSBasis.from_orthonormal([Operator(np.eye(2) / np.sqrt(2))])
        # inside the span: the ratio is roundoff, so the copy refuses it
        assert ratio_outside(basis, Operator.identity(2) * 7.0) <= 1e-9
        # X is orthogonal to I, so its residual is its whole norm sqrt(2)
        x_ratio = ratio_outside(basis, Operator(SINGLE_SITE["X"]))
        assert x_ratio == pytest.approx(np.sqrt(2) / (1 + np.sqrt(2)))
        assert len(basis) == 1

    def test_block_extension_matches_sequential(self):
        rng = np.random.default_rng(21)
        d = 3
        cands = [random_operator(rng, d) for _ in range(12)]
        seq = HSBasis(d)
        for c in cands:
            seq.extend_block(c.mat.reshape(1, -1), 1e-9)
        blk = HSBasis(d)
        stacked = np.array([c.mat.ravel() for c in cands])
        accepted, ratios, truncated = blk.extend_block(stacked, 1e-9)
        assert not truncated
        assert len(blk) == len(seq)
        for v_seq, v_blk in zip(seq.vectors, blk.vectors):
            # same span built in the same order: vectors agree up to phase
            overlap = abs(hs_inner(v_seq, v_blk))
            assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_block_respects_row_cap(self):
        rng = np.random.default_rng(5)
        d = 3
        stacked = np.array([random_operator(rng, d).mat.ravel() for _ in range(8)])
        basis = HSBasis(d)
        accepted, ratios, truncated = basis.extend_block(stacked, 1e-9, max_rows=4)
        assert len(basis) == 4
        assert truncated
