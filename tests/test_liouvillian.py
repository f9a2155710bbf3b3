import math

import numpy as np
import pytest
import scipy.linalg

from lindblad_certify import liouvillian
from lindblad_certify.liouvillian import (
    LiouvillianMatrix,
    NumericalFailure,
    _blocks,
    apply_matrices,
    assemble_matrices,
    effective_hamiltonian,
    kernel_and_values,
    spectrum,
)
from lindblad_certify.modelspec import (
    ModelSpec,
    build_builtin,
    tfim_boundary_dephasing,
    tight_binding_dephasing,
    two_level_gain_loss,
    xyz_bulk_dephasing,
    compass_dephasing,
)
from lindblad_certify.opalg import Operator, PauliTerm, pauli_to_operator
from lindblad_certify.pauli import PauliForm, generator_form
from lindblad_certify.symmetry import (
    parity_z_operator,
    sector_decompose,
    u1_number_operator,
)


def random_rho(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator(m)


def dephasing_1site():
    return ModelSpec(1, [], [("L_1", [PauliTerm(1.0, [(1, "Z")])])])


def vec(mat):
    """Column stacking, the convention of assemble_matrices."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v, d):
    return np.asarray(v).reshape((d, d), order="F")


def dense(spec):
    """The model's generator matrix in the matrix units, from its dense operators."""
    ham, jumps = spec.operators()
    return assemble_matrices(ham.mat, [j.mat for j in jumps])


def image(spec, rho):
    """L(rho) for a d x d matrix ``rho``, from the model's dense operators."""
    ham, jumps = spec.operators()
    return apply_matrices(ham.mat, [j.mat for j in jumps], rho)


class TestVectorization:
    def test_vec_is_column_stacking(self):
        m = np.array([[1, 2], [3, 4]])
        assert np.array_equal(vec(m), [1, 3, 2, 4])
        assert np.array_equal(unvec(vec(m), 2), m)

    def test_sandwich_identity(self):
        rng = np.random.default_rng(0)
        a, b, r = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
        assert np.allclose(vec(a @ r @ b), np.kron(b.T, a) @ vec(r))


class TestApply:
    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        spec = xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0)
        for _ in range(10):
            rho = random_rho(rng, spec.dim)
            out = image(spec, rho.mat)
            assert abs(np.trace(out)) <= 1e-12 * rho.hs_norm()

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(2)
        spec = tfim_boundary_dephasing(3, 1.0, 0.5)
        for _ in range(10):
            rho = random_rho(rng, spec.dim)
            left = image(spec, rho.dag().mat)
            right = image(spec, rho.mat).conj().T
            assert np.allclose(left, right, atol=1e-12)

    def test_tfim_mixed_state_is_steady(self):
        spec = tfim_boundary_dephasing(3, 1.0, 0.5)
        assert np.linalg.norm(image(spec, np.eye(8) / 8)) <= 1e-12

    def test_xyz_parity_states_are_steady(self):
        spec = xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0)
        parity = pauli_to_operator([PauliTerm(1.0, [(1, "Z"), (2, "Z"), (3, "Z")])], 3)
        for sign in (+1, -1):
            rho = (np.eye(8) + sign * parity.mat) / 8
            assert np.linalg.norm(image(spec, rho)) <= 1e-12

    def test_stack_of_matrices(self):
        rng = np.random.default_rng(5)
        spec = xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0)
        stack = np.array([random_rho(rng, spec.dim).mat for _ in range(4)])
        out = image(spec, stack)
        assert out.shape == stack.shape
        for rho, got in zip(stack, out):
            assert np.allclose(got, image(spec, rho), atol=1e-14)


class TestEffectiveHamiltonian:
    def test_jump_products_are_summed_first(self):
        rng = np.random.default_rng(6)
        ham, a, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
        ham = ham + ham.conj().T
        expected = ham - 0.5j * (a.conj().T @ a + b.conj().T @ b)
        assert np.array_equal(effective_hamiltonian(ham, [a, b]), expected)

    def test_no_jumps_is_h(self):
        ham = pauli_to_operator([PauliTerm(0.7, [(1, "X"), (2, "Z")])], 2).mat
        assert np.array_equal(effective_hamiltonian(ham, []), ham)


class TestAssemble:
    def test_matches_apply_on_random_inputs(self):
        rng = np.random.default_rng(3)
        spec = tfim_boundary_dephasing(3, 1.0, 0.5)
        lm = dense(spec)
        for _ in range(20):
            rho = random_rho(rng, spec.dim)
            via_matrix = unvec(lm.matrix @ vec(rho.mat), spec.dim)
            assert np.allclose(via_matrix, image(spec, rho.mat), atol=1e-12)

    def test_left_null_vector_is_identity(self):
        for spec in (
            two_level_gain_loss(1.0, 2.0),
            xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0),
        ):
            left = vec(np.eye(spec.dim)).conj() @ dense(spec).matrix
            assert np.linalg.norm(left) <= 1e-10

    def test_pure_dephasing_kernel_is_diagonal_matrices(self):
        vecs = kernel_and_values(dense(dephasing_1site()), 1e-9)[0]
        assert vecs.shape == (4, 2)
        # span must be {vec of diagonal matrices} = coordinates 0 and 3
        offdiag = vecs[[1, 2], :]
        assert np.linalg.norm(offdiag) <= 1e-12


class TestSpectrum:
    @pytest.mark.parametrize(
        "spec",
        [
            two_level_gain_loss(1.0, 2.0),
            tfim_boundary_dephasing(3, 1.0, 0.5),
            xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0),
            compass_dephasing(2, 1.0, 0.7, 1.0),
            tight_binding_dephasing(3, 1.0, 0.3, 0.8),
        ],
        ids=["two_level", "tfim", "xyz", "compass", "tight_binding"],
    )
    def test_left_half_plane(self, spec):
        vals = spectrum(generator_form(spec))
        assert vals.real.max() <= 1e-10
        # the string form is similar to the matrix-unit form: one spectrum,
        # up to roundoff, which a defective eigenvalue (compass) raises to 1e-8
        ref = np.sort_complex(np.round(spectrum(dense(spec)), 6))
        assert np.array_equal(np.sort_complex(np.round(vals, 6)), ref)

    def test_zero_jump_operator_gives_unitary_spectrum(self):
        # H arbitrary, L = 0: eigenvalues are i * (E_k - E_j), purely imaginary
        spec = ModelSpec(
            2,
            [PauliTerm(0.7, [(1, "Z")]), PauliTerm(0.3, [(1, "X"), (2, "X")])],
            [("L_zero", [])],
        )
        ham = spec.operators()[0]
        energies = np.linalg.eigvalsh(ham.mat)
        expected = sorted(
            (1j * (ek - ej) for ej in energies for ek in energies),
            key=lambda z: (round(z.real, 9), round(z.imag, 9)),
        )
        got = sorted(
            spectrum(generator_form(spec)), key=lambda z: (round(z.real, 9), round(z.imag, 9))
        )
        assert np.allclose(got, expected, atol=1e-10)
        assert max(abs(z.real) for z in got) <= 1e-10

    def test_two_level_hand_solved_spectrum(self):
        # gamma_g = gamma_l = 1, H = 0: populations relax at rate 2 (one zero
        # mode, one -2), coherences at rate 1 (two -1 modes)
        vals = spectrum(generator_form(two_level_gain_loss(1.0, 1.0)))
        expected = np.array([0.0, -1.0, -1.0, -2.0])
        assert np.allclose(sorted(vals.real), sorted(expected), atol=1e-12)
        assert np.allclose(vals.imag, 0, atol=1e-12)

    def test_sorted_by_descending_real_part(self):
        vals = spectrum(generator_form(two_level_gain_loss(1.0, 2.0)))
        assert list(vals.real) == sorted(vals.real, reverse=True)


class TestKernel:
    def test_two_level_kernel_matches_rate_equation(self):
        # rate-equation oracle: p_up = gamma_g / (gamma_g + gamma_l) = 1/3
        lm = dense(two_level_gain_loss(1.0, 2.0))
        vecs = kernel_and_values(lm, 1e-9)[0]
        assert vecs.shape[1] == 1
        rho = unvec(vecs[:, 0], 2)
        rho = rho / np.trace(rho)
        assert np.allclose(rho, np.diag([1 / 3, 2 / 3]), atol=1e-10)

    def test_two_level_kernel_agrees_with_brute_force(self):
        lm = dense(two_level_gain_loss(1.0, 2.0))
        ours = kernel_and_values(lm, 1e-9)[0]
        reference = scipy.linalg.null_space(lm.matrix, rcond=1e-9)
        assert ours.shape == reference.shape
        angles = scipy.linalg.subspace_angles(ours, reference)
        assert angles.max() <= 1e-10

    def test_tfim_kernel_one_dimensional(self):
        lm = dense(tfim_boundary_dephasing(3, 1.0, 0.5))
        assert kernel_and_values(lm, 1e-9)[0].shape[1] == 1

    def test_xyz_kernel_two_dimensional(self):
        lm = dense(xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0))
        assert kernel_and_values(lm, 1e-9)[0].shape[1] == 2

    def test_kernel_columns_orthonormal(self):
        lm = dense(xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0))
        vecs = kernel_and_values(lm, 1e-9)[0]
        gram = vecs.conj().T @ vecs
        assert np.allclose(gram, np.eye(vecs.shape[1]), atol=1e-12)

    def test_delta_independence(self):
        base = dense(tight_binding_dephasing(3, 1.0, 0.0, 0.8))
        shifted = dense(tight_binding_dephasing(3, 1.0, 0.3, 0.8))
        # delta multiplies the identity, which commutes away entirely
        assert np.allclose(base.matrix, shifted.matrix, atol=1e-13)
        k0 = kernel_and_values(base, 1e-9)[0]
        k1 = kernel_and_values(shifted, 1e-9)[0]
        assert k0.shape == k1.shape
        angles = scipy.linalg.subspace_angles(k0, k1)
        assert angles.max() <= 1e-8

    def test_zero_generator_returns_full_space(self):
        lm = LiouvillianMatrix(d=2, matrix=np.zeros((4, 4), dtype=complex))
        assert kernel_and_values(lm, 1e-9)[0].shape == (4, 4)

    def test_empty_kernel_flagged(self):
        for form in (
            LiouvillianMatrix(d=2, matrix=np.eye(4, dtype=complex)),
            PauliForm(d=1, matrix=np.array([[-1.0]]), imag_norm=0.0),
        ):
            with pytest.raises(NumericalFailure, match="no kernel vector found"):
                kernel_and_values(form, 1e-9)


BUILTINS_UP_TO_N3 = [
    ("two_level_gain_loss", {"gamma_g": 1.0, "gamma_l": 2.0}),
    ("tfim_boundary_dephasing", {"N": 2, "h_x": 1.0, "gamma": 0.5}),
    ("tfim_boundary_dephasing", {"N": 3, "h_x": 1.0, "gamma": 0.5}),
    ("xyz_bulk_dephasing", {"N": 2, "Jx": 1.0, "Jy": 0.5, "Jz": 0.3, "hz": 0.7, "gamma": 1.0}),
    ("xyz_bulk_dephasing", {"N": 3, "Jx": 1.0, "Jy": 0.5, "Jz": 0.3, "hz": 0.7, "gamma": 1.0}),
    ("compass_dephasing", {"N": 2, "Jx": 1.0, "Jy": 0.7, "gamma": 1.0}),
    ("tight_binding_dephasing", {"N": 2, "t": 1.0, "delta": 0.3, "gamma": 0.8}),
    ("tight_binding_dephasing", {"N": 3, "t": 1.0, "delta": 0.3, "gamma": 0.8}),
    ("xyz_lattice", {"N": 3, "bonds": "1-2;2-3", "Jx": 1.0, "Jy": 0.5, "Jz": 0.3}),
    ("tight_binding_lattice", {"N": 3, "bonds": "1-2;2-3;1-3", "t": {(1, 2): 1j, (2, 3): 1.0, (1, 3): 0.5}}),
]


BUILTINS_AT_N4 = [
    ("tfim_boundary_dephasing", {"N": 4, "h_x": 1.0, "gamma": 0.5}),
    ("xyz_bulk_dephasing", {"N": 4, "Jx": 1.0, "Jy": 0.5, "Jz": 0.3, "hz": 0.7, "gamma": 1.0}),
    ("compass_dephasing", {"N": 4, "Jx": 1.0, "Jy": 0.7, "gamma": 1.0}),
    ("tight_binding_dephasing", {"N": 4, "t": 1.0, "delta": 0.3, "gamma": 0.8}),
    ("xyz_lattice", {"N": 4, "bonds": "1-2;2-3;3-4;1-3", "Jx": 1.0, "Jy": 0.5, "Jz": 0.3}),
    ("tight_binding_lattice", {"N": 4, "bonds": "1-2;2-3;3-4", "t": 1.0}),
]


def random_generator(rng, d, n_jumps=2):
    """Random Hermitian H and non-Hermitian complex jumps, as a generator."""
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    jumps = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(n_jumps)]
    return assemble_matrices(h + h.conj().T, jumps)


def assert_matches_dense_svd(lm, tol=1e-9):
    """The blocked kernel against one complex SVD of the whole matrix."""
    vecs, svals = kernel_and_values(lm, tol)
    _, ref_svals, vh = np.linalg.svd(lm.matrix)
    ref = vh[ref_svals < tol * ref_svals[0]].conj().T
    assert svals.shape == ref_svals.shape
    assert np.all(np.diff(svals) <= 0)
    assert np.abs(svals - ref_svals).max() <= 1e-12 * ref_svals[0]
    assert vecs.shape == ref.shape
    assert np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1])).max() <= 1e-12
    assert np.abs(vecs @ vecs.conj().T - ref @ ref.conj().T).max() <= 1e-10


def assert_columns_exactly_hermitian(lm, tol):
    """Every kernel column, as a d x d matrix, equals its adjoint bit for bit."""
    vecs, _ = kernel_and_values(lm, tol)
    for col in vecs.T:
        m = unvec(col, lm.d)
        assert np.array_equal(m, m.conj().T)
    return vecs.shape[1]


def n_blocks(lm):
    return sum(len(group) for group in _blocks(lm.real_form()[0]))


class TestBlockedKernel:
    """kernel_and_values solves real blocks; a dense complex SVD is the reference."""

    @pytest.mark.parametrize(
        "name,params", BUILTINS_UP_TO_N3,
        ids=[f"{name}-N{params.get('N', 1)}" for name, params in BUILTINS_UP_TO_N3],
    )
    def test_builtins_match_the_dense_svd(self, name, params):
        assert_matches_dense_svd(dense(build_builtin(name, params)))

    @pytest.mark.parametrize("d", [3, 5, 6])
    def test_random_complex_jumps_match_the_dense_svd(self, d):
        rng = np.random.default_rng(d)
        assert_matches_dense_svd(random_generator(rng, d))

    def test_sector_generator_through_a_float_isometry(self):
        # the parity sector of xyz N=3, rotated by a random unitary inside
        # the sector so that no entry is exact
        spec = xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0)
        iso = sector_decompose(parity_z_operator(3)).isometries[0]
        rng = np.random.default_rng(11)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        iso = iso @ np.linalg.qr(z)[0]
        ham, jumps = spec.operators()
        lm = assemble_matrices(
            iso.conj().T @ ham.mat @ iso, [iso.conj().T @ j.mat @ iso for j in jumps]
        )
        assert_matches_dense_svd(lm)

    @pytest.mark.parametrize(
        "name,params", BUILTINS_UP_TO_N3 + BUILTINS_AT_N4,
        ids=[f"{name}-N{params.get('N', 1)}" for name, params in BUILTINS_UP_TO_N3 + BUILTINS_AT_N4],
    )
    def test_builtin_kernel_columns_are_exactly_hermitian(self, name, params):
        lm = dense(build_builtin(name, params))
        for tol in (1e-9, 1e-15):
            assert_columns_exactly_hermitian(lm, tol)

    def test_random_kernel_columns_are_exactly_hermitian(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4, 5):
            assert_columns_exactly_hermitian(random_generator(rng, d), 1e-9)
        # two decoupled blocks: a two-dimensional kernel
        h, jumps = (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
                    for _ in range(2))
        block = scipy.linalg.block_diag
        lm = assemble_matrices(block(*(h + h.conj().transpose(0, 2, 1))), [block(*jumps)])
        assert assert_columns_exactly_hermitian(lm, 1e-9) == 2

    def test_zero_generator_returns_the_identity(self):
        # the one kernel whose columns are not Hermitian matrices: it is
        # the whole space, which is adjoint-closed all the same
        lm = LiouvillianMatrix(d=3, matrix=np.zeros((9, 9), dtype=complex))
        vecs, svals = kernel_and_values(lm, 1e-9)
        assert np.array_equal(vecs, np.eye(9))
        assert np.array_equal(svals, np.zeros(9))

    def test_symmetries_split_the_real_matrix(self):
        # parity: even-even, odd-odd, and even-odd together with its
        # adjoints odd-even, which the Hermitian basis pairs up
        assert n_blocks(dense(xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0))) == 3
        assert n_blocks(dense(tight_binding_dephasing(3, 1.0, 0.3, 0.8))) > 1
        assert n_blocks(dense(tfim_boundary_dephasing(3, 1.0, 0.5))) == 1

    def test_map_not_preserving_hermiticity_is_refused(self):
        # rho -> X rho maps Hermitian operators to non-Hermitian ones
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        lm = LiouvillianMatrix(d=2, matrix=np.kron(np.eye(2), x))
        with pytest.raises(NumericalFailure, match="Hermiticity"):
            kernel_and_values(lm, 1e-9)


def sector_forms():
    """Matrix-unit forms of the parity and particle-number sectors at N = 4."""
    cases = [
        (xyz_bulk_dephasing(4, 1.0, 0.5, 0.3, 0.7, 1.0), parity_z_operator(4)),
        (tight_binding_dephasing(4, 1.0, 0.3, 0.8), u1_number_operator(4)),
    ]
    forms = []
    for spec, s_op in cases:
        sectors = sector_decompose(s_op)
        ham, jumps = spec.operators()
        l_blocks = [sectors.restrict(j.mat) for j in jumps]
        for a, h_block in enumerate(sectors.restrict(ham.mat)):
            forms.append(assemble_matrices(h_block, [blocks[a] for blocks in l_blocks]))
    return forms


class TestValuesFirst:
    """Blocks above VECTORS_WITH_VALUES take their values first, and vectors
    only when a value falls under the cutoff."""

    @pytest.mark.parametrize(
        "name,params", BUILTINS_UP_TO_N3 + BUILTINS_AT_N4,
        ids=[f"{name}-N{params.get('N', 1)}" for name, params in BUILTINS_UP_TO_N3 + BUILTINS_AT_N4],
    )
    def test_builtin_kernels_equal_the_full_svd_path(self, name, params, monkeypatch):
        spec = build_builtin(name, params)
        self.assert_equal_to_full_svd_path([generator_form(spec), dense(spec)], monkeypatch)

    def test_sector_kernels_equal_the_full_svd_path(self, monkeypatch):
        self.assert_equal_to_full_svd_path(sector_forms(), monkeypatch)

    @staticmethod
    def assert_equal_to_full_svd_path(forms, monkeypatch):
        # the reference takes every block's vectors in its first call; the
        # same kernel must come out with the default crossover and with
        # every stack of blocks solved values first
        for form in forms:
            for tol in (1e-9, 1e-12):
                with monkeypatch.context() as patch:
                    patch.setattr(liouvillian, "VECTORS_WITH_VALUES", math.inf)
                    ref, _ = kernel_and_values(form, tol)
                for crossover in (liouvillian.VECTORS_WITH_VALUES, 0):
                    with monkeypatch.context() as patch:
                        patch.setattr(liouvillian, "VECTORS_WITH_VALUES", crossover)
                        vecs, svals = kernel_and_values(form, tol)
                    assert np.array_equal(vecs, ref)
                    # the zero generator (a 1-dimensional sector) is all kernel
                    below = svals < tol * svals[0] if svals[0] else svals == 0
                    assert vecs.shape[1] == np.count_nonzero(below)

    @pytest.mark.parametrize(
        "name,params", BUILTINS_UP_TO_N3 + BUILTINS_AT_N4,
        ids=[f"{name}-N{params.get('N', 1)}" for name, params in BUILTINS_UP_TO_N3 + BUILTINS_AT_N4],
    )
    def test_values_match_the_dense_real_form(self, name, params):
        spec = build_builtin(name, params)
        for form in (generator_form(spec), dense(spec)):
            _, svals = kernel_and_values(form, 1e-9)
            ref = np.linalg.svd(form.real_form()[0], compute_uv=False)
            # the dense reference is itself accurate to about n ulps of sigma_max
            assert np.abs(svals - ref).max() <= len(ref) * np.finfo(float).eps * ref[0]

    def test_blocks_above_the_cutoff_take_no_vectors(self, monkeypatch):
        # xyz at N = 5 splits into (1, 1, 510, 512); the kernel is the two
        # 1 x 1 blocks, so the large blocks need their values only
        calls = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            result = svd(a, *args, **kwargs)
            vectors = kwargs.get("compute_uv", True)
            calls.append((a.shape, vectors, result[1] if vectors else result))
            return result

        monkeypatch.setattr(np.linalg, "svd", spy)
        form = generator_form(xyz_bulk_dephasing(5, 1.0, 0.5, 0.3, 0.7, 1.0))
        vecs, svals = kernel_and_values(form, 1e-9)
        cutoff = 1e-9 * svals[0]
        assert vecs.shape[1] == 2
        assert sorted(shape for shape, _, _ in calls) == [(1, 510, 510), (1, 512, 512)]
        for shape, vectors, values in calls:
            if vectors:
                assert (values.min(axis=-1) < cutoff).all(), shape


class TestApplyMatricesConsistency:
    def test_matches_operator_path(self):
        # the textbook form, -i[H, rho] + sum_m (L rho L† - {L†L, rho}/2)
        rng = np.random.default_rng(4)
        spec = xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0)
        ham, jumps = spec.operators()
        rho = random_rho(rng, spec.dim).mat
        expected = -1j * (ham.mat @ rho - rho @ ham.mat)
        for jump in jumps:
            jdj = jump.mat.conj().T @ jump.mat
            expected += jump.mat @ rho @ jump.mat.conj().T - 0.5 * (jdj @ rho + rho @ jdj)
        raw = apply_matrices(ham.mat, [j.mat for j in jumps], rho)
        assert np.allclose(raw, expected, atol=1e-14)

    def test_assemble_matrices_matches_assemble(self):
        # written in place, the entries are those of the Kronecker products
        # added in the order of the formula, bit for bit
        spec = tfim_boundary_dephasing(2, 1.0, 0.5)
        ham, jumps = spec.operators()
        eye = np.eye(spec.dim)
        expected = -1j * (np.kron(eye, ham.mat) - np.kron(ham.mat.T, eye))
        for jump in jumps:
            jdj = jump.mat.conj().T @ jump.mat
            expected += np.kron(jump.mat.conj(), jump.mat)
            expected -= 0.5 * np.kron(eye, jdj)
            expected -= 0.5 * np.kron(jdj.T, eye)
        lm = assemble_matrices(ham.mat, [j.mat for j in jumps])
        assert np.array_equal(lm.matrix, expected)
