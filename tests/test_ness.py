import numpy as np
import pytest

from lindblad_certify.closure import CERTIFIED_UNIQUE, NOT_CERTIFIED
from lindblad_certify.liouvillian import (
    NumericalFailure,
    apply,
    assemble,
    kernel_and_values,
)
from lindblad_certify.modelspec import (
    MINUS,
    PLUS,
    X,
    Y,
    Z,
    ModelSpec,
    PauliTerm,
    compass_dephasing,
    tfim_boundary_dephasing,
    tight_binding_dephasing,
    two_level_gain_loss,
    xyz_bulk_dephasing,
)
from lindblad_certify.ness import (
    NONTRIVIAL_COMMUTANT,
    TRIVIAL_COMMUTANT,
    _probe_basis,
    full_verdict,
    kernel_invariance_diagnostic,
    per_sector_ness,
    steady_states,
)
from lindblad_certify.opalg import Operator
from lindblad_certify.symmetry import parity_z_operator, resolve_symmetry
from test_cli import gesvd, non_hermitian_two_level


def xyz3():
    return xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0)


def dephasing_qubit():
    return ModelSpec(1, [], [("L_z", [PauliTerm(1.0, [(1, Z)])])])


def span_residual(ops, target: Operator) -> float:
    """Distance from target to the span of an orthonormal operator list."""
    rows = np.array([o.mat.ravel() for o in ops])
    t = target.mat.ravel()
    return float(np.linalg.norm(t - (rows.conj() @ t) @ rows))


class TestSteadyStates:
    def test_rate_equation_two_level(self):
        report = steady_states(two_level_gain_loss(1.0, 2.0))
        assert report.kernel_dim == 1
        assert len(report.steady_states) == 1
        # balance of gain and loss puts weight gamma_g/(gamma_g+gamma_l) up
        assert np.allclose(report.steady_states[0].mat, np.diag([1 / 3, 2 / 3]), atol=1e-10)
        assert report.eigenvalue_ratios[0] == pytest.approx(0.5, abs=1e-9)
        # this entry point does not run the algebraic side
        assert report.generation_verdict is None

    def test_tfim_state_is_maximally_mixed(self):
        report = steady_states(tfim_boundary_dephasing(3, 1.0, 0.5))
        assert report.kernel_dim == 1
        delta = report.steady_states[0].mat - np.eye(8) / 8
        assert np.linalg.norm(delta) <= 1e-8

    def test_xyz_kernel_holds_both_parity_states(self):
        report = steady_states(xyz3())
        assert report.kernel_dim == 2
        s = parity_z_operator(3).mat
        for sign in (+1, -1):
            target = Operator((np.eye(8) + sign * s) / 8)
            assert span_residual(report.hermitian_kernel_basis, target) <= 1e-8
        # canonical representative: projection of I/8 is I/8 itself
        assert report.canonical_is_positive
        assert np.allclose(report.canonical_state.mat, np.eye(8) / 8, atol=1e-9)

    def test_tight_binding_kernel_counts_sectors(self):
        report = steady_states(tight_binding_dephasing(3, 1.0, 0.3, 0.8))
        assert report.kernel_dim == 4
        assert report.canonical_is_positive

    @pytest.mark.parametrize(
        "spec",
        [
            two_level_gain_loss(1.0, 2.0),
            tfim_boundary_dephasing(3, 1.0, 0.5),
            xyz3(),
            compass_dephasing(4, 1.0, 0.7, 1.0),
            tight_binding_dephasing(3, 1.0, 0.3, 0.8),
        ],
        ids=["two_level", "tfim", "xyz", "compass", "tight_binding"],
    )
    def test_reported_states_satisfy_the_contract(self, spec):
        report = steady_states(spec)
        assert report.kernel_dim >= 1
        for state in report.steady_states:
            assert abs(state.trace() - 1) <= 1e-10
            assert np.linalg.norm(state.mat - state.mat.conj().T) <= 1e-10
            assert float(np.linalg.eigvalsh(state.mat)[0]) >= -1e-8
            assert apply(spec, state).hs_norm() <= 1e-8

    def test_rank_decision_margins_are_reported(self):
        report = steady_states(tfim_boundary_dephasing(3, 1.0, 0.5))
        assert report.kernel_sigma_below < report.kernel_cutoff
        assert report.kernel_sigma_above > report.kernel_cutoff


class TestHermitianKernelBasis:
    @pytest.mark.parametrize(
        "spec, k",
        [
            (compass_dephasing(4, 1.0, 0.7, 1.0), 2),
            (tight_binding_dephasing(3, 1.0, 0.3, 0.8), 4),
            (tfim_boundary_dephasing(3, 1.0, 0.5), 1),
        ],
        ids=["compass_n4", "tight_binding_n3", "tfim_n3"],
    )
    def test_basis_depends_only_on_the_kernel(self, spec, k):
        # any orthonormal basis of the kernel, as another LAPACK run might
        # return it, must give the same Hermitian basis (for k = 1 the
        # mixing is a random phase)
        raw, _ = kernel_and_values(assemble(spec), 1e-9)
        assert raw.shape[1] == k
        rng = np.random.default_rng(7)
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        unitary, _ = np.linalg.qr(z)
        reference = _probe_basis(raw, spec.dim).rows
        mixed = _probe_basis(raw @ unitary, spec.dim).rows
        assert reference.shape == (k, spec.dim**2)
        assert np.abs(mixed - reference).max() <= 1e-12

    @pytest.mark.parametrize("svd", [np.linalg.svd, gesvd], ids=["gesdd", "gesvd"])
    def test_near_degenerate_kernel_keeps_its_dimension(self, svd, monkeypatch):
        # a near-degenerate kernel, where a rank decision among Hermitian
        # and anti-Hermitian parts of the kernel vectors would miscount it
        spec = tight_binding_dephasing(3, 0.499, 0.227, 1.279)
        monkeypatch.setattr(np.linalg, "svd", svd)
        raw, _ = kernel_and_values(assemble(spec), 1e-9)
        assert raw.shape[1] == 4
        basis = _probe_basis(raw, spec.dim)
        assert basis.rows.shape == (4, spec.dim**2)
        for row in basis.rows:
            m = row.reshape(spec.dim, spec.dim)
            assert np.abs(m - m.conj().T).max() <= 1e-12


class TestPerSectorNess:
    def test_xyz_sectors_are_unique_and_mixed(self):
        report = per_sector_ness(xyz3(), "parity_z")
        assert report.sectors.dims == [4, 4]
        assert len(report.per_sector) == 2
        for sector in report.per_sector:
            assert sector.certified
            assert sector.kernel_dim == 1
            assert sector.distance_to_mixed <= 1e-8
            assert sector.stationarity_norm <= 1e-8
        thetas = [s.theta for s in report.per_sector]
        assert thetas == pytest.approx([0.0, np.pi], abs=1e-8)
        assert report.all_consistent

    def test_tight_binding_five_sectors(self):
        spec = tight_binding_dephasing(4, 1.0, 0.3, 0.8)
        report = per_sector_ness(spec, "u1_number")
        assert [s.dim for s in report.per_sector] == [1, 4, 6, 4, 1]
        for sector in report.per_sector:
            assert sector.certified
            assert sector.kernel_dim == 1
            assert sector.distance_to_mixed <= 1e-8

    def test_compass_parity_sectors_unique(self):
        report = per_sector_ness(compass_dephasing(4, 1.0, 0.7, 1.0), "parity_z")
        assert [s.dim for s in report.per_sector] == [8, 8]
        for sector in report.per_sector:
            assert sector.kernel_dim == 1
            assert sector.certified

    @pytest.mark.parametrize(
        "spec,descriptor",
        [
            (xyz3(), "parity_z"),
            (tight_binding_dephasing(4, 1.0, 0.3, 0.8), "u1_number"),
        ],
        ids=["xyz", "tight_binding"],
    )
    def test_weighted_reassembly_is_stationary(self, spec, descriptor):
        report = per_sector_ness(spec, descriptor)
        d = spec.dim
        total = np.zeros((d, d), dtype=complex)
        for sector, iso in zip(report.per_sector, report.sectors.isometries):
            total += (sector.dim / d) * (iso @ sector.state.mat @ iso.conj().T)
        assert abs(np.trace(total) - 1) <= 1e-10
        assert apply(spec, Operator(total)).hs_norm() <= 1e-8

    def test_non_symmetry_is_refused(self):
        with pytest.raises(ValueError, match="not a strong symmetry"):
            per_sector_ness(tfim_boundary_dephasing(3, 1.0, 0.5), "parity_z")


class TestKernelInvariance:
    def test_xyz_parity_state_kernel_is_invariant(self):
        spec = xyz3()
        s = parity_z_operator(3).mat
        rho = Operator((np.eye(8) + s) / 8)
        report = kernel_invariance_diagnostic(spec, rho)
        # (I+S)/8 vanishes exactly on the odd-parity half of the space
        assert report.kernel_dim == 4
        assert report.passed
        assert report.max_residual <= 1e-8

    def test_full_rank_state_passes_trivially(self):
        spec = tfim_boundary_dephasing(3, 1.0, 0.5)
        report = kernel_invariance_diagnostic(spec, Operator(np.eye(8) / 8))
        assert report.kernel_dim == 0
        assert report.residuals == {}
        assert report.passed

    def test_pointer_state_of_pure_dephasing(self):
        report = kernel_invariance_diagnostic(
            dephasing_qubit(), Operator(np.diag([1.0, 0.0]))
        )
        assert report.kernel_dim == 1
        assert report.passed
        assert set(report.residuals) == {"K_adjoint", "L_z_dag"}

    def test_non_stationary_input_is_an_error(self):
        spec = two_level_gain_loss(1.0, 2.0)
        with pytest.raises(ValueError, match="not stationary"):
            kernel_invariance_diagnostic(spec, Operator(np.diag([1.0, 0.0])))

    def test_non_positive_input_is_an_error(self):
        with pytest.raises(ValueError, match="positive"):
            kernel_invariance_diagnostic(
                dephasing_qubit(), Operator(np.diag([1.5, -0.5]))
            )

    def test_non_hermitian_input_is_an_error(self):
        with pytest.raises(ValueError, match="Hermitian"):
            kernel_invariance_diagnostic(
                dephasing_qubit(), Operator(np.array([[1.0, 1.0], [0.0, 0.0]]))
            )


class TestFullVerdict:
    def test_tfim_all_pieces_agree(self):
        report = full_verdict(tfim_boundary_dephasing(3, 1.0, 0.5))
        assert report.generation_verdict == CERTIFIED_UNIQUE
        assert report.kernel_dim == 1
        assert report.frigerio_verdict == TRIVIAL_COMMUTANT
        assert report.all_lindblads_hermitian
        assert report.mixed_state_residual <= 1e-12
        assert np.allclose(report.canonical_state.mat, np.eye(8) / 8, atol=1e-8)
        assert report.all_consistent
        for key in ("closure", "commutant", "kernel", "total"):
            assert key in report.timings

    def test_xyz_global_fail_sector_success(self):
        report = full_verdict(xyz3())
        assert report.generation_verdict == NOT_CERTIFIED
        assert report.closure.generated_dim == 32
        assert report.frigerio_verdict == NONTRIVIAL_COMMUTANT
        assert report.commutant.commutant_dim == 2
        assert report.kernel_dim == 2
        assert report.symmetry == "parity_z"
        assert report.symmetry_check.ok
        assert all(s.certified and s.kernel_dim == 1 for s in report.per_sector)
        assert report.all_consistent

    def test_degenerate_qubit_exhibit(self):
        report = full_verdict(dephasing_qubit())
        assert report.generation_verdict == NOT_CERTIFIED
        assert report.kernel_dim == 2
        assert report.commutant.commutant_dim == 2
        # projection of I/2 onto the diagonal kernel is I/2 itself
        assert np.allclose(report.canonical_state.mat, np.eye(2) / 2, atol=1e-10)
        assert report.all_consistent

    def test_two_level_skips_the_hermitian_path(self):
        report = full_verdict(two_level_gain_loss(1.0, 2.0))
        assert report.generation_verdict == CERTIFIED_UNIQUE
        assert report.kernel_dim == 1
        assert not report.all_lindblads_hermitian
        assert report.mixed_state_residual is None
        assert np.allclose(report.steady_states[0].mat, np.diag([1 / 3, 2 / 3]), atol=1e-9)
        assert report.all_consistent

    def test_failed_declared_symmetry_is_recorded_not_fatal(self):
        spec = ModelSpec(
            2,
            [PauliTerm(1.0, [(1, X)])],
            [("L", [PauliTerm(1.0, [(1, Z)])])],
            declared_symmetries=["parity_z"],
        )
        report = full_verdict(spec)
        assert report.symmetry == "parity_z"
        assert not report.symmetry_check.ok
        assert report.sectors is None
        assert report.per_sector is None
        assert report.all_consistent

    def test_errors_carry_the_stage_name(self):
        with pytest.raises(NumericalFailure, match=r"^\[kernel\] the generator does not preserve"):
            full_verdict(non_hermitian_two_level())

    def test_soundness_sweep_on_random_small_models(self):
        rng = np.random.default_rng(2024)
        letters_h = [X, Y, Z]
        letters_l = [X, Y, Z, PLUS, MINUS]

        def random_term(n, letters, coeff):
            k = int(rng.integers(1, n + 1))
            sites = sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False))
            factors = [(int(s), letters[int(rng.integers(len(letters)))]) for s in sites]
            return PauliTerm(coeff, factors)

        certified = 0
        for _ in range(50):
            n = int(rng.integers(1, 4))
            ham = [
                random_term(n, letters_h, float(rng.standard_normal()))
                for _ in range(int(rng.integers(1, 4)))
            ]
            jumps = [
                (
                    f"L_{m}",
                    [
                        random_term(
                            n,
                            letters_l,
                            complex(rng.standard_normal(), rng.standard_normal()),
                        )
                    ],
                )
                for m in range(int(rng.integers(1, 4)))
            ]
            report = full_verdict(ModelSpec(n, ham, jumps))
            assert report.all_consistent
            if report.generation_verdict == CERTIFIED_UNIQUE:
                certified += 1
                assert report.kernel_dim == 1
                assert report.min_eigenvalues[0] > 0
        # the sweep must actually exercise the certified branch
        assert certified >= 10
