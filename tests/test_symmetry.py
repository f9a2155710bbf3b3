import re

import numpy as np
import pytest

from lindblad_certify.closure import restricted_closure
from lindblad_certify.liouvillian import apply_matrices, assemble_matrices, kernel_and_values
from lindblad_certify.modelspec import (
    ModelSpec,
    tfim_boundary_dephasing,
    tight_binding_dephasing,
    xyz_bulk_dephasing,
)
from lindblad_certify.opalg import Operator, PauliTerm, pauli_to_operator
from lindblad_certify.symmetry import (
    BlockCheck,
    SectorDecomposition,
    parity_z_operator,
    resolve_symmetry,
    sector_decompose,
    u1_number_operator,
    verify_invariant_blocks,
    verify_strong_symmetry,
)


def xyz3():
    return xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0)


def loop_max_leak(spec, sectors, trials, seed):
    """The invariant-block leak measured one trial and one block at a time."""
    rng = np.random.default_rng(seed)
    ham, jumps = spec.operators()
    isos = sectors.isometries
    max_leak = 0.0
    for a, iso_a in enumerate(isos):
        for b, iso_b in enumerate(isos):
            for _ in range(trials):
                da, db = iso_a.shape[1], iso_b.shape[1]
                x = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
                x /= np.linalg.norm(x)
                out = apply_matrices(ham.mat, [j.mat for j in jumps], iso_a @ x @ iso_b.conj().T)
                for ap, iso_ap in enumerate(isos):
                    for bp, iso_bp in enumerate(isos):
                        if (ap, bp) != (a, b):
                            leak = np.linalg.norm(iso_ap.conj().T @ out @ iso_bp)
                            max_leak = max(max_leak, float(leak))
    return max_leak


def dense_frame_case(field=0.0):
    """A strong symmetry whose sector frame has no zero entry.

    S = X_1 X_2 X_3 commutes with an xyz chain without field and with X_j
    dephasing. Its sector bases are each rotated by a random unitary inside
    the sector, so the frame is far from a permutation of the computational
    basis. A ``field`` on Z_1 in H and on Z_2 in L_1 breaks the symmetry by
    that much, in H, in L_1 and in L_1† L_1, so that every term of the
    generator leaks into the same blocks.
    """
    ham = [PauliTerm(c, [(j, p), (j + 1, p)])
           for j in (1, 2) for p, c in (("X", 1.0), ("Y", 0.5), ("Z", 0.3))]
    jumps = [(f"L_{j}", [PauliTerm(0.8, [(j, "X")])]) for j in (1, 2, 3)]
    if field:
        ham.append(PauliTerm(field, [(1, "Z")]))
        jumps[0][1].append(PauliTerm(field, [(2, "Z")]))
    s_op = pauli_to_operator([PauliTerm(1.0, [(j, "X") for j in (1, 2, 3)])], 3)
    sectors = sector_decompose(s_op)
    rng = np.random.default_rng(2)
    isos = []
    for iso in sectors.isometries:
        z = rng.standard_normal((2, iso.shape[1], iso.shape[1]))
        isos.append(iso @ np.linalg.qr(z[0] + 1j * z[1])[0])
    assert np.all(np.abs(np.concatenate(isos, axis=1)) > 1e-3)
    return ModelSpec(3, ham, jumps), SectorDecomposition(sectors.eigenvalues, isos, s_op)


class TestConstructors:
    def test_parity_is_diagonal_sign_of_popcount(self):
        op = parity_z_operator(3)
        expected = [(-1) ** bin(i).count("1") for i in range(8)]
        assert np.allclose(np.diag(op.mat), expected)

    def test_u1_phase_convention_kept_verbatim(self):
        op = u1_number_operator(2)
        expected = np.exp(1j * np.array([0, 1, 1, 2]))
        assert np.allclose(np.diag(op.mat), expected)

    def test_resolve_names_and_passthrough(self):
        spec = xyz3()
        parity = resolve_symmetry("parity_z", spec)
        assert np.allclose(parity.mat, parity_z_operator(3).mat)
        custom = Operator(np.eye(8))
        assert resolve_symmetry(custom, spec) is custom
        with pytest.raises(ValueError):
            resolve_symmetry("bogus", spec)


class TestVerifyStrongSymmetry:
    def test_xyz_parity_holds(self):
        spec = xyz3()
        check = verify_strong_symmetry(parity_z_operator(3), spec, 1e-9)
        assert check.ok
        assert all(v <= 1e-12 for v in check.commutator_norms.values())

    def test_tight_binding_number_phase_holds(self):
        spec = tight_binding_dephasing(4, 1.0, 0.3, 0.8)
        check = verify_strong_symmetry(u1_number_operator(4), spec, 1e-9)
        assert check.ok

    def test_tfim_parity_broken_by_field(self):
        spec = tfim_boundary_dephasing(3, 1.0, 0.5)
        check = verify_strong_symmetry(parity_z_operator(3), spec, 1e-9)
        assert not check.ok
        # oracle: the commutator of parity with h_x sum_j X_j is 2 h_x sum_j X_j S
        ham = spec.hamiltonian().mat
        parity = parity_z_operator(3).mat
        direct = np.linalg.norm(parity @ ham - ham @ parity)
        assert check.commutator_norms["H"] == pytest.approx(direct)
        assert check.commutator_norms["H"] > 1.0
        assert check.commutator_norms["L_1"] <= 1e-12

    def test_rule_is_relative_to_the_operator_norm(self):
        # eps X_1 in H: ||[S, H]|| = 2 eps ||X_1|| lies above tol but below
        # tol (1 + ||H||), so parity holds by the rule restricted_closure uses
        base = xyz3()
        spec = ModelSpec(3, base.hamiltonian_terms + [PauliTerm(1e-9, [(1, "X")])],
                         base.lindblad_ops)
        check = verify_strong_symmetry(parity_z_operator(3), spec, 1e-9)
        assert 1e-9 < check.commutator_norms["H"] < 1e-9 * (1 + spec.hamiltonian().hs_norm())
        assert check.ok
        sectors = sector_decompose(parity_z_operator(3))
        gens = [spec.hamiltonian()] + spec.lindblads()
        assert len(restricted_closure(gens, sectors, 1e-9)) == 2
        assert not verify_strong_symmetry(parity_z_operator(3), spec, 1e-11).ok
        with pytest.raises(ValueError, match="generator 0 does not commute"):
            restricted_closure(gens, sectors, 1e-11)

    def test_non_unitary_rejected(self):
        spec = xyz3()
        with pytest.raises(ValueError, match="unitary"):
            verify_strong_symmetry(Operator(np.diag([2.0] * 8)), spec, 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            verify_strong_symmetry(Operator(np.eye(4)), xyz3(), 1e-9)


class TestSectorDecompose:
    def test_parity_halves_the_space(self):
        sectors = sector_decompose(parity_z_operator(3))
        assert len(sectors.dims) == 2
        assert sectors.dims == [4, 4]
        # theta = 0 sector (eigenvalue +1) comes first
        assert np.allclose(sectors.eigenvalues, [1.0, -1.0])

    def test_number_phase_gives_binomial_dims(self):
        sectors = sector_decompose(u1_number_operator(4))
        assert len(sectors.dims) == 5
        assert sectors.dims == [1, 4, 6, 4, 1]
        assert np.allclose(sectors.eigenvalues, np.exp(1j * np.arange(5)))

    def test_identity_is_one_sector(self):
        sectors = sector_decompose(Operator(np.eye(8)))
        assert len(sectors.dims) == 1
        assert sectors.dims == [8]

    def test_isometries_are_eigenvectors(self):
        s_op = u1_number_operator(3)
        sectors = sector_decompose(s_op)
        for val, iso in zip(sectors.eigenvalues, sectors.isometries):
            assert np.linalg.norm(s_op.mat @ iso - val * iso) <= 1e-10

    def test_completeness(self):
        sectors = sector_decompose(parity_z_operator(3))
        total = sum(iso @ iso.conj().T for iso in sectors.isometries)
        assert np.allclose(total, np.eye(8), atol=1e-10)
        stacked = np.hstack(sectors.isometries)
        assert np.allclose(stacked.conj().T @ stacked, np.eye(8), atol=1e-10)

    def test_ambiguous_clusters_rejected(self):
        s_op = Operator(np.diag([1.0, np.exp(5e-9j)]))
        with pytest.raises(ValueError, match="ambiguous"):
            sector_decompose(s_op, tol=1e-9)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            sector_decompose(Operator(np.diag([1.0, 0.5])))

    def test_wraparound_cluster_merged(self):
        # eigenphases straddling 0 from both sides must land in one sector
        eps = 1e-12
        s_op = Operator(np.diag([np.exp(1j * eps), np.exp(-1j * eps), 1j]))
        sectors = sector_decompose(s_op, tol=1e-8)
        assert len(sectors.dims) == 2
        assert sectors.dims == [2, 1]


class TestRestrict:
    def test_identity_restricts_to_identity(self):
        sectors = sector_decompose(parity_z_operator(3))
        for iso, block in zip(sectors.isometries, sectors.restrict(np.eye(8))):
            assert np.allclose(block, np.eye(iso.shape[1]), atol=1e-12)

    def test_symmetry_is_scalar_on_its_sector(self):
        s_op = u1_number_operator(3)
        sectors = sector_decompose(s_op)
        blocks = sectors.restrict(s_op.mat)
        for val, iso, block in zip(sectors.eigenvalues, sectors.isometries, blocks):
            assert np.allclose(block, val * np.eye(iso.shape[1]), atol=1e-10)

    def test_xyz_even_block_spectrum_matches_independent_basis(self):
        # independent even-parity basis: computational states with an even
        # number of down spins
        spec = xyz3()
        ham = spec.hamiltonian()
        even_idx = [i for i in range(8) if bin(i).count("1") % 2 == 0]
        v_direct = np.eye(8)[:, even_idx]
        block_direct = v_direct.T @ ham.mat @ v_direct
        sectors = sector_decompose(parity_z_operator(3))
        block_ours = Operator(sectors.restrict(ham.mat)[0])
        assert block_ours.dim == 4
        assert block_ours.is_hermitian(1e-12)
        assert np.allclose(
            np.linalg.eigvalsh(block_ours.mat),
            np.linalg.eigvalsh(block_direct),
            atol=1e-10,
        )

    def test_block_reconstruction(self):
        spec = xyz3()
        ham = spec.hamiltonian()
        sectors = sector_decompose(parity_z_operator(3))
        rebuilt = sum(
            iso @ block @ iso.conj().T
            for iso, block in zip(sectors.isometries, sectors.restrict(ham.mat))
        )
        assert np.allclose(rebuilt, ham.mat, atol=1e-10)

    def test_noncommuting_operator_rejected_with_norm(self):
        # restriction itself checks nothing; restricted_closure refuses a
        # generator that does not commute with S, and names the norm
        spec = tfim_boundary_dephasing(3, 1.0, 0.5)
        sectors = sector_decompose(parity_z_operator(3))
        ham = spec.hamiltonian().mat
        norm = np.linalg.norm(sectors.unitary.mat @ ham - ham @ sectors.unitary.mat)
        with pytest.raises(ValueError, match="commute.*" + re.escape(f"{norm:.3e}")):
            restricted_closure([spec.hamiltonian()], sectors)

    def test_morphism_on_commutant(self):
        rng = np.random.default_rng(9)
        s_op = parity_z_operator(3)
        sectors = sector_decompose(s_op)
        projectors = [iso @ iso.conj().T for iso in sectors.isometries]
        for _ in range(5):
            mats = []
            for _ in range(2):
                raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
                mats.append(sum(p @ raw @ p for p in projectors))
            a, b = mats
            for lhs, a_blk, b_blk in zip(
                sectors.restrict(a @ b), sectors.restrict(a), sectors.restrict(b)
            ):
                assert np.allclose(lhs, a_blk @ b_blk, atol=1e-10)


class TestInvariantBlocks:
    def test_xyz_blocks_invariant(self):
        spec = xyz3()
        sectors = sector_decompose(parity_z_operator(3))
        result = verify_invariant_blocks(spec, sectors, trials=20, seed=0)
        assert result.status == "passed"
        assert result.max_leak <= 1e-10

    def test_tight_binding_blocks_invariant(self):
        spec = tight_binding_dephasing(3, 1.0, 0.3, 0.8)
        sectors = sector_decompose(u1_number_operator(3))
        result = verify_invariant_blocks(spec, sectors, trials=10, seed=1)
        assert result.status == "passed"

    @pytest.mark.parametrize(
        "spec,sectors",
        [
            (tight_binding_dephasing(3, 1.0, 0.3, 0.8), sector_decompose(u1_number_operator(3))),
            # parity broken by 1e-9 X_1: the commutators pass the 1e-8
            # check, the blocks leak at about 1e-9
            (
                ModelSpec(3, xyz3().hamiltonian_terms + [PauliTerm(1e-9, [(1, "X")])],
                          xyz3().lindblad_ops),
                sector_decompose(parity_z_operator(3)),
            ),
            dense_frame_case(),
            dense_frame_case(field=1e-9),
        ],
        ids=["tight_binding_n3", "broken_parity", "dense_frame", "broken_dense_frame"],
    )
    def test_batched_trials_match_the_loop(self, spec, sectors):
        expected = loop_max_leak(spec, sectors, trials=7, seed=3)
        result = verify_invariant_blocks(spec, sectors, trials=7, seed=3)
        assert result.status == ("passed" if expected <= 1e-10 else "failed")
        assert abs(result.max_leak - expected) <= 1e-14

    def test_skipped_when_symmetry_absent(self):
        spec = tfim_boundary_dephasing(3, 1.0, 0.5)
        sectors = sector_decompose(parity_z_operator(3))
        result = verify_invariant_blocks(spec, sectors, trials=5, seed=0)
        assert result.status == "skipped"
        assert "not a strong symmetry" in result.detail
        assert not result

    def test_each_diagonal_block_contains_a_steady_state(self):
        # every diagonal block of a strong-symmetry model hosts >= 1 kernel vector
        cases = [
            (xyz_bulk_dephasing(4, 1.0, 0.5, 0.3, 0.7, 1.0), parity_z_operator(4)),
            (tight_binding_dephasing(4, 1.0, 0.3, 0.8), u1_number_operator(4)),
        ]
        for spec, s_op in cases:
            sectors = sector_decompose(s_op)
            ham, jumps = spec.operators()
            assert verify_strong_symmetry(s_op, spec).ok
            l_blocks = [sectors.restrict(j.mat) for j in jumps]
            for a, h_block in enumerate(sectors.restrict(ham.mat)):
                lm = assemble_matrices(h_block, [blocks[a] for blocks in l_blocks])
                assert kernel_and_values(lm, 1e-9)[0].shape[1] >= 1
