"""Acceptance gate: every shipping requirement, each at its stated tolerance.

Each test covers one numbered criterion and reports through the scoreboard
in conftest.py, so a full run ends with one PASS/FAIL line per criterion.
Runtime limits are asserted with wall-clock timers around the relevant
computation only. Run as

    python3 -m pytest tests/test_acceptance.py -v
"""

import time
import warnings

import numpy as np
import pytest

from lindblad_certify.closure import (
    CERTIFIED_UNIQUE,
    algebra_closure,
    certifier_generators,
    certify_uniqueness,
    commutant,
)
from lindblad_certify.liouvillian import apply, assemble, kernel_and_values, spectrum
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
    tight_binding_lattice,
    two_level_gain_loss,
    xyz_bulk_dephasing,
    xyz_lattice,
)
from lindblad_certify.ness import full_verdict, per_sector_ness, steady_states
from lindblad_certify.opalg import Operator
from lindblad_certify.symmetry import (
    resolve_symmetry,
    sector_decompose,
    verify_invariant_blocks,
    verify_strong_symmetry,
)


def binomial(n, k):
    from math import comb

    return comb(n, k)


def test_two_level_gain_loss(criterion):
    with criterion(1, "two-level gain/loss certifies; H = 0 state is diag(1/3, 2/3)"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        for _ in range(3):
            hx, hy, hz = rng.standard_normal(3)
            report = full_verdict(two_level_gain_loss(1.0, 2.0, hx=hx, hy=hy, hz=hz))
            assert report.generation_verdict == CERTIFIED_UNIQUE
            assert report.kernel_dim == 1
            assert report.min_eigenvalues[0] > 0
        bare = full_verdict(two_level_gain_loss(1.0, 2.0))
        assert bare.generation_verdict == CERTIFIED_UNIQUE
        rho = bare.steady_states[0].mat
        assert np.linalg.norm(rho - np.diag([1 / 3, 2 / 3])) <= 1e-8
        assert time.perf_counter() - start < 1.0


def test_boundary_dephased_ising_chain(criterion):
    with criterion(2, "boundary-dephased Ising chain certifies at N = 3, 4, 5 with maximally mixed state"):
        for n in (3, 4, 5):
            start = time.perf_counter()
            report = full_verdict(tfim_boundary_dephasing(n, 1.0, 0.5))
            elapsed = time.perf_counter() - start
            d = 2**n
            assert report.generation_verdict == CERTIFIED_UNIQUE
            assert report.closure.generated_dim == d * d
            assert report.kernel_dim == 1
            rho = report.steady_states[0].mat
            assert np.linalg.norm(rho - np.eye(d) / d) <= 1e-8
            if n == 5:
                assert elapsed < 60.0


def test_ising_chain_without_transverse_field_is_refused(criterion):
    with criterion(3, "h_x = 0 control is not certified and the kernel is degenerate"):
        with pytest.warns(UserWarning):
            spec = tfim_boundary_dephasing(3, 0.0, 0.5)
        cert = certify_uniqueness(spec)
        assert cert.verdict != CERTIFIED_UNIQUE
        assert cert.closure.generated_dim < 64
        # independent rank count, straight off the generator matrix
        svals = np.linalg.svd(assemble(spec).matrix, compute_uv=False)
        assert int(np.sum(svals <= 1e-9 * svals[0])) > 1


def test_xyz_chain_certifies_per_parity_sector(criterion):
    with criterion(4, "XYZ chain: global check fails, parity sectors certify, equal couplings refuse"):
        for n in (3, 4):
            start = time.perf_counter()
            spec = xyz_bulk_dephasing(n, 1.0, 0.5, 0.3, 0.7, 1.0)
            S = resolve_symmetry(spec.declared_symmetries[0], spec)
            assert verify_strong_symmetry(S, spec).ok

            report = full_verdict(spec)
            assert report.generation_verdict != CERTIFIED_UNIQUE
            for sector in report.per_sector:
                assert sector.closure.generated_dim == sector.dim**2
                assert sector.kernel_dim == 1
                assert sector.distance_to_mixed <= 1e-8

            d = 2**n
            rows = np.array([op.mat.ravel() for op in report.hermitian_kernel_basis])
            for sign in (1.0, -1.0):
                target = ((np.eye(d) + sign * S.mat) / d).ravel()
                assert np.linalg.norm(target - (rows.conj() @ target) @ rows) <= 1e-8
            if n == 4:
                assert time.perf_counter() - start < 120.0

        with pytest.warns(UserWarning):
            equal = xyz_bulk_dephasing(3, 1.0, 1.0, 0.3, 0.7, 1.0)
        degenerate = per_sector_ness(equal, resolve_symmetry("parity_z", equal))
        assert not all(sector.certified for sector in degenerate.per_sector)


def test_dephased_hopping_chain_sectors(criterion):
    with criterion(5, "hopping chain: number sectors certify; kernel independent of the energy offset"):
        for n in (4, 5):
            spec = tight_binding_dephasing(n, 1.0, delta=0.3, gamma=0.8)
            S = resolve_symmetry(spec.declared_symmetries[0], spec)
            assert verify_strong_symmetry(S, spec).ok

            report = per_sector_ness(spec, S)
            dims = sorted(sector.dim for sector in report.per_sector)
            assert dims == sorted(binomial(n, k) for k in range(n + 1))
            for sector in report.per_sector:
                assert sector.closure.generated_dim == sector.dim**2
                assert sector.certified
                assert sector.kernel_dim == 1
                assert sector.distance_to_mixed <= 1e-8

            flat = tight_binding_dephasing(n, 1.0, delta=0.0, gamma=0.8)
            W_offset = kernel_and_values(assemble(spec))[0]
            W_flat = kernel_and_values(assemble(flat))[0]
            assert W_offset.shape[1] == W_flat.shape[1]
            # largest principal angle between the two kernel subspaces, via its sine
            residual = W_offset - W_flat @ (W_flat.conj().T @ W_offset)
            assert np.linalg.norm(residual, 2) <= 1e-8


def test_alternating_bond_chain_and_disconnected_control(criterion):
    with criterion(6, "alternating-bond chain certifies per parity sector; disconnected lattice does not"):
        spec = compass_dephasing(4, 1.0, 0.7, 1.0)
        report = per_sector_ness(spec, resolve_symmetry("parity_z", spec))
        assert len(report.per_sector) == 2
        for sector in report.per_sector:
            assert sector.certified
            assert sector.kernel_dim == 1

        with pytest.warns(UserWarning):
            split = xyz_lattice(4, [(1, 2), (3, 4)], 1.0, 0.5, 0.3, hz=0.7, gamma=1.0)
        broken = per_sector_ness(split, resolve_symmetry("parity_z", split))
        assert not all(sector.certified for sector in broken.per_sector)


def test_commutant_cross_check(criterion):
    with criterion(7, "commutant cross-check: trivial where certified, two-dimensional with the parity element otherwise"):
        tfim = tfim_boundary_dephasing(3, 1.0, 0.5)
        gens = [tfim.hamiltonian()] + list(tfim.lindblads())
        gens += [L.dag() for L in tfim.lindblads()]
        assert commutant(gens, tfim.dim).commutant_dim == 1

        xyz = xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0)
        gens = [xyz.hamiltonian()] + list(xyz.lindblads())
        gens += [L.dag() for L in xyz.lindblads()]
        result = commutant(gens, xyz.dim)
        assert result.commutant_dim == 2
        S = resolve_symmetry("parity_z", xyz)
        # S lies in the commutant's span, so extending by it adds nothing
        assert result.basis.extend_block(S.mat.reshape(1, -1), 1e-9)[0] == []


def test_soundness_sweep(criterion):
    with criterion(8, "soundness sweep: 50 random models, no certificate with a degenerate kernel or non-positive state"):
        start = time.perf_counter()
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
                    [random_term(n, letters_l, complex(*rng.standard_normal(2)))],
                )
                for m in range(int(rng.integers(1, 4)))
            ]
            report = full_verdict(ModelSpec(n, ham, jumps))
            assert report.all_consistent
            if report.generation_verdict == CERTIFIED_UNIQUE:
                certified += 1
                assert report.kernel_dim == 1
                assert report.min_eigenvalues[0] > 0
        assert certified >= 10, "sweep never exercised the certified branch"
        assert time.perf_counter() - start < 300.0


def test_structural_invariants_on_every_builtin(criterion):
    with criterion(9, "structural invariants hold on every builtin model"):
        builtins = [
            two_level_gain_loss(1.0, 2.0, hx=0.3),
            tfim_boundary_dephasing(3, 1.0, 0.5),
            xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0),
            compass_dephasing(2, 1.0, 0.7, 1.0),
            tight_binding_dephasing(3, 1.0, delta=0.3, gamma=0.8),
            xyz_lattice(3, [(1, 2), (2, 3)], 1.0, 0.5, 0.3, hz=0.7, gamma=1.0),
            tight_binding_lattice(3, [(1, 2), (2, 3)], 1.0, delta=0.3, gamma=0.8),
        ]
        rng = np.random.default_rng(11)
        for spec in builtins:
            d = spec.dim
            raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = Operator((raw + raw.conj().T) / 2)
            image = apply(spec, rho)
            assert abs(np.trace(image.mat)) <= 1e-10
            assert np.linalg.norm(image.mat - image.mat.conj().T) <= 1e-10

            assert spectrum(assemble(spec)).real.max() <= 1e-10

            if spec.declared_symmetries:
                S = resolve_symmetry(spec.declared_symmetries[0], spec)
                sectors = sector_decompose(S)
                check = verify_invariant_blocks(spec, sectors, trials=20, seed=0)
                assert check.status == "passed", check.detail

            gens = certifier_generators(spec)
            closed = algebra_closure(gens, d)
            again = algebra_closure(closed.basis.vectors, d)
            assert again.generated_dim == closed.generated_dim
            assert again.rounds <= 1
            scaled = algebra_closure([g * 2j for g in gens], d)
            assert scaled.generated_dim == closed.generated_dim
