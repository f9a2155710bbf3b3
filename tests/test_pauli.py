"""The generator on Pauli strings against dense matrices and the matrix-unit path."""

import tracemalloc
from math import comb

import numpy as np
import pytest

from lindblad_certify.liouvillian import (
    _blocks,
    apply,
    assemble,
    assemble_matrices,
    kernel_and_values,
    unvec,
    vec,
)
from lindblad_certify.modelspec import MINUS, PLUS, X, Y, Z, ModelSpec, build_builtin
from lindblad_certify.opalg import Operator, PauliTerm, pauli_to_operator
from lindblad_certify import pauli
from lindblad_certify.pauli import generator_form, product_power, strings
from test_cli import non_hermitian_two_level
from test_liouvillian import BUILTINS_UP_TO_N3

LETTERS = {(0, 0): None, (1, 0): X, (0, 1): Z, (1, 1): Y}


def string_matrix(s, n_sites):
    """P_s as a dense matrix, embedded through pauli_to_operator."""
    d = 2**n_sites
    x, z = s // d, s % d
    factors = [
        (j + 1, LETTERS[(x >> j & 1, z >> j & 1)])
        for j in range(n_sites)
        if (x >> j & 1, z >> j & 1) != (0, 0)
    ]
    return pauli_to_operator([PauliTerm(1.0, factors)], n_sites).mat


def pauli_coordinates(mat, n_sites):
    """Coordinates of a d x d matrix on the orthonormal strings P/√d."""
    d = 2**n_sites
    return np.array([np.vdot(string_matrix(a, n_sites), mat) for a in range(d * d)]) / np.sqrt(d)


def adjoint(term):
    swap = {PLUS: MINUS, MINUS: PLUS}
    return PauliTerm(term.coeff.conjugate(), [(s, swap.get(o, o)) for s, o in term.factors])


def random_terms(rng, n_sites, count):
    """Terms with complex coefficients on random sites, ladder factors included."""
    terms = []
    for _ in range(count):
        k = int(rng.integers(1, n_sites + 1))
        sites = sorted(rng.choice(np.arange(1, n_sites + 1), size=k, replace=False))
        letters = [(X, Y, Z, PLUS, MINUS)[int(i)] for i in rng.integers(0, 5, size=k)]
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append(PauliTerm(coeff, list(zip(map(int, sites), letters))))
    return terms


def random_model(rng, n_sites):
    """A Hermitian H (random terms plus their adjoints) and complex jumps."""
    ham = random_terms(rng, n_sites, 3)
    jumps = [(f"L_{m}", random_terms(rng, n_sites, int(rng.integers(1, 4)))) for m in range(2)]
    return ModelSpec(n_sites, ham + [adjoint(t) for t in ham], jumps)


RANDOM_MODELS = [(n, seed) for n in (1, 2, 3) for seed in range(3)]


class TestProductRule:
    def test_all_single_site_pairs(self):
        for t in range(4):
            for b in range(4):
                p = int(product_power(1, t, b))
                expected = 1j**p * string_matrix(t ^ b, 1)
                assert np.array_equal(string_matrix(t, 1) @ string_matrix(b, 1), expected), (t, b)

    @pytest.mark.parametrize("n_sites", [3, 5])
    def test_random_strings(self, n_sites):
        # three sites read the product table, five count bits
        rng = np.random.default_rng(n_sites)
        t, b = rng.integers(0, 4**n_sites, size=(2, 40))
        powers = product_power(n_sites, t, b)
        for ti, bi, p in zip(t, b, powers):
            expected = 1j ** int(p) * string_matrix(ti ^ bi, n_sites)
            assert np.array_equal(string_matrix(ti, n_sites) @ string_matrix(bi, n_sites), expected)

    def test_strings_of_terms_match_the_dense_sum(self):
        rng = np.random.default_rng(1)
        for n_sites in (1, 2, 3):
            terms = random_terms(rng, n_sites, 6)
            coeffs = strings(terms, n_sites)
            total = sum(c * string_matrix(s, n_sites) for s, c in coeffs.items())
            assert np.abs(total - pauli_to_operator(terms, n_sites).mat).max() <= 1e-14

    def test_cancelled_strings_are_dropped(self):
        # (X Y - Y X) of a real hop cancels exactly, leaving XX and YY
        hop = [PauliTerm(1.0, [(1, MINUS), (2, PLUS)]), PauliTerm(1.0, [(1, PLUS), (2, MINUS)])]
        assert strings(hop, 2) == {(3 << 2) | 0: 0.5, (3 << 2) | 3: 0.5}


def assert_columns_match_apply(spec):
    """Column b of the form is the string coordinates of L(P_b/√d)."""
    n_sites, d = spec.n_sites, spec.dim
    form = generator_form(spec)
    for b in range(d * d):
        image = apply(spec, Operator(string_matrix(b, n_sites) / np.sqrt(d))).mat
        assert np.abs(form.matrix[:, b] - pauli_coordinates(image, n_sites)).max() <= 1e-12


def assert_same_singular_values(spec):
    ham, jumps = spec.operators()
    form = generator_form(spec)
    ref = np.linalg.svd(assemble_matrices(ham.mat, [j.mat for j in jumps]).matrix, compute_uv=False)
    got = np.linalg.svd(form.matrix, compute_uv=False)
    assert np.abs(got - ref).max() <= 1e-12 * ref[0]
    assert form.imag_norm <= 1e-12 * ref[0]


BUILTIN_IDS = [f"{name}-N{params.get('N', 1)}" for name, params in BUILTINS_UP_TO_N3]


class TestPauliForm:
    @pytest.mark.parametrize("name,params", BUILTINS_UP_TO_N3, ids=BUILTIN_IDS)
    def test_builtin_columns_match_apply(self, name, params):
        assert_columns_match_apply(build_builtin(name, params))

    @pytest.mark.parametrize("n_sites,seed", RANDOM_MODELS)
    def test_random_columns_match_apply(self, n_sites, seed):
        assert_columns_match_apply(random_model(np.random.default_rng(seed), n_sites))

    @pytest.mark.parametrize("name,params", BUILTINS_UP_TO_N3, ids=BUILTIN_IDS)
    def test_builtin_singular_values_match_the_matrix_units(self, name, params):
        assert_same_singular_values(build_builtin(name, params))

    @pytest.mark.parametrize("n_sites,seed", RANDOM_MODELS)
    def test_random_singular_values_match_the_matrix_units(self, n_sites, seed):
        assert_same_singular_values(random_model(np.random.default_rng(seed), n_sites))

    def test_non_hermitian_h_leaves_the_imaginary_part_of_the_matrix_units(self):
        spec = non_hermitian_two_level()
        expected = assemble(spec).real_form()[1]
        assert expected > 1
        assert abs(generator_form(spec).imag_norm - expected) <= 1e-12 * expected

    def test_coordinates_map_to_the_column_stacked_strings(self):
        spec = build_builtin("tfim_boundary_dephasing", {"N": 2, "h_x": 1.0, "gamma": 0.5})
        vecs = generator_form(spec).to_vectors(np.eye(16))
        for b in range(16):
            assert np.abs(vecs[:, b] - vec(string_matrix(b, 2)) / 2).max() <= 1e-15

    @pytest.mark.parametrize("name,params", BUILTINS_UP_TO_N3, ids=BUILTIN_IDS)
    def test_kernel_matches_the_matrix_units(self, name, params):
        spec = build_builtin(name, params)
        got, svals = kernel_and_values(generator_form(spec), 1e-9)
        ref, ref_svals = kernel_and_values(assemble(spec), 1e-9)
        assert got.shape == ref.shape
        assert np.abs(svals - ref_svals).max() <= 1e-12 * ref_svals[0]
        assert np.abs(got @ got.conj().T - ref @ ref.conj().T).max() <= 1e-10
        for col in got.T:
            m = unvec(col, spec.dim)
            assert np.abs(m - m.conj().T).max() <= 1e-15

    def test_zero_generator_returns_the_identity(self):
        spec = ModelSpec(2, [], [("L_zero", [])])
        vecs, svals = kernel_and_values(generator_form(spec), 1e-9)
        assert np.array_equal(vecs, np.eye(16))
        assert np.array_equal(svals, np.zeros(16))

    def test_budget_guard(self):
        # d = 512 is over DEFAULT_MAX_DIM; the guard fires before any array
        spec = build_builtin("tfim_boundary_dephasing", {"N": 9, "h_x": 1.0, "gamma": 0.5})
        with pytest.raises(ValueError, match="budget"):
            generator_form(spec)


def many_string_jump_model(count, n_sites=4):
    """H = X_1 and one jump summing ``count`` distinct random strings."""
    rng = np.random.default_rng(0)
    d = 2**n_sites
    terms = []
    for s in rng.choice(np.arange(1, d * d), size=count, replace=False):
        x, z = divmod(int(s), d)
        factors = [
            (j + 1, LETTERS[(x >> j & 1, z >> j & 1)])
            for j in range(n_sites)
            if (x >> j & 1, z >> j & 1) != (0, 0)
        ]
        terms.append(PauliTerm(complex(*rng.standard_normal(2)), factors))
    return ModelSpec(n_sites, [PauliTerm(1.0, [(1, X)])], [("L_many", terms)])


class TestBlockedSums:
    """generator_form sums the jump pairs in blocks of bounded size."""

    def test_memory_does_not_grow_with_the_pairs(self):
        # 128 strings make 8256 pairs; summing them all at once took about
        # 190 MB of arrays, in blocks the peak is about 16 MB
        spec = many_string_jump_model(128)
        tracemalloc.start()
        try:
            form = generator_form(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20
        assert np.isfinite(form.matrix).all() and form.imag_norm <= 1e-12 * np.abs(form.matrix).max()

    def test_blocks_of_one_row_give_the_same_bits(self, monkeypatch):
        specs = [
            many_string_jump_model(12, n_sites=2),
            random_model(np.random.default_rng(7), 3),
            build_builtin("tight_binding_dephasing", {"N": 3, "t": 1.0, "delta": 0.3, "gamma": 0.8}),
            non_hermitian_two_level(),
        ]
        whole = [generator_form(spec) for spec in specs]
        monkeypatch.setattr(pauli, "_BLOCK_ENTRIES", 1)
        for spec, ref in zip(specs, whole):
            form = generator_form(spec)
            assert np.array_equal(form.matrix, ref.matrix)
            assert abs(form.imag_norm - ref.imag_norm) <= 1e-15 * ref.imag_norm

    def test_many_string_columns_match_apply(self):
        assert_columns_match_apply(many_string_jump_model(12, n_sites=2))


class TestExactness:
    def test_tfim_splits_into_majorana_degree_blocks(self):
        spec = build_builtin("tfim_boundary_dephasing", {"N": 5, "h_x": 1.0, "gamma": 0.5})
        sizes = sorted(
            size for group in _blocks(generator_form(spec).matrix)
            for size in [group.shape[1]] * len(group)
        )
        assert sizes == sorted(comb(10, k) for k in range(11))

    def test_xyz_has_no_roundoff_entries(self):
        # the matrix-unit generator of this model has 5.6e-17 entries where
        # it should have zeros: summing dense terms leaves one-ulp energies
        spec = build_builtin(
            "xyz_bulk_dephasing",
            {"N": 3, "Jx": 1.0, "Jy": 0.5, "Jz": 0.3, "hz": 0.7, "gamma": 1.0},
        )
        form = generator_form(spec)
        entries = np.abs(form.matrix[form.matrix != 0])
        assert entries.min() >= 1e-15
        assert form.imag_norm == 0

    def test_dephasing_cross_terms_cancel_exactly(self):
        # L = √γ n_1 = √γ (I - Z_1)/2 leaves -γ/2 on every coherence: its two
        # cross terms, λ_I conj(λ_Z) and λ_Z conj(λ_I), cancel to exact zeros
        spec = build_builtin("tight_binding_dephasing", {"N": 2, "t": 0.7, "delta": 0.2, "gamma": 0.913})
        form = generator_form(spec)
        assert np.abs(form.matrix[form.matrix != 0]).min() > 0.1
