import json
import math
import warnings

import numpy as np
import pytest

from lindblad_certify.modelspec import (
    BUILDERS,
    ModelParseError,
    ModelSpec,
    ModelValidationError,
    build_builtin,
    compass_dephasing,
    load_model,
    parse_bonds,
    parse_model,
    serialize_model,
    tfim_boundary_dephasing,
    tight_binding_dephasing,
    tight_binding_lattice,
    two_level_gain_loss,
    xyz_bulk_dephasing,
    xyz_lattice,
)
from lindblad_certify.opalg import Operator, PauliTerm, SINGLE_SITE, jordan_wigner

I2 = np.eye(2, dtype=complex)


def embed(op, site, n):
    """Independent little-endian embedding used as an oracle."""
    return np.kron(np.kron(np.eye(2 ** (n - site)), op), np.eye(2 ** (site - 1)))


MINIMAL = json.dumps(
    {
        "n_sites": 1,
        "particle_kind": "spin_half",
        "hamiltonian": [{"coeff": [1.0, 0.0], "factors": [{"site": 1, "op": "Z"}]}],
        "lindblad": [
            {"label": "L_1", "terms": [{"coeff": [1.0, 0.0], "factors": [{"site": 1, "op": "Z"}]}]}
        ],
        "symmetries": [],
    }
)


class TestParse:
    def test_minimal_model(self):
        spec = parse_model(MINIMAL)
        assert spec.n_sites == 1
        assert len(spec.lindblad_ops) == 1
        ham, jumps = spec.operators()
        assert np.array_equal(ham.mat, np.diag([1.0 + 0j, -1.0]))
        assert len(jumps) == 1

    def test_syntax_error_carries_position(self):
        with pytest.raises(ModelParseError) as err:
            parse_model("{\n  broken")
        assert err.value.lineno == 2

    def test_out_of_range_site(self):
        data = json.loads(MINIMAL)
        data["n_sites"] = 2
        data["hamiltonian"][0]["factors"][0]["site"] = 3
        with pytest.raises(ModelValidationError, match="site 3"):
            parse_model(json.dumps(data))

    def test_no_lindblad_rejected(self):
        data = json.loads(MINIMAL)
        data["lindblad"] = []
        with pytest.raises(ModelValidationError, match="at least one Lindblad"):
            parse_model(json.dumps(data))

    def test_duplicate_site_in_term_rejected(self):
        data = json.loads(MINIMAL)
        data["hamiltonian"][0]["factors"] = [
            {"site": 1, "op": "X"},
            {"site": 1, "op": "Z"},
        ]
        with pytest.raises(ModelValidationError, match="twice"):
            parse_model(json.dumps(data))

    def test_factors_sorted_canonically(self):
        data = json.loads(MINIMAL)
        data["n_sites"] = 2
        data["hamiltonian"] = [
            {
                "coeff": [1.0, 0.0],
                "factors": [{"site": 2, "op": "X"}, {"site": 1, "op": "Y"}],
            }
        ]
        spec = parse_model(json.dumps(data))
        assert spec.hamiltonian_terms[0].factors == ((1, "Y"), (2, "X"))

    def test_bad_coeff_shape(self):
        data = json.loads(MINIMAL)
        data["hamiltonian"][0]["coeff"] = [1.0]
        with pytest.raises(ModelValidationError, match="re, im"):
            parse_model(json.dumps(data))

    def test_unknown_symmetry_name(self):
        data = json.loads(MINIMAL)
        data["symmetries"] = ["parity_x"]
        with pytest.raises(ModelValidationError, match="parity_x"):
            parse_model(json.dumps(data))

    def test_custom_matrix_symmetry(self):
        data = json.loads(MINIMAL)
        data["symmetries"] = [{"matrix": [[1, 0], [0, 0], [0, 0], [-1, 0]]}]
        spec = parse_model(json.dumps(data))
        sym = spec.declared_symmetries[0]
        assert isinstance(sym, Operator)
        assert np.array_equal(sym.mat, np.diag([1.0 + 0j, -1.0]))

    def test_non_unitary_matrix_rejected(self):
        data = json.loads(MINIMAL)
        data["symmetries"] = [{"matrix": [[2, 0], [0, 0], [0, 0], [1, 0]]}]
        with pytest.raises(ModelValidationError, match="unitary"):
            parse_model(json.dumps(data))

    def test_roundtrip_identical(self):
        for spec in (
            parse_model(MINIMAL),
            two_level_gain_loss(1.0, 2.0),
            xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0),
            tight_binding_dephasing(3, 1.0, 0.3, 0.8),
        ):
            again = parse_model(serialize_model(spec))
            assert again.to_dict() == spec.to_dict()

    def test_roundtrip_custom_matrix(self):
        data = json.loads(MINIMAL)
        data["symmetries"] = [{"matrix": [[0, 1], [0, 0], [0, 0], [0, -1]]}]
        spec = parse_model(json.dumps(data))
        again = parse_model(serialize_model(spec))
        assert again.to_dict() == spec.to_dict()

    def test_load_model(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(MINIMAL)
        assert load_model(path).n_sites == 1


class TestModelSpecValidation:
    def test_m_zero_rejected(self):
        with pytest.raises(ModelValidationError):
            ModelSpec(1, [], [])

    def test_bad_particle_kind(self):
        with pytest.raises(ModelValidationError):
            ModelSpec(1, [], [("L", [PauliTerm(1.0)])], particle_kind="boson")

    def test_symmetry_dim_mismatch(self):
        sym = Operator(np.eye(4))
        with pytest.raises(ModelValidationError, match="dim"):
            ModelSpec(1, [], [("L", [PauliTerm(1.0)])], declared_symmetries=[sym])

    def test_operator_cache_is_stable(self):
        spec = two_level_gain_loss(1.0, 2.0)
        first = spec.operators()
        assert spec.operators() is first


class TestTwoLevel:
    def test_gain_is_up_from_down(self):
        spec = two_level_gain_loss(1.0, 2.0)
        ham, (gain, loss) = spec.operators()
        assert ham.hs_norm() == 0
        assert np.allclose(gain.mat, [[0, 1], [0, 0]])
        assert np.allclose(loss.mat, [[0, 0], [math.sqrt(2), 0]])
        assert [label for label, _ in spec.lindblad_ops] == ["L_g", "L_l"]

    def test_optional_field(self):
        spec = two_level_gain_loss(1.0, 1.0, hx=0.5, hz=-1.0)
        expected = 0.5 * SINGLE_SITE["X"] - SINGLE_SITE["Z"]
        assert np.allclose(spec.hamiltonian().mat, expected)

    def test_rates_must_be_positive(self):
        with pytest.raises(ModelValidationError, match="gamma_g"):
            two_level_gain_loss(0.0, 1.0)
        with pytest.raises(ModelValidationError, match="gamma_l"):
            two_level_gain_loss(1.0, -2.0)


class TestTFIM:
    def test_matches_independent_construction(self):
        n, hx, gamma = 3, 1.0, 0.5
        spec = tfim_boundary_dephasing(n, hx, gamma)
        expected = np.zeros((8, 8), dtype=complex)
        for j in range(1, n):
            expected += embed(SINGLE_SITE["Z"], j, n) @ embed(SINGLE_SITE["Z"], j + 1, n)
        for j in range(1, n + 1):
            expected += hx * embed(SINGLE_SITE["X"], j, n)
        assert np.allclose(spec.hamiltonian().mat, expected, atol=1e-14)
        (jump,) = spec.lindblads()
        assert np.allclose(jump.mat, math.sqrt(gamma) * embed(SINGLE_SITE["Z"], 1, n))

    def test_term_count(self):
        spec = tfim_boundary_dephasing(3, 1.0, 0.5)
        # 2 ZZ bonds + 3 X fields
        assert len(spec.hamiltonian_terms) == 5
        assert len(spec.lindblad_ops) == 1

    def test_zero_field_warns_but_builds(self):
        with pytest.warns(UserWarning, match="h_x = 0"):
            spec = tfim_boundary_dephasing(3, 0.0, 0.5)
        assert spec.dim == 8

    def test_no_declared_symmetry(self):
        assert tfim_boundary_dephasing(3, 1.0, 0.5).declared_symmetries == []


class TestXYZ:
    def test_matches_independent_construction(self):
        n, jx, jy, jz, hz = 3, 1.0, 0.5, 0.3, 0.7
        spec = xyz_bulk_dephasing(n, jx, jy, jz, hz, 1.0)
        expected = np.zeros((8, 8), dtype=complex)
        for j in range(1, n + 1):
            k = j % n + 1
            for coupling, letter in ((jx, "X"), (jy, "Y"), (jz, "Z")):
                expected += coupling * embed(SINGLE_SITE[letter], j, n) @ embed(
                    SINGLE_SITE[letter], k, n
                )
            expected += hz * embed(SINGLE_SITE["Z"], j, n)
        assert np.allclose(spec.hamiltonian().mat, expected, atol=1e-14)
        assert len(spec.lindblads()) == n

    def test_declares_parity(self):
        assert xyz_bulk_dephasing(3, 1.0, 0.5).declared_symmetries == ["parity_z"]

    def test_equal_couplings_warn(self):
        with pytest.warns(UserWarning, match="Jx"):
            xyz_bulk_dephasing(3, 1.0, 1.0, 0.3)
        with pytest.warns(UserWarning, match="Jx"):
            xyz_bulk_dephasing(4, 1.0, -1.0, 0.3)

    def test_per_site_hz_is_kept_as_given(self):
        hz = {1: 0.1, 2: 0.2, 3: 0.3}
        spec = xyz_bulk_dephasing(3, 1.0, 0.5, hz=hz)
        ring = xyz_lattice(3, "1-2;2-3;3-1", Jx=1.0, Jy=0.5, hz=hz)
        assert np.array_equal(spec.hamiltonian().mat, ring.hamiltonian().mat)
        assert spec.metadata["params"]["hz"] == hz
        assert xyz_bulk_dephasing(3, 1.0, 0.5, hz=1).metadata["params"]["hz"] == 1.0

    def test_n2_literal_sum_doubles_bond(self):
        spec = xyz_bulk_dephasing(2, 1.0, 0.5, 0.0, 0.0, 1.0)
        expected = 2 * (
            np.kron(SINGLE_SITE["X"], SINGLE_SITE["X"])
            + 0.5 * np.kron(SINGLE_SITE["Y"], SINGLE_SITE["Y"])
        )
        assert np.allclose(spec.hamiltonian().mat, expected)


class TestCompass:
    def test_matches_formula_with_minus_signs(self):
        n, jx, jy = 4, 1.0, 0.7
        spec = compass_dephasing(n, jx, jy, 1.0)
        expected = np.zeros((16, 16), dtype=complex)
        for j in range(1, n // 2 + 1):
            expected -= jx * embed(SINGLE_SITE["X"], 2 * j - 1, n) @ embed(
                SINGLE_SITE["X"], 2 * j, n
            )
        for j in range(1, n // 2):
            expected -= jy * embed(SINGLE_SITE["Y"], 2 * j, n) @ embed(
                SINGLE_SITE["Y"], 2 * j + 1, n
            )
        assert np.allclose(spec.hamiltonian().mat, expected, atol=1e-14)
        assert len(spec.lindblads()) == n
        assert spec.declared_symmetries == ["parity_z"]

    def test_odd_n_rejected(self):
        with pytest.raises(ModelValidationError, match="even"):
            compass_dephasing(3, 1.0, 0.7)

    def test_zero_coupling_warns(self):
        with pytest.warns(UserWarning, match="disconnect"):
            compass_dephasing(4, 0.0, 0.7)

    def test_zero_coupling_on_no_bond_does_not_warn(self):
        # N = 2 has no Y bond, so Jy = 0 leaves its one X bond joining both sites
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = compass_dephasing(2, 1.0, 0.0)
        assert spec.to_dict() == compass_dephasing(2, 1.0, 0.5).to_dict() | {
            "metadata": {"builtin": "compass_dephasing",
                         "params": {"N": 2, "Jx": 1.0, "Jy": 0.0, "gamma": 1.0}}}


class TestTightBinding:
    def test_hamiltonian_matches_mode_operators(self):
        n, t, delta = 4, 1.0, 0.3
        spec = tight_binding_dephasing(n, t, delta, 0.8)
        expected = delta * np.eye(2**n, dtype=complex)
        for j in range(1, n + 1):
            k = j % n + 1
            cd_j = jordan_wigner(j, "create", n).mat
            cd_k = jordan_wigner(k, "create", n).mat
            a_j = jordan_wigner(j, "annihilate", n).mat
            a_k = jordan_wigner(k, "annihilate", n).mat
            expected += t * (cd_j @ a_k + cd_k @ a_j)
        assert np.allclose(spec.hamiltonian().mat, expected, atol=1e-14)

    def test_jumps_are_number_operators(self):
        n, gamma = 3, 0.8
        spec = tight_binding_dephasing(n, 1.0, 0.3, gamma)
        for j, jump in enumerate(spec.lindblads(), start=1):
            expected = math.sqrt(gamma) * jordan_wigner(j, "number", n).mat
            assert np.allclose(jump.mat, expected, atol=1e-14)

    def test_declares_number_symmetry(self):
        spec = tight_binding_dephasing(3, 1.0)
        assert spec.declared_symmetries == ["u1_number"]
        assert spec.particle_kind == "fermion"

    def test_delta_recorded_even_when_zero(self):
        spec = tight_binding_dephasing(3, 1.0, 0.0, 0.8)
        assert spec.metadata["params"]["delta"] == 0.0

    def test_delta_default(self):
        spec = tight_binding_dephasing(3, 1.0)
        assert spec.metadata["params"]["delta"] == 0.3

    def test_zero_hopping_warns(self):
        with pytest.warns(UserWarning) as record:
            tight_binding_dephasing(3, 0.0)
        # one warning per dropped ring bond, then the graph they leave
        messages = [str(w.message) for w in record]
        assert [m[:5] for m in messages[:3]] == ["t = 0"] * 3
        assert messages[3].startswith("bond graph is disconnected")


class TestLattice:
    def test_parse_bonds_string(self):
        assert parse_bonds("1-2;2-3", 3) == [(1, 2), (2, 3)]
        assert parse_bonds("3-1", 3) == [(1, 3)]

    def test_parse_bonds_errors(self):
        with pytest.raises(ModelValidationError):
            parse_bonds("1-2-3", 3)
        with pytest.raises(ModelValidationError):
            parse_bonds("1-4", 3)
        with pytest.raises(ModelValidationError):
            parse_bonds("2-2", 3)

    def test_connectivity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xyz_lattice(4, "1-2;2-3;3-4", Jx=1.0, Jy=0.5)
            xyz_lattice(1, [], Jx=1.0, Jy=0.5)
        with pytest.warns(UserWarning, match="disconnected"):
            tight_binding_lattice(4, "1-2;3-4", t=1.0)

    def test_bond_references_checked(self):
        with pytest.raises(ModelValidationError, match="outside"):
            xyz_lattice(2, [(1, 5)], Jx=1.0, Jy=0.5)

    def test_ring_lattice_equals_bulk_builder(self):
        n = 4
        ring = "1-2;2-3;3-4;4-1"
        lat = xyz_lattice(n, ring, Jx=1.0, Jy=0.5, Jz=0.3, hz=0.7, gamma=1.0)
        bulk = xyz_bulk_dephasing(n, 1.0, 0.5, 0.3, 0.7, 1.0)
        assert np.array_equal(lat.hamiltonian().mat, bulk.hamiltonian().mat)
        for a, b in zip(lat.lindblads(), bulk.lindblads()):
            assert np.array_equal(a.mat, b.mat)

    def test_disconnected_warns(self):
        with pytest.warns(UserWarning, match="disconnected"):
            xyz_lattice(4, "1-2;3-4", Jx=1.0, Jy=0.5)

    def test_dropped_hopping_bond_disconnects(self):
        # t = 0 on (2, 3) drops the only bond to site 3
        with pytest.warns(UserWarning) as record:
            tight_binding_lattice(3, "1-2;2-3", t={(1, 2): 1.0, (2, 3): 0.0})
        messages = [str(w.message) for w in record]
        assert "bond dropped" in messages[0]
        assert "disconnected" in messages[1]

    def test_uncoupled_xyz_bond_disconnects(self):
        # every coupling on (2, 3) is zero, which leaves site 3 alone
        zero_on_23 = {"Jx": 1.0, "Jy": 0.5, "Jz": 0.3}
        couplings = {k: {(1, 2): v, (2, 3): 0.0} for k, v in zero_on_23.items()}
        with pytest.warns(UserWarning) as record:
            xyz_lattice(3, "1-2;2-3", **couplings)
        assert any("disconnected" in str(w.message) for w in record)

    def test_per_bond_couplings(self):
        lat = xyz_lattice(
            3,
            "1-2;2-3",
            Jx={(1, 2): 1.0, (2, 3): 0.8},
            Jy={(1, 2): 0.5, (2, 3): 0.2},
            gamma={1: 1.0, 2: 2.0, 3: 3.0},
        )
        jumps = lat.lindblads()
        # L_2 = sqrt(2) Z_2 embedded in 3 sites: norm sqrt(2) * sqrt(8)
        assert jumps[1].hs_norm() == pytest.approx(math.sqrt(2.0) * math.sqrt(8.0))

    def test_tight_binding_lattice_chain(self):
        spec = tight_binding_lattice(3, "1-2;2-3", t=1.0, delta=0.3, gamma=0.8)
        expected = 0.3 * np.eye(8, dtype=complex)
        for j, k in ((1, 2), (2, 3)):
            expected += (
                jordan_wigner(j, "create", 3).mat @ jordan_wigner(k, "annihilate", 3).mat
                + jordan_wigner(k, "create", 3).mat @ jordan_wigner(j, "annihilate", 3).mat
            )
        assert np.allclose(spec.hamiltonian().mat, expected, atol=1e-14)

    def test_complex_hopping_still_hermitian(self):
        spec = tight_binding_lattice(3, "1-2;2-3;1-3", t={(1, 2): 1j, (2, 3): 1.0, (1, 3): 0.5}, delta=0.1)
        assert spec.hamiltonian().is_hermitian(1e-12)


ALL_BUILTIN_CALLS = [
    ("two_level_gain_loss", {"gamma_g": 1.0, "gamma_l": 2.0}),
    ("tfim_boundary_dephasing", {"N": 4, "h_x": 1.0, "gamma": 0.5}),
    ("xyz_bulk_dephasing", {"N": 4, "Jx": 1.0, "Jy": 0.5, "Jz": 0.3, "hz": 0.7, "gamma": 1.0}),
    ("compass_dephasing", {"N": 4, "Jx": 1.0, "Jy": 0.7, "gamma": 1.0}),
    ("tight_binding_dephasing", {"N": 4, "t": 1.0, "delta": 0.3, "gamma": 0.8}),
    ("xyz_lattice", {"N": 4, "bonds": "1-2;2-3;3-4", "Jx": 1.0, "Jy": 0.5, "Jz": 0.3}),
    ("tight_binding_lattice", {"N": 4, "bonds": "1-2;2-3;3-4", "t": 1.0}),
]


class TestBuiltinRegistry:
    @pytest.mark.parametrize("name,params", ALL_BUILTIN_CALLS)
    def test_operators_finite_and_hermitian(self, name, params):
        spec = build_builtin(name, params)
        ham, jumps = spec.operators()
        assert np.isfinite(ham.mat).all()
        assert ham.is_hermitian(1e-12)
        for jump in jumps:
            assert np.isfinite(jump.mat).all()
        if name not in ("two_level_gain_loss",):
            # every dephasing-type jump operator is Hermitian
            for jump in jumps:
                assert jump.is_hermitian(1e-12)

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(ModelValidationError) as err:
            build_builtin("bogus", {})
        for name in BUILDERS:
            assert name in str(err.value)

    def test_bad_params_report_signature(self):
        with pytest.raises(ModelValidationError, match="expected two_level_gain_loss"):
            build_builtin("two_level_gain_loss", {"gamma": 1.0})

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelValidationError, match="gamma"):
            build_builtin("tfim_boundary_dephasing", {"N": 3, "h_x": 1.0, "gamma": -0.5})

    @pytest.mark.parametrize("name,params", ALL_BUILTIN_CALLS)
    def test_metadata_records_resolved_params(self, name, params):
        spec = build_builtin(name, params)
        assert spec.metadata["builtin"] == name
        assert "params" in spec.metadata
