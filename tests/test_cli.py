"""Front-end behavior: exit codes, JSON schema and determinism, fixtures.

Fixtures under tests/fixtures/ are full-pipeline JSON reports for the
builtin models. To regenerate after an intentional schema change:

    python3 -c "from tests.test_cli import regenerate_fixtures; regenerate_fixtures()"

run from the repository root, then review the diff before committing.
Commit regenerated fixtures only when the cross-driver test
(test_fixture_regression_under_gesvd) and the single-thread subprocess
test also pass: a report that changes with the LAPACK driver or the BLAS
thread count is serialising roundoff or LAPACK's choice of basis, and the
fixtures would not reproduce elsewhere.
"""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg

import lindblad_certify
from lindblad_certify import ness
from lindblad_certify.cli import build_parser, run
from lindblad_certify.modelspec import (
    ModelSpec,
    PauliTerm,
    serialize_model,
    tight_binding_dephasing,
    two_level_gain_loss,
    xyz_bulk_dephasing,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def non_hermitian_two_level():
    """The two-level gain/loss model with H = i Z_1, which is not Hermitian.

    -i[H, rho] then maps Hermitian operators to anti-Hermitian ones, which
    the kernel solve refuses: a real numerical failure at any tol.
    """
    return ModelSpec(1, [PauliTerm(1j, [(1, "Z")])], two_level_gain_loss(1.0, 2.0).lindblad_ops)


FIXTURES = {
    "two_level_full.json": [
        "full", "--builtin", "two_level_gain_loss",
        "-p", "gamma_g=1", "-p", "gamma_l=2",
    ],
    "tfim_n3_full.json": [
        "full", "--builtin", "tfim_boundary_dephasing",
        "-p", "N=3", "-p", "h_x=1", "-p", "gamma=0.5",
    ],
    "xyz_n3_full.json": [
        "full", "--builtin", "xyz_bulk_dephasing",
        "-p", "N=3", "-p", "Jx=1", "-p", "Jy=0.5", "-p", "Jz=0.3",
        "-p", "hz=0.7", "-p", "gamma=1",
    ],
    "compass_n4_full.json": [
        "full", "--builtin", "compass_dephasing",
        "-p", "N=4", "-p", "Jx=1", "-p", "Jy=0.7", "-p", "gamma=1",
    ],
    "tight_binding_n3_full.json": [
        "full", "--builtin", "tight_binding_dephasing",
        "-p", "N=3", "-p", "t=1", "-p", "delta=0.3", "-p", "gamma=0.8",
    ],
}
# the other analysis commands, on the same models as the full reports above
for _prefix, _commands in [
    ("xyz_n3", ["check", "commutant", "ness", "sectors"]),
    ("tight_binding_n3", ["ness", "sectors"]),
]:
    for _command in _commands:
        FIXTURES[f"{_prefix}_{_command}.json"] = (
            [_command] + FIXTURES[f"{_prefix}_full.json"][1:]
        )

XYZ3 = [
    "--builtin", "xyz_bulk_dephasing",
    "-p", "N=3", "-p", "Jx=1", "-p", "Jy=0.5", "-p", "Jz=0.3", "-p", "hz=0.7",
]
TWO_LEVEL = ["--builtin", "two_level_gain_loss", "-p", "gamma_g=1", "-p", "gamma_l=2"]
# a tight-binding chain whose kernel is degenerate (dimension 4)
TIGHT_BINDING_DEGENERATE = [
    "--builtin", "tight_binding_dephasing",
    "-p", "N=3", "-p", "t=0.499", "-p", "delta=0.227", "-p", "gamma=1.279",
]


def regenerate_fixtures():
    for name, argv in FIXTURES.items():
        code = run(argv + ["--json", "--out", str(FIXTURE_DIR / name)])
        assert code == 0, (name, code)


def load_schema():
    text = resources.files("lindblad_certify").joinpath("report_schema.json").read_text()
    return json.loads(text)


def run_json(argv, capsys):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_timings(doc):
    doc = json.loads(json.dumps(doc))
    doc["report"].pop("timings", None)
    return doc


def gesvd(a, full_matrices=True, compute_uv=True, hermitian=False):
    """np.linalg.svd computed by LAPACK's gesvd instead of gesdd."""
    return scipy.linalg.svd(
        a, full_matrices=full_matrices, compute_uv=compute_uv, lapack_driver="gesvd"
    )


def assert_matches_fixture(name, path):
    fresh = strip_timings(json.loads(Path(path).read_text()))
    stored = strip_timings(json.loads((FIXTURE_DIR / name).read_text()))
    assert fresh == stored


class TestExitCodes:
    def test_missing_model_file(self, capsys):
        assert run(["check", "--model", "badpath.json"]) == 2
        assert "badpath.json" in capsys.readouterr().err

    def test_unknown_builtin_lists_the_choices(self, capsys):
        assert run(["check", "--builtin", "nope"]) == 2
        err = capsys.readouterr().err
        assert "tfim_boundary_dephasing" in err
        assert "xyz_bulk_dephasing" in err

    def test_malformed_parameter(self, capsys):
        assert run(["check", "--builtin", "two_level_gain_loss", "-p", "gamma_g"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_parameters_require_builtin(self, capsys):
        assert run(["check", "--model", "x.json", "-p", "N=3"]) == 2

    def test_sectors_needs_a_declared_symmetry(self, capsys):
        assert run(["sectors"] + TWO_LEVEL) == 2
        assert "declares no symmetry" in capsys.readouterr().err

    def test_nonpositive_tol(self, capsys):
        # every closure ratio is below 1, so a tol of 1 or more accepts nothing
        for tol in ["-1", "0", "1", "1e300", "nan", "inf"]:
            for flags in ([], ["--json"]):
                argv = ["check"] + TWO_LEVEL + ["--tol", tol] + flags
                assert run(argv) == 2, argv
                captured = capsys.readouterr()
                assert "--tol must lie strictly between 0 and 1" in captured.err
                assert "Traceback" not in captured.err
                assert captured.out == ""

    @pytest.mark.parametrize("command", ["check", "ness", "sectors", "commutant", "spectrum", "full"])
    def test_negative_seed(self, command, capsys):
        for flags in ([], ["--json"]):
            argv = [command] + XYZ3 + ["--seed", "-1"] + flags
            assert run(argv) == 2, argv
            captured = capsys.readouterr()
            assert "--seed must be a non-negative integer" in captured.err
            assert "Traceback" not in captured.err
            assert captured.out == ""

    def test_numerical_failure_is_three(self, tmp_path, capsys):
        path = tmp_path / "non_hermitian.json"
        path.write_text(serialize_model(non_hermitian_two_level()))
        assert run(["ness", "--model", str(path)]) == 3
        err = capsys.readouterr().err
        assert "[kernel] the generator does not preserve Hermiticity" in err
        assert "Traceback" not in err

    def test_inconclusive_is_four(self, capsys):
        argv = ["check", "--builtin", "tfim_boundary_dephasing",
                "-p", "N=3", "-p", "h_x=1", "-p", "gamma=0.5", "--max-basis", "10"]
        assert run(argv) == 4

    def test_negative_verdict_still_completes(self, capsys):
        # exit status reflects whether the analysis ran, not which way it went
        assert run(["check"] + XYZ3) == 0
        assert "not_certified" in capsys.readouterr().out

    def test_out_of_memory_is_five(self, monkeypatch, capsys):
        def exhausted(report, spec):
            raise MemoryError("Unable to allocate 45.0 GiB")

        monkeypatch.setattr(ness, "_commutant_stage", exhausted)
        assert run(["full"] + TWO_LEVEL) == 5
        err = capsys.readouterr().err
        assert "error: out of memory: [commutant] Unable to allocate 45.0 GiB" in err
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2


class TestOneDecision:
    """A declared symmetry, and the kernel's Hermiticity, are each decided once."""

    @pytest.mark.parametrize("where", ["H", "L_1"])
    @pytest.mark.parametrize("builtin", [
        xyz_bulk_dephasing(3, 1.0, 0.5, 0.3, 0.7, 1.0),
        tight_binding_dephasing(3, 1.0, 0.3, 0.8),
    ], ids=["xyz", "tight_binding"])
    def test_near_symmetry_is_judged_by_one_rule(self, builtin, where, tmp_path, capsys):
        # eps X_1 breaks the declared symmetry slightly; the sectors stage
        # either accepts it, and then the restricted closure does too, or
        # refuses it as not a strong symmetry
        for exponent in range(-13, -5):
            ham = list(builtin.hamiltonian_terms)
            jumps = [(label, list(terms)) for label, terms in builtin.lindblad_ops]
            (ham if where == "H" else jumps[0][1]).append(PauliTerm(10.0**exponent, [(1, "X")]))
            spec = ModelSpec(builtin.n_sites, ham, jumps,
                             declared_symmetries=builtin.declared_symmetries)
            path = tmp_path / f"eps{exponent}.json"
            path.write_text(serialize_model(spec))
            for tol in ["1e-12", "1e-9", "1e-6"]:
                argv = ["--model", str(path), "--tol", tol]
                assert run(["full"] + argv) == 0, (exponent, tol)
                code = run(["sectors"] + argv)
                err = capsys.readouterr().err
                assert code == 0 or (code == 2 and "not a strong symmetry" in err), (
                    exponent, tol, err)

    @pytest.mark.parametrize("tol", ["1e-15", "1e-16"])
    def test_tiny_tol_keeps_the_hermitian_kernel(self, tol, capsys):
        argv = ["ness", "--builtin", "tight_binding_dephasing", "-p", "N=4", "-p", "t=1"]
        assert run(argv + ["--tol", tol]) == 0
        assert "adjoint" not in capsys.readouterr().err

    def test_per_site_hz_is_echoed(self, capsys):
        hz = {"1": 0.1, "2": 0.2, "3": 0.3}
        code, doc = run_json(["check"] + XYZ3[:-2] + ["-p", "hz={1:0.1,2:0.2,3:0.3}"], capsys)
        assert code == 0
        assert doc["model"]["metadata"]["params"]["hz"] == hz
        jsonschema.validate(doc, load_schema())


class TestJsonReports:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check"] + XYZ3,
            ["check"] + TWO_LEVEL,
            ["ness"] + TWO_LEVEL,
            ["sectors"] + XYZ3,
            ["commutant"] + XYZ3,
            ["spectrum"] + TWO_LEVEL,
            ["full"] + XYZ3,
        ],
        ids=["check", "check_two_level", "ness", "sectors", "commutant", "spectrum", "full"],
    )
    def test_every_command_matches_the_schema(self, argv, capsys):
        code, doc = run_json(argv, capsys)
        assert code == 0
        jsonschema.validate(doc, load_schema())
        assert doc["command"] == argv[0]
        assert doc["model"]["dim"] in (2, 8)

    def test_floats_are_rounded_to_ten_digits(self, capsys):
        _, doc = run_json(["ness"] + TWO_LEVEL, capsys)
        state = doc["report"]["steady_states"][0]
        assert state[0][0] == [0.3333333333, 0.0]
        assert state[1][1] == [0.6666666667, 0.0]

    def test_spectrum_reports_complex_pairs(self, capsys):
        _, doc = run_json(["spectrum"] + TWO_LEVEL, capsys)
        eigs = doc["report"]["eigenvalues"]
        assert len(eigs) == 4
        assert all(len(pair) == 2 for pair in eigs)
        assert doc["report"]["max_real_part"] == pytest.approx(0.0, abs=1e-10)

    def test_out_writes_the_file_and_not_stdout(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = run(["check"] + TWO_LEVEL + ["--json", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["report"]["generation_verdict"] == "certified_unique"

    def test_sectors_reports_invariant_blocks(self, capsys):
        _, doc = run_json(["sectors"] + XYZ3, capsys)
        assert doc["report"]["invariant_blocks"]["status"] == "passed"
        assert doc["report"]["sector_dims"] == [4, 4]

    def test_sectors_decomposes_the_symmetry_once(self, monkeypatch, capsys):
        original = lindblad_certify.symmetry.sector_decompose
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # every module-level binding a caller could resolve
        for name, module in list(sys.modules.items()):
            if name.startswith("lindblad_certify") and getattr(
                module, "sector_decompose", None
            ) is original:
                monkeypatch.setattr(module, "sector_decompose", counted)
        code, _ = run_json(["sectors"] + XYZ3, capsys)
        assert code == 0
        assert len(calls) == 1

    def test_failed_declared_symmetry_reports_its_commutators(self, tmp_path, capsys):
        # H = X_1 anticommutes with the declared parity Z_1 Z_2; L = Z_1 commutes
        model = {
            "n_sites": 2,
            "hamiltonian": [{"coeff": [1, 0], "factors": [{"site": 1, "op": "X"}]}],
            "lindblad": [
                {
                    "label": "L",
                    "terms": [{"coeff": [1, 0], "factors": [{"site": 1, "op": "Z"}]}],
                }
            ],
            "symmetries": ["parity_z"],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, doc = run_json(["full", "--model", str(path)], capsys)
        assert code == 0
        assert doc["report"]["symmetry"] == "parity_z"
        assert doc["report"]["symmetry_check"] == {
            "ok": False,
            "commutator_norms": {"H": 4.0, "L": 0.0},
        }
        assert doc["report"]["per_sector"] is None


class TestDeterminism:
    def test_identical_config_identical_bytes_modulo_timings(self, capsys):
        docs = []
        for _ in range(2):
            _, doc = run_json(["full"] + XYZ3 + ["--seed", "3"], capsys)
            docs.append(strip_timings(doc))
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)

    def test_runs_in_one_process_share_no_parameters(self, capsys):
        # the parser is built once per process; -p appends must not carry over
        assert build_parser() is build_parser()
        assert run(["check"] + XYZ3) == 0
        capsys.readouterr()
        # an N=3 left over from the first run would be rejected here
        code, doc = run_json(["check"] + TWO_LEVEL, capsys)
        assert code == 0
        assert doc["model"]["metadata"]["params"]["gamma_g"] == 1
        # and gamma_g, gamma_l left over would make this one succeed
        assert run(["check", "--builtin", "two_level_gain_loss"]) == 2
        assert "missing 2 required" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_regression(self, name, tmp_path, capsys):
        code = run(FIXTURES[name] + ["--json", "--out", str(tmp_path / name)])
        assert code == 0
        fresh = strip_timings(json.loads((tmp_path / name).read_text()))
        stored = strip_timings(json.loads((FIXTURE_DIR / name).read_text()))
        assert fresh == stored

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_regression_under_gesvd(self, name, tmp_path, monkeypatch):
        # another LAPACK driver returns other roundoff and, for a degenerate
        # kernel, another basis of it; the report must not show either
        monkeypatch.setattr(np.linalg, "svd", gesvd)
        code = run(FIXTURES[name] + ["--json", "--out", str(tmp_path / name)])
        assert code == 0
        assert_matches_fixture(name, tmp_path / name)

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(argv, id=name.removesuffix("_full.json"))
            for name, argv in sorted(FIXTURES.items())
            if name.endswith("_full.json")
        ]
        + [pytest.param(["full"] + TIGHT_BINDING_DEGENERATE, id="tight_binding_degenerate")],
    )
    def test_full_text_is_the_same_under_gesvd(self, argv, monkeypatch, capsys):
        # the text shows the report's resolved values, not raw roundoff
        assert run(argv) == 0
        text = capsys.readouterr().out
        monkeypatch.setattr(np.linalg, "svd", gesvd)
        assert run(argv) == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures_match_the_schema(self, name):
        doc = json.loads((FIXTURE_DIR / name).read_text())
        jsonschema.validate(doc, load_schema())


class TestSubprocess:
    def test_module_entry_point(self):
        # the package is imported from src/, which pytest's own pythonpath
        # setting does not hand to a child process
        src = str(Path(lindblad_certify.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "lindblad_certify", "check"] + TWO_LEVEL,
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "certified_unique" in proc.stdout

    def test_single_blas_thread_reproduces_the_compass_fixture(self, tmp_path):
        # OpenBLAS reads its thread count at start-up, hence a fresh process
        name = "compass_n4_full.json"
        src = str(Path(lindblad_certify.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "lindblad_certify"]
            + FIXTURES[name]
            + ["--json", "--out", str(tmp_path / name)],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert_matches_fixture(name, tmp_path / name)
