"""The package names that the benchmark under perfbench/ resolves.

perfbench/spans.py wraps layer functions by dotted name, and
perfbench/selftest.py expects some of them to be bound in the modules that
import them by name. A rename or a dropped import breaks a benchmark run
or the three-minute self-test; these checks catch it in a second. The
benchmark files are imported, never changed. The public surface (the
package exports, the CLI commands and the report schema's command names)
is checked here too, so a deletion that leaves a stale name fails fast, and
so are the closure margins that the benchmark's traced summary reads.
"""

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import lindblad_certify
import lindblad_certify.cli  # noqa: F401  (the benchmark's full_mixed entry point)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("selftest")


def test_every_traced_layer_resolves(bench):
    spans, _ = bench
    for name in spans.TARGETS:
        module, *path = name.split(".")
        owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(path[-1])), name


def test_every_imported_binding_is_patched(bench):
    spans, selftest = bench
    tracer = spans.Tracer()
    try:
        sites = tracer.install()
    finally:
        tracer.uninstall()
    missing = [site for site in selftest.FROM_IMPORTED if site not in sites]
    assert not missing


def test_public_surface_resolves(bench):
    for name in lindblad_certify.__all__:
        assert hasattr(lindblad_certify, name), name
    parser = lindblad_certify.cli.build_parser()
    subcommands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    schema = json.loads(
        resources.files("lindblad_certify").joinpath("report_schema.json").read_text()
    )
    routed = set()
    for rule in schema["allOf"]:
        cond = rule["if"]["properties"]["command"]
        routed |= set(cond.get("enum", [cond.get("const")]))
    commands = set(lindblad_certify.cli.COMMANDS)
    assert set(subcommands) == commands == set(schema["properties"]["command"]["enum"]) == routed
    _, selftest = bench
    for site in selftest.FROM_IMPORTED:
        if site.startswith("lindblad_certify."):
            module, _, attr = site.rpartition(".")
            assert hasattr(importlib.import_module(module), attr), site


def test_cli_import_leaves_scipy_sparse_out():
    # scipy.sparse (and csgraph with it) adds ~20 ms to every start-up,
    # which the benchmark times as setup_s
    src = str(Path(lindblad_certify.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lindblad_certify.cli; print('scipy.sparse' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_closure_margins_are_finite_on_the_traced_models(monkeypatch):
    # perfbench/run.py reads a missing margin as inf; when every closure of
    # a run lacks one, its last line prints rank_margin_decades as a bare
    # Infinity, which is not JSON
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    models = [
        ("tfim_boundary_dephasing", {"N": 4, **workloads.TFIM_EXAMPLE}),
        ("xyz_bulk_dephasing", {"N": 4, **workloads.XYZ_EXAMPLE}),
        ("xyz_bulk_dephasing", dict(workloads.FALSE_CERTIFICATE_WITNESS)),
    ]
    for builtin, params in models:
        closure = lindblad_certify.certify_uniqueness(
            lindblad_certify.build_builtin(builtin, params)).closure
        for ratio in (closure.min_accepted_ratio, closure.max_rejected_ratio):
            assert ratio is not None and 0 < ratio < math.inf, (builtin, params)


def test_steady_workload_keeps_a_finite_margin(monkeypatch):
    # on Pauli strings the identity, and for xyz the parity string, is an
    # exactly zero 1 x 1 block, so the kernel decision of tfim and xyz has
    # nothing on one side; perfbench/run.py takes the smallest margin of a
    # run, and when none is finite its last line prints a bare Infinity
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    workloads = importlib.import_module("workloads")
    runner = child.Runner("steady_n5", lindblad_certify)
    margins = []
    for model in workloads.make_models("steady_n5", 1):
        spec = lindblad_certify.build_builtin(model["builtin"], {**model["params"], "N": 4})
        margins += runner.record(runner.call(model, spec))["margins"]
    assert any(m is not None and math.isfinite(m) for m in margins), margins


def test_kernel_span_counts_a_real_call(bench):
    spans, _ = bench
    tracer = spans.Tracer()
    tracer.install()
    try:
        lindblad_certify.steady_states(lindblad_certify.build_builtin(
            "tfim_boundary_dephasing", {"N": 3, "h_x": 1.0, "gamma": 0.5}))
    finally:
        tracer.uninstall()
    counts = [span[5] for span in tracer.spans if span[0] == "liouvillian.kernel_and_values"]
    assert counts == [{"matrix_dim": 64}]


@pytest.mark.parametrize(
    "builtin, params, rounds, rows_in, rows_accepted",
    [
        ("tfim_boundary_dephasing", "TFIM_EXAMPLE", 15, 962, 256),
        ("xyz_bulk_dephasing", "XYZ_EXAMPLE", 5, 1285, 128),
        ("xyz_bulk_dephasing", "FALSE_CERTIFICATE_WITNESS", 5, 1285, 128),
    ],
    ids=["tfim4", "xyz4", "witness"],
)
def test_closure_work_is_pinned(bench, builtin, params, rounds, rows_in, rows_accepted):
    # the closure's candidates and acceptances, as the extend_block span
    # counter sees them; a cheaper closure must make each candidate cheaper,
    # not form fewer of them
    spans, _ = bench
    workloads = importlib.import_module("workloads")
    params = {"N": 4, **getattr(workloads, params)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        closure = lindblad_certify.certify_uniqueness(
            lindblad_certify.build_builtin(builtin, params)).closure
    finally:
        tracer.uninstall()
    counts = [span[5] for span in tracer.spans if span[0] == "opalg.HSBasis.extend_block"]
    assert closure.rounds == rounds
    assert sum(c["rows_in"] for c in counts) == rows_in
    assert sum(c["rows_accepted"] for c in counts) == rows_accepted
