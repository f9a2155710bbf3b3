"""The package names that the benchmark under perfbench/ resolves.

perfbench/spans.py wraps layer functions by dotted name, and
perfbench/selftest.py expects some of them to be bound in the modules that
import them by name. A rename or a dropped import breaks a benchmark run
or the three-minute self-test; these checks catch it in a second. The
benchmark files are imported, never changed.
"""

import importlib
from pathlib import Path

import pytest

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

