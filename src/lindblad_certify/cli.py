"""Command-line front end.

Loads a model (builtin or JSON file), runs one analysis stage or the whole
pipeline, and emits a human-readable summary or a schema-stable JSON
document. Exit codes separate the four outcomes CI cares about:

    0  analysis completed (whatever the verdict)
    2  usage or model error (bad arguments, bad file, unknown builtin)
    3  numerical failure
    4  closure stopped by the basis cap: verdict inconclusive
    5  out of memory: an allocation failed during the analysis

JSON reports are deterministic for a fixed configuration: keys are sorted,
floats are rounded to 10 significant digits, complex numbers appear as
[re, im] pairs. Timing fields are the one intentional exception.

Quantities that are roundoff where the mathematics says zero are first
resolved to a fixed quantum (opalg.at_resolution): the nearest multiple of
1e-3 * tol times the field's natural scale, with anything under half a
quantum reported as exactly 0. The scale is 1 for closure ratios, states,
kernel-basis entries, state eigenvalues and distances; the generator's
largest singular value for kernel singular values and stationarity
residuals; the commuted operator's norm for symmetry commutators; a bound on
the generator's norm for invariant-block leaks; the largest |eigenvalue|
for the spectrum, resolved before it is sorted. The Hermitian kernel basis
is the one picked out by a fixed ordered list of probe operators
(ness._probe_basis), so it depends on the kernel, not on how LAPACK
happened to span it. Verdicts and in-memory reports keep full precision.
The text output is rendered from the same resolved report, so it does not
depend on the LAPACK driver or the thread count either.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .closure import INCONCLUSIVE, ClosureResult
from .liouvillian import NumericalFailure, assemble, spectrum
from .modelspec import (
    ModelParseError,
    ModelSpec,
    ModelValidationError,
    build_builtin,
    load_model,
)
from .ness import NessReport, _run_stages, full_verdict, per_sector_ness, steady_states
from .opalg import at_resolution
from .symmetry import verify_invariant_blocks

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# JSON conversion


def _round_float(v: float):
    if not math.isfinite(v):
        return None
    return float(f"{v:.10g}")


def to_jsonable(x):
    """Recursively convert report objects into JSON-safe primitives."""
    if x is None or isinstance(x, (bool, str, int)):
        return x
    if isinstance(x, float):
        return _round_float(x)
    if isinstance(x, complex):
        return [_round_float(x.real), _round_float(x.imag)]
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return _round_float(float(x))
    if isinstance(x, np.complexfloating):
        return [_round_float(float(x.real)), _round_float(float(x.imag))]
    if isinstance(x, np.ndarray):
        return to_jsonable(x.tolist())
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if hasattr(x, "mat"):  # Operator
        return to_jsonable(x.mat.tolist())
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _closure_dict(c: ClosureResult) -> dict:
    return {
        "generated_dim": c.generated_dim,
        "full_dim_target": c.full_dim_target,
        "rounds": c.rounds,
        "saturated": c.saturated,
        "tol_used": c.tol_used,
        "min_accepted_ratio": at_resolution(c.min_accepted_ratio, c.tol_used),
        "max_rejected_ratio": at_resolution(c.max_rejected_ratio, c.tol_used),
    }


def _operator_norms(spec: ModelSpec) -> dict:
    """Frobenius norms of H and the jump operators, by commutator label."""
    ham, jumps = spec.operators()
    norms = {"H": ham.hs_norm()}
    for (label, _), jump in zip(spec.lindblad_ops, jumps):
        norms[label] = jump.hs_norm()
    return norms


def _generator_bound(spec: ModelSpec) -> float:
    """2||H|| + 2 sum_m ||L_m||², which bounds the generator's norm."""
    norms = _operator_norms(spec)
    return 2.0 * norms.pop("H") + 2.0 * sum(n * n for n in norms.values())


def _symmetry_check_dict(check, spec: ModelSpec, tol: float) -> dict:
    scales = _operator_norms(spec)
    return {
        "ok": check.ok,
        "commutator_norms": {
            label: at_resolution(norm, tol, scales[label])
            for label, norm in check.commutator_norms.items()
        },
    }


def _ness_dict(r: NessReport, spec: ModelSpec) -> dict:
    tol = r.tol
    # the kernel cutoff is tol times the generator's largest singular value
    sigma_max = r.kernel_cutoff / tol if r.kernel_cutoff is not None else None
    return {
        "generation_verdict": r.generation_verdict,
        "closure": _closure_dict(r.closure) if r.closure else None,
        "all_lindblads_hermitian": r.all_lindblads_hermitian,
        "mixed_state_residual": at_resolution(r.mixed_state_residual, tol, sigma_max),
        "frigerio_verdict": r.frigerio_verdict,
        "commutant_dim": r.commutant.commutant_dim if r.commutant else None,
        "symmetry": r.symmetry,
        "symmetry_check": (
            _symmetry_check_dict(r.symmetry_check, spec, tol)
            if r.symmetry_check is not None
            else None
        ),
        "sector_dims": r.sectors.dims if r.sectors else None,
        "sector_eigenvalues": (
            [complex(v) for v in r.sectors.eigenvalues] if r.sectors else None
        ),
        "per_sector": (
            [
                {
                    "index": s.index,
                    "eigenvalue": s.eigenvalue,
                    "theta": s.theta,
                    "dim": s.dim,
                    "certified": s.certified,
                    "kernel_dim": s.kernel_dim,
                    "closure": _closure_dict(s.closure),
                    "state": at_resolution(s.state, tol),
                    "min_eigenvalue": at_resolution(s.min_eigenvalue, tol),
                    "eigenvalue_ratio": at_resolution(s.eigenvalue_ratio, tol),
                    "stationarity_norm": at_resolution(s.stationarity_norm, tol, s.sigma_max),
                    "distance_to_mixed": at_resolution(s.distance_to_mixed, tol),
                }
                for s in r.per_sector
            ]
            if r.per_sector is not None
            else None
        ),
        "kernel_dim": r.kernel_dim,
        "kernel_cutoff": r.kernel_cutoff,
        "kernel_sigma_below": at_resolution(r.kernel_sigma_below, tol, sigma_max),
        "kernel_sigma_above": at_resolution(r.kernel_sigma_above, tol, sigma_max),
        "hermitian_kernel_basis": at_resolution(r.hermitian_kernel_basis, tol),
        "steady_states": at_resolution(r.steady_states, tol),
        "min_eigenvalues": at_resolution(r.min_eigenvalues, tol),
        "eigenvalue_ratios": at_resolution(r.eigenvalue_ratios, tol),
        "stationarity_norms": at_resolution(r.stationarity_norms, tol, sigma_max),
        "canonical_state": at_resolution(r.canonical_state, tol),
        "canonical_is_positive": r.canonical_is_positive,
        "consistency": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in r.consistency
        ],
        "timings": r.timings,
    }


# ---------------------------------------------------------------------------
# Text rendering


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, float):
        return f"{x:.3e}"
    return str(x)


def _model_line(spec: ModelSpec) -> str:
    name = spec.metadata.get("builtin", "custom model")
    return f"model: {name} ({spec.n_sites} site(s), dim {spec.dim})"


def _closure_lines(c: dict) -> list:
    status = "saturated" if c["saturated"] else "stopped by basis cap"
    return [
        f"closure: generated {c['generated_dim']} of {c['full_dim_target']} dimensions "
        f"in {c['rounds']} round(s), {status}",
        f"margins: min accepted ratio {_fmt(c['min_accepted_ratio'])}, "
        f"max rejected ratio {_fmt(c['max_rejected_ratio'])} (tol {c['tol_used']:g})",
    ]


def _sector_lines(report: dict) -> list:
    lines = []
    if report["symmetry"] is not None:
        ok = report["symmetry_check"]["ok"]
        lines.append(
            f"symmetry {report['symmetry']}: "
            + ("verified strong symmetry" if ok else "FAILED verification; sectors skipped")
        )
    for s in report["per_sector"] or []:
        ev = s["eigenvalue"]
        lines.append(
            f"  sector {s['index']}: eigenvalue {ev.real:+.4f}{ev.imag:+.4f}i, "
            f"dim {s['dim']}, "
            + ("certified" if s["certified"] else "not certified")
            + f", kernel dim {s['kernel_dim']}, "
            f"distance to mixed {_fmt(s['distance_to_mixed'])}"
        )
    return lines


def _ness_lines(report: dict) -> list:
    lines = [f"kernel: dim {report['kernel_dim']} (cutoff {_fmt(report['kernel_cutoff'])})"]
    if report["canonical_state"] is not None:
        lines.append(
            "canonical state: positive, "
            f"min eigenvalue {_fmt(report['min_eigenvalues'][0])}, "
            f"stationarity {_fmt(report['stationarity_norms'][0])}"
        )
    else:
        lines.append("canonical state: none (projection not positive); kernel basis reported")
    return lines


def _consistency_line(report: dict) -> str:
    checks = report["consistency"]
    passed = sum(1 for c in checks if c["passed"])
    line = f"consistency: {passed}/{len(checks)} passed"
    for c in checks:
        if not c["passed"]:
            line += f"\n  FAILED {c['name']}: {c['detail']}"
    return line


# ---------------------------------------------------------------------------
# Commands


def _verdict_lines(report: dict) -> list:
    return [f"generation verdict: {report['generation_verdict']}"] + _closure_lines(
        report["closure"]
    )


def _commutant_line(report: dict) -> str:
    return (
        f"commutant of {{H, L, L*}}: dim {report['commutant_dim']} "
        f"({report['frigerio_verdict']})"
    )


def _full_lines(report: dict) -> list:
    herm = "yes" if report["all_lindblads_hermitian"] else "no"
    if report["mixed_state_residual"] is not None:
        herm += f"; ||L(I/d)|| = {_fmt(report['mixed_state_residual'])}"
    return (
        _verdict_lines(report)
        + [f"all jump operators Hermitian: {herm}", _commutant_line(report)]
        + _sector_lines(report)
        + _ness_lines(report)
        + [_consistency_line(report)]
    )


def _ness_report(*keys):
    """The JSON report of a NessReport: the given keys, or all of them."""

    def report(result, spec, cfg):
        out = _ness_dict(result, spec)
        return {key: out[key] for key in keys} if keys else out

    return report


def _sectors(spec, cfg):
    if not spec.declared_symmetries:
        raise ModelValidationError(
            "model declares no symmetry; the sectors command needs one"
        )
    report = per_sector_ness(spec, spec.declared_symmetries[0], tol=cfg.tol)
    return report, verify_invariant_blocks(spec, report.sectors, seed=cfg.seed)


def _sectors_report(result, spec, cfg):
    report, blocks = result
    out = _ness_dict(report, spec)
    out["invariant_blocks"] = {
        "status": blocks.status,
        "max_leak": at_resolution(blocks.max_leak, cfg.tol, _generator_bound(spec)),
        "detail": blocks.detail,
    }
    return out


def _sectors_lines(report: dict) -> list:
    blocks = report["invariant_blocks"]
    return (
        _sector_lines(report)
        + [f"invariant blocks: {blocks['status']} (max leak {_fmt(blocks['max_leak'])})"]
        + [_consistency_line(report)]
    )


def _spectrum_report(vals, spec, cfg):
    return {
        "dim": spec.dim,
        "count": len(vals),
        "max_real_part": float(vals[0].real),
        "eigenvalues": [complex(v) for v in vals],
    }


def _spectrum_lines(report: dict) -> list:
    return [
        f"spectrum: {report['count']} eigenvalues, max real part {report['max_real_part']:.3e}",
        "largest (by real part):",
    ] + [f"  {v.real:+.6e} {v.imag:+.6e}i" for v in report["eigenvalues"][:8]]


class Command(NamedTuple):
    """One CLI command.

    ``analyse(spec, cfg)`` runs the analysis. ``report(result, spec, cfg)``
    builds the JSON report from its result, and ``lines(report)`` renders
    that report as the text printed under the model line, so text and JSON
    show the same resolved values.
    """

    help: str
    analyse: Callable
    report: Callable
    lines: Callable


# in the order `--help` lists them
COMMANDS = {
    "check": Command(
        "decide the uniqueness certificate (closure verdict only)",
        lambda spec, cfg: _run_stages(spec, {"closure"}, cfg.tol, cfg.max_basis),
        _ness_report("generation_verdict", "closure"),
        _verdict_lines,
    ),
    "ness": Command(
        "solve for steady states numerically",
        lambda spec, cfg: steady_states(spec, tol=cfg.tol),
        _ness_report(),
        _ness_lines,
    ),
    "sectors": Command(
        "per-sector analysis under the model's declared symmetry",
        _sectors,
        _sectors_report,
        _sectors_lines,
    ),
    "commutant": Command(
        "commutant of {H, L, L†} (uniqueness cross-check)",
        lambda spec, cfg: _run_stages(spec, {"commutant"}, cfg.tol),
        _ness_report("commutant_dim", "frigerio_verdict"),
        lambda report: [
            _commutant_line(report),
            "note: a trivial commutant implies uniqueness only if a full-rank"
            " steady state exists",
        ],
    ),
    "spectrum": Command(
        "eigenvalues of the vectorized generator",
        lambda spec, cfg: spectrum(assemble(spec), cfg.tol),
        _spectrum_report,
        _spectrum_lines,
    ),
    "full": Command(
        "everything: certificate, commutant, sectors, kernel, checks",
        lambda spec, cfg: full_verdict(spec, tol=cfg.tol, max_basis=cfg.max_basis),
        _ness_report(),
        _full_lines,
    ),
}


# ---------------------------------------------------------------------------
# Argument handling


def _parse_param(raw: str):
    if "=" not in raw:
        raise ModelValidationError(f"parameter {raw!r} is not of the form key=value")
    key, _, value = raw.partition("=")
    if not key:
        raise ModelValidationError(f"parameter {raw!r} has an empty key")
    try:
        return key, ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return key, value  # strings like bond lists stay verbatim


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing keeps no state in the parser: the append action of ``-p``
    copies its default list before adding to it, so runs share nothing.
    """
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", metavar="NAME", help="builtin model name")
    source.add_argument("--model", metavar="PATH", help="model JSON file")
    common.add_argument(
        "-p",
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="builtin parameter, repeatable",
    )
    common.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance, 0 < tol < 1")
    common.add_argument(
        "--max-basis", type=int, default=None, help="cap on the closure basis size"
    )
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--seed", type=int, default=0, help="seed for randomized trials, >= 0"
    )
    common.add_argument("--out", metavar="PATH", help="write the report to a file")

    parser = argparse.ArgumentParser(
        prog="lindblad-certify",
        description="uniqueness certificates and steady-state analysis for"
        " Markovian open quantum systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=command.help)
    return parser


def _load_spec(args) -> ModelSpec:
    params = dict(_parse_param(raw) for raw in args.param)
    if args.builtin:
        return build_builtin(args.builtin, params)
    if params:
        raise ModelValidationError("-p parameters apply only to --builtin models")
    return load_model(args.model)


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not 0 < args.tol < 1:
        # every closure ratio is below 1, so no tol >= 1 accepts anything
        print("error: --tol must lie strictly between 0 and 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        # the trials' generator takes only non-negative seeds
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return 2

    try:
        spec = _load_spec(args)
        command = COMMANDS[args.command]
        result = command.analyse(spec, args)
        payload = command.report(result, spec, args)
        text = "\n".join([_model_line(spec)] + command.lines(payload))
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ModelParseError, ModelValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 5

    code = 4 if payload.get("generation_verdict") == INCONCLUSIVE else 0
    if args.json:
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": "lindblad-certify", "version": __version__},
            "command": args.command,
            "config": {"tol": args.tol, "max_basis": args.max_basis, "seed": args.seed},
            "model": to_jsonable({**spec.to_dict(), "dim": spec.dim}),
            "report": to_jsonable(payload),
        }
        rendered = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        rendered = text + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code
