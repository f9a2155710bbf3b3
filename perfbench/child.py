"""One workload run in a fresh interpreter: set up, then process the models.

Started by run.py with the package's ``src`` directory on PYTHONPATH and
BLAS pinned to one thread. Prints ``READY <json>`` once the set-up is done
(``--setup-only`` stops there), then one JSON line with per-model records
and times.

The loop is closed, with one caller: each model starts after the previous
one's verdict. Passes over the model list repeat while the next pass is
predicted to end within ``--seconds``, and at least MIN_PASSES times, so
each model's time can be taken from passes many seconds apart. Between
untraced passes the child times one more set-up in a fresh interpreter,
while it waits, so set-up samples are spread over the run as well.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

import workloads

MIN_PASSES = 4


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--spans-out", help="file for the trace's spans")
    return ap.parse_args(argv)


def time_setup(args):
    """Set-up time of a fresh interpreter running this file with --setup-only."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                          timeout=60, check=True)
    ready = proc.stdout.splitlines()[0]
    return json.loads(ready[len("READY "):])["setup_s"]


def _margin(high, low):
    """log10(high / low) in decades, or None when either side is absent."""
    if high is None or low is None or low <= 0 or high <= 0:
        return None
    return math.log10(high / low)


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import scipy

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # recorded as the model's failure
        # without its traceback, which would keep the failed call's arrays alive
        return exc.with_traceback(None)


class Runner:
    """The per-workload call, and the record extracted from its result."""

    def __init__(self, workload, lc):
        self.workload = workload
        self.lc = lc

    def call(self, model, spec):
        lc = self.lc
        if self.workload == "closure_n5":
            return lc.certify_uniqueness(spec)
        if self.workload == "steady_n5":
            # the CLI runs `ness` and `sectors` as separate commands, so a
            # failure in one does not skip the other
            ness = _attempt(lc.steady_states, spec)
            if not spec.declared_symmetries:
                return ness, None
            desc = spec.declared_symmetries[0]

            def sectors():
                report = lc.per_sector_ness(spec, desc)
                s_op = lc.resolve_symmetry(desc, spec)
                return report, lc.verify_invariant_blocks(spec, lc.sector_decompose(s_op), seed=0)

            return ness, _attempt(sectors)
        out, err = io.StringIO(), io.StringIO()
        argv = ["full", "--builtin", model["builtin"],
                *workloads.cli_params(model["params"]), "--json"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lc.cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def record(self, result):
        """Verdict fields and rank margins; raises on a failed call."""
        if self.workload == "closure_n5":
            c = result.closure
            return {
                "verdict": result.verdict,
                "generated_dim": c.generated_dim,
                "full_dim": c.full_dim_target,
                "rounds": c.rounds,
                "margins": [_margin(c.min_accepted_ratio, c.max_rejected_ratio)],
            }
        if self.workload == "steady_n5":
            ness, sectors = result
            errors = [str(r) for r in result if isinstance(r, Exception)]
            if errors:
                raise RuntimeError("; ".join(errors))
            canonical = ness.canonical_state
            rec = {
                "kernel_dim": ness.kernel_dim,
                "mixed_distance": None if canonical is None else float(
                    np.abs(canonical.mat - np.eye(canonical.dim) / canonical.dim).max()
                ),
                "margins": [_margin(ness.kernel_sigma_above, ness.kernel_sigma_below)],
                "sectors_certified": None,
                "sector_dims": None,
                "blocks": None,
            }
            if sectors is not None:
                sectors, blocks = sectors
                rec["sectors_certified"] = [s.certified for s in sectors.per_sector]
                rec["sector_dims"] = [s.dim for s in sectors.per_sector]
                rec["sector_rounds"] = [s.closure.rounds for s in sectors.per_sector]
                rec["margins"] += [
                    _margin(s.closure.min_accepted_ratio, s.closure.max_rejected_ratio)
                    for s in sectors.per_sector
                ]
                rec["blocks"] = blocks.status
            return rec
        code, out, err = result
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.strip()}")
        rep = json.loads(out)["report"]
        per_sector = rep["per_sector"]
        closures = [rep["closure"]] + [s["closure"] for s in per_sector or []]
        return {
            "verdict": rep["generation_verdict"],
            "kernel_dim": rep["kernel_dim"],
            "sectors_certified": None if per_sector is None
            else [s["certified"] for s in per_sector],
            "sector_dims": None if per_sector is None else [s["dim"] for s in per_sector],
            "rounds": [c["rounds"] for c in closures],
            "margins": [_margin(c["min_accepted_ratio"], c["max_rejected_ratio"])
                        for c in closures]
            + [_margin(rep["kernel_sigma_above"], rep["kernel_sigma_below"])],
        }


def discrete_fields(record):
    """The fields that must repeat exactly: everything but the float margins."""
    return {k: v for k, v in record.items() if k not in ("margins", "mixed_distance")}


def run_pass(runner, models, specs, tracer):
    """One closed-loop pass; returns (call-to-verdict seconds, records)."""
    times, records = [], []
    for model, spec in zip(models, specs):
        if tracer is not None:
            tracer.model = model["id"]
        t0 = time.perf_counter()
        result = _attempt(runner.call, model, spec)
        times.append(time.perf_counter() - t0)
        if not isinstance(result, Exception):
            result = _attempt(runner.record, result)
        if isinstance(result, Exception):  # a failing model is counted, not fatal
            result = {"error": f"{type(result).__name__}: {result}"}
        records.append(result)
    return times, records


def main(argv=None):
    args = parse_args(argv)
    import lindblad_certify as lc
    import lindblad_certify.cli  # noqa: F401  (the full_mixed entry point)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(lc.__file__).startswith(src + os.sep):
        raise SystemExit(f"lindblad_certify imported from {lc.__file__}, not from {src}")
    # builders warn on degenerate parameters; the reference answers cover them
    warnings.simplefilter("ignore", UserWarning)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        sites = tracer.install()
        tracer.model = "setup"
    models = workloads.make_models(args.workload, args.seed)
    specs = [lc.build_builtin(m["builtin"], m["params"]) for m in models]
    for spec in specs:
        spec.operators()
    setup_s = time.monotonic() - args.t0
    print("READY " + json.dumps({"setup_s": setup_s}), flush=True)
    if args.setup_only:
        return 0

    runner = Runner(args.workload, lc)
    out = {"environment": environment(), "models": [m["id"] for m in models]}
    setup_spans = 0
    if tracer is not None:
        setup_spans = len(tracer.spans)
        out["patched"] = sites

    # with tracing, passes alternate untraced and traced; the difference of
    # their fastest run_s is the tracing overhead
    passes, first_records, repeat_ok = [], None, True
    setup_samples = [setup_s]
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is not None and not traced:
            tracer.uninstall()
        elif traced:
            tracer.install()
        span_start = len(tracer.spans) if traced else None
        t0 = time.perf_counter()
        times, records = run_pass(runner, models, specs, tracer if traced else None)
        passes.append({"wall_s": time.perf_counter() - t0, "model_s": times, "traced": traced,
                       "spans": (span_start, len(tracer.spans)) if traced else None})
        if first_records is None:
            first_records = records
        elif list(map(discrete_fields, records)) != list(map(discrete_fields, first_records)):
            repeat_ok = False
        if tracer is None:
            setup_samples.append(time_setup(args))
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out.update(passes=passes, records=first_records, repeat_ok=repeat_ok,
               peak_rss_mb=peak_rss_mb, setup_samples_s=setup_samples)
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = summarise_trace(tracer, setup_spans, passes)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "model", "parent", "start", "end", "counts"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(out), flush=True)
    return 0


def summarise_trace(tracer, setup_spans, passes):
    """Per-layer metrics: the set-up spans plus those of one traced pass.

    Counts come from the first traced pass and must repeat in every other;
    times are medians over the traced passes.
    """
    import spans

    recorded = tracer.spans
    traced = [p for p in passes if p["traced"]]
    setup = spans.aggregate(recorded, 0, setup_spans)
    per_pass = [spans.aggregate(recorded, *p["spans"]) for p in traced]
    metrics, counts_repeat = {}, True
    for key, value in per_pass[0].items():
        if key.endswith("_s"):
            value = statistics.median(p[key] for p in per_pass)
        else:
            counts_repeat &= all(p[key] == value for p in per_pass)
        metrics[key] = setup[key] + value
    cands = metrics["closure.algebra_closure.candidates"]
    metrics["closure.algebra_closure.accept_ratio"] = (
        metrics["closure.algebra_closure.accepted"] / cands if cands else 0.0
    )
    fastest = {
        flag: min(sum(p["model_s"]) for p in passes if p["traced"] == flag)
        for flag in (False, True)
    }
    metrics["trace.run_s"] = fastest[True]
    metrics["trace.overhead_s"] = fastest[True] - fastest[False]
    return {
        "metrics": metrics,
        "counts_repeat": counts_repeat,
        "per_model": spans.per_model_counts(recorded, *traced[0]["spans"]),
        "spans": len(recorded),
    }


if __name__ == "__main__":
    sys.exit(main())
