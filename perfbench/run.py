"""Benchmark entry point: one workload run, checked against reference answers.

    python3 perfbench/run.py --workload closure_n5 --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds nothing: the package is imported from
``src/`` by fresh child processes (child.py) with BLAS pinned to one
thread. Prints one line per metric, the environment, every failing input,
and as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 170.0  # the whole run, children included
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIXED_STATE_TOL = 1e-8

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "model_s_p50": "s",
    "model_s_p90": "s",
    "peak_rss_mb": "MB",
}
# verdict quality: printed on every run, reported as metrics with --trace 1.
# They move with the seed because of the seed program's own defects, so they
# carry no bound (see README.md).
VERDICT_UNITS = {"error_frac": "ratio", "clear_decision_frac": "ratio",
                 "rank_margin_decades": "decades"}
# Defects of the seed program that the benchmark counts as failed models but
# not as incorrect output; any other disagreement makes `correct` false.
# A false certificate: certified_unique, or a certified sector, where the
# reference has a strong symmetry or a disconnected graph that rules it out.
FALSE_CERTIFICATE = "false certificate"
# ness._hermitian_kernel_basis exits 3 on some degenerate kernels.
HERMITIAN_BASIS = "Hermitian kernel basis"
# a rank decision is clear when the nearest values on its two sides are at
# least this many decades apart (min accepted vs max rejected closure ratio;
# smallest kept vs largest dropped singular value at a kernel cutoff)
CLEAR_DECADES = 1.0


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")
    return args


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(BLAS_PIN)
    return env


def run_child(root, args, extra, timeout):
    """Run child.py to completion and return its result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    # a session of its own, so a timeout also kills the set-up interpreters it starts
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.splitlines()
    if len(lines) < 2 or not lines[0].startswith("READY "):
        raise BenchError(f"child printed no result: {out[-500:]!r}")
    return json.loads(lines[-1])


def check(workload, rec, ref):
    """(known defect or None, description) for each disagreement with the reference."""
    if "error" in rec:
        known = HERMITIAN_BASIS if "Hermitian directions" in rec["error"] else None
        return [(known, rec["error"])]
    found = []

    def expect(field, got, want, false_certificate=False):
        if got != want:
            found.append((FALSE_CERTIFICATE if false_certificate else None,
                          f"{field} {got!r}, expected {want!r}"))

    if workload != "steady_n5":
        expect("verdict", rec["verdict"], ref["verdict"],
               rec["verdict"] == reference.CERTIFIED_UNIQUE)
    if workload == "closure_n5":
        full = rec["generated_dim"] == rec["full_dim"]
        expect("full closure", full, ref["verdict"] == reference.CERTIFIED_UNIQUE, full)
        if ref["sector_dims"]:
            # words in symmetric generators stay block diagonal
            bound = sum(d * d for d in ref["sector_dims"])
            if rec["generated_dim"] > bound:
                found.append((FALSE_CERTIFICATE,
                              f"generated_dim {rec['generated_dim']} above {bound}"))
        return found
    expect("kernel_dim", rec["kernel_dim"], ref["kernel_dim"])
    expect("sector_dims", rec["sector_dims"], ref["sector_dims"])
    got, want = rec["sectors_certified"], ref["sectors_certified"]
    expect("sectors_certified", got, want,
           got is not None and want is not None and len(got) == len(want)
           and all(g or not w for g, w in zip(got, want)))
    if workload == "steady_n5":
        expect("invariant blocks", rec["blocks"], "passed" if ref["sector_dims"] else None)
        if ref["mixed_state"] and not (rec["mixed_distance"] is not None
                                       and rec["mixed_distance"] <= MIXED_STATE_TOL):
            found.append((None, f"canonical state is not I/d: {rec['mixed_distance']!r}"))
    return found


def host_environment(root):
    src_hash = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            src_hash.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                src_hash.update(fh.read())
    mem_mb = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_mb,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "blas_pin": BLAS_PIN,
    }


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lindblad_certify", "__init__.py")):
        print("error: run from the repository root; src/lindblad_certify is missing",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    extra = ["--spans-out", os.path.join(out_dir, f"spans-{tag}.json")] if args.trace else []
    res = run_child(root, args, extra, TIME_LIMIT_S)
    setup_samples = res["setup_samples_s"]

    models = workloads.make_models(args.workload, args.seed)
    if res["models"] != [m["id"] for m in models]:
        raise BenchError("child processed another model list")
    passes = len(res["passes"])
    failures = []
    for model, rec in zip(models, res["records"]):
        problems = check(args.workload, rec, reference.expected(model))
        if problems:
            failures.append({"id": model["id"], "builtin": model["builtin"],
                             "params": model["params"], "problems": problems})
    correct = res["repeat_ok"] and all(
        known for f in failures for known, _ in f["problems"]
    )

    # each model's fastest pass: the passes sit seconds apart, so at least one
    # of them usually misses the slow periods a shared host goes through
    timed = [p for p in res["passes"] if not p["traced"]]
    per_model = [min(p["model_s"][i] for p in timed) for i in range(len(models))]
    # None marks a decision with nothing on one side of it: clear by definition
    margins = [math.inf if m is None else m
               for rec in res["records"] for m in rec.get("margins", [])]
    if not margins:
        raise BenchError("no rank decision was reported")
    values = {
        "setup_s": statistics.median(setup_samples),
        "run_s": sum(per_model),
        "model_s_p50": statistics.median(per_model),
        "model_s_p90": statistics.quantiles(per_model, n=10, method="inclusive")[8],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    verdicts = {
        "error_frac": len(failures) / len(models),
        "clear_decision_frac": sum(m >= CLEAR_DECADES for m in margins) / len(margins),
        "rank_margin_decades": min(margins),
    }
    if args.trace:
        trace = res["trace"]
        correct = correct and trace["counts_repeat"]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in trace["metrics"].items()}
        metrics.update({k: {"value": v, "unit": VERDICT_UNITS[k]} for k, v in verdicts.items()})
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    env = {**res["environment"], **host_environment(root)}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "models": len(models),
        "setup_samples_s": setup_samples, "end_to_end": values, "verdicts": verdicts,
        "environment": env,
        "repeat_ok": res["repeat_ok"], "failures": failures, "records": res["records"],
        "passes_detail": res["passes"],
        "trace_detail": res.get("trace"),
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  models {len(models)}  "
          f"passes {passes}  setup samples {len(setup_samples)}")
    shown = {**metrics, **{k: {"value": v, "unit": VERDICT_UNITS[k]} for k, v in verdicts.items()}}
    for name, m in shown.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  {len(failures)} of {len(models)} models failed; "
          f"{len(margins)} rank decisions")
    for f in failures:
        known = {k for k, _ in f["problems"]}
        kind = "FAILED" if None in known else f"FAILED (known defect: {known.pop()})"
        print(f"  {kind} {f['id']} {json.dumps(f['params'])}: "
              + "; ".join(text for _, text in f["problems"]))
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(models) * passes,
        "failed": len(failures) * passes,
        "metrics": metrics,
    }))
    return 0


def unit_of(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("bytes"):
        return "bytes_computed"
    if key.endswith("accept_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
