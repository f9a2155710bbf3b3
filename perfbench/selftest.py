"""Self-tests of the benchmark's tracing and of exact repeats.

    python3 perfbench/selftest.py [--seed 7]

Run from the repository root; takes about three minutes. For each workload
it makes two traced runs of one seed and checks that

* every layer function expected to run on the workload records at least one
  span, and the layers the workload is meant to bypass record none;
* the bindings that callers resolve through ``from ... import`` were patched;
* both runs give identical verdicts, kernel dimensions and sector results
  per model, identical closure rounds, candidates and accepted products per
  model, and identical per-layer counts.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys

import child
import run
import spans

ALWAYS = {"modelspec.build_builtin", "modelspec.ModelSpec.operators",
          "opalg.pauli_to_operator", "opalg.HSBasis.extend_block",
          "closure.algebra_closure"}
RUNS_ON = {
    "closure_n5": ALWAYS,
    "steady_n5": ALWAYS | {
        "closure.restricted_closure", "liouvillian.assemble_matrices",
        "liouvillian.kernel_and_values", "symmetry.sector_decompose",
        "symmetry.verify_strong_symmetry", "symmetry.verify_invariant_blocks",
        "ness.steady_states", "ness.per_sector_ness",
    },
    "full_mixed": ALWAYS | {
        "closure.commutant", "closure.restricted_closure",
        "liouvillian.assemble_matrices", "liouvillian.kernel_and_values",
        "symmetry.sector_decompose", "symmetry.verify_strong_symmetry",
        "ness.full_verdict", "cli.run", "cli.build_parser", "cli.to_jsonable",
    },
}
# bindings a module-level patch alone would miss
FROM_IMPORTED = (
    "lindblad_certify.ness.commutant",
    "lindblad_certify.ness.kernel_and_values",
    "lindblad_certify.ness.assemble_matrices",
    "lindblad_certify.ness.restricted_closure",
    "lindblad_certify.cli.full_verdict",
    "lindblad_certify.modelspec.pauli_to_operator",
    "HSBasis.extend_block",
    "ModelSpec.operators",
)


def traced_run(workload, seed):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1.0, trace=1)
    return run.run_child(os.getcwd(), args, [], run.TIME_LIMIT_S)


def check_workload(workload, seed):
    problems = []
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    metrics = first["trace"]["metrics"]
    for name in spans.TARGETS:
        calls = metrics[f"{name}.calls"]
        if name in RUNS_ON[workload] and calls == 0:
            problems.append(f"{name} recorded no span")
        if name not in RUNS_ON[workload] and calls != 0:
            problems.append(f"{name} recorded {calls} spans on a workload meant to bypass it")
    missing = [site for site in FROM_IMPORTED if site not in first["patched"]]
    if missing:
        problems.append(f"bindings not patched: {missing}")

    def discrete(res):
        return [child.discrete_fields(rec) for rec in res["records"]]

    if discrete(first) != discrete(second):
        problems.append("verdicts or kernel dimensions differ between two runs")
    if first["trace"]["per_model"] != second["trace"]["per_model"]:
        problems.append("closure rounds, candidates or accepted differ between two runs")
    for key, value in metrics.items():
        if not key.endswith("_s") and second["trace"]["metrics"][key] != value:
            problems.append(f"{key}: {value} then {second['trace']['metrics'][key]}")
    for res in (first, second):
        if not res["repeat_ok"] or not res["trace"]["counts_repeat"]:
            problems.append("passes within one run disagree")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description="benchmark self-tests")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    failed = False
    for workload in run.workloads.WORKLOADS:
        problems = check_workload(workload, args.seed)
        print(f"{'FAIL' if problems else 'PASS'} {workload}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
