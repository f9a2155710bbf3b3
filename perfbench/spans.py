"""Spans around the package's layer functions, recorded from outside it.

Each listed function is wrapped at every binding a caller resolves: the
defining module, every package module that pulled it in with
``from ... import``, and, for methods, the class. Spans stay in memory as
``[name, model, parent, start, end, counts]`` lists and are written out
once, at the end of the run.

A function that re-enters itself (``cli.to_jsonable`` recurses) records one
span for the outermost call only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "lindblad_certify"


def _rows(args, kwargs, result):
    return {"rows_in": len(args[1]), "rows_accepted": len(result[0])}


def _closure(args, kwargs, result):
    return {"rounds": result.rounds}


def _commutant(args, kwargs, result):
    # computed from shapes, not measured: the stacked (n_gen d^2) x d^2 complex matrix
    d = args[1]
    return {"stack_bytes": len(args[0]) * d * d * d * d * 16}


def _assemble(args, kwargs, result):
    # computed from shapes, not measured: the d^2 x d^2 complex generator
    d = args[0].shape[0]
    return {"bytes": d**4 * 16}


def _kernel(args, kwargs, result):
    return {"matrix_dim": args[0].matrix.shape[0]}


# count metrics beyond calls, busy_s and self_s; the byte counts are computed
# from array shapes, not measured traffic
COUNTS = (
    "opalg.HSBasis.extend_block.rows_in",
    "opalg.HSBasis.extend_block.rows_accepted",
    "closure.algebra_closure.rounds",
    "closure.algebra_closure.candidates",
    "closure.algebra_closure.accepted",
    "closure.commutant.stack_bytes",
    "liouvillian.assemble_matrices.bytes",
    "liouvillian.kernel_and_values.matrix_dim",
)

# name -> counter run on (args, kwargs, result) after the call, or None
TARGETS = {
    "opalg.HSBasis.extend_block": _rows,
    "closure.algebra_closure": _closure,
    "closure.commutant": _commutant,
    "closure.restricted_closure": None,
    "liouvillian.assemble_matrices": _assemble,
    "liouvillian.kernel_and_values": _kernel,
    "symmetry.sector_decompose": None,
    "symmetry.verify_strong_symmetry": None,
    "symmetry.verify_invariant_blocks": None,
    "ness.full_verdict": None,
    "ness.steady_states": None,
    "ness.per_sector_ness": None,
    "cli.run": None,
    "cli.build_parser": None,
    "cli.to_jsonable": None,
    "modelspec.build_builtin": None,
    "modelspec.ModelSpec.operators": None,
    "opalg.pauli_to_operator": None,
}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.model = None
        self._stack = []
        self._active = set()
        self._undo = []

    def _wrap(self, name, fn, counter):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            span = [name, self.model, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            active.add(name)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                active.discard(name)
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every binding of every target; returns the patched sites."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        sites = []
        for name, counter in TARGETS.items():
            mod_name, *owner_path, attr = name.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, counter)
            if owner_path:  # a method: patch the class, which every instance resolves
                holders = [(owner, attr)]
            else:
                holders = [
                    (m, key) for m in modules for key, val in vars(m).items() if val is original
                ]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._undo.append((holder, key, original))
                sites.append(f"{getattr(holder, '__name__', holder)}.{key}")
        return sites

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[2] is not None:
            child_time[span[2]] += span[4] - span[3]
    return [(s[4] - s[3]) - c for s, c in zip(spans, child_time)]


def _product_blocks(spans, first, last) -> list:
    """Indices of extend_block spans that take a closure's products.

    The first block a closure extends by holds its generators; every later
    one holds the products of a round.
    """
    seeded, out = set(), []
    for i in range(first, last):
        parent = spans[i][2]
        if spans[i][0] == "opalg.HSBasis.extend_block" and parent is not None \
                and spans[parent][0] == "closure.algebra_closure":
            if parent in seeded:
                out.append(i)
            seeded.add(parent)
    return out


def aggregate(spans, first, last) -> dict:
    """Per-layer metrics over spans[first:last]."""
    selfs = self_times(spans)
    out = {}
    for name in TARGETS:
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for key in COUNTS:
        out[key] = 0
    for i in range(first, last):
        name, _, _, start, end, counts = spans[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += end - start
        out[f"{name}.self_s"] += selfs[i]
        for key, value in (counts or {}).items():
            if f"{name}.{key}" in out:
                out[f"{name}.{key}"] += value
    for i in _product_blocks(spans, first, last):
        out["closure.algebra_closure.candidates"] += spans[i][5]["rows_in"]
        out["closure.algebra_closure.accepted"] += spans[i][5]["rows_accepted"]
    return out


def per_model_counts(spans, first, last) -> dict:
    """Closure rounds, candidates and accepted products per model id."""
    out = {}
    for i in range(first, last):
        name, model, _, _, _, counts = spans[i]
        if name == "closure.algebra_closure" and counts:
            entry = out.setdefault(model, {"rounds": 0, "candidates": 0, "accepted": 0})
            entry["rounds"] += counts["rounds"]
    for i in _product_blocks(spans, first, last):
        entry = out.setdefault(spans[i][1], {"rounds": 0, "candidates": 0, "accepted": 0})
        entry["candidates"] += spans[i][5]["rows_in"]
        entry["accepted"] += spans[i][5]["rows_accepted"]
    return out
