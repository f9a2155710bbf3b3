"""Workload inputs, generated from a seed with the standard library only.

A model is a dict ``{"id", "builtin", "params"}``. Every parameter is drawn
with ``random.Random(seed)`` and rounded to three decimals, so the same seed
gives the same models, and the values survive the trip through the CLI's
``-p key=value`` strings unchanged.

Structure (which builtins, which sizes, how many) is fixed per workload;
the seed moves only continuous parameters and, for the lattice builtins,
the bond graph. Run time then depends on the seed only through the model
parameters, which keeps runs with different seeds comparable. One model,
closure_n5's false-certificate witness, does not depend on the seed.

Draws stay away from the documented degenerate points (|Jx| = |Jy|,
h_x = 0, delta = 0, a vanishing coupling), so the documented behaviour of
each builtin is the reference answer for every model drawn.
"""

from __future__ import annotations

import random

WORKLOADS = ("closure_n5", "steady_n5", "full_mixed")

# full_mixed: small models per builtin and size, d = 2**N <= 8
SMALL_MIX = (
    ("two_level_gain_loss", (1,), 30),
    ("tfim_boundary_dephasing", (1, 2, 3), 45),
    ("xyz_bulk_dephasing", (2, 3), 40),
    ("compass_dephasing", (2,), 40),
    ("tight_binding_dephasing", (2, 3), 50),
    ("xyz_lattice", (2, 3), 45),
    ("tight_binding_lattice", (2, 3), 50),
)
N3_BONDS = ((1, 2), (1, 3), (2, 3))

# closure_n5 draws both chains within 5% of the README's example parameters,
# so its two closures take the same number of rounds on every seed (15 for
# tfim, 6 for xyz). Fully random xyz couplings at N = 5 hit the
# false-certificate defect on about one draw in seven; such a closure runs
# ~250 rounds instead of 6 and doubles the run, which splits run times across
# seeds into two groups. The defect stays in every closure_n5 run through the
# fixed witness below.
TFIM_EXAMPLE = {"h_x": 1.0, "gamma": 0.5}
XYZ_EXAMPLE = {"Jx": 1.0, "Jy": 0.5, "Jz": 0.3, "hz": 0.7, "gamma": 1.0}
# An N = 4 xyz chain (a full_mixed draw) that the seed program certifies
# although parity is a strong symmetry: 256 dimensions after 46 rounds.
FALSE_CERTIFICATE_WITNESS = {"N": 4, "Jx": -0.77, "Jy": 0.282, "Jz": -0.177,
                             "hz": 0.009, "gamma": 0.656}


def _u(rng: random.Random, lo: float, hi: float, signed: bool = False) -> float:
    value = round(rng.uniform(lo, hi), 3)
    if signed and rng.random() < 0.5:
        value = -value
    return value


def _xyz_couplings(rng):
    jx = _u(rng, 0.5, 1.5, signed=True)
    # |Jy| / |Jx| in [0.2, 0.7] keeps clear of the |Jx| = |Jy| symmetry
    jy = round(abs(jx) * rng.uniform(0.2, 0.7), 3) * rng.choice((1, -1))
    return {"Jx": jx, "Jy": jy, "Jz": _u(rng, -1.0, 1.0), "hz": _u(rng, -1.0, 1.0)}


def _bonds(rng, n):
    if n == 2:
        return [(1, 2)]
    # a random nonempty subset of the triangle: connected or not
    mask = rng.randrange(1, 8)
    return [b for i, b in enumerate(N3_BONDS) if mask >> i & 1]


def draw_params(rng: random.Random, builtin: str, n: int) -> dict:
    gamma = _u(rng, 0.3, 1.5)
    if builtin == "two_level_gain_loss":
        return {
            "gamma_g": _u(rng, 0.2, 1.5), "gamma_l": _u(rng, 0.2, 1.5),
            "hx": _u(rng, 0.1, 1.0, True), "hy": _u(rng, 0.1, 1.0, True),
            "hz": _u(rng, 0.1, 1.0, True),
        }
    if builtin == "tfim_boundary_dephasing":
        return {"N": n, "h_x": _u(rng, 0.3, 1.5, True), "gamma": gamma}
    if builtin == "xyz_bulk_dephasing":
        return {"N": n, **_xyz_couplings(rng), "gamma": gamma}
    if builtin == "compass_dephasing":
        return {"N": n, "Jx": _u(rng, 0.3, 1.5, True), "Jy": _u(rng, 0.3, 1.5, True),
                "gamma": gamma}
    if builtin == "tight_binding_dephasing":
        return {"N": n, "t": _u(rng, 0.2, 1.5, True), "delta": _u(rng, 0.1, 0.6),
                "gamma": gamma}
    if builtin == "xyz_lattice":
        return {"N": n, "bonds": _bonds(rng, n), **_xyz_couplings(rng), "gamma": gamma}
    if builtin == "tight_binding_lattice":
        return {"N": n, "bonds": _bonds(rng, n), "t": _u(rng, 0.2, 1.5, True),
                "delta": _u(rng, 0.1, 0.6), "gamma": gamma}
    raise ValueError(f"no parameter draw for builtin {builtin!r}")


def _model(idx, builtin, params):
    return {"id": f"{idx:03d}:{builtin}", "builtin": builtin, "params": params}


def _near(rng, params, rel=0.05):
    """Each value of ``params`` times a factor drawn from [1 - rel, 1 + rel]."""
    return {k: round(v * rng.uniform(1 - rel, 1 + rel), 3) for k, v in params.items()}


def make_models(workload: str, seed: int) -> list:
    """The ordered model list one run of ``workload`` processes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closure_n5":
        models = [
            ("tfim_boundary_dephasing", {"N": 5, **_near(rng, TFIM_EXAMPLE)}),
            ("xyz_bulk_dephasing", {"N": 5, **_near(rng, XYZ_EXAMPLE)}),
            ("xyz_bulk_dephasing", dict(FALSE_CERTIFICATE_WITNESS)),
        ]
        return [_model(i, b, p) for i, (b, p) in enumerate(models)]
    if workload == "steady_n5":
        plan = [("tfim_boundary_dephasing", 5), ("xyz_bulk_dephasing", 5),
                ("tight_binding_dephasing", 5)]
    elif workload == "full_mixed":
        plan = [("xyz_bulk_dephasing", 4)]
        for builtin, sizes, count in SMALL_MIX:
            plan += [(builtin, sizes[i % len(sizes)]) for i in range(count)]
        # a fixed interleaving, the same for every seed, so the large model
        # does not run on a cold heap
        random.Random("full_mixed-order").shuffle(plan)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return [_model(i, b, draw_params(rng, b, n)) for i, (b, n) in enumerate(plan)]


def cli_params(params: dict) -> list:
    """``-p key=value`` arguments that the CLI parses back to ``params``."""
    out = []
    for key, value in params.items():
        if key == "bonds":
            value = "[" + ",".join(f"({a},{b})" for a, b in value) + "]"
        out += ["-p", f"{key}={value}"]
    return out
