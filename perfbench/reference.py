"""Reference answers computed without the package under test.

Two sources, neither of which imports ``lindblad_certify``:

* The documented behaviour of each builtin (README table and builder
  docstrings): which models certify, which strong symmetry they declare,
  how many sectors it has and which of them certify.
* For d <= 8, a generator matrix assembled here from the documented
  Hamiltonians and jump operators, with its own conventions (site 1 is the
  leftmost tensor factor, row-stacking vectorization, own Jordan-Wigner
  strings), and a dense SVD of it for the kernel dimension.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # annihilates occupation 1 -> 0
SVD_MAX_DIM = 8
KERNEL_TOL = 1e-9
# the next singular value above the cutoff must clear it by this factor
KERNEL_GAP = 1e3

CERTIFIED_UNIQUE = "certified_unique"
NOT_CERTIFIED = "not_certified"


def _site_op(op, site, n):
    return reduce(np.kron, [op if s == site else I2 for s in range(1, n + 1)])


def _annihilator(site, n):
    factors = [SZ if s < site else LOWER if s == site else I2 for s in range(1, n + 1)]
    return reduce(np.kron, factors)


def _ring(n):
    return [(j, j % n + 1) for j in range(1, n + 1)]


def _xyz(n, bonds, p):
    ham = sum(
        c * _site_op(s, a, n) @ _site_op(s, b, n)
        for a, b in bonds
        for c, s in ((p["Jx"], SX), (p["Jy"], SY), (p.get("Jz", 0.0), SZ))
    )
    ham = ham + p.get("hz", 0.0) * sum(_site_op(SZ, j, n) for j in range(1, n + 1))
    jumps = [math.sqrt(p.get("gamma", 1.0)) * _site_op(SZ, j, n) for j in range(1, n + 1)]
    return ham, jumps


def _hopping(n, bonds, p):
    c = [_annihilator(j, n) for j in range(1, n + 1)]
    d = 2**n
    ham = p.get("delta", 0.3) * np.eye(d, dtype=complex)
    for a, b in bonds:
        hop = c[a - 1].conj().T @ c[b - 1]
        ham = ham + p["t"] * (hop + hop.conj().T)
    root = math.sqrt(p.get("gamma", 1.0))
    jumps = [root * cj.conj().T @ cj for cj in c]
    return ham, jumps


def model_matrices(builtin: str, p: dict):
    """(H, [L_m]) as dense arrays, built from the documented formulas."""
    n = p.get("N", 1)
    if builtin == "two_level_gain_loss":
        ham = p.get("hx", 0.0) * SX + p.get("hy", 0.0) * SY + p.get("hz", 0.0) * SZ
        return ham, [math.sqrt(p["gamma_g"]) * LOWER, math.sqrt(p["gamma_l"]) * LOWER.T]
    if builtin == "tfim_boundary_dephasing":
        ham = sum(_site_op(SZ, j, n) @ _site_op(SZ, j + 1, n) for j in range(1, n)) + (
            p["h_x"] * sum(_site_op(SX, j, n) for j in range(1, n + 1))
        )
        return ham, [math.sqrt(p["gamma"]) * _site_op(SZ, 1, n)]
    if builtin == "xyz_bulk_dephasing":
        return _xyz(n, _ring(n), p)
    if builtin == "xyz_lattice":
        return _xyz(n, [tuple(b) for b in p["bonds"]], p)
    if builtin == "compass_dephasing":
        ham = -p["Jx"] * sum(
            _site_op(SX, 2 * j - 1, n) @ _site_op(SX, 2 * j, n) for j in range(1, n // 2 + 1)
        )
        for j in range(1, n // 2):
            ham = ham - p["Jy"] * _site_op(SY, 2 * j, n) @ _site_op(SY, 2 * j + 1, n)
        root = math.sqrt(p.get("gamma", 1.0))
        return ham, [root * _site_op(SZ, j, n) for j in range(1, n + 1)]
    if builtin == "tight_binding_dephasing":
        return _hopping(n, _ring(n), p)
    if builtin == "tight_binding_lattice":
        return _hopping(n, [tuple(b) for b in p["bonds"]], p)
    raise ValueError(f"no reference model for builtin {builtin!r}")


def svd_kernel_dim(ham, jumps) -> int:
    """Kernel dimension of the generator, row-stacking: vec(A X B) = (A kron B^T) vec(X)."""
    d = ham.shape[0]
    eye = np.eye(d, dtype=complex)
    gen = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    for jump in jumps:
        jdj = jump.conj().T @ jump
        gen += np.kron(jump, jump.conj()) - 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T))
    svals = np.linalg.svd(gen, compute_uv=False)
    cutoff = KERNEL_TOL * svals[0]
    k = int(np.count_nonzero(svals < cutoff))
    if k < len(svals) and svals[-k - 1] < KERNEL_GAP * cutoff:
        raise ValueError(f"reference kernel has no clear gap: {svals[-k - 1]:.3e}")
    return k


def _connected(n, bonds):
    reach, frontier = {1}, [1]
    while frontier:
        s = frontier.pop()
        for a, b in bonds:
            for x, y in ((a, b), (b, a)):
                if x == s and y not in reach:
                    reach.add(y)
                    frontier.append(y)
    return len(reach) == n


def expected(model: dict) -> dict:
    """The reference answer for one model.

    Keys: ``verdict`` (global certificate), ``sector_dims`` and
    ``sectors_certified`` (None when the builtin declares no symmetry),
    ``kernel_dim``, and ``mixed_state`` (the documented steady state is
    I/d).
    """
    builtin, p = model["builtin"], model["params"]
    n = p.get("N", 1)
    d = 2**n
    ans = {"verdict": NOT_CERTIFIED, "sector_dims": None, "sectors_certified": None,
           "kernel_dim": None, "mixed_state": False}
    if builtin == "two_level_gain_loss":
        ans.update(verdict=CERTIFIED_UNIQUE, kernel_dim=1)
    elif builtin == "tfim_boundary_dephasing":
        # certifies for h_x != 0 (never drawn as 0); the state is I/2^N
        ans.update(verdict=CERTIFIED_UNIQUE, kernel_dim=1, mixed_state=True)
    else:
        if builtin in ("xyz_bulk_dephasing", "xyz_lattice", "compass_dephasing"):
            dims = [d // 2, d // 2]  # spin-flip parity, eigenvalues -1 and +1
        else:
            dims = [math.comb(n, k) for k in range(n + 1)]  # particle number 0..N
        bonds = p.get("bonds")
        connected = bonds is None or _connected(n, [tuple(b) for b in bonds])
        # a connected, anisotropic model certifies in every sector; on a
        # disconnected graph only one-dimensional sectors can reach full dimension
        certified = [connected or dim == 1 for dim in dims]
        ans.update(sector_dims=dims, sectors_certified=certified)
        if all(certified):
            ans["kernel_dim"] = len(dims)
    if d <= SVD_MAX_DIM:
        k = svd_kernel_dim(*model_matrices(builtin, p))
        if ans["kernel_dim"] is not None and ans["kernel_dim"] != k:
            raise ValueError(
                f"{model['id']}: documented kernel {ans['kernel_dim']} but SVD gives {k}"
            )
        ans["kernel_dim"] = k
    return ans
