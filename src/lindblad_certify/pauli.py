"""The generator on Pauli strings, built from the model's terms.

A Pauli string is P(x, z) = i^{|x∧z|} X^x Z^z for bit masks x and z over
the sites (site j is bit j-1, as in opalg): a tensor product of I, X, Y
and Z, since i·XZ = Y on a site. It is Hermitian, and the 4^N strings
scaled by 1/√d are an orthonormal basis of the d x d operators under
Tr(A† B). String (x, z) has index s = x·d + z, so the identity is index 0
and the product of two strings is indexed by the XOR of their indices.

Products follow from X^a Z^b · X^c Z^d = (-1)^{|b∧c|} X^{a⊕c} Z^{b⊕d}:

    P_t P_b = i^p P_{t⊕b},  p = |x_t∧z_t| + |x_b∧z_b| + 2|z_t∧x_b| - |x_o∧z_o|,

with o = t⊕b, and the two strings anticommute exactly when p is odd.
Every term of a model is a sum of strings, so the generator maps each
string to a handful of strings: its matrix on the strings is exactly
sparse, and it is built here with bit operations on all strings at once,
never from d x d matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .opalg import PLUS, X, Y, Z

if TYPE_CHECKING:
    from .modelspec import ModelSpec

DEFAULT_MAX_DIM = 2**8

# i^p for p = 0..3
_I_POW = np.array([1, 1j, -1, -1j])
# i^p where p is odd, 0 where it is even: a Hamiltonian string's factor
_ODD_POW = np.array([0, 1j, 0, -1j])
# A jump pair (c, c') at column b: with s = ±1 for commuting and
# anticommuting strings, σ = s(c,c') and e = 1 where s(b,c) = s(b,c'),
# the order (c, c') weighs s(b,c') - σe and the order (c', c), whose
# product P_c' P_c is σ P_c P_c', weighs s(b,c) - σe. The pair's value is
# mu times the first weight plus conj(mu) σ times the second; these are
# the two integer factors, by row σ = 1, -1 and by column the case
# 2 odd(b,c) + odd(b,c'), with odd = 1 for anticommuting strings. Both
# are stored by the power p of P_c P_c' = i^p P_{c⊕c'}, with σ = 1 exactly
# when p is even, and carry the factor i^p.
_PAIR_MU = np.array([[0, -1, 1, -2], [2, -1, 1, 0]])[[0, 1, 0, 1]] * _I_POW[:, None]
_PAIR_CONJ = np.array([[0, 1, -1, -2], [-2, -1, 1, 0]])[[0, 1, 0, 1]] * _I_POW[:, None]
# the most contributions generator_form sums at once
_BLOCK_ENTRIES = 1 << 17
# up to this many sites product_power reads a table of 16^N entries (4096 at
# N = 3; at N = 4 the table and its build would add to peak memory)
_TABLE_SITES = 3


@dataclass(frozen=True)
class _Tables:
    """Per-N index and phase tables, shared by every model with N sites."""

    ones: np.ndarray  # the number of set bits of every mask below d
    weight: np.ndarray  # |x∧z| of every string, the power of i in its prefactor
    z_of: np.ndarray  # the z mask of every string
    x_of: np.ndarray  # the x mask of every string
    phase: np.ndarray  # (d, d) over (x, z): i^{|x∧z|} / √d
    hadamard: np.ndarray  # (d, d) over (z, c): (-1)^{|z∧c|}
    gather: np.ndarray  # vec position r + c·d  <-  flat (x, c) with r = c⊕x
    strings: np.ndarray  # every string index
    diagonal: np.ndarray  # flat position b·d² + b of each diagonal entry of a d² x d² matrix


@lru_cache(maxsize=16)
def _tables(n_sites: int) -> _Tables:
    d = 2**n_sites
    masks = np.arange(d)
    # bit counts as exact integers, one site at a time
    ones = sum(((masks >> j) & 1 for j in range(n_sites)), np.zeros(d, dtype=np.intp))
    idx = np.arange(d * d)
    x_of, z_of = idx >> n_sites, idx & (d - 1)
    weight = ones[x_of & z_of]
    parity = ones[masks[:, None] & masks[None, :]] & 1
    # vec position of entry (c⊕x, c) is (c⊕x) + c·d; invert that map
    flat_x, flat_c = np.divmod(idx, d)
    order = np.empty(d * d, dtype=np.intp)
    order[(flat_c ^ flat_x) + flat_c * d] = idx
    return _Tables(
        ones=ones,
        weight=weight,
        z_of=z_of,
        x_of=x_of,
        phase=_I_POW[weight.reshape(d, d) & 3] / np.sqrt(d),
        hadamard=1.0 - 2.0 * parity,
        gather=order,
        strings=idx,
        diagonal=idx * (d * d + 1),
    )


def _counted_power(n_sites: int, t, b):
    tab = _tables(n_sites)
    return (
        tab.weight[t] + tab.weight[b]
        + 2 * tab.ones[tab.z_of[t] & tab.x_of[b]]
        - tab.weight[t ^ b]
    ) & 3


@lru_cache(maxsize=_TABLE_SITES + 1)
def _product_table(n_sites: int) -> np.ndarray:
    every = _tables(n_sites).strings
    return _counted_power(n_sites, every[:, None], every)


def product_power(n_sites: int, t, b):
    """p with P_t P_b = i^p P_{t⊕b}, for broadcast index arrays t and b.

    Up to _TABLE_SITES sites every product is looked up in a table of all
    16^N pairs; on small models the bit counts would cost more in numpy
    calls than in arithmetic.
    """
    if n_sites <= _TABLE_SITES:
        table = _product_table(n_sites)
        return table.ravel()[t * len(table) + b]
    return _counted_power(n_sites, t, b)


def strings(terms, n_sites: int) -> dict:
    """The operator sum of ``terms`` as {string index: coefficient}.

    Each term's factors sit on distinct sites, so its strings are products
    of one string per factor with no phase: X, Y and Z set bits, and a
    ladder factor, (X ± iY)/2 for + and -, doubles the strings. Equal
    strings are summed in term order, and strings whose coefficients
    cancel exactly are dropped.
    """
    out = {}
    for term in terms:
        x = z = 0
        parts = [(0, term.coeff)]
        for site, letter in term.factors:
            bit = 1 << (site - 1)
            if letter == Z:
                z |= bit
                continue
            x |= bit
            if letter == Y:
                z |= bit
            elif letter != X:
                half = 0.5j if letter == PLUS else -0.5j
                parts = [p for zs, c in parts for p in ((zs, 0.5 * c), (zs | bit, half * c))]
        for zs, c in parts:
            key = (x << n_sites) | z | zs
            out[key] = out.get(key, 0.0) + c
    return {k: v for k, v in out.items() if v != 0}


@dataclass
class PauliForm:
    """The generator's real matrix on the orthonormal strings P/√d.

    Entry [a, b] is the coefficient of P_a in L(P_b). ``imag_norm`` is the
    Frobenius norm of the imaginary parts that summing the terms left, which
    a generator that preserves Hermiticity makes zero up to roundoff.
    """

    d: int
    matrix: np.ndarray
    imag_norm: float

    def real_form(self):
        return self.matrix, self.imag_norm

    def to_vectors(self, coords: np.ndarray) -> np.ndarray:
        """Column-stacked d x d matrices of the string coordinates ``coords``.

        Entry (c⊕x, c) of P(x, z) is i^{|x∧z|} (-1)^{|z∧c|}, so for each x
        the entries of sum_z w[x, z] P(x, z) are a Hadamard transform over
        z: all columns are mapped in one matrix product and one gather.
        """
        d, k = self.d, coords.shape[1]
        tab = _tables(d.bit_length() - 1)
        by_x = coords.T.reshape(k, d, d) * tab.phase
        return (by_x @ tab.hadamard).reshape(k, d * d)[:, tab.gather].T


def _contributions(n_sites: int, keys, ham, first, second, mu):
    """Left strings t and values v of the contributions v[b] P_t P_b to column b.

    One row for each Hamiltonian string in ``keys``, with ``ham`` its
    coefficient times -2i, then one for each jump pair (``first``,
    ``second``) with weight ``mu``.
    """
    cols = _tables(n_sites).strings
    lefts = np.concatenate([keys, first ^ second])
    n_h, n_t = len(keys), len(lefts)
    # the powers of the left strings, then of the pairs' two strings
    power = product_power(n_sites, np.concatenate([lefts, first, second])[:, None], cols)
    values = np.empty((n_t, len(cols)), dtype=complex)
    values[:n_h] = ham[:, None] * _ODD_POW[power[:n_h]]
    if n_t > n_h:
        rows = np.arange(len(first))
        # P_c P_c' = i^p P_{c⊕c'}: the row of c, at column c'
        p_pair = power[n_t + rows, second]
        mu = mu[:, None]
        pair = mu * _PAIR_MU[p_pair] + mu.conj() * _PAIR_CONJ[p_pair]
        odd = power[n_t:] & 1
        values[n_h:] = pair[rows[:, None], 2 * odd[: len(rows)] + odd[len(rows) :]]
        values[n_h:] *= _I_POW[power[n_h:n_t]]
    return lefts, values


def _accumulate(total, flat, weights, size: int):
    """Add ``weights`` at positions ``flat`` into ``total``, in order.

    np.add.at adds in the same order as np.bincount, so rows summed block
    by block give the same floating-point sums as all rows at once.
    """
    if total is None:
        return np.bincount(flat, weights=weights, minlength=size)
    np.add.at(total, flat, weights)
    return total


def generator_form(spec: ModelSpec) -> PauliForm:
    """The generator's PauliForm, built from the model's terms.

    With Hamiltonian strings h_k P_k and jumps L_m = sum_c λ_c P_c:

    * -i[H, P_b] = -2i h_k P_k P_b for each P_k that anticommutes with
      P_b, and 0 for one that commutes, real up to the roundoff that
      ModelSpec admits in the h_k;
    * each ordered pair (c, c') of a jump's strings contributes
      μ (P_c P_b P_c' - ½ P_c' P_c P_b - ½ P_b P_c' P_c) with
      μ = λ_c conj(λ_c'). All three products are ± P_c P_c' P_b, so the
      pair's weight is s(b,c') - ½ s(c,c') (1 + s(b,c) s(b,c')), an integer
      in -2..2, with s = ±1 for commuting and anticommuting strings. A
      pair c = c' leaves -2|λ_c|² P_b where P_c anticommutes with P_b;
      the pairs (c, c') and (c', c) are added into one value first, so
      parts that cancel in exact arithmetic cancel exactly.

    What is left to sum on one entry are contributions of different terms,
    which cancel only where the model's coefficients do, so the matrix's
    zero pattern is exact. A jump with S strings has S(S+1)/2 pairs, so
    the rows are summed in blocks of at most _BLOCK_ENTRIES entries, and
    memory beyond the d⁴ sums does not grow with the number of pairs. A d
    above DEFAULT_MAX_DIM is refused before any array is made.
    """
    n_sites, d = spec.n_sites, spec.dim
    if d > DEFAULT_MAX_DIM:
        raise ValueError(
            f"model dimension {d} exceeds the budget {DEFAULT_MAX_DIM}; "
            f"the vectorized matrix would be {d * d} x {d * d}"
        )
    n = d * d
    ham = strings(spec.hamiltonian_terms, n_sites)
    # each jump's string pairs c <= c', with mu = λ_c conj(λ_c') halved
    # for c = c', where the two orders are one and the same term
    first, second, mu = [], [], []
    for _, terms in spec.lindblad_ops:
        items = list(strings(terms, n_sites).items())
        for i, (c, lam) in enumerate(items):
            for c2, lam2 in items[i:]:
                first.append(c)
                second.append(c2)
                mu.append(lam * lam2.conjugate() * (0.5 if c == c2 else 1.0))
    keys, h_coeffs = np.array(list(ham), dtype=np.intp), -2j * np.array(list(ham.values()))
    first, second = np.array(first, dtype=np.intp), np.array(second, dtype=np.intp)
    mu = np.array(mu)
    # rows are H's strings, then the pairs; a block takes rows lo..hi-1
    n_h, n_rows = len(keys), len(keys) + len(first)
    step = max(1, _BLOCK_ENTRIES // n)
    matrix = imag = None
    for lo in range(0, n_rows, step):
        hi = lo + step
        pairs = slice(max(lo - n_h, 0), max(hi - n_h, 0))
        lefts, values = _contributions(
            n_sites, keys[lo:hi], h_coeffs[lo:hi], first[pairs], second[pairs], mu[pairs]
        )
        # entry (t⊕b, b) is at (t⊕b)·n + b = t·n ⊕ (b·n + b), as n is a power of 2
        flat = ((lefts * n)[:, None] ^ _tables(n_sites).diagonal).ravel()
        matrix = _accumulate(matrix, flat, values.real.ravel(), n * n)
        part = values.imag.ravel()
        if part.any():
            nonzero = part != 0
            imag = _accumulate(imag, flat[nonzero], part[nonzero], n * n)
    if matrix is None:
        matrix = np.zeros(n * n)
    imag_norm = 0.0 if imag is None else float(np.sqrt(imag @ imag))
    return PauliForm(d=d, matrix=matrix.reshape(n, n), imag_norm=imag_norm)
