"""Model definitions: a JSON exchange format plus named builders.

A model is a Hamiltonian, at least one jump operator, and optionally a list
of declared strong symmetries, all expressed as sums of single-site product
terms on a spin-1/2 chain. Fermionic models are mapped through Jordan-Wigner
by their builders, so a serialized model is always in spin language.
"""

from __future__ import annotations

import inspect
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .opalg import MINUS, PLUS, Operator, PauliTerm, X, Y, Z, pauli_to_operator
from .pauli import strings

PARTICLE_KINDS = ("spin_half", "fermion")
SYMMETRY_NAMES = ("parity_z", "u1_number")


class ModelParseError(ValueError):
    """Malformed model text (JSON syntax)."""

    def __init__(self, message, lineno=None, colno=None):
        super().__init__(message)
        self.lineno = lineno
        self.colno = colno


class ModelValidationError(ValueError):
    """Syntactically valid model that violates a semantic rule."""


@dataclass(eq=False)
class ModelSpec:
    """A validated open-system model.

    ``lindblad_ops`` is a list of (label, terms) pairs; ``declared_symmetries``
    holds the names ``parity_z`` / ``u1_number`` or explicit unitary Operators.
    Treat instances as immutable after construction: built operators are
    cached on first use.
    """

    n_sites: int
    hamiltonian_terms: list
    lindblad_ops: list
    particle_kind: str = "spin_half"
    declared_symmetries: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    _built: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.n_sites, int) or self.n_sites < 1:
            raise ModelValidationError(f"n_sites must be a positive integer, got {self.n_sites!r}")
        if self.particle_kind not in PARTICLE_KINDS:
            raise ModelValidationError(
                f"particle_kind must be one of {PARTICLE_KINDS}, got {self.particle_kind!r}"
            )
        if len(self.lindblad_ops) < 1:
            raise ModelValidationError("at least one Lindblad operator is required")
        for i, term in enumerate(self.hamiltonian_terms):
            self._check_term(term, f"hamiltonian term {i}")
        self._check_hermitian()
        for label, terms in self.lindblad_ops:
            if not isinstance(label, str) or not label:
                raise ModelValidationError(f"Lindblad label must be a nonempty string, got {label!r}")
            for i, term in enumerate(terms):
                self._check_term(term, f"lindblad {label!r} term {i}")
        for sym in self.declared_symmetries:
            if isinstance(sym, str):
                if sym not in SYMMETRY_NAMES:
                    raise ModelValidationError(
                        f"unknown symmetry name {sym!r}; known: {SYMMETRY_NAMES}"
                    )
            elif isinstance(sym, Operator):
                if sym.dim != self.dim:
                    raise ModelValidationError(
                        f"symmetry matrix has dim {sym.dim}, model has dim {self.dim}"
                    )
            else:
                raise ModelValidationError(f"bad symmetry descriptor {sym!r}")

    def _check_term(self, term, where):
        if not isinstance(term, PauliTerm):
            raise ModelValidationError(f"{where}: expected a PauliTerm, got {term!r}")
        for site, _ in term.factors:
            if site > self.n_sites:
                raise ModelValidationError(
                    f"{where}: site {site} out of range 1..{self.n_sites}"
                )

    def _check_hermitian(self):
        """Refuse an H whose Pauli-string coefficients are not real.

        The strings are Hermitian and orthogonal, so H is Hermitian exactly
        when every summed coefficient is real. A term contributes at most
        one part to a string, of size at most |c| for its coefficient c, so
        summing the n terms in floating point errs by less than n eps S,
        with S the sum of their |c|. Terms written together with their
        adjoints leave imaginary parts of that size; larger ones are refused.
        """
        terms = self.hamiltonian_terms
        worst = max((abs(c.imag) for c in strings(terms, self.n_sites).values()), default=0.0)
        if worst > len(terms) * np.finfo(float).eps * sum(abs(t.coeff) for t in terms):
            raise ModelValidationError(
                "the Hamiltonian H is not Hermitian: a Pauli-string coefficient "
                f"has imaginary part {worst:.3e}"
            )

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    def operators(self):
        """(H, [L_1, ..., L_M]) as dense Operators, built once and cached."""
        if self._built is None:
            ham = pauli_to_operator(self.hamiltonian_terms, self.n_sites)
            jumps = [pauli_to_operator(terms, self.n_sites) for _, terms in self.lindblad_ops]
            object.__setattr__(self, "_built", (ham, jumps))
        return self._built

    def to_dict(self) -> dict:
        out = {
            "n_sites": self.n_sites,
            "particle_kind": self.particle_kind,
            "hamiltonian": [_term_to_dict(t) for t in self.hamiltonian_terms],
            "lindblad": [
                {"label": label, "terms": [_term_to_dict(t) for t in terms]}
                for label, terms in self.lindblad_ops
            ],
            "symmetries": [_symmetry_to_dict(s) for s in self.declared_symmetries],
        }
        if self.metadata:
            out["metadata"] = self.metadata
        return out


def _term_to_dict(term: PauliTerm) -> dict:
    return {
        "coeff": [term.coeff.real, term.coeff.imag],
        "factors": [{"site": s, "op": o} for s, o in term.factors],
    }


def _symmetry_to_dict(sym):
    if isinstance(sym, str):
        return sym
    flat = [[z.real, z.imag] for z in sym.mat.ravel()]
    return {"matrix": flat}


def _complex_from_pair(value, where):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise ModelValidationError(f"{where}: coefficient must be a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _term_from_dict(data, where) -> PauliTerm:
    if not isinstance(data, dict):
        raise ModelValidationError(f"{where}: expected an object, got {data!r}")
    coeff = _complex_from_pair(data.get("coeff"), where)
    raw = data.get("factors", [])
    if not isinstance(raw, list):
        raise ModelValidationError(f"{where}: factors must be a list")
    pairs = []
    for fac in raw:
        if not isinstance(fac, dict) or "site" not in fac or "op" not in fac:
            raise ModelValidationError(f"{where}: each factor needs 'site' and 'op'")
        site = fac["site"]
        if not isinstance(site, int) or isinstance(site, bool):
            raise ModelValidationError(f"{where}: site must be an integer, got {site!r}")
        pairs.append((site, fac["op"]))
    pairs.sort(key=lambda p: p[0])
    for (s1, _), (s2, _) in zip(pairs, pairs[1:]):
        if s1 == s2:
            raise ModelValidationError(f"{where}: site {s1} appears twice in one term")
    try:
        return PauliTerm(coeff, pairs)
    except ValueError as exc:
        raise ModelValidationError(f"{where}: {exc}") from exc


def parse_model(text: str) -> ModelSpec:
    """Parse and validate the JSON model format.

    Raises ModelParseError with line/column for syntax errors and
    ModelValidationError naming the offending term for semantic ones.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(
            f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            lineno=exc.lineno,
            colno=exc.colno,
        ) from exc
    if not isinstance(data, dict):
        raise ModelValidationError("model must be a JSON object")
    n_sites = data.get("n_sites")
    if not isinstance(n_sites, int) or isinstance(n_sites, bool):
        raise ModelValidationError("n_sites must be an integer")
    ham = [
        _term_from_dict(t, f"hamiltonian term {i}")
        for i, t in enumerate(data.get("hamiltonian", []))
    ]
    lindblad = []
    raw_lindblad = data.get("lindblad", [])
    if not isinstance(raw_lindblad, list):
        raise ModelValidationError("lindblad must be a list")
    for i, entry in enumerate(raw_lindblad):
        if not isinstance(entry, dict) or "label" not in entry:
            raise ModelValidationError(f"lindblad entry {i} needs a 'label'")
        label = entry["label"]
        terms = [
            _term_from_dict(t, f"lindblad {label!r} term {k}")
            for k, t in enumerate(entry.get("terms", []))
        ]
        lindblad.append((label, terms))
    symmetries = []
    for i, sym in enumerate(data.get("symmetries", [])):
        if isinstance(sym, str):
            symmetries.append(sym)
        elif isinstance(sym, dict) and "matrix" in sym:
            flat = sym["matrix"]
            d = 2**n_sites if isinstance(n_sites, int) else 0
            if not isinstance(flat, list) or len(flat) != d * d:
                raise ModelValidationError(
                    f"symmetry {i}: matrix must be a flat row-major list of {d * d} [re, im] pairs"
                )
            entries = [_complex_from_pair(z, f"symmetry {i}") for z in flat]
            mat = np.array(entries, dtype=complex).reshape(d, d)
            op = Operator(mat)
            if not op.is_unitary(1e-8):
                raise ModelValidationError(f"symmetry {i}: matrix is not unitary")
            symmetries.append(op)
        else:
            raise ModelValidationError(f"symmetry {i}: expected a name or {{'matrix': ...}}")
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ModelValidationError("metadata must be an object")
    return ModelSpec(
        n_sites=n_sites,
        hamiltonian_terms=ham,
        lindblad_ops=lindblad,
        particle_kind=data.get("particle_kind", "spin_half"),
        declared_symmetries=symmetries,
        metadata=metadata,
    )


def load_model(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


# ---------------------------------------------------------------------------
# Lattices

def parse_bonds(bonds, n_sites: int):
    """Accept '1-2;2-3' strings or iterables of pairs; normalize to (lo, hi)."""
    if isinstance(bonds, str):
        pairs = []
        for chunk in bonds.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split("-")
            if len(parts) != 2:
                raise ModelValidationError(f"cannot parse bond {chunk!r}; expected 'j-k'")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ModelValidationError(f"cannot parse bond {chunk!r}: {exc}") from exc
    else:
        pairs = [(int(a), int(b)) for a, b in bonds]
    for a, b in pairs:
        if not (1 <= a <= n_sites and 1 <= b <= n_sites):
            raise ModelValidationError(f"bond ({a}, {b}) outside 1..{n_sites}")
        if a == b:
            raise ModelValidationError(f"bond ({a}, {b}) is a self-loop")
    return [(min(a, b), max(a, b)) for a, b in pairs]


def _warn_if_disconnected(n, bonds):
    """Warn unless ``bonds`` join sites 1..n into one graph."""
    reached, grew = {1}, True
    while grew:
        grew = False
        for a, b in bonds:
            if (a in reached) != (b in reached):
                reached.update((a, b))
                grew = True
    if len(reached) < n:
        warnings.warn(
            "bond graph is disconnected; per-sector closure cannot reach "
            "full dimension",
            UserWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Builders

def _require_positive(value, name):
    val = float(value)
    if not val > 0:
        raise ModelValidationError(f"{name} must be positive, got {value}")
    return val


def _per_site(value, sites, name):
    """Normalize a scalar or {site: value} mapping to a per-site dict."""
    if isinstance(value, dict):
        missing = [s for s in sites if s not in value]
        if missing:
            raise ModelValidationError(f"{name} mapping is missing sites {missing}")
        return {s: float(value[s]) for s in sites}
    return {s: float(value) for s in sites}


def _per_bond(value, bonds, name):
    if isinstance(value, dict):
        out = {}
        for bond in bonds:
            lo, hi = bond
            if bond in value:
                out[bond] = value[bond]
            elif (hi, lo) in value:
                out[bond] = value[(hi, lo)]
            else:
                raise ModelValidationError(f"{name} mapping is missing bond {bond}")
        return out
    return {bond: value for bond in bonds}


def two_level_gain_loss(gamma_g, gamma_l, hx=0.0, hy=0.0, hz=0.0) -> ModelSpec:
    """Single qubit pumped up at rate gamma_g and down at rate gamma_l.

    The gain operator is sqrt(gamma_g) |up><down| and the loss operator its
    mirror image; an optional field term hx X + hy Y + hz Z can be added to
    probe Hamiltonian independence of the verdict.
    """
    gg = _require_positive(gamma_g, "gamma_g")
    gl = _require_positive(gamma_l, "gamma_l")
    ham = []
    for coeff, letter in ((hx, X), (hy, Y), (hz, Z)):
        if coeff != 0:
            ham.append(PauliTerm(coeff, [(1, letter)]))
    jumps = [
        ("L_g", [PauliTerm(math.sqrt(gg), [(1, PLUS)])]),
        ("L_l", [PauliTerm(math.sqrt(gl), [(1, MINUS)])]),
    ]
    meta = {
        "builtin": "two_level_gain_loss",
        "params": {"gamma_g": gg, "gamma_l": gl, "hx": float(hx), "hy": float(hy), "hz": float(hz)},
    }
    return ModelSpec(1, ham, jumps, metadata=meta)


def tfim_boundary_dephasing(N, h_x, gamma) -> ModelSpec:
    """Open-boundary Ising chain in a transverse field, dephased at site 1.

    H = sum_j Z_j Z_{j+1} + h_x sum_j X_j with the single jump operator
    sqrt(gamma) Z_1. The transverse field is what makes the generated algebra
    spread down the chain; h_x = 0 is accepted but warned about, since the
    model then conserves every Z_j and cannot be certified.
    """
    n = int(N)
    if n < 1:
        raise ModelValidationError(f"N must be at least 1, got {N}")
    g = _require_positive(gamma, "gamma")
    hx = float(h_x)
    if hx == 0:
        warnings.warn(
            "h_x = 0: H and the jump operator are simultaneously diagonal, "
            "so the steady state cannot be unique",
            UserWarning,
            stacklevel=2,
        )
    ham = [PauliTerm(1.0, [(j, Z), (j + 1, Z)]) for j in range(1, n)]
    if hx != 0:
        ham += [PauliTerm(hx, [(j, X)]) for j in range(1, n + 1)]
    jumps = [("L_1", [PauliTerm(math.sqrt(g), [(1, Z)])])]
    meta = {
        "builtin": "tfim_boundary_dephasing",
        "params": {"N": n, "h_x": hx, "gamma": g},
    }
    return ModelSpec(n, ham, jumps, metadata=meta)


def _xyz_terms(n, bonds, jx, jy, jz, hz_map):
    terms = []
    for bond in bonds:
        lo, hi = min(bond), max(bond)
        for coupling, letter in ((jx[bond], X), (jy[bond], Y), (jz[bond], Z)):
            if coupling != 0:
                terms.append(PauliTerm(coupling, [(lo, letter), (hi, letter)]))
    for site in range(1, n + 1):
        if hz_map[site] != 0:
            terms.append(PauliTerm(hz_map[site], [(site, Z)]))
    return terms


def _dephasing_jumps(sites, gamma_map):
    return [
        (f"L_{j}", [PauliTerm(math.sqrt(gamma_map[j]), [(j, Z)])])
        for j in sites
    ]


def _warn_equal_xy(jx, jy, bonds):
    for bond in bonds:
        if abs(jx[bond]) == abs(jy[bond]):
            warnings.warn(
                f"|Jx| = |Jy| on bond {bond}: an extra magnetization symmetry "
                "appears and per-sector closure will not reach full dimension",
                UserWarning,
                stacklevel=3,
            )
            return


def xyz_bulk_dephasing(N, Jx, Jy, Jz=0.0, hz=0.0, gamma=1.0) -> ModelSpec:
    """Periodic XYZ chain with uniform dephasing at every site.

    H = sum_{j=1}^{N} (Jx X_j X_{j+1} + Jy Y_j Y_{j+1} + Jz Z_j Z_{j+1})
        + hz sum_j Z_j,   L_j = sqrt(gamma) Z_j.

    Site N+1 means site 1; the sum is taken literally, so N = 2 counts its
    single geometric bond twice. Spin-flip parity prod_j Z_j is declared.
    The model is ``xyz_lattice`` on the ring bonds (j, j % N + 1).
    """
    n = int(N)
    if n < 2:
        raise ModelValidationError(f"N must be at least 2, got {N}")
    g = _require_positive(gamma, "gamma")
    jx, jy, jz = float(Jx), float(Jy), float(Jz)
    ring = [(j, j % n + 1) for j in range(1, n + 1)]
    spec = xyz_lattice(n, ring, jx, jy, jz, hz, g)
    spec.metadata = {
        "builtin": "xyz_bulk_dephasing",
        "params": {
            "N": n, "Jx": jx, "Jy": jy, "Jz": jz,
            "hz": hz if isinstance(hz, dict) else float(hz), "gamma": g,
        },
    }
    return spec


def compass_dephasing(N, Jx, Jy, gamma=1.0) -> ModelSpec:
    """Alternating-bond chain: X couplings on odd bonds, Y on even bonds.

    H = -Jx sum_{j=1}^{N/2} X_{2j-1} X_{2j} - Jy sum_{j=1}^{N/2-1} Y_{2j} Y_{2j+1}
    with dephasing L_j = sqrt(gamma) Z_j at every site. N must be even.
    The model is ``xyz_lattice`` on the X bonds, then the Y bonds, each
    passed only when its coupling is nonzero, so a vanishing coupling
    warns exactly when it leaves the bond graph disconnected.
    """
    n = int(N)
    if n < 2 or n % 2:
        raise ModelValidationError(f"N must be even and at least 2, got {N}")
    g = _require_positive(gamma, "gamma")
    jx, jy = float(Jx), float(Jy)
    x_bonds = [(2 * j - 1, 2 * j) for j in range(1, n // 2 + 1) if jx]
    y_bonds = [(2 * j, 2 * j + 1) for j in range(1, n // 2) if jy]
    bonds = x_bonds + y_bonds
    jx_map = {b: -jx if b in x_bonds else 0.0 for b in bonds}
    jy_map = {b: -jy if b in y_bonds else 0.0 for b in bonds}
    spec = xyz_lattice(n, bonds, jx_map, jy_map, gamma=g)
    spec.metadata = {
        "builtin": "compass_dephasing",
        "params": {"N": n, "Jx": jx, "Jy": jy, "gamma": g},
    }
    return spec


def _hopping_terms(bond, amplitude):
    """Jordan-Wigner image of t c†_j c_k + t* c†_k c_j for j < k.

    For j < k: c†_j c_k = (-)_j Z_{j+1} ... Z_{k-1} (+)_k and the reverse
    hop is the adjoint. Adjacent bonds carry no Z string.
    """
    j, k = bond
    string = [(s, Z) for s in range(j + 1, k)]
    amp = complex(amplitude)
    return [
        PauliTerm(amp, [(j, MINUS)] + string + [(k, PLUS)]),
        PauliTerm(amp.conjugate(), [(j, PLUS)] + string + [(k, MINUS)]),
    ]


def _number_jump(site, gamma_site):
    # sqrt(gamma) n_j = sqrt(gamma) (I - Z_j)/2
    root = math.sqrt(gamma_site)
    return [PauliTerm(0.5 * root), PauliTerm(-0.5 * root, [(site, Z)])]


def tight_binding_dephasing(N, t, delta=0.3, gamma=1.0) -> ModelSpec:
    """Periodic free-fermion hopping chain with number dephasing.

    H = t sum_{j=1}^{N} (c†_j c_{j+1} + c†_{j+1} c_j) + delta I and
    L_j = sqrt(gamma) n_j, expressed in spin language through Jordan-Wigner.
    delta shifts H by a multiple of the identity: the Liouvillian does not
    change, but the generated algebra does, which is why delta is recorded
    explicitly. The total-number phase e^{i N_tot} is declared. The model
    is ``tight_binding_lattice`` on the ring bonds (j, j % N + 1).
    """
    n = int(N)
    if n < 2:
        raise ModelValidationError(f"N must be at least 2, got {N}")
    g = _require_positive(gamma, "gamma")
    tt = float(t)
    ring = [(j, j % n + 1) for j in range(1, n + 1)]
    spec = tight_binding_lattice(n, ring, tt, delta, g)
    spec.metadata = {
        "builtin": "tight_binding_dephasing",
        "params": {"N": n, "t": tt, "delta": float(delta), "gamma": g},
    }
    return spec


def xyz_lattice(N, bonds, Jx, Jy, Jz=0.0, hz=0.0, gamma=1.0) -> ModelSpec:
    """XYZ couplings on an arbitrary bond list with per-site dephasing.

    Couplings may be scalars (uniform) or per-bond mappings; hz and gamma
    may be scalars or per-site mappings. A disconnected bond graph is
    accepted with a warning, since observing the certificate fail on it is
    one of the reasons this builder exists.
    """
    n = int(N)
    if n < 1:
        raise ModelValidationError(f"N must be at least 1, got {N}")
    bond_list = parse_bonds(bonds, n)
    jx = {b: float(v) for b, v in _per_bond(Jx, bond_list, "Jx").items()}
    jy = {b: float(v) for b, v in _per_bond(Jy, bond_list, "Jy").items()}
    jz = {b: float(v) for b, v in _per_bond(Jz, bond_list, "Jz").items()}
    _warn_equal_xy(jx, jy, bond_list)
    _warn_if_disconnected(n, [b for b in bond_list if jx[b] or jy[b] or jz[b]])
    gamma_map = _per_site(gamma, range(1, n + 1), "gamma")
    for site, val in gamma_map.items():
        _require_positive(val, f"gamma[{site}]")
    hz_map = _per_site(hz, range(1, n + 1), "hz")
    terms = _xyz_terms(n, bond_list, jx, jy, jz, hz_map)
    jumps = _dephasing_jumps(range(1, n + 1), gamma_map)
    meta = {
        "builtin": "xyz_lattice",
        "params": {"N": n, "bonds": [list(b) for b in bond_list]},
    }
    return ModelSpec(n, terms, jumps, declared_symmetries=["parity_z"], metadata=meta)


def tight_binding_lattice(N, bonds, t, delta=0.3, gamma=1.0) -> ModelSpec:
    """Fermion hopping on an arbitrary bond list with number dephasing.

    The hopping amplitude may be a scalar or a per-bond mapping (complex
    allowed; the reverse hop gets the conjugate). Serialized in spin
    language through Jordan-Wigner, with the chain-ordered Z strings fixed
    by the site numbering.
    """
    n = int(N)
    if n < 1:
        raise ModelValidationError(f"N must be at least 1, got {N}")
    bond_list = parse_bonds(bonds, n)
    t_map = _per_bond(t, bond_list, "t")
    terms, hopped = [], []
    for bond in bond_list:
        amp = complex(t_map[bond])
        if amp == 0:
            warnings.warn(f"t = 0 on bond {bond}: bond dropped", UserWarning, stacklevel=2)
            continue
        terms.extend(_hopping_terms(bond, amp))
        hopped.append(bond)
    _warn_if_disconnected(n, hopped)
    dd = float(delta)
    if dd != 0:
        terms.append(PauliTerm(dd))
    gamma_map = _per_site(gamma, range(1, n + 1), "gamma")
    for site, val in gamma_map.items():
        _require_positive(val, f"gamma[{site}]")
    jumps = [(f"L_{j}", _number_jump(j, gamma_map[j])) for j in range(1, n + 1)]
    meta = {
        "builtin": "tight_binding_lattice",
        "params": {"N": n, "bonds": [list(b) for b in bond_list], "delta": dd},
    }
    return ModelSpec(
        n, terms, jumps,
        particle_kind="fermion",
        declared_symmetries=["u1_number"],
        metadata=meta,
    )


BUILDERS = {
    "two_level_gain_loss": two_level_gain_loss,
    "tfim_boundary_dephasing": tfim_boundary_dephasing,
    "xyz_bulk_dephasing": xyz_bulk_dephasing,
    "compass_dephasing": compass_dephasing,
    "tight_binding_dephasing": tight_binding_dephasing,
    "xyz_lattice": xyz_lattice,
    "tight_binding_lattice": tight_binding_lattice,
}


def build_builtin(name: str, params: dict) -> ModelSpec:
    """Construct a named builtin, mapping bad parameter sets to clear errors."""
    if name not in BUILDERS:
        raise ModelValidationError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(BUILDERS))}"
        )
    builder = BUILDERS[name]
    try:
        return builder(**params)
    except TypeError as exc:
        sig = inspect.signature(builder)
        raise ModelValidationError(
            f"bad parameters for {name}: {exc}; expected {name}{sig}"
        ) from exc
