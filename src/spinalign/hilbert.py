"""Dense complex linear algebra for small qubit registers.

Operators, state vectors, ground-state eigensolving and partial traces for
up to ``DENSE_SITE_CAP`` spin-1/2 sites. Everything is a plain dense numpy
array under the hood; all values are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CapacityError, ValidationError

# Dense matrices are capped at 2**DENSE_SITE_CAP; larger chains must go
# through the product-state path in the chain module.
DENSE_SITE_CAP = 10

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (_I2, _X, _Y, _Z):
    _m.setflags(write=False)

PAULI = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
DEGENERACY_GAP = 1e-8
# Amplitudes below this are treated as zero when fixing the global phase.
_PHASE_FLOOR = 1e-8


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    m.setflags(write=False)
    return m


def _n_sites_for_dim(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValidationError(f"dimension {dim} is not a power of two")
    return n


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of ``n_sites`` qubits; site 1 is the leftmost tensor factor."""

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or len(amps) != 2**self.n_sites:
            raise ValidationError(
                f"state of {self.n_sites} sites needs {2**self.n_sites} amplitudes, got {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"state is not normalized: |psi| = {norm!r}")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense square matrix; ``hermitian_hint`` asserts A = A† to 1e-12."""

    entries: np.ndarray
    hermitian_hint: bool = False

    def __post_init__(self):
        m = _as_complex_matrix(self.entries)
        object.__setattr__(self, "entries", m)
        if self.hermitian_hint:
            dev = np.max(np.abs(m - m.conj().T))
            if dev >= HERMITIAN_TOL:
                raise ValidationError(f"hermitian_hint set but max |A - A†| = {dev:g}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a 2^k dimensional subsystem."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.entries)
        object.__setattr__(self, "entries", m)
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValidationError("density matrix is not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"density matrix trace is {tr!r}, expected 1")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise ValidationError("density matrix has a negative eigenvalue")
        d = m.shape[0]
        p = self.purity
        if not (1.0 / d - 1e-10 <= p <= 1.0 + 1e-10):
            raise ValidationError(f"purity {p!r} outside [1/{d}, 1]")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenpair of a Hermitian operator plus the spectral gap above it."""

    energy: float
    state: StateVector
    gap: float
    degenerate: bool = False


# --- subset masks -----------------------------------------------------------
# A subset of sites is an int bitmask: bit (k-1) set means site k is included.

def mask_from_sites(sites: Iterable[int], n_sites: int) -> int:
    mask = 0
    for k in sites:
        if not 1 <= k <= n_sites:
            raise ValidationError(f"site index {k} outside 1..{n_sites}")
        mask |= 1 << (k - 1)
    return mask


# --- operations -------------------------------------------------------------

def kron(a: Operator, b: Operator) -> Operator:
    """Kronecker product a ⊗ b (a's index is the slow/leftmost one)."""
    dim = a.dim * b.dim
    if dim > 2**DENSE_SITE_CAP:
        raise CapacityError(f"kron result dimension {dim} exceeds 2^{DENSE_SITE_CAP}")
    return Operator(np.kron(a.entries, b.entries),
                    hermitian_hint=a.hermitian_hint and b.hermitian_hint)


def site_operator(pauli: str, site: int, n_sites: int) -> Operator:
    """Single-site Pauli embedded at ``site`` (1-based) in an ``n_sites`` register."""
    if pauli not in PAULI:
        raise ValidationError(f"unknown Pauli label {pauli!r}")
    if n_sites > DENSE_SITE_CAP:
        raise CapacityError(f"n_sites {n_sites} exceeds dense cap {DENSE_SITE_CAP}")
    if not 1 <= site <= n_sites:
        raise IndexError(f"site {site} outside 1..{n_sites}")
    out = np.array([[1.0 + 0j]])
    for k in range(1, n_sites + 1):
        out = np.kron(out, PAULI[pauli] if k == site else _I2)
    return Operator(out, hermitian_hint=True)


def hermitian_ground_state(h: Operator) -> GroundState:
    """Ground eigenpair of a Hermitian operator.

    The eigenvector phase is fixed by making the first non-negligible
    amplitude real and positive, so identical inputs give bit-identical
    states. A gap below 1e-8 marks the result degenerate; Bloch vectors of
    such ground spaces are convention dependent and consumers must treat
    them accordingly.
    """
    m = h.entries
    if h.dim < 2:
        raise ValidationError("ground-state solving needs at least a 2x2 operator")
    dev = np.max(np.abs(m - m.conj().T))
    if dev >= HERMITIAN_TOL:
        raise ValidationError(f"operator is not Hermitian: max |A - A†| = {dev:g}")
    n_sites = _n_sites_for_dim(h.dim)
    w, v = np.linalg.eigh(m)
    psi = np.array(v[:, 0], dtype=complex)
    idx = int(np.argmax(np.abs(psi) > _PHASE_FLOOR))
    psi *= np.exp(-1j * np.angle(psi[idx]))
    psi /= np.linalg.norm(psi)
    gap = float(w[1] - w[0])
    return GroundState(
        energy=float(w[0]),
        state=StateVector(psi, n_sites),
        gap=gap,
        degenerate=gap < DEGENERACY_GAP,
    )


def partial_trace(state: StateVector, keep: int) -> DensityMatrix:
    """Reduced density matrix of the sites in the ``keep`` bitmask.

    The traced-out sites are summed over; kept sites appear in ascending
    site order, the lowest kept site being the slow index of the result.
    """
    n = state.n_sites
    if keep == 0:
        raise ValidationError("keep mask must be non-empty")
    if keep >> n:
        raise ValidationError(f"keep mask {keep:#x} references sites beyond {n}")
    kept_axes = [k - 1 for k in range(1, n + 1) if keep >> (k - 1) & 1]
    tensor = state.amplitudes.reshape((2,) * n)
    tensor = np.moveaxis(tensor, kept_axes, range(len(kept_axes)))
    mat = tensor.reshape(2 ** len(kept_axes), -1)
    return DensityMatrix(mat @ mat.conj().T)


def apply_unitary(u: Operator, state: StateVector) -> StateVector:
    """Apply a unitary to a state; rejects non-unitary input."""
    m = u.entries
    if m.shape[0] != state.dim:
        raise ValidationError(f"operator dim {m.shape[0]} != state dim {state.dim}")
    dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
    if dev > UNITARY_TOL:
        raise ValidationError(f"operator is not unitary: max |U†U - I| = {dev:g}")
    return StateVector(m @ state.amplitudes, state.n_sites)


def basis_state(n_sites: int, index: int) -> StateVector:
    """Computational basis state |index⟩ (site 1 = most significant bit)."""
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, n_sites)


def product_state(single_site_states: Iterable[np.ndarray]) -> StateVector:
    """Tensor product of normalized single-qubit amplitude pairs."""
    out = np.array([1.0 + 0j])
    count = 0
    for s in single_site_states:
        out = np.kron(out, np.asarray(s, dtype=complex))
        count += 1
    return StateVector(out, count)
