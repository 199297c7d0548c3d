"""Dense complex linear algebra for small qubit registers: the exact verifier.

State vectors, ground-state eigensolving and partial traces for up to
``DENSE_SITE_CAP`` sites. Operators are plain square complex arrays; the
ones built here are read-only, and each function that takes one checks it
(square, and Hermitian or unitary as it needs). No CLI path solves: the
tests tie the closed-form site angles and directions to the states here.
A state's per-site Bloch vectors (``StateVector.bloch``, an (N, 3) array)
are the ``bloch_vector`` of each site's ``partial_trace``. All values are
immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import CapacityError, ValidationError

# Dense matrices are capped at 2**DENSE_SITE_CAP; larger chains go through
# the closed-form site directions in the chain module.
DENSE_SITE_CAP = 10

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (_I2, _X, _Y, _Z):
    _m.setflags(write=False)

PAULI = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}

NORM_TOL = 1e-10
DENSITY_TOL = 1e-10  # the rounding each DensityMatrix check allows
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
DEGENERACY_GAP = 1e-8
# Amplitudes below this are treated as zero when fixing the global phase.
_PHASE_FLOOR = 1e-8


def _as_complex_matrix(entries) -> np.ndarray:
    try:
        m = np.array(entries, dtype=complex)
    except (TypeError, ValueError):  # ragged rows or non-numeric entries
        raise ValidationError("expected a square matrix of numbers") from None
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
        # Written so that a NaN or inf norm fails too.
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValidationError(f"state is not normalized: |psi| = {float(norm)!r}")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    @cached_property
    def bloch(self) -> np.ndarray:
        """Read-only (N, 3) per-site Bloch vectors: row k-1 is site k's (tr ρX, tr ρY, tr ρZ)."""
        out = np.array([bloch_vector(partial_trace(self, 1 << k)) for k in range(self.n_sites)])
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a 2^k dimensional subsystem.

    Checked as a reduced state of a vector StateVector accepts: the trace, a squared norm,
    within (1 ± NORM_TOL)², and the purity within [1/d, 1] times the trace squared, each
    check allowing DENSITY_TOL more for rounding and failing on NaN.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.entries)
        object.__setattr__(self, "entries", m)
        if not np.max(np.abs(m - m.conj().T)) <= DENSITY_TOL:
            raise ValidationError("density matrix is not Hermitian")
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= 2 * NORM_TOL + NORM_TOL**2 + DENSITY_TOL:
            raise ValidationError(f"density matrix trace is {tr!r}, expected 1")
        if np.min(np.linalg.eigvalsh(m)) < -DENSITY_TOL:
            raise ValidationError("density matrix has a negative eigenvalue")
        if not 1.0 / self.dim - DENSITY_TOL <= self.purity / tr**2 <= 1.0 + DENSITY_TOL:
            raise ValidationError(f"purity {self.purity!r} outside [1/{self.dim}, 1] "
                                  f"times the trace squared")

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

def site_operator(pauli: str, site: int, n_sites: int) -> np.ndarray:
    """Read-only single-site Pauli embedded at ``site`` (1-based) in an ``n_sites`` register."""
    if pauli not in PAULI:
        raise ValidationError(f"unknown Pauli label {pauli!r}")
    if n_sites > DENSE_SITE_CAP:
        raise CapacityError(f"n_sites {n_sites} exceeds dense cap {DENSE_SITE_CAP}")
    if not 1 <= site <= n_sites:
        raise IndexError(f"site {site} outside 1..{n_sites}")
    out = np.array([[1.0 + 0j]])
    for k in range(1, n_sites + 1):
        out = np.kron(out, PAULI[pauli] if k == site else _I2)
    out.setflags(write=False)
    return out


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector (tr ρX, tr ρY, tr ρZ) of a single-qubit density matrix, shape (3,)."""
    if rho.dim != 2:
        raise ValidationError(f"expected a 2x2 density matrix, got dim {rho.dim}")
    return np.array([np.trace(rho.entries @ PAULI[p]).real for p in "XYZ"])


def hermitian_ground_state(h) -> GroundState:
    """Ground eigenpair of a Hermitian matrix ``h``.

    The eigenvector phase is fixed by making the first non-negligible
    amplitude real and positive, so identical inputs give bit-identical
    states. A gap below 1e-8 marks the result degenerate; Bloch vectors of
    such ground spaces are convention dependent and consumers must treat
    them accordingly.
    """
    m = _as_complex_matrix(h)
    if len(m) < 2:
        raise ValidationError("ground-state solving needs at least a 2x2 operator")
    dev = np.max(np.abs(m - m.conj().T))
    if not dev < HERMITIAN_TOL:
        raise ValidationError(f"operator is not Hermitian: max |A - A†| = {dev:g}")
    n_sites = _n_sites_for_dim(len(m))
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
    if isinstance(keep, bool) or not isinstance(keep, (int, np.integer)):
        raise ValidationError(f"keep mask must be an integer, got {keep!r}")
    if keep == 0:
        raise ValidationError("keep mask must be non-empty")
    if keep >> n:
        raise ValidationError(f"keep mask {keep:#x} references sites beyond {n}")
    kept_axes = [k - 1 for k in range(1, n + 1) if keep >> (k - 1) & 1]
    tensor = state.amplitudes.reshape((2,) * n)
    tensor = np.moveaxis(tensor, kept_axes, range(len(kept_axes)))
    mat = tensor.reshape(2 ** len(kept_axes), -1)
    return DensityMatrix(mat @ mat.conj().T)


def apply_unitary(u, state: StateVector) -> StateVector:
    """Apply the unitary matrix ``u`` to a state; ValidationError naming the operator if it is
    not unitary within UNITARY_TOL (entrywise) or moves the state's norm beyond NORM_TOL."""
    m = _as_complex_matrix(u)
    if len(m) != state.dim:
        raise ValidationError(f"operator dim {len(m)} != state dim {state.dim}")
    dev = np.max(np.abs(m.conj().T @ m - np.eye(len(m))))
    if not dev <= UNITARY_TOL:
        raise ValidationError(f"operator is not unitary: max |U†U - I| = {dev:g}")
    try:
        return StateVector(m @ state.amplitudes, state.n_sites)
    except ValidationError as exc:
        raise ValidationError(f"operator is not unitary: the output {exc}") from None

