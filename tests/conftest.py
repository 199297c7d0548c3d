"""Shared fixtures: the reference study configuration and its per-target data,
plus plain-numpy builders of test inputs and of an independent Hamiltonian."""

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pytest

from spinalign import (
    PAULI,
    ChainSpec,
    ParameterGrid,
    StateVector,
    build_hamiltonian,
    build_table,
    chi_opt,
    delta_f_planar,
    enumerate_targets,
    ground_state,
    hermitian_ground_state,
    similarity_chain,
)

N_SITES = 4
COUPLING = 1.0
GRID = ParameterGrid(-0.5, 0.5, 5)
CANDIDATE = ChainSpec(N_SITES, COUPLING, (-0.5,) * N_SITES)


def kron_all(*factors) -> np.ndarray:
    """Kronecker product of the factors, the first being the slow (leftmost) index."""
    return reduce(np.kron, factors)


def basis_state(n_sites: int, index: int) -> StateVector:
    """Computational basis state |index>, site 1 the most significant bit."""
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, n_sites)


def product_state(singles) -> StateVector:
    """Tensor product of normalized single-qubit amplitude pairs, site 1 first."""
    return StateVector(kron_all(*singles), len(singles))


def kron_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Σ_k (X_k + b_k Y_k + J Z_k Z_{k+1}) built term by term from np.kron, periodic."""
    n = spec.n_sites

    def site(pauli: str, k: int) -> np.ndarray:
        return kron_all(*(PAULI[pauli] if j == k else PAULI["I"] for j in range(n)))

    h = np.zeros((2**n, 2**n), dtype=complex)
    for k in range(n):
        h += site("X", k)
        h += spec.fields[k] * site("Y", k)
        h += spec.coupling * (site("Z", k) @ site("Z", (k + 1) % n))
    return h


@dataclass(frozen=True)
class StudyData:
    """Per-target ground-state data for the 625-target reference sweep."""

    candidate_state: object
    f: np.ndarray             # (625,) similarity vs the candidate
    thetas: np.ndarray        # (625, 4) signed angles
    chi: np.ndarray           # (625,) optimal half-angles
    delta_f: np.ndarray       # (625,) gain at chi
    target_rhos: np.ndarray   # (625, 4, 2, 2) single-site reduced density matrices
    bloch_z: np.ndarray       # (625, 4) z components of target Bloch vectors
    residuals: np.ndarray     # (625,) eigen residuals ||H psi - E psi||
    gaps: np.ndarray          # (625,) spectral gaps


@pytest.fixture(scope="session")
def candidate_state():
    return ground_state(CANDIDATE).state


@pytest.fixture(scope="session")
def table():
    return build_table(GRID, CANDIDATE)


@pytest.fixture(scope="session")
def table_j0():
    candidate = ChainSpec(N_SITES, 0.0, (-0.5,) * N_SITES)
    return build_table(GRID, candidate)


@pytest.fixture(scope="session")
def study(candidate_state) -> StudyData:
    from spinalign import bloch_vector, partial_trace

    count = GRID.levels**N_SITES
    f = np.empty(count)
    thetas = np.empty((count, N_SITES))
    chi = np.empty(count)
    delta_f = np.empty(count)
    rhos = np.empty((count, N_SITES, 2, 2), dtype=complex)
    bloch_z = np.empty((count, N_SITES))
    residuals = np.empty(count)
    gaps = np.empty(count)
    for tid, spec in enumerate_targets(GRID, N_SITES, coupling=COUPLING):
        h = build_hamiltonian(spec)
        gs = hermitian_ground_state(h)  # ground_state(spec), without building H again
        residuals[tid] = np.linalg.norm(
            h @ gs.state.amplitudes - gs.energy * gs.state.amplitudes
        )
        gaps[tid] = gs.gap
        f[tid], thetas[tid] = similarity_chain(gs.state.bloch, candidate_state.bloch)
        chi[tid] = chi_opt(thetas[tid])
        delta_f[tid] = delta_f_planar(thetas[tid], chi[tid])
        for k in range(N_SITES):
            rho = partial_trace(gs.state, 1 << k)
            rhos[tid, k] = rho.entries
            bloch_z[tid, k] = bloch_vector(rho)[2]
    return StudyData(
        candidate_state=candidate_state,
        f=f,
        thetas=thetas,
        chi=chi,
        delta_f=delta_f,
        target_rhos=rhos,
        bloch_z=bloch_z,
        residuals=residuals,
        gaps=gaps,
    )
