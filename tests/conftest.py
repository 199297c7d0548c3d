"""Shared fixtures: the reference study configuration and its per-target data."""

from dataclasses import dataclass

import numpy as np
import pytest

from spinalign import (
    ChainSpec,
    ParameterGrid,
    build_hamiltonian,
    build_table,
    chi_opt,
    delta_f_planar,
    enumerate_targets,
    ground_state,
    similarity_chain,
)

N_SITES = 4
COUPLING = 1.0
GRID = ParameterGrid(-0.5, 0.5, 5)
CANDIDATE = ChainSpec(N_SITES, COUPLING, (-0.5,) * N_SITES)


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
        gs = ground_state(spec)
        residuals[tid] = np.linalg.norm(
            h.entries @ gs.state.amplitudes - gs.energy * gs.state.amplitudes
        )
        gaps[tid] = gs.gap
        f[tid], profile = similarity_chain(gs.state, candidate_state)
        thetas[tid] = profile.thetas
        chi[tid] = chi_opt(profile)
        delta_f[tid] = delta_f_planar(profile.thetas, chi[tid])
        for k in range(N_SITES):
            rho = partial_trace(gs.state, 1 << k)
            rhos[tid, k] = rho.entries
            bloch_z[tid, k] = bloch_vector(rho).z
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
