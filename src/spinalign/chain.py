"""Periodic spin-1/2 chains with a transverse X field and site-dependent Y fields.

The chain Hamiltonian is

    H = Σ_{k=1..N} ( X_k + b_k Y_k + J Z_k Z_{k+1} ),   Z_{N+1} ≡ Z_1.

The bond sum follows this formula literally: for N = 2 both k = 1 and k = 2
wrap onto the same physical bond, so that bond is counted twice. Target
families discretize each b_k onto a uniform grid and are enumerated by a
base-D integer id, site 1 in the least significant digit. The engine needs
only the closed-form site directions and their per-site cosines
(``site_cosines``); ``build_hamiltonian`` and ``ground_state`` are the dense
verifier's view of the same chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (CapacityError, ValidationError, check_count, check_directions, check_type,
                     real_array)
from .hilbert import GroundState, hermitian_ground_state, site_operator

DEFAULT_SWEEP_BUDGET = 1_000_000


@dataclass(frozen=True)
class ChainSpec:
    """Chain of ``n_sites`` spins with coupling J and per-site fields b."""

    n_sites: int
    coupling: float = 1.0
    fields: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_sites", check_count(self.n_sites, "the number of sites"))
        if self.n_sites < 2:
            raise ValidationError("a chain needs at least 2 sites")
        object.__setattr__(self, "coupling", float(real_array(self.coupling, "the coupling", ())))
        fields = real_array(self.fields, "fields", (self.n_sites,))
        object.__setattr__(self, "fields", tuple(fields.tolist()))
        if not math.isfinite(self.coupling) or not all(map(math.isfinite, self.fields)):
            raise ValidationError("coupling and fields must be finite")


@dataclass(frozen=True)
class ParameterGrid:
    """Uniformly spaced field values b_min..b_max with ``levels`` points.

    levels = 1 degenerates to the single value b_min (useful for sanity
    sweeps where the only target is the candidate itself).
    """

    b_min: float
    b_max: float
    levels: int

    def __post_init__(self):
        object.__setattr__(self, "levels", check_count(self.levels, "the number of grid levels"))
        for name in ("b_min", "b_max"):
            object.__setattr__(self, name, float(real_array(getattr(self, name), name, ())))
        if self.levels < 1:
            raise ValidationError("grid needs at least one level")
        # Also rejects a span b_max - b_min that overflows to inf.
        if not math.isfinite(self.b_max - self.b_min):
            raise ValidationError("grid bounds and their span must be finite")
        if self.levels > 1 and not self.b_min < self.b_max:
            raise ValidationError("grid requires b_min < b_max")

    @property
    def values(self) -> np.ndarray:
        if self.levels == 1:
            return np.array([self.b_min])
        return np.linspace(self.b_min, self.b_max, self.levels)


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Read-only dense Σ_k (X_k + b_k Y_k + J Z_k Z_{k+1}), periodic, from ``site_operator`` terms.

    The ZZ product is elementwise, since both factors are diagonal.
    """
    n = check_type(spec, ChainSpec, "spec").n_sites
    h = sum(
        site_operator("X", k, n)
        + spec.fields[k - 1] * site_operator("Y", k, n)
        + spec.coupling * (site_operator("Z", k, n) * site_operator("Z", k % n + 1, n))
        for k in range(1, n + 1)
    )
    h.setflags(write=False)
    return h


def ground_state(spec: ChainSpec) -> GroundState:
    """Exact ground state of the chain; carries the near-degeneracy flag."""
    return hermitian_ground_state(build_hamiltonian(spec))


def product_ground_directions(fields) -> np.ndarray:
    """Ground-state Bloch directions -(1, b, 0)/sqrt(1+b²) of X + bY per field b, shape (..., 3).

    Each is exact for site k of a chain at every J (see
    ``protocol.target_angles``); only the unit length is the J -> 0 value.
    A scalar b gives one (3,) direction; a (T, N) array of target fields
    gives the (T, N, 3) site directions of T chains. Where b² overflows,
    sqrt(1 + b²) is |b|, as it already is in floats for every |b| above
    about 1.2e8: the limit direction (-1/|b|, -sign b, 0). A NaN or infinite b fails.
    """
    b = real_array(fields, "fields", finite=True)
    with np.errstate(over="ignore"):
        s = np.sqrt(1.0 + b * b)
    s = np.where(np.isinf(s), np.abs(b), s)
    dirs = np.zeros(b.shape + (3,))
    dirs[..., 0] = -1.0 / s
    dirs[..., 1] = -b / s
    return dirs


def site_cosines(bloch_t: np.ndarray, bloch_c: np.ndarray) -> np.ndarray:
    """Per-site cos θ_k = r_k·c_k/(|r_k| |c_k|) between arrays of Bloch vectors, shape (..., N, 3).

    Leading axes broadcast, so a (T, N, 3) batch of targets is compared with
    one (N, 3) candidate in one call, each row bit-equal to its own call.
    """
    bloch_t, bloch_c = real_array(bloch_t, "Bloch vectors"), real_array(bloch_c, "Bloch vectors")
    if min(bloch_t.ndim, bloch_c.ndim) < 2 or bloch_t.shape[-2:] != bloch_c.shape[-2:]:
        raise ValidationError(f"Bloch arrays differ in (N, 3): {bloch_t.shape}, {bloch_c.shape}")
    nt2 = np.einsum("...ij,...ij->...i", bloch_t, bloch_t)
    nc2 = np.einsum("...ij,...ij->...i", bloch_c, bloch_c)
    check_directions(nt2)
    check_directions(nc2)
    return np.einsum("...ij,...ij->...i", bloch_t, bloch_c) / np.sqrt(nt2) / np.sqrt(nc2)


def target_count(grid: ParameterGrid, n_sites: int) -> int:
    """D^N, the number of targets on the grid; CapacityError above DEFAULT_SWEEP_BUDGET.

    A D^N of 2^64 or more is rejected as D^N, without building or printing the integer.
    """
    levels = check_type(grid, ParameterGrid, "grid").levels
    n_sites = check_count(n_sites, "n_sites")
    if levels > 1 and n_sites >= 64 / math.log2(levels):
        raise CapacityError(f"sweep of {levels}^{n_sites} targets exceeds budget "
                            f"{DEFAULT_SWEEP_BUDGET}")
    count = levels**n_sites
    if count > DEFAULT_SWEEP_BUDGET:
        raise CapacityError(f"sweep of {count} targets exceeds budget {DEFAULT_SWEEP_BUDGET}")
    return count


def target_field_array(
    grid: ParameterGrid, n_sites: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Fields of targets ``start`` <= id < ``stop`` (default: all D^N), one row per target.

    Ids are base-D with site 1 in the least significant digit; ``stop`` is
    clipped to D^N. Raises CapacityError before allocating when D^N exceeds
    DEFAULT_SWEEP_BUDGET, and ValidationError for an id that is not a
    non-negative integer (:func:`check_count`).
    """
    count = target_count(grid, n_sites)
    start = check_count(start, "start id")
    stop = count if stop is None else min(check_count(stop, "stop id"), count)
    digits = np.arange(start, stop)[:, None] // grid.levels ** np.arange(n_sites)
    digits %= grid.levels
    return grid.values[digits]


def enumerate_targets(
    grid: ParameterGrid, n_sites: int, coupling: float = 1.0
) -> Iterator[tuple[int, ChainSpec]]:
    """Yield (target_id, ChainSpec) for every grid assignment, id ascending."""
    for target_id, fields in enumerate(target_field_array(grid, n_sites)):
        yield target_id, ChainSpec(n_sites=n_sites, coupling=coupling, fields=fields)
