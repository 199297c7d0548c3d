"""Periodic spin-1/2 chains with a transverse X field and site-dependent Y fields.

The chain Hamiltonian is

    H = Σ_{k=1..N} ( X_k + b_k Y_k + J Z_k Z_{k+1} ),   Z_{N+1} ≡ Z_1.

The bond sum follows this formula literally: for N = 2 both k = 1 and k = 2
wrap onto the same physical bond, so that bond is counted twice. Target
families discretize each b_k onto a uniform grid and are enumerated by a
base-D integer id, site 1 in the least significant digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapacityError, ValidationError
from .hilbert import (
    DENSE_SITE_CAP,
    GroundState,
    Operator,
    hermitian_ground_state,
    site_operator,
)
from .similarity import BlochVector

DEFAULT_SWEEP_BUDGET = 1_000_000


@dataclass(frozen=True)
class ChainSpec:
    """Chain of ``n_sites`` spins with coupling J and per-site fields b."""

    n_sites: int
    coupling: float = 1.0
    fields: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValidationError("a chain needs at least 2 sites")
        object.__setattr__(self, "fields", tuple(float(b) for b in self.fields))
        if len(self.fields) != self.n_sites:
            raise ValidationError(
                f"expected {self.n_sites} field values, got {len(self.fields)}"
            )
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


DEFAULT_GRID = ParameterGrid(-0.5, 0.5, 5)


def build_hamiltonian(spec: ChainSpec) -> Operator:
    """Dense chain Hamiltonian Σ_k (X_k + b_k Y_k + J Z_k Z_{k+1}), periodic."""
    n = spec.n_sites
    if n > DENSE_SITE_CAP:
        raise CapacityError(f"n_sites {n} exceeds dense cap {DENSE_SITE_CAP}")
    h = np.zeros((2**n, 2**n), dtype=complex)
    z_ops = [site_operator("Z", k, n).entries for k in range(1, n + 1)]
    for k in range(1, n + 1):
        h += site_operator("X", k, n).entries
        h += spec.fields[k - 1] * site_operator("Y", k, n).entries
        h += spec.coupling * (z_ops[k - 1] @ z_ops[k % n])
    return Operator(h, hermitian_hint=True)


def ground_state(spec: ChainSpec) -> GroundState:
    """Exact ground state of the chain; carries the near-degeneracy flag."""
    return hermitian_ground_state(build_hamiltonian(spec))


def product_ground_bloch(b: float) -> BlochVector:
    """Ground-state Bloch vector -(1, b, 0)/sqrt(1+b²) of a single site X + bY.

    This is the J -> 0 limit in which the chain ground state factorizes into
    single-site ground states.
    """
    s = math.sqrt(1.0 + b * b)
    return BlochVector(-1.0 / s, -b / s, 0.0)


def target_fields(target_id: int, grid: ParameterGrid, n_sites: int) -> tuple[float, ...]:
    """Decode a target id to field values, base-D with site 1 least significant."""
    d = grid.levels
    if not 0 <= target_id < d**n_sites:
        raise ValidationError(f"target id {target_id} outside [0, {d**n_sites})")
    values = grid.values
    return tuple(float(values[(target_id // d**i) % d]) for i in range(n_sites))


def target_field_array(
    grid: ParameterGrid, n_sites: int, budget: int = DEFAULT_SWEEP_BUDGET
) -> np.ndarray:
    """Fields of every target as a (D^N, N) array, row = target id (see target_fields).

    Raises CapacityError before allocating when D^N exceeds ``budget``.
    """
    d = grid.levels
    count = d**n_sites
    if count > budget:
        raise CapacityError(f"sweep of {count} targets exceeds budget {budget}")
    digits = np.arange(count)[:, None] // d ** np.arange(n_sites) % d
    return grid.values[digits]


def enumerate_targets(
    grid: ParameterGrid,
    n_sites: int,
    coupling: float = 1.0,
    budget: int = DEFAULT_SWEEP_BUDGET,
) -> Iterator[tuple[int, ChainSpec]]:
    """Yield (target_id, ChainSpec) for every grid assignment, id ascending."""
    for target_id, fields in enumerate(target_field_array(grid, n_sites, budget)):
        yield target_id, ChainSpec(n_sites=n_sites, coupling=coupling, fields=fields)
