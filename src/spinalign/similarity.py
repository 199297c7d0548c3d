"""Bloch vectors, inter-chain angles and subsystem-wise similarity measures.

The chain similarity F compares two equal-length chains site by site: it is
the sum over sites of the cosine of the angle between the corresponding
single-site Bloch vectors, so F ranges over [-N, N] and reaches N exactly
when every pair of vectors is aligned. Its per-site angles are measured in
the xy plane about +z, the axis of the only control, the global rotation
U(χ). A general subset similarity sums a per-subset comparison function
over an arbitrary family of subsystem masks; two comparison kinds are
provided (single-site cosine and subset purity matching). The per-site
cosines of Bloch arrays are ``chain.site_cosines``, and the direction floor
is ``errors.check_directions``.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

from .chain import site_cosines
from .errors import (ValidationError, check_counts, check_directions, check_register, check_type,
                     real_array)
from .hilbert import DensityMatrix, StateVector, partial_trace


class SubsetFunctionKind(enum.Enum):
    """Per-subset comparison functions available to the general similarity."""

    COSINE_SINGLE_SITE = "cosine-single-site"
    PURITY = "purity"


def cos_theta(rho_t: DensityMatrix, rho_c: DensityMatrix) -> float:
    """Cosine of the angle between the Bloch vectors of two single-qubit states.

    Computed purely from traces:
        (2 tr(ρ_t ρ_c) - 1) / sqrt(2 tr ρ_c² - 1) / sqrt(2 tr ρ_t² - 1),
    which coincides with r·c/(r c) for the two Bloch vectors.
    """
    if any(check_type(rho, DensityMatrix, "rho").dim != 2 for rho in (rho_t, rho_c)):
        raise ValidationError("cos_theta is defined for single-qubit density matrices")
    nt2 = 2.0 * rho_t.purity - 1.0
    nc2 = 2.0 * rho_c.purity - 1.0
    check_directions(np.array([nt2, nc2]))
    overlap = 2.0 * float(np.trace(rho_t.entries @ rho_c.entries).real) - 1.0
    return overlap / math.sqrt(nt2) / math.sqrt(nc2)


def similarity_chain(bloch_t, bloch_c) -> tuple[float, np.ndarray]:
    """Chain similarity F = Σ_k cos θ_k and the (N,) angles θ_k about +z, in (-π, π].

    Both chains are given by their (N, 3) per-site Bloch vectors, such as a
    state's ``bloch``. θ_k turns candidate site k about +z onto target site
    k, counterclockwise positive; z components do not enter it. A site whose
    Bloch vector, or its xy part, is below DIRECTION_FLOOR or not finite in
    either chain raises UndefinedDirectionError.
    """
    bt, bc = (real_array(b, "site Bloch vectors", (None, 3)) for b in (bloch_t, bloch_c))
    f = float(site_cosines(bt, bc).sum())
    (rx, ry), (cx, cy) = bt[:, :2].T, bc[:, :2].T
    check_directions(np.concatenate([rx * rx + ry * ry, cx * cx + cy * cy]))
    thetas = np.arctan2(cx * ry - cy * rx, cx * rx + cy * ry)
    thetas[thetas <= -np.pi] = np.pi
    return f, thetas


def enumerate_bipartition_subsets(n: int) -> list[int]:
    """All non-empty proper subset masks of n sites, ascending; count is 2^n - 2."""
    if check_register(n, "n") < 2:
        raise ValidationError("bipartitions need at least 2 sites")
    return list(range(1, 2**n - 1))


def purity_term(rho_t: DensityMatrix, rho_c: DensityMatrix) -> float:
    """Purity-matching score 1 - (tr ρ_t² - tr ρ_c²)², equal to 1 iff purities agree."""
    dim_t, dim_c = (check_type(rho, DensityMatrix, "rho").dim for rho in (rho_t, rho_c))
    if dim_t != dim_c:
        raise ValidationError(f"dimension mismatch: {dim_t} vs {dim_c}")
    return 1.0 - (rho_t.purity - rho_c.purity) ** 2


def similarity_general(
    state_t: StateVector,
    state_c: StateVector,
    subsets: Sequence[int],
    kind: SubsetFunctionKind,
) -> float:
    """Sum of the chosen per-subset function over reduced density matrix pairs."""
    if (check_type(state_t, StateVector, "state_t").n_sites
            != check_type(state_c, StateVector, "state_c").n_sites):
        raise ValidationError("chains differ in length")
    cosine = check_type(kind, SubsetFunctionKind, "kind") is SubsetFunctionKind.COSINE_SINGLE_SITE
    total = 0.0
    for mask in check_counts(subsets, "subsets"):
        # partial_trace checks the mask before its bits are counted.
        rho_t = partial_trace(state_t, mask)
        rho_c = partial_trace(state_c, mask)
        if not cosine:
            total += purity_term(rho_t, rho_c)
        elif mask.bit_count() == 1:
            total += cos_theta(rho_t, rho_c)
        else:
            raise ValidationError(
                f"cosine similarity applies to singleton subsets only, got mask {mask:#x}"
            )
    return total
