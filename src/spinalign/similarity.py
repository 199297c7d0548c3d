"""Bloch vectors, inter-chain angles and subsystem-wise similarity measures.

The chain similarity F compares two equal-length chains site by site: it is
the sum over sites of the cosine of the angle between the corresponding
single-site Bloch vectors, so F ranges over [-N, N] and reaches N exactly
when every pair of vectors is aligned. Its per-site angles are measured in
the xy plane about +z, the axis of the only control, the global rotation
U(χ). A general subset similarity sums a per-subset comparison function
over an arbitrary family of subsystem masks; two comparison kinds are
provided (single-site cosine and subset purity matching).
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

from .chain import real_array
from .errors import UndefinedDirectionError, ValidationError
from .hilbert import DensityMatrix, StateVector, partial_trace

# Sites whose Bloch vector is shorter than this have no usable direction;
# the cosine metric is meaningless for (nearly) maximally mixed sites.
DIRECTION_FLOOR = 1e-6


class SubsetFunctionKind(enum.Enum):
    """Per-subset comparison functions available to the general similarity."""

    COSINE_SINGLE_SITE = "cosine-single-site"
    PURITY = "purity"


def _require_directions(norms2: np.ndarray) -> None:
    """Reject a squared Bloch length below DIRECTION_FLOOR², or not finite: no defined angle."""
    # One min and one max, with no temporary array; both carry a NaN, which fails the test.
    if norms2.size and not DIRECTION_FLOOR**2 <= norms2.min() <= norms2.max() < math.inf:
        raise UndefinedDirectionError(
            "Bloch norm below direction floor or not finite; angle undefined"
        )


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
    _require_directions(nt2)
    _require_directions(nc2)
    return np.einsum("...ij,...ij->...i", bloch_t, bloch_c) / np.sqrt(nt2) / np.sqrt(nc2)


def cos_theta(rho_t: DensityMatrix, rho_c: DensityMatrix) -> float:
    """Cosine of the angle between the Bloch vectors of two single-qubit states.

    Computed purely from traces:
        (2 tr(ρ_t ρ_c) - 1) / sqrt(2 tr ρ_c² - 1) / sqrt(2 tr ρ_t² - 1),
    which coincides with r·c/(r c) for the two Bloch vectors.
    """
    if rho_t.dim != 2 or rho_c.dim != 2:
        raise ValidationError("cos_theta is defined for single-qubit density matrices")
    nt2 = 2.0 * rho_t.purity - 1.0
    nc2 = 2.0 * rho_c.purity - 1.0
    _require_directions(np.array([nt2, nc2]))
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
    _require_directions(np.concatenate([rx * rx + ry * ry, cx * cx + cy * cy]))
    thetas = np.arctan2(cx * ry - cy * rx, cx * rx + cy * ry)
    thetas[thetas <= -np.pi] = np.pi
    return f, thetas


def enumerate_bipartition_subsets(n: int) -> list[int]:
    """All non-empty proper subset masks of n sites, ascending; count is 2^n - 2."""
    if n < 2:
        raise ValidationError("bipartitions need at least 2 sites")
    return list(range(1, 2**n - 1))


def purity_term(rho_t: DensityMatrix, rho_c: DensityMatrix) -> float:
    """Purity-matching score 1 - (tr ρ_t² - tr ρ_c²)², equal to 1 iff purities agree."""
    if rho_t.dim != rho_c.dim:
        raise ValidationError(f"dimension mismatch: {rho_t.dim} vs {rho_c.dim}")
    return 1.0 - (rho_t.purity - rho_c.purity) ** 2


def similarity_general(
    state_t: StateVector,
    state_c: StateVector,
    subsets: Sequence[int],
    kind: SubsetFunctionKind,
) -> float:
    """Sum of the chosen per-subset function over reduced density matrix pairs."""
    if state_t.n_sites != state_c.n_sites:
        raise ValidationError("chains differ in length")
    if not isinstance(kind, SubsetFunctionKind):
        raise ValidationError(f"unknown subset function kind {kind!r}")
    cosine = kind is SubsetFunctionKind.COSINE_SINGLE_SITE
    total = 0.0
    for mask in subsets:
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
