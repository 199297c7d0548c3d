"""Global-rotation control: gain formulas, the optimal angle, and the
single-query lookup protocol.

The controllable operation is the uniform rotation U(χ) = exp(-i χ Σ_k Z_k),
which turns every single-site Bloch vector counterclockwise about +z by 2χ.
For an angle profile θ_k the similarity gain is

    ΔF(χ) = 2 sin χ Σ_k sin(θ_k - χ),

maximized by the circular-mean half-angle χ_opt = atan2(Σ sin θ_k, Σ cos θ_k)/2.
A lookup table over all discrete targets maps an observed similarity F to
χ_opt, so a single black-box query suffices to pick the rotation.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chain import ChainSpec, ParameterGrid, ground_state, target_field_array
from .errors import (
    CapacityError,
    IndeterminateOptimumError,
    UndefinedDirectionError,
    ValidationError,
)
from .hilbert import DENSE_SITE_CAP, Operator, apply_unitary
from .similarity import AngleProfile, BlochVector

# Below this resultant length the gain is flat in χ and no optimum exists.
_RESULTANT_FLOOR = 1e-12
# A site whose in-plane weight falls below this contributes nothing to the
# general gain formula and its orientation angle is left unevaluated.
_PREFACTOR_FLOOR = 1e-12

CSV_HEADER = "target_id,F,chi_opt,delta_F,sum_sin"


def global_rotation(chi: float, n_sites: int) -> Operator:
    """U = exp(-i χ Σ_k Z_k): every Bloch vector rotates by +2χ about +z."""
    if n_sites > DENSE_SITE_CAP:
        raise CapacityError(f"n_sites {n_sites} exceeds dense cap {DENSE_SITE_CAP}")
    weights = np.array([i.bit_count() for i in range(2**n_sites)])
    phases = np.exp(-1j * chi * (n_sites - 2 * weights))
    return Operator(np.diag(phases))


def delta_f_planar(thetas, chi: float) -> float:
    """Similarity gain 2 sin χ Σ_k sin(θ_k - χ) for in-plane Bloch vectors."""
    th = np.asarray(thetas, dtype=float)
    return float(2.0 * np.sin(chi) * np.sum(np.sin(th - chi)))


def delta_f_general(
    c_list: Sequence[BlochVector],
    r_list: Sequence[BlochVector],
    axis: BlochVector,
    chi: float,
) -> float:
    """Similarity gain for a rotation about an arbitrary unit axis.

    Per site the gain is 2 sin χ · w_k · sin(χ + γ_k), where w_k is the
    geometric mean of the in-plane weights of both unit vectors and γ_k their
    relative orientation. γ_k is recovered with atan2 so its sign follows the
    handedness of (c, r) about the axis; with both vectors orthogonal to the
    axis this reduces exactly to the planar formula on signed angles.
    """
    if abs(axis.norm - 1.0) > 1e-12:
        raise ValidationError("rotation axis must be a unit vector")
    if len(c_list) != len(r_list):
        raise ValidationError("candidate and target Bloch lists differ in length")
    av = axis.as_array()
    total = 0.0
    for c, r in zip(c_list, r_list):
        cn, rn = c.norm, r.norm
        if cn < 1e-6 or rn < 1e-6:
            raise UndefinedDirectionError("Bloch norm below direction floor")
        cu = c.as_array() / cn
        ru = r.as_array() / rn
        ca, ra = float(cu @ av), float(ru @ av)
        w2 = (1.0 - ca**2) * (1.0 - ra**2)
        if w2 < _PREFACTOR_FLOOR**2:
            continue
        cos_part = ca * ra - float(cu @ ru)
        sin_part = float(av @ np.cross(cu, ru))
        gamma = np.arctan2(sin_part, cos_part)
        total += np.sqrt(w2) * np.sin(chi + gamma)
    return float(2.0 * np.sin(chi) * total)


def _half_angle(sum_sin, sum_cos) -> np.ndarray:
    """atan2(Σ sin θ, Σ cos θ)/2 in (-π/2, π/2], elementwise; rejects a vanishing resultant."""
    s, c = np.asarray(sum_sin, dtype=float), np.asarray(sum_cos, dtype=float)
    if np.any(s * s + c * c < _RESULTANT_FLOOR**2):
        raise IndeterminateOptimumError(
            "sum of sines and cosines both vanish; every angle is stationary"
        )
    chi = 0.5 * np.arctan2(s, c)
    return np.where(chi <= -np.pi / 2, np.pi / 2, chi)


def chi_opt(profile: AngleProfile) -> float:
    """Circular-mean optimal half-angle χ = atan2(Σ sin θ, Σ cos θ)/2 in (-π/2, π/2]."""
    return float(_half_angle(profile.sum_sin, profile.sum_cos))


@dataclass(frozen=True, eq=False)
class LookupTable:
    """Per-target statistics sorted ascending by F (ties by target id).

    Column arrays are index-aligned: entry i pairs target ``target_ids[i]``
    with its similarity against the fixed candidate, its optimal half-angle
    and the gain that angle achieves. Construction rejects columns that are
    not in (F, target id) order, since the nearest-F lookup relies on it.
    """

    target_ids: np.ndarray
    f: np.ndarray
    chi: np.ndarray
    delta_f: np.ndarray
    sum_sin: np.ndarray
    grid: ParameterGrid
    candidate: ChainSpec
    n_sites: int
    coupling: float
    # Runs of equal F: their F, first row and that row's (smallest) target id.
    _run_f: np.ndarray = field(init=False, repr=False)
    _run_row: np.ndarray = field(init=False, repr=False)
    _run_id: np.ndarray = field(init=False, repr=False)
    # Below this |q|, rounding |q - F| (relative error 2^-53, no overflow)
    # cannot close the smallest gap between distinct F values, with a 2^4
    # margin, so no query ties beyond the two runs around it.
    _tie_free: float = field(init=False, repr=False)

    # Differences of finite F values may overflow to inf, which still orders
    # correctly; here and in _nearest_rows the overflow is expected.
    @np.errstate(over="ignore")
    def __post_init__(self):
        for name in ("target_ids", "f", "chi", "delta_f", "sum_sin"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (len(self.target_ids) == len(self.f) == len(self.chi)
                == len(self.delta_f) == len(self.sum_sin)):
            raise ValidationError("table columns differ in length")
        if len(self.f) == 0:
            raise ValidationError("table is empty")
        if not np.all(np.isfinite(self.f)):
            raise ValidationError("table F values must be finite")
        step_f = np.diff(self.f)
        step_id = np.diff(self.target_ids)
        if not np.all((step_f > 0) | ((step_f == 0) & (step_id > 0))):
            raise ValidationError("table rows must be sorted by (F, target id)")
        first = np.flatnonzero(np.r_[True, step_f != 0])
        run_f = self.f[first]
        gap = float(np.diff(run_f).min(initial=np.inf))
        object.__setattr__(self, "_run_f", run_f)
        object.__setattr__(self, "_run_row", first)
        object.__setattr__(self, "_run_id", self.target_ids[first])
        object.__setattr__(
            self, "_tie_free", min(gap * 2.0**48, 2.0**1000) - np.abs(run_f).max()
        )

    def __len__(self) -> int:
        return len(self.f)

    def to_csv(self, stream: io.TextIOBase) -> None:
        """Serialize as CSV, one row per entry, floats at 13 significant digits."""
        stream.write(CSV_HEADER + "\n")
        for i in range(len(self)):
            stream.write(
                f"{int(self.target_ids[i])},{self.f[i]:.12e},{self.chi[i]:.12e},"
                f"{self.delta_f[i]:.12e},{self.sum_sin[i]:.12e}\n"
            )


def build_table(grid: ParameterGrid, candidate: ChainSpec, coupling: float) -> LookupTable:
    """Precompute (F, χ_opt, ΔF) for every target on the grid, in closed form.

    Needs no black-box access and no eigensolve. X_k + b_k Y_k is
    sqrt(1+b_k²) times X_k turned about z by atan b_k, and Z_k Z_{k+1}
    commutes with z-rotations, so each chain is a transverse-field Ising
    chain (unique ground state for every J) conjugated by site-wise
    z-rotations. Site k's Bloch vector therefore lies in the xy plane at
    angle π + atan b_k, and the signed candidate-to-target angle is
    θ_k = atan b_t,k - atan b_c,k, which lies in (-π, π) for every N and J.
    Each row's terms are summed in sorted order of θ, so targets with the
    same multiset of (candidate field, target field) site pairs get
    bit-equal rows. The statistics do not depend on ``coupling``, which is
    only recorded on the table. Raises CapacityError before allocating when
    the grid has more than DEFAULT_SWEEP_BUDGET targets.
    """
    if not math.isfinite(coupling):
        raise ValidationError("coupling must be finite")
    fields = target_field_array(grid, candidate.n_sites)
    thetas = np.sort(np.arctan(fields) - np.arctan(candidate.fields), axis=1)
    f = np.cos(thetas).sum(axis=1)
    sum_sin = np.sin(thetas).sum(axis=1)
    chi = _half_angle(sum_sin, f)
    delta_f = 2.0 * np.sin(chi) * np.sin(thetas - chi[:, None]).sum(axis=1)
    order = np.lexsort((np.arange(len(f)), f))
    return LookupTable(
        target_ids=order,
        f=f[order],
        chi=chi[order],
        delta_f=delta_f[order],
        sum_sin=sum_sin[order],
        grid=grid,
        candidate=candidate,
        n_sites=candidate.n_sites,
        coupling=coupling,
    )


@np.errstate(over="ignore")
def _nearest_rows(table: LookupTable, f_queries: np.ndarray) -> np.ndarray:
    """Row index of the entry nearest in F to each 1-D query; ties -> smallest target id.

    Distances are the float values |F_i - q|, and among all rows at the
    minimal distance (exact midpoints included) the smallest target id wins.
    A binary search over the distinct F values finds the runs of equal F
    just below and at or above q, in O(log T) per query and O(Q) memory;
    the first row of a run carries its smallest id. Float subtraction is
    monotone, so the rows at minimal distance are one contiguous range that
    contains one of these two runs. It reaches a further run only when the
    rounding error of |q| + max|F| covers the smallest gap between distinct
    F values (see ``_tie_free``) or a distance overflows to inf; such
    queries fall back to a full scan.
    """
    q = np.asarray(f_queries, dtype=float)
    if not np.isfinite(q).all():
        raise ValidationError("F queries must be finite")
    run_f, run_id = table._run_f, table._run_id
    pos = np.searchsorted(run_f, q)
    # Runs pos - 1 and pos. Off either end of the column, clipping makes both
    # the end run, and a tie with itself goes to pos.
    below = pos - 1
    d_below = np.abs(run_f.take(below, mode="clip") - q)
    d_above = np.abs(run_f.take(pos, mode="clip") - q)
    take_below = (d_below < d_above) | (
        (d_below == d_above)
        & (run_id.take(below, mode="clip") < run_id.take(pos, mode="clip"))
    )
    rows = table._run_row.take(np.where(take_below, below, pos), mode="clip")
    if np.abs(q).max(initial=0.0) >= table._tie_free:
        d_min = np.minimum(d_below, d_above)
        wide = (
            (pos >= 2) & (np.abs(run_f.take(pos - 2, mode="clip") - q) == d_min)
        ) | (
            (pos < len(run_f) - 1) & (np.abs(run_f.take(pos + 1, mode="clip") - q) == d_min)
        )
        for i in np.flatnonzero(wide):
            d = np.abs(table.f - q[i])
            tied = np.flatnonzero(d == d.min())
            rows[i] = tied[np.argmin(table.target_ids[tied])]
    return rows


def lookup_chi(table: LookupTable, f_query: float) -> float:
    """χ_opt of the table entry whose F is nearest to the queried similarity."""
    return float(table.chi[_nearest_rows(table, np.array([f_query]))[0]])


def lookup_chi_batch(table: LookupTable, f_queries: np.ndarray) -> np.ndarray:
    """Vectorized lookup_chi with identical nearest/tie semantics."""
    return table.chi[_nearest_rows(table, f_queries)]


@dataclass(frozen=True)
class ProtocolReport:
    """Outcome of one protocol run; delta_f_actual is exactly f_after - f_before."""

    f_before: float
    chi: float
    f_after: float
    delta_f_analytic: float
    delta_f_actual: float
    queries_used: int


def run_protocol(
    candidate: ChainSpec,
    oracle,
    table: LookupTable,
) -> ProtocolReport:
    """Single-query strategy: ask for F, look up χ_opt, rotate, report.

    The oracle is used strictly through its scalar replies: one budgeted
    query for F and one unbudgeted verification query for the diagnostic
    F_after. Target parameters and states are never read.
    """
    if candidate != table.candidate:
        raise ValidationError("candidate spec does not match the lookup table")
    cand_state = ground_state(candidate).state
    f_before = float(oracle.query(cand_state))
    row = int(_nearest_rows(table, np.array([f_before]))[0])
    chi = float(table.chi[row])
    rotated = apply_unitary(global_rotation(chi, candidate.n_sites), cand_state)
    f_after = float(oracle.verification_query(rotated))
    return ProtocolReport(
        f_before=f_before,
        chi=chi,
        f_after=f_after,
        delta_f_analytic=float(table.delta_f[row]),
        delta_f_actual=f_after - f_before,
        queries_used=1,
    )
