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

from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSpec, ParameterGrid, product_ground_directions, target_field_array
from .errors import CapacityError, IndeterminateOptimumError, ValidationError
from .hilbert import DENSE_SITE_CAP, Operator
from .similarity import AngleProfile, SiteDirections, site_cosines

# Below this resultant length the gain is flat in χ and no optimum exists.
_RESULTANT_FLOOR = 1e-12
# sweep_exact passes over this many targets at a time, which bounds its
# (block, N, 3) temporaries; the reference grid's 625 targets are one block.
SWEEP_BLOCK_TARGETS = 2**13


def _z_phases(chi: float, n_sites: int) -> np.ndarray:
    """Diagonal of exp(-i χ Σ_k Z_k): exp(-iχ(N - 2·popcount)) per basis state."""
    # bitwise_count returns uint8; the float factor keeps N - 2·popcount signed.
    weights = np.bitwise_count(np.arange(2**n_sites))
    return np.exp(-1j * chi * (n_sites - 2.0 * weights))


def global_rotation(chi: float, n_sites: int) -> Operator:
    """U = exp(-i χ Σ_k Z_k): every Bloch vector rotates by +2χ about +z."""
    if n_sites > DENSE_SITE_CAP:
        raise CapacityError(f"n_sites {n_sites} exceeds dense cap {DENSE_SITE_CAP}")
    return Operator(np.diag(_z_phases(chi, n_sites)))


def rotate_directions(bloch: np.ndarray, chi) -> np.ndarray:
    """(N, 3) site directions as U(χ) leaves them: turned counterclockwise about +z by 2χ.

    χ of any shape gives χ.shape + (N, 3); each angle's slice is bit-equal to its own call.
    """
    turn = 2.0 * np.asarray(chi, dtype=float)[..., None]
    cos, sin = np.cos(turn), np.sin(turn)
    x, y, z = np.transpose(bloch)
    return np.stack(np.broadcast_arrays(cos * x - sin * y, sin * x + cos * y, z), axis=-1)


def delta_f_planar(thetas, chi: float) -> float:
    """Similarity gain 2 sin χ Σ_k sin(θ_k - χ) for in-plane Bloch vectors."""
    th = np.asarray(thetas, dtype=float)
    return float(2.0 * np.sin(chi) * np.sum(np.sin(th - chi)))


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
    candidate: ChainSpec
    # Runs of equal F: their F, first row and that row's (smallest) target id.
    _run_f: np.ndarray = field(init=False, repr=False)
    _run_row: np.ndarray = field(init=False, repr=False)
    _run_id: np.ndarray = field(init=False, repr=False)
    # Below this |q|, rounding |q - F| (relative error 2^-53, no overflow)
    # cannot close the smallest gap between distinct F values, with a 2^4
    # margin, so no query ties beyond the two runs around it.
    _tie_free: float = field(init=False, repr=False)

    # Differences of finite F values may overflow to inf, which still orders
    # correctly; here and in nearest_rows the overflow is expected.
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


def target_angles(grid: ParameterGrid, candidate: ChainSpec) -> np.ndarray:
    """Signed candidate-to-target angles θ of every target, shape (D^N, N), row = target id.

    X_k + b_k Y_k is sqrt(1+b_k²) times X_k turned about z by atan b_k, and
    Z_k Z_{k+1} commutes with z-rotations, so each chain is a transverse-field
    Ising chain (unique ground state for every J) conjugated by site-wise
    z-rotations. Site k's Bloch vector therefore lies in the xy plane at
    angle π + atan b_k, and θ_k = atan b_t,k - atan b_c,k lies in (-π, π)
    for every N and J, with no eigensolve. Raises CapacityError before
    allocating when the grid has more than DEFAULT_SWEEP_BUDGET targets.
    """
    thetas = target_field_array(grid, candidate.n_sites)
    np.arctan(thetas, out=thetas)
    thetas -= np.arctan(candidate.fields)
    return thetas


def build_table(grid: ParameterGrid, candidate: ChainSpec) -> LookupTable:
    """Precompute (F, χ_opt, ΔF) for every target on the grid from :func:`target_angles`.

    Rows are summed in sorted θ order, so targets with the same multiset of
    (candidate field, target field) site pairs get bit-equal rows. The
    sorted angles and one work array are the only (T, N) arrays alive at once.
    """
    thetas = target_angles(grid, candidate)
    thetas.sort(axis=1)
    work = np.cos(thetas)
    f = work.sum(axis=1)
    sum_sin = np.sin(thetas, out=work).sum(axis=1)
    chi = _half_angle(sum_sin, f)
    np.subtract(thetas, chi[:, None], out=work)
    delta_f = 2.0 * np.sin(chi) * np.sin(work, out=work).sum(axis=1)
    del thetas, work
    order = np.lexsort((np.arange(len(f)), f))
    return LookupTable(
        target_ids=order,
        f=f[order],
        chi=chi[order],
        delta_f=delta_f[order],
        sum_sin=sum_sin[order],
        candidate=candidate,
    )


@np.errstate(over="ignore")
def nearest_rows(table: LookupTable, f_queries: np.ndarray) -> np.ndarray:
    """Row index of the entry nearest in F to each query; ties -> smallest target id.

    Queries of any shape are searched as one flat batch, and the rows come
    back in the queries' shape. The rows index every column of the table:
    ``table.chi[rows]`` is :func:`lookup_chi_batch`, and a caller that needs
    more of a row than χ (its sine or cosine, say) reads it from per-row
    arrays made once rather than recomputing it for every query.
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
    shape = np.shape(f_queries)
    q = np.asarray(f_queries, dtype=float).ravel()
    if not np.isfinite(q).all():
        raise ValidationError("F queries must be finite")
    may_tie_wide = np.abs(q).max(initial=0.0) >= table._tie_free
    run_f, run_id = table._run_f, table._run_id
    # Runs pos - 1 and pos, clipped to the column. Distances are formed in
    # place, so at most three query-length numeric arrays live at once.
    pos = np.searchsorted(run_f, q)
    d_below = run_f.take(pos - 1, mode="clip")
    d_below -= q
    np.abs(d_below, out=d_below)
    d_above = run_f.take(pos, mode="clip")
    d_above -= q
    np.abs(d_above, out=d_above)
    take_below = d_below < d_above
    # Exact midpoints between two runs go to the smaller id. Off the ends of
    # the column both runs are the end run, and pos stays.
    midway = np.flatnonzero((d_below == d_above) & (pos > 0) & (pos < len(run_f)))
    take_below[midway] = (run_id.take(pos[midway] - 1, mode="clip")
                          < run_id.take(pos[midway], mode="clip"))
    wide = ()
    if may_tie_wide:
        d_min = np.minimum(d_below, d_above, out=d_below)
        wide = np.flatnonzero((
            (pos >= 2) & (np.abs(run_f.take(pos - 2, mode="clip") - q) == d_min)
        ) | (
            (pos < len(run_f) - 1) & (np.abs(run_f.take(pos + 1, mode="clip") - q) == d_min)
        ))
    del d_below, d_above
    # pos - 1 where the lower run wins.
    rows = table._run_row.take(np.subtract(pos, take_below, out=pos), mode="clip")
    for i in wide:
        d = np.abs(table.f - q[i])
        tied = np.flatnonzero(d == d.min())
        rows[i] = tied[np.argmin(table.target_ids[tied])]
    return rows.reshape(shape)


def lookup_chi_batch(table: LookupTable, f_queries: np.ndarray) -> np.ndarray:
    """χ_opt of the table entry nearest in F to each queried similarity.

    This is ``table.chi[nearest_rows(table, f_queries)]``: ties (equal F,
    or a query midway between two F values) go to the smallest target id.
    Callers that read more of a row than χ call :func:`nearest_rows` and
    index per-row arrays with its rows.
    """
    return table.chi[nearest_rows(table, f_queries)]


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
    F_after. Target parameters and states are never read. The candidate is
    its closed-form site directions, turned by :func:`rotate_directions`.
    """
    if candidate != table.candidate:
        raise ValidationError("candidate spec does not match the lookup table")
    directions = SiteDirections(product_ground_directions(candidate.fields))
    f_before = float(oracle.query(directions))
    row = int(nearest_rows(table, np.array([f_before]))[0])
    rotated = SiteDirections(rotate_directions(directions.bloch, table.chi[row]))
    f_after = float(oracle.verification_query(rotated))
    return ProtocolReport(
        f_before=f_before,
        chi=float(table.chi[row]),
        f_after=f_after,
        delta_f_analytic=float(table.delta_f[row]),
        delta_f_actual=f_after - f_before,
        queries_used=1,
    )


def sweep_exact(table: LookupTable, fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F before and after the protocol for every target, in array passes over blocks.

    Row t of the (T, N) ``fields`` holds target t's field values. The result
    equals, bit for bit, T :func:`run_protocol` calls with exact oracles:
    closed-form site directions of every target and of the candidate, one
    nearest-F lookup for all targets, and the candidate turned once per F
    run (a lookup returns a run's first row), all runs in one call. Targets
    pass in blocks of ``SWEEP_BLOCK_TARGETS``, which bounds the (block, N, 3)
    temporaries at any grid size without changing a bit.
    """
    fields = np.asarray(fields, dtype=float)
    if fields.ndim != 2 or len(fields) == 0 or not np.isfinite(fields).all():
        raise ValidationError("target fields must be a non-empty, finite (T, N) array")
    candidate = product_ground_directions(table.candidate.fields)
    by_run = rotate_directions(candidate, table.chi[table._run_row])
    f_before = np.empty(len(fields))
    f_after = np.empty(len(fields))
    for start in range(0, len(fields), SWEEP_BLOCK_TARGETS):
        block = slice(start, start + SWEEP_BLOCK_TARGETS)
        dirs = product_ground_directions(fields[block])
        f_before[block] = site_cosines(dirs, candidate).sum(axis=-1)
        runs = np.searchsorted(table._run_row, nearest_rows(table, f_before[block]))
        f_after[block] = site_cosines(dirs, by_run[runs]).sum(axis=-1)
    return f_before, f_after
