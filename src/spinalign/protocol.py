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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSpec, ParameterGrid, product_ground_directions, target_field_array
from .errors import CapacityError, IndeterminateOptimumError, ValidationError
from .hilbert import DENSE_SITE_CAP

# Below this resultant length the gain is flat in χ and no optimum exists.
_RESULTANT_FLOOR = 1e-12
# The nearest-F index spreads its run boundaries over about this many
# uniform buckets each, so most queries share a bucket with at most one.
_BUCKETS_PER_BOUNDARY = 4


def global_rotation(chi: float, n_sites: int) -> np.ndarray:
    """Read-only U = exp(-i χ Σ_k Z_k): every Bloch vector rotates by +2χ about +z."""
    if n_sites > DENSE_SITE_CAP:
        raise CapacityError(f"n_sites {n_sites} exceeds dense cap {DENSE_SITE_CAP}")
    # U is diagonal, exp(-iχ(N - 2·popcount)) per basis state. bitwise_count
    # returns uint8; the float factor keeps N - 2·popcount signed.
    weights = np.bitwise_count(np.arange(2**n_sites))
    u = np.diag(np.exp(-1j * chi * (n_sites - 2.0 * weights)))
    u.setflags(write=False)
    return u


def rotate_directions(bloch: np.ndarray, chi: float) -> np.ndarray:
    """(N, 3) site directions as U(χ) leaves them: turned counterclockwise about +z by 2χ."""
    turn = 2.0 * float(chi)
    cos, sin = np.cos(turn), np.sin(turn)
    x, y, z = np.transpose(bloch)
    return np.stack((cos * x - sin * y, sin * x + cos * y, z), axis=-1)


def delta_f_planar(thetas, chi: float) -> float:
    """Similarity gain 2 sin χ Σ_k sin(θ_k - χ) for in-plane Bloch vectors."""
    th = np.asarray(thetas, dtype=float)
    return float(2.0 * np.sin(chi) * np.sum(np.sin(th - chi)))


def delta_f_sums(sum_sin, f, sin_chi, cos_chi):
    """Gain 2 sin χ (S cos χ - F sin χ) of profiles with S = Σ sin θ_k and F = Σ cos θ_k.

    This is :func:`delta_f_planar` from the sums alone, elementwise over
    broadcasting arrays; the angle enters as its sine and cosine.
    """
    return 2.0 * sin_chi * (sum_sin * cos_chi - f * sin_chi)


def _half_angle(sum_sin, sum_cos) -> np.ndarray:
    """atan2(Σ sin θ, Σ cos θ)/2 in (-π/2, π/2], elementwise; rejects a vanishing resultant."""
    s, c = np.asarray(sum_sin, dtype=float), np.asarray(sum_cos, dtype=float)
    if not np.all(s * s + c * c >= _RESULTANT_FLOOR**2):  # NaN fails too
        raise IndeterminateOptimumError(
            "sum of sines and cosines both vanish or are NaN; no angle is optimal"
        )
    chi = 0.5 * np.arctan2(s, c)
    return np.where(chi <= -np.pi / 2, np.pi / 2, chi)


def chi_opt(thetas) -> float:
    """Circular-mean optimal half-angle χ = atan2(Σ sin θ, Σ cos θ)/2 in (-π/2, π/2]."""
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 1 or not th.size:
        raise ValidationError(f"chi_opt needs a 1-D array of site angles, got shape {th.shape}")
    return float(_half_angle(np.sum(np.sin(th)), np.sum(np.cos(th))))


@dataclass(frozen=True, eq=False)
class LookupTable:
    """Per-target statistics sorted ascending by F (ties by target id).

    Column arrays are index-aligned: entry i pairs target ``target_ids[i]``
    with its similarity against the fixed candidate, its optimal half-angle
    and the gain that angle achieves. Construction rejects columns that are
    not in (F, target id) order, since the nearest-F lookup relies on it.

    Rows of equal F form runs, each led by its smallest target id (the
    read-only ``run_*`` fields). The first lookup builds a run index:
    between each pair of adjacent runs the smallest float at which the
    exactly nearest run is the upper one, and a uniform bucket array over
    these boundaries. Building the table does not build the index.
    """

    target_ids: np.ndarray
    f: np.ndarray
    chi: np.ndarray
    delta_f: np.ndarray
    sum_sin: np.ndarray
    candidate: ChainSpec
    # Runs of equal F: their F, first row and that row's (smallest) target id.
    run_f: np.ndarray = field(init=False, repr=False)
    run_row: np.ndarray = field(init=False, repr=False)
    run_id: np.ndarray = field(init=False, repr=False)

    # Differences of finite F values may overflow to inf, which still orders
    # correctly.
    @np.errstate(over="ignore")
    def __post_init__(self):
        for name in ("target_ids", "f", "chi", "delta_f", "sum_sin"):
            arr = np.array(getattr(self, name))
            if arr.ndim != 1:
                raise ValidationError(f"table column {name} must be 1-D, got shape {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (len(self.target_ids) == len(self.f) == len(self.chi)
                == len(self.delta_f) == len(self.sum_sin)):
            raise ValidationError("table columns differ in length")
        if len(self.f) == 0:
            raise ValidationError("table is empty")
        if self.target_ids.dtype.kind not in "iu" or self.target_ids.min() < 0:
            raise ValidationError("table target ids must be non-negative integers")
        for name in ("f", "chi", "delta_f", "sum_sin"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"table {name} values must be finite")
        step_f = np.diff(self.f)
        step_id = np.diff(self.target_ids)
        if not np.all((step_f > 0) | ((step_f == 0) & (step_id > 0))):
            raise ValidationError("table rows must be sorted by (F, target id)")
        first = np.flatnonzero(np.r_[True, step_f != 0])
        for name, arr in (("run_f", self.f[first]), ("run_row", first),
                          ("run_id", self.target_ids[first])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.f)

    @functools.cached_property
    def _index(self) -> _RunIndex:
        """The run index of :func:`nearest_runs`, built by the table's first lookup."""
        return _run_index(self.run_f, self.run_id)


def target_angles(fields, candidate: ChainSpec) -> np.ndarray:
    """Signed candidate-to-target angles θ of targets with (T, N) ``fields``, one row each.

    ``fields`` is typically a block of :func:`target_field_array`; it is not modified.

    X_k + b_k Y_k is sqrt(1+b_k²) times X_k turned about z by atan b_k, and
    Z_k Z_{k+1} commutes with z-rotations, so each chain is a transverse-field
    Ising chain (unique ground state for every J) conjugated by site-wise
    z-rotations. Site k's Bloch vector therefore lies in the xy plane at
    angle π + atan b_k, and θ_k = atan b_t,k - atan b_c,k lies in (-π, π)
    for every N and J, with no eigensolve.
    """
    thetas = np.arctan(np.asarray(fields, dtype=float))
    if thetas.ndim != 2 or thetas.shape[1] != candidate.n_sites:
        raise ValidationError(f"fields must be (T, {candidate.n_sites}), got {thetas.shape}")
    thetas -= np.arctan(candidate.fields)
    return thetas


def build_table(grid: ParameterGrid, candidate: ChainSpec) -> LookupTable:
    """Precompute (F, χ_opt, ΔF) for every target on the grid from :func:`target_angles`.

    Rows are summed in sorted θ order, so targets with the same multiset of
    (candidate field, target field) site pairs get bit-equal rows. The
    sorted angles and one work array are the only (T, N) arrays alive at once.
    """
    thetas = target_angles(target_field_array(grid, candidate.n_sites), candidate)
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


def _buckets(x: np.ndarray, origin: float, scale: float, top: float) -> np.ndarray:
    """Uniform bucket of each value, clipped to [0, top]; non-decreasing in x."""
    at = np.subtract(x, origin)
    at *= scale
    np.maximum(at, 0.0, out=at)
    np.minimum(at, top, out=at)
    return at.astype(np.intp)


@dataclass(frozen=True, eq=False)
class _RunIndex:
    """Run boundaries c_i of a table behind a uniform bucket array.

    c_i is the smallest float q at which run i + 1 is nearer to q than run i
    in exact arithmetic, or as near with the smaller id, so a query's nearest
    run is the count of c_i <= q. That count is the number of boundaries in
    lower buckets plus a branchless binary search within the query's own
    bucket: a boundary in a lower bucket is <= q, one in a higher bucket is > q.
    """

    bounds: np.ndarray  # c_i, padded with inf for the search within a bucket
    origin: float
    scale: float
    top: float  # the last bucket
    below: np.ndarray  # per bucket, the boundaries in lower buckets
    steps: tuple[int, ...]  # the search's step widths, halving down to 1

    def runs(self, q: np.ndarray) -> np.ndarray:
        """#{c_i <= q} per finite query: the index of its nearest run."""
        runs = _buckets(q, self.origin, self.scale, self.top)
        self.below.take(runs, out=runs, mode="clip")
        for step in self.steps:
            np.add(runs, step, out=runs, where=self.bounds[step - 1:].take(runs) <= q)
        return runs


def _run_index(run_f: np.ndarray, run_id: np.ndarray) -> _RunIndex:
    """Build the :class:`_RunIndex` of runs with F values ``run_f`` and smallest ids ``run_id``.

    The exact midpoint m_i of runs i and i + 1 is split into its nearest
    float h and the exact sign of m_i - h (TwoSum). c_i is the smallest
    float at or above m_i, or one float above it where m_i is a float and
    run i has the smaller id, so that exact midpoints go to the smaller id.
    """
    lower, upper = run_f[:-1], run_f[1:]
    # Halve first only where the sum overflows; there halving is exact.
    halve = ~np.isfinite(lower + upper)
    a, b = np.where(halve, lower / 2, lower), np.where(halve, upper / 2, upper)
    s = a + b
    b_part = s - a
    err = (a - (s - b_part)) + (b - b_part)  # a + b == s + err exactly
    h = np.where(halve, s, s / 2)
    # The exact sign of m_i - h: s - 2h is exact and nonzero only where s
    # is subnormal, and then err is 0.
    above = np.where(halve, err, (s - 2 * h) + err)
    up = (above > 0) | ((above == 0) & (run_id[:-1] < run_id[1:]))
    bounds = np.where(up, np.nextafter(h, np.inf), h)
    # About _BUCKETS_PER_BOUNDARY buckets per boundary over [c_0, c_last];
    # one bucket when that span is zero, subnormal or overflows.
    n_buckets = _BUCKETS_PER_BOUNDARY * len(bounds)
    origin = float(bounds[0]) if len(bounds) else 0.0
    span = float(bounds[-1]) - origin if len(bounds) else 0.0
    scale = n_buckets / span if span > 0.0 else 0.0
    if not 0.0 < scale < math.inf:
        n_buckets, scale = 1, 1.0
    top = n_buckets - 1.0
    in_bucket = _buckets(bounds, origin, scale, top)
    # Within a bucket the search takes log2(width) steps; width > its boundaries.
    width = 1 << int(np.bincount(in_bucket).max(initial=0)).bit_length()
    padded = np.full(len(bounds) + width - 1, np.inf)
    padded[:len(bounds)] = bounds
    return _RunIndex(
        bounds=padded,
        origin=origin,
        scale=scale,
        top=top,
        below=in_bucket.searchsorted(np.arange(n_buckets)),
        steps=tuple(width >> k for k in range(1, width.bit_length())),
    )


# The index build's sums of adjacent F values and the bucket offsets of far
# queries may overflow to inf; both are expected.
@np.errstate(over="ignore")
def nearest_runs(table: LookupTable, f_queries: np.ndarray) -> np.ndarray:
    """Index of the run of equal F nearest to each query, in the queries' shape.

    Runs are the table's distinct F values in ascending order; run r starts
    at row ``table.run_row[r]``, which holds its smallest target id, and
    :func:`nearest_rows` is that row. Nearest means in exact arithmetic:
    the run minimizing the exact |F - q|, and at an exact midpoint between
    two runs the one with the smaller target id. The rule is monotone in q,
    so one run index answers every finite query: the first call builds it
    (see ``LookupTable``), and a query then costs a bucket guess and one or
    two compares, in O(Q) memory.
    """
    try:
        q = np.asarray(f_queries)
    except (TypeError, ValueError):  # a ragged list
        q = None
    # A float conversion would drop an imaginary part with only a warning, and parse strings.
    if q is None or q.dtype.kind not in "biuf":
        raise ValidationError("F queries must be an array of real numbers")
    if not np.isfinite(q).all():
        raise ValidationError("F queries must be finite")
    return table._index.runs(q.astype(float, copy=False).ravel()).reshape(q.shape)


def nearest_rows(table: LookupTable, f_queries: np.ndarray) -> np.ndarray:
    """Row index of the entry nearest in F to each query; ties -> smallest target id.

    Queries of any shape are looked up as one flat batch, and the rows come
    back in the queries' shape. The rows index every column of the table:
    ``table.chi[rows]`` is :func:`lookup_chi_batch`. Each row is the first
    row of the run :func:`nearest_runs` finds, so a caller that needs more
    of a row than χ (its sine or cosine, say) can call that instead and
    read per-run arrays made once.
    """
    runs = nearest_runs(table, f_queries)
    return table.run_row.take(runs, out=runs, mode="clip")


def lookup_chi_batch(table: LookupTable, f_queries: np.ndarray) -> np.ndarray:
    """χ_opt of the table entry nearest in F to each queried similarity.

    This is ``table.chi[nearest_rows(table, f_queries)]``: ties (equal F,
    or a query midway between two F values) go to the smallest target id.
    Callers that read more of a row than χ call :func:`nearest_rows`, or
    :func:`nearest_runs` to index per-run arrays.
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
    its (N, 3) closed-form site directions, turned by :func:`rotate_directions`.
    """
    if candidate != table.candidate:
        raise ValidationError("candidate spec does not match the lookup table")
    directions = product_ground_directions(candidate.fields)
    f_before = float(oracle.query(directions))
    row = int(nearest_rows(table, np.array([f_before]))[0])
    f_after = float(oracle.verification_query(rotate_directions(directions, table.chi[row])))
    return ProtocolReport(
        f_before=f_before,
        chi=float(table.chi[row]),
        f_after=f_after,
        delta_f_analytic=float(table.delta_f[row]),
        delta_f_actual=f_after - f_before,
        queries_used=1,
    )


def check_target_ids(table: LookupTable) -> None:
    """ValidationError unless the ids are 0 to len(table) - 1, each once, as build_table makes."""
    # T ids below T, none of them twice: each of 0..T-1 once.
    ids = table.target_ids
    if ids.max() >= len(table) or np.any(np.bincount(ids.astype(np.intp)) != 1):
        raise ValidationError("table target ids must be 0 to len(table) - 1, each once")


def sweep_exact(table: LookupTable) -> tuple[np.ndarray, np.ndarray]:
    """F before the protocol and its gain with an exact oracle, by target id, for every target.

    An exact oracle replies with the target's own F, which is the F of the
    target's own run, at distance 0: the lookup picks that run's χ, and the
    gain at it follows from the row's (sum_sin, F) by :func:`delta_f_sums`.
    No site directions are made; :func:`check_target_ids` checks the table first.
    """
    check_target_ids(table)
    chi_run = table.chi[table.run_row]
    own_run = table.run_f.searchsorted(table.f)
    gain = delta_f_sums(table.sum_sin, table.f, np.sin(chi_run)[own_run], np.cos(chi_run)[own_run])
    f, delta_f = np.empty((2, len(table)))
    f[table.target_ids] = table.f
    delta_f[table.target_ids] = gain
    return f, delta_f
