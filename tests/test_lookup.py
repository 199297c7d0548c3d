"""Nearest-F lookup and the lookup table's canonical ties.

The indexed lookup (exact run boundaries behind a bucket array) is tied to
a brute-force search in exact arithmetic over every distinct F, kept here
as the oracle, and the closed-form table is tied to per-target exact
diagonalization.
"""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinalign import (
    CapacityError,
    ChainSpec,
    LookupTable,
    ParameterGrid,
    ValidationError,
    build_table,
    chi_opt,
    delta_f_planar,
    enumerate_targets,
    ground_state,
    lookup_chi_batch,
    similarity_chain,
)
from spinalign import chain, protocol
from spinalign.cli import main

from conftest import CANDIDATE, GRID

_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _exact(x) -> np.ndarray:
    """Finite floats as exact Python integers, in units of the smallest subnormal 2^-1074."""
    return np.array([int(Fraction(v) * 2**1074) for v in np.ravel(x).tolist()], dtype=object)


def brute_force_nearest_rows(table: LookupTable, f_queries) -> np.ndarray:
    """Exact reference: distances to every distinct F, then the smallest id at the minimum.

    Distances are exact integers, so only an exact midpoint ties two F
    values; the smallest target id among the rows of the nearest F wins.
    """
    values = np.unique(table.f)
    lead = np.array([table.target_ids[table.f == v].min() for v in values])
    d = np.abs(_exact(f_queries)[:, None] - _exact(values)[None, :])
    d_min = d.min(axis=1, keepdims=True)
    chosen_tid = np.where(d == d_min, lead[None, :], lead.max() + 1).min(axis=1)
    row_of_tid = np.empty(int(table.target_ids.max()) + 1, dtype=np.int64)
    row_of_tid[table.target_ids] = np.arange(len(table))
    return row_of_tid[chosen_tid]


def _table(f, ids) -> LookupTable:
    n = len(f)
    return LookupTable(
        target_ids=np.asarray(ids, dtype=np.int64),
        f=np.asarray(f, dtype=float),
        chi=np.arange(n) / 10.0,
        delta_f=np.zeros(n),
        sum_sin=np.zeros(n),
        candidate=ChainSpec(2, 1.0, (-0.5, -0.5)),
    )


class TestBoundaryValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalar_query_rejected(self, table, bad):
        with pytest.raises(ValidationError):
            lookup_chi_batch(table, np.array([bad]))[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_query_rejected(self, table, bad):
        with pytest.raises(ValidationError):
            lookup_chi_batch(table, np.array([3.0, bad, 3.5]))

    @pytest.mark.parametrize("lookup", [protocol.nearest_runs, protocol.nearest_rows,
                                        lookup_chi_batch])
    @pytest.mark.parametrize("bad", [np.array([1 + 1j]), np.array([2.0 + 0j]), "x", ["1.5"],
                                     [[1.0], [1.0, 2.0]], [None], 10**400],
                             ids=["complex", "real-valued-complex", "string", "numeric-string",
                                  "ragged", "none", "huge-int"])
    def test_query_that_is_not_real_numbers_rejected(self, table, lookup, bad):
        # 1 + 1j was looked up as 1 after a ComplexWarning, and "x" and the ragged list
        # ended in a bare ValueError.
        with pytest.raises(ValidationError, match="real numbers"):
            lookup(table, bad)

    def test_empty_batch_returns_empty(self, table):
        out = lookup_chi_batch(table, np.array([]))
        assert out.shape == (0,)

    def test_unsorted_f_rejected(self):
        with pytest.raises(ValidationError, match="sorted"):
            _table([1.0, 3.0, 2.0], [0, 1, 2])

    def test_tie_ids_out_of_order_rejected(self):
        with pytest.raises(ValidationError, match="sorted"):
            _table([1.0, 1.0, 3.0], [1, 0, 2])

    def test_non_finite_f_rejected(self):
        with pytest.raises(ValidationError):
            _table([1.0, 2.0, np.nan], [0, 1, 2])

    def test_hand_built_sorted_table_accepted(self):
        toy = _table([1.0, 1.0, 3.0], [4, 7, 2])
        assert lookup_chi_batch(toy, np.array([2.0]))[0] == 0.2  # |1-2| == |3-2|, id 2 wins
        assert lookup_chi_batch(toy, np.array([0.0]))[0] == 0.0  # run of F=1 -> id 4


class TestMatchesBruteForce:
    def test_reference_table_dense_queries(self, table):
        rng = np.random.default_rng(23)
        f = table.f
        queries = np.concatenate([
            rng.uniform(f.min() - 0.5, f.max() + 0.5, size=5000),
            f,
            (f[1:] + f[:-1]) / 2,
            np.nextafter(f, np.inf),
            np.nextafter(f, -np.inf),
            [-1e300, 1e300, -1e308, 1e308],
        ])
        rows = protocol.nearest_rows(table, queries)
        assert np.array_equal(rows, brute_force_nearest_rows(table, queries))

    def test_rounding_ties_beyond_the_adjacent_runs(self):
        # Every float distance from the first two queries rounds to the same
        # value; exactly, the end of the column is nearest.
        toy = _table([1.0, 2.0, 3.0, 4.0], [3, 0, 2, 1])
        queries = np.array([-1e300, 1e300, 2.5])
        rows = protocol.nearest_rows(toy, queries)
        assert np.array_equal(rows, brute_force_nearest_rows(toy, queries))
        assert list(toy.target_ids[rows]) == [3, 1, 0]

    def test_far_replies_take_the_smallest_f(self, table):
        # Float distances from these replies round alike across several runs;
        # exactly, target 624 (all fields at b_max, F = 2.4) is nearest.
        rows = protocol.nearest_rows(table, np.array([-1e16, -1e20, -1e300]))
        assert list(table.target_ids[rows]) == [624] * 3

    @pytest.mark.parametrize("queries", [
        [[0.5, 1.5], [2.5, 3.5]],
        [[0.5, 1e300], [1.5, -1e300]],
        [[0.5, 1.5], [1.5, 1e300]],
    ], ids=["binary-search-only", "two-far", "one-far"])
    def test_2d_queries_come_back_in_their_shape(self, queries):
        toy = _table([1.0, 2.0, 3.0, 4.0], [3, 0, 2, 1])
        q = np.array(queries)
        rows = protocol.nearest_rows(toy, q)
        assert rows.shape == q.shape
        assert np.array_equal(rows.ravel(), brute_force_nearest_rows(toy, q.ravel()))
        assert np.array_equal(lookup_chi_batch(toy, q), toy.chi[rows])

    def test_overflowing_distances_tie_across_runs(self):
        # Both float distances overflow to inf; exactly, -1e308 is nearer.
        toy = _table([-1.7e308, -1e308], [0, 1])
        rows = protocol.nearest_rows(toy, np.array([1.7e308]))
        assert list(toy.target_ids[rows]) == [1]

    def test_temporaries_stay_a_small_multiple_of_the_queries(self, table):
        # Noisy replies around every F value, and queries off both ends.
        rng = np.random.default_rng(0)
        q = np.concatenate([rng.choice(table.f, 6144) + rng.uniform(-0.1, 0.1, 6144),
                            rng.uniform(-6.0, 6.0, 2048)])
        protocol.nearest_rows(table, q)
        tracemalloc.start()
        try:
            rows = protocol.nearest_rows(table, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(rows, brute_force_nearest_rows(table, q))
        # The returned rows take 1x; keeping all ten temporaries alive took over 6x.
        assert peak <= 4 * q.nbytes

    def test_overflow_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            toy = _table([-1e308, 1e308], [1, 0])
            queries = np.array([-1.7e308, np.nextafter(-1.7e308, 0.0)])
            rows = protocol.nearest_rows(toy, queries)
        assert list(toy.target_ids[rows]) == [1, 1]

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_property_against_brute_force(self, data):
        pool = data.draw(st.lists(_FINITE, min_size=1, max_size=6), label="pool")
        if data.draw(st.booleans(), label="ulp neighbours"):
            pool += [float(np.nextafter(v, 0.0)) for v in pool]
        f = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25), label="f")
        ids = data.draw(st.permutations(range(len(f))), label="ids")
        order = np.lexsort((ids, f))
        table = _table(np.array(f)[order], np.array(ids)[order])
        values = sorted(set(f))
        midpoints = [a / 2 + b / 2 for a, b in zip(values, values[1:])]
        query = st.one_of(_FINITE, st.sampled_from(values + midpoints))
        queries = np.array(data.draw(st.lists(query, max_size=20), label="queries"), dtype=float)
        rows = protocol.nearest_rows(table, queries)
        assert np.array_equal(rows, brute_force_nearest_rows(table, queries))


def _boundary_queries(table: LookupTable) -> np.ndarray:
    """Every run boundary and its two float neighbours, the midpoints, and queries off both ends."""
    bounds = table._index.bounds[:len(table.run_f) - 1]
    run_f = table.run_f
    with np.errstate(over="ignore"):  # neighbours of the largest floats are inf
        queries = np.concatenate([
            bounds, np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf),
            run_f[:-1] / 2 + run_f[1:] / 2, run_f,
            np.nextafter(run_f[[0]], -np.inf), run_f[[0]] - 1.0,
            np.nextafter(run_f[[-1]], np.inf), run_f[[-1]] + 1.0,
        ])
    return queries[np.isfinite(queries)]


class TestRunIndex:
    @staticmethod
    def _check(table: LookupTable, extra=()) -> None:
        protocol.nearest_rows(table, table.run_f[:1])  # builds the index
        queries = np.concatenate([_boundary_queries(table), extra])
        rows = protocol.nearest_rows(table, queries)
        assert np.array_equal(rows, brute_force_nearest_rows(table, queries))
        # c_i is the first float at which the rule picks run i + 1 over run i.
        bounds = table._index.bounds[:len(table.run_f) - 1]
        below = np.nextafter(bounds, -np.inf)
        assert np.array_equal(brute_force_nearest_rows(table, bounds), table.run_row[1:])
        assert np.array_equal(brute_force_nearest_rows(table, below), table.run_row[:-1])

    def test_reference_table(self, table):
        self._check(table)

    @pytest.mark.parametrize("f, ids", [
        ([1.5], [0]),  # one run: no boundaries, one bucket
        ([2.0, 2.0, 2.0], [3, 5, 9]),
        ([1.0, 3.0], [1, 0]),  # one boundary: zero span
        # Gaps that float rounding of |q - F| hides from |q| = 2^-13 on, and from 64 on.
        ([0.0, 1e-20, 2.0], [2, 1, 0]),
        ([0.0, 5e-15, 1.0], [0, 2, 1]),
        ([-1.7e308, -1e308, 1e308, 1.7e308], [3, 1, 2, 0]),  # the bucket span overflows
        ([-5e-324, 0.0, 5e-324, 1e-323], [3, 0, 2, 1]),  # subnormal span
        ([1.0, float(np.nextafter(1.0, 2.0)), 2.0, float(np.nextafter(2.0, 3.0))], [1, 0, 3, 2]),
    ], ids=["one-run", "one-run-of-three", "one-boundary", "tiny-gap",
            "small-gap", "span-overflows", "subnormal", "ulp-neighbours"])
    def test_edge_tables(self, f, ids):
        toy = _table(f, ids)
        self._check(toy, extra=[-1e300, 1e300, 0.0, -0.0, 2.5])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_property_against_brute_force(self, data):
        scale = data.draw(st.sampled_from([1.0, 1e-300, 1e-9, 1e9, 1e300]), label="scale")
        base = st.floats(-4.0, 4.0).map(lambda v: v * scale)
        pool = data.draw(st.lists(base | _FINITE, min_size=1, max_size=8), label="pool")
        if data.draw(st.booleans(), label="ulp neighbours"):
            pool += [float(np.nextafter(v, 0.0)) for v in pool]
        f = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30), label="f")
        ids = data.draw(st.permutations(range(len(f))), label="ids")
        order = np.lexsort((ids, f))
        toy = _table(np.array(f)[order], np.array(ids)[order])
        extra = data.draw(st.lists(base, max_size=20), label="queries")
        self._check(toy, extra=np.array(extra, dtype=float))

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_FINITE, min_size=1, max_size=8, unique=True).map(sorted),
           ids=st.permutations(range(8)),
           queries=st.lists(_FINITE, max_size=30))
    @example(values=[0.0, 1e-20, 2.0], ids=list(range(8)), queries=[1e-20, 1.0])
    def test_runs_never_decrease_in_q(self, values, ids, queries):
        toy = _table(values, ids[:len(values)])
        midpoints = [a / 2 + b / 2 for a, b in zip(values, values[1:])]
        q = np.sort(queries + values + midpoints)
        assert np.all(np.diff(protocol.nearest_runs(toy, q)) >= 0)

    def test_table_runs_never_build_the_index(self, tmp_path, monkeypatch):
        built = []
        original = protocol._run_index

        def counting(run_f, run_id):
            built.append(len(run_f))
            return original(run_f, run_id)

        monkeypatch.setattr(protocol, "_run_index", counting)
        assert main(["table", "--out", str(tmp_path)]) == 0
        assert built == []
        # One table, so one build for all of noise's lookups.
        assert main(["noise", "--trials", "3", "--out", str(tmp_path)]) == 0
        assert built == [70]


def _multiset_key(candidate: ChainSpec, target: ChainSpec):
    return tuple(sorted(zip(candidate.fields, target.fields)))


class TestCanonicalTies:
    def test_reference_table_has_70_distinct_f(self, table):
        assert len(np.unique(table.f)) == 70

    def test_multiset_groups_are_bit_equal(self, table):
        row_of = {int(t): i for i, t in enumerate(table.target_ids)}
        groups: dict[tuple, list[int]] = {}
        for tid, spec in enumerate_targets(GRID, 4, coupling=1.0):
            groups.setdefault(_multiset_key(CANDIDATE, spec), []).append(row_of[tid])
        assert len(groups) == 70
        for rows in groups.values():
            for col in (table.f, table.chi, table.delta_f, table.sum_sin):
                assert np.all(col[rows] == col[rows[0]])

    def test_one_solve_per_multiset(self, monkeypatch):
        def refuse(h):
            raise AssertionError("build_table diagonalized a Hamiltonian")

        monkeypatch.setattr(chain, "hermitian_ground_state", refuse)
        build_table(GRID, CANDIDATE)  # the closed form needs no eigensolve at all

    @pytest.mark.parametrize(
        "candidate, grid",
        [
            (ChainSpec(4, 1.0, (-0.5, 0.0, 0.25, 0.5)), GRID),
            (ChainSpec(2, 1.0, (-0.5, -0.5)), GRID),
            (ChainSpec(2, 1.0, (0.25, -0.5)), GRID),
            (ChainSpec(3, 0.0, (-0.5, 0.5, 0.0)), GRID),
            (ChainSpec(3, -2.5, (-0.5, 0.5, 0.0)), GRID),
            (ChainSpec(4, -2.5, (-0.5,) * 4), ParameterGrid(-0.5, 0.5, 3)),
        ],
        ids=["non-uniform", "n2-double-bond", "n2-non-uniform", "j0", "j-2.5", "j-2.5-n4"],
    )
    def test_matches_per_target_exact_diagonalization(self, candidate, grid):
        coupling = candidate.coupling
        table = build_table(grid, candidate)
        cand_state = ground_state(candidate).state
        row_of = {int(t): i for i, t in enumerate(table.target_ids)}
        for tid, spec in enumerate_targets(grid, candidate.n_sites, coupling=coupling):
            f, thetas = similarity_chain(ground_state(spec).state.bloch, cand_state.bloch)
            chi = chi_opt(thetas)
            row = row_of[tid]
            assert table.f[row] == pytest.approx(f, abs=1e-12)
            assert table.chi[row] == pytest.approx(chi, abs=1e-12)
            assert table.delta_f[row] == pytest.approx(delta_f_planar(thetas, chi), abs=1e-12)
            assert table.sum_sin[row] == pytest.approx(np.sum(np.sin(thetas)), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_property_closed_form_matches_exact_diagonalization(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        coupling = data.draw(st.floats(-5.0, 5.0), label="J")
        field = st.floats(-3.0, 3.0)
        candidate = ChainSpec(n, coupling, data.draw(st.lists(field, min_size=n, max_size=n)))
        b_min, b_max = sorted(data.draw(st.lists(field, min_size=2, max_size=2)))
        levels = data.draw(st.integers(1, 3 if n <= 3 else 2), label="levels")
        grid = ParameterGrid(b_min, b_max, levels if b_min < b_max else 1)
        table = build_table(grid, candidate)
        cand_state = ground_state(candidate).state
        row_of = {int(t): i for i, t in enumerate(table.target_ids)}
        for tid, spec in enumerate_targets(grid, n, coupling=coupling):
            f, thetas = similarity_chain(ground_state(spec).state.bloch, cand_state.bloch)
            chi = chi_opt(thetas)
            row = row_of[tid]
            got = (table.f[row], table.delta_f[row], table.sum_sin[row])
            want = (f, delta_f_planar(thetas, chi), np.sum(np.sin(thetas)))
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, (tid, got, want)
            # χ and χ - π give the same rotation. Where Σ sin θ = 0 and
            # Σ cos θ < 0, rounding can put the eigensolver's χ just above
            # -π/2 while the closed form gives π/2.
            chi_gap = (table.chi[row] - chi + np.pi / 2) % np.pi - np.pi / 2
            assert abs(chi_gap) <= 1e-12, (tid, table.chi[row], chi)

    def test_over_budget_grid_rejected(self):
        with pytest.raises(CapacityError):
            build_table(ParameterGrid(0.0, 1.0, 10), ChainSpec(7, 1.0, (0.0,) * 7))

    def test_noise_at_zero_epsilon_is_exactly_zero(self, tmp_path):
        assert main(["noise", "--eps", "0", "--trials", "3", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "noise.csv").read_text().splitlines()
        assert float(lines[1].split(",")[1]) == 0.0
