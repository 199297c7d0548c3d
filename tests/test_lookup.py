"""Nearest-F lookup and the lookup table's canonical ties.

The binary-search lookup is tied to the original Q×T brute-force search,
kept here as the oracle, and the closed-form table is tied to per-target
exact diagonalization.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    lookup_chi,
    lookup_chi_batch,
    similarity_chain,
)
from spinalign import protocol
from spinalign.cli import main

from conftest import CANDIDATE, GRID


def brute_force_nearest_rows(table: LookupTable, f_queries) -> np.ndarray:
    """Q×T reference: all distances, then the smallest id at the minimum."""
    with np.errstate(over="ignore"):  # distances between finite floats may be inf
        d = np.abs(table.f[None, :] - np.asarray(f_queries, dtype=float)[:, None])
    d_min = d.min(axis=1, keepdims=True)
    big = len(table) + int(table.target_ids.max()) + 1
    tid_or_big = np.where(d == d_min, table.target_ids[None, :], big)
    chosen_tid = tid_or_big.min(axis=1)
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
        grid=ParameterGrid(-0.5, 0.5, 3),
        candidate=ChainSpec(2, 1.0, (-0.5, -0.5)),
        n_sites=2,
        coupling=1.0,
    )


class TestBoundaryValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalar_query_rejected(self, table, bad):
        with pytest.raises(ValidationError):
            lookup_chi(table, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_query_rejected(self, table, bad):
        with pytest.raises(ValidationError):
            lookup_chi_batch(table, np.array([3.0, bad, 3.5]))

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
        assert lookup_chi(toy, 2.0) == 0.2  # |1-2| == |3-2|, id 2 wins
        assert lookup_chi(toy, 0.0) == 0.0  # run of F=1 -> id 4


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
        rows = protocol._nearest_rows(table, queries)
        assert np.array_equal(rows, brute_force_nearest_rows(table, queries))

    def test_rounding_ties_beyond_the_adjacent_runs(self):
        # Every distance from these queries rounds to the same float, so the
        # smallest id across the whole column must win.
        toy = _table([1.0, 2.0, 3.0, 4.0], [3, 0, 2, 1])
        queries = np.array([-1e300, 1e300, 2.5])
        rows = protocol._nearest_rows(toy, queries)
        assert np.array_equal(rows, brute_force_nearest_rows(toy, queries))
        assert list(toy.target_ids[rows[:2]]) == [0, 0]

    def test_overflowing_distances_tie_across_runs(self):
        # Both distances overflow to inf although the gap between the runs
        # is far above any rounding error.
        toy = _table([-1.7e308, -1e308], [0, 1])
        rows = protocol._nearest_rows(toy, np.array([1.7e308]))
        assert list(toy.target_ids[rows]) == [0]

    def test_overflow_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            toy = _table([-1e308, 1e308], [1, 0])
            queries = np.array([-1.7e308, np.nextafter(-1.7e308, 0.0)])
            rows = protocol._nearest_rows(toy, queries)
        assert list(toy.target_ids[rows]) == [1, 1]

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_property_against_brute_force(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        pool = data.draw(st.lists(finite, min_size=1, max_size=6), label="pool")
        if data.draw(st.booleans(), label="ulp neighbours"):
            pool += [float(np.nextafter(v, 0.0)) for v in pool]
        f = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25), label="f")
        ids = data.draw(st.permutations(range(len(f))), label="ids")
        order = np.lexsort((ids, f))
        table = _table(np.array(f)[order], np.array(ids)[order])
        values = sorted(set(f))
        midpoints = [a / 2 + b / 2 for a, b in zip(values, values[1:])]
        query = st.one_of(finite, st.sampled_from(values + midpoints))
        queries = np.array(data.draw(st.lists(query, max_size=20), label="queries"), dtype=float)
        rows = protocol._nearest_rows(table, queries)
        assert np.array_equal(rows, brute_force_nearest_rows(table, queries))


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
        calls = []

        def counting(spec):
            calls.append(spec)
            return ground_state(spec)

        monkeypatch.setattr(protocol, "ground_state", counting)
        build_table(GRID, CANDIDATE, 1.0)
        assert calls == []  # the closed form needs no eigensolve at all

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
        table = build_table(grid, candidate, coupling)
        cand_state = ground_state(candidate).state
        row_of = {int(t): i for i, t in enumerate(table.target_ids)}
        for tid, spec in enumerate_targets(grid, candidate.n_sites, coupling=coupling):
            f, profile = similarity_chain(ground_state(spec).state, cand_state)
            chi = chi_opt(profile)
            row = row_of[tid]
            assert table.f[row] == pytest.approx(f, abs=1e-12)
            assert table.chi[row] == pytest.approx(chi, abs=1e-12)
            assert table.delta_f[row] == pytest.approx(
                delta_f_planar(profile.thetas, chi), abs=1e-12
            )
            assert table.sum_sin[row] == pytest.approx(profile.sum_sin, abs=1e-12)

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
        table = build_table(grid, candidate, coupling)
        cand_state = ground_state(candidate).state
        row_of = {int(t): i for i, t in enumerate(table.target_ids)}
        for tid, spec in enumerate_targets(grid, n, coupling=coupling):
            f, profile = similarity_chain(ground_state(spec).state, cand_state)
            chi = chi_opt(profile)
            row = row_of[tid]
            got = (table.f[row], table.delta_f[row], table.sum_sin[row])
            want = (f, delta_f_planar(profile.thetas, chi), profile.sum_sin)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, (tid, got, want)
            # χ and χ - π give the same rotation. Where Σ sin θ = 0 and
            # Σ cos θ < 0, rounding can put the eigensolver's χ just above
            # -π/2 while the closed form gives π/2.
            chi_gap = (table.chi[row] - chi + np.pi / 2) % np.pi - np.pi / 2
            assert abs(chi_gap) <= 1e-12, (tid, table.chi[row], chi)

    def test_over_budget_grid_rejected(self):
        with pytest.raises(CapacityError):
            build_table(ParameterGrid(0.0, 1.0, 10), ChainSpec(7, 1.0, (0.0,) * 7), 1.0)

    def test_noise_at_zero_epsilon_is_exactly_zero(self, tmp_path):
        assert main(["noise", "--eps", "0", "--trials", "3", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "noise.csv").read_text().splitlines()
        assert float(lines[1].split(",")[1]) == 0.0
