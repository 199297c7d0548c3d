import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinalign import (
    ChainSpec,
    IndeterminateOptimumError,
    LookupTable,
    OracleKind,
    ParameterGrid,
    QueryBudgetError,
    StateVector,
    ValidationError,
    apply_unitary,
    bloch_vector,
    build_table,
    chi_opt,
    delta_f_planar,
    global_rotation,
    ground_state,
    lookup_chi_batch,
    make_oracle,
    partial_trace,
    run_protocol,
    similarity_chain,
    sweep_exact,
)
from spinalign.chain import product_ground_directions, target_field_array
from spinalign.protocol import delta_f_sums, rotate_directions
from spinalign.cli import main

from conftest import CANDIDATE, GRID


class TestGlobalRotation:
    def test_zero_angle_is_identity(self):
        assert np.allclose(global_rotation(0.0, 3), np.eye(8))

    def test_single_site_half_pi(self):
        u = global_rotation(np.pi / 2, 1)
        assert np.allclose(u, -1j * np.diag([1.0, -1.0]))

    def test_bloch_vector_turns_by_twice_chi(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2), 1)  # Bloch (1, 0, 0)
        out = apply_unitary(global_rotation(np.pi / 4, 1), plus)
        v = bloch_vector(partial_trace(out, 0b1))
        assert v[:2] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_group_closure(self):
        for a, b in ((0.3, 0.4), (-1.2, 0.9), (2.0, 2.0)):
            lhs = global_rotation(a, 3) @ global_rotation(b, 3)
            rhs = global_rotation(a + b, 3)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_unitary(self):
        u = global_rotation(0.7, 4)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12


class TestDeltaFPlanar:
    def test_zero_chi(self):
        assert delta_f_planar([0.3, 0.9, -0.2], 0.0) == 0.0

    def test_single_site_full_alignment(self):
        assert delta_f_planar([np.pi / 2], np.pi / 4) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_profile_reaches_the_line(self):
        theta = 2 * np.arctan(0.5)
        gain = delta_f_planar([theta] * 4, theta / 2)
        assert gain == pytest.approx(1.6, abs=1e-12)
        assert gain == pytest.approx(4 * (1 - np.cos(theta)), abs=1e-12)

    def test_trig_identity(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            th = rng.uniform(-np.pi, np.pi, size=5)
            chi = rng.uniform(-np.pi, np.pi)
            direct = delta_f_planar(th, chi)
            expanded = float(np.sum(np.cos(th - 2 * chi) - np.cos(th)))
            assert abs(direct - expanded) < 1e-12

    def test_sums_form_equals_the_angle_form(self):
        rng = np.random.default_rng(16)
        th = rng.uniform(-np.pi, np.pi, size=(100, 5))
        chi = rng.uniform(-np.pi, np.pi, size=100)
        sums = delta_f_sums(np.sin(th).sum(axis=1), np.cos(th).sum(axis=1), np.sin(chi),
                            np.cos(chi))
        direct = [delta_f_planar(row, x) for row, x in zip(th, chi)]
        np.testing.assert_allclose(sums, direct, rtol=0, atol=1e-12)


class TestChiOpt:
    def test_aligned_profile(self):
        assert chi_opt(np.zeros(3)) == 0.0

    def test_uniform_profile_gives_half_angle(self):
        for theta in (0.3, 0.927295, -1.1):
            assert chi_opt(np.full(4, theta)) == pytest.approx(theta / 2, abs=1e-12)

    def test_single_hot_site(self):
        chi = chi_opt(np.array([np.pi / 2, 0.0, 0.0, 0.0]))
        assert chi == pytest.approx(0.5 * np.arctan(1 / 3), abs=1e-12)
        assert chi == pytest.approx(0.160875, abs=1e-6)

    def test_stationary_point(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            th = rng.uniform(-np.pi, np.pi, size=rng.integers(1, 7))
            try:
                chi = chi_opt(th)
            except IndeterminateOptimumError:
                continue
            derivative = 2 * np.sum(np.sin(th - 2 * chi))
            assert abs(derivative) < 1e-8

    def test_beats_dense_grid(self):
        rng = np.random.default_rng(19)
        grid = np.arange(-np.pi, np.pi, 1e-4) + 1e-4
        for _ in range(100):
            th = rng.uniform(-np.pi, np.pi, size=rng.integers(1, 7))
            try:
                chi = chi_opt(th)
            except IndeterminateOptimumError:
                continue
            best = delta_f_planar(th, chi)
            gains = 2 * np.sin(grid) * np.sum(np.sin(th[None, :] - grid[:, None]), axis=1)
            assert best - gains.max() >= -1e-8
            assert -np.pi / 2 < chi <= np.pi / 2

    def test_nan_angle_rejected(self):
        # s² + c² < floor² is False for NaN, so the check is written to fail it.
        with pytest.raises(IndeterminateOptimumError):
            chi_opt(np.array([np.nan, 0.1]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_angle_rejected_as_nan(self, bad):
        # Its sine is NaN; numpy's invalid-value warning ended the call first.
        with pytest.raises(IndeterminateOptimumError):
            chi_opt(np.array([bad, 0.1]))

    def test_indeterminate_profile_rejected(self):
        with pytest.raises(IndeterminateOptimumError):
            chi_opt(np.array([np.pi / 2, -np.pi / 2]))
        with pytest.raises(IndeterminateOptimumError):
            chi_opt(np.array([0.0, np.pi]))


class TestLookupTable:
    def test_reference_shape(self, table):
        assert len(table) == 625
        assert np.all(np.diff(table.f) >= 0)

    def test_candidate_entry(self, table):
        row = int(np.nonzero(table.target_ids == 0)[0][0])
        assert abs(table.f[row] - 4.0) <= 1e-9
        assert abs(table.chi[row]) <= 1e-9
        assert abs(table.delta_f[row]) <= 1e-9

    def test_max_gain_on_the_boundary_line(self, table):
        best = int(np.argmax(table.delta_f))
        assert abs(table.delta_f[best] + table.f[best] - 4.0) <= 1e-6

    def test_chi_range(self, table):
        assert np.all(table.chi > -np.pi / 2)
        assert np.all(table.chi <= np.pi / 2)

    def test_entries_match_direct_recomputation(self, table, candidate_state):
        fields = target_field_array(GRID, 4)
        rng = np.random.default_rng(20)
        for tid in rng.choice(625, size=5, replace=False):
            row = int(np.nonzero(table.target_ids == tid)[0][0])
            spec = ChainSpec(4, 1.0, fields[tid])
            f, thetas = similarity_chain(ground_state(spec).state.bloch, candidate_state.bloch)
            assert table.f[row] == pytest.approx(f, abs=1e-12)
            assert table.chi[row] == pytest.approx(chi_opt(thetas), abs=1e-12)
            assert table.sum_sin[row] == pytest.approx(np.sum(np.sin(thetas)), abs=1e-12)

    def test_peak_memory_is_two_angle_arrays(self):
        # At N = 10 the (T, N) angle arrays outweigh the T-long columns.
        grid, candidate = ParameterGrid(-0.5, 0.5, 3), ChainSpec(10, 1.0, (-0.5,) * 10)
        tracemalloc.start()
        try:
            table = build_table(grid, candidate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        angles = len(table) * candidate.n_sites * 8
        # Sorted angles and one work array, next to a few T-long columns:
        # ~25 T floats here, where five (T, N) temporaries reached ~34.
        assert peak <= 2 * angles + 8 * len(table) * 8

    def test_csv_serialization(self, tmp_path):
        assert main(["table", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fig2.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "target_id,F,chi_opt,delta_F,sum_sin"
        assert len(lines) == 626
        float_pat = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")
        parts = lines[1].split(",")
        assert parts[0].isdigit() or (parts[0].startswith("-") and parts[0][1:].isdigit())
        for p in parts[1:]:
            assert float_pat.match(p), p


def _toy_table():
    return LookupTable(
        target_ids=np.array([0, 1, 2], dtype=np.int64),
        f=np.array([1.0, 1.0, 3.0]),
        chi=np.array([0.1, 0.2, 0.3]),
        delta_f=np.zeros(3),
        sum_sin=np.zeros(3),
        candidate=ChainSpec(2, 1.0, (-0.5, -0.5)),
    )


class TestLookup:
    def test_exact_match_returns_that_entry(self, table):
        rng = np.random.default_rng(21)
        for row in rng.choice(len(table), size=10, replace=False):
            # symmetric targets can share a bitwise-identical F; the smallest
            # target id among the exact ties wins
            tied = np.nonzero(table.f == table.f[row])[0]
            winner = tied[np.argmin(table.target_ids[tied])]
            assert lookup_chi_batch(table, table.f[row:row + 1])[0] == table.chi[winner]

    def test_perfect_similarity_maps_to_zero(self, table):
        assert lookup_chi_batch(table, np.array([4.0]))[0] == 0.0

    def test_out_of_range_clamps(self, table):
        clamped = lookup_chi_batch(table, np.array([10.0, -10.0]))
        assert clamped.tolist() == lookup_chi_batch(table, table.f[[-1, 0]]).tolist()

    def test_duplicate_f_tie_breaks_by_target_id(self):
        toy = _toy_table()
        assert lookup_chi_batch(toy, np.array([1.0]))[0] == 0.1

    def test_equidistant_tie_breaks_by_target_id(self):
        toy = _toy_table()
        # |1-2| == |3-2|, smallest id wins
        assert lookup_chi_batch(toy, np.array([2.0]))[0] == 0.1

    def test_batch_matches_scalar(self, table):
        # The tie fix-up is gated on the whole batch; one-query batches must agree.
        rng = np.random.default_rng(22)
        queries = rng.uniform(2.0, 4.2, size=200)
        batch = lookup_chi_batch(table, queries)
        for q, chi in zip(queries, batch):
            assert lookup_chi_batch(table, np.array([q]))[0] == chi


class _BlindDouble:
    """Duck-typed oracle exposing only the two query operations."""

    def __init__(self, reply: float, after: float):
        self.calls: list[str] = []
        self._reply = reply
        self._after = after

    def query(self, candidate):
        self.calls.append("query")
        return self._reply

    def verification_query(self, candidate):
        self.calls.append("verification")
        return self._after


class TestRunProtocol:
    def test_target_equals_candidate(self, table):
        oracle = make_oracle(CANDIDATE, OracleKind.EXACT, budget=1)
        report = run_protocol(CANDIDATE, oracle, table)
        assert report.f_before == pytest.approx(4.0, abs=1e-9)
        assert report.chi == 0.0
        assert report.f_after == pytest.approx(4.0, abs=1e-9)
        assert report.queries_used == 1

    def test_product_chain_alignment(self, table_j0):
        candidate = ChainSpec(4, 0.0, (-0.5,) * 4)
        target = ChainSpec(4, 0.0, (0.5,) * 4)
        oracle = make_oracle(target, OracleKind.EXACT, budget=1)
        report = run_protocol(candidate, oracle, table_j0)
        assert report.f_before == pytest.approx(2.4, abs=1e-9)
        assert report.f_after == pytest.approx(4.0, abs=1e-9)
        assert report.chi == pytest.approx(np.arctan(0.5), abs=1e-9)

    def test_report_delta_identity(self, table):
        oracle = make_oracle(ChainSpec(4, 1.0, (0.25,) * 4), OracleKind.EXACT, budget=1)
        report = run_protocol(CANDIDATE, oracle, table)
        assert abs(report.delta_f_actual - (report.f_after - report.f_before)) < 1e-10

    def test_analytic_equals_actual_for_exact_oracle(self, table):
        fields = target_field_array(GRID, 4)
        for tid in (1, 17, 311, 624):
            spec = ChainSpec(4, 1.0, fields[tid])
            oracle = make_oracle(spec, OracleKind.EXACT, budget=1)
            report = run_protocol(CANDIDATE, oracle, table)
            assert report.delta_f_analytic == pytest.approx(report.delta_f_actual, abs=1e-9)

    def test_runs_blind_against_a_double(self, table):
        double = _BlindDouble(reply=2.4, after=4.0)
        report = run_protocol(CANDIDATE, double, table)
        assert double.calls == ["query", "verification"]
        assert report.f_before == 2.4
        assert report.queries_used == 1

    def test_budget_exhaustion_surfaces(self, table):
        oracle = make_oracle(CANDIDATE, OracleKind.EXACT, budget=0)
        with pytest.raises(QueryBudgetError):
            run_protocol(CANDIDATE, oracle, table)

    def test_candidate_must_match_table(self, table):
        other = ChainSpec(4, 1.0, (0.0,) * 4)
        oracle = make_oracle(CANDIDATE, OracleKind.EXACT, budget=1)
        with pytest.raises(ValidationError):
            run_protocol(other, oracle, table)


class TestClosedFormCandidate:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_rotated_directions_match_the_dense_rotation(self, data):
        n = data.draw(st.integers(2, 8), label="n")
        fields = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n), label="b")
        spec = ChainSpec(n, data.draw(st.floats(-5.0, 5.0), label="J"), fields)
        chi = data.draw(st.floats(-np.pi, np.pi), label="chi")
        dense = apply_unitary(global_rotation(chi, n), ground_state(spec).state).bloch
        closed = rotate_directions(product_ground_directions(spec.fields), chi)
        # The z components vanish by symmetry, but near the doublet of a
        # strong ferromagnetic chain eigh leaves them at rounding over the
        # gap (~2e-9 at N = 7, J = -4), so directions are compared in the plane.
        assert np.all(closed[:, 2] == 0.0)
        planar = dense[:, :2] / np.linalg.norm(dense[:, :2], axis=1, keepdims=True)
        assert np.max(np.abs(planar - closed[:, :2])) <= 1e-12


def _hand_table(ids, f=(0.5, 1.0), chi=(0.0, 0.0), delta_f=(0.0, 0.0), sum_sin=(0.0, 0.0)):
    return LookupTable(
        target_ids=np.asarray(ids),
        f=np.asarray(f),
        chi=np.asarray(chi),
        delta_f=np.asarray(delta_f),
        sum_sin=np.asarray(sum_sin),
        candidate=ChainSpec(2, 1.0, (-0.5, -0.5)),
    )


class TestTableColumns:
    @pytest.mark.parametrize("ids", [[-5, 1.5], [0, 1.5], [-1, 0], [False, True]])
    def test_ids_must_be_non_negative_integers(self, ids):
        with pytest.raises(ValidationError, match="target ids"):
            _hand_table(ids)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["chi", "delta_f", "sum_sin"])
    def test_non_finite_columns_rejected(self, column, bad):
        with pytest.raises(ValidationError, match=f"table {column} values must be finite"):
            _hand_table([0, 1], **{column: (0.0, bad)})

    # [0, 0] left target 1 unset; [3, 1] indexed past the two targets.
    @pytest.mark.parametrize("ids", [[0, 0], [3, 1], [1, 2], [1, 1]])
    def test_sweep_needs_each_id_below_the_length_once(self, ids):
        with pytest.raises(ValidationError, match="each once"):
            sweep_exact(_hand_table(ids))

    def test_sweep_of_a_hand_built_permutation(self):
        f, delta_f = sweep_exact(_hand_table(np.array([1, 0], dtype=np.uint64)))
        assert f.tolist() == [1.0, 0.5]
        assert delta_f.tolist() == [0.0, 0.0]


class TestSweepExact:
    # The gather's F is the table's, summed in sorted angle order; run_protocol's
    # exact oracle sums site cosines in site order. They agree to rounding.
    TOLERANCE = 1e-13

    def _assert_equals_run_protocol(self, table, grid, target_ids):
        fields = target_field_array(grid, 4)
        f_before, delta_f = sweep_exact(table)
        for tid in target_ids:
            oracle = make_oracle(ChainSpec(4, 1.0, fields[tid]), OracleKind.EXACT, budget=1)
            report = run_protocol(CANDIDATE, oracle, table)
            assert f_before[tid] == pytest.approx(report.f_before, rel=0, abs=self.TOLERANCE)
            assert delta_f[tid] == pytest.approx(report.delta_f_actual, rel=0,
                                                 abs=self.TOLERANCE)

    def test_equals_run_protocol_per_target(self, table):
        self._assert_equals_run_protocol(table, GRID, range(len(table)))

    def test_grid_equals_its_field_array(self):
        # Target t of the gather is row t of the grid's field array, on a
        # 16-level grid: 65,536 targets in 3,876 F runs.
        grid = ParameterGrid(-0.5, 0.5, 16)
        self._assert_equals_run_protocol(build_table(grid, CANDIDATE), grid,
                                         (0, 999, 1000, 1001, 31_999, 32_000, 65_000, 65_535))

    def test_f_is_the_table_f_by_target_id(self, table):
        f_before, _ = sweep_exact(table)
        np.testing.assert_array_equal(f_before[table.target_ids], table.f, strict=True)

    def test_field_ranges_are_rows_of_the_field_array(self):
        whole = target_field_array(ParameterGrid(-1.0, 2.0, 3), 5)
        for start, stop in ((0, 243), (0, 1), (100, 181), (242, 243), (200, 10**6)):
            part = target_field_array(ParameterGrid(-1.0, 2.0, 3), 5, start=start, stop=stop)
            np.testing.assert_array_equal(part, whole[start:stop], strict=True)

    def test_peak_memory_is_bounded_by_the_block(self):
        # 65,536 targets of a 16-level grid. The gather makes (T,) columns
        # only, ~6 of them; the (T, N, 3) site directions of one pass over all
        # targets were 12 columns on their own.
        table = build_table(ParameterGrid(-0.5, 0.5, 16), CANDIDATE)
        tracemalloc.start()
        try:
            sweep_exact(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * len(table) * 8
