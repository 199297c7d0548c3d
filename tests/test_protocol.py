import io
import re

import numpy as np
import pytest

from spinalign import (
    AngleProfile,
    BlochVector,
    ChainSpec,
    IndeterminateOptimumError,
    LookupTable,
    OracleKind,
    ParameterGrid,
    QueryBudgetError,
    StateVector,
    ValidationError,
    Z_AXIS,
    apply_unitary,
    bloch_vector,
    chi_opt,
    delta_f_general,
    delta_f_planar,
    global_rotation,
    ground_state,
    lookup_chi,
    lookup_chi_batch,
    make_oracle,
    partial_trace,
    run_protocol,
    similarity_chain,
)

from conftest import CANDIDATE, GRID


class TestGlobalRotation:
    def test_zero_angle_is_identity(self):
        assert np.allclose(global_rotation(0.0, 3).entries, np.eye(8))

    def test_single_site_half_pi(self):
        u = global_rotation(np.pi / 2, 1)
        assert np.allclose(u.entries, -1j * np.diag([1.0, -1.0]))

    def test_bloch_vector_turns_by_twice_chi(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2), 1)  # Bloch (1, 0, 0)
        out = apply_unitary(global_rotation(np.pi / 4, 1), plus)
        v = bloch_vector(partial_trace(out, 0b1))
        assert v.x == pytest.approx(0.0, abs=1e-12)
        assert v.y == pytest.approx(1.0, abs=1e-12)

    def test_group_closure(self):
        for a, b in ((0.3, 0.4), (-1.2, 0.9), (2.0, 2.0)):
            lhs = global_rotation(a, 3).entries @ global_rotation(b, 3).entries
            rhs = global_rotation(a + b, 3).entries
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_unitary(self):
        u = global_rotation(0.7, 4).entries
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


def _rodrigues(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    return (v * np.cos(angle) + np.cross(axis, v) * np.sin(angle)
            + axis * (axis @ v) * (1 - np.cos(angle)))


class TestDeltaFGeneral:
    def test_zero_chi(self):
        c = [BlochVector(1, 0, 0)]
        r = [BlochVector(0, 1, 0)]
        assert delta_f_general(c, r, Z_AXIS, 0.0) == 0.0

    def test_reduces_to_planar_for_in_plane_vectors(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            phis_c = rng.uniform(-np.pi, np.pi, size=4)
            phis_r = rng.uniform(-np.pi, np.pi, size=4)
            rad_c = rng.uniform(0.2, 1.0, size=4)
            rad_r = rng.uniform(0.2, 1.0, size=4)
            c = [BlochVector(rc * np.cos(p), rc * np.sin(p), 0.0)
                 for rc, p in zip(rad_c, phis_c)]
            r = [BlochVector(rr * np.cos(p), rr * np.sin(p), 0.0)
                 for rr, p in zip(rad_r, phis_r)]
            thetas = [((pr - pc + np.pi) % (2 * np.pi)) - np.pi
                      for pc, pr in zip(phis_c, phis_r)]
            chi = rng.uniform(-np.pi, np.pi)
            assert delta_f_general(c, r, Z_AXIS, chi) == pytest.approx(
                delta_f_planar(thetas, chi), abs=1e-10
            )

    def test_site_parallel_to_axis_contributes_nothing(self):
        c = [BlochVector(0, 0, 1.0), BlochVector(1.0, 0, 0)]
        r = [BlochVector(0.5, 0.5, 0), BlochVector(0, 1.0, 0)]
        only_second = delta_f_general(c[1:], r[1:], Z_AXIS, 0.6)
        assert delta_f_general(c, r, Z_AXIS, 0.6) == pytest.approx(only_second, abs=1e-12)

    def test_matches_brute_force_rotation_any_axis(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = rng.integers(1, 5)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            cs, rs = [], []
            for _ in range(n):
                u = rng.normal(size=3)
                u *= rng.uniform(0.2, 1.0) / np.linalg.norm(u)
                w = rng.normal(size=3)
                w *= rng.uniform(0.2, 1.0) / np.linalg.norm(w)
                cs.append(u)
                rs.append(w)
            chi = rng.uniform(-np.pi, np.pi)
            predicted = delta_f_general(
                [BlochVector(*v) for v in cs], [BlochVector(*v) for v in rs],
                BlochVector(*axis), chi,
            )
            actual = 0.0
            for u, w in zip(cs, rs):
                u2 = _rodrigues(u, axis, 2 * chi)
                actual += (u2 @ w) / (np.linalg.norm(u2) * np.linalg.norm(w))
                actual -= (u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
            assert predicted == pytest.approx(actual, abs=1e-10)


class TestChiOpt:
    def test_aligned_profile(self):
        assert chi_opt(AngleProfile((0.0, 0.0, 0.0))) == 0.0

    def test_uniform_profile_gives_half_angle(self):
        for theta in (0.3, 0.927295, -1.1):
            assert chi_opt(AngleProfile((theta,) * 4)) == pytest.approx(theta / 2, abs=1e-12)

    def test_single_hot_site(self):
        chi = chi_opt(AngleProfile((np.pi / 2, 0.0, 0.0, 0.0)))
        assert chi == pytest.approx(0.5 * np.arctan(1 / 3), abs=1e-12)
        assert chi == pytest.approx(0.160875, abs=1e-6)

    def test_stationary_point(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            th = rng.uniform(-np.pi, np.pi, size=rng.integers(1, 7))
            try:
                chi = chi_opt(AngleProfile(tuple(th)))
            except IndeterminateOptimumError:
                continue
            derivative = 2 * np.sum(np.sin(th - 2 * chi))
            assert abs(derivative) < 1e-8

    def test_beats_dense_grid(self):
        rng = np.random.default_rng(19)
        grid = np.arange(-np.pi, np.pi, 1e-4) + 1e-4
        for _ in range(100):
            th = rng.uniform(-np.pi, np.pi, size=rng.integers(1, 7))
            profile = AngleProfile(tuple(th))
            try:
                chi = chi_opt(profile)
            except IndeterminateOptimumError:
                continue
            best = delta_f_planar(th, chi)
            gains = 2 * np.sin(grid) * np.sum(np.sin(th[None, :] - grid[:, None]), axis=1)
            assert best - gains.max() >= -1e-8
            assert -np.pi / 2 < chi <= np.pi / 2

    def test_indeterminate_profile_rejected(self):
        with pytest.raises(IndeterminateOptimumError):
            chi_opt(AngleProfile((np.pi / 2, -np.pi / 2)))
        with pytest.raises(IndeterminateOptimumError):
            chi_opt(AngleProfile((0.0, np.pi)))


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
        from spinalign import target_fields

        rng = np.random.default_rng(20)
        for tid in rng.choice(625, size=5, replace=False):
            row = int(np.nonzero(table.target_ids == tid)[0][0])
            spec = ChainSpec(4, 1.0, target_fields(int(tid), GRID, 4))
            f, profile = similarity_chain(ground_state(spec).state, candidate_state)
            assert table.f[row] == pytest.approx(f, abs=1e-12)
            assert table.chi[row] == pytest.approx(chi_opt(profile), abs=1e-12)
            assert table.sum_sin[row] == pytest.approx(profile.sum_sin, abs=1e-12)

    def test_csv_serialization(self, table):
        buf = io.StringIO()
        table.to_csv(buf)
        lines = buf.getvalue().splitlines()
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
        grid=ParameterGrid(-0.5, 0.5, 3),
        candidate=ChainSpec(2, 1.0, (-0.5, -0.5)),
        n_sites=2,
        coupling=1.0,
    )


class TestLookup:
    def test_exact_match_returns_that_entry(self, table):
        rng = np.random.default_rng(21)
        for row in rng.choice(len(table), size=10, replace=False):
            # symmetric targets can share a bitwise-identical F; the smallest
            # target id among the exact ties wins
            tied = np.nonzero(table.f == table.f[row])[0]
            winner = tied[np.argmin(table.target_ids[tied])]
            assert lookup_chi(table, float(table.f[row])) == table.chi[winner]

    def test_perfect_similarity_maps_to_zero(self, table):
        assert lookup_chi(table, 4.0) == 0.0

    def test_out_of_range_clamps(self, table):
        assert lookup_chi(table, 10.0) == lookup_chi(table, float(table.f.max()))
        assert lookup_chi(table, -10.0) == lookup_chi(table, float(table.f.min()))

    def test_duplicate_f_tie_breaks_by_target_id(self):
        toy = _toy_table()
        assert lookup_chi(toy, 1.0) == 0.1

    def test_equidistant_tie_breaks_by_target_id(self):
        toy = _toy_table()
        assert lookup_chi(toy, 2.0) == 0.1  # |1-2| == |3-2|, smallest id wins

    def test_batch_matches_scalar(self, table):
        rng = np.random.default_rng(22)
        queries = rng.uniform(2.0, 4.2, size=200)
        batch = lookup_chi_batch(table, queries)
        for q, chi in zip(queries, batch):
            assert lookup_chi(table, float(q)) == chi


class _BlindDouble:
    """Duck-typed oracle exposing only the two query operations."""

    def __init__(self, reply: float, after: float):
        self.calls: list[str] = []
        self._reply = reply
        self._after = after

    def query(self, state):
        self.calls.append("query")
        return self._reply

    def verification_query(self, state):
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
        from spinalign import target_fields

        for tid in (1, 17, 311, 624):
            spec = ChainSpec(4, 1.0, target_fields(tid, GRID, 4))
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
