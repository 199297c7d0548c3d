"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
values alongside the verdicts.
"""

import time

import numpy as np

from spinalign import (
    ChainSpec,
    DensityMatrix,
    OracleKind,
    SubsetFunctionKind,
    apply_unitary,
    bloch_vector,
    build_table,
    cos_theta,
    delta_f_planar,
    enumerate_bipartition_subsets,
    enumerate_targets,
    global_rotation,
    ground_state,
    make_oracle,
    mask_from_sites,
    partial_trace,
    product_ground_bloch,
    query_measured,
    run_protocol,
    similarity_general,
)
from spinalign.cli import RunConfig, cmd_noise, main

from conftest import CANDIDATE, COUPLING, GRID, N_SITES

DEFAULT_SEED = RunConfig().seed


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_mean_gain_and_runtime():
    t0 = time.perf_counter()
    table = build_table(GRID, CANDIDATE, COUPLING)
    deltas = []
    for target_id, spec in enumerate_targets(GRID, N_SITES, coupling=COUPLING):
        oracle = make_oracle(spec, OracleKind.EXACT, budget=1, seed=[DEFAULT_SEED, target_id])
        deltas.append(run_protocol(CANDIDATE, oracle, table).delta_f_actual)
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(deltas))
    _report(
        1,
        0.40 <= mean <= 0.50 and elapsed < 60.0,
        f"mean dF over 625 exact-oracle runs = {mean:.4f} in [0.40, 0.50], "
        f"runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_02_table_shape(table):
    row0 = int(np.nonzero(table.target_ids == 0)[0][0])
    best = int(np.argmax(table.delta_f))
    line_dev = abs(table.delta_f[best] + table.f[best] - N_SITES)
    ok = (
        len(table) == 625
        and abs(table.f[row0] - 4.0) <= 1e-9
        and abs(table.chi[row0]) <= 1e-9
        and line_dev <= 1e-6
    )
    _report(
        2,
        ok,
        f"625 entries; target 0: F = {table.f[row0]:.12f}, chi = {table.chi[row0]:.2e}; "
        f"max-gain line deviation {line_dev:.2e} <= 1e-6",
    )


def test_criterion_03_noise_robustness(tmp_path):
    cfg = RunConfig(out=str(tmp_path))
    cmd_noise(cfg)
    rows = {}
    with open(tmp_path / "noise.csv", "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            eps, err, gain = (float(p) for p in line.split(","))
            rows[round(eps, 10)] = (err, gain)
    err05, err10 = rows[0.05][0], rows[0.1][0]
    errs = [rows[e][0] for e in sorted(rows)]
    gains = [rows[e][1] for e in sorted(rows)]
    ok = (
        rows[0.0][0] <= 1e-12
        and 0.03 <= err05 <= 0.09
        and 0.05 <= err10 <= 0.11
        and all(a <= b + 1e-12 for a, b in zip(errs, errs[1:]))
        and all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))
    )
    _report(
        3,
        ok,
        f"rotation-angle error {err05:.4f} in [0.03, 0.09] at eps=0.05, "
        f"{err10:.4f} in [0.05, 0.11] at eps=0.1; monotone in eps",
    )


def test_criterion_04_closed_form_optimum(study):
    grid = np.arange(-np.pi, np.pi, 1e-4)
    worst_margin = np.inf
    worst_residual = 0.0
    for tid in range(625):
        th = study.thetas[tid]
        best = delta_f_planar(th, study.chi[tid])
        gains = 2.0 * np.sin(grid) * np.sin(th[None, :] - grid[:, None]).sum(axis=1)
        worst_margin = min(worst_margin, best - gains.max())
        worst_residual = max(
            worst_residual, abs(2.0 * np.sum(np.sin(th - 2 * study.chi[tid])))
        )
    _report(
        4,
        worst_margin >= -1e-8 and worst_residual < 1e-8,
        f"closed form beats the 1e-4 grid for all 625 targets "
        f"(worst margin {worst_margin:.2e} >= -1e-8, "
        f"worst stationarity residual {worst_residual:.2e} < 1e-8)",
    )


def test_criterion_05_analytic_actual_equivalence(study, candidate_state):
    worst = 0.0
    for tid in range(625):
        chi = study.chi[tid]
        rotated = apply_unitary(global_rotation(chi, N_SITES), candidate_state)
        f_after = sum(
            cos_theta(
                DensityMatrix(study.target_rhos[tid, k]),
                partial_trace(rotated, 1 << k),
            )
            for k in range(N_SITES)
        )
        analytic = delta_f_planar(study.thetas[tid], chi)
        worst = max(worst, abs(analytic - (f_after - study.f[tid])))
    _report(
        5,
        worst < 1e-9,
        f"planar gain equals the recomputed full-rotation gain for all 625 targets "
        f"(worst deviation {worst:.2e} < 1e-9)",
    )


def test_criterion_06_xy_plane(study):
    worst = float(np.max(np.abs(study.bloch_z)))
    _report(
        6,
        worst < 1e-8,
        f"all 2500 ground-state Bloch z-components below 1e-8 (max {worst:.2e})",
    )


def test_criterion_07_measurement_oracle(study, candidate_state):
    trials = 10_000
    worst_rel = 0.0
    worst_sigma = 0.0
    worst_z = 0.0
    for target_id, spec in enumerate_targets(GRID, N_SITES, coupling=COUPLING):
        probs = (np.cos(study.thetas[target_id]) + 1.0) / 2.0
        binom = 2.0 * np.sqrt(float(np.sum(probs * (1.0 - probs))))
        oracle = make_oracle(
            spec, OracleKind.MEASURED, budget=trials, seed=[DEFAULT_SEED, target_id]
        )
        estimates = np.empty(trials)
        for shot in range(trials):
            estimates[shot], _ = query_measured(oracle, candidate_state)
        s = float(estimates.std(ddof=1))
        worst_sigma = max(worst_sigma, s)
        if binom > 1e-6:
            worst_rel = max(worst_rel, abs(s - binom) / binom)
        else:
            assert s <= 1e-6
        se = max(s / np.sqrt(trials), 1e-9 / 3.0)
        worst_z = max(worst_z, abs(float(estimates.mean()) - study.f[target_id]) / se)
    ok = worst_rel <= 0.05 and worst_sigma <= 2.0 and worst_z <= 3.0
    _report(
        7,
        ok,
        f"10^4 shots x 625 targets: worst std deviation {100 * worst_rel:.2f}% <= 5%, "
        f"max std {worst_sigma:.3f} <= 2, worst mean z-score {worst_z:.2f} <= 3",
    )


def test_criterion_08_j0_consistency(table_j0):
    worst = 0.0
    for _, spec in enumerate_targets(GRID, N_SITES, coupling=0.0):
        state = ground_state(spec).state
        for k in range(1, N_SITES + 1):
            exact = bloch_vector(partial_trace(state, mask_from_sites([k], N_SITES)))
            closed = product_ground_bloch(spec.fields[k - 1])
            worst = max(
                worst,
                abs(exact.x - closed.x),
                abs(exact.y - closed.y),
                abs(exact.z - closed.z),
            )
    candidate = ChainSpec(N_SITES, 0.0, (-0.5,) * N_SITES)
    oracle = make_oracle(ChainSpec(N_SITES, 0.0, (0.5,) * N_SITES), OracleKind.EXACT, budget=1)
    report = run_protocol(candidate, oracle, table_j0)
    ok = (
        worst < 1e-9
        and abs(report.f_before - 2.4) < 1e-9
        and abs(report.f_after - 4.0) < 1e-9
    )
    _report(
        8,
        ok,
        f"J=0 Bloch vectors match the closed form (worst {worst:.2e} < 1e-9); "
        f"uniform target protocol run: F {report.f_before:.6f} -> {report.f_after:.6f}",
    )


def test_criterion_09_purity_similarity(candidate_state):
    subsets = enumerate_bipartition_subsets(N_SITES)
    base = similarity_general(candidate_state, candidate_state, subsets,
                              SubsetFunctionKind.PURITY)
    worst_shift = 0.0
    for chi in (0.1, 0.7, -1.3, np.pi / 2):
        rotated = apply_unitary(global_rotation(chi, N_SITES), candidate_state)
        val = similarity_general(candidate_state, rotated, subsets,
                                 SubsetFunctionKind.PURITY)
        worst_shift = max(worst_shift, abs(val - base))
    ok = abs(base - 14.0) <= 1e-10 and worst_shift <= 1e-10
    _report(
        9,
        ok,
        f"purity similarity over 14 bipartitions = {base:.12f} (=14); "
        f"max shift under global z-rotations {worst_shift:.2e} <= 1e-10",
    )


def test_criterion_10_determinism(tmp_path):
    common = [
        "--n", "4", "--d", "5", "--seed", str(DEFAULT_SEED),
    ]
    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"threads_{threads}"
        base = common + ["--threads", threads, "--out", str(out)]
        assert main(["table", *base]) == 0
        assert main(["sweep", *base]) == 0
        assert main(["noise", *base, "--trials", "50"]) == 0
        assert main(["measure", *base, "--trials", "300"]) == 0
        outputs[threads] = {
            name: (out / name).read_bytes()
            for name in ("fig2.csv", "fig3.csv", "noise.csv", "measure.csv")
        }
    identical = all(
        outputs["1"][name] == outputs["4"][name] for name in outputs["1"]
    )
    _report(
        10,
        identical,
        "fig2/fig3/noise/measure CSV bytes identical across thread counts 1 and 4",
    )
