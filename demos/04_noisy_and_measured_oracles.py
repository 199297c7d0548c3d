#!/usr/bin/env python3
"""Imperfect black boxes: bounded query noise and projective measurements.

A noisy box replies F' = F + u with u uniform on (-eps, eps); the lookup
then lands on a nearby table entry and the applied rotation angle is
slightly wrong. A measurement box replies with one projective shot per
site, F_est = 2 sum(m_k) - N, an unbiased estimate whose spread follows the
binomial formula and stays below sqrt(N). `Oracle.sample` draws many such
shots in one call, on the same random stream as shot-by-shot queries.
"""

import numpy as np

from spinalign import (
    ChainSpec,
    OracleKind,
    ParameterGrid,
    build_table,
    ground_state,
    lookup_chi_batch,
    make_oracle,
    query_measured,
    similarity_chain,
)

GRID = ParameterGrid(-0.5, 0.5, 5)
CANDIDATE = ChainSpec(4, 1.0, (-0.5,) * 4)


def main():
    table = build_table(GRID, CANDIDATE)
    chi_by_tid = np.empty(len(table))
    chi_by_tid[table.target_ids] = table.chi
    f_by_tid = np.empty(len(table))
    f_by_tid[table.target_ids] = table.f

    print("=" * 64)
    print("1. Noisy queries: how wrong does the rotation get?")
    print("=" * 64)
    rng = np.random.default_rng(30)
    trials = 200
    print("   eps     mean |rotation-angle error|")
    for eps in (0.0, 0.05, 0.1, 0.2):
        errors = []
        for tid in range(len(table)):
            noisy_f = f_by_tid[tid] + rng.uniform(-eps, eps, size=trials)
            chi_hat = lookup_chi_batch(table, noisy_f)
            errors.append(np.mean(np.abs(chi_hat - chi_by_tid[tid])))
        print(f"  {eps:5.2f}    {2 * np.mean(errors):.4f}")
    print("Errors are quoted as Bloch rotation angles (2x the half-angle chi)")
    print("and stay small next to the typical optimal rotation ~0.46.")

    print()
    print("=" * 64)
    print("2. Measurement-based queries: one shot per site")
    print("=" * 64)
    # An oracle reads a candidate as its (N, 3) per-site Bloch vectors.
    candidate = ground_state(CANDIDATE).state.bloch
    hidden = ChainSpec(4, 1.0, (0.5, 0.0, 0.25, -0.25))
    shots = 4000
    oracle = make_oracle(hidden, OracleKind.MEASURED, budget=shots, seed=7)
    estimates = np.empty(shots)
    for i in range(3):
        estimates[i], bits = query_measured(oracle, candidate)
        print(f"  shot {i}: outcomes m = {bits.astype(int)}  ->  F_est = {estimates[i]:+.0f}")
    # The rest in one draw: the same stream, so the same values as more shot-by-shot queries.
    estimates[3:] = oracle.sample(candidate, shots - 3)

    f_exact, thetas = similarity_chain(ground_state(hidden).state.bloch, candidate)
    probs = (np.cos(thetas) + 1.0) / 2.0
    print(f"\n  per-site 'yes' probabilities: {np.round(probs, 4)}")
    print(f"  exact F                    = {f_exact:.4f}")
    print(f"  mean of {shots} estimates     = {estimates.mean():.4f}")
    print(f"  empirical std              = {estimates.std(ddof=1):.4f}")
    print(f"  binomial formula           = {2 * np.sqrt(np.sum(probs * (1 - probs))):.4f}")
    print(f"  sqrt(N) ceiling            = {np.sqrt(4):.4f}")
    values, counts = np.unique(estimates, return_counts=True)
    print("\n  distribution of F_est:")
    for v, c in zip(values, counts):
        print(f"    {v:+.0f}: {'#' * (60 * c // shots)} {c / shots:.3f}")


if __name__ == "__main__":
    main()
