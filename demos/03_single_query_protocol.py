#!/usr/bin/env python3
"""The single-query alignment protocol, end to end.

The experimenter controls the candidate chain and may ask a black box for
the similarity F exactly once. Beforehand, a lookup table over every
possible target maps F to the optimal rotation half-angle chi_opt; after
the one query the table picks the rotation.
"""

import numpy as np

from spinalign import (
    ChainSpec,
    OracleKind,
    ParameterGrid,
    build_table,
    enumerate_targets,
    make_oracle,
    run_protocol,
)

GRID = ParameterGrid(-0.5, 0.5, 5)
CANDIDATE = ChainSpec(4, 1.0, (-0.5,) * 4)


def main():
    print("=" * 64)
    print("1. Precomputing the lookup table (no black-box resources)")
    print("=" * 64)
    table = build_table(GRID, CANDIDATE)
    print(f"{len(table)} targets tabulated; columns sorted by F")
    print("   F            chi_opt       dF at chi_opt")
    for i in range(0, len(table), 125):
        print(f"  {table.f[i]:.6f}     {table.chi[i]:.6f}      {table.delta_f[i]:.6f}")

    print()
    print("=" * 64)
    print("2. One run against a hidden target")
    print("=" * 64)
    hidden = ChainSpec(4, 1.0, (0.25, 0.5, -0.25, 0.0))
    oracle = make_oracle(hidden, OracleKind.EXACT, budget=1, seed=0)
    report = run_protocol(CANDIDATE, oracle, table)
    print(f"similarity from the single query: F = {report.f_before:.6f}")
    print(f"applied rotation half-angle:      chi = {report.chi:.6f}")
    print(f"similarity afterwards (diagnostic query): {report.f_after:.6f}")
    print(f"gain: {report.delta_f_actual:.6f} "
          f"(table prediction {report.delta_f_analytic:.6f})")
    print(f"budgeted queries used: {report.queries_used}")

    print()
    print("=" * 64)
    print("3. The whole family: average gain and the dF + F = N line")
    print("=" * 64)
    deltas, f_before = [], []
    for target_id, spec in enumerate_targets(GRID, 4, coupling=1.0):
        oracle = make_oracle(spec, OracleKind.EXACT, budget=1, seed=target_id)
        rep = run_protocol(CANDIDATE, oracle, table)
        deltas.append(rep.delta_f_actual)
        f_before.append(rep.f_before)
    deltas = np.array(deltas)
    f_before = np.array(f_before)
    print(f"mean gain over all {len(deltas)} targets: {deltas.mean():.4f}")
    best = int(np.argmax(deltas))
    print(f"largest gain: dF = {deltas[best]:.6f} at F = {f_before[best]:.6f}"
          f"  ->  dF + F = {deltas[best] + f_before[best]:.6f} (the ceiling N = 4)")
    print("Targets whose angle profile is uniform saturate the ceiling: a")
    print("single global rotation aligns every site at once.")


if __name__ == "__main__":
    main()
