"""Output correctness: compare a run's CSVs with the stored seed-30 outputs.

Rows are matched by key (``target_id``, or ``epsilon`` for noise.csv), so a
reordering of ``fig2`` rows within ties of F is not a failure; values must
agree within ``TOLERANCE`` absolute (the golden tolerance of ROADMAP item 2),
so the eps=0 noise error going from 3.6e-17 to 0 is not one either. At any
other seed only the columns that do not depend on the seed are compared.
Each compared row is one operation; a missing, extra, duplicated or differing
row fails.
"""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path

from workloads import PINNED_SEED

TOLERANCE = 1e-12
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# file -> (key column, columns that do not depend on the seed)
SEED_FREE = {
    "fig2.csv": ("target_id", ("F", "chi_opt", "delta_F", "sum_sin")),
    "fig3.csv": ("target_id", ("F", "delta_F")),
    # Noise widths of 0 draw no noise, so that row is seed-free.
    "noise.csv": ("epsilon", ()),
    "measure.csv": ("target_id", ("F_exact", "binomial_std")),
}


def _read(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _close(got: str | None, want: str) -> bool:
    try:
        return abs(float(got) - float(want)) <= TOLERANCE
    except (TypeError, ValueError):
        return False


def compare(name: str, produced: Path, golden: Path, seed: int) -> tuple[int, list[str]]:
    """(rows compared, one message per failed row) for one output file."""
    key, seed_free = SEED_FREE[name]
    columns_all, want_rows = _read(golden)
    if not produced.exists():
        return len(want_rows), [f"{name}: missing"]
    _, got_rows = _read(produced)
    want = {float(row[key]): row for row in want_rows}
    got = {float(row[key]): row for row in got_rows}
    failures = [f"{name}: unexpected {key} {k:g}" for k in got.keys() - want.keys()]
    duplicated = sorted(k for k, n in Counter(float(row[key]) for row in got_rows).items()
                        if n > 1)
    failures += [f"{name}: duplicated {key} {k:g}" for k in duplicated]
    for k, want_row in want.items():
        got_row = got.get(k)
        if got_row is None:
            failures.append(f"{name}: missing {key} {k:g}")
            continue
        if seed == PINNED_SEED or (name == "noise.csv" and k == 0.0):
            columns = [c for c in columns_all if c != key]
        else:
            columns = list(seed_free)
        bad = [c for c in columns if not _close(got_row.get(c), want_row[c])]
        if bad:
            failures.append(f"{name}: {key} {k:g} differs in {bad}")
    attempted = len(want) + len(got.keys() - want.keys()) + len(duplicated)
    if name == "fig2.csv":
        f = [float(row["F"]) for row in got_rows]
        attempted += 1
        if any(b < a - TOLERANCE for a, b in zip(f, f[1:])):
            failures.append("fig2.csv: rows not sorted by F")
    return attempted, failures


def check_outputs(size: str, workload: str, out_dir: Path, seed: int) -> tuple[int, list[str]]:
    """Compare every output the workload writes with its golden copy."""
    goldens = sorted((GOLDEN_DIR / size / workload).glob("*.csv"))
    if not goldens:
        raise FileNotFoundError(f"no stored outputs under {GOLDEN_DIR / size / workload}")
    attempted, failures = 0, []
    for golden in goldens:
        n, bad = compare(golden.name, out_dir / golden.name, golden, seed)
        attempted += n
        failures += bad
    return attempted, failures
