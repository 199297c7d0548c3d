"""Golden outputs of the reference study.

``tests/golden/`` holds ``fig2.csv`` (the reference table), ``fig3.csv``
(the reference sweep), ``noise.csv`` (seed 30, eps 0,0.05,0.1, 200 trials)
and ``measure.csv`` (seed 30, 300 shots per target). A run must reproduce
the header and the key column row for row, and every value at 1e-12
absolute. Regenerate the files only for a change meant to alter the outputs:

    spinalign table --out tests/golden
    spinalign sweep --out tests/golden
    spinalign noise --out tests/golden --eps 0,0.05,0.1 --trials 200 --seed 30
    spinalign measure --out tests/golden --trials 300 --seed 30
"""

from pathlib import Path

import numpy as np
import pytest

from spinalign.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _read(path: Path):
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["table"], "fig2.csv"),
        (["noise", "--eps", "0,0.05,0.1", "--trials", "200", "--seed", "30"], "noise.csv"),
        (["sweep"], "fig3.csv"),
        (["measure", "--trials", "300", "--seed", "30"], "measure.csv"),
    ],
)
def test_reference_output_matches_golden(tmp_path, argv, name):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    want_header, want = _read(GOLDEN / name)
    got_header, got = _read(tmp_path / name)
    assert got_header == want_header
    assert [r[0] for r in got] == [r[0] for r in want]
    got_values = np.array([r[1:] for r in got], dtype=float)
    want_values = np.array([r[1:] for r in want], dtype=float)
    assert np.max(np.abs(got_values - want_values)) <= 1e-12
