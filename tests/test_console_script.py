"""The ``spinalign`` console script end to end: exact exit code, stderr and files.

Each test starts the installed ``spinalign`` command in a child process.
Where it is not on PATH, ``python -m spinalign`` on this checkout's ``src``
stands in. Behaviour that ``test_cli.py`` covers through ``main`` is not
repeated here.

Run alone, after ``pip install -e .``: ``python -m pytest tests/test_console_script.py``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SCRIPT = shutil.which("spinalign")


def spinalign(*argv, env=None) -> subprocess.CompletedProcess:
    env = {**os.environ, **(env or {})}
    command = [SCRIPT] if SCRIPT else [sys.executable, "-m", "spinalign"]
    if not SCRIPT:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([*command, *map(str, argv)], env=env, capture_output=True,
                          text=True, timeout=300)


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def test_noise_gates_pass_at_50_trials(tmp_path):
    proc = spinalign("noise", "--trials", 50, "--check", "--out", tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    gates = [line for line in proc.stdout.splitlines() if line.startswith("  [")]
    assert len(gates) == 5 and all(line.startswith("  [PASS] ") for line in gates)
    assert len(_lines(tmp_path / "noise.csv")) == 4


@pytest.mark.parametrize("argv, name", [
    (["sweep"], "fig3.csv"),
    (["measure", "--trials", 100], "measure.csv"),
], ids=["sweep", "measure"])
def test_beyond_the_dense_cap(tmp_path, argv, name):
    # N = 12 is past the dense N <= 10 cap: no subcommand solves a Hamiltonian.
    proc = spinalign(*argv, "--n", 12, "--d", 2, "--out", tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(_lines(tmp_path / name)) == 1 + 2**12


@pytest.mark.parametrize("trials", [1000, 2])
def test_measure_65536_targets(tmp_path, trials):
    # Eight blocks of targets, each target's stream seeded in bulk; at two
    # trials each sub-block of targets takes one mean and one std call.
    proc = spinalign("measure", "--n", 16, "--d", 2, "--trials", trials, "--out", tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    out = tmp_path / "measure.csv"
    assert proc.stdout.startswith(f"measure: {trials} shots/target over 65536 targets -> {out} |")
    lines = _lines(out)
    assert lines[0] == "target_id,F_exact,F_est_mean,F_est_std,binomial_std"
    assert len(lines) == 1 + 2**16


def test_check_outside_the_reference_study_exits_one(tmp_path):
    proc = spinalign("table", "--n", 3, "--check", "--out", tmp_path / "badcheck")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --check for 'table' requires the reference")
    assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""
    assert not (tmp_path / "badcheck").exists()


def test_a_count_too_long_to_print_exits_one(tmp_path):
    # D^N has 5,001 digits, more than Python prints.
    proc = spinalign("table", "--n", 5000, "--d", 10, "--out", tmp_path / "huge")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and proc.stdout == ""
    assert not (tmp_path / "huge").exists()


def test_extreme_replies_are_looked_up(tmp_path):
    # Replies near ±1e300 take the one lookup path and get the exactly nearest entry.
    proc = spinalign("noise", "--eps", "1e300", "--trials", 10, "--out", tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(_lines(tmp_path / "noise.csv")) == 2


def test_no_environment_variable_is_read(tmp_path):
    plain = spinalign("table", "--out", tmp_path / "plain")
    threads = spinalign("table", "--out", tmp_path / "env", env={"SPINALIGN_THREADS": "abc"})
    assert (plain.returncode, plain.stderr, threads.returncode, threads.stderr) == (0, "", 0, "")
    assert ((tmp_path / "env" / "fig2.csv").read_bytes()
            == (tmp_path / "plain" / "fig2.csv").read_bytes())
