"""Self-test of the benchmark at toy size: ``python3 -m pytest bench``.

Every workload, untraced and traced, must emit each metric BENCHMARK.json
names with its unit and find no failed operation on the current code (the
untraced times being the raw medians scaled by the host-speed factors); the
output check must catch a changed or duplicated row but accept reordered
ties of F and rounding-level noise; failed gates and non-zero exits must be
counted; and the benchmark must refuse to run without sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, argv_for  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS["toy"]))
def test_toy_run_emits_every_metric_without_failures(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--size", "toy", "--seed", "30",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    assert "fail_frac: 0.0" in proc.stdout
    if trace == "0":  # times are the raw medians scaled by the host-speed factors
        record = json.loads(next(line[len("record: "):] for line in proc.stdout.splitlines()
                                 if line.startswith("record: ")))
        assert len(record["compute_probes_s"]) == len(record["startup_probes_s"]) \
            == record["reps"] + 1
        speed = record["speed"]
        for name, raw in record["raw"].items():
            factor = speed["startup"] if name == "setup_s" else speed["compute"]
            assert result["metrics"][name]["value"] == pytest.approx(raw * factor)


def test_other_seed_compares_seed_free_columns_only():
    proc = _run(ROOT, "--workload", "shots", "--size", "toy", "--seed", "7",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] >= 1


def _edit(src: Path, dst: Path, row: int, column: str, value: str) -> None:
    lines = src.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")


def test_check_flags_a_changed_value(tmp_path):
    golden = checks.GOLDEN_DIR / "toy" / "reference" / "fig2.csv"
    _edit(golden, tmp_path / "fig2.csv", 5, "chi_opt", "1.000000000000e+00")
    _, failures = checks.compare("fig2.csv", tmp_path / "fig2.csv", golden, seed=30)
    assert len(failures) == 1

    lines = golden.read_text().splitlines()
    (tmp_path / "fig2.csv").write_text("\n".join(lines + lines[-1:]) + "\n")
    attempted, failures = checks.compare("fig2.csv", tmp_path / "fig2.csv", golden, seed=30)
    assert failures == [f"fig2.csv: duplicated target_id {lines[-1].split(',')[0]}"]
    assert attempted == len(lines) - 1 + 1 + 1  # rows, the duplicate, the sort order


def test_failed_gates_and_exit_codes_are_counted(tmp_path):
    shutil.copy(checks.GOLDEN_DIR / "toy" / "shots" / "measure.csv", tmp_path)
    (tmp_path / "stdout.txt").write_text("  [PASS] first gate\n  [FAIL] second gate\n")
    bench_run = run.Run("shots", 30, "toy", seconds=1)
    bench_run._check({"exit_codes": [3], "dir": tmp_path})
    rows, _ = checks.check_outputs("toy", "shots", tmp_path, 30)
    assert bench_run.attempted == 1 + 2 + rows
    assert bench_run.failures == ["measure exited 3", "[FAIL] second gate"]


def test_statistical_gates_only_at_the_pinned_seed():
    steps = WORKLOADS["full"]["reference"].steps + WORKLOADS["full"]["shots"].steps
    checked = {seed: [s.command for s in steps if "--check" in argv_for(s, seed, "o")]
               for seed in (30, 7)}
    assert checked == {30: ["table", "sweep", "noise", "measure"], 7: ["table", "sweep"]}


def test_check_allows_tie_reorder_and_tiny_noise_error(tmp_path):
    golden = checks.GOLDEN_DIR / "toy" / "reference" / "fig2.csv"
    lines = golden.read_text().splitlines()
    f = [line.split(",")[1] for line in lines[1:]]
    i = next(k for k in range(len(f) - 1) if f[k] == f[k + 1]) + 1
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    (tmp_path / "fig2.csv").write_text("\n".join(lines) + "\n")
    _, failures = checks.compare("fig2.csv", tmp_path / "fig2.csv", golden, seed=30)
    assert failures == []

    noise = checks.GOLDEN_DIR / "toy" / "reference" / "noise.csv"
    _edit(noise, tmp_path / "noise.csv", 1, "mean_abs_chi_error", "3.6e-17")
    _, failures = checks.compare("noise.csv", tmp_path / "noise.csv", noise, seed=30)
    assert failures == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "reference", "--seed", "30",
                "--seconds", "10", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
