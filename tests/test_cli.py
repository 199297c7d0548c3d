import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinalign.cli import (
    RunConfig,
    THREADS_ENV_VAR,
    _build_parser,
    main,
    resolve_config,
)


def _resolve(argv, monkeypatch=None, env=None):
    if env is not None:
        monkeypatch.setenv(THREADS_ENV_VAR, env)
    return resolve_config(_build_parser().parse_args(argv))


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestConfigPrecedence:
    def test_defaults(self):
        cfg = _resolve(["table"])
        assert cfg == RunConfig()

    def test_flags_override_defaults(self):
        cfg = _resolve(["table", "--n", "2", "--j", "0.5", "--seed", "7"])
        assert (cfg.n, cfg.j, cfg.seed) == (2, 0.5, 7)

    def test_file_overrides_defaults(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n": 3, "d": 2, "j": 0.25}))
        cfg = _resolve(["table", "--config", str(cfg_file)])
        assert (cfg.n, cfg.d, cfg.j) == (3, 2, 0.25)

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n": 3, "d": 4}))
        cfg = _resolve(["table", "--config", str(cfg_file), "--d", "2"])
        assert (cfg.n, cfg.d) == (3, 2)

    def test_env_var_sets_default_threads(self, monkeypatch):
        cfg = _resolve(["table"], monkeypatch, env="3")
        assert cfg.threads == 3

    def test_flag_beats_env_var(self, monkeypatch):
        cfg = _resolve(["table", "--threads", "2"], monkeypatch, env="3")
        assert cfg.threads == 2

    def test_eps_parsing(self):
        cfg = _resolve(["noise", "--eps", "0,0.05, 0.1"])
        assert cfg.eps == (0.0, 0.05, 0.1)

    def test_eps_list_in_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"eps": [0.0, 0.2]}))
        cfg = _resolve(["noise", "--config", str(cfg_file)])
        assert cfg.eps == (0.0, 0.2)

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        assert main(["table", "--config", str(cfg_file)]) == 1


class TestTableCommand:
    def test_reference_table(self, tmp_path):
        assert main(["table", "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "fig2.csv")
        assert header == "target_id,F,chi_opt,delta_F,sum_sin"
        assert len(rows) == 625
        by_id = {int(r[0]): r for r in rows}
        assert float(by_id[0][1]) == pytest.approx(4.0, abs=1e-9)
        assert float(by_id[0][2]) == pytest.approx(0.0, abs=1e-9)

    def test_single_level_grid(self, tmp_path):
        assert main(["table", "--d", "1", "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "fig2.csv")
        assert len(rows) == 1
        assert float(rows[0][2]) == 0.0

    def test_sorted_by_similarity(self, tmp_path):
        assert main(["table", "--n", "2", "--d", "3", "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "fig2.csv")
        f = [float(r[1]) for r in rows]
        assert f == sorted(f)


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        assert main(["sweep", "--n", "2", "--d", "3", "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "fig3.csv")
        assert header == "target_id,F,delta_F"
        assert len(rows) == 9
        assert [int(r[0]) for r in rows] == list(range(9))
        assert all(float(r[2]) >= -1e-9 for r in rows)


class TestNoiseCommand:
    def test_small_noise_study(self, tmp_path):
        code = main([
            "noise", "--n", "2", "--d", "3", "--eps", "0,0.05",
            "--trials", "50", "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = _read_csv(tmp_path / "noise.csv")
        assert header == "epsilon,mean_abs_chi_error,mean_delta_f"
        assert len(rows) == 2
        assert float(rows[0][1]) <= 1e-12  # exact lookup at eps=0

    def test_empty_eps_rejected(self, tmp_path):
        assert main(["noise", "--eps", "", "--out", str(tmp_path)]) == 1


class TestMeasureCommand:
    def test_small_measure_run(self, tmp_path):
        code = main([
            "measure", "--n", "2", "--d", "2", "--trials", "400",
            "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = _read_csv(tmp_path / "measure.csv")
        assert header == "target_id,F_exact,F_est_mean,F_est_std,binomial_std"
        assert len(rows) == 4
        for r in rows:
            assert float(r[3]) <= np.sqrt(2.0)

    def test_reproducible_across_runs(self, tmp_path):
        args = ["measure", "--n", "2", "--d", "2", "--trials", "100", "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "measure.csv").read_bytes()
        b = (tmp_path / "b" / "measure.csv").read_bytes()
        assert a == b


class TestExitCodes:
    def test_validation_error_is_one(self, tmp_path):
        assert main(["table", "--d", "0", "--out", str(tmp_path)]) == 1

    def test_unknown_flag_is_one(self):
        assert main(["table", "--nonsense"]) == 1

    def test_check_outside_reference_config_is_one(self, tmp_path):
        assert main(["sweep", "--n", "2", "--check", "--out", str(tmp_path)]) == 1

    def test_io_error_is_two(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["table", "--n", "2", "--d", "2",
                     "--out", str(blocker / "sub")]) == 2

    def test_failed_gate_is_three(self, tmp_path):
        # 30 shots cannot resolve the binomial std to 5%; the gate must trip
        code = main(["measure", "--n", "2", "--d", "2", "--trials", "30",
                     "--seed", "0", "--check", "--out", str(tmp_path)])
        assert code == 3


SRC = Path(__file__).resolve().parents[1] / "src"


class TestInvalidInputEndsInOneErrorLine:
    @pytest.mark.parametrize(
        "argv, env, config",
        [
            (["table", "--j", "nan"], {}, None),
            (["table", "--j", "inf"], {}, None),
            (["table", "--bmin", "nan", "--d", "1"], {}, None),
            (["noise", "--eps", "abc"], {}, None),
            (["table"], {THREADS_ENV_VAR: "abc"}, None),
            (["table"], {}, '{"n": "4"}'),
            (["table"], {}, '{"threads": "x"}'),
            (["table"], {}, '{"n": 4'),
        ],
        ids=["j-nan", "j-inf", "bmin-nan", "eps-abc", "env-threads-abc",
             "config-n-str", "config-threads-str", "config-malformed"],
    )
    def test_exits_one_without_traceback(self, tmp_path, argv, env, config):
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        proc = subprocess.run(
            [sys.executable, "-m", "spinalign", *argv, "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(SRC), **env},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert not (tmp_path / "out").exists()


_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
_JSON_VALUE = st.one_of(_JSON_SCALAR, st.lists(_JSON_SCALAR, max_size=3))


@settings(max_examples=150, deadline=None)
@given(values=st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]), _JSON_VALUE,
    max_size=4,
))
def test_fuzz_config_file_values(values):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = Path(tmp) / "cfg.json"
        cfg_file.write_text(json.dumps(values))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["table", "--n", "2", "--d", "2", "--out", str(Path(tmp) / "out"),
                         "--config", str(cfg_file)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr.getvalue()
