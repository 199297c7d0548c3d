import argparse
import contextlib
import dataclasses
import decimal
import functools
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import spinalign
from spinalign import chain, cli, hilbert, protocol, similarity
from spinalign import oracle as oracle_module
from spinalign.chain import enumerate_targets
from spinalign.oracle import OracleKind, make_oracle
from spinalign.cli import (
    RunConfig,
    _build_parser,
    main,
    resolve_config,
)


def _resolve(argv):
    return resolve_config(_build_parser().parse_args(argv))


def write_rows(path, header, rows):
    """Reference CSV writer: one row at a time, integers as is, other values at 13 digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, np.integer)) else f"{v:.12e}"
                              for v in row) + "\n")


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

    def test_threads_flag_is_ignored(self):
        assert _resolve(["table", "--threads", "4"]) == RunConfig()

    def test_eps_parsing(self):
        cfg = _resolve(["noise", "--eps", "0,0.05, 0.1"])
        assert cfg.eps == (0.0, 0.05, 0.1)

    def test_eps_list_in_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"eps": [0.0, 0.2]}))
        cfg = _resolve(["noise", "--config", str(cfg_file)])
        assert cfg.eps == (0.0, 0.2)

    @pytest.mark.parametrize("argv, name, value", [
        (["--bmin", "-1e-3"], "bmin", -1e-3),
        (["--j", "-2e0"], "j", -2.0),
        (["--j", "-.5E+1"], "j", -5.0),
        (["--bmin", "-2.5e1", "--bmax", "-1.e-1"], "bmin", -25.0),
    ])
    def test_negative_values_in_scientific_notation(self, tmp_path, argv, name, value):
        assert getattr(_resolve(["table", *argv]), name) == value
        assert main(["table", *argv, "--n", "2", "--d", "2", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["--bmin", "-inf"], "error: grid bounds and their span must be finite"),
        (["--bmin", "-Infinity"], "error: grid bounds and their span must be finite"),
        (["--j", "-nan"], "error: coupling and fields must be finite"),
        (["--j", "-NaN"], "error: coupling and fields must be finite"),
    ], ids=["bmin-inf", "bmin-Infinity", "j-nan", "j-NaN"])
    def test_negative_non_finite_values_reach_their_finiteness_check(self, tmp_path, capsys,
                                                                      argv, message):
        # argparse would read "-inf" as an option and end in "expected one argument".
        assert main(["table", *argv, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        assert main(["table", "--config", str(cfg_file)]) == 1


class TestCsvWriter:
    ROWS = 2 * cli.BLOCK_SIZE + 5  # three blocks, the last one short

    def test_equals_the_row_by_row_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        floats = rng.normal(size=self.ROWS) * 10.0 ** rng.integers(-300, 300, self.ROWS)
        floats[:7] = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -np.finfo(float).max]
        columns = (np.arange(self.ROWS), floats, -floats, np.arange(self.ROWS, dtype=np.uint32))
        cli._write_csv(tmp_path / "blocked.csv", "a,b,c,d", columns)
        write_rows(tmp_path / "rows.csv", "a,b,c,d", zip(*(col.tolist() for col in columns)))
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_table_write_holds_one_block(self, tmp_path, monkeypatch):
        cfg = RunConfig(n=2, d=256, out=str(tmp_path))  # 65,536 rows, eight blocks
        table = protocol.build_table(cfg.grid(), cfg.candidate())
        monkeypatch.setattr(cli, "build_table", lambda grid, candidate: table)
        tracemalloc.start()
        try:
            cli.cmd_table(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A sorted copy of chi for the summary line, then one block of Python
        # values and text (~2.3 MB). Whole-column lists took ~11 MB here.
        assert peak <= 8 * len(table) + 400 * cli.BLOCK_SIZE


class TestTableCommand:
    @pytest.mark.parametrize("argv, line", [
        ([], "table: 625 entries -> {out} | chi_opt min 0.000000 median 0.231824 "
             "max 0.463648"),
        # An even count: the median is the mean of the two middle entries.
        (["--n", "2", "--d", "2", "--bmin", "-1"], "table: 4 entries -> {out} | chi_opt "
                                                   "min 0.000000 median 0.312261 max 0.624523"),
    ], ids=["reference", "even-count"])
    def test_summary_line(self, tmp_path, capsys, argv, line):
        assert main(["table", *argv, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == line.format(out=tmp_path / "fig2.csv") + "\n"

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

    @pytest.mark.parametrize("argv", [
        [],
        ["--n", "2"],
        ["--d", "1"],
        ["--j", "0"],
        ["--j", "-2.5", "--n", "3"],
        ["--n", "3", "--d", "4", "--bmin", "-3", "--bmax", "0.7"],
        ["--n", "7", "--d", "2"],
        ["--n", "11", "--d", "2"],  # beyond the dense N <= 10 cap
        ["--n", "19", "--d", "1"],
    ], ids=["reference", "n2", "d1", "j0", "j-negative", "asymmetric-grid", "n7-d2", "n11-d2",
            "n19-d1"])
    def test_array_pass_equals_per_target_loop(self, tmp_path, argv):
        # fig3.csv is sweep_exact's gather. Per target, run_protocol sums site
        # cosines in site order, the table in sorted angle order, so the two
        # agree to rounding (at most 5.3e-15 on these grids), not bit for bit.
        argv = ["sweep", *argv]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        cfg = _resolve(argv)
        f, delta_f = protocol.sweep_exact(protocol.build_table(cfg.grid(), cfg.candidate()))
        write_rows(tmp_path / "gather.csv", "target_id,F,delta_F",
                   zip(range(len(f)), f, delta_f))
        assert (tmp_path / "fig3.csv").read_bytes() == (tmp_path / "gather.csv").read_bytes()
        _, loop_f, loop_delta = np.array(per_target_sweep_rows(cfg)).T
        np.testing.assert_allclose(f, loop_f, rtol=0, atol=1e-13)
        np.testing.assert_allclose(delta_f, loop_delta, rtol=0, atol=1e-13)

    def test_solves_the_candidate_once(self, tmp_path, monkeypatch):
        # In closed form the candidate is solved by its angles atan b_c. Sweep
        # takes them once, with every target's, and then only reads the table.
        calls = []
        original = protocol.target_angles

        def counting(fields, candidate):
            calls.append((np.shape(fields), tuple(candidate.fields)))
            return original(fields, candidate)

        monkeypatch.setattr(protocol, "target_angles", counting)
        assert main(["sweep", "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "fig3.csv")
        assert len(rows) == 625
        assert calls == [((625, 4), tuple(RunConfig().candidate().fields))]

    def test_one_rotated_state_per_f_run(self, tmp_path, monkeypatch):
        # One gain call turns every target by the χ of its own F run, so
        # targets with equal F share one rotation.
        calls = []
        original = protocol.delta_f_sums

        def counting(sum_sin, f, sin_chi, cos_chi):
            calls.append((f, sin_chi, cos_chi))
            return original(sum_sin, f, sin_chi, cos_chi)

        monkeypatch.setattr(protocol, "delta_f_sums", counting)
        assert main(["sweep", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        f, sin_chi, cos_chi = calls[0]
        assert len(f) == 625
        runs = np.unique(f)
        # The reference grid's 625 targets form at most 70 runs.
        assert 0 < len(runs) <= 70
        for run_f in runs:
            in_run = f == run_f
            assert len(set(zip(sin_chi[in_run], cos_chi[in_run]))) == 1

    def test_fields_are_made_per_block(self, tmp_path, monkeypatch):
        # 65,536 targets. The table is built before tracing, so the trace holds
        # the gather and the CSV write, which make no field array at all.
        cfg = RunConfig(n=16, d=2)
        table = protocol.build_table(cfg.grid(), cfg.candidate())
        monkeypatch.setattr(cli, "build_table", lambda grid, candidate: table)
        tracemalloc.start()
        try:
            assert main(["sweep", "--n", "16", "--d", "2", "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column = 2**16 * 8  # one (T,) float64 array
        # The gather and the write peak at ~6.4 columns (~3.3 MB); a single
        # (T, N) array is 16 columns.
        assert peak <= 12 * column

    def test_fig2_and_fig3_print_the_same_f(self, tmp_path):
        # At N = 5, D = 7, F summed in site order rather than in the table's
        # sorted angle order prints differently for 10 targets.
        for command in ("table", "sweep"):
            assert main([command, "--n", "5", "--d", "7", "--out", str(tmp_path)]) == 0
        _, table_rows = _read_csv(tmp_path / "fig2.csv")
        _, sweep_rows = _read_csv(tmp_path / "fig3.csv")
        assert len(sweep_rows) == 7**5
        assert sorted((int(r[0]), r[1]) for r in table_rows) == [(int(r[0]), r[1])
                                                                 for r in sweep_rows]

    def test_reference_gains_are_correctly_rounded(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "fig3.csv")
        exact = exact_sweep_gains(RunConfig())
        assert [decimal.Decimal(r[2]) for r in rows] == [_rounded_13(x) for x in exact]

    def test_large_field_gains_are_within_1e_16(self, tmp_path):
        # Every gain here is about 1e-15; a difference of two F values near 4
        # carries errors of that size.
        argv = ["sweep", "--bmin", "1e7", "--bmax", "1e9"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "fig3.csv")
        exact = exact_sweep_gains(_resolve(argv))
        assert max(abs(float(r[2]) - float(x)) for r, x in zip(rows, exact)) <= 1e-16


def exact_sweep_gains(cfg: RunConfig) -> list:
    """Each target's exact-oracle gain in 200-bit arithmetic, in target id order.

    The gain 2 sin χ Σ_k sin(θ_k - χ) is taken at the χ stored for the
    target's own F (``lookup_chi_batch`` of it), with θ_k = atan b_k - atan
    b_c of the float fields.
    """
    mpmath = pytest.importorskip("mpmath")
    candidate = cfg.candidate()
    table = protocol.build_table(cfg.grid(), candidate)
    chi = np.empty(len(table))
    chi[table.target_ids] = protocol.lookup_chi_batch(table, table.f)
    gains = []
    with mpmath.workprec(200):
        atan = functools.cache(lambda b: mpmath.atan(mpmath.mpf(b)))
        for fields, x in zip(chain.target_field_array(cfg.grid(), cfg.n).tolist(), chi.tolist()):
            x = mpmath.mpf(x)
            thetas = [atan(b) - atan(c) for b, c in zip(fields, candidate.fields)]
            gains.append(2 * mpmath.sin(x) * mpmath.fsum(mpmath.sin(t - x) for t in thetas))
    return gains


def _rounded_13(x) -> decimal.Decimal:
    """The mpmath value ``x`` correctly rounded to 13 significant digits, as %.12e rounds."""
    return decimal.Context(prec=13).plus(decimal.Decimal(pytest.importorskip("mpmath").nstr(
        x, 50, min_fixed=1, max_fixed=0)))


def per_target_sweep_rows(cfg: RunConfig) -> list[tuple[int, float, float]]:
    """Reference sweep: one exact oracle and one run_protocol call per target."""
    candidate = cfg.candidate()
    table = protocol.build_table(cfg.grid(), candidate)
    rows = []
    for target_id, spec in enumerate_targets(cfg.grid(), cfg.n, coupling=cfg.j):
        oracle = make_oracle(spec, OracleKind.EXACT, budget=1, seed=[cfg.seed, target_id])
        report = protocol.run_protocol(candidate, oracle, table)
        rows.append((target_id, report.f_before, report.delta_f_actual))
    return rows


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

    def test_negative_zero_epsilon_is_written_as_zero(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text('{"eps": [-0.0, 0.05]}')
        runs = {"pos": ["--eps", "0,0.05"], "neg": ["--eps=-0,0.05"],
                "file": ["--config", str(tmp_path / "cfg.json")]}
        outputs = {}
        for name, argv in runs.items():
            out = tmp_path / name
            assert main(["noise", "--n", "2", "--d", "3", "--trials", "20", *argv,
                         "--out", str(out)]) == 0
            outputs[name] = ((out / "noise.csv").read_text(),
                             capsys.readouterr().out.replace(str(out), "OUT"))
        assert outputs["neg"] == outputs["file"] == outputs["pos"]
        assert outputs["neg"][0].splitlines()[1].startswith("0.000000000000e+00,")

    LOOP_ARGVS = [
        ["--n", "2", "--d", "2", "--trials", "1"],
        ["--n", "2", "--d", "2", "--trials", "8191"],
        ["--n", "2", "--d", "2", "--trials", "8192"],
        ["--n", "2", "--d", "2", "--trials", "8193"],
        ["--n", "2", "--d", "3", "--trials", "3000"],  # 2 targets a block, last one short
        ["--trials", "200"],  # reference grid: 40 targets a block, last one short
    ]

    @pytest.mark.parametrize("argv", LOOP_ARGVS)
    def test_blocked_lookup_equals_per_target_loop(self, tmp_path, argv):
        # Seeds of one, two and three 32-bit words: each stream's entropy words.
        for seed in (0, 2**32, 2**64 + 3):
            run = ["noise", "--eps", "0,0.05,0.1", *argv, "--seed", str(seed)]
            out = tmp_path / str(seed)
            assert main([*run, "--out", str(out / "blocked")]) == 0
            write_rows(out / "loop.csv", "epsilon,mean_abs_chi_error,mean_delta_f",
                       per_target_noise_rows(_resolve(run)))
            assert (out / "blocked" / "noise.csv").read_bytes() == (out / "loop.csv").read_bytes()

    @pytest.mark.parametrize("argv", LOOP_ARGVS)
    def test_noise_rows_equal_per_target_loop(self, argv):
        # The study's own floats, not their 13-digit CSV text.
        for seed in (0, 2**32, 2**64 + 3):
            cfg = _resolve(["noise", "--eps", "0,0.05,0.1", *argv, "--seed", str(seed)])
            table = protocol.build_table(cfg.grid(), cfg.candidate())
            rows = cli.noise_rows(table, cfg.eps, cfg.trials, cfg.seed)
            loop = per_target_noise_rows(cfg)
            assert rows[1:] == loop[1:]
            # At eps = 0 the loop averages `trials` copies of each target's gain, which at
            # 8,191 trials rounds 5.6e-17 off the gain itself; the study takes it once.
            assert rows[0] == (0.0, 0.0, float(protocol.sweep_exact(table)[1].mean()))
            assert loop[0][:2] == (0.0, 0.0) and rows[0][2] == pytest.approx(loop[0][2], rel=1e-15)

    @pytest.mark.parametrize("eps", [[0.1], [0.0]])
    @pytest.mark.parametrize("ids", [[0, 0], [0, 5], [3, 1]])
    def test_noise_rows_need_each_id_below_the_length_once(self, ids, eps):
        # At eps = [0.1], ids [0, 0] returned a row built partly from uninitialized
        # memory, and [0, 5] and [3, 1] ended in IndexError.
        table = protocol.LookupTable(target_ids=np.array(ids), f=np.array([0.5, 1.0]),
                                     chi=np.zeros(2), delta_f=np.zeros(2), sum_sin=np.zeros(2),
                                     candidate=chain.ChainSpec(2, 1.0, (-0.5, -0.5)))
        with pytest.raises(spinalign.ValidationError, match="each once"):
            cli.noise_rows(table, eps, 5, 0)

    @pytest.mark.parametrize("eps", [[-0.1], [1e308], [0.0, -0.1]])
    def test_noise_rows_check_each_epsilon(self, eps):
        # [-0.1] returned a row for eps = -0.1; [1e308] failed as "F queries must be finite".
        cfg = RunConfig(n=2, d=3)
        table = protocol.build_table(cfg.grid(), cfg.candidate())
        with pytest.raises(spinalign.ValidationError, match="epsilon must be finite"):
            cli.noise_rows(table, eps, 5, 0)

    @pytest.mark.parametrize("eps, match", [
        (None, "^eps must hold real numbers only$"),
        (0.1, r"^eps must be 1-D of shape \(None,\), got \(\)$"),
    ], ids=["none", "a-scalar"])
    def test_noise_rows_take_eps_as_a_real_array(self, eps, match):
        # Each raised TypeError: a scalar or None is not iterable.
        cfg = RunConfig(n=2, d=3)
        table = protocol.build_table(cfg.grid(), cfg.candidate())
        with pytest.raises(spinalign.ValidationError, match=match):
            cli.noise_rows(table, eps, 5, 0)

    @pytest.mark.parametrize("candidate", ["x", None])
    def test_measure_columns_take_a_chain_spec(self, candidate):
        # Each raised AttributeError on candidate.n_sites.
        with pytest.raises(spinalign.ValidationError, match="^candidate must be of type ChainSpec"):
            cli.measure_columns(RunConfig(n=2, d=3).grid(), candidate, 5, 0)

    def test_zero_epsilon_makes_no_stream(self, tmp_path, monkeypatch):
        seeded = []
        original = oracle_module._pcg64_seeds

        def counting(entropy):
            seeded.extend(entropy.tolist())  # a copy: the caller reuses its array
            return original(entropy)

        monkeypatch.setattr(oracle_module, "_pcg64_seeds", counting)
        argv = ["noise", "--n", "2", "--d", "3", "--eps", "0.05,0,0.1", "--trials", "50"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        # Epsilon index 1 makes no stream; the others one per target, rows
        # [seed, eps_index, target_id], each keeping its own index.
        assert seeded == [[30, e, target_id] for e in (0, 2) for target_id in range(9)]
        write_rows(tmp_path / "loop.csv", "epsilon,mean_abs_chi_error,mean_delta_f",
                   per_target_noise_rows(_resolve(argv)))
        assert (tmp_path / "noise.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @pytest.mark.parametrize("n, d, trials", [(2, 3, 50), (4, 5, 7), (5, 7, 37), (6, 9, 3)])
    def test_zero_epsilon_row_is_the_sweep(self, tmp_path, monkeypatch, n, d, trials):
        def unused(*args):
            raise AssertionError("eps = 0 makes no stream and no lookup")

        monkeypatch.setattr(cli, "target_draws", unused)
        monkeypatch.setattr(cli, "nearest_runs", unused)
        argv = ["noise", "--n", str(n), "--d", str(d), "--eps", "0", "--trials", str(trials)]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        cfg = _resolve(argv)
        _, delta_f = protocol.sweep_exact(protocol.build_table(cfg.grid(), cfg.candidate()))
        _, rows = _read_csv(tmp_path / "noise.csv")
        assert rows == [["0.000000000000e+00", "0.000000000000e+00",
                         "%.12e" % float(delta_f.mean())]]

    def test_streams_are_seeded_a_chunk_at_a_time(self, tmp_path, monkeypatch):
        # 25 targets in chunks of 10; each chunk is one seeding call.
        calls = []
        original = oracle_module._pcg64_seeds

        def counting(entropy):
            calls.append(len(entropy))
            return original(entropy)

        monkeypatch.setattr(oracle_module, "_pcg64_seeds", counting)
        monkeypatch.setattr(oracle_module, "STREAM_CHUNK_ROWS", 10)
        argv = ["noise", "--n", "2", "--d", "5", "--eps", "0.05,0.1", "--trials", "3"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        assert calls == [10, 10, 5] * 2
        write_rows(tmp_path / "loop.csv", "epsilon,mean_abs_chi_error,mean_delta_f",
                   per_target_noise_rows(_resolve(argv)))
        assert (tmp_path / "noise.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_streams_are_seeded_in_bounded_memory(self, tmp_path, monkeypatch):
        # 15,625 targets. The table is built before tracing, so the trace
        # holds the noise study and its CSV write.
        cfg = RunConfig(n=6, d=5)
        table = protocol.build_table(cfg.grid(), cfg.candidate())
        monkeypatch.setattr(cli, "build_table", lambda grid, candidate: table)
        next(oracle_module.target_draws([0], 0, 1, (1,), 1))  # imports numpy.random
        tracemalloc.start()
        try:
            assert main(["noise", "--n", "6", "--d", "5", "--eps", "0.05",
                         "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_target = 5 * len(table) * 8  # truth (3, T), errors and gains
        per_block = 12 * cli.BLOCK_SIZE * 8  # (block, trials) temporaries
        assert oracle_module.STREAM_CHUNK_ROWS <= 2**10
        per_chunk = 500 * 2**10  # one chunk's _pcg64_seeds as Python ints
        # Chunked seeding peaks at ~1.6 MB traced; seeding all 15,625 rows of
        # an epsilon at once took ~6.5 MB.
        assert peak <= per_target + per_block + per_chunk

    # Blocks are 3 epsilons x ceil(targets / block), block = max(1, 8192 // trials).
    # At eps = 0 each query is its target's own F, so a third of them make no call.
    @pytest.mark.parametrize("n, d, trials, blocks", [
        (2, 2, 1, 3), (2, 2, 8192, 12), (2, 2, 8193, 12), (2, 3, 3000, 15),
        (4, 5, 400, 96),  # the reference grid made 1,875 calls, one per target and epsilon
    ])
    def test_one_lookup_call_per_block(self, tmp_path, monkeypatch, n, d, trials, blocks):
        sizes = []
        original = cli.nearest_runs

        def counting(table, f_queries):
            sizes.append(np.size(f_queries))
            return original(table, f_queries)

        monkeypatch.setattr(cli, "nearest_runs", counting)
        assert main(["noise", "--n", str(n), "--d", str(d), "--eps", "0,0.05,0.1",
                     "--trials", str(trials), "--out", str(tmp_path)]) == 0
        assert len(sizes) == blocks // 3 * 2
        assert max(sizes) <= max(trials, cli.BLOCK_SIZE)  # the memory bound
        assert sum(sizes) == 2 * d**n * trials


def per_target_noise_rows(cfg: RunConfig) -> list[tuple[float, float, float]]:
    """Reference noise study: one lookup per target and epsilon, on the same streams.

    Each stream is made from the list [seed, eps_index, target_id] and drawn
    with ``uniform``, as the blocked study's streams are defined.
    """
    table = protocol.build_table(cfg.grid(), cfg.candidate())
    n_targets = len(table)
    chi_true, f_true, s_true = (np.empty(n_targets) for _ in range(3))
    chi_true[table.target_ids] = table.chi
    f_true[table.target_ids] = table.f
    s_true[table.target_ids] = table.sum_sin
    rows = []
    for eps_index, eps in enumerate(cfg.eps):
        errors = np.empty(n_targets)
        gains = np.empty(n_targets)
        for target_id in range(n_targets):
            rng = np.random.default_rng([cfg.seed, eps_index, target_id])
            queries = f_true[target_id] + rng.uniform(-eps, eps, size=cfg.trials)
            chi_hat = protocol.lookup_chi_batch(table, queries)
            gains[target_id] = np.mean(2.0 * np.sin(chi_hat) * (
                s_true[target_id] * np.cos(chi_hat)
                - f_true[target_id] * np.sin(chi_hat)
            ))
            errors[target_id] = np.abs(chi_hat - chi_true[target_id]).mean()
        rows.append((eps, 2.0 * float(errors.mean()), float(gains.mean())))
    return rows


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

    def test_beyond_the_dense_cap(self, tmp_path):
        args = ["measure", "--n", "11", "--d", "2", "--trials", "20", "--out", str(tmp_path)]
        assert main(args) == 0
        _, rows = _read_csv(tmp_path / "measure.csv")
        assert len(rows) == 2**11

    def test_solves_only_the_candidate(self, tmp_path, monkeypatch):
        shapes = []
        original = cli.target_angles

        def counting(fields, candidate):
            shapes.append(np.shape(fields))
            return original(fields, candidate)

        monkeypatch.setattr(cli, "target_angles", counting)
        monkeypatch.setattr(cli, "BLOCK_SIZE", 3)
        args = ["measure", "--n", "3", "--d", "2", "--trials", "5", "--out", str(tmp_path)]
        assert main(args) == 0
        # No chain is solved: each block of 3 of the 8 targets takes its angles
        # to the candidate's once; none per target.
        assert shapes == [(3, 3), (3, 3), (2, 3)]

    @pytest.mark.parametrize("seed", [0, 30, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("trials", [1, 2, 777])
    @pytest.mark.parametrize("block", [None, 16], ids=["one-block", "two-blocks"])
    def test_array_pass_equals_per_target_loop(self, tmp_path, monkeypatch, seed, trials, block):
        # 27 targets: one block, or with 16-target blocks two, the last one short.
        if block is not None:
            monkeypatch.setattr(cli, "BLOCK_SIZE", block)
        argv = ["measure", "--n", "3", "--d", "3", "--trials", str(trials), "--seed", str(seed)]
        assert main([*argv, "--out", str(tmp_path / "array")]) == 0
        write_rows(tmp_path / "loop.csv", MEASURE_HEADER, per_target_measure_rows(_resolve(argv)))
        assert ((tmp_path / "array" / "measure.csv").read_bytes()
                == (tmp_path / "loop.csv").read_bytes())

    def test_two_full_size_blocks_equal_per_target_loop(self, tmp_path):
        # 8,281 targets: one block of BLOCK_SIZE and a short one, and
        # many stream chunks.
        argv = ["measure", "--n", "2", "--d", "91", "--trials", "2", "--seed", str(2**64 + 3)]
        assert main([*argv, "--out", str(tmp_path / "array")]) == 0
        write_rows(tmp_path / "loop.csv", MEASURE_HEADER, per_target_measure_rows(_resolve(argv)))
        assert ((tmp_path / "array" / "measure.csv").read_bytes()
                == (tmp_path / "loop.csv").read_bytes())

    @pytest.mark.parametrize("trials, bound, block", [
        (3, 30, None),  # 27 targets in sub-blocks of 10, 10 and 7
        (3, 30, 16),  # blocks of 16 and 11, sub-blocks of 10, 6, 10 and 1
        (1, 8, None),  # sub-blocks of 8, the last one of 3; std 0 at one trial
        (2, 1, None),  # more trials than the bound: one target per sub-block
    ])
    def test_sub_block_statistics_equal_per_target_loop(self, tmp_path, monkeypatch,
                                                         trials, bound, block):
        _set_blocks(monkeypatch, bound, block)
        argv = ["measure", "--n", "3", "--d", "3", "--trials", str(trials), "--seed", "7"]
        assert main([*argv, "--out", str(tmp_path / "array")]) == 0
        write_rows(tmp_path / "loop.csv", MEASURE_HEADER, per_target_measure_rows(_resolve(argv)))
        assert ((tmp_path / "array" / "measure.csv").read_bytes()
                == (tmp_path / "loop.csv").read_bytes())

    # The configs of the three CSV tests above as (n, d, trials, seed, bound, block), read
    # as _set_blocks reads them.
    @pytest.mark.parametrize("n, d, trials, seed, bound, block", [
        *[(3, 3, trials, seed, None, block) for seed in (0, 30, 2**32, 2**64 + 3)
          for trials in (1, 2, 777) for block in (None, 16)],
        (2, 91, 2, 2**64 + 3, None, None),
        (3, 3, 3, 7, 30, None), (3, 3, 3, 7, 30, 16), (3, 3, 1, 7, 8, None), (3, 3, 2, 7, 1, None),
    ])
    def test_measure_columns_equal_per_target_loop(self, monkeypatch, n, d, trials, seed,
                                                   bound, block):
        _set_blocks(monkeypatch, bound, block)
        cfg = RunConfig(n=n, d=d, trials=trials, seed=seed)
        columns = cli.measure_columns(cfg.grid(), cfg.candidate(), trials, seed)
        rows = list(zip(range(d**n), *(column.tolist() for column in columns)))
        assert rows == per_target_measure_rows(cfg)

    # Sub-blocks of k = max(1, BLOCK_SIZE // trials) targets, the rule noise
    # uses; each grid here is one angle block, so the kernel is called ceil(T / k) times.
    @pytest.mark.parametrize("n, d, trials, calls", [
        (2, 2, 1, 1),  # k = 8,192: all 4 targets at once
        (13, 2, 2, 2),  # k = 4,096 of 8,192 targets
        (4, 3, 10000, 81),  # k = 1
    ])
    def test_one_kernel_call_per_sub_block(self, tmp_path, monkeypatch, n, d, trials, calls):
        shapes = []
        original = cli.shot_estimates

        def counting(cosines, draws):
            shapes.append(draws.shape)
            return original(cosines, draws)

        monkeypatch.setattr(cli, "shot_estimates", counting)
        assert main(["measure", "--n", str(n), "--d", str(d), "--trials", str(trials),
                     "--out", str(tmp_path)]) == 0
        k = max(1, cli.BLOCK_SIZE // trials)
        assert len(shapes) == -(-d**n // k) == calls
        assert [shape[0] for shape in shapes[:-1]] == [k] * (calls - 1)
        assert sum(shape[0] for shape in shapes) == d**n
        assert {shape[1:] for shape in shapes} == {(trials, n)}

    def test_targets_are_sampled_per_block(self, tmp_path, monkeypatch):
        # 8,192 targets in 16 blocks of 512; the CSV writer, which has its own
        # test, is left out. Every column, F_exact and binomial_std too, is
        # made per block, so only the T-long output columns span the grid.
        monkeypatch.setattr(cli, "BLOCK_SIZE", 512)
        monkeypatch.setattr(cli, "_write_csv", lambda path, header, columns: None)
        # A first run imports what the pass uses, so the traced run counts arrays.
        assert main(["measure", "--n", "2", "--d", "2", "--trials", "2",
                     "--out", str(tmp_path)]) == 0
        tracemalloc.start()
        try:
            assert main(["measure", "--n", "13", "--d", "2", "--trials", "2",
                         "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = 5 * 2**13 * 8  # the four output columns and |std - binomial|
        per_block = 6 * 512 * 13 * 3 * 8  # six (block, N, 3) arrays' worth
        # The pass peaks at ~1.1 MB traced. With F_exact and binomial_std from
        # whole (T, N) arrays it took ~2.7 MB, and unblocked ~5.4 MB.
        assert peak <= columns + per_block


MEASURE_HEADER = "target_id,F_exact,F_est_mean,F_est_std,binomial_std"


def _set_blocks(monkeypatch, bound, block):
    """Angle blocks of ``block`` targets, and draw blocks under ``bound`` within them.

    ``block`` sets ``cli.BLOCK_SIZE``, which sizes both; a ``bound`` then replaces the
    one that ``target_draws`` is given. None leaves a size as it is.
    """
    if block is not None:
        monkeypatch.setattr(cli, "BLOCK_SIZE", block)
    if bound is not None:
        monkeypatch.setattr(cli, "target_draws", lambda prefix, start, stop, row_shape, _:
                            oracle_module.target_draws(prefix, start, stop, row_shape, bound))


def per_target_measure_rows(cfg: RunConfig) -> list[tuple[int, float, float, float, float]]:
    """Reference measure study: one measured oracle and one Oracle.sample call per target.

    F_exact is the lookup table's F of each target (fig2's F), which sums the
    site cosines in sorted angle order; a sum in site order can differ in the last bit.
    """
    trials = cfg.trials if cfg.trials is not None else 10_000
    candidate = chain.product_ground_directions(cfg.candidate().fields)
    fields = chain.target_field_array(cfg.grid(), cfg.n)
    cos_thetas = np.cos(protocol.target_angles(fields, cfg.candidate()))
    table = protocol.build_table(cfg.grid(), cfg.candidate())
    f_exact = np.empty(len(table))
    f_exact[table.target_ids] = table.f
    probs = (cos_thetas + 1.0) / 2.0
    binomial_std = 2.0 * np.sqrt(np.sum(probs * (1.0 - probs), axis=1))
    rows = []
    for target_id, spec in enumerate_targets(cfg.grid(), cfg.n, coupling=cfg.j):
        oracle = make_oracle(spec, OracleKind.MEASURED, budget=trials, seed=[cfg.seed, target_id])
        estimates = oracle.sample(candidate, trials)
        rows.append((target_id, f_exact[target_id], estimates.mean(),
                     estimates.std(ddof=1) if trials > 1 else 0.0, binomial_std[target_id]))
    return rows


def test_sweep_and_measure_build_no_site_directions(tmp_path, monkeypatch):
    # Both read per-site cosines from the closed-form angles; only the
    # oracle and run_protocol make (N, 3) directions.
    def refuse(*args):
        raise AssertionError("a subcommand built site directions")

    for module in (spinalign, chain, protocol, oracle_module, cli):
        for name in ("product_ground_directions", "rotate_directions"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for command in ("sweep", "measure"):
        assert main([command, "--trials", "20", "--out", str(tmp_path)]) == 0
    assert not {"product_ground_directions", "rotate_directions", "site_cosines"} & set(vars(cli))


def test_no_subcommand_solves_an_eigenproblem(tmp_path, monkeypatch):
    # Nor does any build a dense operator, a reduced state or a state's Bloch vectors.
    def refuse(*args):
        raise AssertionError("a subcommand used the dense verifier")

    dense = ("hermitian_ground_state", "build_hamiltonian", "site_operator", "partial_trace",
             "apply_unitary", "global_rotation", "similarity_chain", "cos_theta")
    for module in (spinalign, hilbert, chain, protocol, similarity, oracle_module, cli):
        for name in dense:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(hilbert.StateVector, "bloch", property(refuse))
    for command in ("table", "sweep", "noise", "measure"):
        assert main([command, "--trials", "20", "--out", str(tmp_path)]) == 0


def test_measure_f_exact_is_the_table_f(tmp_path):
    # Both sum a target's cosines in sorted angle order. At N/D = 5/7 a sum
    # in site order printed a different F for 18 targets.
    grid = ["--n", "5", "--d", "7", "--out", str(tmp_path)]
    assert main(["table", *grid]) == 0
    assert main(["measure", *grid, "--trials", "1"]) == 0
    _, fig2 = _read_csv(tmp_path / "fig2.csv")
    _, measure = _read_csv(tmp_path / "measure.csv")
    assert len(measure) == len(fig2) == 7**5
    f_by_id = {row[0]: row[1] for row in fig2}
    assert all(row[1] == f_by_id[row[0]] for row in measure)


@pytest.mark.parametrize("j", ["1e3", "1e4", "1e5", "-1e3"])
def test_outputs_do_not_depend_on_j(tmp_path, j):
    # The candidate and the targets are J-independent in closed form; the
    # dense ground state mixes the near-degenerate doublet at large |J|.
    for coupling in ("1", j):
        for command in ("sweep", "measure"):
            assert main([command, "--j", coupling, "--trials", "200",
                         "--out", str(tmp_path / coupling)]) == 0
    for name in ("fig3.csv", "measure.csv"):
        assert (tmp_path / j / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


@pytest.mark.parametrize("trials, seed, match", [
    (0, 30, "trials must be at least 1, got 0"),
    (-5, 30, "trials must be a non-negative integer, got -5"),
    (2.5, 30, "trials must be a non-negative integer, got 2.5"),
    (1, -1, "the seed must be a non-negative integer, got -1"),
    (1, "x", "the seed must be a non-negative integer, got 'x'"),
], ids=["zero-trials", "negative-trials", "float-trials", "negative-seed", "string-seed"])
@pytest.mark.parametrize("study", ["noise-eps-0", "noise-eps-0.1", "measure"])
def test_sampled_studies_check_trials_and_seed_first(study, trials, seed, match):
    # With every eps 0, noise_rows checked neither and returned a row; elsewhere trials = 0
    # was rejected as "the leading row size".
    cfg = RunConfig(n=2, d=3)
    with pytest.raises(spinalign.ValidationError, match=re.escape(match)):
        if study == "measure":
            cli.measure_columns(cfg.grid(), cfg.candidate(), trials, seed)
        else:
            table = protocol.build_table(cfg.grid(), cfg.candidate())
            cli.noise_rows(table, [float(study.rsplit("-", 1)[1])], trials, seed)


@pytest.mark.parametrize("trials", [2**62, 10**21])
@pytest.mark.parametrize("study", ["noise", "measure"])
def test_sampled_studies_reject_unaddressable_blocks(study, trials):
    # A block of 2^63 or more bytes ended in numpy's bare "array is too big" or
    # "Maximum allowed dimension exceeded" ValueError.
    cfg = RunConfig(n=2, d=2)
    with pytest.raises(spinalign.CapacityError, match="exceeds the addressable memory"):
        if study == "measure":
            cli.measure_columns(cfg.grid(), cfg.candidate(), trials, 30)
        else:
            cli.noise_rows(protocol.build_table(cfg.grid(), cfg.candidate()), [0.1], trials, 30)


class TestExitCodes:
    def test_validation_error_is_one(self, tmp_path):
        assert main(["table", "--d", "0", "--out", str(tmp_path)]) == 1

    def test_config_out_with_a_nul_is_one(self, tmp_path, monkeypatch, capsys):
        # argv cannot carry a NUL, but a JSON string can; Path.mkdir raised a bare ValueError.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"out": "a\\u0000b"}')
        assert main(["table", "--n", "2", "--d", "2", "--config", "cfg.json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --out must not contain a NUL character\n"
        assert captured.out == "" and [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv", [
        ["measure", "--trials", str(2**62)],
        ["measure", "--trials", str(10**21)],
        ["noise", "--eps", "0.1", "--trials", str(10**21)],
    ], ids=["measure-2^62", "measure-10^21", "noise-10^21"])
    def test_unaddressable_trials_are_one(self, tmp_path, capsys, argv):
        assert main([*argv, "--n", "2", "--d", "2", "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: a block of \d+ draws exceeds the addressable memory\n",
                            captured.err)
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_unknown_flag_is_one(self):
        assert main(["table", "--nonsense"]) == 1

    def test_check_outside_reference_config_is_one(self, tmp_path):
        assert main(["sweep", "--n", "2", "--check", "--out", str(tmp_path)]) == 1

    def test_io_error_is_two(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["table", "--n", "2", "--d", "2",
                     "--out", str(blocker / "sub")]) == 2

    @pytest.mark.parametrize("command", ["table", "sweep", "noise", "measure"])
    def test_reference_gates_pass(self, tmp_path, capsys, command):
        assert main([command, "--check", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_cached_parser_keeps_no_flags_between_runs(self, tmp_path, capsys):
        assert main(["table", "--check", "--out", str(tmp_path)]) == 0
        assert "[PASS]" in capsys.readouterr().out
        assert main(["table", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("table: 625 entries") and "[PASS]" not in out
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize("command", ["noise", "measure"])
    def test_streams_unlike_default_rng_are_one_error(self, tmp_path, monkeypatch, capsys,
                                                      command):
        monkeypatch.setattr(oracle_module, "_PCG64_MULT", oracle_module._PCG64_MULT + 2)
        assert main([command, "--n", "2", "--d", "2", "--trials", "3",
                     "--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert np.__version__ in lines[0]
        assert not list(tmp_path.iterdir())

    def test_failed_gate_is_three(self, tmp_path):
        # 30 shots cannot resolve the binomial std to 5%; the gate must trip
        code = main(["measure", "--n", "2", "--d", "2", "--trials", "30",
                     "--seed", "0", "--check", "--out", str(tmp_path)])
        assert code == 3


FLAGS = ("--n", "--j", "--bmin", "--bmax", "--d", "--seed", "--eps", "--trials", "--out",
         "--threads", "--config", "--check")


def _one_subparser_per_command_error(argv) -> str:
    """The parse error that a root parser with one subparser per command gives for argv."""
    class Raising(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

    root = Raising(prog="spinalign")
    sub = root.add_subparsers(dest="command", required=True)
    for name in cli.COMMANDS:
        sub.add_parser(name).add_argument("--n", type=int)
    with pytest.raises(ValueError) as info:
        root.parse_args(argv)
    return str(info.value)


class TestOneParser:
    """One parser takes the command as its first positional and each flag once."""

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["fig2"], "argument command: invalid choice: "),
        (["table", "--nonsense"], "unrecognized arguments: --nonsense"),
        (["table", "--n", "x"], "argument --n: invalid int value: 'x'"),
    ], ids=["no-command", "unknown-command", "unknown-flag", "bad-n"])
    def test_errors_keep_their_text(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
        assert captured.err == f"error: {_one_subparser_per_command_error(argv)}\n"

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_command_help_lists_every_flag(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert [flag for flag in FLAGS if not re.search(rf"^  {flag}\b", out, re.M)] == []

    def test_flags_may_come_before_the_command(self, tmp_path, capsys):
        assert main(["--n", "3", "--d", "2", "table", "--out", str(tmp_path / "a")]) == 0
        assert main(["table", "--n", "3", "--d", "2", "--out", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out.replace(str(tmp_path / "a"), str(tmp_path / "b"))
        first, second = out.splitlines()
        assert first == second
        assert ((tmp_path / "a" / "fig2.csv").read_bytes()
                == (tmp_path / "b" / "fig2.csv").read_bytes())


class TestCheckTranscripts:
    """The gate lines, stderr and exit code of --check where the gates are set."""

    NOISE_GATES = [
        "  [PASS] rotation error at eps=0.05 in [0.03, 0.09]",
        "  [PASS] rotation error at eps=0.1 in [0.05, 0.11]",
        "  [PASS] zero error at eps=0",
        "  [PASS] error non-decreasing in eps",
        "  [PASS] mean dF non-increasing in eps",
    ]
    MEASURE = ["measure", "--n", "4", "--d", "3", "--trials"]
    CASES = {
        "table": (["table"], 0, "", [
            "  [PASS] 625 entries",
            "  [PASS] target 0 has F = N",
            "  [PASS] target 0 has chi_opt = 0",
            "  [PASS] max-gain entry sits on the dF + F = N line",
        ]),
        "sweep": (["sweep"], 0, "", [
            "  [PASS] mean dF in [0.4, 0.5]",
            "  [PASS] every dF >= 0",
            "  [PASS] max-gain run sits on the dF + F = N line",
        ]),
        "noise": (["noise"], 0, "", NOISE_GATES),
        "noise-400": (["noise", "--trials", "400"], 0, "", NOISE_GATES),
        "measure-10000": (MEASURE + ["10000"], 0, "", [
            "  [PASS] every std <= sqrt(N) = 2",
            "  [PASS] std within 5% of the binomial formula",
            "  [PASS] mean within 3 standard errors of exact F",
        ]),
        # 2,000 shots per target cannot resolve the std to 5% at seed 30.
        "measure-2000": (MEASURE + ["2000"], 3,
                         "check failed: std within 5% of the binomial formula; "
                         "mean within 3 standard errors of exact F\n", [
            "  [PASS] every std <= sqrt(N) = 2",
            "  [FAIL] std within 5% of the binomial formula",
            "  [FAIL] mean within 3 standard errors of exact F",
        ]),
        # A required epsilon is missing: an input error, found before any gate is printed.
        "noise-missing-eps": (["noise", "--eps", "0.05"], 1,
                              "error: --check needs eps=0.1 in the --eps list\n", []),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_transcript(self, tmp_path, capsys, case):
        argv, code, err, gates = self.CASES[case]
        assert main([*argv, "--check", "--out", str(tmp_path)]) == code
        captured = capsys.readouterr()
        assert [line for line in captured.out.splitlines() if line.startswith("  [")] == gates
        assert captured.err == err


SRC = Path(__file__).resolve().parents[1] / "src"
# Keeps BLAS thread buffers out of a child's address-space limit on many-core hosts.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class TestInvalidInputEndsInOneErrorLine:
    @pytest.mark.parametrize(
        "argv, env, config, memory_limit",
        [
            (["table", "--j", "nan"], {}, None, None),
            (["table", "--j", "inf"], {}, None, None),
            (["table", "--bmin", "nan", "--d", "1"], {}, None, None),
            (["noise", "--eps", "abc"], {}, None, None),
            (["table"], {}, '{"n": "4"}', None),
            (["table"], {}, '{"threads": "x"}', None),
            (["table"], {}, '{"n": 4', None),
            (["noise"], {}, '{"eps": [true, false]}', None),
            (["noise"], {}, '{"eps": ["0.1", " 5e-2"]}', None),
            (["table", "--n", "100000000000000000000"], {}, None, None),
            # D^N of more than 4,300 digits, which Python refuses to print.
            (["table", "--n", "5000", "--d", "10"], {}, None, None),
            (["table", "--n", "1000000", "--d", "2"], {}, None, None),
            # Shot and noise arrays of 8-16 GB: the allocation fails under the
            # 1 GiB address-space limit set on the child, before any memory is used.
            (["measure", "--n", "2", "--d", "1", "--trials", "1000000000"], _ONE_BLAS_THREAD,
             None, 1 << 30),
            (["noise", "--n", "2", "--d", "1", "--trials", "1000000000"], _ONE_BLAS_THREAD,
             None, 1 << 30),
            # --check rules are checked before any work, not after the study.
            (["table", "--n", "3", "--check"], {}, None, None),
            (["sweep", "--d", "3", "--check"], {}, None, None),
            (["noise", "--eps", "0.05", "--check"], {}, None, None),
            (["noise", "--eps", "", "--check"], {}, None, None),
            (["noise", "--n", "3", "--trials", "0", "--check"], {}, None, None),
            # noise.csv rows and the --check gates are keyed by eps to 10 decimals.
            (["noise", "--n", "3", "--d", "3", "--trials", "2", "--eps", "0.05,0.05"], {}, None,
             None),
            (["noise", "--n", "3", "--d", "3", "--trials", "2"], {}, '{"eps": [0, 0.1, -0.0]}',
             None),
        ],
        ids=["j-nan", "j-inf", "bmin-nan", "eps-abc", "config-n-str", "config-threads-str",
             "config-malformed", "config-eps-bool", "config-eps-str", "n-huge",
             "d-pow-n-5000-digits", "d-pow-n-301030-digits",
             "measure-out-of-memory", "noise-out-of-memory", "table-check-n3",
             "sweep-check-d3", "noise-check-missing-eps", "noise-check-empty-eps",
             "noise-check-trials-0", "noise-repeated-eps", "config-repeated-eps"],
    )
    def test_exits_one_without_traceback(self, tmp_path, argv, env, config, memory_limit):
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            argv = argv + ["--config", str(tmp_path / "cfg.json")]

        def limit_child():
            if memory_limit is not None:
                resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit))

        proc = subprocess.run(
            [sys.executable, "-m", "spinalign", *argv, "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(SRC), **env},
            capture_output=True, text=True, timeout=60, preexec_fn=limit_child,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["noise", "--eps", "", "--check"], "noise needs a non-empty --eps list"),
        (["noise", "--n", "3", "--trials", "0", "--check"], "--trials must be at least 1"),
        (["measure", "--trials", "0", "--check"], "--trials must be at least 1"),
        (["noise", "--n", "3", "--eps", "0.05", "--check"], "--check for 'noise' requires"),
        (["noise", "--eps", "0,0.1", "--check"], "--check needs eps=0.05 in the --eps list"),
        (["table", "--j", "nan", "--n", "3", "--check"], "coupling and fields must be finite"),
        (["sweep", "--bmin", "1", "--check"], "grid requires b_min < b_max"),
        (["table", "--n", "9", "--d", "5", "--check"], "sweep of 1953125 targets exceeds"),
        (["measure", "--seed", "-1", "--trials", "0"], "--seed must be a non-negative integer"),
    ], ids=["empty-eps", "noise-trials-0", "measure-trials-0", "not-reference", "missing-eps",
            "j-nan", "bad-grid", "over-budget", "negative-seed"])
    def test_first_broken_rule_is_reported(self, tmp_path, monkeypatch, capsys, argv, message):
        # An input that breaks several rules names the one each command met first.
        def refuse(*args):
            raise AssertionError("a rejected run built a table")

        monkeypatch.setattr(cli, "build_table", refuse)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: " + message) and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "out").exists()



class TestOverflowingFields:
    # N = 3: at N = 2 the target (b_max, b_min) has sites at angles 0 and π from
    # the candidate, every rotation angle is stationary, and table rejects the grid.
    ARGS =["--n", "3", "--d", "3", "--bmin", "-2e200", "--bmax", "2e200"]

    @pytest.mark.parametrize("command", [["sweep"], ["measure", "--trials", "100"]],
                             ids=["sweep", "measure"])
    def test_run_without_warnings(self, tmp_path, command):
        # b² overflows for every nonzero target field; table accepts the grid, and
        # sweep and measure must too, without a warning on the way.
        proc = subprocess.run(
            [sys.executable, "-W", "always::RuntimeWarning", "-m", "spinalign", *command,
             *self.ARGS, "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_sweep_f_equals_table_f(self, tmp_path):
        for command in ("table", "sweep"):
            assert main([command, *self.ARGS, "--out", str(tmp_path)]) == 0
        _, table_rows = _read_csv(tmp_path / "fig2.csv")
        _, sweep_rows = _read_csv(tmp_path / "fig3.csv")
        table_f = {int(row[0]): float(row[1]) for row in table_rows}
        assert len(table_f) == len(sweep_rows) == 27
        for row in sweep_rows:
            assert abs(float(row[1]) - table_f[int(row[0])]) <= 1e-12


def test_reference_runs_do_not_load_numpy_ma(tmp_path):
    # np.median and other masked-array helpers import numpy.ma (12-15 ms) on first use.
    script = (
        "import sys\n"
        "from spinalign.cli import main\n"
        "for command in ('table', 'sweep', 'noise', 'measure'):\n"
        f"    assert main([command, '--check', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


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


# The argv fuzz: a grammar of subcommand, flags and config file. Integer flags take small
# values, values across the whole int range and text argparse must refuse; float flags take
# any float's repr and the edge spellings below.
_ODD_TEXT = st.sampled_from(["", " ", "nan", "-nan", "NaN", "inf", "-inf", "-Infinity", "-0",
                             "0", "1e308", "-1e308", "1e309", "1e-3", "-1e-3", "abc", "--n",
                             "9" * 5000])
_INT_TEXT = st.one_of(st.integers(-3, 12), st.integers(-2**70, 2**70),
                      st.sampled_from([chain.DEFAULT_SWEEP_BUDGET,
                                       chain.DEFAULT_SWEEP_BUDGET + 1, 10**400])).map(str)
_FLOAT_TEXT = st.one_of(st.floats().map(repr), st.sampled_from(["-0.5", "0.5", "1", "-2"]))
_INT_ARG, _FLOAT_ARG = st.one_of(_INT_TEXT, _ODD_TEXT), st.one_of(_FLOAT_TEXT, _ODD_TEXT)
_FLAG_VALUES = {
    **dict.fromkeys(("--n", "--d", "--trials", "--seed", "--threads"), _INT_ARG),
    **dict.fromkeys(("--j", "--bmin", "--bmax"), _FLOAT_ARG),
    "--eps": st.one_of(st.lists(_FLOAT_ARG, max_size=4).map(",".join), _ODD_TEXT),
}
# A small valid run that the drawn flags, applied after it, may override or break.
_BASE = st.sampled_from([[], ["--n", "2", "--d", "3", "--trials", "5"],
                         ["--n", "3", "--d", "2", "--trials", "2", "--eps", "0,0.1"]])
_FLAGS = st.lists(st.one_of(
    *(st.tuples(st.just(flag), values) for flag, values in _FLAG_VALUES.items()),
    st.sampled_from([("--check",), ("--bogus",), ("--n",)]),
), max_size=4)
_CONFIG = st.one_of(st.none(), st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]),
    st.one_of(_JSON_VALUE, st.integers(-3, 12)), max_size=3))
_DEFAULT_TRIALS = {"noise": 200, "measure": 10_000}
# A run starts only if it does at most this many (target, site, trial, epsilon) steps.
_FUZZ_WORK = 20_000


def _cheap(command: str, cfg: RunConfig) -> bool:
    """Whether main may run ``cfg``: little work, or a grid over budget, which fails at once."""
    if cfg.d > 1 and cfg.n * math.log2(cfg.d) > 24:
        return cfg.n <= 64
    targets = cfg.d**cfg.n
    if targets > chain.DEFAULT_SWEEP_BUDGET:
        return cfg.n <= 64
    trials = cfg.trials or _DEFAULT_TRIALS[command] if command in ("noise", "measure") else 1
    return targets * cfg.n * trials * (len(cfg.eps) if command == "noise" else 1) <= _FUZZ_WORK


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(cli.COMMANDS)), base=_BASE, flags=_FLAGS,
       config=_CONFIG)
def test_fuzz_argv(command, base, flags, config):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *base, *(word for flag in flags for word in flag)]
        if config is not None:
            (Path(tmp) / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(Path(tmp) / "cfg.json")]
        out = Path(tmp) / "out"
        argv += ["--out", str(out)]
        # Every n, d and trials count reaches resolve_config, which starts no work.
        try:
            cfg = resolve_config(_build_parser().parse_args(argv))
        except spinalign.SpinAlignError:
            cfg = None
        if cfg is not None and not _cheap(command, cfg):
            event("not run: too much work")
            return
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        event(f"{command} exit {code}")
        assert code in (0, 1, 2, 3)
        lines = stderr.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            prefix = {1: "error: ", 2: "i/o error: ", 3: "check failed: "}[code]
            assert len(lines) == 1 and lines[0].startswith(prefix)
        if code == 1:  # a rejected run prints and writes nothing
            assert stdout.getvalue() == "" and not out.exists()
        assert cfg is not None or code == 1
