"""Command-line driver for the reference numerical study.

Four commands emit analysis-ready CSV; each takes every flag, before or after it:

  table    precompute the (F, chi_opt) lookup statistics  -> fig2.csv
  sweep    run the single-query protocol on every target   -> fig3.csv
  noise    lookup robustness under bounded query noise     -> noise.csv
  measure  projective-measurement oracle statistics        -> measure.csv

Defaults reproduce the N=4, J=1, five-level field grid study with the
candidate prepared at the lowest field value. ``--check`` turns the
documented reference values into pass/fail gates (exit code 3 on failure).
Exit codes: 0 ok, 1 invalid input or out of memory, 2 I/O error, 3 failed check.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .chain import DEFAULT_SWEEP_BUDGET, ChainSpec, ParameterGrid, target_count, target_field_array
from .errors import SpinAlignError, ValidationError, check_count, check_type, real_array
from .oracle import binomial_std, check_epsilon, noisy_replies, shot_estimates, target_draws
from .protocol import (build_table, check_target_ids, delta_f_sums, nearest_runs, sweep_exact,
                       target_angles)

# Gates used by --check; they assume the reference configuration below.
REFERENCE_KEYS = {"n": 4, "j": 1.0, "bmin": -0.5, "bmax": 0.5, "d": 5}
SWEEP_MEAN_WINDOW = (0.40, 0.50)
# Mean |rotation-angle error| windows per epsilon. Chi errors are gated on
# the Bloch rotation-angle scale (twice the stored half-angle chi_opt).
NOISE_ERROR_WINDOWS = {0.05: (0.03, 0.09), 0.1: (0.05, 0.11)}
# The one block size, which bounds every per-block temporary: measure makes this many
# targets' angles at a time, noise and measure draw whole targets' trials in blocks of
# about this many (at least one target), and CSV rows are formatted this many at a time.
BLOCK_SIZE = 2**13


@dataclass(frozen=True)
class RunConfig:
    n: int = 4
    j: float = 1.0
    bmin: float = -0.5
    bmax: float = 0.5
    d: int = 5
    # Default root seed; the measurement statistics of the reference study are
    # validated at 10^4 shots per target under this seed's deterministic draw.
    seed: int = 30
    eps: tuple[float, ...] = (0.0, 0.05, 0.1)
    trials: int | None = None
    out: str = "."
    check: bool = False

    def grid(self) -> ParameterGrid:
        return ParameterGrid(self.bmin, self.bmax, self.d)

    def candidate(self) -> ChainSpec:
        return ChainSpec(self.n, self.j, (self.bmin,) * self.n)


# The JSON types each config-file key accepts.
_NUMBER = (int, float)
_FILE_TYPES = {
    "n": (int,), "j": _NUMBER, "bmin": _NUMBER, "bmax": _NUMBER, "d": (int,),
    "seed": (int,), "eps": (list, str), "trials": (int, type(None)), "out": (str,),
    "check": (bool,),
}


def _parse_eps(raw) -> Iterator[float]:
    parts = raw if isinstance(raw, list) else [e for e in raw.split(",") if e.strip()]
    # Each piece is parsed here (check_epsilon parses no strings). A config file's list
    # holds JSON numbers only: no strings, and no true/false, which would pass as 1 and 0.
    if isinstance(raw, list) and not all(type(e) in _NUMBER for e in raw):
        raise ValidationError(f"the config eps list must hold only numbers: {raw!r}")
    for part in parts:
        try:
            epsilon = float(part)
        except (ValueError, OverflowError):  # not a number, or a JSON integer beyond float
            raise ValidationError(f"epsilon must be a number, got {part!r}") from None
        yield check_epsilon(epsilon)


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ValidationError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a flat JSON object")
    if unknown := set(data) - set(_FILE_TYPES):
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        if type(value) not in _FILE_TYPES[key]:
            raise ValidationError(f"config value for {key!r} has the wrong type: {value!r}")
        if _FILE_TYPES[key] is _NUMBER:
            try:
                data[key] = float(value)
            except OverflowError:
                raise ValidationError(f"config value for {key!r} is out of range") from None
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and flags (flags win); ValidationError if a run may not start."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
        if "eps" in file_values:
            file_values["eps"] = tuple(_parse_eps(file_values["eps"]))
        cfg = replace(cfg, **file_values)
    overrides = {}
    for f in dataclass_fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None and value is not False:
            overrides[f.name] = tuple(_parse_eps(value)) if f.name == "eps" else value
    cfg = replace(cfg, **overrides)
    # A chain holds n field values, so n beyond the sweep budget cannot be built.
    if not 2 <= cfg.n <= DEFAULT_SWEEP_BUDGET:
        raise ValidationError(f"--n must be between 2 and {DEFAULT_SWEEP_BUDGET}")
    if cfg.d < 1:
        raise ValidationError("--d must be at least 1")
    check_count(cfg.seed, "--seed")
    # A config file's JSON string may hold NUL, which no path can.
    if "\0" in cfg.out:
        raise ValidationError("--out must not contain a NUL character")
    # Run-start rules, in the order the commands' work would meet them, so
    # that a rejected run computes, prints and writes nothing.
    command = getattr(args, "command", None)
    if command == "noise" and not cfg.eps:
        raise ValidationError("noise needs a non-empty --eps list")
    # noise.csv rows and the --check gates are keyed by eps to 10 decimals.
    keys = [round(e, 10) for e in cfg.eps]
    if command == "noise" and len(set(keys)) < len(keys):
        raise ValidationError(f"--eps repeats a value (to 10 decimals): {cfg.eps}")
    if command in ("noise", "measure") and cfg.trials is not None and cfg.trials < 1:
        raise ValidationError("--trials must be at least 1")
    if cfg.check and command in ("table", "sweep", "noise"):
        # Building the table would meet the grid and chain checks first.
        target_count(cfg.grid(), cfg.candidate().n_sites)
        if any(getattr(cfg, k) != v for k, v in REFERENCE_KEYS.items()):
            raise ValidationError(f"--check for '{command}' requires the reference configuration "
                                  f"{REFERENCE_KEYS} (got n={cfg.n}, j={cfg.j}, grid "
                                  f"[{cfg.bmin}, {cfg.bmax}] x {cfg.d})")
    if cfg.check and command == "noise":
        if missing := [e for e in NOISE_ERROR_WINDOWS if round(e, 10) not in keys]:
            raise ValidationError(f"--check needs eps={missing[0]} in the --eps list")
    return cfg


def _write_csv(path: Path, header: str, columns) -> None:
    """Write equal-length ``columns`` under ``header``: integers as is, others as ``%.12e``.

    Each block of ``BLOCK_SIZE`` rows is formatted by one ``%`` on the repeated row template.
    """
    columns = [np.asarray(col) for col in columns]
    template = ",".join("%d" if col.dtype.kind in "iu" else "%.12e" for col in columns) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), BLOCK_SIZE):
            block = [col[start:start + BLOCK_SIZE].tolist() for col in columns]
            fh.write(template * len(block[0])
                     % tuple(itertools.chain.from_iterable(zip(*block))))


class CheckFailure(Exception):
    """One or more --check gates failed."""


def _report(gates: list[tuple[bool, str]]) -> None:
    """Print each (ok, label) gate as [PASS] or [FAIL]; CheckFailure naming the failed ones."""
    for ok, label in gates:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    if failed := [label for ok, label in gates if not ok]:
        raise CheckFailure("; ".join(failed))


# --- subcommands -------------------------------------------------------------

def cmd_table(cfg: RunConfig) -> None:
    table = build_table(cfg.grid(), cfg.candidate())
    out = Path(cfg.out) / "fig2.csv"
    _write_csv(out, "target_id,F,chi_opt,delta_F,sum_sin",
               (table.target_ids, table.f, table.chi, table.delta_f, table.sum_sin))
    # np.median's own formula on the sorted column; np.median itself would
    # import numpy.ma on first use.
    chi = np.sort(table.chi)
    median = (chi[(len(chi) - 1) // 2] + chi[len(chi) // 2]) / 2
    print(
        f"table: {len(table)} entries -> {out} | chi_opt min {chi[0]:.6f} "
        f"median {median:.6f} max {chi[-1]:.6f}"
    )
    if cfg.check:
        row0 = int(np.nonzero(table.target_ids == 0)[0][0])
        best = int(np.argmax(table.delta_f))
        _report([
            (len(table) == cfg.d**cfg.n, f"{cfg.d**cfg.n} entries"),
            (abs(table.f[row0] - cfg.n) <= 1e-9, "target 0 has F = N"),
            (abs(table.chi[row0]) <= 1e-9, "target 0 has chi_opt = 0"),
            (abs(table.delta_f[best] + table.f[best] - cfg.n) <= 1e-6,
             "max-gain entry sits on the dF + F = N line"),
        ])


def cmd_sweep(cfg: RunConfig) -> None:
    table = build_table(cfg.grid(), cfg.candidate())
    f_before, deltas = sweep_exact(table)
    out = Path(cfg.out) / "fig3.csv"
    _write_csv(out, "target_id,F,delta_F", (np.arange(len(deltas)), f_before, deltas))
    print(f"sweep: {len(deltas)} protocol runs -> {out} | mean dF {deltas.mean():.6f}")
    if cfg.check:
        lo, hi = SWEEP_MEAN_WINDOW
        best = int(np.argmax(deltas))
        _report([
            (lo <= deltas.mean() <= hi, f"mean dF in [{lo}, {hi}]"),
            (np.all(deltas >= -1e-9), "every dF >= 0"),
            (abs(deltas[best] + f_before[best] - cfg.n) <= 1e-6,
             "max-gain run sits on the dF + F = N line"),
        ])


def _check_sampling(trials, seed) -> None:
    """The sampled studies' entry check: ``trials`` an integer >= 1 and ``seed`` a count."""
    if check_count(trials, "trials") < 1:
        raise ValidationError(f"trials must be at least 1, got {trials!r}")
    check_count(seed, "the seed")


def noise_rows(table, eps, trials: int, seed: int) -> list[tuple[float, float, float]]:
    """(ε, 2·mean |χ error|, mean ΔF) per ε of ``eps``, from ``trials`` noisy lookups per target.

    ``trials``, ``seed``, ``eps`` (1-D, each ε through ``check_epsilon``) and ``check_target_ids``
    check the inputs before any work, also where every ε is 0 and no stream is drawn.
    """
    _check_sampling(trials, seed)
    eps = [check_epsilon(epsilon) for epsilon in real_array(eps, "eps", (None,))]
    check_target_ids(table)
    n_targets = len(table)
    # chi/F/sum_sin keyed by target id for per-target truth values.
    chi_true, f_true, s_true = truth = np.empty((3, n_targets))
    truth[:, table.target_ids] = table.chi, table.f, table.sum_sin
    # Lookups return runs of equal F; chi and its sine and cosine are taken once per run.
    chi_run = table.chi[table.run_row]
    sin_run, cos_run = np.sin(chi_run), np.cos(chi_run)
    # Per-trial values are gathered from one value per (target, run) when there are
    # no more runs than trials, which keeps that array within the block's queries.
    per_run = len(chi_run) <= trials

    rows = []
    for eps_index, epsilon in enumerate(eps):
        if epsilon == 0.0:
            # Each query is its target's own F, at distance 0 from its run: the sweep's gains.
            errors = np.abs(chi_run[table.run_f.searchsorted(f_true)] - chi_true)
            gains = sweep_exact(table)[1]
        else:
            # Each target keeps its own noise stream, seeded by [seed, eps_index, target_id];
            # a block of targets is looked up in one call, one row of trials per target.
            errors, gains = np.empty((2, n_targets))
            for ids, draws in target_draws([seed, eps_index], 0, n_targets, (trials,), BLOCK_SIZE):
                hit = nearest_runs(table, noisy_replies(f_true[ids, None], epsilon, draws))
                at = slice(None) if per_run else hit
                # Gain at the looked-up angle needs only (sum_sin, F) of the truth.
                gain = delta_f_sums(s_true[ids, None], f_true[ids, None], sin_run[at],
                                    cos_run[at])
                error = np.abs(chi_run[at] - chi_true[ids, None])
                if per_run:  # each trial's flat index into the (block, runs) arrays
                    hit += np.arange(0, gain.size, len(chi_run))[:, None]
                    gain, error = gain.take(hit), error.take(hit)
                gains[ids] = gain.mean(axis=1)
                errors[ids] = error.mean(axis=1)
        # Reported on the Bloch rotation-angle scale: twice the half-angle chi.
        rows.append((epsilon, 2.0 * float(errors.mean()), float(gains.mean())))
    return rows


def cmd_noise(cfg: RunConfig) -> None:
    trials = 200 if cfg.trials is None else cfg.trials
    table = build_table(cfg.grid(), cfg.candidate())
    rows = noise_rows(table, cfg.eps, trials, cfg.seed)
    out = Path(cfg.out) / "noise.csv"
    _write_csv(out, "epsilon,mean_abs_chi_error,mean_delta_f", zip(*rows))
    print(f"noise: {trials} trials/target over {len(table)} targets -> {out}")
    notes = {0.05: " (reference ~0.06)", 0.1: " (reference ~0.08)"}
    print(*(f"  eps={eps:g}: mean |rotation error| {err:.4f}{notes.get(round(eps, 10), '')}, "
            f"mean dF {gain:.4f}" for eps, err, gain in rows), sep="\n")
    if cfg.check:
        by_eps = {round(e, 10): err for e, err, _ in rows}
        gates = [(lo <= by_eps[round(e, 10)] <= hi, f"rotation error at eps={e} in [{lo}, {hi}]")
                 for e, (lo, hi) in NOISE_ERROR_WINDOWS.items()]
        if 0.0 in by_eps:
            gates.append((by_eps[0.0] <= 1e-12, "zero error at eps=0"))
        _, errs, mean_gains = zip(*sorted(rows))
        _report(gates + [
            (all(a <= b + 1e-12 for a, b in zip(errs, errs[1:])), "error non-decreasing in eps"),
            (all(a >= b - 1e-12 for a, b in zip(mean_gains, mean_gains[1:])),
             "mean dF non-increasing in eps"),
        ])


def measure_columns(grid: ParameterGrid, candidate: ChainSpec, trials: int, seed: int):
    """(F_exact, mean, std, binomial std) by target id of ``trials`` measured shots per target."""
    _check_sampling(trials, seed)
    n_sites = check_type(candidate, ChainSpec, "candidate").n_sites
    n_targets = target_count(grid, n_sites)
    f_exact, binomial, means, stds = np.empty((4, n_targets))
    for start in range(0, n_targets, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, n_targets)
        # One cosine array gives the binomial spread and every target's shots.
        thetas = target_angles(target_field_array(grid, n_sites, start=start, stop=stop), candidate)
        cosines = np.cos(thetas)
        binomial[start:stop] = binomial_std(cosines)
        # F_exact sums the cosines in sorted θ order, as build_table sums fig2's F.
        thetas.sort(axis=1)
        f_exact[start:stop] = np.cos(thetas).sum(axis=1)
        # Each target keeps its own stream, seeded by [seed, target_id]. A block of at most
        # max(BLOCK_SIZE, trials)·N draws takes one kernel call, one mean and one std.
        for ids, draws in target_draws([seed], start, stop, (trials, n_sites), BLOCK_SIZE):
            estimates = shot_estimates(cosines[ids.start - start:ids.stop - start], draws)
            means[ids] = estimates.mean(axis=1)
            stds[ids] = estimates.std(axis=1, ddof=1) if trials > 1 else 0.0
    return f_exact, means, stds, binomial


def cmd_measure(cfg: RunConfig) -> None:
    trials = 10_000 if cfg.trials is None else cfg.trials
    f_exact, means, stds, binomial = measure_columns(cfg.grid(), cfg.candidate(), trials, cfg.seed)
    out = Path(cfg.out) / "measure.csv"
    _write_csv(out, "target_id,F_exact,F_est_mean,F_est_std,binomial_std",
               (np.arange(len(means)), f_exact, means, stds, binomial))
    std_error = np.abs(stds - binomial)
    print(
        f"measure: {trials} shots/target over {len(means)} targets -> {out} | "
        f"max |std dev - binomial| {std_error.max():.4f}"
    )
    if cfg.check:
        root_n = math.sqrt(cfg.n)
        # Below the floor both stds are unresolvable at this shot count and
        # must both be (numerically) zero; otherwise compare at 5% relative.
        std_ok = np.where(binomial > 1e-6, std_error <= 0.05 * binomial, stds <= 1e-6)
        mean_ok = np.abs(means - f_exact) <= np.maximum(3.0 * stds / math.sqrt(trials), 1e-9)
        _report([
            (np.all(stds <= root_n), f"every std <= sqrt(N) = {root_n:g}"),
            (std_ok.all(), "std within 5% of the binomial formula"),
            (mean_ok.all(), "mean within 3 standard errors of exact F"),
        ])


# --- entry point --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Python 3.11 reads "-1e-3" and "-inf" as options; take decimal exponents
        # and -inf, -infinity and -nan in any case as negative numbers too.
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):  # argparse default exits with 2; keep 2 for I/O only
        raise ValidationError(message)


@functools.cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="spinalign", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--n", type=int, help="number of chain sites (default 4)")
    parser.add_argument("--j", type=float, help="ZZ coupling strength (default 1)")
    parser.add_argument("--bmin", type=float, help="lowest field value (default -0.5)")
    parser.add_argument("--bmax", type=float, help="highest field value (default 0.5)")
    parser.add_argument("--d", type=int, help="field levels per site (default 5)")
    parser.add_argument("--seed", type=int, help="root RNG seed (default 30)")
    parser.add_argument("--eps", type=str, help="comma-separated noise widths")
    parser.add_argument("--trials", type=int,
                        help="trials per target (noise: 200, measure: 10000)")
    parser.add_argument("--out", type=str, help="output directory (default .)")
    parser.add_argument("--threads", type=int, help="ignored; the work is serial")
    parser.add_argument("--config", type=str, help="JSON config file (flags win)")
    parser.add_argument("--check", action="store_true",
                        help="gate reference values, exit 3 on failure")
    return parser


COMMANDS = {"table": cmd_table, "sweep": cmd_sweep, "noise": cmd_noise, "measure": cmd_measure}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = resolve_config(args)
        COMMANDS[args.command](cfg)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    except (SpinAlignError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
