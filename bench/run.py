"""Benchmark of the spinalign CLI: end-to-end times per workload, a traced
per-layer run, and a correctness check of every output against stored copies.

    python3 bench/run.py --workload reference --seed 30 --seconds 30 --trace 0

Each workload run is a fresh interpreter (``worker.py``) that calls
``spinalign.cli.main`` once per subcommand, with the package imported from
``src/`` of this checkout. With ``--trace 0`` the run repeats the workload
at least twice and then while another repetition fits in ``--seconds``, and
reports medians over the repetitions, scaled to a reference machine speed by
the probes of ``hostspeed.py``. With ``--trace 1`` it runs the workload
once untraced and once with the span recorder of ``spans.py`` installed, and
reports per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics, each metric a value with its unit. The lines before it
are a readable summary and the run record (machine, versions, parameters).
Exit code 0 on a completed run; 1 if the benchmark cannot run the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import spans
from workloads import PINNED_SEED, SUBCOMMANDS, WORKLOADS, argv_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"
MIN_REPS = 2


def deadline_s(seconds: int) -> float:
    """Wall limit of a whole run; beyond it the program counts as hung."""
    return 2.0 * seconds + 60.0

END_TO_END_UNITS = {"setup_s": "s", "total_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod, qual in spans.TRACED:
        units[f"{mod}.{qual}.calls"] = "count"
        units[f"{mod}.{qual}.self_s"] = "s"
    units.update({f"{layer}.self_s": "s" for layer in spans.LAYERS})
    units.update({
        "chain.ground_state.unique_frac": "frac",
        "protocol.lookup_chi_batch.queries": "count",
        "protocol.run_protocol.p50_ms": "ms",
        "protocol.run_protocol.tail_ms": "ms",
        "oracle.query_measured.p50_us": "us",
        "process.minflt": "count",
        "cli.output_bytes": "B",
        "trace.overhead_frac": "frac",
    })
    units.update({f"{c}_s": "s" for c in SUBCOMMANDS})
    return units


class BenchError(Exception):
    """The program could not be run; the benchmark prints no result."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """Spawns the workload processes of one benchmark run and checks them."""

    def __init__(self, workload: str, seed: int, size: str, seconds: int):
        self.workload = WORKLOADS[size][workload]
        self.deadline = deadline_s(seconds)
        self.seed, self.size = seed, size
        self.dir = WORK / f"{size}-{workload}-{seed}"
        self.started = _clock()
        self.count = 0
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict:
        out = self.dir / f"p{self.count}"
        self.count += 1
        out.mkdir(parents=True)
        remaining = self.deadline - (_clock() - self.started)
        if remaining <= 0:
            raise BenchError("ran out of time")
        cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
               "--workload", self.workload.name, "--seed", str(self.seed),
               "--size", self.size, "--out", str(out)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
            spawned = _clock()
            try:
                proc = subprocess.run(cmd + ["--spawned", repr(spawned)], stdout=so,
                                      stderr=se, cwd=ROOT, timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError(f"workload process timed out after {remaining:.0f} s")
        wall = _clock() - spawned
        result_file = out / "result.json"
        if proc.returncode != 0 or not result_file.exists():
            err = (out / "stderr.txt").read_text().strip().splitlines()
            raise BenchError(f"workload process failed ({proc.returncode}): "
                             f"{err[-1] if err else 'no output'}")
        result = json.loads(result_file.read_text())
        if not result["commands"]:
            err = (out / "stderr.txt").read_text().strip().splitlines()
            raise BenchError(f"no subcommand started: {err[-1] if err else 'no output'}")
        result["wall_s"], result["dir"] = wall, out
        if not setup_only:
            self._check(result)
        return result

    def _check(self, result: dict) -> None:
        """Count subcommands, gates and output rows; keep every failure."""
        codes = result["exit_codes"]
        self.attempted += len(codes)
        self.failures += [f"{step.command} exited {code}"
                          for step, code in zip(self.workload.steps, codes) if code]
        gates = [line.strip() for line in (result["dir"] / "stdout.txt").read_text().splitlines()
                 if line.lstrip().startswith(("[PASS]", "[FAIL]"))]
        self.attempted += len(gates)
        self.failures += [g for g in gates if g.startswith("[FAIL]")]
        rows, bad = checks.check_outputs(self.size, self.workload.name, result["dir"], self.seed)
        self.attempted += rows
        self.failures += bad


def command_walls(result: dict) -> dict[str, float]:
    return {c["name"]: c["end"] - c["start"] for c in result["commands"]}


def total_s(result: dict) -> float:
    cmds = result["commands"]
    return cmds[-1]["end"] - cmds[0]["start"]


def measure(run: Run, seconds: float) -> tuple[dict, list[dict], dict]:
    """Untraced reps with the host-speed probes before the first and after
    each. After ``MIN_REPS`` another rep starts only if it and its probes are
    expected to end within ``seconds``, judged by the last ones. Times are
    medians over the reps, scaled to the reference speed by the mean probe of
    the run (the machine's speed over all the probing time: a median would
    drop the probes' share of the slow moments the reps also see); the raw
    medians go to the summary and the record."""
    start = _clock()
    compute: list[float] = []
    startup: list[float] = []

    def probe() -> None:
        compute.append(hostspeed.compute_s())
        startup.append(hostspeed.startup_s())

    probe()
    reps: list[dict] = []
    while (len(reps) < MIN_REPS or (_clock() - start) + reps[-1]["wall_s"]
           + compute[-1] + startup[-1] <= seconds):
        reps.append(run.spawn())
        probe()
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "total_s": statistics.median(total_s(r) for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
    }
    speed = {"compute": hostspeed.COMPUTE_REFERENCE_S / statistics.fmean(compute),
             "startup": hostspeed.STARTUP_REFERENCE_S / statistics.fmean(startup)}
    metrics = {
        "setup_s": raw["setup_s"] * speed["startup"],
        "total_s": raw["total_s"] * speed["compute"],
        "cpu_s": raw["cpu_s"] * speed["compute"],
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in reps) / 1024.0,
    }
    return metrics, reps, {"raw": raw, "speed": speed, "compute_probes_s": compute,
                           "startup_probes_s": startup,
                           "rep_total_s": [total_s(r) for r in reps]}


def trace(run: Run) -> tuple[dict, list[dict], dict]:
    """One untraced and one traced rep; per-layer metrics from the traced spans."""
    plain = run.spawn()
    traced = run.spawn(trace=True)
    metrics, tails = spans.layer_metrics(str(traced["dir"] / "spans.npz"))
    walls = command_walls(plain)
    metrics.update({f"{c}_s": walls.get(c, 0.0) for c in SUBCOMMANDS})
    metrics["process.minflt"] = plain["minflt"]
    metrics["cli.output_bytes"] = sum(p.stat().st_size for p in plain["dir"].glob("*.csv"))
    metrics["trace.overhead_frac"] = total_s(traced) / total_s(plain) - 1.0
    return metrics, [plain, traced], tails


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_hash() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def record(run: Run, reps: list[dict], seconds: int, traced: bool, extra: dict) -> dict:
    """The run record: machine, versions, code identity, workload parameters
    and ``extra`` (host speed and raw times untraced, tail percentiles traced)."""
    return {
        "workload": run.workload.name,
        "size": run.size,
        "seed": run.seed,
        "seconds": seconds,
        "trace": traced,
        "reps": len(reps),
        "steps": [argv_for(s, run.seed, "<out>") for s in run.workload.steps],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "blas": reps[0]["blas"],
        "git_hash": _git_hash(),
        "src_sha256": _src_sha256(),
        **extra,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(WORKLOADS), default="full",
                        help="toy: seconds-long versions for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinalign" / "__init__.py").is_file():
        print(f"error: no spinalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    run = Run(args.workload, args.seed, args.size, args.seconds)
    shutil.rmtree(run.dir, ignore_errors=True)
    try:
        run.spawn(setup_only=True)  # warm-up: byte-code caches and file cache
        if args.trace:
            metrics, reps, tails = trace(run)
            extra = {"tail_percentiles": tails}
            units = per_layer_units()
        else:
            metrics, reps, extra = measure(run, args.seconds)
            units = END_TO_END_UNITS
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.trace:
        walls = [command_walls(r) for r in reps]
        for c in SUBCOMMANDS:
            if c in walls[0]:
                print(f"{c}_s: {statistics.median(w[c] for w in walls)} s "
                      f"(median of {len(walls)} runs, as measured)")
        for name, value in extra["raw"].items():
            print(f"{name} as measured: {value} s")
        print(f"host speed (reference probe ÷ mean probe): {extra['speed']}")
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    fail_frac = len(run.failures) / run.attempted
    print(f"fail_frac: {fail_frac} ({len(run.failures)} of {run.attempted} operations)")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print("record: " + json.dumps(record(run, reps, args.seconds, bool(args.trace), extra)))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
