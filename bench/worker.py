"""One workload run in a fresh interpreter: ``spinalign.cli.main`` per step.

Started by ``run.py`` with the monotonic time at which it spawned this
process, so set-up time covers interpreter start, ``import spinalign`` and
argument and config resolution, up to the start of the first subcommand.
Writes ``result.json`` (and ``spans.npz`` when traced) into ``--out``.
``--setup-only`` stops at the start of the first subcommand; the untimed
warm-up run uses it to fill the byte-code and file caches.

    python3 bench/worker.py --root . --workload shots --seed 30 --size full \
        --out .bench_out/x --spawned <CLOCK_MONOTONIC seconds> [--trace] [--setup-only]
"""

import argparse
import ctypes
import json
import os
import resource
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas(np) -> dict:
    """numpy's BLAS library and its thread pool size, left at its default."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import numpy as np
    import spinalign
    import spinalign.cli as cli

    if not os.path.realpath(spinalign.__file__).startswith(src + os.sep):
        print(f"spinalign imported from {spinalign.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, argv_for

    workload = WORKLOADS[args.size][args.workload]
    recorder = None
    if args.trace:
        from spans import Recorder
        recorder = Recorder(f"{args.workload}:{args.seed}:{os.getpid()}")
        recorder.install(spinalign)

    timings: list[list] = []  # [command, start, end] per subcommand

    def timed(name, fn):
        def run(cfg):
            timings.append([name, _clock(), None])
            try:
                if not args.setup_only:
                    fn(cfg)
            finally:
                timings[-1][2] = _clock()
        return run

    for name, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[name] = timed(name, fn)

    steps = workload.steps[:1] if args.setup_only else workload.steps
    exit_codes = [cli.main(argv_for(step, args.seed, args.out)) for step in steps]
    sys.stdout.flush()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit_codes": exit_codes,
        "setup_s": timings[0][1] - args.spawned if timings else None,
        "commands": [{"name": n, "start": s, "end": e} for n, s, e in timings],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "minflt": usage.ru_minflt,
        "numpy": np.__version__,
        "blas": _blas(np),
    }
    if recorder is not None:
        recorder.save(os.path.join(args.out, "spans.npz"))
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
