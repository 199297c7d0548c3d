"""Fixed probes of how fast the machine runs right now.

On a shared VM the speed of unchanged code drifts by 20-35 % over minutes,
and every time the benchmark measures drifts with it. ``compute_s`` times a
fixed amount of the kinds of work the program does (interpreter loops over
small objects, many calls into numpy on tiny arrays, small eigensolves and
random draws). ``startup_s`` times a fresh interpreter that imports numpy and
exits: set-up is mostly process start and file reads, which drift apart from
computation. ``run.py`` times both between reps and scales the reps' run
times by ``COMPUTE_REFERENCE_S`` over the mean compute probe of the run, and
their set-up times by ``STARTUP_REFERENCE_S`` over the mean start-up probe,
so drift of the machine cancels and a change of the program does not.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# The probes' typical times on the 2-vCPU Xeon VM the benchmark was tuned on,
# so that scaled times read close to raw ones there.
COMPUTE_REFERENCE_S = 0.33
STARTUP_REFERENCE_S = 0.18

_SYM = np.random.default_rng(0).random((16, 16))
_SYM = _SYM + _SYM.T
_PROBS = np.array([0.1, 0.4, 0.6, 0.9])


def compute_s() -> float:
    """Seconds one fixed round of interpreter and small-numpy work takes now."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    table: dict[int, int] = {}
    total = 0
    for i in range(480_000):
        total += i * i % 7
        table[i & 255] = total
    for _ in range(4800):
        np.linalg.eigh(_SYM)
        total += int((rng.random(4) < _PROBS).sum())
        total += int(np.kron(_PROBS, _PROBS).argmax())
    return time.perf_counter() - start


def startup_s() -> float:
    """Seconds a fresh interpreter takes to start, import numpy and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - start
