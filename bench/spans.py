"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps public functions of ``spinalign`` from the outside: each
wrapper is installed in every module namespace that holds the original (so
``ground_state`` is traced whether it is called from ``chain``, ``protocol``,
``oracle`` or ``cli``), on classes for methods, and in ``cli.COMMANDS``.
Spans (name, start, end, parent) live in flat integer arrays and are written
out once, at the end of the workload process, with the run id.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, qualified name) of every traced function; the layer is the module.
TRACED = (
    ("chain", "build_hamiltonian"),
    ("chain", "ground_state"),
    ("hilbert", "site_operator"),
    ("hilbert", "hermitian_ground_state"),
    ("hilbert", "partial_trace"),
    ("hilbert", "apply_unitary"),
    ("similarity", "similarity_chain"),
    ("similarity", "cos_theta"),
    ("protocol", "global_rotation"),
    ("protocol", "build_table"),
    ("protocol", "run_protocol"),
    ("protocol", "lookup_chi_batch"),
    ("oracle", "make_oracle"),
    ("oracle", "query_exact"),
    ("oracle", "query_measured"),
    ("oracle", "Oracle.verification_query"),
    ("cli", "cmd_table"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_noise"),
    ("cli", "cmd_measure"),
)
LAYERS = ("chain", "hilbert", "similarity", "protocol", "oracle", "cli")


class Recorder:
    """Collects nested spans of the traced functions in one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = [f"{mod}.{qual}" for mod, qual in TRACED]
        self.name_ids: array = array("q")
        self.parents: array = array("q")
        self.starts: array = array("q")
        self.ends: array = array("q")
        self._stack = [-1]
        # Work counts taken from arguments at the span boundary.
        self.specs_solved: set = set()
        self.lookup_queries = 0

    def wrap(self, name_id: int, fn):
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Replace every reference to each traced function inside ``package``."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for name_id, (mod, qual) in enumerate(TRACED):
            owner = sys.modules[f"{package.__name__}.{mod}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name_id, getattr(cls, meth)))
                continue
            original = getattr(owner, qual)
            wrapper = self.wrap(name_id, self._observing(qual, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
            commands = getattr(owner, "COMMANDS", {})
            for key, value in list(commands.items()):
                if value is original:
                    commands[key] = wrapper

    def _observing(self, qual: str, fn):
        if qual == "ground_state":
            def ground_state(spec, *args, **kwargs):
                self.specs_solved.add(spec)
                return fn(spec, *args, **kwargs)
            return ground_state
        if qual == "lookup_chi_batch":
            def lookup_chi_batch(table, f_queries, *args, **kwargs):
                self.lookup_queries += int(np.size(f_queries))
                return fn(table, f_queries, *args, **kwargs)
            return lookup_chi_batch
        return fn

    def save(self, path: str) -> None:
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.int64),
            ends=np.frombuffer(self.ends, dtype=np.int64),
            counts=np.array([len(self.specs_solved), self.lookup_queries]),
        )


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles that leaves at least ten samples beyond it."""
    best = 50.0
    for q in (90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.95, 99.99):
        if n * (1.0 - q / 100.0) >= 10:
            best = q
    return best


def layer_metrics(path: str) -> tuple[dict[str, float], dict[str, float]]:
    """Per-function calls and self seconds, per-layer self seconds and the
    derived ratios from one spans file; the second dict holds the tail
    percentile used for each per-call tail metric."""
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    name_ids, parents = data["name_ids"], data["parents"]
    dur = (data["ends"] - data["starts"]).astype(np.float64) * 1e-9
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    self_s = dur - child
    calls = np.bincount(name_ids, minlength=len(names))
    self_by_name = np.bincount(name_ids, weights=self_s, minlength=len(names))

    out: dict[str, float] = {}
    for i, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_by_name[i])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(sum(
            self_by_name[i] for i, n in enumerate(names) if n.split(".")[0] == layer))

    specs_solved, lookup_queries = (int(v) for v in data["counts"])
    gs_calls = out["chain.ground_state.calls"]
    out["chain.ground_state.unique_frac"] = specs_solved / gs_calls if gs_calls else 0.0
    out["protocol.lookup_chi_batch.queries"] = lookup_queries

    def per_call(name: str) -> np.ndarray:
        return dur[name_ids == names.index(name)]

    tails = {}
    runs = per_call("protocol.run_protocol")
    tails["protocol.run_protocol"] = tail_percentile(len(runs))
    out["protocol.run_protocol.p50_ms"] = float(np.median(runs)) * 1e3 if len(runs) else 0.0
    out["protocol.run_protocol.tail_ms"] = (
        float(np.percentile(runs, tails["protocol.run_protocol"])) * 1e3 if len(runs) else 0.0)
    shots = per_call("oracle.query_measured")
    out["oracle.query_measured.p50_us"] = float(np.median(shots)) * 1e6 if len(shots) else 0.0
    return out, tails
