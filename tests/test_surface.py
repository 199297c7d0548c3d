"""The public surface, held to one rule per argument kind by one exhaustive walk.

The surface is what ``spinalign`` imports. ``SURFACE`` gives every public attribute of the
package a row: an entry's parameters, in call order, each with its kind and a good value,
or the kind of non-entry the attribute is. ``STUDIES`` adds the library studies that live in
``cli`` and are not exported. The walk calls each entry once with its good arguments, then
once per parameter and odd value with the other arguments good, under warnings as errors;
a real or complex array's odd values include its good value in disguise (every number
written as a string, as bytes, and, where each is 0 or 1, as a bool). Each call ends in a
SpinAlignError or a return, and no call returns for a bool, a NaN, a string or bytes
where a number belongs, or a count that is not a non-negative integer.
"""

import copy
import math
import time
import types
import warnings
from collections.abc import Iterator
from functools import partial, reduce

import numpy as np

import spinalign
import spinalign.cli  # STUDIES' module, which spinalign does not import
from spinalign import (
    ChainSpec,
    OracleKind,
    PAULI,
    ParameterGrid,
    SpinAlignError,
    StateVector,
    SubsetFunctionKind,
    build_table,
    ground_state,
    make_oracle,
    partial_trace,
    product_ground_directions,
)

# Argument kinds. A count is a non-negative integer, and counts (a seed, sites, subset masks,
# table ids) are a count or a flat sequence of them. Reals are one real number or an array
# of them; complex entries are a state's amplitudes or an operator's matrix. The other
# kinds are the library's own values, and an oracle is anything with its two query
# operations.
COUNT, COUNTS, REAL, REALS, COMPLEX = "count", "counts", "real", "reals", "complex"
SPEC, GRID, TABLE, ORACLE, STATE, DENSITY = "spec", "grid", "table", "oracle", "state", "density"
ENUM, LABEL = "enum", "label"
# Non-entries.
EXCEPTION, ENUM_TYPE, CONSTANT, RECORD = "exception", "enum type", "constant", "record"

SPEC_2 = ChainSpec(2, 1.0, (-0.5, 0.5))
GRID_2 = ParameterGrid(-0.5, 0.5, 2)
TABLE_2 = build_table(GRID_2, SPEC_2)
DIRECTIONS = product_ground_directions(np.array([0.1, 0.2]))
STATE_2 = ground_state(SPEC_2).state
RHO = partial_trace(STATE_2, 1)
ANGLES = [0.1, 0.2]
# Good values that a call uses up are made afresh for each call.
EXACT = partial(make_oracle, SPEC_2, OracleKind.EXACT, budget=10)
NOISY = partial(make_oracle, SPEC_2, OracleKind.NOISY, budget=10, seed=3, epsilon=0.1)
MEASURED = partial(make_oracle, SPEC_2, OracleKind.MEASURED, budget=10, seed=3)
ORACLE_ARGS = [("target", SPEC, SPEC_2), ("kind", ENUM, OracleKind.NOISY), ("budget", COUNT, 3),
               ("seed", COUNTS, [30, 7]), ("epsilon", REAL, 0.1)]
TABLE_COLUMNS = [("target_ids", COUNTS, np.arange(2)), *[(name, REALS, np.array([1.0, 2.0]))
                 for name in ("f", "chi", "delta_f", "sum_sin")], ("candidate", SPEC, SPEC_2)]
QUERIES = [("table", TABLE, TABLE_2), ("f_queries", REALS, [0.5, 1.5])]

SURFACE = {
    # chain
    "ChainSpec": [("n_sites", COUNT, 2), ("coupling", REAL, 1.0), ("fields", REALS, ANGLES)],
    "ParameterGrid": [("b_min", REAL, -0.5), ("b_max", REAL, 0.5), ("levels", COUNT, 2)],
    "build_hamiltonian": [("spec", SPEC, SPEC_2)],
    "enumerate_targets": [("grid", GRID, GRID_2), ("n_sites", COUNT, 2), ("coupling", REAL, 1.0)],
    "ground_state": [("spec", SPEC, SPEC_2)],
    "product_ground_directions": [("fields", REALS, ANGLES)],
    # errors
    **dict.fromkeys(["SpinAlignError", "ValidationError", "CapacityError",
                     "UndefinedDirectionError", "IndeterminateOptimumError",
                     "QueryBudgetError"], EXCEPTION),
    # hilbert
    "DENSE_SITE_CAP": CONSTANT,
    "PAULI": CONSTANT,
    "GroundState": RECORD,
    "DensityMatrix": [("entries", COMPLEX, np.eye(2) / 2)],
    "StateVector": [("amplitudes", COMPLEX, [1.0, 0.0]), ("n_sites", COUNT, 1)],
    "apply_unitary": [("u", COMPLEX, PAULI["X"]), ("state", STATE, StateVector([1.0, 0.0], 1))],
    "bloch_vector": [("rho", DENSITY, RHO)],
    "hermitian_ground_state": [("h", COMPLEX, PAULI["Z"])],
    "mask_from_sites": [("sites", COUNTS, [1]), ("n_sites", COUNT, 2)],
    "partial_trace": [("state", STATE, STATE_2), ("keep", COUNT, 1)],
    "site_operator": [("pauli", LABEL, "X"), ("site", COUNT, 1), ("n_sites", COUNT, 2)],
    # oracle
    "OracleKind": ENUM_TYPE,
    "Oracle": ORACLE_ARGS,
    "make_oracle": ORACLE_ARGS,
    "query_exact": [("oracle", ORACLE, EXACT), ("candidate", REALS, DIRECTIONS)],
    "query_noisy": [("oracle", ORACLE, NOISY), ("candidate", REALS, DIRECTIONS)],
    "query_measured": [("oracle", ORACLE, MEASURED), ("candidate", REALS, DIRECTIONS)],
    # protocol
    "ProtocolReport": RECORD,
    "LookupTable": TABLE_COLUMNS,
    "build_table": [("grid", GRID, GRID_2), ("candidate", SPEC, SPEC_2)],
    "chi_opt": [("thetas", REALS, ANGLES)],
    "delta_f_planar": [("thetas", REALS, ANGLES), ("chi", REAL, 0.3)],
    "global_rotation": [("chi", REAL, 0.3), ("n_sites", COUNT, 2)],
    "lookup_chi_batch": QUERIES,
    "nearest_rows": QUERIES,
    "nearest_runs": QUERIES,
    "rotate_directions": [("bloch", REALS, DIRECTIONS), ("chi", REAL, 0.3)],
    "run_protocol": [("candidate", SPEC, SPEC_2), ("oracle", ORACLE, EXACT),
                     ("table", TABLE, TABLE_2)],
    "sweep_exact": [("table", TABLE, TABLE_2)],
    "target_angles": [("fields", REALS, [ANGLES]), ("candidate", SPEC, SPEC_2)],
    # similarity
    "SubsetFunctionKind": ENUM_TYPE,
    "cos_theta": [("rho_t", DENSITY, RHO), ("rho_c", DENSITY, RHO)],
    "enumerate_bipartition_subsets": [("n", COUNT, 2)],
    "purity_term": [("rho_t", DENSITY, RHO), ("rho_c", DENSITY, RHO)],
    "similarity_chain": [("bloch_t", REALS, DIRECTIONS), ("bloch_c", REALS, DIRECTIONS)],
    "similarity_general": [("state_t", STATE, STATE_2), ("state_c", STATE, STATE_2),
                           ("subsets", COUNTS, [1, 2]), ("kind", ENUM, SubsetFunctionKind.PURITY)],
    "site_cosines": [("bloch_t", REALS, DIRECTIONS), ("bloch_c", REALS, DIRECTIONS)],
}
STUDIES = {
    "cli.noise_rows": [("table", TABLE, TABLE_2), ("eps", REALS, [0.0, 0.1]), ("trials", COUNT, 3),
                       ("seed", COUNT, 1)],
    "cli.measure_columns": [("grid", GRID, GRID_2), ("candidate", SPEC, SPEC_2),
                            ("trials", COUNT, 3), ("seed", COUNT, 1)],
}

NAN, INF = float("nan"), float("inf")
# Values no parameter should take, or only some kinds should.
ODD = [True, None, NAN, INF, -INF, 1e308, -1e308, 10**400, -1, 2.5, 1.0, 70, "1", " 2 ", 1 + 0j,
       [], [[]], [True, 0.5], [1, [2]], [NAN, 0.1], [[INF, 0.1]], {0: 1}, object()]


def _public_names() -> set[str]:
    # Submodules are attributes once imported, but they are namespaces, not entries.
    return {name for name, value in vars(spinalign).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def _leaves(value):
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _disguises(good) -> list:
    """``good``'s numbers written as strings, as bytes and, where each is 0 or 1, as bools."""
    numbers = np.asarray(good).tolist()

    def written(form, value):
        return [written(form, item) for item in value] if isinstance(value, list) else form(value)

    forms = [str, lambda number: str(number).encode()]
    if all(number in (0, 1) for number in _leaves(numbers)):
        forms.append(bool)
    return [written(form, numbers) for form in forms]


def _must_raise(kind: str, value) -> bool:
    """Whether a call must not return with ``value`` in a parameter of ``kind``."""
    if any(isinstance(leaf, bool) or (isinstance(leaf, float) and math.isnan(leaf))
           or (kind in (REAL, REALS, COMPLEX) and isinstance(leaf, (str, bytes)))
           for leaf in _leaves(value)):
        return True
    flat = isinstance(value, (list, tuple)) and all(map(_is_count, value))
    return {COUNT: not _is_count(value), COUNTS: not (_is_count(value) or flat)}.get(kind, False)


def _call(name: str, arguments: list) -> None:
    """Call the entry with fresh copies of ``arguments``; an iterator it returns is run out."""
    fresh = [value() if isinstance(value, partial) else copy.deepcopy(value)
             for value in arguments]
    out = reduce(getattr, name.split("."), spinalign)(*fresh)
    if isinstance(out, Iterator):
        list(out)


def test_every_public_attribute_has_a_row():
    assert sorted(_public_names() ^ SURFACE.keys()) == []


def test_kernels_are_not_exported():
    # Their callers have checked the inputs; they stay in their modules.
    for name in ("delta_f_sums", "noisy_replies", "shot_estimates", "binomial_std",
                 "target_draws"):
        assert not hasattr(spinalign, name)


def test_each_entry_takes_its_good_arguments():
    for name, row in {**SURFACE, **STUDIES}.items():
        if isinstance(row, list):
            _call(name, [good for _, _, good in row])


def test_no_odd_value_escapes_the_boundary():
    # Every slot of every entry gets every odd value, the other arguments good.
    escapes = []
    started = time.perf_counter()
    for name, row in {**SURFACE, **STUDIES}.items():
        if not isinstance(row, list):
            continue
        goods = [good for _, _, good in row]
        for slot, (parameter, kind, good) in enumerate(row):
            for value in ODD + (_disguises(good) if kind in (REALS, COMPLEX) else []):
                call = f"{name}({parameter}={value!r})"
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        _call(name, [*goods[:slot], value, *goods[slot + 1:]])
                except SpinAlignError:
                    continue
                except Exception as exc:  # an escape, reported below with the others
                    escapes.append(f"{call}: {type(exc).__name__}: {exc}")
                    continue
                if _must_raise(kind, value):
                    escapes.append(f"{call}: returned")
    assert escapes == []
    assert time.perf_counter() - started < 5.0
