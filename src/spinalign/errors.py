"""Exception types, and the one rule per argument kind shared across the library.

Counts, ids, sites and masks go through :func:`check_count`, sequences of them and seeds
through :func:`check_counts`, a dense register's size through :func:`check_register`, real
numbers and arrays of them through :func:`real_array`, complex arrays (a state's amplitudes,
an operator) through :func:`complex_array`, squared Bloch lengths through
:func:`check_directions`, and the library's own values (a spec, a grid, a table, a state)
through :func:`check_type`.
"""

import math

import numpy as np

# Dense matrices are capped at 2**DENSE_SITE_CAP; larger chains go through
# the closed-form site directions in the chain module.
DENSE_SITE_CAP = 10
# Sites whose Bloch vector is shorter than this have no usable direction;
# the cosine metric is meaningless for (nearly) maximally mixed sites.
DIRECTION_FLOOR = 1e-6


class SpinAlignError(Exception):
    """Base class for all library errors."""


class ValidationError(SpinAlignError, ValueError):
    """An input violates a documented precondition."""


class CapacityError(SpinAlignError):
    """A requested dense object or sweep exceeds the configured size cap."""


class UndefinedDirectionError(SpinAlignError):
    """A Bloch vector (or its in-plane projection) is too short to define a direction."""


class IndeterminateOptimumError(SpinAlignError):
    """Every rotation angle is stationary; no optimal angle exists."""


class QueryBudgetError(SpinAlignError):
    """The oracle's query budget is exhausted."""


def _is_count(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= 0


def check_count(value, name: str) -> int:
    """The one count or id check: ``value`` as an int >= 0, numpy integers included.

    ValidationError for bools, floats, negatives and other types.
    """
    if not _is_count(value):
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def check_counts(values, name: str) -> list[int]:
    """A count, or a flat list, tuple or 1-D array of counts, as a list of ints.

    A nested sequence fails, as does any entry :func:`check_count` refuses.
    """
    flat = isinstance(values, (list, tuple)) or getattr(values, "ndim", None) == 1
    entries = values if flat else [values]
    if not all(map(_is_count, entries)):
        raise ValidationError(f"{name} must be a non-negative integer or a sequence of them, "
                              f"got {values!r}")
    return [int(entry) for entry in entries]


def check_register(n_sites, name: str = "n_sites") -> int:
    """The one register-size rule: a count (:func:`check_count`) up to DENSE_SITE_CAP."""
    if check_count(n_sites, name) > DENSE_SITE_CAP:
        raise CapacityError(f"{name} {n_sites} exceeds dense cap {DENSE_SITE_CAP}")
    return int(n_sites)


def check_directions(norms2: np.ndarray) -> None:
    """Reject a squared Bloch length below DIRECTION_FLOOR², or not finite: no defined angle."""
    # One min and one max, with no temporary array; both carry a NaN, which fails the test.
    if norms2.size and not DIRECTION_FLOOR**2 <= norms2.min() <= norms2.max() < math.inf:
        raise UndefinedDirectionError(
            "Bloch norm below direction floor or not finite; angle undefined"
        )


def check_type(value, kind: type, name: str):
    """``value`` as it is if it is a ``kind``; ValidationError otherwise."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def _number_array(value, name: str, shape: tuple[int | None, ...] | None, dtype: type,
                  copy: bool = False) -> np.ndarray:
    """The one numeric conversion, to ``dtype``: float, or complex, which takes complex too.
    Ragged, bool, string, bytes or object input (an int beyond uint64 is one), a bool inside a
    list or tuple, or a shape unlike ``shape`` (None: any size) fails; an ndarray is not
    scanned for bools, its dtype says. An array of ``dtype`` is returned as is unless ``copy``."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # a ragged list
        arr = None
    kinds, numbers = ("iufc", "numbers") if dtype is complex else ("iuf", "real numbers")
    if arr is None or arr.dtype.kind not in kinds or isinstance(value, (list, tuple)) and any(
            isinstance(entry, (bool, np.bool_)) for entry in np.array(value, object).flat):
        raise ValidationError(f"{name} must hold {numbers} only")
    if shape is not None and not (arr.ndim == len(shape) and all(
            size in (None, got) for size, got in zip(shape, arr.shape))):
        raise ValidationError(f"{name} must be {len(shape)}-D of shape {shape}, got {arr.shape}")
    return arr.astype(dtype, copy=copy)


def real_array(value, name: str, shape: tuple[int | None, ...] | None = None,
               finite: bool = False) -> np.ndarray:
    """The one real-number check: ``value``, a scalar as shape (), as float; a float array as
    is. :func:`_number_array` says what fails; with ``finite`` a NaN or an infinity does too."""
    arr = _number_array(value, name, shape, float)
    if finite and not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    return arr


def complex_array(value, name: str, shape: tuple[int | None, ...] | None = None) -> np.ndarray:
    """The one complex-number check: a read-only complex copy of ``value``, as for real_array."""
    arr = _number_array(value, name, shape, complex, copy=True)
    arr.setflags(write=False)
    return arr
