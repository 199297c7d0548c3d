"""The one number rule at the public boundary: ``errors.real_array`` and, for complex
arrays, ``errors.complex_array``.

Every public entry that takes a real-number array rejects numeric strings, complex values,
object arrays and ragged lists with ValidationError. A scalar argument (a rotation angle χ,
ε, a chain's coupling, a grid bound) must be one real number, and bools are not real numbers.
"""

import numpy as np
import pytest

from spinalign import (
    ChainSpec,
    LookupTable,
    OracleKind,
    ParameterGrid,
    ValidationError,
    build_table,
    chi_opt,
    delta_f_planar,
    global_rotation,
    lookup_chi_batch,
    make_oracle,
    nearest_rows,
    nearest_runs,
    product_ground_directions,
    rotate_directions,
    similarity_chain,
    site_cosines,
    target_angles,
)
from spinalign.errors import complex_array, real_array
from spinalign.oracle import check_epsilon

CANDIDATE = ChainSpec(2, 1.0, (-0.5, -0.5))
TABLE = build_table(ParameterGrid(-0.5, 0.5, 2), CANDIDATE)
DIRECTIONS = product_ground_directions(np.array([0.1, 0.2]))
ANGLES = np.array([0.1, 0.2])
COLUMNS = {"target_ids": np.arange(2), "f": np.array([1.0, 2.0]), "chi": ANGLES,
           "delta_f": ANGLES, "sum_sin": ANGLES}


def _table_with(name):
    return lambda column: LookupTable(**{**COLUMNS, name: column}, candidate=CANDIDATE)


# Each routed entry: its argument's good value and a call that passes one value there.
ENTRIES = {
    "similarity_chain": (DIRECTIONS, lambda x: similarity_chain(x, DIRECTIONS)),
    "similarity_chain-candidate": (DIRECTIONS, lambda x: similarity_chain(DIRECTIONS, x)),
    "site_cosines": (DIRECTIONS, lambda x: site_cosines(x, DIRECTIONS)),
    "site_cosines-candidate": (DIRECTIONS, lambda x: site_cosines(DIRECTIONS, x)),
    "Oracle.query": (DIRECTIONS, lambda x: make_oracle(CANDIDATE).query(x)),
    "target_angles": (np.zeros((3, 2)), lambda x: target_angles(x, CANDIDATE)),
    "chi_opt": (ANGLES, chi_opt),
    "delta_f_planar": (ANGLES, lambda x: delta_f_planar(x, 0.3)),
    "product_ground_directions": (ANGLES, product_ground_directions),
    "rotate_directions": (DIRECTIONS, lambda x: rotate_directions(x, 0.3)),
    **{f"LookupTable-{name}": (COLUMNS[name], _table_with(name))
       for name in ("f", "chi", "delta_f", "sum_sin")},
    "nearest_runs": (ANGLES, lambda x: nearest_runs(TABLE, x)),
    "nearest_rows": (ANGLES, lambda x: nearest_rows(TABLE, x)),
    "lookup_chi_batch": (ANGLES, lambda x: lookup_chi_batch(TABLE, x)),
}

# Each bad input is made from the good value, so only its kind is wrong.
BAD = {
    "numeric-strings": lambda good: good.astype(str),
    "complex": lambda good: good + 0.5j,
    "object": lambda good: good.astype(object),
    "ragged": lambda good: [good.tolist(), [0.0]],
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_takes_its_good_value(entry):
    good, call = ENTRIES[entry]
    call(good)
    call(good.tolist())


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_rejects_what_is_not_real_numbers(entry, kind):
    # Numeric strings were parsed as the numbers they spell, and complex values lost their
    # imaginary part with only a ComplexWarning.
    good, call = ENTRIES[entry]
    with pytest.raises(ValidationError, match="must hold real numbers only"):
        call(BAD[kind](good))


@pytest.mark.parametrize("call", [
    lambda chi: rotate_directions(DIRECTIONS, chi),
    lambda chi: global_rotation(chi, 2),
    lambda chi: delta_f_planar(ANGLES, chi),
], ids=["rotate_directions", "global_rotation", "delta_f_planar"])
@pytest.mark.parametrize("chi", ["x", "0.3", 0.3 + 0j, None, [0.1, 0.2], np.nan, np.inf, -np.inf],
                         ids=["string", "numeric-string", "complex", "none", "two-angles", "nan",
                              "inf", "-inf"])
def test_rotation_angle_is_one_real_number(call, chi):
    # Each raised a bare ValueError or TypeError, or took a complex angle; NaN gave NaN
    # entries, and ±inf did so after a RuntimeWarning.
    with pytest.raises(ValidationError, match="^chi must"):
        call(chi)


@pytest.mark.parametrize("call", [
    lambda: check_epsilon(True),
    lambda: check_epsilon(" 5e-2 "),
    lambda: make_oracle(CANDIDATE, OracleKind.NOISY, epsilon="0.1"),
    lambda: ChainSpec(2, 10**400, (0, 0)),
    lambda: ChainSpec(2, 1.0, (0, 10**400)),
    lambda: ParameterGrid(10**400, 1, 2),
    lambda: ChainSpec(2, 1.0, {0: 1, 1: 2}),
], ids=["epsilon-bool", "epsilon-string", "oracle-epsilon-string", "huge-coupling",
        "huge-field", "huge-bound", "dict-fields"])
def test_scalar_arguments_are_one_real_number(call):
    # check_epsilon parsed strings and read True as 1.0; a 10**400 ended in a bare
    # OverflowError; the dict's keys became the fields (0.0, 1.0).
    with pytest.raises(ValidationError, match="must hold real numbers only$"):
        call()


def test_global_rotation_takes_a_site_count():
    with pytest.raises(ValidationError, match="n_sites must be a non-negative integer"):
        global_rotation(0.3, "x")


class TestRealArray:
    def test_float_input_is_not_copied(self):
        values = np.ones((2, 3))
        assert real_array(values, "values", (None, 3)) is values

    @pytest.mark.parametrize("value", [[1, 2], np.float32([1.5, 2])])
    def test_other_real_input_becomes_float64(self, value):
        out = real_array(value, "values")
        assert out.dtype == np.float64 and out.tolist() == np.asarray(value).tolist()

    @pytest.mark.parametrize("value", [np.array([True, False]), [False, True], True, np.True_],
                             ids=repr)
    def test_bools_are_rejected(self, value):
        # Each was taken as the float 1.0 or 0.0.
        with pytest.raises(ValidationError, match="^values must hold real numbers only$"):
            real_array(value, "values")

    @pytest.mark.parametrize("shape, value", [
        ((None, 3), np.zeros((0, 3))),
        ((None, 3), np.zeros((5, 3))),
        ((2, None), np.zeros((2, 7))),
        ((), 0.5),
        (None, np.zeros((2, 2, 2))),
    ])
    def test_none_matches_any_size(self, shape, value):
        assert real_array(value, "values", shape).shape == np.shape(value)

    @pytest.mark.parametrize("shape, value", [
        ((None, 3), np.zeros((5, 2))),
        ((None, 3), np.zeros(3)),
        ((None, 3), np.zeros((1, 5, 3))),
        ((), [0.5]),
        ((None,), 0.5),
    ])
    def test_other_shapes_are_rejected(self, shape, value):
        with pytest.raises(ValidationError, match=rf"^values must be {len(shape)}-D of shape"):
            real_array(value, "values", shape)

    def test_table_columns_are_read_only_copies(self):
        f = np.array([1.0, 2.0])
        table = LookupTable(**{**COLUMNS, "f": f}, candidate=CANDIDATE)
        assert f.flags.writeable and not table.f.flags.writeable
        assert not np.shares_memory(f, table.f)


@pytest.mark.parametrize("call", [
    lambda: ChainSpec(2, 1.0, (True, 0.5)),
    lambda: real_array([True, 0.5], "values"),
    lambda: real_array([[0.5], [np.True_]], "values"),
    lambda: real_array((np.array([False]), np.array([0.5])), "values"),
], ids=["chain-fields", "list", "nested-numpy-bool", "tuple-of-arrays"])
def test_a_bool_inside_a_list_is_not_a_real_number(call):
    # numpy gives such a list a float dtype, so True passed as 1.0.
    with pytest.raises(ValidationError, match="must hold real numbers only$"):
        call()


class TestComplexArray:
    """The complex entry of the same rule: the kinds it takes add complex, and it copies."""

    @pytest.mark.parametrize("value", [np.array([0.5, 1j]), np.array([1.0, 0.0]), [1, 0.5j]],
                             ids=["complex", "float", "list"])
    def test_a_read_only_complex_copy(self, value):
        out = complex_array(value, "values", (2,))
        assert out.dtype == np.complex128 and not out.flags.writeable
        assert not np.shares_memory(out, value)
        assert out.tobytes() == np.asarray(value, complex).tobytes()

    @pytest.mark.parametrize("value", [[True, 0.5j], np.array([True]), ["1"], [b"1"], "1j",
                                       np.array([1, 2], dtype=object), [[1], [1, 2]]], ids=repr)
    def test_numbers_only(self, value):
        with pytest.raises(ValidationError, match="^values must hold numbers only$"):
            complex_array(value, "values")


def test_a_float_array_is_returned_unscanned():
    # The bool scan is for lists and tuples; an ndarray's dtype already says what it holds.
    values = np.array([0.25, 0.5])
    assert real_array(values, "values") is values


@pytest.mark.parametrize("call", [
    lambda: rotate_directions(DIRECTIONS, 1e308),
    lambda: rotate_directions(DIRECTIONS, -1e308),
    lambda: global_rotation(1e308, 2),
    lambda: global_rotation(2e307, 10),
], ids=["rotate", "rotate-negative", "global", "global-N-chi"])
def test_rotation_phase_must_be_finite(call):
    # 2χ (a Bloch vector's turn) or N·χ (the state's phase) overflowed: numpy warned of an
    # invalid value in cos, or of an overflow in multiply.
    with pytest.raises(ValidationError, match="^chi's phase"):
        call()


@pytest.mark.parametrize("call", [
    lambda bad: delta_f_planar([bad, 0.1], 0.2),
    lambda bad: target_angles([[bad, 0.1]], CANDIDATE),
], ids=["delta_f_planar", "target_angles"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_angles_and_target_fields_must_be_finite(call, bad):
    # NaN came back as NaN; delta_f_planar warned on inf, and target_angles gave π/2.
    with pytest.raises(ValidationError, match="must be finite$"):
        call(bad)


def test_build_table_takes_a_grid():
    # "grid".levels raised AttributeError.
    with pytest.raises(ValidationError, match="^grid must be of type ParameterGrid"):
        build_table("grid", CANDIDATE)
