import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinalign import (
    CapacityError,
    ChainSpec,
    LookupTable,
    ParameterGrid,
    ValidationError,
    bloch_vector,
    build_hamiltonian,
    enumerate_targets,
    ground_state,
    hermitian_ground_state,
    mask_from_sites,
    partial_trace,
    product_ground_directions,
    site_operator,
    PAULI,
)

from spinalign.chain import check_count, target_count, target_field_array

from conftest import kron_hamiltonian


def test_hamiltonian_decoupled_two_sites():
    h = build_hamiltonian(ChainSpec(2, 0.0, (0.0, 0.0)))
    expected = site_operator("X", 1, 2) + site_operator("X", 2, 2)
    assert np.allclose(h, expected)


def test_hamiltonian_two_site_ring_double_counts_the_bond():
    # the periodic sum visits (1,2) and (2,1), which is the same physical bond
    h = build_hamiltonian(ChainSpec(2, 1.0, (0.0, 0.0)))
    zz = site_operator("Z", 1, 2) @ site_operator("Z", 2, 2)
    expected = site_operator("X", 1, 2) + site_operator("X", 2, 2) + 2 * zz
    assert np.allclose(h, expected)


def test_hamiltonian_traceless_and_hermitian():
    spec = ChainSpec(3, 0.7, (0.1, -0.4, 0.25))
    h = build_hamiltonian(spec)
    assert abs(np.trace(h)) < 1e-12
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_hamiltonian_equals_kron_sum(data):
    n = data.draw(st.integers(2, 6), label="n")
    fields = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n), label="b")
    spec = ChainSpec(n, data.draw(st.floats(-5.0, 5.0), label="J"), fields)
    assert np.array_equal(build_hamiltonian(spec), kron_hamiltonian(spec))


def test_hamiltonian_capacity_cap():
    with pytest.raises(CapacityError):
        build_hamiltonian(ChainSpec(11, 1.0, (0.0,) * 11))


def test_ground_state_decoupled_is_minus_minus():
    gs = ground_state(ChainSpec(2, 0.0, (0.0, 0.0)))
    minus = np.array([1, -1]) / np.sqrt(2)
    assert np.allclose(gs.state.amplitudes, np.kron(minus, minus))
    assert gs.energy == pytest.approx(-2.0)


def test_ground_state_uniform_j0_is_product_of_site_grounds():
    gs = ground_state(ChainSpec(4, 0.0, (0.5,) * 4))
    site = hermitian_ground_state(PAULI["X"] + 0.5 * PAULI["Y"])
    single = site.state.amplitudes
    prod = single
    for _ in range(3):
        prod = np.kron(prod, single)
    # compare up to the global phase fixed per solve
    overlap = abs(np.vdot(prod, gs.state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert gs.energy == pytest.approx(-4 * np.sqrt(1.25), abs=1e-10)


def test_interacting_ground_state_has_no_z_polarization():
    gs = ground_state(ChainSpec(4, 1.0, (0.5, -0.25, 0.0, 0.25)))
    for k in range(1, 5):
        v = bloch_vector(partial_trace(gs.state, mask_from_sites([k], 4)))
        assert abs(v[2]) < 1e-8


def test_ground_energy_invariant_under_cyclic_relabeling():
    fields = (0.5, -0.25, 0.0, 0.25)
    e0 = ground_state(ChainSpec(4, 1.0, fields)).energy
    for shift in range(1, 4):
        rolled = fields[shift:] + fields[:shift]
        assert ground_state(ChainSpec(4, 1.0, rolled)).energy == pytest.approx(e0, abs=1e-9)


def test_j_zero_limit_matches_product_state():
    rng = np.random.default_rng(21)
    for _ in range(5):
        fields = tuple(rng.uniform(-0.5, 0.5, size=3))
        gs = ground_state(ChainSpec(3, 0.0, fields))
        singles = [
            hermitian_ground_state(PAULI["X"] + b * PAULI["Y"]).state.amplitudes
            for b in fields
        ]
        prod = singles[0]
        for s in singles[1:]:
            prod = np.kron(prod, s)
        prod *= np.exp(-1j * np.angle(prod[np.argmax(np.abs(prod) > 1e-8)]))
        assert np.linalg.norm(prod - gs.state.amplitudes) < 1e-8


class TestProductGroundBloch:
    """product_ground_directions: the closed-form site direction of X + bY."""

    def test_array_form_is_bit_equal_to_the_scalar_formula(self):
        b = np.array([[0.0, -0.0, 0.5, -0.25], [1e-300, 5e-324, 1e200, -1e300]])
        dirs = product_ground_directions(b)
        assert dirs.shape == (2, 4, 3)
        for value, got in zip(b.ravel().tolist(), dirs.reshape(-1, 3)):
            s = math.sqrt(1.0 + value * value)
            if math.isinf(s):  # b² overflows: the limit direction (-1/|b|, -sign b, 0)
                s = abs(value)
            assert got.tobytes() == np.array([-1.0 / s, -value / s, 0.0]).tobytes()
            v = product_ground_directions(value)
            assert v.shape == (3,) and v.tobytes() == got.tobytes()

    def test_zero_field(self):
        assert product_ground_directions(0.0).tolist() == [-1.0, 0.0, 0.0]

    def test_half_field(self):
        v = product_ground_directions(0.5)
        assert v[:2] == pytest.approx([-0.894427, -0.447214], abs=1e-6)
        assert v[2] == 0.0

    def test_matches_exact_diagonalization(self):
        for b in (-0.5, -0.1, 0.0, 0.3, 0.5):
            gs = ground_state(ChainSpec(2, 0.0, (b, b)))
            exact = bloch_vector(partial_trace(gs.state, 0b01))
            assert np.max(np.abs(exact - product_ground_directions(b))) < 1e-9


class TestTargetEnumeration:
    def test_reference_sweep_size(self):
        items = list(enumerate_targets(ParameterGrid(-0.5, 0.5, 5), 4))
        assert len(items) == 625
        assert [tid for tid, _ in items] == list(range(625))

    def test_base_d_little_endian_decode(self):
        grid = ParameterGrid(-1.0, 1.0, 2)
        fields = [spec.fields for _, spec in enumerate_targets(grid, 2)]
        assert fields == [(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)]

    def test_first_target_is_all_b_min(self):
        grid = ParameterGrid(-0.5, 0.5, 3)
        _, spec = next(iter(enumerate_targets(grid, 4)))
        assert spec.fields == (-0.5,) * 4

    def test_budget_capacity(self):
        # 10^7 targets: rejected before any (T, N) array is allocated.
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                target_field_array(ParameterGrid(0, 1, 10), 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("start, stop", [(-2, 1), (0, -1), (1.0, 3), (0, 2.5), (True, 3),
                                             (0, False)])
    def test_id_range_must_be_non_negative_integers(self, start, stop):
        with pytest.raises(ValidationError, match="(start|stop) id must be a non-negative integer"):
            target_field_array(ParameterGrid(-0.5, 0.5, 5), 4, start=start, stop=stop)

    @pytest.mark.parametrize("levels, n_sites, shown", [
        (10, 5000, "10^5000"), (10**4000, 10**6, "^1000000"),
    ], ids=["10^5000", "(10^4000)^(10^6)"])
    def test_over_budget_is_named_without_printing_a_huge_count(self, levels, n_sites, shown):
        # Python refuses to print an int of more than 4,300 digits; D^N from 2^64 on is
        # named as D^N, and a D^N of 1.7 GB like (10^4000)^(10^6) is never built.
        with pytest.raises(CapacityError, match=rf"sweep of \S*{re.escape(shown)} targets"):
            target_count(ParameterGrid(0.0, 1.0, levels), n_sites)

    @pytest.mark.parametrize("value", [0, 7, np.int64(3), np.uint8(255)])
    def test_check_count_returns_an_int(self, value):
        count = check_count(value, "count")
        assert type(count) is int and count == value

    @pytest.mark.parametrize("value", [-1, np.int64(-2), True, False, 1.0, "1", None])
    def test_check_count_rejects_other_values(self, value):
        with pytest.raises(ValidationError, match="^count must be a non-negative integer"):
            check_count(value, "count")

    def test_id_range_is_a_slice_of_all_targets(self):
        grid = ParameterGrid(-0.5, 0.5, 5)
        every = target_field_array(grid, 4)
        assert target_field_array(grid, 4, np.int64(620), 700).tobytes() == every[620:].tobytes()


class TestSpecsAndGrids:
    def test_chain_needs_two_sites(self):
        with pytest.raises(ValidationError):
            ChainSpec(1, 1.0, (0.0,))

    def test_field_count_must_match(self):
        with pytest.raises(ValidationError):
            ChainSpec(3, 1.0, (0.0, 0.0))

    def test_grid_values_uniform(self):
        grid = ParameterGrid(-0.5, 0.5, 5)
        assert np.allclose(grid.values, [-0.5, -0.25, 0.0, 0.25, 0.5])

    def test_single_level_grid(self):
        grid = ParameterGrid(-0.5, 0.5, 1)
        assert grid.values.tolist() == [-0.5]

    def test_grid_ordering_enforced(self):
        with pytest.raises(ValidationError):
            ParameterGrid(0.5, -0.5, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coupling_and_fields_rejected(self, bad):
        with pytest.raises(ValidationError):
            ChainSpec(2, bad, (0.0, 0.0))
        with pytest.raises(ValidationError):
            ChainSpec(2, 1.0, (0.0, bad))

    @pytest.mark.parametrize(
        "b_min, b_max, levels",
        [(np.nan, 0.5, 1), (-0.5, np.nan, 5), (-np.inf, 0.5, 5), (-0.5, np.inf, 5),
         (-1.7e308, 1.7e308, 5)],
    )
    def test_non_finite_grid_rejected(self, b_min, b_max, levels):
        with pytest.raises(ValidationError):
            ParameterGrid(b_min, b_max, levels)

    @pytest.mark.parametrize("levels", [2.5, True, "3", 5.0], ids=repr)
    def test_grid_levels_must_be_an_integer(self, levels):
        # 2.5 built a grid whose .values raised TypeError; True read as one level.
        with pytest.raises(ValidationError, match="grid levels must be a non-negative integer"):
            ParameterGrid(0.0, 1.0, levels)

    @pytest.mark.parametrize("n_sites", [2.0, True, "2"], ids=repr)
    def test_site_count_must_be_an_integer(self, n_sites):
        # ChainSpec(2.0, ...) built a chain that build_table and ground_state
        # then failed on with IndexError and TypeError.
        with pytest.raises(ValidationError, match="number of sites must be a non-negative"):
            ChainSpec(n_sites, 1.0, (0.0, 0.0))

    @pytest.mark.parametrize("build, match", [
        (lambda: ChainSpec(2, "x", (0, 0)), "coupling must be a real number, got 'x'"),
        (lambda: ChainSpec(2, None, (0, 0)), "coupling must be a real number, got None"),
        (lambda: ChainSpec(2, 1.0, ("a", "b")), "field must be a real number, got 'a'"),
        (lambda: ChainSpec(2, 1.0, None), "fields must be a sequence, got None"),
        (lambda: ParameterGrid("a", 1, 2), "b_min must be a real number, got 'a'"),
        (lambda: LookupTable(np.arange(2), np.arange(2.0)[:, None], np.zeros(2), np.zeros(2),
                             np.zeros(2), ChainSpec(2, 1.0, (0, 0))), "column f must be 1-D"),
    ], ids=["string-coupling", "no-coupling", "string-fields", "no-fields", "string-bound",
            "2-D-column"])
    def test_constructors_name_the_bad_value(self, build, match):
        # Each ended in a bare TypeError or ValueError.
        with pytest.raises(ValidationError, match=re.escape(match)):
            build()

    def test_numpy_integer_sizes_are_stored_as_ints(self):
        grid = ParameterGrid(0.0, 1.0, np.int64(3))
        spec = ChainSpec(np.int32(2), 1.0, (0.0, 0.0))
        assert type(grid.levels) is int and grid.values.tolist() == [0.0, 0.5, 1.0]
        assert type(spec.n_sites) is int and spec.n_sites == 2


def test_sweep_eigen_residuals(study):
    assert np.max(study.residuals) < 1e-9


def test_sweep_never_degenerate(study):
    assert np.min(study.gaps) > 1e-3
