import numpy as np
import pytest

from spinalign import (
    CapacityError,
    ChainSpec,
    ParameterGrid,
    ValidationError,
    bloch_vector,
    build_hamiltonian,
    enumerate_targets,
    ground_state,
    hermitian_ground_state,
    mask_from_sites,
    partial_trace,
    product_ground_bloch,
    site_operator,
    target_fields,
    Operator,
    PAULI,
)


def test_hamiltonian_decoupled_two_sites():
    h = build_hamiltonian(ChainSpec(2, 0.0, (0.0, 0.0)))
    expected = site_operator("X", 1, 2).entries + site_operator("X", 2, 2).entries
    assert np.allclose(h.entries, expected)


def test_hamiltonian_two_site_ring_double_counts_the_bond():
    # the periodic sum visits (1,2) and (2,1), which is the same physical bond
    h = build_hamiltonian(ChainSpec(2, 1.0, (0.0, 0.0)))
    zz = site_operator("Z", 1, 2).entries @ site_operator("Z", 2, 2).entries
    expected = site_operator("X", 1, 2).entries + site_operator("X", 2, 2).entries + 2 * zz
    assert np.allclose(h.entries, expected)


def test_hamiltonian_traceless_and_hermitian():
    spec = ChainSpec(3, 0.7, (0.1, -0.4, 0.25))
    h = build_hamiltonian(spec)
    assert abs(np.trace(h.entries)) < 1e-12
    assert np.max(np.abs(h.entries - h.entries.conj().T)) < 1e-12


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
    site = hermitian_ground_state(Operator(PAULI["X"] + 0.5 * PAULI["Y"]))
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
        assert abs(v.z) < 1e-8


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
            hermitian_ground_state(Operator(PAULI["X"] + b * PAULI["Y"])).state.amplitudes
            for b in fields
        ]
        prod = singles[0]
        for s in singles[1:]:
            prod = np.kron(prod, s)
        prod *= np.exp(-1j * np.angle(prod[np.argmax(np.abs(prod) > 1e-8)]))
        assert np.linalg.norm(prod - gs.state.amplitudes) < 1e-8


class TestProductGroundBloch:
    def test_zero_field(self):
        v = product_ground_bloch(0.0)
        assert (v.x, v.y, v.z) == (-1.0, 0.0, 0.0)

    def test_half_field(self):
        v = product_ground_bloch(0.5)
        assert v.x == pytest.approx(-0.894427, abs=1e-6)
        assert v.y == pytest.approx(-0.447214, abs=1e-6)
        assert v.z == 0.0

    def test_matches_exact_diagonalization(self):
        for b in (-0.5, -0.1, 0.0, 0.3, 0.5):
            gs = ground_state(ChainSpec(2, 0.0, (b, b)))
            exact = bloch_vector(partial_trace(gs.state, 0b01))
            closed = product_ground_bloch(b)
            assert abs(exact.x - closed.x) < 1e-9
            assert abs(exact.y - closed.y) < 1e-9
            assert abs(exact.z - closed.z) < 1e-9


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
        with pytest.raises(CapacityError):
            list(enumerate_targets(ParameterGrid(0, 1, 10), 4, budget=100))

    def test_target_fields_range_check(self):
        with pytest.raises(ValidationError):
            target_fields(625, ParameterGrid(-0.5, 0.5, 5), 4)


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


def test_sweep_eigen_residuals(study):
    assert np.max(study.residuals) < 1e-9


def test_sweep_never_degenerate(study):
    assert np.min(study.gaps) > 1e-3
