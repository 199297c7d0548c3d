import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinalign import (
    ChainSpec,
    DensityMatrix,
    PAULI,
    StateVector,
    ValidationError,
    apply_unitary,
    bloch_vector,
    build_hamiltonian,
    global_rotation,
    hermitian_ground_state,
    mask_from_sites,
    partial_trace,
    site_operator,
)

from spinalign.hilbert import NORM_TOL

from conftest import basis_state, product_state

I2, X, Z = PAULI["I"], PAULI["X"], PAULI["Z"]


class TestSiteOperator:
    def test_single_site(self):
        assert np.allclose(site_operator("X", 1, 1), PAULI["X"])

    def test_involution(self):
        z2 = site_operator("Z", 2, 2)
        assert np.allclose(z2 @ z2, np.eye(4))

    def test_traceless(self):
        assert abs(np.trace(site_operator("Y", 3, 4))) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            site_operator("X", 5, 4)

    def test_unknown_label(self):
        with pytest.raises(ValidationError):
            site_operator("Q", 1, 2)

    def test_built_matrices_are_read_only(self):
        for m in (site_operator("X", 1, 2), build_hamiltonian(ChainSpec(2, 1.0, (0.0, 0.5))),
                  global_rotation(0.3, 2)):
            assert m.dtype == complex and m.shape == (4, 4)
            with pytest.raises(ValueError):
                m[0, 0] = 1.0


class TestGroundState:
    def test_pauli_z(self):
        res = hermitian_ground_state(Z)
        assert res.energy == pytest.approx(-1.0)
        assert np.allclose(res.state.amplitudes, [0, 1])
        assert res.gap == pytest.approx(2.0)
        assert not res.degenerate

    def test_pauli_x(self):
        res = hermitian_ground_state(X)
        assert res.energy == pytest.approx(-1.0)
        assert np.allclose(res.state.amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_tilted_field_closed_form(self):
        # eigenvalues of X + bY are ±sqrt(1 + b²)
        res = hermitian_ground_state(PAULI["X"] + 0.5 * PAULI["Y"])
        assert res.energy == pytest.approx(-np.sqrt(1.25), abs=1e-12)

    def test_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            h = m + m.conj().T
            res = hermitian_ground_state(h)
            resid = np.linalg.norm(
                h @ res.state.amplitudes - res.energy * res.state.amplitudes
            )
            assert resid < 1e-9

    def test_minimality_against_rayleigh_quotients(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            h = m + m.conj().T
            e0 = hermitian_ground_state(h).energy
            for _ in range(100):
                v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                v /= np.linalg.norm(v)
                assert e0 <= (v.conj() @ h @ v).real + 1e-10

    def test_phase_convention_deterministic(self):
        h = PAULI["X"] + 0.3 * PAULI["Y"]
        a = hermitian_ground_state(h).state.amplitudes
        b = hermitian_ground_state(h).state.amplitudes
        assert np.array_equal(a, b)
        first = a[np.argmax(np.abs(a) > 1e-8)]
        assert first.real > 0 and abs(first.imag) < 1e-12

    def test_degenerate_flag(self):
        res = hermitian_ground_state(I2)
        assert res.degenerate and res.gap == pytest.approx(0.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_ground_state(np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValidationError):
            hermitian_ground_state(np.full((2, 2), np.nan))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            hermitian_ground_state(np.ones((2, 4)))

    def test_leaves_its_input_writable(self):
        h = np.array(PAULI["X"])
        hermitian_ground_state(h)
        h[0, 0] = 1.0


class TestPartialTrace:
    def test_bell_state(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), 2)
        rho = partial_trace(bell, mask_from_sites([1], 2))
        assert np.allclose(rho.entries, np.eye(2) / 2)

    def test_product_state(self):
        phi = np.array([0.6, 0.8j])
        chi = np.array([1, 1]) / np.sqrt(2)
        rho = partial_trace(product_state([phi, chi]), mask_from_sites([1], 2))
        assert np.allclose(rho.entries, np.outer(phi, phi.conj()))

    def test_ghz4_two_site_marginal(self):
        ghz = np.zeros(16, dtype=complex)
        ghz[0] = ghz[15] = 1 / np.sqrt(2)
        rho = partial_trace(StateVector(ghz, 4), mask_from_sites([1, 2], 4))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho.entries, expected)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValidationError):
            partial_trace(basis_state(2, 0), 0)

    def test_out_of_range_mask_rejected(self):
        with pytest.raises(ValidationError):
            partial_trace(basis_state(2, 0), 0b100)

    @pytest.mark.parametrize("mask", [1.0, True, "1", None])
    def test_non_integer_mask_rejected(self, mask):
        with pytest.raises(ValidationError, match="integer"):
            partial_trace(basis_state(2, 0), mask)

    def test_random_states_consistency(self):
        # every marginal of a normalized state is a valid density matrix;
        # the DensityMatrix constructor enforces trace/PSD/purity bounds
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5):
            for _ in range(250):
                v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                state = StateVector(v / np.linalg.norm(v), n)
                for mask in range(1, 2**n):
                    rho = partial_trace(state, mask)
                    assert abs(np.trace(rho.entries).real - 1.0) < 1e-10

    def test_rotation_commutes_with_partial_trace(self):
        # tracing after a global product rotation equals rotating the marginal
        rng = np.random.default_rng(12)
        n = 4
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        chi = 0.7
        sigma = axis[0] * PAULI["X"] + axis[1] * PAULI["Y"] + axis[2] * PAULI["Z"]
        v1 = np.cos(chi) * np.eye(2) - 1j * np.sin(chi) * sigma
        full = np.array([[1.0 + 0j]])
        for _ in range(n):
            full = np.kron(full, v1)
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(v / np.linalg.norm(v), n)
        rotated = apply_unitary(full, state)
        for k in range(1, n + 1):
            lhs = partial_trace(rotated, mask_from_sites([k], n)).entries
            rhs = v1 @ partial_trace(state, mask_from_sites([k], n)).entries @ v1.conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-10


    @pytest.mark.parametrize("norm", [1 + 0.9e-10, 1 - 0.9e-10, 1 + 0.99 * NORM_TOL,
                                      1 - 0.99 * NORM_TOL])
    def test_every_accepted_state_partial_traces(self, norm):
        # StateVector accepts a norm within NORM_TOL of 1, so the trace of a
        # reduced state, a squared norm, may be about 2·NORM_TOL away from 1.
        state = StateVector(np.array([norm, 0, 0, 0]), 2)
        assert state.bloch.tolist() == [[0.0, 0.0, norm**2]] * 2
        for mask in (1, 2, 3):
            assert partial_trace(state, mask).purity == pytest.approx(norm**4, abs=1e-15)
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 4, 5):
            for _ in range(20):
                v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                state = StateVector(norm * v / np.linalg.norm(v), n)
                for mask in range(1, 2**n):
                    partial_trace(state, mask)

    def test_apply_unitary_output_partial_traces(self):
        # |U†U - I| is 0.98e-10, within UNITARY_TOL; the output's squared
        # norm, and so its purity, is off by about 2e-10.
        out = apply_unitary((1 + 0.49e-10) * np.eye(4), basis_state(2, 0))
        assert partial_trace(out, 0b11).purity == pytest.approx(1 + 1.96e-10, abs=1e-15)


class TestApplyUnitary:
    def test_identity(self):
        psi = basis_state(2, 1)
        assert np.array_equal(apply_unitary(np.eye(4), psi).amplitudes,
                              psi.amplitudes)

    def test_bit_flip(self):
        out = apply_unitary(np.kron(PAULI["X"], PAULI["I"]), basis_state(2, 0b00))
        assert np.allclose(out.amplitudes, basis_state(2, 0b10).amplitudes)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(m)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        out = apply_unitary(q, StateVector(v / np.linalg.norm(v), 2))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_an_operator_that_moves_the_norm_is_named(self):
        # Each entry of U†U - I is 0.98e-10, within UNITARY_TOL, but U takes the
        # uniform state's norm to 1 + 1.96e-10: the operator is at fault, not the state.
        u = np.eye(4) + 0.49e-10 * np.ones((4, 4))
        with pytest.raises(ValidationError, match="^operator is not unitary"):
            apply_unitary(u, StateVector(np.full(4, 0.5), 2))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            apply_unitary(np.diag([1.0, 2.0]), basis_state(1, 0))
        with pytest.raises(ValidationError):
            apply_unitary(np.full((2, 2), np.nan), basis_state(1, 0))


class TestDomainTypes:
    def test_state_vector_must_be_normalized(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, 1.0]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_state_vector_norm_must_be_finite(self, bad):
        # abs(norm - 1) > tol is False for a NaN norm, so the check must be written for it.
        with pytest.raises(ValidationError):
            StateVector(np.array([bad, 0.0, 0.0, 0.0]), 2)

    def test_state_vector_length_checked(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, 0, 0]), 2)

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([0.7, 0.7]))

    @pytest.mark.parametrize("make, message", [
        (lambda: StateVector(np.array([2.0, 0.0]), 1), "|psi| = 2.0"),
        (lambda: DensityMatrix(np.diag([0.7, 0.7])), "trace is 1.4, expected 1"),
    ])
    def test_messages_print_plain_floats(self, make, message):
        with pytest.raises(ValidationError) as excinfo:
            make()
        assert message in str(excinfo.value) and "np." not in str(excinfo.value)

    def test_density_matrix_rejects_nan(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.full((2, 2), np.nan))

    @pytest.mark.parametrize(
        "entry",
        [hermitian_ground_state, DensityMatrix, lambda m: apply_unitary(m, basis_state(1, 0))],
        ids=["hermitian_ground_state", "DensityMatrix", "apply_unitary"],
    )
    def test_ragged_matrix_is_a_validation_error(self, entry):
        with pytest.raises(ValidationError, match="square matrix"):
            entry([[1, 2], [3]])


def _random_state(data, n_min: int, n_max: int) -> StateVector:
    n = data.draw(st.integers(n_min, n_max), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(v / np.linalg.norm(v), n)


class TestBlochFastPath:
    """The per-site Bloch vectors against the partial-trace reference."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_bloch_matches_partial_trace(self, data):
        state = _random_state(data, 1, 8)
        assert state.bloch.shape == (state.n_sites, 3)
        for k in range(state.n_sites):
            want = bloch_vector(partial_trace(state, 1 << k))
            assert np.max(np.abs(state.bloch[k] - want)) <= 1e-12

    def test_bloch_is_cached_and_read_only(self):
        state = basis_state(3, 0b010)
        assert state.bloch is state.bloch
        assert np.array_equal(state.bloch, [[0, 0, 1], [0, 0, -1], [0, 0, 1]])
        with pytest.raises(ValueError):
            state.bloch[0, 0] = 1.0
