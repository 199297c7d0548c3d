import numpy as np
import pytest

from spinalign import (
    CapacityError,
    DensityMatrix,
    Operator,
    PAULI,
    StateVector,
    ValidationError,
    apply_unitary,
    basis_state,
    hermitian_ground_state,
    kron,
    mask_from_sites,
    partial_trace,
    product_state,
    site_operator,
)

I2 = Operator(PAULI["I"], hermitian_hint=True)
X = Operator(PAULI["X"], hermitian_hint=True)
Y = Operator(PAULI["Y"], hermitian_hint=True)
Z = Operator(PAULI["Z"], hermitian_hint=True)


class TestKron:
    def test_identity_case(self):
        assert np.allclose(kron(I2, I2).entries, np.eye(4))

    def test_pauli_zz(self):
        assert np.allclose(kron(Z, Z).entries, np.diag([1, -1, -1, 1]))

    def test_xy_corner_element(self):
        # hand expansion of the 2x2 blocks: (X otimes Y)[0, 3] = X[0,1] Y[0,1]
        assert kron(X, Y).entries[0, 3] == -1j

    def test_hermitian_hint_propagates(self):
        assert kron(X, Z).hermitian_hint
        assert not kron(X, Operator(PAULI["Z"])).hermitian_hint

    def test_capacity_error(self):
        big = Operator(np.eye(2**6))
        with pytest.raises(CapacityError):
            kron(kron(big, big), Operator(np.eye(2)))


class TestSiteOperator:
    def test_single_site(self):
        assert np.allclose(site_operator("X", 1, 1).entries, PAULI["X"])

    def test_involution(self):
        z2 = site_operator("Z", 2, 2)
        assert np.allclose(z2.entries @ z2.entries, np.eye(4))

    def test_traceless(self):
        assert abs(np.trace(site_operator("Y", 3, 4).entries)) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            site_operator("X", 5, 4)

    def test_unknown_label(self):
        with pytest.raises(ValidationError):
            site_operator("Q", 1, 2)


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
        res = hermitian_ground_state(Operator(PAULI["X"] + 0.5 * PAULI["Y"]))
        assert res.energy == pytest.approx(-np.sqrt(1.25), abs=1e-12)

    def test_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            h = Operator(m + m.conj().T)
            res = hermitian_ground_state(h)
            resid = np.linalg.norm(
                h.entries @ res.state.amplitudes - res.energy * res.state.amplitudes
            )
            assert resid < 1e-9

    def test_minimality_against_rayleigh_quotients(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            h = Operator(m + m.conj().T)
            e0 = hermitian_ground_state(h).energy
            for _ in range(100):
                v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                v /= np.linalg.norm(v)
                assert e0 <= (v.conj() @ h.entries @ v).real + 1e-10

    def test_phase_convention_deterministic(self):
        h = Operator(PAULI["X"] + 0.3 * PAULI["Y"])
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
            hermitian_ground_state(Operator(np.array([[0, 1], [0, 0]])))


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
        rotated = apply_unitary(Operator(full), state)
        for k in range(1, n + 1):
            lhs = partial_trace(rotated, mask_from_sites([k], n)).entries
            rhs = v1 @ partial_trace(state, mask_from_sites([k], n)).entries @ v1.conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestApplyUnitary:
    def test_identity(self):
        psi = basis_state(2, 1)
        assert np.array_equal(apply_unitary(kron(I2, I2), psi).amplitudes, psi.amplitudes)

    def test_bit_flip(self):
        out = apply_unitary(kron(X, I2), basis_state(2, 0b00))
        assert np.allclose(out.amplitudes, basis_state(2, 0b10).amplitudes)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(m)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        out = apply_unitary(Operator(q), StateVector(v / np.linalg.norm(v), 2))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            apply_unitary(Operator(np.diag([1.0, 2.0])), basis_state(1, 0))


class TestDomainTypes:
    def test_state_vector_must_be_normalized(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, 1.0]), 1)

    def test_state_vector_length_checked(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, 0, 0]), 2)

    def test_hermitian_hint_validated(self):
        with pytest.raises(ValidationError):
            Operator(np.array([[0, 1], [0, 0]]), hermitian_hint=True)

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([0.7, 0.7]))
