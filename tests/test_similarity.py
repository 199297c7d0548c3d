import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from spinalign import (
    ChainSpec,
    DensityMatrix,
    PAULI,
    StateVector,
    SubsetFunctionKind,
    UndefinedDirectionError,
    ValidationError,
    apply_unitary,
    bloch_vector,
    chi_opt,
    cos_theta,
    enumerate_bipartition_subsets,
    global_rotation,
    ground_state,
    product_ground_directions,
    purity_term,
    similarity_chain,
    similarity_general,
    site_cosines,
)


def rho_from_bloch(v: np.ndarray) -> DensityMatrix:
    m = (np.eye(2) + v[0] * PAULI["X"] + v[1] * PAULI["Y"] + v[2] * PAULI["Z"]) / 2
    return DensityMatrix(m)


class TestBlochReadoff:
    def test_maximally_mixed(self):
        v = bloch_vector(DensityMatrix(np.eye(2) / 2))
        assert v.shape == (3,) and v.tolist() == [0.0, 0.0, 0.0]

    def test_computational_zero(self):
        v = bloch_vector(DensityMatrix(np.diag([1.0, 0.0])))
        assert v.tolist() == [0.0, 0.0, 1.0]

    def test_readoff(self):
        v = bloch_vector(rho_from_bloch(np.array([0.6, -0.8, 0.0])))
        assert v == pytest.approx([0.6, -0.8, 0.0], abs=1e-12)

    def test_reconstruction_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            rho = rho_from_bloch(v)
            w = bloch_vector(rho)
            back = rho_from_bloch(w)
            assert np.max(np.abs(back.entries - rho.entries)) < 1e-10

    def test_wrong_dimension(self):
        with pytest.raises(ValidationError):
            bloch_vector(DensityMatrix(np.eye(4) / 4))

    def test_norm_bound_enforced(self):
        # A Bloch vector longer than 1 has no density matrix to be read from.
        with pytest.raises(ValidationError):
            rho_from_bloch(np.array([1.0, 1.0, 0.0]))


class TestCosTheta:
    def test_identical_pure_states(self):
        rho = rho_from_bloch(np.array([0.0, 1.0, 0.0]))
        assert cos_theta(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal(self):
        a = rho_from_bloch(np.array([0.0, 0.0, 1.0]))
        b = rho_from_bloch(np.array([0.0, 0.0, -1.0]))
        assert cos_theta(a, b) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_directions_mixedness_cancels(self):
        t = rho_from_bloch(0.9 * np.array([-1.0, 0.0, 0.0]))
        c = rho_from_bloch(0.5 * np.array([0.0, -1.0, 0.0]))
        assert cos_theta(t, c) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_rejected(self):
        with pytest.raises(UndefinedDirectionError):
            cos_theta(DensityMatrix(np.eye(2) / 2), rho_from_bloch(np.array([1.0, 0, 0])))

    def test_trace_form_equals_dot_product_form(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            a = rng.normal(size=3)
            a *= rng.uniform(0.1, 1.0) / np.linalg.norm(a)
            b = rng.normal(size=3)
            b *= rng.uniform(0.1, 1.0) / np.linalg.norm(b)
            lhs = cos_theta(rho_from_bloch(a), rho_from_bloch(b))
            rhs = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert abs(lhs - rhs) < 1e-9

    def test_denominator_invariant_under_rotation(self):
        rng = np.random.default_rng(9)
        v = np.array([0.3, -0.5, 0.2])
        rho = rho_from_bloch(v)
        base = 2 * rho.purity - 1
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            chi = rng.uniform(-np.pi, np.pi)
            sigma = axis[0] * PAULI["X"] + axis[1] * PAULI["Y"] + axis[2] * PAULI["Z"]
            u = np.cos(chi) * np.eye(2) - 1j * np.sin(chi) * sigma
            rotated = DensityMatrix(u @ rho.entries @ u.conj().T)
            assert abs((2 * rotated.purity - 1) - base) < 1e-12


def chain_angles(target, candidate) -> np.ndarray:
    """similarity_chain's angles for (N, 3) target and candidate rows."""
    return similarity_chain(np.atleast_2d(target), np.atleast_2d(candidate))[1]


def in_plane(rng, size):
    """``size`` random vectors in the xy plane, of lengths in [0.1, 1)."""
    phi = rng.uniform(-np.pi, np.pi, size)
    return rng.uniform(0.1, 1.0, (size, 1)) * np.stack([np.cos(phi), np.sin(phi), 0 * phi], 1)


class TestChainAngles:
    def test_zero_for_equal_chains(self):
        v = np.array([[0.4, 0.3, 0.0], [-0.2, 0.1, 0.5]])
        assert chain_angles(v, v).tolist() == [0.0, 0.0]

    def test_product_ground_pair(self):
        c = product_ground_directions(-0.5)
        r = product_ground_directions(+0.5)
        (theta,) = chain_angles(r, c)
        assert theta == pytest.approx(2 * np.arctan(0.5), abs=1e-12)
        assert theta == pytest.approx(0.927295, abs=1e-6)

    def test_antisymmetric(self):
        rng = np.random.default_rng(10)
        u, v = rng.normal(size=(2, 50, 3))
        a = u * rng.uniform(0.05, 1.0, (50, 1)) / np.linalg.norm(u, axis=1, keepdims=True)
        b = v * rng.uniform(0.05, 1.0, (50, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
        keep = np.minimum(np.hypot(*a[:, :2].T), np.hypot(*b[:, :2].T)) >= 1e-3
        a, b = a[keep], b[keep]
        assert chain_angles(a, b) == pytest.approx(-chain_angles(b, a), abs=1e-12)

    def test_consistent_with_cos_theta_in_plane(self):
        rng = np.random.default_rng(13)
        a, b = in_plane(rng, 200), in_plane(rng, 200)
        cosines = [cos_theta(rho_from_bloch(x), rho_from_bloch(y)) for x, y in zip(a, b)]
        assert np.max(np.abs(np.cos(chain_angles(b, a)) - cosines)) < 1e-9

    def test_equals_the_difference_of_azimuths(self):
        # Per-site reference: target azimuth minus candidate azimuth, wrapped by remainder.
        rng = np.random.default_rng(12)
        c, r = rng.normal(size=(2, 300, 3))
        reference = [math.remainder(math.atan2(ry, rx) - math.atan2(cy, cx), 2 * math.pi)
                     for (cx, cy, _), (rx, ry, _) in zip(c, r)]
        assert np.max(np.abs(chain_angles(r, c) - reference)) < 1e-12

    def test_z_component_does_not_change_the_angle(self):
        rng = np.random.default_rng(11)
        a, b = in_plane(rng, 100), in_plane(rng, 100)
        lifted_a, lifted_b = a.copy(), b.copy()
        lifted_a[:, 2], lifted_b[:, 2] = rng.uniform(-0.5, 0.5, (2, 100))
        assert chain_angles(lifted_b, lifted_a).tobytes() == chain_angles(b, a).tobytes()

    @pytest.mark.parametrize("side", ["target", "candidate"])
    @pytest.mark.parametrize("bad", [[0.0, 0.0, 1.0], [1e-7, 0.0, -0.5], [np.nan, 0.0, 0.0]],
                             ids=["along-z", "below-floor", "nan"])
    def test_site_without_an_in_plane_direction_rejected(self, bad, side):
        good = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rows = good[::-1].copy()
        rows[1] = bad
        with pytest.raises(UndefinedDirectionError):
            chain_angles(rows, good) if side == "target" else chain_angles(good, rows)

    @pytest.mark.parametrize("y_c, y_r", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
    @pytest.mark.parametrize("x", [1.0, -1.0])
    def test_antiparallel_sites_give_plus_pi(self, x, y_c, y_r):
        # Two of these signed-zero pairs make atan2 return -π, which is mapped to +π.
        assert chain_angles([-x, y_r, 0.0], [x, y_c, 0.0]).tolist() == [np.pi]


class TestSimilarityChain:
    def test_equal_states_give_n(self):
        gs = ground_state(ChainSpec(4, 1.0, (0.25,) * 4)).state
        f, thetas = similarity_chain(gs.bloch, gs.bloch)
        assert f == pytest.approx(4.0, abs=1e-12)
        assert thetas.shape == (4,) and np.allclose(thetas, 0.0)

    def test_uniform_product_chains(self):
        target = ground_state(ChainSpec(4, 0.0, (0.5,) * 4)).state
        cand = ground_state(ChainSpec(4, 0.0, (-0.5,) * 4)).state
        f, thetas = similarity_chain(target.bloch, cand.bloch)
        assert f == pytest.approx(4 * np.cos(2 * np.arctan(0.5)), abs=1e-9)
        assert f == pytest.approx(2.4, abs=1e-9)
        assert np.allclose(thetas, 2 * np.arctan(0.5), atol=1e-9)

    def test_profile_sums_match_f(self):
        target = ground_state(ChainSpec(4, 1.0, (0.5, 0.0, -0.25, 0.25))).state
        cand = ground_state(ChainSpec(4, 1.0, (-0.5,) * 4)).state
        f, thetas = similarity_chain(target.bloch, cand.bloch)
        assert np.sum(np.cos(thetas)) == pytest.approx(f, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.ones((4, 2)), np.ones(3), [[1.0, 0.0, 0.0], [1.0]],
                                     [["x", "y", "z"]], [["1", "0", "0"]] * 4,
                                     np.ones((4, 3)) * 1j, StateVector(np.eye(16)[0], 4)],
                             ids=["wrong-shape", "one-vector", "ragged", "non-numeric",
                                  "numeric-strings", "complex", "a-state"])
    def test_takes_site_arrays_only(self, bad):
        # Numeric strings were parsed as the numbers they spell.
        good = product_ground_directions(np.zeros(4))
        with pytest.raises(ValidationError):
            similarity_chain(bad, good)
        with pytest.raises(ValidationError):
            similarity_chain(good, bad)

    def test_length_mismatch(self):
        a = ground_state(ChainSpec(2, 0.0, (0.0, 0.0))).state
        b = ground_state(ChainSpec(3, 0.0, (0.0,) * 3)).state
        with pytest.raises(ValidationError):
            similarity_chain(a.bloch, b.bloch)

    def test_f_bounds(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            w = rng.normal(size=8) + 1j * rng.normal(size=8)
            a = StateVector(v / np.linalg.norm(v), 3)
            b = StateVector(w / np.linalg.norm(w), 3)
            try:
                f, _ = similarity_chain(a.bloch, b.bloch)
            except UndefinedDirectionError:
                continue
            assert -3.0 - 1e-9 <= f <= 3.0 + 1e-9


class TestBipartitions:
    def test_two_sites(self):
        assert enumerate_bipartition_subsets(2) == [0b01, 0b10]

    def test_four_sites_count(self):
        subsets = enumerate_bipartition_subsets(4)
        assert len(subsets) == 14
        assert subsets == sorted(subsets)

    def test_six_sites_count(self):
        assert len(enumerate_bipartition_subsets(6)) == 62

    def test_too_small(self):
        with pytest.raises(ValidationError):
            enumerate_bipartition_subsets(1)


class TestPurity:
    def test_equal_states(self):
        rho = rho_from_bloch(np.array([0.2, 0.1, -0.3]))
        assert purity_term(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        pure = rho_from_bloch(np.array([0.0, 0.0, 1.0]))
        mixed = DensityMatrix(np.eye(2) / 2)
        assert purity_term(pure, mixed) == pytest.approx(0.75, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            purity_term(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(4) / 4))


class TestSimilarityGeneral:
    def test_cosine_kind_equals_chain_similarity(self):
        target = ground_state(ChainSpec(4, 1.0, (0.5, -0.25, 0.0, 0.25))).state
        cand = ground_state(ChainSpec(4, 1.0, (-0.5,) * 4)).state
        singletons = [1 << k for k in range(4)]
        f_general = similarity_general(target, cand, singletons,
                                       SubsetFunctionKind.COSINE_SINGLE_SITE)
        f_chain, _ = similarity_chain(target.bloch, cand.bloch)
        assert f_general == pytest.approx(f_chain, abs=1e-12)

    def test_purity_kind_identical_states(self):
        gs = ground_state(ChainSpec(4, 1.0, (0.25,) * 4)).state
        total = similarity_general(gs, gs, enumerate_bipartition_subsets(4),
                                   SubsetFunctionKind.PURITY)
        assert total == pytest.approx(14.0, abs=1e-10)

    def test_purity_invariant_under_global_rotation(self):
        target = ground_state(ChainSpec(4, 1.0, (0.5, 0.0, 0.0, -0.25))).state
        cand = ground_state(ChainSpec(4, 1.0, (-0.5,) * 4)).state
        subsets = enumerate_bipartition_subsets(4)
        base = similarity_general(target, cand, subsets, SubsetFunctionKind.PURITY)
        for chi in (0.3, -1.1, 2.4):
            rotated = apply_unitary(global_rotation(chi, 4), cand)
            val = similarity_general(target, rotated, subsets, SubsetFunctionKind.PURITY)
            assert val == pytest.approx(base, abs=1e-10)

    def test_cosine_kind_rejects_multi_site_subsets(self):
        gs = ground_state(ChainSpec(2, 0.0, (0.0, 0.0))).state
        with pytest.raises(ValidationError):
            similarity_general(gs, gs, [0b11], SubsetFunctionKind.COSINE_SINGLE_SITE)

    @pytest.mark.parametrize("subsets", [[], [0b01]])
    def test_kind_checked_before_any_subset(self, subsets):
        gs = ground_state(ChainSpec(2, 0.0, (0.0, 0.0))).state
        with pytest.raises(ValidationError, match="kind"):
            similarity_general(gs, gs, subsets, "bogus")

    @pytest.mark.parametrize("kind", list(SubsetFunctionKind))
    def test_float_mask_rejected(self, kind):
        gs = ground_state(ChainSpec(2, 0.0, (0.0, 0.0))).state
        with pytest.raises(ValidationError, match="integer"):
            similarity_general(gs, gs, [1.0], kind)


def test_angle_profile_requires_sites():
    # chi_opt takes the (N,) angles similarity_chain returns.
    for thetas in ([], np.zeros((2, 3)), 0.5):
        with pytest.raises(ValidationError, match="1-D"):
            chi_opt(thetas)


# Components near zero put whole sites below the direction floor.
_COMPONENT = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e-6, 1e-6))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_property_batched_site_cosines_equal_per_row_calls(data):
    t, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    batch = data.draw(arrays(float, (t, n, 3), elements=_COMPONENT))
    # One candidate for every row, as for f_before, or one per row, as for f_after.
    shared = data.draw(st.booleans())
    other = data.draw(arrays(float, (n, 3) if shared else (t, n, 3), elements=_COMPONENT))
    try:
        rows = [site_cosines(row, other if shared else other[i])
                for i, row in enumerate(batch)]
    except UndefinedDirectionError:
        with pytest.raises(UndefinedDirectionError):
            site_cosines(batch, other)
        return
    assert site_cosines(batch, other).tobytes() == np.array(rows).tobytes()


def test_site_cosines_rejects_differing_sites():
    with pytest.raises(ValidationError):
        site_cosines(np.ones((2, 3, 3)), np.ones((2, 3)))


def test_site_cosines_rejects_a_single_vector():
    # A (3,) vector has no site axis; it ended in einsum's bare ValueError.
    with pytest.raises(ValidationError, match="Bloch arrays differ"):
        site_cosines(np.ones(3), np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["target", "candidate"])
def test_site_cosines_rejects_a_non_finite_row(bad, side):
    # Neither a NaN nor an infinite Bloch length defines a direction.
    rows = np.ones((2, 4, 3))
    rows[1, 2, 0] = bad
    good = np.ones((4, 3))
    with pytest.raises(UndefinedDirectionError):
        site_cosines(rows, good) if side == "target" else site_cosines(good, rows)
