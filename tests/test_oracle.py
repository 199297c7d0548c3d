import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinalign import (
    CapacityError,
    ChainSpec,
    OracleKind,
    ParameterGrid,
    QueryBudgetError,
    StateVector,
    UndefinedDirectionError,
    ValidationError,
    apply_unitary,
    cos_theta,
    global_rotation,
    ground_state,
    make_oracle,
    partial_trace,
    query_exact,
    query_measured,
    query_noisy,
)
from spinalign import oracle as oracle_module
from spinalign.chain import target_field_array

from conftest import product_state

TARGET = ChainSpec(4, 1.0, (0.5,) * 4)
CANDIDATE_SPEC = ChainSpec(4, 1.0, (-0.5,) * 4)


@pytest.fixture(scope="module")
def candidate_j1():
    return ground_state(CANDIDATE_SPEC).state.bloch


class TestExactOracle:
    def test_perfect_candidate(self, candidate_j1):
        oracle = make_oracle(CANDIDATE_SPEC, OracleKind.EXACT, budget=1)
        assert query_exact(oracle, candidate_j1) == pytest.approx(4.0, abs=1e-9)

    def test_product_chains(self):
        oracle = make_oracle(ChainSpec(4, 0.0, (0.5,) * 4), OracleKind.EXACT, budget=1)
        cand = ground_state(ChainSpec(4, 0.0, (-0.5,) * 4)).state.bloch
        assert query_exact(oracle, cand) == pytest.approx(2.4, abs=1e-9)

    def test_budget_enforced(self, candidate_j1):
        oracle = make_oracle(TARGET, OracleKind.EXACT, budget=1)
        query_exact(oracle, candidate_j1)
        with pytest.raises(QueryBudgetError):
            query_exact(oracle, candidate_j1)
        assert oracle.remaining_budget == 0

    def test_kind_checked(self, candidate_j1):
        oracle = make_oracle(TARGET, OracleKind.EXACT, budget=1)
        with pytest.raises(ValidationError):
            query_noisy(oracle, candidate_j1)


class TestNoisyOracle:
    def test_zero_width_equals_exact(self, candidate_j1):
        noisy = make_oracle(TARGET, OracleKind.NOISY, budget=1, seed=1, epsilon=0.0)
        exact = make_oracle(TARGET, OracleKind.EXACT, budget=1)
        assert query_noisy(noisy, candidate_j1) == query_exact(exact, candidate_j1)

    def test_seeded_reproducibility(self, candidate_j1):
        a = make_oracle(TARGET, OracleKind.NOISY, budget=5, seed=99, epsilon=0.1)
        b = make_oracle(TARGET, OracleKind.NOISY, budget=5, seed=99, epsilon=0.1)
        seq_a = [query_noisy(a, candidate_j1) for _ in range(5)]
        seq_b = [query_noisy(b, candidate_j1) for _ in range(5)]
        assert seq_a == seq_b

    def test_noise_bounded(self, candidate_j1):
        eps = 0.05
        oracle = make_oracle(TARGET, OracleKind.NOISY, budget=500, seed=7, epsilon=eps)
        exact = make_oracle(TARGET, OracleKind.EXACT, budget=1)
        f_true = query_exact(exact, candidate_j1)
        for _ in range(500):
            assert abs(query_noisy(oracle, candidate_j1) - f_true) < eps

    @pytest.mark.parametrize("eps", [5e-324, 0.05, 0.1, 1e300])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64), shape=st.tuples(st.integers(1, 6), st.integers(1, 9)),
           f=st.floats(-1e6, 1e6))
    def test_noisy_replies_equal_uniform_from_the_same_stream(self, eps, seed, shape, f):
        # One F per row, as noise's blocks pass them.
        f_rows = f + np.arange(shape[0])[:, None]
        draws = np.random.default_rng(seed).random(shape)
        replies = oracle_module.noisy_replies(f_rows, eps, draws)
        expected = f_rows + np.random.default_rng(seed).uniform(-eps, eps, shape)
        assert replies is draws
        assert replies.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("eps", [0.0, 5e-324, 0.05, 0.1, 1e300])
    def test_query_noisy_replies_are_f_plus_uniform(self, candidate_j1, eps):
        # The replies the oracle gave before it called noisy_replies:
        # f, or f + rng.uniform(-eps, eps), one draw per query.
        oracle = make_oracle(TARGET, OracleKind.NOISY, budget=20, seed=11, epsilon=eps)
        f = oracle.verification_query(candidate_j1)
        rng = np.random.default_rng(11)
        expected = [f if eps == 0.0 else f + rng.uniform(-eps, eps) for _ in range(20)]
        replies = [query_noisy(oracle, candidate_j1) for _ in range(20)]
        assert all(type(r) is float for r in replies)
        assert np.array(replies).tobytes() == np.array(expected).tobytes()


class TestMeasuredOracle:
    def test_aligned_target_is_deterministic(self, candidate_j1):
        oracle = make_oracle(CANDIDATE_SPEC, OracleKind.MEASURED, budget=200, seed=2)
        for _ in range(200):
            f_est, bits = query_measured(oracle, candidate_j1)
            assert f_est == 4.0
            assert bits.tolist() == [True] * 4

    def test_antipodal_candidate_is_deterministic(self):
        # target Bloch vectors point along -x; the |+...+> product state points
        # along +x, so every site has theta = pi and every shot must miss
        oracle = make_oracle(ChainSpec(4, 0.0, (0.0,) * 4), OracleKind.MEASURED,
                             budget=200, seed=3)
        plus = np.array([1, 1]) / np.sqrt(2)
        anti = product_state([plus] * 4).bloch
        for _ in range(200):
            f_est, bits = query_measured(oracle, anti)
            assert f_est == -4.0
            assert bits.tolist() == [False] * 4

    def test_estimate_matches_bit_count(self, candidate_j1):
        oracle = make_oracle(TARGET, OracleKind.MEASURED, budget=50, seed=4)
        for _ in range(50):
            f_est, bits = query_measured(oracle, candidate_j1)
            assert bits.shape == (4,) and bits.dtype == bool
            assert f_est == 2 * bits.sum() - 4

    def test_variance_matches_binomial_formula(self, candidate_j1):
        from spinalign import similarity_chain

        target_state = ground_state(TARGET).state
        _, thetas = similarity_chain(target_state.bloch, candidate_j1)
        probs = (np.cos(thetas) + 1) / 2
        expected_std = 2 * np.sqrt(np.sum(probs * (1 - probs)))
        trials = 10_000
        oracle = make_oracle(TARGET, OracleKind.MEASURED, budget=trials, seed=5)
        estimates = np.array([query_measured(oracle, candidate_j1)[0] for _ in range(trials)])
        assert abs(estimates.std(ddof=1) - expected_std) <= 0.05 * expected_std
        assert estimates.std(ddof=1) <= 2.0

    @pytest.mark.parametrize("shape", [(4,), (7, 4), (3, 2, 5)])
    def test_binomial_std_is_the_explicit_formula(self, shape):
        cosines = np.random.default_rng(8).uniform(-1.0, 1.0, shape)
        cosines.flat[0] = 1.0
        probs = (cosines + 1.0) / 2.0
        expected = 2.0 * np.sqrt(np.sum(probs * (1.0 - probs), axis=-1))
        got = oracle_module.binomial_std(cosines)
        assert got.shape == shape[:-1]
        assert got.tobytes() == expected.tobytes()

    def test_unbiased_over_many_trials(self, candidate_j1):
        trials = 100_000
        oracle = make_oracle(TARGET, OracleKind.MEASURED, budget=trials, seed=6)
        exact = make_oracle(TARGET, OracleKind.EXACT, budget=1)
        f_true = query_exact(exact, candidate_j1)
        estimates = np.array([query_measured(oracle, candidate_j1)[0] for _ in range(trials)])
        se = estimates.std(ddof=1) / np.sqrt(trials)
        assert abs(estimates.mean() - f_true) <= 3 * se


class TestOracleSurface:
    def test_budget_never_negative(self, candidate_j1):
        oracle = make_oracle(TARGET, OracleKind.EXACT, budget=2)
        oracle.query(candidate_j1)
        oracle.query(candidate_j1)
        with pytest.raises(QueryBudgetError):
            oracle.query(candidate_j1)
        assert oracle.remaining_budget == 0

    def test_verification_channel_is_unbudgeted(self, candidate_j1):
        oracle = make_oracle(TARGET, OracleKind.EXACT, budget=1)
        before = oracle.remaining_budget
        oracle.verification_query(candidate_j1)
        assert oracle.remaining_budget == before

    def test_query_dispatches_by_kind(self, candidate_j1):
        exact = make_oracle(TARGET, OracleKind.EXACT, budget=1)
        noisy = make_oracle(TARGET, OracleKind.NOISY, budget=1, seed=1, epsilon=0.0)
        assert exact.query(candidate_j1) == noisy.query(candidate_j1)
        measured = make_oracle(TARGET, OracleKind.MEASURED, budget=1, seed=1)
        assert measured.query(candidate_j1) in {-4.0, -2.0, 0.0, 2.0, 4.0}

    def test_public_surface_hides_the_target(self):
        oracle = make_oracle(TARGET, OracleKind.EXACT, budget=1, seed=0)
        public = {name for name in dir(oracle) if not name.startswith("_")}
        assert public == {
            "kind", "n_sites", "remaining_budget", "fingerprint",
            "query", "verification_query", "sample",
        }
        assert isinstance(oracle.fingerprint, str)
        # none of the public values resembles the hidden field assignment
        for name in ("kind", "n_sites", "remaining_budget", "fingerprint"):
            value = getattr(oracle, name)
            assert not isinstance(value, (np.ndarray, ChainSpec))

    def test_equal_seeds_give_identical_noisy_streams(self, candidate_j1):
        a = make_oracle(TARGET, OracleKind.NOISY, budget=3, seed=11, epsilon=0.2)
        b = make_oracle(TARGET, OracleKind.NOISY, budget=3, seed=11, epsilon=0.2)
        assert a.fingerprint == b.fingerprint
        assert [a.query(candidate_j1) for _ in range(3)] == [
            b.query(candidate_j1) for _ in range(3)
        ]

    def test_mismatched_candidate_rejected_without_charge(self):
        oracle = make_oracle(TARGET, OracleKind.EXACT, budget=1)
        small = ground_state(ChainSpec(2, 0.0, (0.0, 0.0))).state.bloch
        with pytest.raises(ValidationError):
            oracle.query(small)
        assert oracle.remaining_budget == 1


def _with_entry(value):
    bloch = np.tile([1.0, 0.0, 0.0], (4, 1))
    bloch[2, 1] = value
    return bloch


# Candidates an oracle must refuse, with the error each one ends in.
BAD_CANDIDATES = {
    "wrong-shape": (np.ones((4, 2)), ValidationError),
    "too-few-sites": (np.ones((3, 3)), ValidationError),
    "extra-axis": (np.ones((2, 4, 3)), ValidationError),
    "ragged": ([[1.0, 0.0, 0.0]] * 3 + [[1.0, 0.0]], ValidationError),
    "non-numeric": ([["x", "y", "z"]] * 4, ValidationError),
    "complex": (np.ones((4, 3)) * 1j, ValidationError),
    "a-state": (StateVector(np.eye(16)[0], 4), ValidationError),
    "all-zero": (np.zeros((4, 3)), UndefinedDirectionError),
    "nan": (_with_entry(np.nan), UndefinedDirectionError),
    "inf": (_with_entry(np.inf), UndefinedDirectionError),
}
# Every way to ask an oracle about a candidate, with the oracle kind it needs.
ASKS = {
    "exact": (OracleKind.EXACT, query_exact),
    "noisy": (OracleKind.NOISY, query_noisy),
    "measured": (OracleKind.MEASURED, query_measured),
    "query": (OracleKind.NOISY, lambda oracle, c: oracle.query(c)),
    "sample": (OracleKind.MEASURED, lambda oracle, c: oracle.sample(c, 2)),
    "verification": (OracleKind.MEASURED, lambda oracle, c: oracle.verification_query(c)),
}


@pytest.mark.parametrize("bad", BAD_CANDIDATES)
@pytest.mark.parametrize("ask", ASKS)
def test_rejected_candidate_costs_no_budget_and_no_draw(candidate_j1, ask, bad):
    kind, call = ASKS[ask]
    candidate, error = BAD_CANDIDATES[bad]
    oracle, twin = (make_oracle(TARGET, kind, budget=3, seed=12, epsilon=0.1) for _ in "ab")
    with pytest.raises(error):
        call(oracle, candidate)
    assert oracle.remaining_budget == 3
    # The stream is where it was: the next reply equals a fresh twin's.
    assert oracle.query(candidate_j1) == twin.query(candidate_j1)


class TestSample:
    def test_kind_checked(self, candidate_j1):
        for kind in (OracleKind.EXACT, OracleKind.NOISY):
            oracle = make_oracle(TARGET, kind, budget=5, seed=1)
            with pytest.raises(ValidationError):
                oracle.sample(candidate_j1, 1)
            assert oracle.remaining_budget == 5

    def test_site_count_checked(self):
        oracle = make_oracle(TARGET, OracleKind.MEASURED, budget=5, seed=1)
        small = ground_state(ChainSpec(2, 0.0, (0.0, 0.0))).state.bloch
        with pytest.raises(ValidationError):
            oracle.sample(small, 1)
        assert oracle.remaining_budget == 5

    @pytest.mark.parametrize("shots", [-1, 2.0, True, "3", None])
    def test_shots_must_be_a_non_negative_integer(self, candidate_j1, shots):
        oracle = make_oracle(TARGET, OracleKind.MEASURED, budget=5, seed=1)
        with pytest.raises(ValidationError):
            oracle.sample(candidate_j1, shots)
        assert oracle.remaining_budget == 5

    def test_over_budget_leaves_budget_and_stream_unchanged(self, candidate_j1):
        oracle = make_oracle(TARGET, OracleKind.MEASURED, budget=5, seed=8)
        twin = make_oracle(TARGET, OracleKind.MEASURED, budget=5, seed=8)
        with pytest.raises(QueryBudgetError):
            oracle.sample(candidate_j1, 6)
        assert oracle.remaining_budget == 5
        assert np.array_equal(oracle.sample(candidate_j1, 5), twin.sample(candidate_j1, 5))

    # Oracle.sample(candidate, 16) and three query_measured replies (F and the
    # outcomes m_k) on one stream, as the oracle gave them when the kernel
    # still drew from the generator itself.
    @pytest.mark.parametrize("seed, shots, queries", [
        (0, [4, 0, 0, 2, 2, 4, 0, 4, 4, 0, 4, 2, 2, 2, 4, 4],
         [(2, [1, 1, 1, 0]), (2, [1, 1, 1, 0]), (2, [1, 0, 1, 1])]),
        (7, [2, 0, 4, 4, 0, 4, 2, 4, 4, 2, 0, 4, 2, 4, 0, 4],
         [(4, [1, 1, 1, 1]), (2, [0, 1, 1, 1]), (0, [0, 1, 1, 0])]),
        (30, [4, 2, 4, 2, 2, 2, 0, 4, 4, 2, 0, 2, 0, 4, 4, 2],
         [(2, [0, 1, 1, 1]), (4, [1, 1, 1, 1]), (0, [0, 1, 0, 1])]),
    ])
    def test_replies_are_unchanged(self, candidate_j1, seed, shots, queries):
        oracle = make_oracle(TARGET, OracleKind.MEASURED, budget=30, seed=seed)
        assert oracle.sample(candidate_j1, 16).tolist() == shots
        replies = [query_measured(oracle, candidate_j1) for _ in queries]
        assert [(f, bits.tolist()) for f, bits in replies] == [
            (float(f), [bool(m) for m in bits]) for f, bits in queries]

    @pytest.mark.parametrize("shape", [(1, 1, 2), (5, 7, 4), (3, 1, 9), (2, 0, 3), (4, 3, 3, 2)])
    def test_one_kernel_call_on_a_stack_equals_one_per_target(self, shape):
        # A stack of targets' (shots, N) draws against their (N,) cosines.
        rng = np.random.default_rng(9)
        cosines = rng.uniform(-1.0, 1.0, shape[:-2] + shape[-1:])
        cosines.flat[0] = 1.0
        draws = rng.random(shape)
        targets = int(np.prod(shape[:-2]))
        singles = [oracle_module.shot_estimates(cos, row.copy())
                   for cos, row in zip(cosines.reshape(targets, shape[-1]),
                                       draws.reshape((targets,) + shape[-2:]))]
        stacked = oracle_module.shot_estimates(cosines, draws)
        assert stacked.shape == shape[:-1]
        assert stacked.tobytes() == np.array(singles).reshape(shape[:-1]).tobytes()
        # The draws are left holding the outcomes the estimates count.
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert np.array_equal(stacked, 2.0 * draws.sum(axis=-1) - shape[-1])

    def test_zero_shots(self, candidate_j1):
        oracle = make_oracle(TARGET, OracleKind.MEASURED, budget=0, seed=1)
        out = oracle.sample(candidate_j1, 0)
        assert out.shape == (0,) and out.dtype == float
        assert oracle.remaining_budget == 0

    def test_charges_exactly_the_shots(self, candidate_j1):
        oracle = make_oracle(TARGET, OracleKind.MEASURED, budget=100, seed=1)
        assert len(oracle.sample(candidate_j1, 37)) == 37
        assert oracle.remaining_budget == 63
        oracle.sample(candidate_j1, np.int64(63))
        assert oracle.remaining_budget == 0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_equals_per_shot_queries(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        fields = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
        target = ChainSpec(n, 1.0, data.draw(fields, label="b_t"))
        candidate = ground_state(ChainSpec(n, 1.0, data.draw(fields, label="b_c"))).state.bloch
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        shots = data.draw(st.integers(0, 2000), label="shots")
        batched = make_oracle(target, OracleKind.MEASURED, budget=shots + 1, seed=seed)
        looped = make_oracle(target, OracleKind.MEASURED, budget=shots + 1, seed=seed)
        got = batched.sample(candidate, shots)
        want = [query_measured(looped, candidate)[0] for _ in range(shots)]
        assert got.tolist() == want
        # The stream continues where the batch left off.
        (f_b, bits_b), (f_l, bits_l) = (query_measured(o, candidate) for o in (batched, looped))
        assert f_b == f_l and bits_b.tolist() == bits_l.tolist()


def test_make_oracle_validates_inputs():
    with pytest.raises(ValidationError):
        make_oracle(TARGET, OracleKind.EXACT, budget=-1)
    with pytest.raises(ValidationError):
        make_oracle(TARGET, OracleKind.NOISY, budget=1, epsilon=-0.1)
    # A noise draw spans 2·ε, which must be finite.
    for epsilon in (float("nan"), float("inf"), 1e308):
        with pytest.raises(ValidationError):
            make_oracle(TARGET, OracleKind.NOISY, budget=1, epsilon=epsilon)
    # Values that are not one real number end in the same error, not a raw ValueError/TypeError.
    for epsilon in ("x", None, [1], 10**400):
        with pytest.raises(ValidationError, match="epsilon"):
            make_oracle(TARGET, OracleKind.NOISY, budget=1, epsilon=epsilon)
    for budget in (2.5, True, float("nan")):
        with pytest.raises(ValidationError):
            make_oracle(TARGET, OracleKind.EXACT, budget=budget)
    with pytest.raises(ValidationError):
        make_oracle(TARGET, "exact", budget=1)
    # A bad seed is caught at construction, not at the first (charged) draw.
    for seed in (-1, 1.5, "abc"):
        with pytest.raises(ValidationError):
            make_oracle(TARGET, OracleKind.MEASURED, budget=1, seed=seed)


@pytest.mark.parametrize("seed", [True, False, [True, 1], (1, False), [[True]]], ids=repr)
def test_bool_seeds_are_refused(seed):
    # numpy's SeedSequence reads True as 1, so each built an oracle.
    with pytest.raises(ValidationError, match="^seed must be a non-negative integer or a seq"):
        make_oracle(TARGET, OracleKind.MEASURED, budget=1, seed=seed)


def test_exact_oracle_builds_no_generator(candidate_j1, monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("an exact oracle draws no random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    oracle = make_oracle(TARGET, OracleKind.EXACT, budget=1, seed=3)
    oracle.query(candidate_j1)
    oracle.verification_query(candidate_j1)


def test_fingerprint_hashes_the_construction_values():
    # Only the values beside the target: oracles that differ in fields or J
    # share a fingerprint, and any other construction value changes it.
    chosen = {"kind": OracleKind.NOISY, "budget": 3, "seed": [30, 7], "epsilon": 0.1}
    fingerprint = make_oracle(TARGET, **chosen).fingerprint
    for target in (ChainSpec(4, 1.0, (-0.5, 0.0, 0.25, 0.5)), ChainSpec(4, -2.0, (0.5,) * 4)):
        assert make_oracle(target, **chosen).fingerprint == fingerprint
    for change in ({"kind": OracleKind.MEASURED}, {"budget": 4}, {"seed": [30, 8]},
                   {"epsilon": 0.2}):
        assert make_oracle(TARGET, **{**chosen, **change}).fingerprint != fingerprint
    assert make_oracle(ChainSpec(5, 1.0, (0.5,) * 5), **chosen).fingerprint != fingerprint


def test_fingerprints_of_the_reference_grid_are_equal():
    # A caller who builds an oracle per candidate target cannot pick out the
    # hidden one by its fingerprint.
    fields = target_field_array(ParameterGrid(-0.5, 0.5, 5), 4)
    secret = make_oracle(ChainSpec(4, 1.0, tuple(fields[353])), seed=30).fingerprint
    assert {make_oracle(ChainSpec(4, 1.0, tuple(row)), seed=30).fingerprint
            for row in fields} == {secret}



def test_negative_zero_epsilon_has_the_zero_fingerprint():
    # -0.0 and 0.0 answer every query alike, so they fingerprint alike.
    zero = make_oracle(TARGET, OracleKind.NOISY, budget=1, epsilon=0.0)
    negative_zero = make_oracle(TARGET, OracleKind.NOISY, budget=1, epsilon=-0.0)
    assert negative_zero.fingerprint == zero.fingerprint


class TestSeededStreams:
    @staticmethod
    def assert_seeds_equal_seed_sequence(entropy):
        seeds = oracle_module._pcg64_seeds(entropy)
        assert seeds.shape == (len(entropy), 4) and seeds.dtype == np.uint64
        for row, seed in zip(entropy, seeds):
            assert np.array_equal(seed, np.random.SeedSequence(row).generate_state(4, np.uint64))

    @pytest.mark.parametrize("length", range(1, 10))
    def test_rows_equal_default_rng(self, length):
        # Lengths beyond the 4-word pool take the extra mixing loop.
        rng = np.random.default_rng(length)
        entropy = rng.integers(0, 2**32, size=(600, length), dtype=np.uint32)
        entropy[0] = 0
        entropy[1] = 2**32 - 1
        entropy[2, ::2] = 2**32 - 1
        self.assert_seeds_equal_seed_sequence(entropy)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9),
                         min_size=1, max_size=8).filter(lambda r: len({len(x) for x in r}) == 1))
    def test_property_rows_equal_default_rng(self, rows):
        self.assert_seeds_equal_seed_sequence(np.array(rows, dtype=np.uint32))

    @pytest.mark.parametrize("prefix", [[0], [30, 2], [2**32, 1], [2**64 + 3]])
    def test_target_streams_equal_default_rng_of_the_list(self, monkeypatch, prefix):
        # Targets 4 to 12 in seeding chunks of 3 that start mid-chunk (4-6, 7-9,
        # 10-12) and blocks of 5 // 2 = 2 targets, so blocks cross chunks.
        monkeypatch.setattr(oracle_module, "STREAM_CHUNK_ROWS", 3)
        blocks = list(oracle_module.target_draws(prefix, 4, 13, (2, 3), 5))
        assert [(ids.start, ids.stop) for ids, _ in blocks] == [(4, 6), (6, 8), (8, 10),
                                                                  (10, 12), (12, 13)]
        for ids, draws in blocks:
            assert draws.shape == (ids.stop - ids.start, 2, 3)
            for target_id, row in zip(range(ids.start, ids.stop), draws):
                reference = np.random.default_rng([*prefix, target_id]).random((2, 3))
                assert np.array_equal(row, reference)

    @pytest.mark.parametrize("start, stop, row_shape, bound, sizes", [
        (0, 5, (3,), 7, [2, 2, 1]),
        (2, 5, (4, 2), 3, [1, 1, 1]),  # more rows than the bound: one target a block
        (3, 3, (1,), 8, []),
    ])
    def test_blocks_hold_whole_targets_within_the_bound(self, start, stop, row_shape, bound,
                                                        sizes):
        blocks = list(oracle_module.target_draws([7], start, stop, row_shape, bound))
        assert [len(draws) for _, draws in blocks] == sizes
        assert [draws.shape[1:] for _, draws in blocks] == [row_shape] * len(sizes)

    @pytest.mark.parametrize("start, stop", [(-1, 2), (2**32 - 1, 2**32 + 1)])
    def test_ids_must_be_one_entropy_word(self, start, stop):
        # An id is the entropy row's last uint32 word; outside [0, 2^32) it would
        # wrap to another target's stream.
        with pytest.raises(ValidationError, match="target ids"):
            next(oracle_module.target_draws([1], start, stop, (2,), 8))

    @pytest.mark.parametrize("row_shape", [(0,), (-1,), (2.0,), (True,), ()], ids=repr)
    def test_leading_row_size_must_be_an_integer_of_at_least_one(self, row_shape):
        # (0,) ended in ZeroDivisionError from bound // row_shape[0].
        with pytest.raises(ValidationError, match="the leading row size must be"):
            next(oracle_module.target_draws([1], 0, 3, row_shape, 8))

    @pytest.mark.parametrize("stop, row_shape, bound, floats", [
        (1, (2**60,), 1, 2**60),
        (1, (2**59, 2), 1, 2**60),
        (2**32, (1, 2**28), 2**32, 2**60),
        (3, (2**62, 2), 8, 2**63),
        (4, (10**21,), 2**13, 10**21),
    ], ids=["2^63-bytes", "2-D-rows", "many-targets-a-block", "measure-2^62", "noise-10^21"])
    def test_unaddressable_block_is_a_capacity_error(self, stop, row_shape, bound, floats,
                                                     monkeypatch):
        # numpy cannot make an array of 2^63 or more bytes and raised a bare ValueError.
        def refuse(*args):
            raise AssertionError("streams were seeded")

        monkeypatch.setattr(oracle_module, "_pcg64_seeds", refuse)
        with pytest.raises(CapacityError, match=f"^a block of {floats} draws exceeds"):
            next(oracle_module.target_draws([1], 0, stop, row_shape, bound))

    def test_largest_addressable_block_reaches_the_allocator(self):
        # One float below 2^63 bytes passes the check, and numpy cannot allocate it.
        with pytest.raises(MemoryError):
            next(oracle_module.target_draws([1], 0, 1, (2**60 - 1,), 1))

    def test_overwriting_a_block_leaves_later_blocks_unchanged(self):
        # 7 targets in blocks of 2, each a new array: overwriting the first in place, as
        # the reply models do, changes no later block, and no later block changes it.
        reference = [draws.copy() for _, draws in oracle_module.target_draws([5], 0, 7, (4,), 8)]
        blocks = []
        for _, draws in oracle_module.target_draws([5], 0, 7, (4,), 8):
            if not blocks:
                draws[...] = -1.0
            blocks.append(draws)
        assert (blocks[0] == -1.0).all()
        assert all(np.array_equal(a, b) for a, b in zip(blocks[1:], reference[1:]))

    @pytest.mark.parametrize("prefix", [[-1], [30, -2**40], [1.5], [True], ["7"]],
                             ids=["minus-one", "negative-word", "float", "bool", "str"])
    def test_target_streams_reject_a_bad_prefix_entry(self, prefix):
        # -1 shifted right stays -1, so splitting it into words once never
        # ended; the child runs under a time and a 1 GiB address-space limit.
        code = ("from spinalign.errors import ValidationError\n"
                "from spinalign.oracle import target_draws\n"
                "try:\n"
                f"    next(target_draws({prefix!r}, 0, 3, (1,), 1))\n"
                "except ValidationError as exc:\n"
                "    print(exc)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                 "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.startswith("a stream seed must be a non-negative integer")

    def test_no_rows_no_streams(self, monkeypatch):
        def unused(entropy):
            raise AssertionError("an empty range seeds nothing")

        monkeypatch.setattr(oracle_module, "_pcg64_seeds", unused)
        assert list(oracle_module.target_draws([3], 5, 5, (2,), 8)) == []

    def test_a_mismatch_with_default_rng_is_an_error(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_PCG64_MULT", oracle_module._PCG64_MULT + 2)
        with pytest.raises(oracle_module.SpinAlignError, match=np.__version__):
            next(oracle_module.target_draws([0, 0], 0, 2, (3,), 8))

    def test_seeding_is_checked_once_per_call(self, monkeypatch):
        # 1,100 targets in three seeding chunks: one default_rng, for the first target.
        checked = []
        original = np.random.default_rng

        def counting(seed):
            checked.append(np.asarray(seed).tolist())
            return original(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        blocks = list(oracle_module.target_draws([9], 100, 1200, (2,), 64))
        monkeypatch.undo()
        assert checked == [[9, 100]]
        assert np.array_equal(blocks[-1][1][-1], np.random.default_rng([9, 1199]).random(2))


class TestClosedFormTarget:
    def test_oracle_makes_no_eigensolve(self, candidate_j1, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("the oracle must not diagonalize the target")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        oracle = make_oracle(TARGET, OracleKind.MEASURED, budget=1, seed=0)
        oracle.verification_query(candidate_j1)
        query_measured(oracle, candidate_j1)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_matches_exact_diagonalization(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        coupling = st.floats(-5.0, 5.0)
        fields = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
        target = ChainSpec(n, data.draw(coupling, label="J"), data.draw(fields, label="b_t"))
        candidate = ground_state(
            ChainSpec(n, data.draw(coupling, label="J_c"), data.draw(fields, label="b_c"))
        ).state
        chi = data.draw(st.floats(-np.pi, np.pi), label="chi")
        oracle = make_oracle(target)
        target_state = ground_state(target).state
        # The trace-form reference: no Bloch vectors on this side.
        rhos_t = [partial_trace(target_state, 1 << k) for k in range(n)]
        for c in (candidate, apply_unitary(global_rotation(chi, n), candidate)):
            want = sum(cos_theta(rho_t, partial_trace(c, 1 << k))
                       for k, rho_t in enumerate(rhos_t))
            assert abs(oracle.verification_query(c.bloch) - want) <= 1e-12
