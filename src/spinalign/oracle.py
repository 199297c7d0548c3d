"""Black-box similarity oracles with strict information hiding.

An oracle is constructed from a target chain spec, stores each site's
closed-form unit target Bloch direction as one row of an (N, 3) array, and
afterwards answers only similarity queries. A candidate is its (N, 3)
array of per-site Bloch vectors (a state's ``bloch``, or closed-form
directions as they are); a reply is the exact value, a bounded
uniformly-noisy value, or a single-shot projective-measurement estimate.
The target's fields and coupling are never exposed; the public surface is
the behavior kind, the remaining budget, a fingerprint of the values that
do not describe the target, and the query operations.

Batched studies call the oracle's rules rather than restate them: the ε check
(:func:`check_epsilon`), the shot spread (:func:`binomial_std`) and the two
reply models, :func:`noisy_replies` and :func:`shot_estimates`. These hold no
generator: each turns the caller's ``rng.random`` draws, for one query or a
stack of targets, in place into replies. :func:`target_draws` hands out the
draws ``default_rng(prefix + [target_id])`` would make, in blocks of targets.
"""

from __future__ import annotations

import enum
import hashlib
import math
from collections.abc import Iterator
from functools import cache, cached_property

import numpy as np

from .chain import ChainSpec, check_count, product_ground_directions, real_array
from .errors import CapacityError, QueryBudgetError, SpinAlignError, ValidationError
from .similarity import site_cosines

# numpy's SeedSequence hash constants and pool size, and PCG64's 128-bit
# multiplier, which target_draws replays.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# target_draws seeds this many targets per vectorized pass, which bounds its temporaries.
STREAM_CHUNK_ROWS = 2**9


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """Per row of (R, L) uint32 ``entropy``, SeedSequence(row).generate_state(4, uint64), shape (R, 4).

    numpy's hashmix and mix steps in uint32 array arithmetic, which wraps as
    the C code does; the hash constant advances in Python ints, since it is
    the same for every row.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value *= const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    rows, length = entropy.shape
    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    const = _INIT_B
    words = np.empty((rows, 8), dtype=np.uint64)
    for i in range(8):
        word = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        word *= const
        words[:, i] = word ^ (word >> 16)
    # Little-endian word pairs, taken without a byte-order dependent view.
    return words[:, 0::2] | words[:, 1::2] << 32


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of ``value`` >= 0, as SeedSequence splits it (0 -> [0])."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def target_draws(prefix: list[int], start: int, stop: int, row_shape: tuple[int, ...],
                 bound: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Blocks (ids, draws) of the targets start <= id < stop, in order; each ``draws`` is new.

    ``ids`` is a slice of at most max(1, bound // row_shape[0]) targets, so a block holds at
    most max(bound, row_shape[0])·prod(row_shape[1:]) floats; row k of ``draws`` is
    ``default_rng(prefix + [id]).random(row_shape)`` for its k-th id. Each STREAM_CHUNK_ROWS
    targets take one :func:`_pcg64_seeds` pass over the uint32 words SeedSequence makes of
    that list, an id being one word; PCG64 starts at (inc + seed)·M + inc mod 2^128 with inc =
    2·initseq + 1, and one private Generator is re-stated per target. ValidationError, before
    any seeding, for a prefix entry that is not a non-negative integer, an id outside
    [0, 2^32) or a leading row size ``row_shape[0]`` that is not an integer >= 1;
    CapacityError, before any seeding, for a block of more bytes than np.intp can count;
    SpinAlignError if the first target's state is not ``default_rng``'s.
    """
    if start < 0 or stop > 1 << 32:
        raise ValidationError(f"target ids must lie in [0, 2^32), got {start} to {stop - 1}")
    if not row_shape or check_count(row_shape[0], "the leading row size") < 1:
        raise ValidationError(f"the leading row size must be at least 1, got {row_shape!r}")
    block = max(1, bound // row_shape[0])
    # numpy raises a bare ValueError for an array of more bytes than np.intp can count.
    if (floats := min(block, stop - start) * math.prod(row_shape)) * 8 > np.iinfo(np.intp).max:
        raise CapacityError(f"a block of {floats} draws exceeds the addressable memory")
    words = [word for value in prefix
             for word in _uint32_words(check_count(value, "a stream seed"))]
    entropy = np.empty((STREAM_CHUNK_ROWS, len(words) + 1), dtype=np.uint32)
    entropy[:, :-1] = words
    generator = np.random.Generator(np.random.PCG64(0))
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    for lo in range(start, stop, block):
        draws = np.empty((min(block, stop - lo), *row_shape))
        for target_id, row in enumerate(draws, lo):
            at = (target_id - start) % STREAM_CHUNK_ROWS
            if at == 0:
                chunk = entropy[:min(STREAM_CHUNK_ROWS, stop - target_id)]
                chunk[:, -1] = np.arange(target_id, target_id + len(chunk))
                seeds = _pcg64_seeds(chunk).tolist()
            seed_hi, seed_lo, seq_hi, seq_lo = seeds[at]
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            inner["state"] = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
            inner["inc"] = inc
            if target_id == start and state != np.random.default_rng(chunk[0]).bit_generator.state:
                raise SpinAlignError(f"seeded streams do not match numpy {np.__version__}'s "
                                     f"default_rng")
            generator.bit_generator.state = state
            generator.random(out=row)
        yield slice(lo, lo + len(draws)), draws


class OracleKind(enum.Enum):
    EXACT = "exact"
    NOISY = "noisy"
    MEASURED = "measured"


def check_epsilon(value) -> float:
    """The noise width ε, one real number, as a float >= 0 with a finite 2ε and -0 as +0."""
    # Adding +0.0 turns -0 into +0 and leaves every other value as it is.
    epsilon = float(real_array(value, "epsilon", ())) + 0.0
    # Each noise draw spans 2·ε, which must be a finite width.
    if not (epsilon >= 0.0 and math.isfinite(2.0 * epsilon)):
        raise ValidationError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    return epsilon


def noisy_replies(f, epsilon: float, draws: np.ndarray) -> np.ndarray:
    """Turn ``rng.random`` draws u, in place, into noisy replies f + uniform(-ε, ε).

    Each value is computed as ``Generator.uniform`` computes it, -ε + 2ε·u, and
    then f is added, so replies equal ``f + rng.uniform(-ε, ε, shape)`` bit for
    bit. ``f`` broadcasts against ``draws``; ``epsilon`` is a checked width.
    """
    draws *= 2.0 * epsilon
    draws -= epsilon
    draws += f
    return draws


def _shot_probabilities(cosines: np.ndarray) -> np.ndarray:
    """p_k = (cos θ_k + 1)/2, the chance that site k's single shot reads m_k = 1."""
    return (cosines + 1.0) / 2.0


def binomial_std(cosines: np.ndarray) -> np.ndarray:
    """Std 2·sqrt(Σ_k p_k(1 - p_k)) of one shot's F estimate, per row of (..., N) cosines."""
    p = _shot_probabilities(cosines)
    return 2.0 * np.sqrt(np.sum(p * (1.0 - p), axis=-1))


@cache
def _shot_weights(n_sites: int) -> np.ndarray:
    """The read-only (N,) row of 2.0s that counts a row of outcomes as 2·Σ_k m_k."""
    weights = np.full(n_sites, 2.0)
    weights.setflags(write=False)
    return weights


def shot_estimates(cosines: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Single-shot F estimates of ``rng.random`` draws u, shape (..., shots, N), left holding m_k.

    m_k = u < (cos θ_k + 1)/2 against ``cosines`` (..., N), and each shot's F = 2·Σ_k m_k - N,
    shape (..., shots), is a float product with a weight row made once per N. The count is
    exact, so a stack of targets gives each one's estimates bit for bit.
    """
    n_sites = draws.shape[-1]
    np.less(draws, _shot_probabilities(cosines)[..., None, :], out=draws)
    return draws @ _shot_weights(n_sites) - n_sites


class Oracle:
    """Budgeted similarity black box; construct with :func:`make_oracle`."""

    def __init__(self, target: ChainSpec, kind: OracleKind, budget: int, seed: int,
                 epsilon: float):
        if not isinstance(kind, OracleKind):
            raise ValidationError(f"kind must be an OracleKind, got {kind!r}")
        self._budget = check_count(budget, "budget")
        self._epsilon = check_epsilon(epsilon)
        # Checks the seed now; the generator itself is made on the first draw. SeedSequence
        # would read True as 1, so a bool is refused here as every count refuses it.
        try:
            if any(isinstance(s, bool) for s in np.ravel(np.array(seed, dtype=object))):
                raise TypeError
            self._seed = np.random.SeedSequence(seed)
        except (TypeError, ValueError):
            raise ValidationError(f"seed must be a non-negative integer or a sequence "
                                  f"of them, got {seed!r}") from None
        self._kind = kind
        self._params = (target.n_sites, kind.value, budget, seed, self._epsilon)
        # Unit site directions; site_cosines ignores the Bloch length.
        self._target_bloch = product_ground_directions(target.fields)

    @property
    def kind(self) -> OracleKind:
        return self._kind

    @property
    def n_sites(self) -> int:
        return len(self._target_bloch)

    @property
    def remaining_budget(self) -> int:
        return self._budget

    @cached_property
    def fingerprint(self) -> str:
        """Hash of the site count, kind, budget, seed and ε; reveals nothing about the target."""
        return hashlib.sha256(repr(self._params).encode()).hexdigest()

    @cached_property
    def _rng(self) -> np.random.Generator:
        """The seeded stream, made on the first noisy or measured draw."""
        return np.random.default_rng(self._seed)

    def _cosines(self, candidate) -> np.ndarray:
        """Per-site cos θ_k of target and candidate; site_cosines checks the site count."""
        return site_cosines(self._target_bloch, real_array(candidate, "the candidate", (None, 3)))

    def _admit(self, kind: OracleKind, candidate, count: int = 1) -> np.ndarray:
        """Check kind, then the candidate, then budget; charge ``count`` only if all pass.

        Returns the candidate's per-site cosines, computed before anything is charged.
        """
        if self._kind is not kind:
            raise ValidationError(f"oracle kind is {self._kind.value}, not {kind.value}")
        cosines = self._cosines(candidate)
        if self._budget < count:
            raise QueryBudgetError(
                f"oracle query budget exhausted: {count} requested, {self._budget} left"
            )
        self._budget -= count
        return cosines

    def query(self, candidate) -> float:
        """Budgeted similarity reply according to the oracle's behavior kind."""
        if self._kind is OracleKind.EXACT:
            return query_exact(self, candidate)
        if self._kind is OracleKind.NOISY:
            return query_noisy(self, candidate)
        return query_measured(self, candidate)[0]

    def verification_query(self, candidate) -> float:
        """Diagnostic exact similarity; unbudgeted, for reporting only."""
        return float(self._cosines(candidate).sum())

    def sample(self, candidate, shots: int) -> np.ndarray:
        """F estimates of ``shots`` consecutive :func:`query_measured` calls, in one draw.

        The whole count is charged at once; a count above the remaining
        budget is rejected before anything is charged, allocated or drawn.
        """
        shots = check_count(shots, "shots")
        cosines = self._admit(OracleKind.MEASURED, candidate, shots)
        return shot_estimates(cosines, self._rng.random((shots, self.n_sites)))


def query_exact(oracle: Oracle, candidate) -> float:
    """Exact chain similarity between the hidden target and the (N, 3) candidate."""
    return float(oracle._admit(OracleKind.EXACT, candidate).sum())


def query_noisy(oracle: Oracle, candidate) -> float:
    """Similarity plus uniform noise on (-ε, ε) from the oracle's seeded stream."""
    f = float(oracle._admit(OracleKind.NOISY, candidate).sum())
    if oracle._epsilon == 0.0:
        return f
    return float(noisy_replies(f, oracle._epsilon, oracle._rng.random(1))[0])


def query_measured(oracle: Oracle, candidate) -> tuple[float, np.ndarray]:
    """One projective shot per site: m_k ~ Bernoulli((cos θ_k + 1)/2), F = 2 Σ m_k - N.

    Returns the estimate F and the (N,) boolean outcomes m_k it counts.

    The per-site probabilities use the exact cos θ_k at any coupling; they
    coincide with physical single-copy measurement statistics in the weakly
    coupled limit where the chain state factorizes.
    """
    cosines = oracle._admit(OracleKind.MEASURED, candidate)
    outcomes = oracle._rng.random((1, oracle.n_sites))
    return float(shot_estimates(cosines, outcomes)[0]), outcomes[0].astype(bool)


def make_oracle(
    target: ChainSpec,
    kind: OracleKind = OracleKind.EXACT,
    budget: int = 1,
    seed: int = 0,
    epsilon: float = 0.0,
) -> Oracle:
    """Program a target into a fresh black box; its site directions are fixed here."""
    return Oracle(target, kind, budget, seed, epsilon)
