"""Diagonalized sequence model: problems, observations and the estimator.

The problem Y_k = sqrt(lambda_k) f_k + sigma xi_k is stored through the
eigenvalues of T*T, the truth coefficients and the per-coordinate noise
level.  Sampling is fully deterministic given an explicit seed; substream
seeds for replicated experiments are derived with a SplitMix64 mix so
results do not depend on worker count or scheduling.  A study derives the
seeds of many replications at once, and the words numpy's SeedSequence
hashes each into (``_cell_words``), and builds each replication's PCG64
generator from its words (``_generators``): the stream of PCG64(seed),
without hashing one seed at a time.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .filters import FilterSpec, filter_value

__all__ = [
    "SpectralProblem",
    "substream_seed",
    "sample_observations",
    "estimate_coefficients",
]

_MASK64 = (1 << 64) - 1


class SpectralProblem(Record):
    """Eigenvalues of T*T (non-increasing, > 0), truth coefficients, noise level."""

    eigenvalues: np.ndarray
    truth_coeffs: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        # frozen copies: the caller's own arrays stay writeable
        eig = np.array(self.eigenvalues, dtype=float)
        tru = np.array(self.truth_coeffs, dtype=float)
        if eig.ndim != 1 or eig.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d sequence")
        if not ((eig > 0).all() and (eig < math.inf).all()):
            raise ValueError("eigenvalues must be finite and strictly positive")
        if np.any(np.diff(eig) > 0):
            raise ValueError("eigenvalues must be non-increasing")
        if tru.shape != eig.shape:
            raise ValueError("truth_coeffs must match eigenvalues in length")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        eig.setflags(write=False)
        tru.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "truth_coeffs", tru)
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


def _splitmix64(z):
    """SplitMix64's output function of the state z + gamma, for a Python int
    below 2^64 or, entry by entry, a 1-d uint64 array (which wraps)."""
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_GAMMA = 0x9E3779B97F4A7C15


def substream_seed(master_seed: int, index: int) -> int:
    """Derive a 64-bit substream seed from (master_seed, index).

    This is the SplitMix64 stream: the master seed is finalized once and
    the index advances the state by the golden-ratio increment, so nearby
    indices decorrelate and the mapping is not symmetric in its arguments.
    Replication results therefore depend only on (master_seed, index),
    never on worker count or scheduling.  Two 1-d uint64 arrays give the
    seed of each pair of their entries.
    """
    state = (_splitmix64(master_seed & _MASK64) + (index & _MASK64) * _GAMMA) & _MASK64
    return _splitmix64(state)


def sample_observations(problem: SpectralProblem, replicate_seed: int) -> np.ndarray:
    """Draw Y_k = sqrt(lambda_k) f_k + sigma xi_k with seeded Gaussian noise,
    as a read-only (n,) float array.

    The noise stream is PCG64 seeded with ``replicate_seed``; the standard
    normal variates are numpy's ziggurat transform of that uniform stream.
    Identical seeds give bit-identical observations.
    """
    signal = np.sqrt(problem.eigenvalues) * problem.truth_coeffs
    y = _noisy(signal, problem.sigma, iter([_generator(replicate_seed)]), 1)[0]
    y.setflags(write=False)
    return y


def _noisy(signal: np.ndarray, sigma: float, generators, count: int) -> np.ndarray:
    """(count, n) observations fl(signal) + fl(sigma xi): row r draws its
    noise xi from the next of ``generators``, and ``signal`` is an (n,) or
    (count, n) array of sqrt(lambda) f."""
    noise = np.empty((count, signal.shape[-1]))
    for row in noise:
        next(generators).standard_normal(out=row)
    noise *= sigma
    noise += signal
    return noise


def _generator(seed: int):
    """numpy's PCG64 generator of one seed, reduced mod 2^64."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def _hash_constants(value: int, multiplier: int, count: int) -> np.ndarray:
    """(2, count, 1) uint32: the xor constants h_t and the multipliers
    h_(t+1) = h_t multiplier mod 2^32, h_0 = value, of SeedSequence's
    successive hashes, which do not depend on the entropy."""
    h = [value]
    for _ in range(count):
        h.append(h[-1] * multiplier & 0xFFFFFFFF)
    return np.array([h[:-1], h[1:]], dtype=np.uint32)[..., None]


# numpy.random.SeedSequence's constants: mix_entropy hashes 16 times over a
# pool of four uint32 words, and generate_state 8 times, once per word
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash ((w ^ h_t) h_(t+1)) ^ (. >> 16) mod 2^32 of
    uint32 words (rows), with one pair of ``constants`` per row."""
    out = words ^ constants[0]
    out *= constants[1]
    out ^= out >> np.uint32(16)
    return out


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """(len(seeds), 4) uint64: ``SeedSequence(s).generate_state(4, np.uint64)``
    for each entry s of a uint64 array, the words PCG64(s) is seeded from.

    SeedSequence reads s as the uint32 words [s mod 2^32, s >> 32] (one word
    if s < 2^32, where the second is 0 anyway) and pads them with zeros to
    its pool of four.  Its hashes are replayed here in numpy's order for all
    seeds at once: mixing source row i into the other three pool rows
    changes only those rows, so it is one step.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds & np.uint64(0xFFFFFFFF), seeds >> np.uint64(32)
    pool = _hash(pool, _MIX_HASH[:, :4])
    for i in range(4):
        rest = [j for j in range(4) if j != i]
        mixed = _MIX_L * pool[rest] - _MIX_R * _hash(pool[i], _MIX_HASH[:, 4 + 3 * i : 7 + 3 * i])
        pool[rest] = mixed ^ mixed >> np.uint32(16)
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASH).astype(np.uint64)
    # uint64 word k joins uint32 words 2k (low) and 2k + 1 (high)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


# seeds hashed at a time, so the hashing's memory does not grow with a run
_SEED_CHUNK = 1024


def _cell_words(master_seed: int, shape: tuple[int, ...]):
    """Yield the ``_seed_words`` row of every cell (i, j, ...) of an array of
    ``shape``, in C order: the seed of cell (i, j, ...) is
    substream_seed(...substream_seed(substream_seed(master_seed, i), j)...).
    The seeds and their words are computed ``_SEED_CHUNK`` cells at a time."""
    size = math.prod(shape)
    for lo in range(0, size, _SEED_CHUNK):
        seeds = np.full(min(_SEED_CHUNK, size - lo), np.uint64(master_seed & _MASK64))
        for index in np.unravel_index(np.arange(lo, lo + len(seeds)), shape):
            seeds = substream_seed(seeds, index.astype(np.uint64))
        yield from _seed_words(seeds)


class _SeedWords:
    """A SeedSequence stand-in that hands PCG64 the precomputed words of its seed."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        """The words, which PCG64 asks for as generate_state(4, np.uint64)."""
        return self.words


def _generators(words):
    """numpy's PCG64 generator of each row of (rows, 4) uint64 ``words`` (the
    ``_seed_words`` of its seed), built as it is reached."""
    from numpy.random.bit_generator import ISeedSequence

    # registered at the first draw, so that importing the package leaves numpy.random unloaded
    ISeedSequence.register(_SeedWords)
    return (np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words)


def estimate_coefficients(problem: SpectralProblem, spec: FilterSpec, alpha: float, obs: np.ndarray) -> np.ndarray:
    """The coefficients (f_hat)_k = sqrt(lambda_k) q_alpha(lambda_k) Y_k of
    the regularized estimate in the eigenbasis, for (n,) observations ``obs``."""
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (problem.n_modes,):
        raise ValueError("observations must be a 1-d array of the problem's length")
    q = filter_value(spec, alpha, problem.eigenvalues)
    return np.sqrt(problem.eigenvalues) * q * obs
