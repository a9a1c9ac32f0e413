"""Erasure-pattern machinery linking smoothing to BEC decoding.

For a linear code C and a coordinate set G, the collision count F(G, 0) is
the number of codewords vanishing on G; it equals 2^(k - rank of the G
columns of the generator).  Averaging log2(2^|G| F / |C|) over G with
i.i.d. membership probability lambda gives the conditional entropy of a
uniform dual codeword sent through BEC(lambda) -- the quantity bounding
the divergence of the Bernoulli-noised code distribution from uniform.

Because log2(2^|G| F / |C|) = |G| - rank(G columns), the exact expectation
reduces to n*lambda - E[rank].  The exact mode aggregates a (size, rank)
profile from the subset-sum transform of the code indicator over the
subset lattice, after which any lambda is a closed-form sum; the Monte
Carlo mode eliminates a batch of sampled column sets at once.  The
subcube-average inequalities read every conditional average E(f|G) off one
(3,)^n lattice of fiber averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes as cd
from . import hypercube as hc
from . import kernels as kn
from . import smoothing as sm
from .reports import BoundReport, check_bound

INF = math.inf

MC_SHARD = 4096


@dataclass
class ErasureContext:
    code: cd.LinearCode
    lam: float
    mode: str = "exact"            # "exact" | "mc"
    trials: int = 0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= float(self.lam) <= 1.0:
            raise ValueError(f"erasure probability {self.lam} outside [0,1]")
        if self.mode == "exact":
            _admit_rank_profile(self.code.n)
        if self.mode not in ("exact", "mc"):
            raise ValueError(f"unknown mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Collision counts
# ---------------------------------------------------------------------------

def collision_count(code: cd.LinearCode, coords) -> int:
    """F(G, 0): number of codewords that vanish on the coordinate set G."""
    cols = sorted(set(coords))
    if any(c < 0 or c >= code.n for c in cols):
        raise ValueError(f"coordinates {cols} outside [0, {code.n})")
    sub = code.generator[:, cols]
    return 1 << (code.k - cd.gf2_rank(sub.T))


# ---------------------------------------------------------------------------
# Rank profile over subsets and the exact conditional entropy
# ---------------------------------------------------------------------------

def _admit_rank_profile(n: int) -> None:
    # tracemalloc measured 4.2-4.6 bytes per subset at n = 20..22, plus the blocks
    hc.admit("rank profile over all coordinate subsets", nbytes=(4 << n) + (1 << 20),
             steps=1 << n)


def rank_profile(code: cd.LinearCode) -> dict[tuple[int, int], int]:
    """Counts of (|G|, rank of G columns) over all 2^n coordinate subsets.

    The 2^(k - rank) codewords vanishing on G are those supported on its
    complement T, and z[T] = #codewords supported in T is the subset-sum
    (zeta) transform of the code indicator: n in-place passes over the
    subset lattice.  The profile makes the subset expectation a closed
    form in lambda afterwards.
    """
    if code.rank_profile_cache is not None:
        return code.rank_profile_cache
    n, k = code.n, code.k
    _admit_rank_profile(n)
    z = np.zeros(1 << n, dtype=np.int32)
    z[code.codeword_ints()] = 1
    for c in range(n):
        v = z.reshape(-1, 2, 1 << c)
        v[:, 1, :] += v[:, 0, :]
    # subset G is the complement of index T: |G| = n - |T|, rank = k - log2 z[T];
    # counted a block of 2^16 indices at a time, so z is the only 2^n array
    z -= 1
    low = min(n, 16)
    size = n - np.bitwise_count(np.arange(1 << low)).astype(np.int64)
    counts = np.zeros((n + 1) * (k + 1), dtype=np.int64)
    for high, block in enumerate(z.reshape(-1, 1 << low)):
        key = (size - high.bit_count()) * (k + 1) + k - np.bitwise_count(block)
        counts += np.bincount(key, minlength=len(counts))
    counts = counts.reshape(n + 1, k + 1)
    code.rank_profile_cache = {sr: int(c) for sr, c in np.ndenumerate(counts) if c}
    return code.rank_profile_cache


def bec_conditional_entropy(ctx: ErasureContext) -> tuple[float, float]:
    """H(X_{C^perp} | BEC(lambda) output), with its standard error.

    Exact mode returns (value, 0.0); Monte Carlo returns an unbiased
    estimate with the standard error of the mean.
    """
    code, lam = ctx.code, float(ctx.lam)
    if ctx.mode == "exact":
        return _rank_expectation(code, lam), 0.0
    return _bec_entropy_mc(code, lam, ctx.trials, ctx.seed)


def _rank_expectation(code: cd.LinearCode, lam):
    """E[|G| - rank(G columns)] for G ~ lambda, summed over the rank profile.

    Works for float, Fraction and mpf lambda; 0 ** 0 == 1 in each, so the
    endpoints lambda in {0, 1} need no special case.
    """
    n = code.n
    return sum(count * lam ** size * (1 - lam) ** (n - size) * (size - rank)
               for (size, rank), count in rank_profile(code).items())


def _bec_entropy_mc(code: cd.LinearCode, lam: float, trials: int,
                    seed: int) -> tuple[float, float]:
    """Mean and standard error of |G| - rank(G columns) over sampled G,
    one (trials, n) shard of masked columns eliminated at a time."""
    if trials < 1:
        raise ValueError("Monte Carlo mode needs trials >= 1")
    columns = np.array(cd.rows_to_ints(code.generator.T), dtype=np.int64)
    acc = acc2 = 0
    for shard, done in enumerate(range(0, trials, MC_SHARD)):
        rng = np.random.Generator(np.random.Philox(key=[seed, (1 << 32) | shard]))
        picks = rng.random((min(MC_SHARD, trials - done), code.n)) < lam
        vals = picks.sum(axis=1) - _gf2_ranks(np.where(picks, columns, 0), code.k)
        acc += int(vals.sum())
        acc2 += int((vals * vals).sum())
    mean = acc / trials
    var = max(acc2 / trials - mean * mean, 0.0)
    return mean, math.sqrt(var / trials)


def _gf2_ranks(words: np.ndarray, bits: int) -> np.ndarray:
    """GF(2) rank of each row of `bits`-bit words, by elimination in place
    from the top bit: a word holding the bit is the pivot, XORed into every
    word of its row that holds the bit too."""
    rows = np.arange(len(words))
    ranks = np.zeros(len(words), dtype=np.int64)
    for b in reversed(range(bits)):
        has = (words >> b) & 1
        pivot = words[rows, has.argmax(axis=1)]
        words ^= has * pivot[:, None]
        ranks += (pivot >> b) & 1
    return ranks


# ---------------------------------------------------------------------------
# Smoothing vs erasure bound
# ---------------------------------------------------------------------------

def erasure_noise_level(alpha, delta: float) -> float:
    """The erasure rate paired with Bernoulli(delta) noise at order alpha.

    Exact for a Fraction delta at order 1; other orders take one log
    through `kn.log2`.
    """
    if alpha == 1:
        return (1 - 2 * delta) ** 2
    if alpha == INF:
        return 1 + kn.log2(1 - delta)
    if isinstance(alpha, int) or (isinstance(alpha, float) and alpha.is_integer()):
        if alpha >= 2:
            return 1 - kn.binary_renyi(alpha, delta)
    raise ValueError(
        f"order {alpha} unsupported: the pairing covers 1, integers >= 2, inf")


def smoothing_erasure_report(code: cd.LinearCode, delta: float, alpha) -> BoundReport:
    """D_alpha(T_delta f_C || U_n) <= dual-code BEC conditional entropy.

    The recheck evaluates both sides on the exact coset pmf and the exact
    delta.
    """
    lam = erasure_noise_level(alpha, delta)
    kernel = kn.Kernel.bernoulli(code.n, Fraction(delta))
    lhs = sm.smoothness_of(code, kernel, alpha).d_alpha
    rhs, _ = bec_conditional_entropy(ErasureContext(code, lam))

    def recheck():
        return (sm.divergence_to_uniform(sm.cell_pmf(code, kernel, True), alpha).d_alpha,
                _rank_expectation(code, erasure_noise_level(alpha, Fraction(delta))))

    return check_bound(
        f"smoothing<=erasure a={alpha} d={delta} n={code.n}", lhs, rhs,
        recheck=recheck,
        details={"alpha": alpha, "delta": delta, "lambda": lam},
    )


# ---------------------------------------------------------------------------
# The subcube-average inequalities
# ---------------------------------------------------------------------------

def statistic(f, order):
    """Ent[f] = ||f log2(f / ||f||_1)||_1 at order 1, log2 ||f||_a at integer
    a >= 2, or log2 max f at INF, of a nonnegative dense function in the
    normalized counting measure.  Float or exact (object array) input; the
    logs of an exact input go through `kn.log2`.
    """
    arr = f if isinstance(f, np.ndarray) else np.asarray(f, dtype=np.float64)
    hc.dimension_of(arr)
    reduce = np.max if order == INF else np.sum
    terms = reduce(_terms(arr, order, arr.mean()), keepdims=True)
    return _finish(terms, order, len(arr))[0]


def _terms(values: np.ndarray, order, mean) -> np.ndarray:
    """Summands of the statistic of order `order`: v log2(v / mean) (0 at
    v = 0) for the entropy, v^a for integer a, v itself for INF (whose
    reduction is the maximum)."""
    if order != 1:
        return values if order == INF else values ** int(order)
    if (values < 0).any():
        raise ValueError("entropy functional needs a nonnegative function")
    terms = np.zeros_like(values)
    pos = values > 0
    terms[pos] = values[pos] * _log2(values[pos] / mean)
    return terms


def _finish(reduced: np.ndarray, order, count):
    """The statistic from the reduced terms of `count` points."""
    if order == 1:
        return reduced / count
    if order == INF:
        return _log2(reduced)
    return _log2(reduced / count) / int(order)


def _log2(values: np.ndarray) -> np.ndarray:
    """`kn.log2` entrywise; a float array in one numpy call."""
    if values.dtype == object:
        return np.frompyfunc(kn.log2, 1, 1)(values)
    if not (values > 0).all():
        raise ValueError("log2 of a nonpositive statistic")
    return np.log2(values)


def subset_expectation(f, lam: float, order) -> float:
    """E_{G ~ lam} of `statistic(E(f|G), order)`: Ent at order 1,
    log2 ||.||_a at integer a >= 2, log2 max at INF.

    Appending to each axis of the (2,)^n cube its average over that axis
    gives a (3,)^n lattice whose entries with index 2 on exactly the axes
    outside G are the 2^|G| fiber values of E(f|G).  The statistic's terms
    are reduced over the kept indices 0 and 1 one axis at a time, which
    leaves one entry per subset.  Float or exact (object array) `f`; the
    fibers of an exact `f` are averaged exactly.
    """
    arr = f if isinstance(f, np.ndarray) else np.asarray(f, dtype=np.float64)
    n = hc.dimension_of(arr)
    # tracemalloc measured per lattice entry 41 bytes on floats (n = 8..13)
    # and 300-315 on the exact values of binary floats (n = 6..10)
    hc.admit("subset sweep", steps=3 ** n,
             nbytes=(400 if hc.is_exact(arr) else 48) * 3 ** n)
    lattice = arr.reshape((2,) * n)
    for axis in range(n):
        lattice = np.concatenate([lattice, lattice.mean(axis=axis, keepdims=True)], axis=axis)
    terms = _terms(lattice, order, lattice[(2,) * n])
    reduce = np.max if order == INF else np.sum
    for axis in range(n):
        kept, averaged = np.split(terms, [2], axis=axis)
        terms = np.concatenate([reduce(kept, axis=axis, keepdims=True), averaged], axis=axis)
    # flat index bit set: that coordinate is averaged out
    size = n - hc.weights_table(n).astype(np.int64)
    stats = _finish(terms.ravel(), order, (1 << size).astype(terms.dtype))
    weights = np.array([lam ** s * (1 - lam) ** (n - s) for s in range(n + 1)],
                       dtype=terms.dtype)
    return (weights[size] * stats).sum()


def noisy_entropy_report(f, delta: float) -> BoundReport:
    """Ent[T_delta f] <= E_{G~(1-2d)^2} Ent[E(f|G)] for nonnegative f."""
    return _noisy_report("noisy-entropy", f, delta, 1, {})


def noisy_norm_report(f, delta: float, alpha) -> BoundReport:
    """log ||T_delta f||_alpha <= E_G log ||E(f|G)||_alpha.

    Holds for integer alpha >= 2 with lambda = 1 - h_alpha(delta) and for
    alpha = inf with lambda = 1 + log2(1 - delta).
    """
    if alpha != INF and (alpha < 2 or int(alpha) != alpha):
        raise ValueError("norm inequality needs integer alpha >= 2 or inf")
    order = alpha if alpha == INF else int(alpha)
    return _noisy_report(f"noisy-norm a={alpha}", f, delta, order, {"alpha": alpha})


def _noisy_report(name: str, f, delta, order, details) -> BoundReport:
    """S(T_delta f) <= E_{G ~ lambda} S(E(f|G)) for S = `statistic(., order)`,
    with lambda the erasure rate paired with delta at that order.

    The recheck evaluates both sides on the exact binary values of f and
    delta.
    """
    arr = np.asarray(f, dtype=np.float64)
    n = hc.dimension_of(arr)
    kernel = kn.Kernel.bernoulli(n, Fraction(delta))

    def sides(g, lam):
        noisy = hc.convolve(g, kernel.lift(exact=hc.is_exact(g)))
        return statistic(noisy, order), subset_expectation(g, lam, order)

    lam = erasure_noise_level(order, delta)
    lhs, rhs = sides(arr, lam)
    return check_bound(
        f"{name} d={delta} n={n}", lhs, rhs,
        recheck=lambda: sides(hc.as_dense(arr, exact=True),
                              erasure_noise_level(order, Fraction(delta))),
        details={"delta": delta, **details, "lambda": lam})

