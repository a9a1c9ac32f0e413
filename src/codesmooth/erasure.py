"""Erasure-pattern machinery linking smoothing to BEC decoding.

For a linear code C and a coordinate set G, the collision count F(G, 0) is
the number of codewords vanishing on G; it equals 2^(k - rank of the G
columns of the generator).  Averaging log2(2^|G| F / |C|) over G with
i.i.d. membership probability lambda gives the conditional entropy of a
uniform dual codeword sent through BEC(lambda) -- the quantity bounding
the divergence of the Bernoulli-noised code distribution from uniform.

Because log2(2^|G| F / |C|) = |G| - rank(G columns), the exact expectation
reduces to n*lambda - E[rank].  The exact mode aggregates a (size, rank)
profile from the subset-sum transform of the code indicator, a Kronecker
power that the blocked transform of `hypercube` multiplies by, after which
any lambda is a closed-form sum; the Monte Carlo mode eliminates a batch
of sampled column sets at once, on the narrowest unsigned words that hold
a column.  The subcube-average inequalities read every conditional average
E(f|G) off one (3,)^n lattice of fiber averages.
"""

from __future__ import annotations

import functools
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
    code: cd.Code
    lam: float
    mode: str = "exact"            # "exact" | "mc"
    trials: int = 0
    seed: int = 0

    def __post_init__(self):
        self.code.require_linear("the dual code's BEC conditional entropy")
        if not 0.0 <= float(self.lam) <= 1.0:
            raise ValueError(f"erasure probability {self.lam} outside [0,1]")
        if self.mode == "exact":
            _admit_rank_profile(self.code.n)
        if self.mode not in ("exact", "mc"):
            raise ValueError(f"unknown mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Collision counts
# ---------------------------------------------------------------------------

def collision_count(code: cd.Code, coords) -> int:
    """F(G, 0): number of codewords that vanish on the coordinate set G."""
    code.require_linear("a collision count")
    cols = sorted(set(coords))
    if any(c < 0 or c >= code.n for c in cols):
        raise ValueError(f"coordinates {cols} outside [0, {code.n})")
    sub = code.generator[:, cols]
    return 1 << (code.k - cd.gf2_rank(sub.T))


# ---------------------------------------------------------------------------
# Rank profile over subsets and the exact conditional entropy
# ---------------------------------------------------------------------------

def _admit_rank_profile(n: int) -> None:
    # tracemalloc measured 4 bytes per subset plus 1.8 MiB of blocks at n = 20..22
    hc.admit("rank profile over all coordinate subsets", nbytes=(4 << n) + (2 << 20),
             steps=1 << n)


def rank_profile(code: cd.Code) -> dict[tuple[int, int], int]:
    """Counts of (|G|, rank of G columns) over all 2^n coordinate subsets.

    The 2^(k - rank) codewords vanishing on G are those supported on its
    complement T, and z[T] = #codewords supported in T is the subset-sum
    (zeta) transform of the code indicator, its product by the n-th
    Kronecker power of [[1, 0], [1, 1]] (`hc._wht_blocked_inplace`), exact
    in float32: every partial sum counts at most 2^k <= 2^22 codewords, as
    the step cap refuses n > 22.  The profile makes the subset expectation
    a closed form in lambda afterwards.
    """
    code.require_linear("the rank profile")
    if code.rank_profile_cache is not None:
        return code.rank_profile_cache
    n, k = code.n, code.k
    _admit_rank_profile(n)
    z = np.zeros(1 << n, dtype=np.float32)
    z[code.codeword_ints()] = 1
    hc._wht_blocked_inplace(z, ((1, 0), (1, 1)))
    # subset G is the complement of index T: |G| = n - |T|, rank = k - log2 z[T],
    # with log2 z[T] + 127 the float32 exponent field of the power of two z[T];
    # counted a block of 2^16 indices at a time, so z is the only 2^n array
    low = min(n, 16)
    base = (n - np.bitwise_count(np.arange(1 << low)).astype(np.int64)) * (k + 1) + k + 127
    counts = np.zeros((n + 1) * (k + 1), dtype=np.int64)
    for high, block in enumerate(z.view(np.int32).reshape(-1, 1 << low)):
        key = base - (block >> 23) - high.bit_count() * (k + 1)
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


def _rank_expectation(code: cd.Code, lam):
    """E[|G| - rank(G columns)] for G ~ lambda, summed over the rank profile.

    Works for float, Fraction and mpf lambda; 0 ** 0 == 1 in each, so the
    endpoints lambda in {0, 1} need no special case.
    """
    n = code.n
    return sum(count * lam ** size * (1 - lam) ** (n - size) * (size - rank)
               for (size, rank), count in rank_profile(code).items())


def _bec_entropy_mc(code: cd.Code, lam: float, trials: int,
                    seed: int) -> tuple[float, float]:
    """Mean and standard error of |G| - rank(G columns) over sampled G, one
    shard of masked columns eliminated at a time (`hc.sample_mean` stream 1)."""
    word = np.min_scalar_type((1 << code.k) - 1)   # the dtype `_gf2_ranks` eliminates on
    columns = np.array(cd.rows_to_ints(code.generator.T), dtype=word)

    def draw(rng, count):
        picks = rng.random((count, code.n)) < lam
        return picks.sum(axis=1) - _gf2_ranks(np.where(picks, columns, 0), code.k)

    return hc.sample_mean(draw, trials, seed, 1, MC_SHARD)


def _gf2_ranks(words: np.ndarray, bits: int) -> np.ndarray:
    """GF(2) rank of each row of `bits`-bit words, as int64, by elimination
    from the top bit on the narrowest unsigned words that hold them, in
    place when `words` has that dtype: a word holding the bit is the pivot,
    XORed into every word of its row that holds the bit too."""
    words = words.astype(np.min_scalar_type((1 << bits) - 1), copy=False)
    rows = np.arange(len(words))
    ranks = np.zeros(len(words), dtype=words.dtype)
    for b in reversed(range(bits)):
        has = (words >> b) & 1
        pivot = words[rows, has.argmax(axis=1)]
        words ^= has * pivot[:, None]
        ranks += (pivot >> b) & 1
    return ranks.astype(np.int64)


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


def smoothing_erasure_report(code: cd.Code, delta: float, alpha) -> BoundReport:
    """D_alpha(T_delta f_C || U_n) <= dual-code BEC conditional entropy
    (`smoothing_erasure_reports` at one order)."""
    return smoothing_erasure_reports(code, delta, (alpha,))[0]


def smoothing_erasure_reports(code: cd.Code, delta, alphas) -> list[BoundReport]:
    """`smoothing_erasure_report` at each order of `alphas`, in that order.

    The orders share their order-free work: one Bernoulli(delta) kernel,
    one float cell pmf and the code's cached rank profile.  A recheck
    evaluates both sides on the exact cell pmf, built at most once per
    call, and the exact delta.
    """
    code.require_linear("the smoothing-vs-erasure bound")
    lams = [erasure_noise_level(alpha, delta) for alpha in alphas]
    kernel = kn.Kernel.bernoulli(code.n, Fraction(delta))
    pmf = sm.cell_pmf(code, kernel)
    exact_pmf = functools.cache(lambda: sm.cell_pmf(code, kernel, True))

    def report(alpha, lam):
        def recheck():
            return (sm.divergence_to_uniform(exact_pmf(), alpha).d_alpha,
                    _rank_expectation(code, erasure_noise_level(alpha, Fraction(delta))))

        return check_bound(f"smoothing<=erasure a={alpha} d={delta} n={code.n}",
                           sm.divergence_to_uniform(pmf, alpha).d_alpha,
                           bec_conditional_entropy(ErasureContext(code, lam))[0],
                           recheck=recheck, details={"alpha": alpha, "delta": delta, "lambda": lam})

    return [report(alpha, lam) for alpha, lam in zip(alphas, lams)]


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
    log2 ||.||_a at integer a >= 2, log2 max at INF; the per-subset
    statistics of `_subset_statistics`, weighted by lam^|G| (1-lam)^(n-|G|)."""
    size, (stats,) = _subset_statistics(f, (order,))
    return _weighted(stats, size, lam)


def _subset_statistics(f, orders) -> tuple[np.ndarray, list[np.ndarray]]:
    """|G| and `statistic(E(f|G), order)` for each order, per subset G.

    Appending to each axis of the (2,)^n cube its average over that axis
    gives a (3,)^n lattice whose entries with index 2 on exactly the axes
    outside G are the 2^|G| fiber values of E(f|G).  It grows once, one
    axis at a time, the most significant first: with a axes done, the flat
    lattice is viewed as (3^a, 2, rest) and copied into a (3^a, 3, rest)
    array whose slot 2 is the sum of slots 0 and 1, halved.  Each order's
    terms are reduced over the kept indices 0 and 1 the same way, (2^a, 3,
    rest) into (2^a, 2, rest) with slots 0 and 1 summed (their maximum at
    INF) into slot 0, which leaves one entry per subset, indexed with a set
    bit for each coordinate averaged out.  Float or exact (object array)
    `f`; the fibers of an exact `f` are averaged exactly.
    """
    arr = f if isinstance(f, np.ndarray) and f.dtype == object else \
        np.asarray(f, dtype=np.float64)
    n = hc.dimension_of(arr)
    # tracemalloc measured per lattice entry 41 bytes on floats at order 1
    # and 17-22 at orders 2 and INF (n = 8..13), and 130-315 on the exact
    # values of binary floats (n = 6..9); one order's terms are live at a time
    hc.admit("subset sweep", steps=3 ** n,
             nbytes=(400 if hc.is_exact(arr) else 48) * 3 ** n)
    lattice = arr
    for a in range(n):
        lattice = _append_mean(lattice.reshape(3 ** a, 2, -1))
    lattice = lattice.reshape(-1)
    size = n - hc.weights_table(n).astype(np.int64)
    stats = []
    for order in orders:
        terms = _terms(lattice, order, lattice[-1])   # index 2 on every axis: the mean of f
        reduce = np.maximum if order == INF else np.add
        for a in range(n):
            terms = _reduce_kept(terms.reshape(1 << a, 3, -1), reduce)
        stats.append(_finish(terms.ravel(), order, (1 << size).astype(terms.dtype)))
    return size, stats


def _weighted(stats: np.ndarray, size: np.ndarray, lam):
    """sum over subsets G of lam^|G| (1-lam)^(n-|G|) stats[G]."""
    n = int(size[0])   # subset 0 averages nothing out
    weights = np.array([lam ** s * (1 - lam) ** (n - s) for s in range(n + 1)],
                       dtype=stats.dtype)
    return (weights[size] * stats).sum()


def _append_mean(cube: np.ndarray) -> np.ndarray:
    """(rows, 2, rest) -> a new (rows, 3, rest) array whose slot 2 is the
    mean of slots 0 and 1."""
    out = np.empty((cube.shape[0], 3, cube.shape[2]), dtype=cube.dtype)
    out[:, :2] = cube
    np.add(cube[:, 0], cube[:, 1], out=out[:, 2])
    out[:, 2] /= 2
    return out


def _reduce_kept(terms: np.ndarray, reduce) -> np.ndarray:
    """(rows, 3, rest) -> a new (rows, 2, rest) array: slots 0 and 1 reduced
    pairwise into slot 0, slot 2 moved to slot 1."""
    out = np.empty((terms.shape[0], 2, terms.shape[2]), dtype=terms.dtype)
    reduce(terms[:, 0], terms[:, 1], out=out[:, 0])
    out[:, 1] = terms[:, 2]
    return out


def bernoulli_noise(f: np.ndarray, delta) -> np.ndarray:
    """T_delta f, the average of f over Bernoulli(delta) bit flips, as a new
    array: one Kronecker pass of the flip [[1 - d, d], [d, 1 - d]] on floats
    (`hc._wht_blocked_inplace`), with no kernel built, or for d = p/q of
    [[q - p, p], [p, q - p]] on the integer numerators of exact values, then
    divided by their denominator times q^n."""
    if not hc.is_exact(f):
        d = float(delta)
        return hc._wht_blocked_inplace(np.array(f, dtype=np.float64), ((1 - d, d), (d, 1 - d)))
    n, (p, q) = hc.dimension_of(f), Fraction(delta).as_integer_ratio()
    # by tracemalloc at n = 6..14, the peak, at the division, holds per point
    # two pointers, the numerator, grown by q's bits a pass, and a Fraction
    # (48 bytes) with a numerator and a denominator as wide, 4 bytes per 30
    # bits each, plus 4 KiB of stacks; first charged before scaling allocates
    grown = 3 * n * q.bit_length()
    hc.admit("exact Bernoulli noise", nbytes=((160 + grown * 2 // 15) << n) + 4096)
    ints, denom = hc._scale_to_int(f)
    bits = 2 * hc._max_abs(ints).bit_length() + denom.bit_length() + grown
    hc.admit("exact Bernoulli noise", nbytes=((160 + bits * 2 // 15) << n) + 4096)
    hc._wht_blocked_inplace(ints, ((q - p, p), (p, q - p)))
    return ints * Fraction(1, denom * q ** n)


def noisy_entropy_report(f, delta: float) -> BoundReport:
    """Ent[T_delta f] <= E_{G~(1-2d)^2} Ent[E(f|G)] for nonnegative f."""
    return noisy_reports(f, (delta,), (1,))[0]


def noisy_norm_report(f, delta: float, alpha) -> BoundReport:
    """log ||T_delta f||_alpha <= E_G log ||E(f|G)||_alpha.

    Holds for integer alpha >= 2 with lambda = 1 - h_alpha(delta) and for
    alpha = inf with lambda = 1 + log2(1 - delta).
    """
    if alpha == 1:
        raise ValueError("norm inequality needs integer alpha >= 2 or inf")
    return noisy_reports(f, (delta,), (alpha,))[0]


def noisy_reports(f, deltas, orders) -> list[BoundReport]:
    """S(T_delta f) <= E_{G ~ lambda} S(E(f|G)) for S = `statistic(., order)`,
    with lambda the erasure rate paired with delta at that order: the
    entropy inequality at order 1, the norm inequality at integer orders
    >= 2 and INF.  One report per (delta, order), delta-major.

    The reports share their order-free work: the subset lattice grows once
    (`_subset_statistics`), T_delta f is computed once per delta with no
    kernel built (`bernoulli_noise`), and lambda weights the per-subset
    statistics last.  A recheck evaluates both sides on the exact binary
    values of f, built at most once per call, and of delta.
    """
    labels = [_noisy_label(order) for order in orders]
    arr = np.asarray(f, dtype=np.float64)
    n = hc.dimension_of(arr)
    size, stats = _subset_statistics(arr, [order for _, order, _ in labels])
    exact = functools.cache(lambda: hc.as_dense(arr, exact=True))
    out = []
    for delta in deltas:
        noisy = bernoulli_noise(arr, delta)
        for (name, order, details), stat in zip(labels, stats):
            def recheck(order=order, delta=delta):
                lam = erasure_noise_level(order, Fraction(delta))
                return (statistic(bernoulli_noise(exact(), delta), order),
                        subset_expectation(exact(), lam, order))
            lam = erasure_noise_level(order, delta)
            out.append(check_bound(
                f"{name} d={delta} n={n}", statistic(noisy, order), _weighted(stat, size, lam),
                recheck=recheck, details={"delta": delta, **details, "lambda": lam}))
    return out


def _noisy_label(alpha) -> tuple[str, object, dict]:
    """Report name, statistic order and details of `noisy_reports` at alpha."""
    if alpha == 1:
        return "noisy-entropy", 1, {}
    if alpha != INF and (alpha < 2 or int(alpha) != alpha):
        raise ValueError("norm inequality needs integer alpha >= 2 or inf")
    return f"noisy-norm a={alpha}", alpha if alpha == INF else int(alpha), {"alpha": alpha}
