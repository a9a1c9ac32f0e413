"""Erasure-pattern machinery linking smoothing to BEC decoding.

For a linear code C and a coordinate set G, the collision count F(G, 0) is
the number of codewords vanishing on G; it equals 2^(k - rank of the G
columns of the generator).  Averaging log2(2^|G| F / |C|) over G with
i.i.d. membership probability lambda gives the conditional entropy of a
uniform dual codeword sent through BEC(lambda) -- the quantity bounding
the divergence of the Bernoulli-noised code distribution from uniform.

Because log2(2^|G| F / |C|) = |G| - rank(G columns), the exact expectation
reduces to n*lambda - E[rank].  The exact mode aggregates a (size, rank)
profile in one depth-first sweep over all subsets with an incrementally
maintained column basis, after which any lambda is a closed-form sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
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


def collision_count_direct(code: cd.LinearCode, coords) -> int:
    """Enumeration oracle for `collision_count` (small codes only)."""
    mask = 0
    for c in coords:
        mask |= 1 << c
    return int((code.codeword_ints() & mask == 0).sum())


# ---------------------------------------------------------------------------
# Rank profile over subsets and the exact conditional entropy
# ---------------------------------------------------------------------------

def _admit_rank_profile(n: int) -> None:
    hc.admit("rank profile over all coordinate subsets", steps=1 << n)


def rank_profile(code: cd.LinearCode) -> dict[tuple[int, int], int]:
    """Counts of (|G|, rank of G columns) over all 2^n coordinate subsets.

    One DFS over the subset tree keeps a partially built column basis, so
    adding a coordinate costs a handful of word operations; the profile
    makes the subset expectation a closed form in lambda afterwards.
    """
    if code.rank_profile_cache is not None:
        return code.rank_profile_cache
    n, k = code.n, code.k
    _admit_rank_profile(n)
    columns = [int(sum(int(code.generator[r, c]) << r for r in range(k)))
               for c in range(n)]
    profile: dict[tuple[int, int], int] = {}

    def walk(i: int, basis: tuple[int, ...], size: int) -> None:
        if i == n:
            key = (size, len(basis))
            profile[key] = profile.get(key, 0) + 1
            return
        walk(i + 1, basis, size)
        v = columns[i]
        for b in basis:
            if (v ^ b) < v:
                v ^= b
        new_basis = basis if v == 0 else tuple(sorted(basis + (v,), reverse=True))
        walk(i + 1, new_basis, size + 1)

    walk(0, (), 0)
    code.rank_profile_cache = profile
    return profile


def bec_conditional_entropy(ctx: ErasureContext) -> tuple[float, float]:
    """H(X_{C^perp} | BEC(lambda) output), with its standard error.

    Exact mode returns (value, 0.0); Monte Carlo returns an unbiased
    estimate with the standard error of the mean.
    """
    code, lam = ctx.code, float(ctx.lam)
    if ctx.mode == "exact":
        return _rank_expectation(code, lam), 0.0
    return _bec_entropy_mc(code, lam, ctx.trials, ctx.seed)


def bec_conditional_entropy_exact_fraction(code: cd.LinearCode, lam) -> Fraction:
    """Exact rational value of the conditional entropy for rational lambda."""
    return _rank_expectation(code, Fraction(lam))


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
    if trials < 1:
        raise ValueError("Monte Carlo mode needs trials >= 1")
    n, k = code.n, code.k
    columns = np.array(
        [int(sum(int(code.generator[r, c]) << r for r in range(k)))
         for c in range(n)], dtype=np.int64)
    acc = 0.0
    acc2 = 0.0
    done = 0
    shard = 0
    while done < trials:
        count = min(MC_SHARD, trials - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, (1 << 32) | shard]))
        picks = rng.random((count, n)) < lam
        for row in picks:
            basis: list[int] = []
            size = int(row.sum())
            for c in np.nonzero(row)[0]:
                v = int(columns[c])
                for b in basis:
                    if (v ^ b) < v:
                        v ^= b
                if v:
                    basis.append(v)
                    basis.sort(reverse=True)
            val = size - len(basis)
            acc += val
            acc2 += val * val
        done += count
        shard += 1
    mean = acc / trials
    var = max(acc2 / trials - mean * mean, 0.0)
    stderr = math.sqrt(var / trials)
    return mean, stderr


# ---------------------------------------------------------------------------
# Smoothing vs erasure bound
# ---------------------------------------------------------------------------

def erasure_noise_level(alpha, delta: float) -> float:
    """The erasure rate paired with Bernoulli(delta) noise at order alpha."""
    if alpha == 1:
        return (1 - 2 * delta) ** 2
    if alpha == INF:
        return 1 + math.log2(1 - delta)
    if isinstance(alpha, int) or (isinstance(alpha, float) and alpha.is_integer()):
        if alpha >= 2:
            return 1 - kn.binary_renyi(alpha, delta)
    raise ValueError(
        f"order {alpha} unsupported: the pairing covers 1, integers >= 2, inf")


def _erasure_noise_level_mp(alpha, delta: Fraction) -> mpmath.mpf:
    """`erasure_noise_level` at working precision, from an exact delta."""
    if alpha == 1:
        return (1 - 2 * sm._mp(delta)) ** 2
    if alpha == INF:
        return 1 + mpmath.log(1 - sm._mp(delta), 2)
    a = int(alpha)
    return 1 - sm._mp_log2(delta ** a + (1 - delta) ** a) / (1 - a)


def smoothing_erasure_report(code: cd.LinearCode, delta: float, alpha) -> BoundReport:
    """D_alpha(T_delta f_C || U_n) <= dual-code BEC conditional entropy."""
    lam = erasure_noise_level(alpha, delta)
    kernel = kn.Kernel.bernoulli(code.n, Fraction(delta))
    noisy = sm.smooth(code, kernel)
    lhs = sm.divergence_to_uniform(noisy, alpha).d_alpha
    rhs, _ = bec_conditional_entropy(ErasureContext(code, lam))

    def recheck():
        with mpmath.workdps(50):
            exact_noisy = sm.smooth(code, kernel, exact=True)
            lhs_hp = code.n - sm._mp_renyi(exact_noisy, alpha)
            lam_hp = _erasure_noise_level_mp(alpha, Fraction(delta))
            return lhs_hp, _rank_expectation(code, lam_hp)

    return check_bound(
        f"smoothing<=erasure a={alpha} d={delta} n={code.n}", lhs, rhs,
        recheck=recheck,
        details={"alpha": alpha, "delta": delta, "lambda": lam},
    )


# ---------------------------------------------------------------------------
# Conditional averaging and the subcube-average inequalities
# ---------------------------------------------------------------------------

def conditional_average(f, coords) -> np.ndarray:
    """E(f | G): average f over the coordinates outside G.

    Equals convolution with the uniform pmf on the subcube {x : x|_G = 0};
    computed here by direct fiber averaging.
    """
    arr = f if isinstance(f, np.ndarray) else hc.as_dense(f)
    n = hc.dimension_of(arr)
    coords = sorted(set(coords))
    out_mask = 0
    for c in coords:
        out_mask |= 1 << c
    free = [c for c in range(n) if c not in coords]
    # accumulate fiber sums by folding the free coordinates one at a time
    result = arr.copy()
    for c in free:
        result = result + result.reshape(-1, 2, 1 << c)[:, ::-1, :].reshape(-1)
    if hc.is_exact(arr):
        return result * Fraction(1, 1 << len(free))
    return result / (1 << len(free))


def entropy_functional(f) -> float:
    """Ent[f] = ||f log2(f / ||f||_1)||_1 for a nonnegative dense function."""
    arr = np.asarray(f, dtype=np.float64)
    n = hc.dimension_of(arr)
    if arr.min() < 0:
        raise ValueError("entropy functional needs a nonnegative function")
    mean = arr.mean()
    if mean == 0:
        return 0.0
    pos = arr[arr > 0]
    return float((pos * np.log2(pos / mean)).sum() / len(arr))


def _fiber_values(cube: np.ndarray, axes_keep: tuple[int, ...]) -> np.ndarray:
    """Mean of the n-dim cube over all axes except `axes_keep`, flattened."""
    drop = tuple(a for a in range(cube.ndim) if a not in axes_keep)
    return cube.mean(axis=drop).ravel() if drop else cube.ravel()


def subset_expectation(f, lam: float, functional) -> float:
    """E_{G ~ lam} functional(fiber-average values of f given G).

    `functional(values, gamma_size)` receives the distinct fiber values of
    E(f|G) (each repeated 2^(n-|G|) times in the dense function) and must
    return the statistic of interest.  Sums over all 2^n subsets, each
    visiting all 2^n points, as does the exact recheck of the same sweep.
    """
    arr = np.asarray(f, dtype=np.float64)
    n = hc.dimension_of(arr)
    hc.admit("subset sweep", steps=1 << 2 * n)
    # axis j of the reshaped cube corresponds to coordinate n-1-j
    cube = arr.reshape((2,) * n)
    total = 0.0
    for g in range(1 << n):
        size = g.bit_count()
        axes = tuple(n - 1 - c for c in range(n) if (g >> c) & 1)
        vals = _fiber_values(cube, axes)
        w = (lam ** size) * ((1 - lam) ** (n - size))
        total += w * functional(vals, size)
    return total


def _ent_of_fiber(values: np.ndarray, size: int) -> float:
    mean = values.mean()
    if mean == 0:
        return 0.0
    pos = values[values > 0]
    return float((pos * np.log2(pos / mean)).sum() / len(values))


def _subset_expectation_mp(f_fracs: np.ndarray, lam: mpmath.mpf, term_mp) -> mpmath.mpf:
    """High-precision E_G term(fiber averages), fibers computed exactly."""
    n = hc.dimension_of(f_fracs)
    total = mpmath.mpf(0)
    for g in range(1 << n):
        coords = [c for c in range(n) if (g >> c) & 1]
        vals = conditional_average(f_fracs, coords)
        size = len(coords)
        w = lam ** size * (1 - lam) ** (n - size)
        total += w * term_mp(vals)
    return total


def _ent_term_mp(vals) -> mpmath.mpf:
    mean = sum(vals) / len(vals)
    if mean == 0:
        return mpmath.mpf(0)
    acc = mpmath.mpf(0)
    for v in vals:
        if v > 0:
            acc += sm._mp(v) * sm._mp_log2(v / mean)
    return acc / len(vals)


def _as_fraction_array(arr: np.ndarray) -> np.ndarray:
    out = np.empty(len(arr), dtype=object)
    out[:] = [Fraction(float(v)) for v in arr]
    return out


def noisy_entropy_report(f, delta: float) -> BoundReport:
    """Ent[T_delta f] <= E_{G~(1-2d)^2} Ent[E(f|G)] for nonnegative f."""
    arr = np.asarray(f, dtype=np.float64)
    n = hc.dimension_of(arr)
    kernel = kn.Kernel.bernoulli(n, Fraction(delta))
    lhs = entropy_functional(hc.convolve(arr, kernel.lift()))
    lam = erasure_noise_level(1, delta)
    rhs = subset_expectation(arr, lam, _ent_of_fiber)

    def recheck():
        with mpmath.workdps(50):
            fr = _as_fraction_array(arr)
            noisy = hc.convolve(fr, kernel.lift(exact=True))
            lhs_hp = _ent_term_mp(list(noisy))
            lam_hp = _erasure_noise_level_mp(1, Fraction(delta))
            return lhs_hp, _subset_expectation_mp(fr, lam_hp, _ent_term_mp)

    return check_bound(f"noisy-entropy d={delta} n={n}", lhs, rhs,
                       recheck=recheck,
                       details={"delta": delta, "lambda": lam})


def noisy_norm_report(f, delta: float, alpha) -> BoundReport:
    """log ||T_delta f||_alpha <= E_G log ||E(f|G)||_alpha.

    Holds for integer alpha >= 2 with lambda = 1 - h_alpha(delta) and for
    alpha = inf with lambda = 1 + log2(1 - delta).
    """
    if alpha != INF and (alpha < 2 or int(alpha) != alpha):
        raise ValueError("norm inequality needs integer alpha >= 2 or inf")
    arr = np.asarray(f, dtype=np.float64)
    n = hc.dimension_of(arr)
    kernel = kn.Kernel.bernoulli(n, Fraction(delta))
    noisy = hc.convolve(arr, kernel.lift())
    lam = erasure_noise_level(alpha if alpha == INF else int(alpha), delta)

    if alpha == INF:
        lhs = math.log2(noisy.max())
        rhs = subset_expectation(
            arr, lam, lambda vals, size: math.log2(vals.max()))

        def term_mp(vals):
            return sm._mp_log2(max(vals))
    else:
        a = int(alpha)
        lhs = math.log2(np.mean(noisy ** a)) / a
        rhs = subset_expectation(
            arr, lam,
            lambda vals, size: math.log2(np.mean(vals ** a)) / a)

        def term_mp(vals):
            return sm._mp_log2(sum(v ** a for v in vals) / len(vals)) / a

    def recheck():
        with mpmath.workdps(50):
            fr = _as_fraction_array(arr)
            exact_noisy = hc.convolve(fr, kernel.lift(exact=True))
            lhs_hp = term_mp(list(exact_noisy))
            lam_hp = _erasure_noise_level_mp(alpha, Fraction(delta))
            return lhs_hp, _subset_expectation_mp(fr, lam_hp, term_mp)

    return check_bound(f"noisy-norm a={alpha} d={delta} n={n}", lhs, rhs,
                       recheck=recheck,
                       details={"delta": delta, "alpha": alpha, "lambda": lam})


def conditional_norm_expectation(code: cd.LinearCode, lam: float, alpha: int) -> float:
    """(alpha/(alpha-1)) E_G log ||E(2^n f_C | G)||_alpha, by enumeration.

    For a linear code this is independent of alpha and coincides with the
    BEC conditional entropy of the dual; evaluated directly so the
    identity can be checked numerically.
    """
    f = code.pmf()
    scaled = f * (1 << code.n)
    a = int(alpha)
    val = subset_expectation(
        scaled, lam, lambda vals, size: math.log2(np.mean(vals ** a)) / a)
    return val * a / (a - 1)
