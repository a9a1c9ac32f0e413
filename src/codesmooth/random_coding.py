"""Random code ensembles: moments of noisy-distribution norms.

The ensemble draws M codewords i.i.d. uniformly (with repetition).  The
central statistic is the expected alpha-power of the scaled noisy code
distribution,

    Q_n(alpha) = E_C ||2^n T_r f_C||_alpha^alpha,

estimated by Monte Carlo at any order and computed exactly, as a finite
sum over set partitions, at integer orders; together with a recursive
finite-n upper bound driven by the Renyi entropies of the kernel, and a
Chernoff-type bound on the expected sup norm.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hypercube as hc
from . import kernels as kn

INF = math.inf

MC_SHARD = 256


@dataclass
class EnsembleSpec:
    n: int
    rate: float
    kernel: kn.Kernel
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.kernel.n != self.n:
            raise hc.DimensionMismatch("kernel dimension differs from n")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # the kernel's float64 spectrum, a trial's counts and their float64
        # product, the draws, and numpy's cast buffers: tracemalloc measured
        # (24 << n) + 8 M + 70 KB at n = 14..20 on the spectrum route, and at
        # most (17 << n) + 8 M on the Bernoulli one
        hc.admit("dense ensemble trial",
                 nbytes=(24 << self.n) + 8 * self.num_codewords + (1 << 17))

    @property
    def num_codewords(self) -> int:
        return num_codewords(self.n, self.rate)


def num_codewords(n: int, rate: float) -> int:
    """M = 2^(nR) rounded, at least 1: the codewords an ensemble draws."""
    return max(1, round(2 ** (n * rate)))


def _sample_statistics(spec: EnsembleSpec, trial_value,
                       parseval: bool = False) -> tuple[float, float]:
    """Mean and standard error of a per-code statistic over random codes.

    A trial bins its M draws into counts, which sum to M and so transform
    exactly in float32 while M <= 2^24 (`hc._float_exact`), in float64
    above.  With `parseval`, `trial_value(spectrum)` receives
    W(counts) * W(r) / M in float64, the unnormalized transform of 2^n T_r f_C.
    Otherwise it receives 2^n T_r f_C itself, nonnegative: for a Bernoulli
    kernel one float64 pass of the factor [[1-d, d], [d, 1-d]] over
    counts * 2^n / M, whose terms are all nonnegative; for any other kernel
    the spectrum's float64 inverse transform, with round-off below 0
    clamped.  `trial_value` may overwrite its argument.
    """
    n, m = spec.n, spec.num_codewords
    delta = None if parseval else spec.kernel.delta
    if delta is None:
        wr = spec.kernel.spectrum(np.arange(1 << n))
        wr /= m
        counts_dtype = np.float32 if hc._float_exact(np.float32, 0, m) else np.float64
    else:
        flip = ((float(1 - delta), float(delta)), (float(delta), float(1 - delta)))

    def trial(rng) -> float:
        counts = np.bincount(rng.integers(0, 1 << n, size=m), minlength=1 << n)
        if delta is not None:
            noisy = hc._float_in_place(counts, np.float64)
            noisy *= (1 << n) / m
            return trial_value(hc._wht_blocked_inplace(noisy, flip))
        spectrum = hc._wht_blocked_inplace(hc._float_in_place(counts, counts_dtype)) * wr
        del counts   # free its buffer before the inverse transform
        if parseval:
            return trial_value(spectrum)
        # 2^n T_r f_C = W(W(f) W(r)) / 2^n scaled back up by 2^n
        return trial_value(np.maximum(hc._wht_inplace(spectrum), 0.0, out=spectrum))

    return hc.sample_mean(lambda rng, count: [trial(rng) for _ in range(count)],
                          spec.trials, spec.seed, 3, MC_SHARD)


def qn_estimate(spec: EnsembleSpec, alpha) -> tuple[float, float]:
    """Monte Carlo estimate of Q_n(alpha) with its standard error."""
    if alpha < 0 or alpha == INF:
        raise ValueError("Q_n is defined for finite alpha >= 0")
    if alpha == 1:
        return 1.0, 0.0  # every sample is exactly 1: pmf normalization
    a = float(alpha)
    if a == 2.0:
        # Parseval: mean over x of (2^n T f)^2 equals sum over y of
        # (W(f) W(r))^2, saving the second transform
        return _sample_statistics(spec, lambda s: float(s @ s), parseval=True)
    return _sample_statistics(spec, lambda s: float(np.mean(np.power(s, a, out=s))))


def sup_norm_estimate(spec: EnsembleSpec) -> tuple[float, float]:
    """Monte Carlo estimate of E ||2^n T_r f_C||_inf."""
    return _sample_statistics(spec, lambda s: float(s.max()))


def qn_exact(n: int, m: int, kernel: kn.Kernel, alpha: int) -> Fraction:
    """E Q_n(alpha) over M i.i.d. uniform codewords, exactly, for integer
    alpha >= 1.

    2^n T_r f_C(x) = (2^n / M) sum_j r(x + c_j), so its alpha-th power sums
    over index tuples (j_1, ..., j_alpha).  The equal indices of a tuple
    partition [alpha] into blocks pi; (M)_{|pi|} tuples share that pattern,
    their |pi| codewords are independent, and a block B contributes
    E r(x + c)^|B| = S_|B| / 2^n with S_j = sum_z r(z)^j:

        E Q_n(alpha) = M^-alpha sum_pi (M)_{|pi|} prod_{B in pi} 2^(n(|B|-1)) S_|B|.

    The alpha! / prod_i (i!^m_i m_i!) partitions with m_i blocks of size i
    give equal terms, so one term per integer partition of alpha is summed,
    in rationals; S_j reads the kernel's distinct values (`Kernel.masses`).
    """
    if kernel.n != n:
        raise hc.DimensionMismatch("kernel dimension differs from n")
    if alpha != int(alpha) or alpha < 1:
        raise ValueError(f"exact Q_n needs an integer order >= 1, got {alpha}")
    alpha = int(alpha)
    masses = kernel.masses()
    scaled = [None] + [sum(count * v ** j for v, count in masses.items()) * (1 << n * (j - 1))
                       for j in range(1, alpha + 1)]   # 2^(n(j-1)) S_j
    total = Fraction(0)
    for shape in _integer_partitions(alpha, alpha):
        ways = math.factorial(alpha) // math.prod(
            math.factorial(size) ** mult * math.factorial(mult)
            for size, mult in Counter(shape).items())
        total += ways * math.perm(m, len(shape)) * math.prod(scaled[size] for size in shape)
    return total / m ** alpha


def _integer_partitions(total: int, largest: int):
    """The partitions of `total` into parts of at most `largest`, as
    nonincreasing tuples."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _integer_partitions(total - part, part):
            yield (part,) + rest


# ---------------------------------------------------------------------------
# Recursive upper bound and the sup-norm bound
# ---------------------------------------------------------------------------

def qn_recursive_bound(n: int, rate: float, kernel: kn.Kernel,
                       p: int, q: int) -> float:
    """Finite-n upper bound on Q_n(1 + p/q) by unfolding the recursion

        Q_n(1 + p/q) <= sum_k C(p,k) 2^{(nk/q)(1 - R - H_{1+k/q}(r)/n)}
                        * Q_n((p-k)/q)

    with Q_n(x) <= 1 for x <= 1 as the base case.  Arguments above 1
    re-enter the recursion with the denominator q preserved.
    """
    if p < 1 or q < 1:
        raise ValueError("need positive integers p, q")
    ent = {}

    def entropy(k: int) -> float:
        if k not in ent:
            ent[k] = kernel.renyi_entropy(1 + Fraction(k, q))
        return ent[k]

    memo: dict[int, float] = {}

    def bound_power(pp: int) -> float:
        # upper bound on Q_n(pp/q + 1) ... shifted so that bound_power(p)
        # bounds Q_n(1 + p/q); arguments (pp - k)/q <= 1 collapse to 1
        if pp in memo:
            return memo[pp]
        total = 0.0
        for k in range(pp + 1):
            rest = pp - k
            if rest <= q:
                tail = 1.0  # Q_n(rest/q) with rest/q <= 1
            else:
                tail = bound_power(rest - q)  # Q_n(rest/q) = Q_n(1 + (rest-q)/q)
            exponent = (n * k / q) * (1 - rate - entropy(k) / n)
            total += math.comb(pp, k) * (2.0 ** exponent) * tail
        memo[pp] = total
        return total

    return bound_power(p)


def dinf_bound(n: int, rate: float, kernel: kn.Kernel, eps: float) -> float:
    """Chernoff bound 1 + eps + 2^(2n - Hinf(r)) exp(-2 eps^2 2^-(n(1-R) - Hinf(r)))
    on the expected sup norm of the scaled noisy distribution."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    hinf = kernel.renyi_entropy(INF)
    exponent = n * (1 - rate) - hinf
    return 1 + eps + 2.0 ** (2 * n - hinf) * math.exp(-2 * eps * eps * 2.0 ** (-exponent))
