"""Random code ensembles: moments of noisy-distribution norms.

The ensemble draws M codewords i.i.d. uniformly (with repetition).  The
central statistic is the expected alpha-power of the scaled noisy code
distribution,

    Q_n(alpha) = E_C ||2^n T_r f_C||_alpha^alpha,

estimated by Monte Carlo, together with a recursive finite-n upper bound
driven by the Renyi entropies of the kernel, and a Chernoff-type bound on
the expected sup norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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
        if self.num_codewords < 1:
            raise ValueError("ensemble needs at least one codeword")
        # per trial: the draws, their histogram and two transforms of it
        hc.admit("dense ensemble trial",
                 nbytes=(48 << self.n) + 8 * self.num_codewords)

    @property
    def num_codewords(self) -> int:
        return max(1, round(2 ** (self.n * self.rate)))


def _kernel_transform_by_weight(kernel: kn.Kernel) -> np.ndarray:
    """Unnormalized transform of the kernel indexed by output weight."""
    if kernel.is_radial():
        wr = hc.radial_transform(kernel.n, kernel.radial_profile(exact=False))
        return np.array(wr)[hc.weights_table(kernel.n)]
    return hc.wht_natural(kernel.lift())


def _sample_statistics(spec: EnsembleSpec, trial_value) -> tuple[float, float]:
    """Mean and standard error of a per-code statistic over random codes.

    `trial_value(spectrum)` receives the unnormalized transform of the
    scaled noisy distribution, i.e. W(f_C) * W(r) evaluated pointwise;
    one more transform divided by 2^n recovers 2^n T_r f_C when needed.
    """
    n, m = spec.n, spec.num_codewords
    wr = _kernel_transform_by_weight(spec.kernel)
    acc = 0.0
    acc2 = 0.0
    done = 0
    shard = 0
    while done < spec.trials:
        count = min(MC_SHARD, spec.trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=[spec.seed, (3 << 32) | shard]))
        for _ in range(count):
            draws = rng.integers(0, 1 << n, size=m)
            hist = np.bincount(draws, minlength=1 << n).astype(np.float64) / m
            spectrum = hc.wht_natural(hist)
            spectrum *= wr
            val = trial_value(spectrum)
            acc += val
            acc2 += val * val
        done += count
        shard += 1
    mean = acc / spec.trials
    var = max(acc2 / spec.trials - mean * mean, 0.0)
    return mean, math.sqrt(var / spec.trials)


def _scaled_noisy(spectrum: np.ndarray) -> np.ndarray:
    # 2^n T_r f_C = W(W(f) W(r)) / 2^n scaled back up by 2^n
    return hc.wht_natural(spectrum)


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
        def trial_value(spectrum: np.ndarray) -> float:
            return float(spectrum @ spectrum)
    else:
        def trial_value(spectrum: np.ndarray) -> float:
            scaled = _scaled_noisy(spectrum)
            np.maximum(scaled, 0.0, out=scaled)  # round-off can dip below 0
            return float(np.mean(scaled ** a))

    return _sample_statistics(spec, trial_value)


def sup_norm_estimate(spec: EnsembleSpec) -> tuple[float, float]:
    """Monte Carlo estimate of E ||2^n T_r f_C||_inf."""
    return _sample_statistics(spec, lambda s: float(_scaled_noisy(s).max()))


def qn_exact_pairwise(n: int, m: int, kernel: kn.Kernel) -> float:
    """Closed-form E Q_n(2) = 1 + (2^n sum_z r(z)^2 - 1) / M.

    The second moment only sees pairwise codeword collisions, whose
    expectation is exact for i.i.d. uniform draws.
    """
    lifted = kernel.lift(exact=True)
    l2 = (1 << n) * sum(Fraction(v) ** 2 for v in lifted)
    return float(1 + (l2 - 1) / m)


def qn_exhaustive(n: int, m: int, kernel: kn.Kernel, alpha: float) -> float:
    """Brute-force E Q_n(alpha) over every codeword tuple (tiny n, M only)."""
    hc.admit("exhaustive ensemble expectation", steps=(1 << n) ** m)
    lifted = kernel.lift()
    idx = np.arange(1 << n)
    total = 0.0
    for tup in product(range(1 << n), repeat=m):
        noisy = sum(lifted[idx ^ c] for c in tup) / m
        total += float(np.mean((noisy * (1 << n)) ** alpha))
    return total / (1 << n) ** m


# ---------------------------------------------------------------------------
# Recursive upper bound and the sup-norm bound
# ---------------------------------------------------------------------------

def fractional_power_inequality(x: float, y: float, p: int, q: int) -> bool:
    """(x+y)^(p/q) <= sum_k C(p,k) x^(k/q) y^((p-k)/q) for x, y >= 0."""
    lhs = (x + y) ** (p / q)
    rhs = sum(math.comb(p, k) * x ** (k / q) * y ** ((p - k) / q)
              for k in range(p + 1))
    return lhs <= rhs * (1 + 1e-12)


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
