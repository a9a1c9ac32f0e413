"""Noisy code distributions and their distance to uniform.

The central object is T_r f_C: the uniform distribution on a code pushed
through a noise kernel.  This module measures how far that distribution is
from uniform (Renyi divergence of any order), provides the closed-form
second-moment identities that express the L2 case through distance
spectra, the rate lower bound, threshold-rate formulas for Bernoulli and
ball noise families, and exact certificates of perfect smoothing
(including recovery of the smoothing kernel for uniformly packed codes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import logsumexp

from . import codes as cd
from . import hypercube as hc
from . import kernels as kn
from .reports import BoundReport, check_bound

INF = math.inf


# ---------------------------------------------------------------------------
# Noisy code distributions
# ---------------------------------------------------------------------------

def smooth(code, kernel: kn.Kernel, exact: bool = False) -> np.ndarray:
    """Dense pmf of the noisy code distribution r * f_C."""
    if kernel.n != code.n:
        raise hc.DimensionMismatch(f"kernel n={kernel.n}, code n={code.n}")
    hc.admit("exact smoothing" if exact else "dense smoothing",
             nbytes=(hc.EXACT_CELL_BYTES if exact else 48) << code.n)
    return hc.convolve(code.pmf(exact=exact), kernel.lift(exact=exact))


def is_perfectly_smoothed(code, kernel: kn.Kernel) -> bool:
    """Exact test of T_r f_C == U_n.

    A radial kernel is scaled to integers by its common denominator and
    convolved with the code indicator by `hc.convolve_radial` (int64 when
    its rule admits, Python ints otherwise), so no per-point Fraction is
    built; other kernels compare every entry of the exact rational
    smoothing with 2^{-n}.
    """
    n = code.n
    if kernel.n != n:
        raise hc.DimensionMismatch(f"kernel n={kernel.n}, code n={n}")
    if not kernel.is_radial():
        target = Fraction(1, 1 << n)
        return all(v == target for v in smooth(code, kernel, exact=True))
    prof = kernel.radial_profile()
    denom = math.lcm(*(f.denominator for f in prof))
    # uniform iff the scaled smoothing equals |C| * denom / 2^n everywhere
    target = code.size * denom
    if target % (1 << n):
        return False
    hc.admit("perfect-smoothing certificate", nbytes=48 << n)
    (conv,) = hc.convolve_radial(code.indicator(), [[int(f * denom) for f in prof]])
    return bool((conv == target >> n).all())


# ---------------------------------------------------------------------------
# Smoothness metrics
# ---------------------------------------------------------------------------

@dataclass
class SmoothnessReport:
    n: int
    alpha: float
    d_alpha: float       # divergence to uniform, bits
    l_alpha: float       # norm of 2^n f (>= 1 for alpha > 1)
    dimensionless: float  # ||f - U||_alpha / ||f||_1


def divergence_to_uniform(f, alpha) -> SmoothnessReport:
    """All three proximity metrics of a pmf to the uniform distribution.

    d_alpha = n - H_alpha(f); l_alpha = ||2^n f||_alpha; the dimensionless
    ratio is ||f - U||_alpha / ||f||_1 = ||2^n f - 1||_alpha.  The norms
    are undefined at alpha = 0, where only the divergence is filled in.
    """
    arr = f if isinstance(f, np.ndarray) else hc.as_dense(f)
    n = hc.dimension_of(arr)
    d_alpha = n - kn.renyi_entropy(arr, alpha)
    if alpha == 0:
        return SmoothnessReport(n, alpha, d_alpha, math.nan, math.nan)
    if hc.is_exact(arr):
        arr = np.array([float(v) for v in arr])
    scaled = arr * (1 << n)
    l_alpha = _norm(scaled, alpha)
    dimensionless = _norm(scaled - 1.0, alpha)
    return SmoothnessReport(n, alpha, d_alpha, l_alpha, dimensionless)


def _norm(values: np.ndarray, alpha) -> float:
    """Normalized-counting-measure alpha-norm of a dense function."""
    a = np.abs(values)
    if alpha == INF:
        return float(a.max())
    if alpha == 0:
        raise ValueError("norm undefined for alpha = 0")
    # mean(|v|^alpha)^(1/alpha) in a log-safe form
    pos = np.log(a[a > 0])
    if pos.size == 0:
        return 0.0
    s = logsumexp(alpha * pos) - math.log(len(values))
    return float(math.exp(s / alpha))


def smoothness_of(code, kernel: kn.Kernel, alpha) -> SmoothnessReport:
    return divergence_to_uniform(smooth(code, kernel), alpha)


# ---------------------------------------------------------------------------
# Closed-form L2 smoothness
# ---------------------------------------------------------------------------

def l2_closed_form(dist, size: int, kernel: kn.Kernel, exact: bool = False):
    """||2^n T_r f_C||_2^2 from the distance distribution of the code.

    Radial kernels only: the value equals

        (2^n / |C|) * sum_i (r*r)(i) A_i

    It also equals 4^n * sum_k rhat(k)^2 A'_k, the dual spectrum form;
    the tests hold the two forms to exact agreement.
    """
    if not kernel.is_radial():
        raise ValueError("closed-form L2 smoothness needs a radial kernel")
    n = kernel.n
    prof = kernel.radial_profile()
    rr = hc.radial_convolve(n, prof, prof)
    primal = sum(rr[i] * Fraction(dist[i]) for i in range(n + 1))
    primal = Fraction(1 << n, size) * primal
    return primal if exact else float(primal)


def l2_dense_oracle(code, kernel: kn.Kernel) -> float:
    """||2^n T_r f_C||_2^2 by direct dense convolution (cross-check path)."""
    noisy = smooth(code, kernel)
    n = code.n
    scaled = noisy * (1 << n)
    return float(np.mean(scaled ** 2))


# ---------------------------------------------------------------------------
# Rate bounds and threshold rates
# ---------------------------------------------------------------------------

def lower_bound(n: int, rate: float, kernel: kn.Kernel, alpha) -> float:
    """Divergence floor n(1-R) - H_alpha(r) for any code of rate R."""
    return n * (1 - rate) - kernel.renyi_entropy(alpha)


def lower_bound_report(code, kernel: kn.Kernel, alpha) -> BoundReport:
    """Measured divergence against the rate floor, as LHS <= RHS."""
    noisy = smooth(code, kernel)
    rate = math.log2(code.size) / code.n
    floor = lower_bound(code.n, rate, kernel, alpha)
    measured = divergence_to_uniform(noisy, alpha).d_alpha

    def recheck():
        return _divergence_gap_exact(code, kernel, alpha)

    return check_bound(
        f"rate-floor a={alpha} n={code.n}", floor, measured,
        recheck=recheck if _exact_recheck_available(kernel, alpha) else None,
        details={"alpha": alpha, "rate": rate},
    )


def _exact_recheck_available(kernel: kn.Kernel, alpha) -> bool:
    return not (kernel.form == "dense" and not hc.is_exact(kernel.values))


def _divergence_gap_exact(code, kernel: kn.Kernel, alpha):
    """High-precision (50-digit) evaluation of measured vs floor.

    Starts from the exact rational noisy pmf, so the only approximation
    is the final transcendental log, taken at 50 significant digits.
    """
    noisy = smooth(code, kernel, exact=True)
    with mpmath.workdps(50):
        measured = code.n - _mp_renyi(noisy, alpha)
        ent = _mp_renyi(kernel.lift(exact=True), alpha)
        floor = code.n - mpmath.log(code.size, 2) - ent
        return floor, measured


def _mp_renyi(values, alpha):
    terms = [Fraction(v) for v in values if v != 0]
    if alpha == INF:
        return -_mp_log2(max(terms))
    if alpha == 1:
        return -mpmath.fsum(_mp(t) * _mp_log2(t) for t in terms)
    if float(alpha).is_integer():
        return _mp_log2(sum(t ** int(alpha) for t in terms)) / (1 - alpha)
    s = mpmath.fsum(_mp(t) ** alpha for t in terms)
    return mpmath.log(s, 2) / (1 - alpha)


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _mp_log2(f: Fraction):
    return (mpmath.log(f.numerator) - mpmath.log(f.denominator)) / mpmath.log(2)


def capacity(kind: str, alpha, delta: float) -> float:
    """Threshold rate for vanishing divergence under a noise family.

    Bernoulli(delta) family: 0 at alpha=0, 1-h(delta) on (0,1],
    1-h_alpha(delta) on (1,inf].  Ball family (radius delta*n): 1-h(delta)
    for every order.
    """
    if not 0 <= delta <= 0.5:
        raise ValueError(f"noise level {delta} outside [0, 1/2]")
    if kind == "bernoulli":
        if alpha == 0:
            return 0.0
        if alpha <= 1:
            return 1.0 - kn.binary_entropy(delta)
        return 1.0 - kn.binary_renyi(alpha, delta)
    if kind == "ball":
        return 1.0 - kn.binary_entropy(delta)
    raise ValueError(f"unknown noise family {kind!r}")


def pi_rate(kind: str, alpha, delta: float, n: int | None = None) -> float:
    """Entropy rate H_alpha(r_n)/n of a noise family.

    Bernoulli has the n-free closed form h_alpha(delta); the ball family
    value log2(V_{floor(delta*n)})/n needs a concrete n.
    """
    if kind == "bernoulli":
        return kn.binary_renyi(alpha, delta)
    if kind == "ball":
        if n is None:
            raise ValueError("ball-family entropy rate needs an explicit n")
        t = math.floor(delta * n)
        return math.log2(hc.ball_volume(n, t)) / n
    raise ValueError(f"unknown noise family {kind!r}")


# ---------------------------------------------------------------------------
# Perfect smoothing kernels for uniformly packed codes
# ---------------------------------------------------------------------------

def local_weight_rows(code, radius: int) -> np.ndarray:
    """Distinct rows (N_0(x), ..., N_radius(x)) of codeword counts at each
    distance, over all x in the cube."""
    n = code.n
    # the transforms and weight table, plus one int64 column per shell
    hc.admit("local weight rows", nbytes=(72 + 8 * radius) << n)
    shells = [[int(j == i) for j in range(n + 1)] for i in range(radius + 1)]
    cols = hc.convolve_radial(code.indicator(), shells)
    # the shell-i count is at most min(|C|, C(n,i)); when the widths fit
    # one word, pack each row into a single key so the dedup is a 1-D
    # unique instead of a lexicographic row sort
    widths = [min(code.size, math.comb(n, i)).bit_length() + 1
              for i in range(radius + 1)]
    if sum(widths) <= 63:
        packed = cols[0].copy()
        for c, w in zip(cols[1:], widths[1:]):
            packed <<= w
            packed |= c
        keys = np.unique(packed)
        out = np.empty((len(keys), radius + 1), dtype=np.int64)
        for j in range(radius, 0, -1):
            mask = (1 << widths[j]) - 1
            out[:, j] = keys & mask
            keys = keys >> widths[j]
        out[:, 0] = keys
        return out
    stacked = np.stack(cols, axis=1)
    return np.unique(stacked, axis=0)


def perfect_kernel_search(code) -> kn.Kernel | None:
    """Recover a radial kernel of radius = covering radius that smooths the
    code perfectly, when one exists.

    Solves sum_{i<=rho} w_i N_i(x) = 1 over the distinct local count rows
    in exact rationals.  Free variables (underdetermined systems) are set
    to zero starting from the largest radius, which prefers the
    minimal-radius solution.  Any solution must be nonnegative and is
    re-verified by the exact uniformity certificate before being returned.
    """
    rho = cd.covering_radius(code)
    rows = local_weight_rows(code, rho)
    sol = _solve_exact_nonneg(rows, rho + 1)
    if sol is None:
        return None
    # w_i = (2^n / |C|) r(i); normalize the value pattern to a pmf
    n = code.n
    prof = [Fraction(0)] * (n + 1)
    for i, w in enumerate(sol):
        prof[i] = w
    total = hc.radial_sum(n, prof)
    if total <= 0:
        return None
    kernel = kn.Kernel.radial(n, [v / total for v in prof])
    if not is_perfectly_smoothed(code, kernel):
        return None
    return kernel


def _solve_exact_nonneg(rows: np.ndarray, width: int) -> list[Fraction] | None:
    """Exact rational Gaussian elimination of rows * w = 1, w >= 0."""
    aug = [[Fraction(int(v)) for v in row] + [Fraction(1)] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][width] != 0:
            return None  # inconsistent
    sol = [Fraction(0)] * width
    for row_idx, c in enumerate(pivots):
        sol[c] = aug[row_idx][width]  # free columns stay zero
    if any(v < 0 for v in sol):
        return None
    return sol


# ---------------------------------------------------------------------------
# Radial shortcut for ball-shaped codes (strong-converse demonstration)
# ---------------------------------------------------------------------------

def ball_code_divergence(n: int, t: int, delta, alpha=1) -> float:
    """D_alpha(T_delta f_{B(0,t)} || U_n) computed entirely on profiles.

    The code distribution and the Bernoulli kernel are both radial, so the
    noisy pmf is radial too and the whole computation is O(n^2).
    """
    d = Fraction(delta)
    vol = hc.ball_volume(n, t)
    code_prof = [Fraction(1, vol) if i <= t else Fraction(0) for i in range(n + 1)]
    noise_prof = [d ** i * (1 - d) ** (n - i) for i in range(n + 1)]
    noisy = hc.radial_convolve(n, code_prof, noise_prof)
    return n - kn.renyi_entropy_radial(n, [float(v) for v in noisy], alpha)


def strong_converse_gap(n: int, delta: float, delta_prime: float) -> tuple[float, float]:
    """Normalized divergence of a noisy ball code vs its limit value.

    Returns (measured D/n, 1 - h(delta ⊛ delta')), where ⊛ is the
    crossover combination d(1-d') + d'(1-d).
    """
    t = round(delta_prime * n)
    measured = ball_code_divergence(n, t, Fraction(delta).limit_denominator(10**6)) / n
    star = delta * (1 - delta_prime) + delta_prime * (1 - delta)
    return measured, 1.0 - kn.binary_entropy(star)
