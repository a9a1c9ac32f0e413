"""Noisy code distributions and their distance to uniform.

The central object is T_r f_C: the uniform distribution on a code pushed
through a noise kernel.  Its transform is the kernel's spectrum times the
code's, so for every kernel it is constant on each coset of the linear
code L whose cosets make up the code (a coset of a linear code, a point of
an explicit one), and it is computed, and every report reads it, as a pmf
on those cells (`cell_pmf`): one transform of the kernel's spectrum by the
code's `cell_transform`, the same route for every code and kernel form.
Only `smooth` spreads it over the 2^n points.  This module measures how
far that distribution is from uniform (Renyi divergence of any order),
provides the closed-form second-moment identities that express the L2
case through distance spectra, the rate lower bound, threshold-rate
formulas for Bernoulli and ball noise families, and exact certificates of
perfect smoothing, which hold when the kernel's exact spectrum vanishes on
the code's nonzero spectrum support (including recovery of the smoothing
kernel for uniformly packed codes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes as cd
from . import hypercube as hc
from . import kernels as kn
from .reports import BoundReport, check_bound

INF = math.inf
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


# ---------------------------------------------------------------------------
# Noisy code distributions
# ---------------------------------------------------------------------------

def cell_pmf(code, kernel: kn.Kernel, exact: bool = False) -> np.ndarray:
    """The noisy code distribution r * f_C as a pmf on the cells it is
    constant on (the 2^(n-k) cosets of the code's L), whose divergences and
    norms equal those of the dense pmf.

    For every kernel, the code's `cell_transform` of the kernel's spectrum
    at its spectrum points gives |C| cells^2 / 2^n times each cell's mass:
    exact integers T(s) over D |C| cells^2 / 2^n for the kernel's
    denominator D.  A float pmf divides them while D cells < 2^63; beyond,
    it transforms the float spectrum and zeroes the cells where the integer
    transform of the support's spectrum counts no point."""
    return _cell_masses(code, kernel, exact, 1)


def smooth(code, kernel: kn.Kernel, exact: bool = False) -> np.ndarray:
    """Dense pmf of the noisy code distribution r * f_C: the cell masses of
    `cell_pmf` spread over the 2^n / cells points of each cell."""
    hc.admit("exact smoothing" if exact else "dense smoothing",
             nbytes=_smoothing_bytes(code, kernel, exact, dense=True))
    share = (1 << code.n) // code.cells
    masses = _cell_masses(code, kernel, exact, share)
    return masses if share == 1 else masses[code.cube_cells()]   # one cell per point, in order


def _cell_masses(code, kernel: kn.Kernel, exact: bool, share: int) -> np.ndarray:
    """`cell_pmf` divided by `share`."""
    if kernel.n != code.n:
        raise hc.DimensionMismatch(f"kernel n={kernel.n}, code n={code.n}")
    hc.admit("exact smoothing" if exact else "cell smoothing",
             nbytes=_smoothing_bytes(code, kernel, exact))
    scale = share * (code.size * code.cells ** 2 >> code.n)
    if exact or _on_int64(code, kernel):
        counts, denom = kernel.spectrum(code.spectrum_points(), exact=True)
        return _cell_values(code.cell_transform(counts, denom), denom * scale, exact)
    # both spectra first: the character sum of a code that is not linear,
    # built by the first cell transform and kept for the second, is then
    # not held beside them
    values = kernel.spectrum(code.spectrum_points())
    support, _ = kernel.spectrum(code.spectrum_points(), exact=True, support=True)
    pmf = code.cell_transform(values, 1)
    pmf[code.cell_transform(support, 1 << code.n) == 0] = 0.0
    pmf /= scale
    return pmf


def _cell_values(counts: np.ndarray, denom: int, exact: bool) -> np.ndarray:
    """counts / denom: Fractions, one built per distinct count, or floats."""
    if not exact:
        return (counts / float(denom)).astype(np.float64, copy=False)
    values, index = np.unique(counts, return_inverse=True)
    return np.array([Fraction(int(v), denom) for v in values], dtype=object)[index]


def _on_int64(code, kernel: kn.Kernel) -> bool:
    """True when the integer cell counts fit int64: D cells < 2^63."""
    return kernel.denominator.bit_length() + code.cells.bit_length() <= 63


def _smoothing_bytes(code, kernel: kn.Kernel, exact: bool, dense: bool = False) -> int:
    """Peak bytes of `cell_pmf`, with `dense` of `smooth`: the largest of its
    phases, by tracemalloc at n = 12..20, and in float the Kronecker stacks.
    The cell transform, per cell: 17-27 float while D cells < 2^63, with 8
    more for the low limb of an integer transform past 2^53 up to 2^17
    cells, and 24-28 beyond; exact 49-57, then 91-217 for 54-991 bits of D;
    plus the code's own `transform_bytes`.  A dense kernel's spectrum, per
    point: 56-86 while D < 2^63, 106-137 for 67-94 bits and 258-325 for
    551-771.  The gather of `smooth`, which a cell per point skips: 16-18
    per point plus the cell pmf."""
    bits, on_int64 = kernel.denominator.bit_length(), _on_int64(code, kernel)
    per_cell = (64 if on_int64 else 124 + bits // 8) if exact else 22 if on_int64 else 28
    phases = [(per_cell + code.transform_bytes) * code.cells, _dense_spectrum_bytes(kernel)]
    largest_count = kernel.denominator * (code.size * code.cells ** 2 >> code.n)
    if on_int64 and not exact and largest_count > 1 << 53:
        # the low limb's array joins the transform; from 2^17 cells on, that
        # phase is no larger than the float pmf's
        phases[0] += 8 * min(code.cells, 1 << 17)
    if dense and code.cells < 1 << code.n:
        phases.append((20 << code.n) + 8 * code.cells)
    return max(phases) + (0 if exact else hc.FLOAT_STACK_BYTES)


def _dense_spectrum_bytes(kernel: kn.Kernel) -> int:
    """Peak bytes of a dense kernel's exact spectrum (`_smoothing_bytes`), else 0."""
    bits = kernel.denominator.bit_length()
    return 0 if kernel.values is None else (96 if bits <= 63 else 120 + 3 * bits // 10) << kernel.n


def is_perfectly_smoothed(code, kernel: kn.Kernel) -> bool:
    """Exact test of T_r f_C == U_n, with no cell transform: its transform
    is the kernel's spectrum times the code's, so it holds iff the kernel's
    exact spectrum vanishes on the code's `spectrum_support`."""
    if kernel.n != code.n:
        raise hc.DimensionMismatch(f"kernel n={kernel.n}, code n={code.n}")
    # per cell chi, the points, two masks, the support, its weights and spectrum
    hc.admit("perfect-smoothing certificate", nbytes=44 * code.cells
             + _dense_spectrum_bytes(kernel) + hc.FLOAT_STACK_BYTES)
    counts, _ = kernel.spectrum(code.spectrum_support(), exact=True)
    return not counts.any()


# ---------------------------------------------------------------------------
# Smoothness metrics
# ---------------------------------------------------------------------------

@dataclass
class SmoothnessReport:
    alpha: float
    d_alpha: float       # divergence to uniform, bits
    l_alpha: float       # norm of 2^n f (>= 1 for alpha > 1)
    dimensionless: float  # ||f - U||_alpha / ||f||_1


def divergence_to_uniform(f, alpha) -> SmoothnessReport:
    """All three proximity metrics of a pmf on {0,1}^n to the uniform
    distribution; the pmf of `cell_pmf` on the cosets of a linear code
    gives the same three as the dense pmf.

    d_alpha = n - H_alpha(f); l_alpha = ||2^n f||_alpha, read from it as
    2^(d_alpha (alpha - 1) / alpha) (2^d_inf at alpha = inf, 1 at alpha = 1),
    since mean((2^n f)^alpha) = 2^(n (alpha - 1)) sum f^alpha; the
    dimensionless ratio is ||f - U||_alpha / ||f||_1 = ||e||_alpha for
    e = 2^n f - 1.  The norms are undefined at alpha = 0, where only the
    divergence is filled in.  An exact pmf is grouped into distinct masses,
    one float conversion each.  A float divergence drops from each point
    the first-order term of e, whose mean is 0, so a tiny one keeps its
    relative precision: D_1 = mean((1 + e) log1p(e) - e) / ln 2, D_alpha =
    log1p(mean((1 + e)^alpha - 1 - alpha e)) / ((alpha - 1) ln 2), but D_2
    and ||e||_2 come from one dot product, mean(e^2), and D_inf and
    ||e||_inf from max f and min f, with no 2^n temporary.
    """
    arr = f if isinstance(f, np.ndarray) else hc.as_dense(f)
    n, exact = hc.dimension_of(arr), hc.is_exact(arr)
    if exact:
        masses = kn.point_masses(arr)
        d_alpha = n - kn.exact_renyi(masses, alpha)
        # the norms need each value's multiplicity, not its position
        arr = np.zeros(len(arr))
        arr[:sum(masses.values())] = np.repeat([float(v) for v in masses], list(masses.values()))
    else:
        kn.check_float_pmf(arr)
    if alpha == 0:
        d_alpha = d_alpha if exact else n - math.log2(np.count_nonzero(arr > 0))
        return SmoothnessReport(alpha, d_alpha, math.nan, math.nan)
    if alpha == INF:   # e at the extremes of f, round-off below a zero mass clipped to -1
        top, bottom = (max(float(v), 0.0) * (1 << n) - 1.0 for v in (arr.max(), arr.min()))
        d, norm = math.log1p(top) / math.log(2), max(top, -bottom)
    else:
        centered = arr * (1 << n)
        centered -= 1.0
        np.maximum(centered, -1.0, out=centered)   # round-off below a zero mass
        if alpha == 2:
            mean = float(centered @ centered) / centered.size
            d, norm = math.log1p(mean) / math.log(2), math.sqrt(mean)
        else:
            d = None if exact else _centered_divergence(centered, alpha)
            norm = _norm(centered, alpha)
    d_alpha = d_alpha if exact else d
    l_alpha = 2.0 ** (float(d_alpha) * (1.0 if alpha == INF else 1 - 1 / float(alpha)))
    return SmoothnessReport(alpha, d_alpha, l_alpha, norm)


def _centered_divergence(e: np.ndarray, alpha) -> float:
    """D_alpha in bits of the pmf (1 + e) / 2^n, 0 < alpha < inf (see above),
    with (1 + e) log1p(e) taken as 0 on a zero mass (e = -1); where the sum
    of (1 + e)^alpha would overflow, (kn.logsumexp(alpha log1p(e)) - ln N) /
    ((alpha - 1) ln 2) over the N cells, large, so nothing cancels."""
    a = float(alpha)
    with np.errstate(divide="ignore"):   # log1p(-1) = -inf on zero masses
        if alpha != 1 and a * math.log1p(float(e.max())) + math.log(e.size) > _LOG_FLOAT_MAX:
            log_mean = kn.logsumexp(a * np.log1p(e)) - math.log(e.size)
            return log_mean / ((a - 1) * math.log(2))
        terms = np.log1p(e, out=np.zeros_like(e), where=e > -1) if alpha == 1 \
            else np.expm1(a * np.log1p(e))
    # at order 1, the sum of e log1p(e) and log1p(e) - e, on one temporary
    cross = float(e @ terms) if alpha == 1 else 0.0
    terms -= e if alpha == 1 else a * e
    mean = (float(terms.sum()) + cross) / e.size
    if mean == 0:
        return 0.0   # not log1p(0) / (alpha - 1), which is -0.0 below order 1
    return (mean if alpha == 1 else math.log1p(mean) / (a - 1)) / math.log(2)


def _norm(values: np.ndarray, alpha) -> float:
    """Normalized-counting-measure alpha-norm of a dense function, 0 < alpha
    < inf: max|v| mean((|v| / max|v|)^alpha)^(1/alpha), safe from overflow."""
    a = np.abs(values)
    top = float(a.max())
    if top == 0:
        return top
    a /= top
    np.power(a, float(alpha), out=a)
    return top * float(np.mean(a)) ** (1 / float(alpha))


def smoothness_of(code, kernel: kn.Kernel, alpha) -> SmoothnessReport:
    return divergence_to_uniform(cell_pmf(code, kernel), alpha)


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


# ---------------------------------------------------------------------------
# Rate bounds and threshold rates
# ---------------------------------------------------------------------------

def lower_bound(n: int, rate: float, kernel: kn.Kernel, alpha) -> float:
    """Divergence floor n(1-R) - H_alpha(r) for any code of rate R."""
    return n * (1 - rate) - kernel.renyi_entropy(alpha)


def lower_bound_report(code, kernel: kn.Kernel, alpha) -> BoundReport:
    """Measured divergence against the rate floor, as LHS <= RHS.

    The recheck evaluates the same two functions on the exact cell pmf;
    the floor comes from the kernel's exact values either way.
    """
    def sides(exact):
        rate = kn.log2(code.size) / code.n
        measured = divergence_to_uniform(cell_pmf(code, kernel, exact), alpha)
        return lower_bound(code.n, rate, kernel, alpha), measured.d_alpha

    floor, measured = sides(False)
    return check_bound(
        f"rate-floor a={alpha} n={code.n}", floor, measured, recheck=lambda: sides(True),
        details={"alpha": alpha, "rate": math.log2(code.size) / code.n},
    )


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
    distance, over all x in the cube (one x per cell of the code)."""
    n = code.n
    # the shell transforms, plus one int64 column per shell
    hc.admit("local weight rows", nbytes=(72 + 8 * radius) * code.cells)
    shells = [[int(j == i) for j in range(n + 1)] for i in range(radius + 1)]
    return np.unique(np.stack(code.radial_counts(shells), axis=1), axis=0)


def perfect_kernel_search(code) -> kn.Kernel | None:
    """Recover a radial kernel of radius = covering radius that smooths the
    code perfectly, when one exists.

    T_r f_C is uniform iff rhat vanishes at the code's nonzero dual weights
    W (`dual_weights`).  As a function of the weight, the rhat of a kernel
    of radius rho is a polynomial of degree rho with rhat(0) = 1, so it
    vanishes on W only if rho >= |W|; Delsarte's bound, covering radius <=
    |W|, then leaves a kernel at the covering radius only when that radius
    is |W|, and one only: rhat(w) = prod_{j in W} (1 - w/j), the radial
    transform of prod_j (j - w) over 2^n prod_j j.  It must be nonnegative,
    and is re-verified by the exact uniformity certificate.
    """
    weights = code.dual_weights()
    if len(weights) != cd.covering_radius(code):
        return None
    n = code.n
    annihilator = [math.prod(j - w for j in weights) for w in range(n + 1)]
    scale = math.prod(weights) << n
    profile = [Fraction(v, scale) for v in hc.radial_transform(n, annihilator)]
    if any(v < 0 for v in profile):
        return None
    kernel = kn.Kernel.radial(n, profile)
    return kernel if is_perfectly_smoothed(code, kernel) else None


# ---------------------------------------------------------------------------
# Radial shortcut for ball-shaped codes (strong-converse demonstration)
# ---------------------------------------------------------------------------

def ball_code_divergence(n: int, t: int, delta, alpha=1) -> float:
    """D_alpha(T_delta f_{B(0,t)} || U_n) computed entirely on profiles.

    The code distribution and the Bernoulli kernel are both radial, so the
    noisy pmf is radial too and the whole computation is O(n^2).
    """
    noisy = hc.radial_convolve(n, kn.Kernel.ball(n, t).radial_profile(),
                               kn.Kernel.bernoulli(n, delta).radial_profile())
    return n - kn.exact_renyi(kn.radial_masses(n, noisy), alpha)


def strong_converse_gap(n: int, delta: float, delta_prime: float) -> tuple[float, float]:
    """Normalized divergence of a noisy ball code vs its limit value.

    Returns (measured D/n, 1 - h(delta ⊛ delta')), where ⊛ is the
    crossover combination d(1-d') + d'(1-d).
    """
    t = round(delta_prime * n)
    measured = ball_code_divergence(n, t, Fraction(delta).limit_denominator(10**6)) / n
    star = delta * (1 - delta_prime) + delta_prime * (1 - delta)
    return measured, 1.0 - kn.binary_entropy(star)
