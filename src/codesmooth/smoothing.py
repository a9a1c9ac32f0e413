"""Noisy code distributions and their distance to uniform.

The central object is T_r f_C: the uniform distribution on a code pushed
through a noise kernel.  Under a radial kernel it is constant on each cell
of the code (a coset of a linear code, a point of an explicit one), so it
is computed, and every report reads it, as a pmf on those cells
(`cell_pmf`); its exact values are the integer `code.radial_counts` of
either code class, and only `smooth` spreads a coset pmf over the 2^n
points.  This module measures how far that distribution is from uniform
(Renyi divergence of any order), provides the closed-form second-moment
identities that express the L2 case through distance spectra, the rate
lower bound, threshold-rate formulas for Bernoulli and ball noise families,
and exact certificates of perfect smoothing, which hold when all cell
masses are equal (including recovery of the smoothing kernel for uniformly
packed codes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

def cell_pmf(code, kernel: kn.Kernel, exact: bool = False) -> np.ndarray:
    """The noisy code distribution r * f_C as a pmf on the cells it is
    constant on.  Under a radial kernel those are the cells of the code
    (cosets of a linear code, points otherwise), where the exact pmf is the
    integer `code.radial_counts` of the scaled profile over one common
    denominator; a linear code's float pmf is P(s) = sum_i r(i) N_i(s) on
    the 2^(n-k) syndromes.  Every divergence to uniform and every norm of
    `divergence_to_uniform` equals that of the dense pmf.  Other pairs
    convolve dense arrays, and a float result is zeroed off the exact
    support."""
    if kernel.n != code.n:
        raise hc.DimensionMismatch(f"kernel n={kernel.n}, code n={code.n}")
    if kernel.is_radial() and (exact or isinstance(code, cd.LinearCode)):
        hc.admit("exact smoothing" if exact else "coset smoothing",
                 nbytes=(_exact_cell_bytes(kernel) if exact else 8) * code.cells)
        if not exact:
            return code.coset_weights() @ np.array(kernel.radial_profile(exact=False))
        scaled, denom = _scaled_profile(kernel)
        # a point counts denom |C| (r * f_C)(x) and its cell holds 2^n / cells
        # points, so the denominator gains |C| cells / 2^n: 1 on cosets, |C| on points
        denom *= code.size * code.cells >> code.n
        out = np.empty(code.cells, dtype=object)
        out[:] = [Fraction(int(c), denom) for c in code.radial_counts([scaled])[0]]
        return out
    # float: tracemalloc measured 48-56 bytes per point, the support mask included
    hc.admit("exact smoothing" if exact else "dense smoothing",
             nbytes=(_exact_cell_bytes(kernel) if exact else 56) << code.n)
    noisy = hc.convolve(code.pmf(exact=exact), kernel.lift(exact=exact))
    if exact:
        return noisy
    # transform round-off lands on points of zero mass: zero every x where
    # (1_C * 1_{supp r})(x) = 0 (a float convolution of 0/1 arrays is off
    # its integers by far less than 1/2)
    noisy[hc.convolve(code.indicator() * 1.0, (kernel.lift() > 0) * 1.0) < 0.5] = 0.0
    return noisy


def smooth(code, kernel: kn.Kernel, exact: bool = False) -> np.ndarray:
    """Dense pmf of the noisy code distribution r * f_C: the cell masses of
    `cell_pmf` spread over the points of each cell."""
    if not (isinstance(code, cd.LinearCode) and kernel.is_radial()):
        return cell_pmf(code, kernel, exact)
    # the syndromes of all points and their gather, plus the coset masses
    hc.admit("exact smoothing" if exact else "dense smoothing", nbytes=(40 << code.n)
             + (_exact_cell_bytes(kernel) if exact else 8) * code.cells)
    return (cell_pmf(code, kernel, exact) / code.size)[code.cube_cells()]


def _scaled_profile(kernel: kn.Kernel) -> tuple[list[int], int]:
    """The radial profile times its common denominator, and the denominator."""
    prof = kernel.radial_profile()
    denom = math.lcm(*(v.denominator for v in prof))
    return [int(v * denom) for v in prof], denom


def _exact_cell_bytes(kernel: kn.Kernel) -> int:
    """Peak bytes per cell of exact smoothing under `kernel`.

    A radial kernel runs through `radial_counts`, where each cell holds a
    count and a Fraction of about as many bits as the common denominator:
    tracemalloc measured 75-193 at n = 10..16 for denominators of up to
    107 bits (ball, sphere, Bernoulli(1/10), (3/10), (7/100)) and 359-497
    for the 551-881 bits of Bernoulli kernels converted from binary floats,
    on explicit codes (cells are points) and linear ones (cells are
    cosets); 160 plus half a byte per bit covers both.  Other kernels
    convolve dense Fraction arrays: 126-275 for up to 107 bits and 482-645
    for 541-881 bits at n = 10..16, covered by 256 plus half a byte per bit.
    """
    values = kernel.radial_profile() if kernel.is_radial() else kernel.lift(exact=True)
    bits = math.lcm(*(v.denominator for v in values)).bit_length()
    return (160 if kernel.is_radial() else 256) + bits // 2


def is_perfectly_smoothed(code, kernel: kn.Kernel) -> bool:
    """Exact test of T_r f_C == U_n.

    Every cell of `cell_pmf` holds 2^n / cells points, so T_r f_C is uniform
    iff all cell masses are equal.  A radial kernel compares the integer
    cell counts of `code.radial_counts` under its scaled profile, after an
    O(1) exit: a uniform count |C| denom / 2^n must be an integer.  Other
    kernels compare the exact cell pmf.
    """
    if kernel.n != code.n:
        raise hc.DimensionMismatch(f"kernel n={kernel.n}, code n={code.n}")
    if not kernel.is_radial():
        mass = cell_pmf(code, kernel, exact=True)
    else:
        scaled, denom = _scaled_profile(kernel)
        if code.size * denom % (1 << code.n):
            return False
        hc.admit("perfect-smoothing certificate", nbytes=48 * code.cells)
        (mass,) = code.radial_counts([scaled])
    return bool((mass == mass[0]).all())


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
    dimensionless ratio is ||f - U||_alpha / ||f||_1 = ||2^n f - 1||_alpha.
    The norms are undefined at alpha = 0, where only the divergence is
    filled in.  An exact pmf is grouped into distinct masses, one float
    conversion each.
    """
    arr = f if isinstance(f, np.ndarray) else hc.as_dense(f)
    n = hc.dimension_of(arr)
    if hc.is_exact(arr):
        masses = kn.point_masses(arr)
        d_alpha = n - kn.exact_renyi(masses, alpha)
        # the norms need each value's multiplicity, not its position
        arr = np.zeros(len(arr))
        arr[:sum(masses.values())] = np.repeat([float(v) for v in masses], list(masses.values()))
    else:
        d_alpha = n - kn.renyi_entropy(arr, alpha)
    if alpha == 0:
        return SmoothnessReport(alpha, d_alpha, math.nan, math.nan)
    l_alpha = 2.0 ** (float(d_alpha) * (1.0 if alpha == INF else 1 - 1 / float(alpha)))
    centered = arr * (1 << n)
    centered -= 1.0
    dimensionless = _norm(centered, alpha)
    return SmoothnessReport(alpha, d_alpha, l_alpha, dimensionless)


def _norm(values: np.ndarray, alpha) -> float:
    """Normalized-counting-measure alpha-norm of a dense function, alpha > 0."""
    a = np.abs(values)
    if alpha == INF:
        return float(a.max())
    # mean(|v|^alpha)^(1/alpha) in a log-safe form
    pos = np.log(a[a > 0])
    if pos.size == 0:
        return 0.0
    a = float(alpha)
    s = logsumexp(a * pos) - math.log(len(values))
    return float(math.exp(s / a))


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
    dense_float = kernel.values is not None and not hc.is_exact(kernel.values)
    return check_bound(
        f"rate-floor a={alpha} n={code.n}", floor, measured,
        recheck=None if dense_float else lambda: sides(True),
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
    # the transforms and weight table, plus one int64 column per shell
    hc.admit("local weight rows", nbytes=(72 + 8 * radius) * code.cells)
    shells = [[int(j == i) for j in range(n + 1)] for i in range(radius + 1)]
    return np.unique(np.stack(code.radial_counts(shells), axis=1), axis=0)


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
    noisy = hc.radial_convolve(n, kn.Kernel.ball(n, t).radial_profile(),
                               kn.Kernel.bernoulli(n, delta).radial_profile())
    return n - kn.renyi_entropy_radial(n, noisy, alpha)


def strong_converse_gap(n: int, delta: float, delta_prime: float) -> tuple[float, float]:
    """Normalized divergence of a noisy ball code vs its limit value.

    Returns (measured D/n, 1 - h(delta ⊛ delta')), where ⊛ is the
    crossover combination d(1-d') + d'(1-d).
    """
    t = round(delta_prime * n)
    measured = ball_code_divergence(n, t, Fraction(delta).limit_denominator(10**6)) / n
    star = delta * (1 - delta_prime) + delta_prime * (1 - delta)
    return measured, 1.0 - kn.binary_entropy(star)
