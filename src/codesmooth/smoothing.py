"""Noisy code distributions and their distance to uniform.

The central object is T_r f_C: the uniform distribution on a code pushed
through a noise kernel.  Its transform is the kernel's spectrum times the
code's, so for every kernel it is constant on each coset of a linear code
(each point of an explicit one), and it is computed, and every report reads
it, as a pmf on those cells (`cell_pmf`): one transform of the kernel's
spectrum by the code's `cell_transform`, the same route for both code
classes and every kernel form.  Only `smooth` spreads it over the 2^n
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
from scipy.special import xlog1py

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
    constant on (the 2^(n-k) cosets of a linear code, the points of an
    explicit one), whose divergences and norms equal those of the dense pmf.

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
    # both spectra first: an explicit code's W(1_C), built by the first cell
    # transform and kept for the second, is then not held beside them
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
    phases, by tracemalloc at n = 12..20.  The cell transform: per cell
    17-24 float while D cells < 2^63 and 24-28 beyond, 49 exact, then
    190-575 for 67-1101 bits of D, plus the code's own `transform_bytes`.  A
    dense kernel's spectrum, per point: 13-17 on the float route; from
    exact values 105-114 for 47-60 bits of D and 573-698 for 771-991 bits;
    from floats 143-260 for 77-107 bits of the bound D on their
    denominator.  The gather of `smooth`, which a cell per point skips:
    16-18 per point plus the cell pmf."""
    bits = kernel.denominator.bit_length()
    per_cell = (22 if _on_int64(code, kernel) else 28) if not exact else \
        64 if _on_int64(code, kernel) else 190 + bits // 2
    phases = [(per_cell + code.transform_bytes) * code.cells]
    if kernel.values is not None:
        # float values take the float route, or become Fractions at 96 bytes more
        floats = not hc.is_exact(kernel.values)
        phases.append((18 if floats and not (exact or _on_int64(code, kernel)) else
                       100 + 3 * bits // 4 + 96 * floats) << code.n)
    if dense and code.cells < 1 << code.n:
        phases.append((20 << code.n) + 8 * code.cells)
    return max(phases)


def is_perfectly_smoothed(code, kernel: kn.Kernel) -> bool:
    """Exact test of T_r f_C == U_n.

    Every cell of `cell_pmf` holds 2^n / cells points, so T_r f_C is uniform
    iff all cell masses are equal: all integers of the cell transform of the
    kernel's exact spectrum.
    """
    if kernel.n != code.n:
        raise hc.DimensionMismatch(f"kernel n={kernel.n}, code n={code.n}")
    hc.admit("perfect-smoothing certificate", nbytes=_smoothing_bytes(code, kernel, True))
    mass = code.cell_transform(*kernel.spectrum(code.spectrum_points(), exact=True))
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
    dimensionless ratio is ||f - U||_alpha / ||f||_1 = ||e||_alpha for
    e = 2^n f - 1.  The norms are undefined at alpha = 0, where only the
    divergence is filled in.  An exact pmf is grouped into distinct masses,
    one float conversion each.  A float divergence drops from each point
    the first-order term of e, whose mean is 0, so a tiny one keeps its
    relative precision: D_1 = mean((1 + e) log1p(e) - e) / ln 2, D_alpha =
    log1p(mean((1 + e)^alpha - 1 - alpha e)) / ((alpha - 1) ln 2).
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
    centered = arr * (1 << n)
    centered -= 1.0
    np.maximum(centered, -1.0, out=centered)   # round-off below a zero mass
    if not exact:
        d_alpha = n - math.log2(np.count_nonzero(arr > 0)) if alpha == 0 else \
            _centered_divergence(centered, alpha)
    if alpha == 0:
        return SmoothnessReport(alpha, d_alpha, math.nan, math.nan)
    l_alpha = 2.0 ** (float(d_alpha) * (1.0 if alpha == INF else 1 - 1 / float(alpha)))
    return SmoothnessReport(alpha, d_alpha, l_alpha, _norm(centered, alpha))


def _centered_divergence(e: np.ndarray, alpha) -> float:
    """D_alpha in bits of the pmf (1 + e) / 2^n, alpha > 0 (see above)."""
    if alpha == INF:
        return math.log1p(float(e.max())) / math.log(2)
    with np.errstate(divide="ignore"):   # log1p(-1) = -inf on zero masses
        terms = xlog1py(1.0 + e, e) if alpha == 1 else np.expm1(float(alpha) * np.log1p(e))
    terms -= float(alpha) * e
    mean = float(np.mean(terms))
    return (mean if alpha == 1 else math.log1p(mean) / (float(alpha) - 1)) / math.log(2)


def _norm(values: np.ndarray, alpha) -> float:
    """Normalized-counting-measure alpha-norm of a dense function, alpha > 0:
    max|v| mean((|v| / max|v|)^alpha)^(1/alpha), safe from overflow."""
    a = np.abs(values)
    top = float(a.max())
    if alpha == INF or top == 0:
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
    # the shell transforms, plus one int64 column per shell
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
