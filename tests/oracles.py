"""Brute-force oracles that the tests hold the package's fast paths to."""

import math
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np

from codesmooth import codes as cd
from codesmooth import erasure as er
from codesmooth import hypercube as hc
from codesmooth import kernels as kn
from codesmooth import smoothing as sm
from codesmooth.erasure import MC_SHARD


def wht_butterfly(values) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform on Python ints or Fractions,
    exact, by in-place butterflies (t, b) -> (t + b, t - b) down the first
    axis; the independent oracle for `hc.wht_natural`."""
    a = np.array(values, dtype=object)
    hc.dimension_of(a)
    h = 1
    while h < a.shape[0]:
        v = a.reshape(-1, 2, h, *a.shape[1:])
        top, bot = v[:, 0], v[:, 1]
        top += bot
        bot *= -2
        bot += top
        h *= 2
    return a


def kronecker_passes(a: np.ndarray, factor, groups) -> np.ndarray:
    """F^{(x)n} a for a float vector `a` and a 2x2 `factor` F, as one product
    by F^{(x)g} over the whole array per group of g index bits in `groups`,
    lowest first: the per-group passes of `hc._wht_blocked_inplace` in a
    given grouping, with no rows, slabs or scratch.  The lowest group is
    the GEMM of rows of 2^g entries by (F^{(x)g})^T, as there."""
    out = np.array(a)
    lo = 0
    for g in groups:
        power = np.ones((1, 1))
        for _ in range(g):
            power = np.kron(np.array(factor, dtype=np.float64), power)
        power = power.astype(out.dtype)
        if lo == 0:
            rows = out.reshape(-1, 1 << g)
            rows[...] = rows @ power.T
        else:
            v = out.reshape(-1, 1 << g, 1 << lo)
            v[...] = np.matmul(power, v)
        lo += g
    return out


def gf2_rref_columns(mat) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form over GF(2) by numpy elimination, one column
    at a time: the first remaining row holding the column is swapped up as
    the pivot and XORed into every other row holding it; the reference for
    `cd.gf2_rref`."""
    a = (np.asarray(mat) & 1).astype(np.uint8).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] ^= a[r]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def as_int64(values) -> list:
    """Exact integers reduced mod 2^64 to the signed int64 range, as the
    int64 transform returns them."""
    return [(int(v) + (1 << 63)) % (1 << 64) - (1 << 63) for v in np.ravel(values)]


def radial_hat(n: int, profile) -> list:
    """Per-weight profile of the forward transform of a radial function,
    rhat(k) = 2^{-n} sum_i profile(i) K_i(k); exact for Fraction profiles."""
    inv = Fraction(1, 1 << n) if hc.is_exact(profile) else 1.0 / (1 << n)
    return [v * inv for v in hc.radial_transform(n, profile)]


def convolve_direct(f, g) -> np.ndarray:
    """O(4^n) direct-sum convolution; the independent oracle for `hc.convolve`."""
    f = f if isinstance(f, np.ndarray) else hc.as_dense(f)
    g = g if isinstance(g, np.ndarray) else hc.as_dense(g)
    n = hc.dimension_of(f)
    if hc.dimension_of(g) != n:
        raise hc.DimensionMismatch("convolve_direct: dimension mismatch")
    size = 1 << n
    exact = hc.is_exact(f) or hc.is_exact(g)
    out = np.zeros(size, dtype=object if exact else np.float64)
    if exact:
        out[:] = [Fraction(0)] * size
    idx = np.arange(size)
    for z in range(size):
        fz = f[z]
        if fz == 0:
            continue
        out[idx ^ z] += fz * g
    return out


def lift_exact(kernel: kn.Kernel) -> np.ndarray:
    """The kernel's exact dense pmf, an object array of 2^n Fractions: its
    profile's value at each point's weight, or 2^(|S| - n) where a subcube
    kernel's point is 0 on S; the exact twin of the float `Kernel.lift`."""
    n, points = kernel.n, np.arange(1 << kernel.n)
    if kernel.coords is not None:
        free = (points & sum(1 << c for c in kernel.coords)) == 0
        return np.where(free, Fraction(1, 1 << n - len(kernel.coords)), Fraction(0))
    profile = [Fraction(v) for v in kernel.profile]
    out = np.empty(1 << n, dtype=object)
    out[:] = [profile[w] for w in np.bitwise_count(points)]
    return out


def smooth_dense(code, kernel: kn.Kernel, exact: bool = False) -> np.ndarray:
    """The noisy code distribution r * f_C as one transform convolution of
    the dense code pmf with the lifted kernel, independent of the kernel's
    spectrum and the codes' cell transforms; the oracle for `sm.smooth`."""
    return hc.convolve(code.pmf(exact=exact), lift_exact(kernel) if exact else kernel.lift())


def coset_weight_table(code) -> np.ndarray:
    """N[s, i] = number of weight-i points in cell s (a coset of a linear
    code, a point of an explicit one): a bincount of (cell_of(x), |x|)
    over all 2^n points."""
    points = np.arange(1 << code.n)
    keys = code.cell_of(points) * (code.n + 1) + np.bitwise_count(points)
    return np.bincount(keys, minlength=code.cells * (code.n + 1)).reshape(code.cells, -1)


def ball_counts_table(code, t: int) -> np.ndarray:
    """F_t(y) = #codewords within distance t of y, for every y (dense)."""
    hc.admit("codeword-count table", nbytes=48 << code.n)
    (counts,) = code.radial_counts([[1] * (t + 1) + [0] * (code.n - t)])
    return counts[code.cube_cells()]


def covering_radius_dense(code) -> int:
    """max_x min_c d(x, c) by growing the covered set over the whole cube,
    one coordinate flip per step."""
    covered = code.indicator().astype(bool)
    rho = 0
    while not covered.all():
        grown = covered.copy()
        for i in range(code.n):
            grown |= covered.reshape(-1, 2, 1 << i)[:, ::-1, :].reshape(-1)
        covered = grown
        rho += 1
    return rho


def krawtchouk(n: int, t: int, x: int) -> int:
    """K_t(x) = sum_j (-1)^j C(x,j) C(n-x,t-j) by its direct sum; the
    reference for the radial transforms."""
    if not (0 <= t <= n and 0 <= x <= n):
        raise ValueError(f"krawtchouk indices out of range: n={n}, t={t}, x={x}")
    return sum(
        (-1) ** j * math.comb(x, j) * math.comb(n - x, t - j)
        for j in range(t + 1)
    )


def krawtchouk_row(n: int, t: int) -> list[int]:
    """[K_t(0), ..., K_t(n)] by direct sums."""
    return [krawtchouk(n, t, x) for x in range(n + 1)]


def lloyd(n: int, t: int, x: int) -> int:
    """L_t(x) = sum_{s<=t} K_s(x): transform of the radius-t ball indicator."""
    if not (0 <= t <= n and 0 <= x <= n):
        raise ValueError(f"lloyd indices out of range: n={n}, t={t}, x={x}")
    return sum(krawtchouk(n, s, x) for s in range(t + 1))


def mu_spectral(n: int, t: int, i: int) -> int:
    """The ball intersection volume `hc.mu` via 2^{-n} sum_k L_t(k)^2 K_k(i)."""
    if not (0 <= t <= n and 0 <= i <= n):
        raise ValueError(f"mu indices out of range: n={n}, t={t}, i={i}")
    lrow = hc.radial_transform(n, [1] * (t + 1) + [0] * (n - t))
    q, r = divmod(hc.radial_transform(n, [v * v for v in lrow])[i], 1 << n)
    if r:
        raise ArithmeticError("spectral intersection volume is not integral")
    return q


def l2_dense_oracle(code, kernel: kn.Kernel) -> float:
    """||2^n T_r f_C||_2^2 from a dense transform convolution of the code
    pmf with the lifted kernel; the oracle for the closed form and the
    coset masses."""
    return float(np.mean((smooth_dense(code, kernel) * (1 << code.n)) ** 2))


def norm_dense(values, alpha) -> float:
    """mean(|v|^alpha)^(1/alpha) (max |v| at alpha = inf) summed directly;
    the oracle for the norms of `sm.divergence_to_uniform`."""
    a = np.abs(np.asarray(values, dtype=np.float64))
    if alpha == math.inf:
        return float(a.max())
    return float(np.mean(a ** float(alpha)) ** (1 / float(alpha)))


def renyi_entropy(p, alpha) -> float:
    """H_alpha(p) in bits of a float pmf, limits alpha in {0, 1, inf}
    included, in the log domain; the oracle for the exact Renyi entropies
    of `kn.exact_renyi` and `Kernel.renyi_entropy`."""
    arr = np.asarray(p, dtype=np.float64)
    if alpha < 0:
        raise ValueError("Renyi order must be >= 0")
    kn.check_float_pmf(arr)
    return entropy_from_log_terms(np.log(arr[arr > 0]), alpha)


def entropy_from_log_terms(log_terms: np.ndarray, alpha) -> float:
    """H_alpha in bits from natural logs of the positive pmf terms."""
    if alpha == 0:
        return math.log2(len(log_terms))
    if alpha == 1:
        p = np.exp(log_terms)
        return float(-(p * log_terms).sum() / math.log(2))
    if alpha == math.inf:
        return float(-log_terms.max() / math.log(2))
    a = float(alpha)
    return kn.logsumexp(a * log_terms) / (1 - a) / math.log(2)


def binary_renyi_mp(alpha, delta, dps: int = 60) -> float:
    """h_alpha(delta) in bits from its definition at `dps` digits, rounded
    to a float: log2((1-d)^a + d^a) / (1 - a), with the limits
    -sum p log2 p at a = 1, log2 2 at a = 0 and -log2 max(d, 1-d) at a = inf."""
    with mpmath.workdps(dps):
        d = mpmath.mpf(Fraction(delta).numerator) / Fraction(delta).denominator
        masses = [m for m in (d, 1 - d) if m > 0]
        if alpha == 0:
            return float(mpmath.log(len(masses), 2))
        if alpha == 1:
            return float(-sum(m * mpmath.log(m, 2) for m in masses))
        if alpha == math.inf:
            return float(-mpmath.log(max(masses), 2))
        a = mpmath.mpf(Fraction(alpha).numerator) / Fraction(alpha).denominator
        return float(mpmath.log(sum(m ** a for m in masses), 2) / (1 - a))


def qn_exhaustive(n: int, m: int, kernel: kn.Kernel, alpha: int) -> Fraction:
    """Brute-force E Q_n(alpha) in rationals over every codeword tuple, for
    integer alpha (tiny n, M only)."""
    hc.admit("exhaustive ensemble expectation", steps=(1 << n) ** m)
    lifted = lift_exact(kernel)
    idx = np.arange(1 << n)
    total = Fraction(0)
    for tup in product(range(1 << n), repeat=m):
        scaled = sum(lifted[idx ^ c] for c in tup) * Fraction(1 << n, m)
        total += sum(v ** alpha for v in scaled)
    return total / (1 << n) ** (m + 1)


def decoding_error_dense(code, delta, list_size: int, t: int) -> Fraction:
    """Pr{F_t(Y) >= L+1 or |Y| > t} for the zero codeword sent, summed over
    all 2^n error words Y with F_t(Y) counted against every codeword; the
    oracle for `dec.decoding_error_exact`."""
    d = Fraction(delta)
    points = np.arange(1 << code.n)
    weights = np.bitwise_count(points)
    near = sum((np.bitwise_count(points ^ c) <= t).astype(np.int64) for c in code.codeword_ints())
    fails = np.bincount(weights[(near >= list_size + 1) | (weights > t)], minlength=code.n + 1)
    return sum(int(f) * d ** w * (1 - d) ** (code.n - w) for w, f in enumerate(fails))


def decoding_error_mean_dense(code, delta, list_size: int, t: int) -> Fraction:
    """Pr{F_t(c + Y) >= L+1 or |Y| > t} averaged over every codeword c sent,
    summed over all 2^n error words Y with F_t counted against every
    codeword; the oracle for `dec.mc_decoding_error` on any code."""
    d, n = Fraction(delta), code.n
    points = np.arange(1 << n)
    weights = np.bitwise_count(points)
    near = sum((np.bitwise_count(points ^ c) <= t).astype(np.int64) for c in code.codeword_ints())
    fails = sum(np.bincount(weights[(near[points ^ c] >= list_size + 1) | (weights > t)],
                            minlength=n + 1) for c in code.codeword_ints())
    return sum(int(f) * d ** w * (1 - d) ** (n - w) for w, f in enumerate(fails)) / code.size


def collision_count_direct(code, coords) -> int:
    """Enumeration oracle for `er.collision_count`: codewords vanishing on `coords`."""
    mask = 0
    for c in coords:
        mask |= 1 << c
    return int((code.codeword_ints() & mask == 0).sum())


def _generator_columns(code) -> list[int]:
    return [int(sum(int(code.generator[r, c]) << r for r in range(code.k)))
            for c in range(code.n)]


def _reduce(v: int, basis) -> int:
    """v reduced against a GF(2) basis sorted by decreasing leading bit."""
    for b in basis:
        if (v ^ b) < v:
            v ^= b
    return v


def rank_profile_dfs(code) -> dict[tuple[int, int], int]:
    """`er.rank_profile` by a depth-first walk over the subset tree that
    keeps an incrementally built column basis."""
    n = code.n
    columns = _generator_columns(code)
    profile: dict[tuple[int, int], int] = {}

    def walk(i: int, basis: tuple[int, ...], size: int) -> None:
        if i == n:
            key = (size, len(basis))
            profile[key] = profile.get(key, 0) + 1
            return
        walk(i + 1, basis, size)
        v = _reduce(columns[i], basis)
        new_basis = basis if v == 0 else tuple(sorted(basis + (v,), reverse=True))
        walk(i + 1, new_basis, size + 1)

    walk(0, (), 0)
    return profile


def subset_sums_per_axis(values) -> np.ndarray:
    """Subset-sum (zeta) transform z[T] = sum of values[S] over S inside T,
    as n in-place passes, one per axis; the oracle for the Kronecker-power
    transform of `er.rank_profile`."""
    z = np.array(values)
    for c in range(hc.dimension_of(z)):
        v = z.reshape(-1, 2, 1 << c)
        v[:, 1, :] += v[:, 0, :]
    return z


def rank_profile_per_axis(code) -> dict[tuple[int, int], int]:
    """`er.rank_profile` from the per-axis subset sums of the code indicator
    in int32: subset G, the complement of index T, has |G| = n - |T| and
    rank k - log2 z[T]."""
    n, k = code.n, code.k
    z = np.zeros(1 << n, dtype=np.int32)
    z[code.codeword_ints()] = 1
    z = subset_sums_per_axis(z)
    size = n - np.bitwise_count(np.arange(1 << n)).astype(np.int64)
    rank = k - np.log2(z).astype(np.int64)
    counts = np.bincount(size * (k + 1) + rank, minlength=(n + 1) * (k + 1))
    return {sr: int(c) for sr, c in np.ndenumerate(counts.reshape(n + 1, k + 1)) if c}


def bec_entropy_mc_loop(code, lam: float, trials: int, seed: int) -> tuple[float, float]:
    """`er.bec_conditional_entropy` in Monte Carlo mode, one trial at a time
    on the same Philox draws."""
    columns = _generator_columns(code)
    vals = []
    done = shard = 0
    while done < trials:
        count = min(MC_SHARD, trials - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, (1 << 32) | shard]))
        for row in rng.random((count, code.n)) < lam:
            basis: list[int] = []
            for c in np.nonzero(row)[0]:
                v = _reduce(columns[c], basis)
                if v:
                    basis.append(v)
                    basis.sort(reverse=True)
            vals.append(int(row.sum()) - len(basis))
        done += count
        shard += 1
    # sqrt(mean((v - mean)^2) / trials) of integers, exactly:
    # sum (v - mean)^2 = sum v^2 - (sum v)^2 / trials
    total, squares = sum(vals), sum(v * v for v in vals)
    return total / trials, math.sqrt(Fraction(trials * squares - total * total, trials ** 3))


def subset_expectation_loop(f, lam, order):
    """`er.subset_expectation` by one fiber mean per subset G, each
    statistic evaluated on the 2^|G| distinct fiber values."""
    n = hc.dimension_of(f)
    cube = f.reshape((2,) * n)
    total = 0
    for g in range(1 << n):
        size = g.bit_count()
        drop = tuple(a for a in range(n) if not (g >> (n - 1 - a)) & 1)
        vals = cube.mean(axis=drop, keepdims=True).ravel()
        if order == 1:
            mean = vals.mean()
            stat = sum(v * kn.log2(v / mean) for v in vals if v > 0) / len(vals)
        elif order == math.inf:
            stat = kn.log2(max(vals))
        else:
            stat = kn.log2(sum(v ** order for v in vals) / len(vals)) / order
        total += lam ** size * (1 - lam) ** (n - size) * stat
    return total


def leakage_mixture_oracle(scheme, delta_e: float) -> float:
    """I(M; Z) of a nested scheme by materializing every conditional distribution."""
    conditionals = conditional_distributions(scheme, delta_e)
    marginal = np.mean(conditionals, axis=0)
    total = 0.0
    for row in conditionals:
        mask = row > 0
        total += float(np.sum(row[mask] * np.log2(row[mask] / marginal[mask])))
    return total / scheme.num_messages


def conditional_distributions(scheme, delta_e: float) -> np.ndarray:
    """Stack of P_{Z|M=m}: the noisy inner pmf shifted by each coset leader."""
    # the shifted rows are held twice while they are stacked
    hc.admit("conditional distributions",
             nbytes=(16 * scheme.num_messages + 48) << scheme.n)
    kernel = kn.Kernel.bernoulli(scheme.n, Fraction(delta_e))
    base = sm.smooth(scheme.inner, kernel)
    idx = np.arange(1 << scheme.n)
    return np.stack([base[idx ^ int(c)] for c in scheme.coset_leaders()])


def perfect_kernel_rows(code) -> kn.Kernel | None:
    """`sm.perfect_kernel_search` by the local weights: sum_{i<=rho} w_i N_i(x)
    = 1 over the distinct rows of `sm.local_weight_rows` at the covering
    radius rho, solved by exact rational elimination with free unknowns
    set to zero.  A nonnegative solution, w_i = (2^n / |C|) r(i), is
    normalized to a pmf and kept if the exact certificate accepts it."""
    rho = cd.covering_radius(code)
    width = rho + 1
    aug = [[Fraction(int(v)) for v in row] + [Fraction(1)]
           for row in sm.local_weight_rows(code, rho)]
    pivots = []
    for c in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                aug[i] = [a - aug[i][c] * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
    if any(row[width] != 0 for row in aug[len(pivots):]):
        return None   # inconsistent
    sol = [Fraction(0)] * (code.n + 1)
    for r, c in enumerate(pivots):
        sol[c] = aug[r][width]
    if any(v < 0 for v in sol):
        return None
    total = hc.radial_sum(code.n, sol)
    kernel = kn.Kernel.radial(code.n, [v / total for v in sol])
    return kernel if sm.is_perfectly_smoothed(code, kernel) else None


def bec_entropy_exact(code, lam) -> Fraction:
    """E[|G| - rank(G columns)] for G ~ Bernoulli(lam) subsets, in rationals
    over the depth-first rank profile; the exact oracle for
    `er.bec_conditional_entropy`."""
    lam = Fraction(lam)
    return sum(count * lam ** size * (1 - lam) ** (code.n - size) * (size - rank)
               for (size, rank), count in rank_profile_dfs(code).items())


def fractional_power_inequality(x: float, y: float, p: int, q: int) -> bool:
    """(x+y)^(p/q) <= sum_k C(p,k) x^(k/q) y^((p-k)/q) for x, y >= 0, the
    step of `rc.qn_recursive_bound`'s recursion, with 1e-12 relative slack."""
    lhs = (x + y) ** (p / q)
    rhs = sum(math.comb(p, k) * x ** (k / q) * y ** ((p - k) / q)
              for k in range(p + 1))
    return lhs <= rhs * (1 + 1e-12)


def conditional_average(f, coords) -> np.ndarray:
    """E(f | G): f averaged over the coordinates outside G, by folding the
    free coordinates one at a time; the oracle for convolution with the
    uniform pmf on the subcube {x : x|_G = 0}."""
    arr = f if isinstance(f, np.ndarray) else hc.as_dense(f)
    n = hc.dimension_of(arr)
    kept = set(coords)
    free = [c for c in range(n) if c not in kept]
    result = arr.copy()
    for c in free:
        result = result + result.reshape(-1, 2, 1 << c)[:, ::-1, :].reshape(-1)
    if hc.is_exact(arr):
        return result * Fraction(1, 1 << len(free))
    return result / (1 << len(free))


def conditional_norm_expectation(code, lam: float, alpha: int) -> float:
    """(alpha/(alpha-1)) E_G log ||E(2^n f_C | G)||_alpha over the subset
    lattice: for a linear code independent of alpha and equal to the BEC
    conditional entropy of the dual."""
    a = int(alpha)
    return er.subset_expectation(code.pmf() * (1 << code.n), lam, a) * a / (a - 1)


def centered_divergence_general(f, alpha) -> tuple[float, float, float]:
    """(d_alpha, l_alpha, dimensionless) of a float pmf at an order alpha > 0
    by the general formulas: e = 2^n f - 1 clipped to -1, D_inf = log1p(max
    e) / ln 2 and D_alpha = log1p(mean((1 + e)^alpha - 1 - alpha e)) /
    ((alpha - 1) ln 2), and the overflow-safe norm max|e| mean((|e| /
    max|e|)^alpha)^(1/alpha); the oracle for the one-reduction orders 2
    and inf of `sm.divergence_to_uniform`."""
    arr = np.asarray(f, dtype=np.float64)
    e = arr * len(arr)
    e -= 1.0
    np.maximum(e, -1.0, out=e)
    top = float(np.abs(e).max())
    if alpha == math.inf:
        d = math.log1p(float(e.max())) / math.log(2)
        return d, 2.0 ** d, top
    a = float(alpha)
    with np.errstate(divide="ignore"):
        terms = np.expm1(a * np.log1p(e))
    terms -= a * e
    mean = float(np.mean(terms))
    d = 0.0 if mean == 0 else math.log1p(mean) / ((a - 1) * math.log(2))
    norm = 0.0 if top == 0 else top * float(np.mean((np.abs(e) / top) ** a)) ** (1 / a)
    return d, 2.0 ** (d * (1 - 1 / a)), norm
