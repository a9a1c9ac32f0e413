"""Brute-force oracles that the tests hold the package's fast paths to."""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from codesmooth import hypercube as hc
from codesmooth import kernels as kn
from codesmooth import smoothing as sm
from codesmooth.erasure import MC_SHARD


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


def smooth_dense(code, kernel: kn.Kernel, exact: bool = False) -> np.ndarray:
    """The noisy code distribution r * f_C as one transform convolution of
    the dense code pmf with the lifted kernel, independent of the kernel's
    spectrum and the codes' cell transforms; the oracle for `sm.smooth`."""
    return hc.convolve(code.pmf(exact=exact), kernel.lift(exact=exact))


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
    reference for `hc.krawtchouk_matrix` and the radial transforms."""
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


def qn_exhaustive(n: int, m: int, kernel: kn.Kernel, alpha: int) -> Fraction:
    """Brute-force E Q_n(alpha) in rationals over every codeword tuple, for
    integer alpha (tiny n, M only)."""
    hc.admit("exhaustive ensemble expectation", steps=(1 << n) ** m)
    lifted = kernel.lift(exact=True)
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


def bec_entropy_mc_loop(code, lam: float, trials: int, seed: int) -> tuple[float, float]:
    """`er.bec_conditional_entropy` in Monte Carlo mode, one trial at a time
    on the same Philox draws."""
    columns = _generator_columns(code)
    acc = acc2 = 0.0
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
            val = int(row.sum()) - len(basis)
            acc += val
            acc2 += val * val
        done += count
        shard += 1
    mean = acc / trials
    return mean, math.sqrt(max(acc2 / trials - mean * mean, 0.0) / trials)


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
