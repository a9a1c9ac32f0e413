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
    noisy = hc.convolve(code.pmf(), kernel.lift())
    return float(np.mean((noisy * (1 << code.n)) ** 2))


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
