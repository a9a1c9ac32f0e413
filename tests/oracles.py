"""Brute-force oracles that the tests hold the package's fast paths to."""

from fractions import Fraction
from itertools import product

import numpy as np

from codesmooth import hypercube as hc
from codesmooth import kernels as kn


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
