#!/usr/bin/env python3
# Random-code ensembles: the expected noisy-norm moment Q_n(alpha), its
# recursive upper bound, and its exact value at integer orders.

from fractions import Fraction

from codesmooth import kernels as kn
from codesmooth import random_coding as rc

delta = 0.1
rate = 1 - kn.binary_renyi(2, delta) + 0.1   # above the order-2 threshold
print(f"rate {rate:.3f} (0.1 above the order-2 threshold at delta={delta})")

print(f"\n{'n':>4} {'Q_n(2) est':>12} {'exact':>12} {'rec. bound':>12}")
for n in (8, 10, 12, 14):
    kernel = kn.Kernel.bernoulli(n, Fraction(1, 10))
    spec = rc.EnsembleSpec(n, rate, kernel, trials=400, seed=0)
    est, sigma = rc.qn_estimate(spec, 2)
    exact = rc.qn_exact(n, spec.num_codewords, kernel, 2)
    bound = rc.qn_recursive_bound(n, rate, kernel, 1, 1)
    print(f"{n:4d} {est:9.4f}±{3*sigma:.4f} {float(exact):12.4f} {bound:12.4f}")
print("the moment → 1: the ensemble smooths above the threshold")

# the exact moment needs no 2^n array, so it follows the trend far past
# what the sampled transforms reach
for n in (64, 256):
    kernel = kn.Kernel.bernoulli(n, Fraction(1, 10))
    exact = rc.qn_exact(n, rc.num_codewords(n, rate), kernel, 3)
    print(f"n = {n}: exact Q_n(3) = {float(exact):.6f}")

# fractional orders run through the same recursion
n = 10
kernel = kn.Kernel.bernoulli(n, Fraction(1, 10))
spec = rc.EnsembleSpec(n, rate, kernel, trials=400, seed=1)
for p, q in ((1, 2), (3, 2), (3, 1)):
    est, sigma = rc.qn_estimate(spec, 1 + p / q)
    bound = rc.qn_recursive_bound(n, rate, kernel, p, q)
    print(f"alpha = 1+{p}/{q}: estimate {est:.4f}±{3*sigma:.4f} "
          f"<= bound {bound:.4f}")

# sup-norm version with its Chernoff-type bound
rate_inf = 1 - kn.binary_renyi(float("inf"), delta) + 0.1
spec = rc.EnsembleSpec(12, rate_inf, kn.Kernel.bernoulli(12, Fraction(1, 10)),
                       trials=300, seed=2)
est, sigma = rc.sup_norm_estimate(spec)
for eps in (0.1, 0.5):
    bound = rc.dinf_bound(12, rate_inf, spec.kernel, eps)
    print(f"sup-norm estimate {est:.3f}±{3*sigma:.3f} <= "
          f"bound(eps={eps}) {bound:.3f}")
