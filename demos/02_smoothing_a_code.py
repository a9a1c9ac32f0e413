#!/usr/bin/env python3
# Smooth a code with Bernoulli noise and watch its distance to uniform:
# divergence reports, the closed-form second moment, and the rate floor.

import math
from fractions import Fraction

from codesmooth import codes as cd
from codesmooth import kernels as kn
from codesmooth import smoothing as sm

code = cd.reed_muller(1, 4)       # [16, 5] first-order Reed-Muller
n = code.n
print(f"code: {code}, rate {code.rate:.3f}")

print("\ndivergence to uniform after bernoulli(delta) noise:")
print(f"{'delta':>6} {'D_1':>9} {'D_2':>9} {'D_inf':>9}")
for delta in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
    noisy = sm.smooth(code, kn.Kernel.bernoulli(n, Fraction(delta)))
    row = [sm.divergence_to_uniform(noisy, a).d_alpha
           for a in (1, 2, math.inf)]
    print(f"{delta:6.2f} " + " ".join(f"{v:9.5f}" for v in row))

# --- the second moment from the distance distribution only ----------------
dist = cd.distance_distribution(code)
kernel = kn.Kernel.bernoulli(n, Fraction(1, 5))
closed = sm.l2_closed_form(dist, code.size, kernel)
noisy = sm.smooth(code, kernel)
dense = (1 << n) * float(noisy @ noisy)
print(f"\n||2^n T f||_2^2 closed form {closed:.10f} vs dense {dense:.10f}")
assert math.isclose(closed, dense, rel_tol=1e-10)

# D_2 is determined by that moment alone
d2 = sm.divergence_to_uniform(noisy, 2).d_alpha
print(f"D_2 = log2(moment): {d2:.10f} == {math.log2(closed):.10f}")

# --- no code of this rate can do better than the floor ---------------------
for alpha in (1, 2, math.inf):
    rep = sm.lower_bound_report(code, kernel, alpha)
    print(rep.line())

# --- threshold rates for the Bernoulli family ------------------------------
print("\nthreshold rate for vanishing divergence, delta = 0.11:")
for alpha in (0.5, 1, 2, math.inf):
    print(f"  order {alpha}: {sm.capacity('bernoulli', alpha, 0.11):.4f}")
print(f"  ball family (any order): {sm.capacity('ball', 2, 0.11):.4f}")
