#!/usr/bin/env python3
# Walk through the cube primitives: transforms, Krawtchouk polynomials,
# ball geometry, noise kernels and their Renyi entropies.

import math
from fractions import Fraction

import numpy as np

from codesmooth import hypercube as hc
from codesmooth import kernels as kn

n = 6

# --- the transform convention -------------------------------------------
# forward carries the 1/2^n factor, so the inverse is exact on rationals
f = np.empty(1 << n, dtype=object)
f[:] = [Fraction(i % 5, 7) for i in range(1 << n)]
fhat = hc.fwht(f)
assert all(hc.ifwht(fhat)[i] == f[i] for i in range(1 << n))
print("round trip on rationals: exact")

# a point mass spreads flat; a sphere indicator becomes a Krawtchouk row
delta0 = np.zeros(1 << n)
delta0[0] = 1.0
print("transform of a point mass:", hc.fwht(delta0)[:4], "...")

wt = hc.weights_table(n)
sphere2 = (wt == 2).astype(float)
krow = np.array(hc.krawtchouk_matrix(n)[2])
print("sphere(2) transform == K_2 row / 2^n:",
      np.allclose(hc.fwht(sphere2), krow[wt] / 2**n))

# --- ball geometry --------------------------------------------------------
print("\nvolumes V_t at n=6:", [hc.ball_volume(n, t) for t in range(n + 1)])
print("intersection volumes mu_2(i):",
      [hc.mu(n, 2, i) for i in range(n + 1)], "(zero past i = 2t)")

# --- kernels and entropies ------------------------------------------------
kernels = {
    "bernoulli(0.1)": kn.Kernel.bernoulli(n, Fraction(1, 10)),
    "ball(2)": kn.Kernel.ball(n, 2),
    "sphere(3)": kn.Kernel.sphere(n, 3),
    "subcube({0,1})": kn.Kernel.subcube(n, [0, 1]),
}
print("\nkernel entropies (bits):")
print(f"{'kernel':>16} {'H_0':>7} {'H_1':>7} {'H_2':>7} {'H_inf':>7} radius")
for name, k in kernels.items():
    hs = [kn.renyi_entropy(k.lift(), a) for a in (0, 1, 2, math.inf)]
    print(f"{name:>16} " + " ".join(f"{h:7.3f}" for h in hs)
          + f" {k.radius():6d}")

# the Bernoulli kernel factorizes: H_a(beta_d) = n h_a(d)
d = 0.1
for a in (1, 2, math.inf):
    assert math.isclose(kernels["bernoulli(0.1)"].renyi_entropy(a),
                        n * kn.binary_renyi(a, d), rel_tol=1e-12)
print("\nH_a(bernoulli) = n * h_a(delta): verified for a in {1, 2, inf}")
