#!/usr/bin/env python3
# Exact perfect-smoothing certificates: perfect codes become exactly
# uniform under ball noise at the covering radius, and the smoothing
# kernel is recovered from the code's dual weights: its transform is the
# polynomial that vanishes on them.

import time

from codesmooth import codes as cd
from codesmooth import kernels as kn
from codesmooth import smoothing as sm

# --- the [7,4] Hamming code and the unit ball ------------------------------
hamming = cd.hamming(3)
rho = cd.covering_radius(hamming)
print(f"hamming(3): covering radius {rho}, "
      f"external distance {cd.external_distance(hamming)}")
print("ball(1) smooths it exactly:",
      sm.is_perfectly_smoothed(hamming, kn.Kernel.ball(7, 1)))

recovered = sm.perfect_kernel_search(hamming)
print("recovered kernel == ball(1):",
      recovered.radial_profile() == kn.Kernel.ball(7, 1).radial_profile())

# --- the big one: the [23,12,7] Golay code ---------------------------------
golay = cd.golay23()
t0 = time.time()
ok = sm.is_perfectly_smoothed(golay, kn.Kernel.ball(23, 3))
print(f"\ngolay23 + ball(3) exactly uniform: {ok} "
      f"({time.time() - t0:.1f}s over 2^23 points, exact integers)")

# --- an imperfect but uniformly packed code --------------------------------
even = cd.parity(4)
kernel = sm.perfect_kernel_search(even)
print(f"\neven-weight code n=4: kernel profile {kernel.radial_profile()[:2]}")
print("radius", kernel.radius(), ">= external distance",
      cd.external_distance(even))

# --- not every code can be flattened by a small radial kernel --------------
import numpy as np
stubborn = cd.LinearCode(np.array([[0, 1, 0, 0, 0],
                                   [0, 0, 1, 1, 0]], dtype=np.uint8))
print("\nstubborn [5,2] code:", sm.perfect_kernel_search(stubborn))

# --- kernel patterns for classical uniformly packed families ---------------
print("\nshipped kernel patterns (value ratios r(2)/r(0)):")
print("  2-error-correcting BCH length 31:",
      kn.two_error_bch_profile(31).radial_profile()[2]
      / kn.two_error_bch_profile(31).radial_profile()[0])
print("  Preparata length 15:",
      kn.preparata_profile(15).radial_profile()[2]
      / kn.preparata_profile(15).radial_profile()[0])
