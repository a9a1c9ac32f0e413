#!/usr/bin/env python3
# Nested coset coding on the BSC wiretap channel: exact leakage of nested
# schemes up to n = 32, the smoothing bound on it, and achievable-rate curves.

import math
import sys
from fractions import Fraction
from pathlib import Path

from codesmooth import codes as cd
from codesmooth import wiretap as wt

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import leakage_mixture_oracle  # noqa: E402

# --- a Reed-Muller nested scheme -------------------------------------------
scheme = wt.NestedScheme(cd.reed_muller(1, 4), cd.reed_muller(2, 4))
print(f"scheme: {scheme} -> {scheme.message_bits} message bits")
for de in (0.1, 0.2, 0.3, 0.4):
    leak = wt.leakage_exact(scheme, de)
    bound = wt.secrecy_bound(scheme, de, 1)
    print(f"  delta_e={de:.2f}: leakage {leak:8.5f} bits "
          f"<= smoothing bound {bound:8.5f}")

# --- the paper's nested Reed-Muller scheme at n = 32 ------------------------
# both noisy distributions are read on their 2^16 and 2^6 cosets
scheme32 = wt.NestedScheme(cd.reed_muller(2, 5), cd.reed_muller(3, 5))
print(f"\nscheme: {scheme32} -> {scheme32.message_bits} message bits")
for de in (Fraction(1, 10), Fraction(3, 10)):
    leak = wt.leakage_exact(scheme32, de)
    bound = wt.secrecy_bound(scheme32, de, 1)
    print(f"  delta_e={float(de):.2f}: leakage {leak:.4e} bits "
          f"<= smoothing bound {bound:.4e}")
    assert wt.secrecy_report(scheme32, de).passed

# the exact leakage against I(M;Z) from every conditional distribution
leak, mixture = wt.leakage_exact(scheme, 0.3), leakage_mixture_oracle(scheme, 0.3)
print(f"\nleakage at de=0.3: {leak:.6f} vs mixture oracle {mixture:.6f} "
      f"(gap {abs(leak - mixture):.1e})")

# --- the worked rate example -----------------------------------------------
db, de = 0.05, 0.3
print(f"\nachievable rates at (db, de) = ({db}, {de}):")
for regime in ("shannon_capacity", "bec_dual", "rm"):
    pt = wt.rate_point(db, de, regime)
    print(f"  {regime:17s} rb={pt.rb:.4f} re={pt.re:.4f} rate={pt.rate:.4f}")
for alpha in (2, math.inf):
    pt = wt.rate_point(db, de, "alpha_secrecy", alpha=alpha)
    print(f"  alpha_secrecy({alpha})  rb={pt.rb:.4f} re={pt.re:.4f} "
          f"rate={pt.rate:.4f}")

# --- a rate curve, CSV-ready -----------------------------------------------
print("\nrate vs eavesdropper noise (db = 0.05):")
print("delta_e,shannon,rm,bec_dual")
for i in range(1, 10):
    de = 0.05 + 0.05 * i
    row = [wt.rate_point(db, de, r).rate
           for r in ("shannon_capacity", "rm", "bec_dual")]
    print(f"{de:.2f}," + ",".join(f"{v:.4f}" for v in row))
