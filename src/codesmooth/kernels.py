"""Noise kernels on the Hamming cube and their Renyi entropies.

A kernel is a pmf used as additive channel noise.  Supported forms:

* ``bernoulli(delta)``  -- i.i.d. bit flips, value delta^|x| (1-delta)^(n-|x|)
* ``ball(t)``           -- uniform on the radius-t ball
* ``sphere(t)``         -- uniform on the radius-t sphere
* ``subcube(S)``        -- uniform on {x : x|_S = 0}; convolving with it
                           averages a function over the coordinates off S
* ``radial(profile)``   -- arbitrary per-weight value profile
* ``dense(values)``     -- arbitrary dense pmf

Radial forms keep a per-weight VALUE r(i), not a per-shell mass; lifting
places that value on each of the C(n,i) points of the shell.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

from . import hypercube as hc

INF = math.inf


class Kernel:
    """Immutable noise kernel; lifts are cached per scalar mode."""

    def __init__(self, n: int, form: str, *, delta=None, t=None,
                 coords=None, profile=None, values=None):
        if n < 1:
            raise ValueError(f"kernel dimension {n} out of range")
        self.n = n
        self.form = form
        self.delta = delta
        self.t = t
        self.coords = tuple(sorted(coords)) if coords is not None else None
        self.profile = list(profile) if profile is not None else None
        self.values = values
        self._lift_cache: dict[bool, np.ndarray] = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def bernoulli(cls, n: int, delta) -> "Kernel":
        d = Fraction(delta)
        if not 0 <= d <= 1:
            raise ValueError(f"flip probability {delta} outside [0,1]")
        return cls(n, "bernoulli", delta=d)

    @classmethod
    def ball(cls, n: int, t: int) -> "Kernel":
        if not 0 <= t <= n:
            raise ValueError(f"ball radius {t} exceeds dimension {n}")
        return cls(n, "ball", t=t)

    @classmethod
    def sphere(cls, n: int, t: int) -> "Kernel":
        if not 0 <= t <= n:
            raise ValueError(f"sphere radius {t} exceeds dimension {n}")
        return cls(n, "sphere", t=t)

    @classmethod
    def subcube(cls, n: int, coords) -> "Kernel":
        coords = tuple(sorted(set(coords)))
        if coords and not (0 <= coords[0] and coords[-1] < n):
            raise ValueError(f"subcube coordinates {coords} outside [0, {n})")
        return cls(n, "subcube", coords=coords)

    @classmethod
    def radial(cls, n: int, profile) -> "Kernel":
        if len(profile) != n + 1:
            raise ValueError("radial profile must have length n+1")
        prof = [Fraction(v) for v in profile]
        total = hc.radial_sum(n, prof)
        if total != 1:
            raise ValueError(f"radial profile lifts to total mass {total}, not 1")
        if any(v < 0 for v in prof):
            raise ValueError("radial profile has a negative entry")
        return cls(n, "radial", profile=prof)

    @classmethod
    def dense(cls, values) -> "Kernel":
        arr = values if isinstance(values, np.ndarray) else hc.as_dense(values)
        n = hc.dimension_of(arr)
        hc.assert_pmf(arr)
        return cls(n, "dense", values=arr)

    # -- structure ---------------------------------------------------------

    def is_radial(self) -> bool:
        return self.form in ("bernoulli", "ball", "sphere", "radial")

    def radial_profile(self, exact: bool = True) -> list:
        """Per-weight value profile; raises for non-radial forms."""
        n = self.n
        if self.form == "bernoulli":
            d = self.delta
            prof = [d ** i * (1 - d) ** (n - i) for i in range(n + 1)]
        elif self.form == "ball":
            v = Fraction(1, hc.ball_volume(n, self.t))
            prof = [v if i <= self.t else Fraction(0) for i in range(n + 1)]
        elif self.form == "sphere":
            v = Fraction(1, math.comb(n, self.t))
            prof = [v if i == self.t else Fraction(0) for i in range(n + 1)]
        elif self.form == "radial":
            prof = list(self.profile)
        else:
            raise ValueError(f"kernel form {self.form!r} is not radial")
        if not exact:
            return [float(v) for v in prof]
        return prof

    def lift(self, exact: bool = False) -> np.ndarray:
        """Dense pmf of the kernel (cached)."""
        key = bool(exact)
        if key in self._lift_cache:
            return self._lift_cache[key]
        n = self.n
        if self.form == "dense":
            out = self.values
            if exact and not hc.is_exact(out):
                raise ValueError("dense kernel built from floats has no exact lift")
            if not exact and hc.is_exact(out):
                out = np.array([float(v) for v in out])
        elif self.form == "subcube":
            hc.admit("dense subcube lift", nbytes=(25 if exact else 17) << n)
            mask = 0
            for c in self.coords:
                mask |= 1 << c
            free = n - len(self.coords)
            idx = np.arange(1 << n)
            support = (idx & mask) == 0
            if exact:
                out = np.empty(1 << n, dtype=object)
                out[:] = [Fraction(0)] * (1 << n)
                out[support] = Fraction(1, 1 << free)
            else:
                out = np.where(support, 1.0 / (1 << free), 0.0)
        else:
            out = hc.lift_radial(n, self.radial_profile(exact=exact))
        self._lift_cache[key] = out
        return out

    def radius(self) -> int:
        """Largest weight carrying mass."""
        if self.is_radial():
            prof = self.radial_profile()
            return max((i for i, v in enumerate(prof) if v != 0), default=0)
        lifted = self.lift(exact=hc.is_exact(self.values) if self.form == "dense" else False)
        wt = hc.weights_table(self.n)
        nz = [int(wt[i]) for i in range(1 << self.n) if lifted[i] != 0]
        return max(nz, default=0)

    def renyi_entropy(self, alpha) -> float:
        """H_alpha of the kernel, through the radial shortcut when radial."""
        if self.is_radial():
            return renyi_entropy_radial(self.n, self.radial_profile(exact=False), alpha)
        return renyi_entropy(self.lift(), alpha)

    def spec_string(self) -> str:
        if self.form == "bernoulli":
            return f"bernoulli:{float(self.delta)}"
        if self.form in ("ball", "sphere"):
            return f"{self.form}:{self.t}"
        if self.form == "subcube":
            return "subcube:" + ",".join(map(str, self.coords))
        return self.form

    def __repr__(self):
        return f"Kernel({self.spec_string()}, n={self.n})"


def parse_kernel_spec(spec: str, n: int) -> Kernel:
    """CLI grammar: bernoulli:0.1 | ball:3 | sphere:2 | subcube:0,2,5 | radial:@file.csv."""
    form, _, arg = spec.partition(":")
    form = form.strip().lower()
    if form == "bernoulli":
        return Kernel.bernoulli(n, Fraction(arg))
    if form == "ball":
        return Kernel.ball(n, int(arg))
    if form == "sphere":
        return Kernel.sphere(n, int(arg))
    if form == "subcube":
        coords = [int(c) for c in arg.split(",") if c != ""]
        return Kernel.subcube(n, coords)
    if form == "radial":
        if not arg.startswith("@"):
            raise ValueError("radial kernels are read from a file: radial:@file.csv")
        with open(arg[1:], newline="") as fh:
            cells = [c for row in csv.reader(fh) for c in row if c.strip()]
        return Kernel.radial(n, [Fraction(c) for c in cells])
    raise ValueError(f"unknown kernel spec {spec!r}")


# ---------------------------------------------------------------------------
# Renyi entropies
# ---------------------------------------------------------------------------

def entropy_from_log_terms(log_terms: np.ndarray, alpha) -> float:
    """H_alpha in bits from natural logs of the positive pmf terms."""
    if alpha == 0:
        return math.log2(len(log_terms))
    if alpha == 1:
        p = np.exp(log_terms)
        return float(-(p * log_terms).sum() / math.log(2))
    if alpha == INF:
        return float(-log_terms.max() / math.log(2))
    a = float(alpha)
    s = logsumexp(a * log_terms)
    return float(s / (1 - a) / math.log(2))


def renyi_entropy(p, alpha) -> float:
    """H_alpha(p) in bits for a dense pmf; limits alpha in {0, 1, inf} included.

    Float inputs are handled in the log domain; exact inputs with integer
    alpha go through exact power sums before the single final log.
    """
    arr = p if isinstance(p, np.ndarray) else hc.as_dense(p)
    if alpha < 0:
        raise ValueError("Renyi order must be >= 0")
    if hc.is_exact(arr):
        support = [Fraction(v) for v in arr if v != 0]
        if any(v < 0 for v in support):
            raise ValueError("pmf has a negative entry")
        if sum(support) != 1:
            raise ValueError("exact input is not a pmf")
        if alpha == 0:
            return math.log2(len(support))
        if alpha == INF:
            return -_log2_fraction(max(support))
        if alpha == 1:
            return -sum(float(v) * _log2_fraction(v) for v in support)
        if isinstance(alpha, int) or (isinstance(alpha, Fraction) and alpha.denominator == 1):
            s = sum(v ** int(alpha) for v in support)
            return _log2_fraction(s) / (1 - int(alpha))
        arr = np.array([float(v) for v in arr])
    total = float(arr.sum())
    # transform round-off can leave -1e-13-scale noise on true zeros
    if abs(total - 1.0) > 1e-9 or float(arr.min()) < -1e-12:
        raise ValueError("input is not a pmf")
    logs = np.log(arr[arr > 0])
    return entropy_from_log_terms(logs, alpha)


def renyi_entropy_radial(n: int, profile, alpha) -> float:
    """H_alpha of a radial pmf straight from its per-weight profile.

    Each weight shell i contributes C(n,i) identical point masses, so the
    power sum is sum_i C(n,i) p_i^alpha; the multiplicity enters linearly
    and must not be raised to alpha.
    """
    if alpha < 0:
        raise ValueError("Renyi order must be >= 0")
    logp = []
    logm = []
    for i, v in enumerate(profile):
        v = float(v)
        if v > 0:
            logp.append(math.log(v))
            logm.append(_log_comb(n, i))
    logp = np.array(logp)
    logm = np.array(logm)
    if alpha == 0:
        return float(logsumexp(logm) / math.log(2))
    if alpha == 1:
        return float(-(np.exp(logm + logp) * logp).sum() / math.log(2))
    if alpha == INF:
        return float(-logp.max() / math.log(2))
    a = float(alpha)
    s = logsumexp(a * logp + logm)
    return float(s / (1 - a) / math.log(2))


def _log_comb(n: int, i: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)


def _log2_fraction(f: Fraction) -> float:
    """log2 of a positive Fraction; exact-int log2 avoids float overflow."""
    return math.log2(f.numerator) - math.log2(f.denominator)


def shannon_entropy(p) -> float:
    """H(p) in bits."""
    return renyi_entropy(p, 1)


# ---------------------------------------------------------------------------
# Binary (two-point) Renyi entropy
# ---------------------------------------------------------------------------

def binary_renyi(alpha, delta) -> float:
    """h_alpha(delta) in bits, with the alpha in {0, 1, inf} limits."""
    d = float(delta)
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"probability {delta} outside [0,1]")
    if alpha < 0:
        raise ValueError("Renyi order must be >= 0")
    if d in (0.0, 1.0):
        return 0.0
    if d == 0.5:
        return 1.0  # exact at the symmetric point for every order
    if alpha == 0:
        return 1.0
    if alpha == 1:
        return -(d * math.log2(d) + (1 - d) * math.log2(1 - d))
    if alpha == INF:
        return -math.log2(max(d, 1 - d))
    # near alpha = 1 the 1/(1-alpha) factor amplifies log round-off past
    # the mathematical range [0, 1]; clamp to it
    val = math.log2(d ** alpha + (1 - d) ** alpha) / (1 - alpha)
    return min(max(val, 0.0), 1.0)


def binary_renyi_inverse(alpha, value: float) -> float:
    """The delta in [0, 1/2] with h_alpha(delta) == value."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"entropy value {value} outside [0,1]")
    if value == 0.0:
        return 0.0
    if value == 1.0:
        return 0.5
    # h_alpha(0) = 0 and h_alpha(1/2) = 1 exactly, so the bracket always
    # straddles the target
    return float(brentq(lambda d: binary_renyi(alpha, d) - value, 0.0, 0.5))


def binary_entropy(delta) -> float:
    """Shannon binary entropy h(delta)."""
    return binary_renyi(1, delta)


# ---------------------------------------------------------------------------
# Kernel profiles of uniformly packed code families (shipped as data)
# ---------------------------------------------------------------------------

def two_error_bch_profile(n: int) -> Kernel:
    """Radius-3 smoothing kernel pattern r(0)=r(1)=L, r(2)=r(3)=3L/n."""
    w = [Fraction(1), Fraction(1), Fraction(3, n), Fraction(3, n)]
    return _normalized_radial(n, w)


def preparata_profile(n: int) -> Kernel:
    """Radius-3 smoothing kernel pattern r(0)=r(1)=L, r(2)=r(3)=6L/(n-1)."""
    w = [Fraction(1), Fraction(1), Fraction(6, n - 1), Fraction(6, n - 1)]
    return _normalized_radial(n, w)


def goethals_profile(n: int) -> Kernel:
    """Radius-5 pattern r(0)=r(1)=L, r(2)=r(3)=65L/(2n), r(4)=r(5)=30L/(n(n-3))."""
    w = [Fraction(1), Fraction(1), Fraction(65, 2 * n), Fraction(65, 2 * n),
         Fraction(30, n * (n - 3)), Fraction(30, n * (n - 3))]
    return _normalized_radial(n, w)


def _normalized_radial(n: int, weights_prefix) -> Kernel:
    """Scale a nonnegative value pattern so the lifted pmf sums to one."""
    prof = [Fraction(0)] * (n + 1)
    for i, v in enumerate(weights_prefix):
        prof[i] = Fraction(v)
    total = hc.radial_sum(n, prof)
    prof = [v / total for v in prof]
    return Kernel.radial(n, prof)
