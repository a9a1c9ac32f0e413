"""Noise kernels on the Hamming cube and their Renyi entropies.

A kernel is a pmf used as additive channel noise.  Supported forms:

* ``bernoulli(delta)``  -- i.i.d. bit flips, value delta^|x| (1-delta)^(n-|x|)
* ``ball(t)``           -- uniform on the radius-t ball
* ``sphere(t)``         -- uniform on the radius-t sphere
* ``subcube(S)``        -- uniform on {x : x|_S = 0}; convolving with it
                           averages a function over the coordinates off S
* ``radial(profile)``   -- arbitrary per-weight value profile

Every kernel holds exact values only.  Every radial form is stored once,
as its exact per-weight VALUE profile r(i) (not a per-shell mass),
computed by the constructor, and every radial computation reads the
profile; a subcube is stored as its coordinates.  Each form's spectrum is
computed from those at the points asked for, never from 2^n values.  A
lift to the 2^n points is float; exact dense values exist only as a test
oracle.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import sys
from collections import Counter
from fractions import Fraction

import numpy as np

from . import hypercube as hc

INF = math.inf


class Kernel:
    """Immutable noise kernel.

    A radial kernel stores its exact per-weight value profile and a subcube
    kernel its coordinates; each keeps the spec text it was built from.  A
    kernel built by `bernoulli`, the product of n independent bit flips,
    also keeps its flip probability `delta` (None on every other kernel).
    """

    def __init__(self, n: int, spec: str, *, coords=None, profile=None, delta=None):
        if n < 1:
            raise ValueError(f"kernel dimension {n} out of range")
        self.n = n
        self._spec = spec
        self.coords = tuple(sorted(coords)) if coords is not None else None
        self.profile = list(profile) if profile is not None else None
        self.delta = delta

    # -- constructors ------------------------------------------------------

    @classmethod
    def bernoulli(cls, n: int, delta) -> "Kernel":
        d = Fraction(delta)
        if not 0 <= d <= 1:
            raise ValueError(f"flip probability {delta} outside [0,1]")
        # d^i (1-d)^(n-i) = p^i (q-p)^(n-i) / q^n for d = p/q, from running
        # integer products: one gcd per entry instead of Fraction powers
        p, q = d.numerator, d.denominator
        flips, keeps = [1], [1]
        for _ in range(n):
            flips.append(flips[-1] * p)
            keeps.append(keeps[-1] * (q - p))
        whole = q ** n
        return cls(n, f"bernoulli:{float(d)}", delta=d,
                   profile=[Fraction(flips[i] * keeps[n - i], whole) for i in range(n + 1)])

    @classmethod
    def ball(cls, n: int, t: int) -> "Kernel":
        if not 0 <= t <= n:
            raise ValueError(f"ball radius {t} exceeds dimension {n}")
        v = Fraction(1, hc.ball_volume(n, t))
        return cls(n, f"ball:{t}", profile=[v if i <= t else Fraction(0) for i in range(n + 1)])

    @classmethod
    def sphere(cls, n: int, t: int) -> "Kernel":
        if not 0 <= t <= n:
            raise ValueError(f"sphere radius {t} exceeds dimension {n}")
        v = Fraction(1, math.comb(n, t))
        return cls(n, f"sphere:{t}", profile=[v if i == t else Fraction(0) for i in range(n + 1)])

    @classmethod
    def subcube(cls, n: int, coords) -> "Kernel":
        coords = tuple(sorted(set(coords)))
        if coords and not (0 <= coords[0] and coords[-1] < n):
            raise ValueError(f"subcube coordinates {coords} outside [0, {n})")
        return cls(n, "subcube:" + ",".join(map(str, coords)), coords=coords)

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

    # -- structure ---------------------------------------------------------

    def is_radial(self) -> bool:
        return self.profile is not None

    def radial_profile(self) -> list:
        """Exact per-weight value profile; raises for non-radial kernels."""
        if self.profile is None:
            raise ValueError(f"kernel {self._spec!r} is not radial")
        return self.profile

    def lift(self) -> np.ndarray:
        """Dense float64 pmf of the kernel, each exact value rounded once."""
        if self.coords is None:
            return hc.lift_radial(self.n, self.profile)
        # uniform on {x : x_S = 0}, set in place: the pmf's 8 bytes a point
        hc.admit("dense subcube lift", nbytes=(8 << self.n) + (4 << 10))
        out = np.zeros((2,) * self.n)   # axis a is bit n - 1 - a
        out[tuple(0 if self.n - 1 - a in self.coords else slice(None) for a in range(self.n))] = \
            1 / (1 << self.n - len(self.coords))
        return out.reshape(-1)

    @functools.cached_property
    def denominator(self) -> int:
        """The common denominator D of the exact values, 1 for a subcube's
        0/1 spectrum."""
        return math.lcm(*{v.denominator for v in self.profile or [1]})

    def spectrum(self, points=None, exact: bool = False, support: bool = False):
        """rhat(u) = sum_x r(x)(-1)^{u.x} at each point u, or at every point
        in index order when `points` is None.  Exact: (T, D) with
        rhat = T / D, integers (int64 when they fit) over the common
        denominator D of the values.  Float: each distinct T / D rounded
        once.  support=True transforms the support's indicator.  Bernoulli(p/q)
        in lowest terms has T(w) = (q - 2p)^w q^(n - w) over D = q^n."""
        u = np.asarray(points, dtype=np.int64) if points is not None else \
            np.arange(1 << self.n) if self.coords is not None else None

        def weights():   # the whole cube's from the doubling table: no int64 arange
            return hc.weights_table(self.n) if u is None else np.bitwise_count(u)

        if self.delta is not None and not support:
            p, q = self.delta.numerator, self.delta.denominator
            per = [(q - 2 * p) ** w * q ** (self.n - w) for w in range(self.n + 1)]
            denom, at = q ** self.n, weights()
        elif self.coords is not None:
            # uniform on {x : x_S = 0}: rhat(u) = 1 when supp u lies inside S
            per, denom = [0, 1 << self.n - len(self.coords) if support else 1], 1
            at = ((u & ~sum(1 << c for c in self.coords)) == 0).view(np.uint8)
        else:
            ints, denom = ([int(v != 0) for v in self.profile], 1) if support else \
                hc._scale_to_int(self.profile)
            per, at = hc.radial_transform(self.n, list(ints)), weights()
        if not exact:
            return np.array([int(v) / denom for v in per])[at]
        return hc.int_array(per)[at], denom

    def radius(self) -> int:
        """Largest weight carrying mass: n - |S| for a subcube, whose
        support is every point that is 0 on S."""
        if self.is_radial():
            return max((i for i, v in enumerate(self.profile) if v != 0), default=0)
        return self.n - len(self.coords)

    def masses(self) -> dict:
        """{exact point value: number of points} over the kernel's support:
        C(n, i) points per shell of a radial profile, the 2^(n-|S|) free
        points of a subcube; no 2^n array is built."""
        if self.is_radial():
            return radial_masses(self.n, self.profile)
        free = 1 << (self.n - len(self.coords))
        return {Fraction(1, free): free}

    def renyi_entropy(self, alpha) -> float:
        """H_alpha of the kernel from its exact values (`masses`)."""
        return exact_renyi(self.masses(), alpha)

    def spec_string(self) -> str:
        return self._spec

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

def _raised_mpmath():
    """mpmath when its working precision is raised above float's 53 bits,
    else None.  Only code that has imported mpmath can have raised it, so
    a process that never imported it runs in float and never loads it."""
    mpmath = sys.modules.get("mpmath")
    return mpmath if mpmath is not None and mpmath.mp.prec > 53 else None


def log2(x):
    """log2 of a positive int, Fraction, float or mpf at mpmath's working
    precision: a float at the default 53 bits, an mpf above them.

    A Fraction is rounded once, to a float or an mpf; one below the normal
    float range is split into numerator and denominator instead.
    """
    mpmath = _raised_mpmath()
    if mpmath is not None:
        if isinstance(x, Fraction):
            x = mpmath.mpf(x.numerator) / x.denominator
        return mpmath.log(x, 2)
    if isinstance(x, Fraction):
        rounded = float(x)
        if rounded < sys.float_info.min:
            return math.log2(x.numerator) - math.log2(x.denominator)
        x = rounded
    return math.log2(x)


def logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))), safe from overflow; -inf entries add nothing."""
    top = float(x.max())
    return top + math.log(float(np.exp(x - top).sum()))


def exact_renyi(masses: dict, alpha):
    """H_alpha in bits of a pmf given as {exact point mass: number of points}.

    Power sums at integer orders are exact; every log goes through `log2`,
    so the result is a float at the default precision and an mpf above it.
    """
    if alpha < 0:
        raise ValueError("Renyi order must be >= 0")
    if alpha == 0:
        return log2(sum(masses.values()))
    if alpha == INF:
        return -log2(max(masses))
    if alpha == 1:
        return -sum(m * v * log2(v) for v, m in masses.items())
    if float(alpha).is_integer():
        s = sum(m * v ** int(alpha) for v, m in masses.items())
    else:
        s = sum(m * 2 ** (alpha * log2(v)) for v, m in masses.items())
    return log2(s) / (1 - alpha)


_num_den = operator.attrgetter("numerator", "denominator")


def point_masses(p) -> dict:
    """{exact point mass: number of points} of an exact pmf, zero excluded."""
    # grouping on (numerator, denominator) avoids hashing 2^n Fractions
    groups = Counter(map(_num_den, p))
    masses = {Fraction(*nd): m for nd, m in groups.items() if nd[0] != 0}
    if any(v < 0 for v in masses):
        raise ValueError("pmf has a negative entry")
    if sum(m * v for v, m in masses.items()) != 1:
        raise ValueError("exact input is not a pmf")
    return masses


def check_float_pmf(arr: np.ndarray) -> None:
    # transform round-off can leave -1e-13-scale noise on true zeros
    if abs(float(arr.sum()) - 1.0) > 1e-9 or float(arr.min()) < -1e-12:
        raise ValueError("input is not a pmf")


def radial_masses(n: int, profile) -> Counter:
    """{exact point mass: number of points} of a radial pmf, zero excluded:
    each weight shell i holds C(n,i) points of mass profile(i)."""
    masses = Counter()
    for i, v in enumerate(profile):
        if v > 0:
            masses[Fraction(v)] += math.comb(n, i)
    return masses


# ---------------------------------------------------------------------------
# Binary (two-point) Renyi entropy
# ---------------------------------------------------------------------------

def binary_renyi(alpha, delta) -> float:
    """h_alpha(delta) in bits, with the alpha in {0, 1, inf} limits.

    The two-point pmf (1 - delta, delta) is the radial pmf of profile
    [1 - delta, delta] on {0,1}; a float delta is taken at its binary value.
    The limit alpha = 0, and every order at a raised mpmath precision, come
    from its power sum (`exact_renyi`); other orders at float
    precision from log forms in x = min(delta, 1 - delta) that keep full
    relative precision where the rounded 1 - x would lose it: the limits
    alpha in {1, inf}, alpha near 1, and small delta.
    """
    d = Fraction(delta)
    if not 0 <= d <= 1:
        raise ValueError(f"probability {delta} outside [0,1]")
    if d in (0, 1):
        return 0.0
    if d == Fraction(1, 2):
        return 1.0  # exact at the symmetric point for every order
    if alpha <= 0 or _raised_mpmath() is not None:
        val = exact_renyi(radial_masses(1, [1 - d, d]), alpha)
    elif alpha in (1, INF):
        # -log(1 - x) by log1p: h = -(x log x + (1 - x) log(1 - x)) at 1, and
        # h_inf = -log max(d, 1 - d); neither sum cancels
        x = float(min(d, 1 - d))
        log_keep = math.log1p(-x)
        val = (-log_keep if alpha == INF else -(x * math.log(x) + (1 - x) * log_keep)) \
            / math.log(2)
    elif 0.5 <= alpha < 2:
        # the power sum s's excess over 1, (1-d)((1-d)^(a-1) - 1) + d(d^(a-1) - 1),
        # by expm1, and log s by log1p keep full relative precision as alpha
        # nears 1, where both vanish like a - 1; s lies in (1/2, 2)
        a1, x = float(Fraction(alpha) - 1), float(d)
        excess = (1 - x) * math.expm1(a1 * math.log1p(-x)) + x * math.expm1(a1 * math.log(x))
        val = math.log1p(excess) / (-a1 * math.log(2))
    else:
        # log s = a log(1 - x) + log1p((x / (1 - x))^a) for x = min(d, 1 - d):
        # its two terms cancel by at most a factor max(a, 1 - a) / |1 - a| <= 2,
        # and s itself, which may underflow or round to 1, is never formed
        a, x = float(alpha), float(min(d, 1 - d))
        log_s = a * math.log1p(-x) + math.log1p(math.exp(a * (math.log(x) - math.log1p(-x))))
        val = log_s / ((1 - a) * math.log(2))
    return min(max(val, 0.0), 1.0)


def binary_renyi_inverse(alpha, value: float) -> float:
    """The delta in [0, 1/2] with h_alpha(delta) == value."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"entropy value {value} outside [0,1]")
    if value == 0.0:
        return 0.0
    if value == 1.0:
        return 0.5
    # h_alpha rises from h_alpha(0) = 0 to h_alpha(1/2) = 1, so bisection
    # keeps the target bracketed down to adjacent floats
    lo, hi = 0.0, 0.5
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if binary_renyi(alpha, mid) < value else (lo, mid)
    return hi


def binary_entropy(delta) -> float:
    """Shannon binary entropy h(delta)."""
    return binary_renyi(1, delta)


# ---------------------------------------------------------------------------
# Kernel profiles of uniformly packed code families (shipped as data)
# ---------------------------------------------------------------------------

def two_error_bch_profile(n: int) -> Kernel:
    """Radius-3 pattern r(0)=r(1)=L, r(2)=r(3)=6L/(n-1) of two-error-correcting BCH codes."""
    w = [Fraction(1), Fraction(1), Fraction(6, n - 1), Fraction(6, n - 1)]
    return _normalized_radial(n, w)


def preparata_profile(n: int) -> Kernel:
    """Radius-3 pattern r(0)=r(1)=L, r(2)=r(3)=3L/n of the punctured Preparata codes."""
    w = [Fraction(1), Fraction(1), Fraction(3, n), Fraction(3, n)]
    return _normalized_radial(n, w)


def _normalized_radial(n: int, weights_prefix) -> Kernel:
    """Scale a nonnegative value pattern so the lifted pmf sums to one."""
    prof = [Fraction(0)] * (n + 1)
    for i, v in enumerate(weights_prefix):
        prof[i] = Fraction(v)
    total = hc.radial_sum(n, prof)
    prof = [v / total for v in prof]
    return Kernel.radial(n, prof)
