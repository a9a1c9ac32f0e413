"""Primitives of the binary Hamming cube {0,1}^n.

Points are plain Python ints in [0, 2^n) with coordinate i stored in bit i.
Functions on the cube are dense length-2^n arrays, either float64 for fast
numerics or object arrays of `fractions.Fraction` for exact work.  Radial
functions (value depends only on Hamming weight) are length-(n+1) profiles
indexed by weight.

The Fourier transform convention used everywhere in this package puts the
1/2^n factor on the forward transform:

    fhat(y) = 2^{-n} * sum_x f(x) * (-1)^{x.y}

so the inverse transform carries no normalization and round-trips exactly
in rational mode.  A float64 transform is one BLAS product per Kronecker
factor H_{2^g}, g <= 5, of H_{2^n} (Fino and Algazi, 1976).

Every radial routine is built on `radial_transform`, the per-weight
transform of a radial function; `_int64_exact` is the one rule that lets
integer transforms run in int64 rather than Python ints.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max

# The admission caps.  Every computation whose size grows like 2^n estimates
# its peak memory growth in bytes (and, for enumerations that run in pure
# Python, its step count) and calls `admit` before it allocates.  1 GiB
# admits the Golay (n = 23) tables and certificates with room to spare; a
# step costs about a microsecond of Python, so 2^22 steps take seconds.
MEMORY_CAP = 1 << 30
STEP_CAP = 2 ** 22

# Peak bytes per cube point of exact rational convolution.  tracemalloc
# measured 130-300 at n = 10..14 for rationals with small denominators,
# such as Bernoulli(1/10) or ball kernels; probabilities converted from
# binary floats carry 54-bit denominators per coordinate and need more,
# which exact smoothing charges from the kernel's denominator.
EXACT_CELL_BYTES = 400


class BudgetExceeded(ValueError):
    """A computation's estimated cost exceeds an admission cap."""


def admit(what: str, nbytes: int = 0, steps: int = 0) -> None:
    """Refuse `what` when its estimated peak bytes or steps exceed a cap.

    Callers pass their own estimate and call this before their first
    2^n-sized allocation, so a refusal costs nothing.
    """
    if nbytes > MEMORY_CAP:
        raise BudgetExceeded(
            f"{what}: estimated peak {nbytes / 2**20:,.0f} MiB exceeds the "
            f"memory cap of {MEMORY_CAP >> 20:,} MiB")
    if steps > STEP_CAP:
        raise BudgetExceeded(
            f"{what}: estimated {steps:,} steps exceed the step cap of {STEP_CAP:,}")


class DimensionMismatch(ValueError):
    """Operands live on cubes of different dimension."""


def dimension_of(values) -> int:
    """Infer n from a dense length-2^n array, rejecting non-powers of two."""
    size = len(values)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError(f"dense array length {size} is not a power of two")
    return n


def weight(x: int) -> int:
    """Hamming weight of a point."""
    return int(x).bit_count()


def weights_table(n: int) -> np.ndarray:
    """Array of Hamming weights of 0..2^n-1 (uint8)."""
    admit("Hamming weight table", nbytes=9 << n)
    return np.bitwise_count(np.arange(1 << n, dtype=np.int64))


def is_exact(values) -> bool:
    """True when `values` is an object array/list holding exact scalars."""
    if isinstance(values, np.ndarray):
        return values.dtype == object
    return len(values) > 0 and isinstance(values[0], (Fraction, int))


def as_dense(values, exact: bool | None = None) -> np.ndarray:
    """Normalize input to a float64 or object ndarray of Fractions."""
    if exact is None:
        exact = is_exact(values)
    if exact:
        arr = np.empty(len(values), dtype=object)
        arr[:] = [Fraction(v) for v in values]
        return arr
    return np.asarray(values, dtype=np.float64)


def assert_pmf(values, tol: float = 1e-12) -> None:
    """Check that a dense function is a pmf (exactly so in rational mode)."""
    arr = values if isinstance(values, np.ndarray) else as_dense(values)
    if is_exact(arr):
        total = sum(arr)
        if total != 1:
            raise ValueError(f"exact pmf sums to {total}, not 1")
        if any(v < 0 for v in arr):
            raise ValueError("exact pmf has a negative entry")
    else:
        total = float(arr.sum())
        if abs(total - 1.0) > tol:
            raise ValueError(f"pmf sums to {total}, outside tolerance {tol}")
        if float(arr.min()) < -tol:
            raise ValueError("pmf has a negative entry")


# ---------------------------------------------------------------------------
# Walsh-Hadamard transform
# ---------------------------------------------------------------------------

def wht_natural(values) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform sum_x f(x)(-1)^{x.y}.

    float64 runs as BLAS products by the Kronecker factors of H_{2^n};
    integer and object (Fraction / Python int) arrays run butterflies,
    which keep them exact.  Self-inverse up to a factor 2^n.  A 2-D array
    is transformed down each column.
    """
    return _wht_inplace(np.array(values, order="C"))


def _wht_inplace(a: np.ndarray) -> np.ndarray:
    """`wht_natural` that overwrites its C-contiguous argument instead of
    copying it.  numpy has no integer BLAS (on a 2-core x86 VM, int64
    `matmul` blocks at n = 23 took 0.96-1.05 s against 0.81-0.86 s for the
    butterfly), so only float64 is blocked; other dtypes run butterflies in
    place, (t, b) -> (t + b, t + b - 2b), with no scratch buffer: every step
    is a ring operation, exact in int64 (mod 2^64) and on Python ints."""
    dimension_of(a)  # validates power of two
    if a.dtype == np.float64:
        return _wht_blocked_inplace(a)
    h = 1
    while h < a.shape[0]:
        v = a.reshape(-1, 2, h, *a.shape[1:])
        top, bot = v[:, 0], v[:, 1]
        top += bot
        bot *= -2
        bot += top
        h *= 2
    return a


# H_{2^g} for g = 0..5: entry (i, j) is (-1)^{|i & j|}
_HADAMARD = [1.0 - 2.0 * (np.bitwise_count(np.arange(1 << g)[:, None] & np.arange(1 << g)) & 1)
             for g in range(6)]
_SCRATCH_FLOATS = 1 << 17  # 1 MiB, reused by every product of one transform


def _wht_blocked_inplace(a: np.ndarray) -> np.ndarray:
    """float64 transform as one product by H_{2^g} per group of index bits.

    The n bits split into ceil(n/5) near-equal groups.  The group of g bits
    above the lowest `lo` views the array as (high, 2^g, 2^lo * columns)
    and multiplies the middle axis by H_{2^g}, through the scratch buffer
    a slab of `high` (or of the last axis, when one slab exceeds it) at a
    time, so no 2^n-sized temporary is allocated.
    """
    n = dimension_of(a)
    flat = a.reshape(1 << n, -1)
    scratch = np.empty(min(a.size, _SCRATCH_FLOATS))
    groups, lo = -(-n // 5), 0
    for j in range(groups):
        g = (n - lo) // (groups - j)
        width = flat.shape[1] << lo
        v = np.reshape(flat, (-1, 1 << g, width), copy=False)  # a view, or raise
        rows = max(1, scratch.size // v[0].size)
        cols = min(width, scratch.size >> g)
        for h in range(0, v.shape[0], rows):
            for c in range(0, width, cols):
                block = v[h:h + rows, :, c:c + cols]
                out = scratch[:block.size].reshape(block.shape)
                np.matmul(_HADAMARD[g], block, out=out)
                block[...] = out
        lo += g
    return a


def fwht(values) -> np.ndarray:
    """Forward transform with the 2^{-n} factor."""
    a = wht_natural(values)
    n = dimension_of(a)
    if is_exact(a):
        return a * Fraction(1, 1 << n)
    return a / (1 << n)


def ifwht(values) -> np.ndarray:
    """Inverse transform (no normalization); ifwht(fwht(f)) == f."""
    return wht_natural(values)


def _scale_to_int(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Common-denominator rescaling of exact values to integer numerators."""
    fracs = [Fraction(v) for v in arr]
    denom = math.lcm(*(f.denominator for f in fracs)) if len(fracs) else 1
    nums = [int(f.numerator * (denom // f.denominator)) for f in fracs]
    out = np.empty(len(nums), dtype=object)
    out[:] = nums
    return out, denom


def _int64_exact(n: int, bound: int) -> bool:
    """True when an integer transform pair of size 2^n is exact in int64.

    `bound` caps the magnitude of the exact result before the final inverse
    transform multiplies it by 2^n.  int64 arithmetic is a ring mod 2^64,
    so intermediates that wrap around cancel once the final value fits.
    """
    return bound << n <= _INT64_MAX


def convolve(f, g) -> np.ndarray:
    """Cyclic (XOR) convolution (f*g)(x) = sum_z f(z) g(x^z).

    Float inputs go through the transform domain.  Exact inputs are
    rescaled to integers, convolved with an integer-exact transform pair
    (int64 when bounds allow, arbitrary precision otherwise), and mapped
    back to Fractions.
    """
    f = f if isinstance(f, np.ndarray) else as_dense(f)
    g = g if isinstance(g, np.ndarray) else as_dense(g)
    n = dimension_of(f)
    if dimension_of(g) != n:
        raise DimensionMismatch(f"convolve: {dimension_of(f)} vs {dimension_of(g)}")
    if is_exact(f) or is_exact(g):
        admit("exact convolution", nbytes=EXACT_CELL_BYTES << n)
        fi, fd = _scale_to_int(f)
        gi, gd = _scale_to_int(g)
        # |WHT| <= sum|.|, so the product transform is bounded by S_f*S_g
        # and the final inverse transform by S_f*S_g*2^n.
        sf = sum(abs(int(v)) for v in fi)
        sg = sum(abs(int(v)) for v in gi)
        if _int64_exact(n, sf * sg):
            fi = fi.astype(np.int64)
            gi = gi.astype(np.int64)
        prod = wht_natural(fi) * wht_natural(gi)
        conv = wht_natural(prod)
        scale = Fraction(1, (1 << n) * fd * gd)
        out = np.empty(1 << n, dtype=object)
        out[:] = [int(v) * scale for v in conv]
        return out
    prod = wht_natural(f)
    prod *= wht_natural(g)
    return np.divide(_wht_inplace(prod), 1 << n, out=prod)


# ---------------------------------------------------------------------------
# Krawtchouk and Lloyd polynomials, ball volumes
# ---------------------------------------------------------------------------

def krawtchouk(n: int, t: int, x: int) -> int:
    """K_t(x) = sum_j (-1)^j C(x,j) C(n-x,t-j), exact integer arithmetic."""
    if not (0 <= t <= n and 0 <= x <= n):
        raise ValueError(f"krawtchouk indices out of range: n={n}, t={t}, x={x}")
    return sum(
        (-1) ** j * math.comb(x, j) * math.comb(n - x, t - j)
        for j in range(t + 1)
    )


def krawtchouk_row(n: int, t: int) -> list[int]:
    """[K_t(0), ..., K_t(n)]."""
    return [krawtchouk(n, t, x) for x in range(n + 1)]


def lloyd(n: int, t: int, x: int) -> int:
    """L_t(x) = sum_{s<=t} K_s(x): transform of the radius-t ball indicator."""
    if not (0 <= t <= n and 0 <= x <= n):
        raise ValueError(f"lloyd indices out of range: n={n}, t={t}, x={x}")
    return sum(krawtchouk(n, s, x) for s in range(t + 1))


def ball_volume(n: int, t: int) -> int:
    """Number of points within Hamming distance t of a fixed point."""
    if not 0 <= t <= n:
        raise ValueError(f"ball radius out of range: n={n}, t={t}")
    return sum(math.comb(n, s) for s in range(t + 1))


def mu(n: int, t: int, i: int) -> int:
    """|B(0,t) ∩ B(x,t)| for |x| = i: the intersection volume of two
    radius-t balls with centers i apart, by counting points per split weight.

    A point with a ones on supp(x) and b ones elsewhere is in both balls
    iff a+b <= t and (i-a)+b <= t.
    """
    if not (0 <= t <= n and 0 <= i <= n):
        raise ValueError(f"mu indices out of range: n={n}, t={t}, i={i}")
    total = 0
    for a in range(i + 1):
        for b in range(n - i + 1):
            if a + b <= t and (i - a) + b <= t:
                total += math.comb(i, a) * math.comb(n - i, b)
    return total


# ---------------------------------------------------------------------------
# Radial functions (profiles indexed by Hamming weight)
# ---------------------------------------------------------------------------

def lift_radial(n: int, profile) -> np.ndarray:
    """Expand a per-weight value profile to a dense length-2^n array."""
    if len(profile) != n + 1:
        raise DimensionMismatch(f"profile length {len(profile)} != n+1 = {n + 1}")
    exact = is_exact(profile)
    admit("dense radial lift", nbytes=(25 if exact else 17) << n)
    wt = weights_table(n)
    if exact:
        out = np.empty(1 << n, dtype=object)
        prof = [Fraction(v) for v in profile]
        out[:] = [prof[w] for w in wt]
        return out
    prof = np.asarray(profile, dtype=np.float64)
    return prof[wt]


def radial_transform(n: int, profile) -> list:
    """Unnormalized transform of a radial function, per weight:
    k -> sum_i profile(i) K_i(k).

    Exact for int and Fraction profiles, float for float ones.  Applying
    it twice multiplies by 2^n.
    """
    if len(profile) != n + 1:
        raise DimensionMismatch(f"profile length {len(profile)} != n+1 = {n + 1}")
    rows = krawtchouk_matrix(n)
    return [sum(profile[i] * rows[i][k] for i in range(n + 1)) for k in range(n + 1)]


def krawtchouk_matrix(n: int) -> list[list[int]]:
    """Rows [K_t(0), ..., K_t(n)] for t = 0..n in O(n^2), by the recurrence
    (t+1) K_{t+1}(x) = (n-2x) K_t(x) - (n-t+1) K_{t-1}(x)."""
    rows = [[1] * (n + 1), [n - 2 * x for x in range(n + 1)]]
    for t in range(1, n):
        rows.append([((n - 2 * x) * a - (n - t + 1) * b) // (t + 1)
                     for x, (a, b) in enumerate(zip(rows[t], rows[t - 1]))])
    return rows[:n + 1]


def radial_hat(n: int, profile) -> list:
    """Per-weight profile of the forward transform of a radial function.

    rhat(k) = 2^{-n} sum_i profile(i) K_i(k); exact for Fraction profiles.
    """
    inv = Fraction(1, 1 << n) if is_exact(profile) else 1.0 / (1 << n)
    return [v * inv for v in radial_transform(n, profile)]


def radial_convolve(n: int, p1, p2) -> list:
    """Profile of the XOR convolution of two radial functions.

    Runs in O(n^2) through the weight-indexed transform, so dimensions far
    beyond the dense cap are fine as long as both factors are radial.
    """
    exact = is_exact(p1) and is_exact(p2)
    if not exact:
        p1 = [float(v) for v in p1]
        p2 = [float(v) for v in p2]
    prod = [a * b for a, b in zip(radial_transform(n, p1), radial_transform(n, p2))]
    inv = Fraction(1, 1 << n) if exact else 1.0 / (1 << n)
    return [v * inv for v in radial_transform(n, prod)]


def convolve_radial(f: np.ndarray, profiles) -> list[np.ndarray]:
    """Exact x -> sum_z f(z) p(|x^z|) for a nonnegative int64 dense `f` and
    each integer profile p.

    W(f) is taken once; each profile then costs one product and one inverse
    transform.  The work runs in int64 when 2^n max f sum_i C(n,i)|p(i)|
    fits, which bounds every exact result, and on Python ints otherwise.
    W(f) itself is taken in int64 either way, which is exact while
    sum f < 2^63, as for any code indicator.
    """
    n = dimension_of(f)
    mass = max(sum(math.comb(n, i) * abs(v) for i, v in enumerate(p))
               for p in profiles)
    on_int64 = _int64_exact(n, int(f.max()) * mass)
    if not on_int64:
        admit("exact radial convolution", nbytes=EXACT_CELL_BYTES << n)
    wf = wht_natural(f)
    if not on_int64:
        wf = wf.astype(object)
    wt = weights_table(n)
    out = []
    for p in profiles:
        # one 2^n buffer per profile: lift, multiply and transform in place
        counts = np.array(radial_transform(n, p), dtype=wf.dtype)[wt]
        counts *= wf
        counts = _wht_inplace(counts)
        if np.bitwise_or.reduce(counts) & ((1 << n) - 1):
            raise ArithmeticError("radial convolution is not integral")
        counts >>= n
        out.append(counts)
    return out


def radial_sum(n: int, profile):
    """Total mass of the lifted function: sum_i C(n,i) profile(i)."""
    return sum(math.comb(n, i) * profile[i] for i in range(n + 1))
