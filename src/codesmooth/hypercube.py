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
in rational mode.

Every transform is one pass of BLAS products per Kronecker factor H_{2^g},
g <= 5, of H_{2^n} (Fino and Algazi, 1976), on float32 or float64
(`_wht_blocked_inplace`): a vector's lowest g bits as one GEMM of its
rows of 2^g entries per slab, every other group as products by H_{2^g}
down the middle axis.  The same passes apply any Kronecker power of a 2x2
factor, such as the bit flip [[1-d, d], [d, 1-d]] whose n-th power is
Bernoulli(d) noise, and object integers take them one bit at a time.
Integers take H exactly: every partial sum, in any order, is an integer of
magnitude at most max|a| * 2^n, exact in a float whose mantissa holds that
bound.  Wider integers are sums of limbs of 53 - n bits, recombined in
int64 (a ring mod 2^64) or as Python ints, and Fractions are integers over
their common denominator.  Every radial routine is built on
`radial_transform`, the per-weight transform of a radial function.  Every
layer shares `admit`, the size cap, and `sample_mean`, the Monte Carlo loop,
whose ensemble trials run on `POOL_WIDTH` threads at one OpenBLAS thread:
on a 2-vCPU VM, 0.70-1.03 times the serial time of the bench's estimates,
where the default BLAS count took 1.15-1.72 times.  Decoding and erasure
shards on two threads were no faster, and stay serial.
"""

from __future__ import annotations

import functools
import math
import os
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
# Trials a pooled Monte Carlo estimate runs at once: one per usable CPU
POOL_WIDTH = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else \
    os.cpu_count() or 1


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


def sample_mean(draw, trials: int, seed: int, stream: int, shard: int,
                value=None, slots: tuple[int, int] | None = None) -> tuple[float, float]:
    """Mean and standard error sqrt(mean((v - mean)^2) / trials) of the
    per-trial values `draw(rng, count)` returns, for at most `shard` trials
    at a time on the Philox key [seed, stream << 32 | shard index].  Integer
    values sum exactly; float ones by `math.fsum`, in two passes, as the
    one-pass E[v^2] - E[v]^2 cancels when the values barely differ.

    With `value`, `draw` yields the trials' inputs instead, and `_pooled`
    maps each to value(input, slot) with `slots` = (width, slot bytes)."""
    if trials < 1:
        raise ValueError("Monte Carlo estimates need trials >= 1")
    shards = (draw(np.random.Generator(np.random.Philox(key=[seed, stream << 32 | i])),
                   min(shard, trials - done))
              for i, done in enumerate(range(0, trials, shard)))
    values = np.concatenate([np.asarray(v) for v in shards]) if value is None else \
        np.array(_pooled(value, (x for part in shards for x in part), *slots))
    if values.dtype.kind in "biu":
        total, squares = int(values.sum()), int(np.square(values, dtype=np.int64).sum())
        return total / trials, math.sqrt(Fraction(trials * squares - total * total, trials ** 3))
    mean = math.fsum(values.tolist()) / trials
    values -= mean
    return mean, math.sqrt(math.fsum((values * values).tolist()) / trials / trials)


def _pooled(value, inputs, width: int, nbytes: int) -> list:
    """value(x, slot) of each input x, drawn here in order, on `width`
    threads at one BLAS thread (so each BLAS sum has one order at any
    width), or here where `_blas_threads` finds no setter.  Trial i reuses
    trial i - width's slot, an int64 anonymous map freed to the OS on return."""
    import mmap
    blas = _blas_threads()
    slots = [np.frombuffer(mmap.mmap(-1, nbytes), np.int64) for _ in range(width if blas else 1)]
    if blas is None:
        return [value(x, slots[0]) for x in inputs]
    from concurrent.futures import ThreadPoolExecutor
    threads = blas[0]()
    blas[1](1)
    try:
        with ThreadPoolExecutor(width) as pool:
            trials = []
            for i, x in enumerate(inputs):
                if i >= width:
                    trials[i - width].result()   # its slot is free again
                trials.append(pool.submit(value, x, slots[i % width]))
            return [trial.result() for trial in trials]
    finally:
        blas[1](threads)


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS a numpy wheel ships, or None."""
    import ctypes
    import glob
    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)   # the library numpy loaded, by its path
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    return None


class DimensionMismatch(ValueError):
    """Operands live on cubes of different dimension."""


def dimension_of(values) -> int:
    """Infer n from a dense length-2^n array, rejecting non-powers of two."""
    size = len(values)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError(f"dense array length {size} is not a power of two")
    return n


def weights_table(n: int) -> np.ndarray:
    """Array of Hamming weights of 0..2^n-1 (uint8): those of one byte,
    then by doubling, as the weights of [2^i, 2^(i+1)) are those of
    [0, 2^i) plus one."""
    admit("Hamming weight table", nbytes=(1 << n) + 512)
    out, low = np.empty(1 << n, dtype=np.uint8), min(n, 8)
    out[:1 << low] = np.bitwise_count(np.arange(1 << low, dtype=np.uint8))
    for i in range(low, n):
        np.add(out[:1 << i], 1, out=out[1 << i:2 << i])
    return out


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


# ---------------------------------------------------------------------------
# Walsh-Hadamard transform
# ---------------------------------------------------------------------------

def wht_natural(values) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform sum_x f(x)(-1)^{x.y}.

    float32 and float64 keep their dtype.  Other numpy integers transform
    in int64, exactly while the result fits and mod 2^64 beyond it, like
    any int64 arithmetic; object arrays of Python ints and Fractions stay
    exact.  Self-inverse up to a factor 2^n.  A 2-D array is transformed
    down each column.
    """
    a = np.asarray(values)
    if a.dtype != object:   # a copy, in the dtype the transform runs in
        a = a.astype(np.float32 if a.dtype == np.float32 else
                     np.float64 if a.dtype.kind == "f" else np.int64, order="C")
    return _wht_inplace(a)


_HADAMARD = ((1, 1), (1, -1))
FLOAT_STACK_BYTES = 38 << 10  # H's float32 and float64 stacks: 31 KB a build
_SCRATCH_FLOATS = 1 << 17  # reused by every product of one transform
_GEMM_ROWS = 1 << 10       # rows per GEMM over the lowest bits of a vector
_OBJECT_CHUNK = 1 << 8     # Python ints per step of the limb loop
_ROWS_FROM = 1 << 25       # bytes from which a vector transforms in rows
_ROW_BYTES = 1 << 18       # one such row, in cache


def _wht_inplace(a: np.ndarray) -> np.ndarray:
    """`wht_natural` of a C-contiguous float32, float64, int64 or object
    array, which overwrites a float or int64 argument with its transform.

    An int64 array is cast to float32 or float64 inside its own buffer
    while that is exact (`_float_exact`).  Past that, its low 53 - n bits,
    within the float64 bound, and its high bits, recursively, transform
    apart and recombine as W(a) = W(low) + 2^(53-n) W(high), a ring
    identity mod 2^64.  Python ints and Fractions transform exactly into a
    new array, as integer numerators over their common denominator
    (`wht_exact`).
    """
    n = dimension_of(a)
    if a.dtype == object:
        ints, denom = _scale_to_int(a)
        out = wht_exact(ints, _max_abs(ints) << n).astype(object, copy=False)
        return out if denom == 1 else out * Fraction(1, denom)
    if a.dtype != np.int64:
        return _wht_blocked_inplace(a)
    bound = _max_abs(a)
    for dtype in (np.float32, np.float64):
        if _float_exact(dtype, n, bound):
            _widen(_wht_blocked_inplace(_float_in_place(a, dtype)), a)
            return a
    bits = 53 - n
    low = a & (1 << bits) - 1
    a >>= bits
    _wht_inplace(a)
    a <<= bits
    a += _wht_inplace(low)
    return a


def _max_abs(a: np.ndarray) -> int:
    """max |a| of an integer array as a Python int, 0 when it is empty."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _float_in_place(ints: np.ndarray, dtype) -> np.ndarray:
    """Cast an int64 array to float32 or float64 inside its own buffer and
    return that view of the buffer's head.  Chunks run bottom up, so each
    write lands on inputs already read."""
    flat = np.reshape(ints, -1, copy=False)
    floats = flat.view(dtype)[:flat.size]
    for s in range(0, flat.size, _SCRATCH_FLOATS):
        floats[s:s + _SCRATCH_FLOATS] = flat[s:s + _SCRATCH_FLOATS]
    return floats.reshape(ints.shape)


def _widen(floats: np.ndarray, out: np.ndarray, factor: np.ndarray | None = None) -> None:
    """Undo `_float_in_place`: cast `floats`, the head of `out`'s buffer,
    into `out` (int64 or float64), times `factor` when one is given.
    Chunks run top down; numpy does not buffer an overlapping assignment
    that widens float32, so the lowest chunk, the only one that overlaps
    itself, goes through a copy."""
    flat, src = np.reshape(out, -1, copy=False), np.reshape(floats, -1, copy=False)
    for s in reversed(range(0, flat.size, _SCRATCH_FLOATS)):
        part = slice(s, s + _SCRATCH_FLOATS)
        chunk = src[part] if s else src[part].copy()
        if factor is None:
            flat[part] = chunk
        else:
            np.multiply(chunk, factor[part], out=flat[part])


@functools.lru_cache(maxsize=32)
def _kronecker_powers(factor: tuple, dtype) -> tuple[np.ndarray, ...]:
    """F^{(x)g} of a 2x2 factor F, read-only, for g = 0..5 built in float64
    and cast, or g = 0..1 of Python ints for dtype object: entry (i, j) is
    the product over the bits b of F[i_b, j_b]; for H, (-1)^{|i & j|}."""
    powers = [np.ones((1, 1), dtype=object if dtype == object else np.float64)]
    for _ in range(1 if dtype == object else 5):
        powers.append(np.kron(np.array(factor, dtype=powers[0].dtype), powers[-1]))
    powers = [p.astype(dtype) for p in powers]
    for p in powers:
        p.flags.writeable = False
    return tuple(powers)


def _wht_blocked_inplace(a: np.ndarray, factor: tuple = _HADAMARD,
                         scratch: np.ndarray | None = None) -> np.ndarray:
    """Multiply a float32, float64 or Python-int object array by F^{(x)n}
    for a 2x2 `factor` F given as nested tuples, H by default, as one
    product by F^{(x)g} per group of index bits, through `scratch` if given
    (of at least min(a.nbytes, 8 * _SCRATCH_FLOATS) bytes) or a new buffer.

    The n bits split into ceil(n/5) near-equal groups, or n of one bit on
    an object array, two products per entry each.  The group of g bits
    above the lowest `lo` views the array as (high, 2^g, 2^lo * columns)
    and multiplies the middle axis by F^{(x)g}, through a scratch buffer of
    the array's dtype a slab of `high` (or of the last axis, when one slab
    exceeds it) at a time, so no 2^n-sized temporary is allocated.  That
    product would be 2^(n-g) matrix-vector products for the lowest group
    of a vector (lo = 0, one column), so there the array is viewed as rows
    of 2^g entries, and each slab of at most `_GEMM_ROWS` of them is one
    GEMM by (F^{(x)g})^T into the scratch buffer; the transpose matters for
    a non-symmetric F.  Larger slabs are no faster and grow the resident
    memory by the pages OpenBLAS touches to pack them.  A vector of at
    least `_ROWS_FROM` bytes, past the cache, is viewed as rows of
    `_ROW_BYTES`: a row's bits transform one row at a time, in cache, then
    the high bits down the columns, one pass over memory for the low bits.
    """
    if a.ndim == 1 and a.nbytes >= _ROWS_FROM:
        rows = np.reshape(a, (-1, _ROW_BYTES // a.itemsize), copy=False)
        for part in [*rows, rows]:   # each row, then the high bits down the columns
            _wht_blocked_inplace(part, factor, scratch)
        return a
    n = dimension_of(a)
    powers = _kronecker_powers(factor, a.dtype)
    flat = a.reshape(1 << n, -1)
    room = min(a.size, _SCRATCH_FLOATS)
    # numpy's matmul into an object `out` leaks the references it overwrites,
    # so products of Python ints go to new slab-sized arrays
    if a.dtype != object:
        scratch = np.empty(room, dtype=a.dtype) if scratch is None else scratch.view(a.dtype)
    groups, lo = -(-n // (len(powers) - 1)), 0
    for j in range(groups):
        g = (n - lo) // (groups - j)
        width = flat.shape[1] << lo
        if width == 1:
            # the lowest bits of a vector: rows of 2^g entries, a slab of them
            # times (F^{(x)g})^T per GEMM, not one matrix-vector product per row
            v = np.reshape(flat, (-1, 1 << g), copy=False)
            rows = min(_GEMM_ROWS, room >> g)
            blocks = (v[h:h + rows] for h in range(0, v.shape[0], rows))
        else:
            v = np.reshape(flat, (-1, 1 << g, width), copy=False)  # a view, or raise
            rows = max(1, room // v[0].size)
            cols = min(width, room >> g)
            blocks = (v[h:h + rows, :, c:c + cols]
                      for h in range(0, v.shape[0], rows) for c in range(0, width, cols))
        for block in blocks:
            out = None if scratch is None else scratch[:block.size].reshape(block.shape)
            if width == 1:
                out = np.matmul(block, powers[g].T, out=out)
            else:
                out = np.matmul(powers[g], block, out=out)
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


def _scale_to_int(values) -> tuple[np.ndarray, int]:
    """Exact values (Python ints, Fractions, floats at their binary value)
    as integer numerators over their common denominator: an object array
    of Python ints in the shape of `values`, and that denominator."""
    arr = np.asarray(values, dtype=object)
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in arr.flat]
    denom = math.lcm(*{f.denominator for f in fracs})
    out = np.empty(arr.shape, dtype=object)
    out.ravel()[:] = [f.numerator if denom == 1 else f.numerator * (denom // f.denominator)
                      for f in fracs]
    return out, denom


def wht_exact(values: np.ndarray, bound: int) -> np.ndarray:
    """`wht_natural` of integers whose transform is at most `bound` in
    magnitude, exactly: in int64 while `bound` fits (a ring mod 2^64, so the
    values may have wrapped), and above it as Python ints (`_wht_limbs`).
    float64 values take the float64 transform, in place."""
    if values.dtype == np.float64:
        return _wht_inplace(values)
    if _int64_exact(0, bound):
        return _wht_inplace(values.astype(np.int64, copy=False))
    return _wht_limbs(values)


def _wht_limbs(ints: np.ndarray) -> np.ndarray:
    """Exact transform of int64 or Python-int values as Python ints, by
    Horner's rule over limbs of L = 53 - n bits, most significant first:
    ints >> shift, signed, on top and (ints >> shift) & (2^L - 1) below.
    Each is at most 2^L in magnitude, so it transforms exactly in one
    float64 buffer; the Python ints are cut and accumulated `_OBJECT_CHUNK`
    at a time."""
    n = dimension_of(ints)
    bits, top = 53 - n, max(_max_abs(ints).bit_length(), 1)
    limb = np.empty(ints.shape)
    src, dst, out = ints.reshape(-1), limb.reshape(-1), np.zeros(ints.size, dtype=object)
    parts = [slice(s, s + _OBJECT_CHUNK) for s in range(0, ints.size, _OBJECT_CHUNK)]
    for shift in reversed(range(0, top, bits)):
        mask = -1 if shift + bits >= top else (1 << bits) - 1
        for part in parts:
            dst[part] = src[part] >> shift & mask
        _wht_blocked_inplace(limb)
        for part in parts:   # in place, one Python int at a time
            out[part] <<= bits
            out[part] += dst[part].astype(np.int64).astype(object)
    return out.reshape(ints.shape)


def int_array(values) -> np.ndarray:
    """Integers as an int64 array when every one fits, Python ints otherwise."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    arr = np.array(values, dtype=object)
    return arr.astype(np.int64) if _int64_exact(0, _max_abs(arr)) else arr


def _float_exact(dtype, n: int, bound: int) -> bool:
    """True when a transform of size 2^n of integers of magnitude at most
    `bound` is exact in the float `dtype`: every intermediate value, BLAS
    partial sums included, is a +-sum of at most 2^n inputs, and the float
    holds every integer up to 2^(mantissa bits + 1), 2^24 in float32 and
    2^53 in float64, exactly."""
    return bound << n <= 1 << np.finfo(dtype).nmant + 1


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
    rescaled to integer numerators, whose exact transforms are multiplied,
    transformed back and divided by 2^n and the denominators.
    """
    f = f if isinstance(f, np.ndarray) else as_dense(f)
    g = g if isinstance(g, np.ndarray) else as_dense(g)
    n = dimension_of(f)
    if dimension_of(g) != n:
        raise DimensionMismatch(f"convolve: {dimension_of(f)} vs {dimension_of(g)}")
    if is_exact(f) or is_exact(g):
        # the peak, at the final division, holds both operands' numerators
        # of bf and bg bits, the bc = bf + bg + 2n-bit transform and each
        # Fraction's numerator and denominator of at most bc bits: 4 bytes
        # per 30 bits of each plus 256 per point, 1.06-1.23 times the
        # tracemalloc peak at n = 8..16; the 256 alone before scaling
        admit("exact convolution", nbytes=256 << n)
        fi, fd = _scale_to_int(f)
        gi, gd = _scale_to_int(g)
        bits = _max_abs(fi).bit_length() + _max_abs(gi).bit_length()
        admit("exact convolution", nbytes=(256 + (4 * bits + 6 * n) * 2 // 15) << n)
        bf, bg = _max_abs(fi) << n, _max_abs(gi) << n
        conv = wht_exact(wht_exact(fi, bf).astype(object) * wht_exact(gi, bg).astype(object),
                         bf * bg << n).astype(object)
        return conv * Fraction(1, (1 << n) * fd * gd)
    prod = wht_natural(f)
    prod *= wht_natural(g)
    return np.divide(_wht_inplace(prod), 1 << n, out=prod)


# ---------------------------------------------------------------------------
# Ball volumes and intersections
# ---------------------------------------------------------------------------

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
    """Expand a per-weight value profile to a dense float64 length-2^n
    array, each value rounded once to a float."""
    if len(profile) != n + 1:
        raise DimensionMismatch(f"profile length {len(profile)} != n+1 = {n + 1}")
    # per point the weight table and the pmf, and numpy's 64 KiB index buffer
    admit("dense radial lift", nbytes=(9 << n) + (68 << 10))
    return np.array([float(v) for v in profile])[weights_table(n)]


def radial_transform(n: int, profile) -> list:
    """Unnormalized transform of a radial function, per weight:
    k -> sum_i profile(i) K_i(k) for i up to the profile's last nonzero
    entry, the radius, with K_i(k) from the recurrence
    (i+1) K_{i+1}(k) = (n-2k) K_i(k) - (n-i+1) K_{i-1}(k): (n+1) radius
    steps and no table.

    Exact for int and Fraction profiles, float for float ones.  Applying
    it twice multiplies by 2^n.
    """
    if len(profile) != n + 1:
        raise DimensionMismatch(f"profile length {len(profile)} != n+1 = {n + 1}")
    radius = max((i for i, v in enumerate(profile) if v), default=0)
    admit("radial transform", steps=(n + 1) * radius)
    out = []
    for k in range(n + 1):
        prev, cur, total = 0, 1, profile[0]
        for i in range(radius):
            prev, cur = cur, ((n - 2 * k) * cur - (n - i + 1) * prev) // (i + 1)
            if profile[i + 1]:
                total += profile[i + 1] * cur
        out.append(total)
    return out


def radial_convolve(n: int, p1, p2) -> list:
    """Exact profile of the XOR convolution of two radial functions of
    exact values.

    Runs in O(n^2) through the weight-indexed transform, so dimensions far
    beyond the dense cap are fine as long as both factors are radial.
    """
    prod = [a * b for a, b in zip(radial_transform(n, p1), radial_transform(n, p2))]
    return [v * Fraction(1, 1 << n) for v in radial_transform(n, prod)]


def radial_sum(n: int, profile):
    """Total mass of the lifted function: sum_i C(n,i) profile(i), over the
    nonzero entries only, so a narrow profile takes few binomials."""
    return sum(math.comb(n, i) * profile[i] for i in range(n + 1) if profile[i])
