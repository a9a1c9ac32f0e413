import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codesmooth import codes as cd
from codesmooth import hypercube as hc
from codesmooth import kernels as kn

from conftest import random_fraction_array, random_linear_code, seeded_rng
from oracles import (as_int64, convolve_direct, krawtchouk, krawtchouk_row, kronecker_passes,
                     lift_exact, lloyd, mu_spectral, radial_hat, wht_butterfly)


def direct_transform(f):
    """O(4^n) definition-level transform: the oracle for fwht."""
    n = hc.dimension_of(f)
    size = 1 << n
    exact = hc.is_exact(f)
    out = np.empty(size, dtype=object if exact else float)
    scale = Fraction(1, size) if exact else 1.0 / size
    for y in range(size):
        acc = 0
        for x in range(size):
            acc += f[x] if (x & y).bit_count() % 2 == 0 else -f[x]
        out[y] = acc * scale
    return out


class TestFwht:
    def test_delta_transforms_to_constant(self):
        f = np.zeros(8)
        f[0] = 1.0
        assert np.allclose(hc.fwht(f), 1 / 8)

    def test_sphere_transforms_to_krawtchouk(self):
        n, t = 6, 2
        wt = hc.weights_table(n)
        sphere = (wt == t).astype(float)
        expected = np.array(krawtchouk_row(n, t), dtype=float)[wt] / 2**n
        assert np.allclose(hc.fwht(sphere), expected)

    def test_roundtrip_exact_100_random(self):
        rng = seeded_rng(10)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            f = random_fraction_array(rng, 1 << n)
            back = hc.ifwht(hc.fwht(f))
            assert all(back[i] == f[i] for i in range(1 << n))

    def test_forward_matches_direct_transform_oracle(self):
        rng = seeded_rng(11)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            f = random_fraction_array(rng, 1 << n)
            fast = hc.fwht(f)
            slow = direct_transform(f)
            assert all(fast[i] == slow[i] for i in range(1 << n))

    def test_parseval(self):
        rng = seeded_rng(12)
        for n in range(2, 11):
            f = rng.standard_normal(1 << n)
            fhat = hc.fwht(f)
            assert math.isclose((1 << n) * float(fhat @ fhat),
                                float(f @ f), rel_tol=1e-10)

    @given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=8),
                    min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, vals):
        f = np.empty(4, dtype=object)
        f[:] = vals
        back = hc.ifwht(hc.fwht(f))
        assert all(back[i] == f[i] for i in range(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hc.convolve(np.zeros(8), np.zeros(4))


class TestBlockedWht:
    """Every transform runs as products by H_{2^g}; the reference butterfly
    of `oracles.wht_butterfly` decides them."""

    def test_matches_exact_transform_up_to_n13(self):
        # 52-bit numerators over 2^40: float sums of them round, while the
        # object path sums the numerators exactly
        rng = seeded_rng(20)
        for n in range(14):
            for shape in [(1 << n,), (1 << n, 3)]:
                nums = rng.integers(-2 ** 52, 2 ** 52, size=shape)
                f = nums * 2.0 ** -40
                exact = wht_butterfly(nums).astype(np.float64) * 2.0 ** -40
                scale = np.abs(f).sum(axis=0)   # bounds every |W f(y)|
                assert (np.abs(hc.wht_natural(f) - exact) <= 1e-13 * scale).all(), (n, shape)

    @pytest.mark.parametrize("shape", [(1,), (2, 3), (1 << 11,), (1 << 16,), (1 << 13, 3),
                                       (1 << 6, 5000), (1 << 5, 9000)])
    def test_integer_values_equal_int64_butterfly(self, shape):
        # the last two shapes make a (2^g, low * cols) block wider than the
        # scratch buffer, so the products run over slices of the trailing axis;
        # int64 shares the float kernel here, so the reference butterfly decides
        f = seeded_rng(21).integers(-1000, 1000, size=shape)
        exact = wht_butterfly(f)
        assert np.array_equal(hc.wht_natural(f.astype(np.float64)), exact)
        assert np.array_equal(hc.wht_natural(f), exact)

    @pytest.mark.parametrize("shape", [(1,), (2, 3), (1 << 11,), (1 << 16,), (1 << 13, 3),
                                       (1 << 11, 24), (1 << 6, 5000), (1 << 5, 9000)])
    @pytest.mark.parametrize("excess", [0, 1])
    def test_int64_equals_object_butterfly(self, shape, excess, monkeypatch):
        # max|f| * 2^n == 2^53 takes the float64 products in place, one more
        # splits f into its low 53 - n bits and the rest, one product each;
        # both must equal the exact transform bit for bit
        n = shape[0].bit_length() - 1
        bound = (1 << 53) >> n
        f = seeded_rng(25).integers(-bound, bound + 1, size=shape)
        f.flat[f.size // 2] = -bound - excess
        blocked = []
        monkeypatch.setattr(hc, "_wht_blocked_inplace",
                            lambda a, run=hc._wht_blocked_inplace: blocked.append(a) or run(a))
        out = hc.wht_natural(f)
        assert out.dtype == np.int64
        assert out.tolist() == wht_butterfly(f).tolist()
        assert len(blocked) == 1 + excess

    def test_int64_peak_memory_at_n20(self):
        # the casts to and from float64 run in place, a chunk at a time
        a = seeded_rng(26).integers(-1 << 33, 1 << 33, size=1 << 20)
        expected = hc.wht_natural(a.astype(np.float64))  # exact: |W a| < 2^53
        tracemalloc.start()
        try:
            out = hc._wht_inplace(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is a and np.array_equal(a, expected)
        assert peak < 2 << 20

    def test_columns_transform_independently(self):
        f = seeded_rng(22).standard_normal((1 << 7, 4))
        cols = np.stack([hc.wht_natural(f[:, j]) for j in range(4)], axis=1)
        assert np.allclose(hc.wht_natural(f), cols, rtol=0, atol=1e-12)
        assert np.array_equal(hc.wht_natural(np.asfortranarray(f)), hc.wht_natural(f))

    def test_input_is_left_unmodified(self):
        f = seeded_rng(23).standard_normal((1 << 10, 2))
        before = f.copy()
        hc.wht_natural(f)
        hc.wht_natural(f[:, 0])
        assert np.array_equal(f, before)

    def test_in_place_peak_memory_at_n20(self):
        a = seeded_rng(24).standard_normal(1 << 20)
        tracemalloc.start()
        try:
            hc._wht_inplace(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestFloat32Tier:
    """int64 transforms with max|a| * 2^n <= 2^24 run in float32 inside the
    array's own buffer; the reference butterfly decides them bit for bit."""

    @staticmethod
    def _record_dtypes(monkeypatch) -> list:
        seen = []
        monkeypatch.setattr(hc, "_wht_blocked_inplace",
                            lambda a, run=hc._wht_blocked_inplace: seen.append(a.dtype) or run(a))
        return seen

    @pytest.mark.parametrize("n", [1, 5, 12, 17, 18, 20])
    def test_equals_object_butterfly(self, n, monkeypatch):
        # n = 17, 18, 20 sit at, one and three above the 2^17-element cast
        # chunk; one entry at -bound puts max|a| * 2^n exactly at 2^24
        bound = (1 << 24) >> n
        a = seeded_rng(27).integers(-bound, bound + 1, size=1 << n)
        a[a.size // 2] = -bound
        before = a.copy()
        seen = self._record_dtypes(monkeypatch)
        out = hc.wht_natural(a)
        assert seen == [np.float32] and out.dtype == np.int64
        assert out.tolist() == wht_butterfly(a).tolist()
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("n", [1, 5, 12, 17, 20])
    def test_one_past_the_bound_equals_reference(self, n, monkeypatch):
        # max|a| * 2^n = 2^24 + 2^n takes float64, still bit for bit
        bound = (1 << 24) >> n
        a = seeded_rng(31).integers(-bound, bound + 1, size=1 << n)
        a[a.size // 2] = -bound - 1
        seen = self._record_dtypes(monkeypatch)
        out = hc.wht_natural(a)
        assert seen == [np.float64] and out.dtype == np.int64
        assert out.tolist() == wht_butterfly(a).tolist()

    @pytest.mark.parametrize("top, dtype", [(1 << 23, np.float32), (1 << 24, np.float64)])
    def test_just_past_the_bound_takes_float64(self, top, dtype, monkeypatch):
        # max|a| * 2 for [2^23, 1] sits at the bound; [2^24, 1] is past it,
        # and its 2^24 + 1 has no float32 (a float32 transform reads 2^24)
        a = np.array([top, 1], dtype=np.int64)
        seen = self._record_dtypes(monkeypatch)
        out = hc.wht_natural(a)
        assert seen == [dtype]
        assert out.tolist() == wht_butterfly(a).tolist()
        assert out[0] == top + 1

    def test_columns_and_peak_memory(self):
        # 2-D arrays cast the same way; the cast needs no 2^n buffer
        a = seeded_rng(28).integers(-4, 5, size=(1 << 10, 3))
        assert hc.wht_natural(a).tolist() == wht_butterfly(a).tolist()
        a = seeded_rng(29).integers(-16, 17, size=1 << 20)
        expected = hc.wht_natural(a.astype(np.float64))
        tracemalloc.start()
        try:
            out = hc._wht_inplace(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is a and np.array_equal(a, expected)
        assert peak < 2 << 20


class TestLimbRoute:
    """Integers past the float64 bound transform as limbs of 53 - n bits,
    recombined in int64 (mod 2^64) or as Python ints, and Fractions over
    their common denominator; the reference butterfly decides them bit for
    bit."""

    @staticmethod
    def _values(seed: int, shape: tuple, bits: int) -> np.ndarray:
        """Python ints in [-2^bits, 2^bits), one of them -2^bits."""
        rng = random.Random(seed)
        a = np.empty(shape, dtype=object)
        flat = a.reshape(-1)
        flat[:] = [rng.randint(-(1 << bits), (1 << bits) - 1) for _ in range(flat.size)]
        flat[rng.randrange(flat.size)] = -(1 << bits)
        return a

    @given(n=st.integers(0, 10), bits=st.integers(0, 400), columns=st.sampled_from([0, 3]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_python_ints_and_fractions_equal_reference(self, n, bits, columns, seed):
        a = self._values(seed, (1 << n, columns) if columns else (1 << n,), bits)
        want = wht_butterfly(a).tolist()
        out = hc.wht_natural(a)
        assert out.dtype == object and out.tolist() == want
        assert hc.wht_exact(a, (1 << bits) << n).tolist() == want
        assert (hc.wht_natural(a * Fraction(1, 6)) * 6).tolist() == want

    @given(n=st.integers(0, 10), bits=st.integers(0, 63), columns=st.sampled_from([0, 3]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_int64_equals_reference_mod_2_64(self, n, bits, columns, seed):
        # results past 2^63 wrap as int64 arithmetic does; `wht_exact` with
        # a bound past int64 returns them exactly
        a = self._values(seed, (1 << n, columns) if columns else (1 << n,), bits)
        ints = a.astype(np.int64)
        before = ints.copy()
        want = wht_butterfly(a)
        out = hc.wht_natural(ints)
        assert out.dtype == np.int64 and out.ravel().tolist() == as_int64(want)
        assert np.array_equal(ints, before)
        assert hc.wht_exact(ints, (1 << bits) << n).tolist() == want.tolist()

    @given(n=st.integers(0, 10), dtype=st.sampled_from([np.int8, np.int32, np.uint8]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_other_integer_dtypes_transform_in_int64(self, n, dtype, seed):
        info, rng = np.iinfo(dtype), random.Random(seed)
        a = np.array([rng.randint(info.min, info.max) for _ in range(1 << n)], dtype=dtype)
        out = hc.wht_natural(a)
        assert out.dtype == np.int64 and out.tolist() == wht_butterfly(a).tolist()

    def test_int32_does_not_wrap(self):
        a = np.array([1 << 30] * 4, dtype=np.int32)
        assert hc.wht_natural(a).tolist() == [1 << 32, 0, 0, 0]

    def test_wide_results_are_exact(self):
        # 300-bit entries at n = 9: results of at least 300 bits, by Horner
        # over seven limbs, and their int64 residues
        a = self._values(32, (1 << 9,), 300)
        want = wht_butterfly(a)
        assert max(abs(v) for v in want).bit_length() >= 300
        assert hc.wht_natural(a).tolist() == want.tolist()
        wrapped = np.array(as_int64(a), dtype=np.int64)
        assert hc.wht_natural(wrapped).tolist() == as_int64(want)

    def test_int64_split_peak_memory_at_n20(self):
        # max|a| * 2^n = 2^60: the low limb is the one extra 2^n array
        a = seeded_rng(33).integers(-1 << 40, 1 << 40, size=1 << 20)
        want = hc.wht_exact(a.copy(), 1 << 64)
        tracemalloc.start()
        try:
            out = hc._wht_inplace(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is a and a.tolist() == want.tolist()
        assert peak < (8 << 20) + (2 << 20)


class TestKroneckerPass:
    @pytest.mark.parametrize("n", [1, 5, 8, 12])
    def test_bit_flip_factor_is_bernoulli_convolution(self, n):
        # [[1-d, d], [d, 1-d]]^(x)n is the matrix of x -> r(x + y) for
        # r = Bernoulli(d); on nonnegative input every term is nonnegative
        d = Fraction(1, 10)
        f = seeded_rng(30).random(1 << n)
        f[::3] = 0.0
        want = hc.convolve(f, kn.Kernel.bernoulli(n, d).lift())
        got = hc._wht_blocked_inplace(f.copy(), ((0.9, 0.1), (0.1, 0.9)))
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        assert got.min() >= 0

    @pytest.mark.parametrize("n", range(13))
    def test_non_symmetric_factor_equals_kronecker_power(self, n):
        # H and the bit flip are symmetric, so only a non-symmetric factor
        # tells F^(x)g from its transpose; the vector's lowest group is the
        # one product that multiplies by the transpose.  Integers below 100
        # times entries of 7^n at most stay exact in float64 at n <= 12.
        factor = ((1, 2), (3, 4))
        power = np.ones((1, 1))
        for _ in range(n):
            power = np.kron(np.array(factor, dtype=np.float64), power)
        rng = seeded_rng(35)
        for shape in [(1 << n,), (1 << n, 3)]:
            f = rng.integers(-99, 100, size=shape).astype(np.float64)
            want = power @ f
            assert np.array_equal(hc._wht_blocked_inplace(f.copy(), factor), want), shape
            scale = np.abs(power) @ np.abs(f)   # bounds every |F^(x)n f| and its partial sums
            got = hc._wht_blocked_inplace(f.astype(np.float32), factor)
            assert got.dtype == np.float32
            assert (np.abs(got - want) <= 1e-5 * scale).all(), shape

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 11, 17])
    @pytest.mark.parametrize("tier", [np.float32, np.float64])
    def test_vector_integer_transform_equals_butterfly(self, n, tier):
        # lowest groups of 1 to 5 bits; at n = 17 the 2^13 rows of its 4-bit
        # group run as several GEMM slabs.  max|a| * 2^n sits at the bound
        # of the float tier the int64 values take.
        bound = (1 << np.finfo(tier).nmant + 1) >> n
        a = seeded_rng(36).integers(-bound, bound + 1, size=1 << n)
        a[0] = bound
        assert hc.wht_natural(a).tolist() == wht_butterfly(a).tolist()


class TestRows:
    """Vectors of at least 32 MiB transform in two phases: the bits of a
    256 KiB row one row at a time, then the high bits down the columns of
    the (rows, row length) view."""

    # 256 KiB rows hold 16 float32 or 15 float64 index bits, in groups of
    # 4 x 4 or 3 x 5; the 7 bits above them take groups of 3 and 4
    GROUPS = {np.float32: (23, [4, 4, 4, 4, 3, 4]), np.float64: (22, [5, 5, 5, 3, 4])}

    @pytest.mark.parametrize("factor", [((1, 1), (1, -1)), ((0.9, 0.1), (0.1, 0.9)),
                                        ((1, 0), (1, 1))], ids=["H", "flip", "zeta"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_the_per_group_passes_bit_for_bit(self, dtype, factor):
        n, groups = self.GROUPS[dtype]
        a = seeded_rng(37).standard_normal(1 << n).astype(dtype)
        assert a.nbytes == 32 << 20
        want = kronecker_passes(a, factor, groups)
        got = hc._wht_blocked_inplace(a, factor)
        assert got is a and np.array_equal(got, want)

    def test_two_dimensional_arrays_transform_down_each_column(self):
        # 32 MiB as two columns of 2^21: each column is transformed, exactly
        # on integers, as on its own
        f = seeded_rng(38).integers(-1000, 1000, size=(1 << 21, 2)).astype(np.float64)
        cols = np.stack([hc._wht_blocked_inplace(f[:, j].copy()) for j in range(2)], axis=1)
        assert np.array_equal(hc._wht_blocked_inplace(f), cols)


class TestConvolve:
    def test_uniform_absorbing(self):
        rng = seeded_rng(13)
        n = 4
        f = rng.random(1 << n)
        f /= f.sum()
        u = np.full(1 << n, 1.0 / (1 << n))
        assert np.allclose(hc.convolve(f, u), u)

    def test_bernoulli_composition(self):
        # beta_a * beta_b = beta_{a(1-b)+b(1-a)}, exact in rationals
        n = 6
        a, b = Fraction(1, 10), Fraction(1, 5)
        c = a * (1 - b) + b * (1 - a)
        assert c == Fraction(13, 50)
        wt = hc.weights_table(n)

        def bern(d):
            out = np.empty(1 << n, dtype=object)
            out[:] = [d ** int(w) * (1 - d) ** (n - int(w)) for w in wt]
            return out

        conv = hc.convolve(bern(a), bern(b))
        expected = bern(c)
        assert all(conv[i] == expected[i] for i in range(1 << n))
        direct = convolve_direct(bern(a), bern(b))
        assert all(conv[i] == direct[i] for i in range(1 << n))

    def test_fwht_path_equals_direct_float(self):
        rng = seeded_rng(14)
        for n in (3, 5, 7):
            f = rng.random(1 << n)
            f /= f.sum()
            g = rng.random(1 << n)
            g /= g.sum()
            fast = hc.convolve(f, g)
            slow = convolve_direct(f, g)
            assert np.allclose(fast, slow, atol=1e-14)
            assert abs(fast.sum() - 1.0) < 1e-12  # pmf * pmf is a pmf

    def test_delta_shift(self):
        rng = seeded_rng(15)
        n, z = 5, 19
        f = rng.random(1 << n)
        f /= f.sum()
        delta = np.zeros(1 << n)
        delta[z] = 1.0
        shifted = hc.convolve(delta, f)
        idx = np.arange(1 << n)
        assert np.allclose(shifted, f[idx ^ z])

    def test_exact_past_int64_equals_direct(self):
        # sf * sg * 2^n > 2^63: the product's transform runs in limbs
        rng = seeded_rng(34)
        for n in (1, 4, 6):
            nums, dens = rng.integers(0, 1 << 40, (2, 1 << n)), rng.integers(1, 1 << 12, (2, 1 << n))
            f, g = (np.array([Fraction(int(a), int(b)) for a, b in zip(*pair)], dtype=object)
                    for pair in zip(nums, dens))
            sf, sg = (sum(abs(v) for v in hc._scale_to_int(h)[0]) for h in (f, g))
            assert sf * sg << n > 1 << 63
            assert (hc.convolve(f, g) == convolve_direct(f, g)).all()

    def test_convolution_theorem_exact(self):
        rng = seeded_rng(16)
        for trial in range(10):
            n = int(rng.integers(2, 9))
            f = random_fraction_array(rng, 1 << n)
            g = random_fraction_array(rng, 1 << n)
            lhs = hc.fwht(hc.convolve(f, g))
            rhs = hc.fwht(f) * hc.fwht(g) * (1 << n)
            assert all(lhs[i] == rhs[i] for i in range(1 << n))


class TestKrawtchouk:
    def test_degree_one_is_linear(self):
        n = 10
        assert all(krawtchouk(n, 1, x) == n - 2 * x for x in range(n + 1))

    def test_value_at_zero_is_binomial(self):
        n = 12
        assert all(krawtchouk(n, t, 0) == math.comb(n, t)
                   for t in range(n + 1))

    def test_orthogonality_exact(self):
        n = 9
        for s in range(n + 1):
            for t in range(n + 1):
                acc = sum(math.comb(n, x) * krawtchouk(n, s, x)
                          * krawtchouk(n, t, x) for x in range(n + 1))
                expected = (1 << n) * math.comb(n, t) if s == t else 0
                assert acc == expected

    def test_radial_sum_takes_binomials_of_nonzero_entries_only(self, monkeypatch):
        # int and Fraction profiles at n = 2047; floats at n = 300, where
        # every C(n, i) converts to a float
        rng = seeded_rng(71)
        floats = [0.0] * 301
        floats[int(rng.integers(0, 301))] = 0.25
        cases = [(2047, [1, 1, 1, 1] + [0] * 2044),
                 (2047, [Fraction(0)] * 2046 + [Fraction(1, 3), Fraction(2, 7)]),
                 (300, floats)]
        want = [sum(math.comb(n, i) * p[i] for i in range(n + 1)) for n, p in cases]
        calls = []
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda *a: calls.append(a) or comb(*a))
        got = [hc.radial_sum(n, p) for n, p in cases]
        monkeypatch.undo()
        assert got == want and [type(v) for v in got] == [type(v) for v in want]
        assert len(calls) == 4 + 2 + 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            krawtchouk(5, 6, 0)
        with pytest.raises(ValueError):
            lloyd(5, 2, 7)


class TestBallGeometry:
    def test_lloyd_is_partial_sum(self):
        n = 8
        for t in range(n + 1):
            for x in range(n + 1):
                assert lloyd(n, t, x) == sum(
                    krawtchouk(n, s, x) for s in range(t + 1))

    def test_ball_volume(self):
        assert hc.ball_volume(7, 1) == 8
        assert hc.ball_volume(23, 3) == 2048  # 1 + 23 + 253 + 1771

    def test_mu_concentric(self):
        assert hc.mu(7, 1, 0) == hc.ball_volume(7, 1) == 8

    def test_mu_small_values_against_point_enumeration(self):
        n, t = 7, 1
        for i in (1, 2, 3):
            x = (1 << i) - 1  # any point of weight i
            count = sum(
                1 for y in range(1 << n)
                if y.bit_count() <= t and (y ^ x).bit_count() <= t)
            assert hc.mu(n, t, i) == count
        assert hc.mu(7, 1, 1) == 2
        assert hc.mu(7, 1, 2) == 2
        assert hc.mu(7, 1, 3) == 0

    def test_mu_spectral_equals_direct_up_to_n10(self):
        for n in range(2, 11):
            for t in range(n + 1):
                for i in range(n + 1):
                    assert mu_spectral(n, t, i) == hc.mu(n, t, i)

    def test_mu_brute_force_oracle_n6(self):
        n = 6
        for t in range(n + 1):
            for i in range(n + 1):
                x = (1 << i) - 1
                count = sum(
                    1 for y in range(1 << n)
                    if y.bit_count() <= t and (y ^ x).bit_count() <= t)
                assert hc.mu(n, t, i) == count

    def test_mu_vanishes_beyond_double_radius(self):
        for n in (6, 9):
            for t in range(n // 2):
                for i in range(2 * t + 1, n + 1):
                    assert hc.mu(n, t, i) == 0


class TestRadial:
    def test_lift_radial_places_values_by_weight(self):
        # each exact value rounded once to a float
        n = 5
        prof = [Fraction(i + 1, 7) for i in range(n + 1)]
        dense = hc.lift_radial(n, prof)
        wt = hc.weights_table(n)
        assert dense.dtype == np.float64
        assert all(dense[x] == float(prof[wt[x]]) for x in range(1 << n))

    def test_radial_convolve_matches_dense(self):
        rng = seeded_rng(17)
        n = 6
        p1 = [Fraction(int(a), 31) for a in rng.integers(0, 8, n + 1)]
        p2 = [Fraction(int(a), 17) for a in rng.integers(0, 8, n + 1)]
        prof = hc.radial_convolve(n, p1, p2)
        dense = hc.convolve(_lift(n, p1), _lift(n, p2))
        lifted = _lift(n, prof)
        assert all(lifted[i] == dense[i] for i in range(1 << n))

    def test_pairing_identity_random_codes(self):
        # sum_i V(i) A_i == |C| sum_k Vhat(k) A'_k, exact
        rng = seeded_rng(18)
        for trial in range(10):
            code = random_linear_code(rng, 12)
            n = code.n
            dist = cd.distance_distribution(code)
            dual = cd.dual_distance_distribution(dist, code.size)
            v = [Fraction(int(a), 13) for a in rng.integers(-10, 10, n + 1)]
            vhat = radial_hat(n, v)
            lhs = sum(v[i] * dist[i] for i in range(n + 1))
            rhs = code.size * sum(vhat[k] * dual[k] for k in range(n + 1))
            assert lhs == rhs

    def test_radial_transform_twice_is_scaling(self):
        rng = seeded_rng(19)
        for n in (1, 4, 9, 13):
            p = [Fraction(int(a), 7) for a in rng.integers(-9, 9, n + 1)]
            assert hc.radial_transform(n, hc.radial_transform(n, p)) == [
                v * 2**n for v in p]

    def test_unit_shell_transforms_to_krawtchouk_row(self):
        for n in (3, 8, 11):
            for i in range(n + 1):
                shell = [int(j == i) for j in range(n + 1)]
                assert hc.radial_transform(n, shell) == krawtchouk_row(n, i)

    def test_radius_3_profile_at_n8191_transforms_fast(self):
        # (n + 1) * 3 recurrence steps, with no n^2-entry table
        n = 8191
        profile = [Fraction(1, 5), 2, 0, Fraction(-3, 7)] + [0] * (n - 3)
        start = time.perf_counter()
        per = hc.radial_transform(n, profile)
        assert time.perf_counter() - start < 1.0
        for k in (0, 1, 2, 4095, 4096, 8190, 8191):
            assert per[k] == sum(p * krawtchouk(n, i, k) for i, p in enumerate(profile[:4]))


def _lift(n: int, profile) -> np.ndarray:
    """The exact lift of a per-weight profile, which need not be a pmf."""
    return lift_exact(kn.Kernel(n, "radial", profile=profile))


def _scaled_profile(kernel: kn.Kernel) -> list[int]:
    prof = kernel.radial_profile()
    denom = math.lcm(*(v.denominator for v in prof))
    return [int(v * denom) for v in prof]


class TestConvolveRadial:
    """The exact radial convolution of a code indicator: the radial counts
    of an explicit code."""

    @staticmethod
    def _check(code, profiles):
        f = code.indicator()
        outs = cd.ExplicitCode(code.n, code.codeword_ints()).radial_counts(profiles)
        for p, out in zip(profiles, outs):
            assert out.tolist() == hc.convolve(f, _lift(code.n, p)).tolist()
        return outs

    def test_matches_exact_convolve_20_codes(self):
        rng = seeded_rng(20)
        for trial in range(20):
            code = random_linear_code(rng, 12)
            n = code.n
            profiles = [_scaled_profile(kn.Kernel.bernoulli(n, Fraction(1, 13))),
                        [int(a) for a in rng.integers(-20, 21, n + 1)]]
            for out in self._check(code, profiles):
                assert out.dtype == np.int64

    def test_int64_wraparound_cancels(self):
        # the exact results fit int64 although |C| * S * 2^n does not
        code = cd.random_linear(12, 8, seed=3)
        prof = _scaled_profile(kn.Kernel.bernoulli(12, Fraction(1, 13)))
        mass = sum(math.comb(12, i) * v for i, v in enumerate(prof))
        assert code.size * mass << 12 >= 1 << 63 > mass << 12
        (out,) = self._check(code, [prof])
        assert out.dtype == np.int64

    def test_python_int_path(self):
        code = cd.random_linear(8, 4, seed=5)
        prof = _scaled_profile(kn.Kernel.bernoulli(8, Fraction(1, 10**6)))
        (out,) = self._check(code, [prof])
        assert out.dtype == object


def test_weights_table_is_the_popcount():
    for n in range(17):
        table = hc.weights_table(n)
        assert table.dtype == np.uint8
        assert np.array_equal(table, np.bitwise_count(np.arange(1 << n, dtype=np.int64))), n


class TestSampleMean:
    def test_needs_a_trial(self):
        with pytest.raises(ValueError, match="trials"):
            hc.sample_mean(lambda rng, count: np.zeros(count), 0, 0, 1, 8)

    def test_one_draw_per_shard_on_its_own_key(self):
        calls = []

        def draw(rng, count):
            calls.append(count)
            return rng.random(count)

        mean, _ = hc.sample_mean(draw, 21, 7, 5, 8)
        assert calls == [8, 8, 5]
        values = [np.random.Generator(np.random.Philox(key=[7, 5 << 32 | i])).random(c)
                  for i, c in enumerate(calls)]
        assert mean == math.fsum(np.concatenate(values).tolist()) / 21

    def test_population_standard_error(self):
        # equal values have no spread
        assert hc.sample_mean(lambda rng, count: np.full(count, 0.1), 1024, 0, 1, 100) == (0.1, 0.0)
        want = (3.5, math.sqrt((2.5 ** 2 + 1.5 ** 2 + 0.5 ** 2 + 3.5 ** 2) / 4 / 4))
        for values in ([1.0, 2.0, 4.0, 7.0], np.array([1, 2, 4, 7])):   # float and exact sums
            assert hc.sample_mean(lambda rng, count: values[:count], 4, 0, 1, 4) == want

    def test_bernoulli_error_is_the_binomial_one(self):
        est, sigma = hc.sample_mean(lambda rng, count: rng.random(count) < 0.3, 10_000, 2, 1, 4096)
        assert math.isclose(sigma, math.sqrt(est * (1 - est) / 10_000), rel_tol=1e-14)

    def test_pooled_values_keep_the_trial_order(self, monkeypatch):
        # inputs are drawn here in order; value(input, slot) gets a slot of
        # the asked size that no other trial in flight holds
        monkeypatch.setattr(hc, "_blas_threads", lambda: (lambda: 1, lambda count: None))
        held, sizes = set(), []

        def value(x, slot):
            assert slot.ctypes.data not in held
            held.add(slot.ctypes.data)
            sizes.append(slot.size)
            slot[:] = int(x * 1000)
            total = float(slot.sum())
            held.discard(slot.ctypes.data)
            return total

        want = hc.sample_mean(lambda rng, count: [float(int(rng.random() * 1000) * 4)
                                                  for _ in range(count)], 21, 7, 5, 8)
        assert hc.sample_mean(lambda rng, count: (rng.random() for _ in range(count)),
                              21, 7, 5, 8, value, (3, 32)) == want
        assert sizes == [4] * 21
