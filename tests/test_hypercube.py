import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codesmooth import codes as cd
from codesmooth import hypercube as hc
from codesmooth import kernels as kn

from conftest import random_fraction_array, random_linear_code, seeded_rng


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
        expected = np.array(hc.krawtchouk_row(n, t), dtype=float)[wt] / 2**n
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
        direct = hc.convolve_direct(bern(a), bern(b))
        assert all(conv[i] == direct[i] for i in range(1 << n))

    def test_fwht_path_equals_direct_float(self):
        rng = seeded_rng(14)
        for n in (3, 5, 7):
            f = rng.random(1 << n)
            f /= f.sum()
            g = rng.random(1 << n)
            g /= g.sum()
            fast = hc.convolve(f, g)
            slow = hc.convolve_direct(f, g)
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
        assert all(hc.krawtchouk(n, 1, x) == n - 2 * x for x in range(n + 1))

    def test_value_at_zero_is_binomial(self):
        n = 12
        assert all(hc.krawtchouk(n, t, 0) == math.comb(n, t)
                   for t in range(n + 1))

    def test_orthogonality_exact(self):
        n = 9
        for s in range(n + 1):
            for t in range(n + 1):
                acc = sum(math.comb(n, x) * hc.krawtchouk(n, s, x)
                          * hc.krawtchouk(n, t, x) for x in range(n + 1))
                expected = (1 << n) * math.comb(n, t) if s == t else 0
                assert acc == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hc.krawtchouk(5, 6, 0)
        with pytest.raises(ValueError):
            hc.lloyd(5, 2, 7)


class TestBallGeometry:
    def test_lloyd_is_partial_sum(self):
        n = 8
        for t in range(n + 1):
            for x in range(n + 1):
                assert hc.lloyd(n, t, x) == sum(
                    hc.krawtchouk(n, s, x) for s in range(t + 1))

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
                    assert hc.mu_spectral(n, t, i) == hc.mu(n, t, i)

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
        n = 5
        prof = [Fraction(i + 1, 7) for i in range(n + 1)]
        dense = hc.lift_radial(n, prof)
        wt = hc.weights_table(n)
        assert all(dense[x] == prof[wt[x]] for x in range(1 << n))

    def test_radial_convolve_matches_dense(self):
        rng = seeded_rng(17)
        n = 6
        p1 = [Fraction(int(a), 31) for a in rng.integers(0, 8, n + 1)]
        p2 = [Fraction(int(a), 17) for a in rng.integers(0, 8, n + 1)]
        prof = hc.radial_convolve(n, p1, p2)
        dense = hc.convolve(hc.lift_radial(n, p1), hc.lift_radial(n, p2))
        lifted = hc.lift_radial(n, prof)
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
            vhat = hc.radial_hat(n, v)
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
        for n in (3, 8):
            for i in range(n + 1):
                shell = [int(j == i) for j in range(n + 1)]
                assert hc.radial_transform(n, shell) == hc.krawtchouk_row(n, i)


def _scaled_profile(kernel: kn.Kernel) -> list[int]:
    prof = kernel.radial_profile()
    denom = math.lcm(*(v.denominator for v in prof))
    return [int(v * denom) for v in prof]


class TestConvolveRadial:
    @staticmethod
    def _check(code, profiles):
        f = code.indicator()
        outs = hc.convolve_radial(f, profiles)
        for p, out in zip(profiles, outs):
            assert out.tolist() == hc.convolve(f, hc.lift_radial(code.n, p)).tolist()
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
