import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codesmooth import hypercube as hc
from codesmooth import kernels as kn

from conftest import seeded_rng

INF = math.inf


class TestKernelLifts:
    def test_unbiased_bernoulli_is_uniform(self):
        k = kn.Kernel.bernoulli(4, Fraction(1, 2))
        assert all(v == Fraction(1, 16) for v in k.lift(exact=True))

    def test_ball_kernel_support_and_mass(self):
        k = kn.Kernel.ball(7, 1)
        lifted = k.lift(exact=True)
        support = [i for i in range(128) if lifted[i] != 0]
        assert len(support) == 8  # V_1(7) = 8 by count
        assert all(lifted[i] == Fraction(1, 8) for i in support)
        assert all(i.bit_count() <= 1 for i in support)

    def test_sphere_kernel(self):
        k = kn.Kernel.sphere(6, 2)
        lifted = k.lift(exact=True)
        wt = hc.weights_table(6)
        for x in range(64):
            expected = Fraction(1, math.comb(6, 2)) if wt[x] == 2 else 0
            assert lifted[x] == expected

    def test_every_form_lifts_to_exact_pmf(self):
        forms = [
            kn.Kernel.bernoulli(5, Fraction(3, 10)),
            kn.Kernel.ball(5, 2),
            kn.Kernel.sphere(5, 3),
            kn.Kernel.subcube(5, [0, 2]),
            kn.Kernel.radial(5, _random_radial_pmf(5, seed=1)),
        ]
        for k in forms:
            assert sum(k.lift(exact=True)) == 1

    def test_radius(self):
        assert kn.Kernel.ball(9, 4).radius() == 4
        assert kn.Kernel.sphere(9, 3).radius() == 3
        assert kn.Kernel.bernoulli(9, Fraction(1, 10)).radius() == 9
        assert kn.Kernel.bernoulli(9, 0).radius() == 0
        assert kn.Kernel.subcube(4, [0, 1]).radius() == 2
        sphere = kn.Kernel.sphere(6, 2)
        assert kn.Kernel.dense(sphere.lift(exact=True)).radius() == 2
        assert kn.Kernel.dense(sphere.lift()).radius() == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kn.Kernel.ball(4, 5)
        with pytest.raises(ValueError):
            kn.Kernel.bernoulli(4, Fraction(3, 2))

    def test_subcube_convolution_is_conditional_average(self):
        # direct definition: average f over the coordinates outside Gamma
        rng = seeded_rng(20)
        n = 6
        f = rng.random(1 << n)
        for gamma in ([0, 3], [1, 2, 5], []):
            k = kn.Kernel.subcube(n, gamma)
            conv = hc.convolve(f, k.lift())
            mask = sum(1 << c for c in gamma)
            direct = np.empty(1 << n)
            for x in range(1 << n):
                fiber = [f[y] for y in range(1 << n)
                         if (y & mask) == (x & mask)]
                direct[x] = sum(fiber) / len(fiber)
            assert np.allclose(conv, direct, atol=1e-12)


def _random_radial_pmf(n, seed):
    rng = seeded_rng(100 + seed)
    raw = [Fraction(int(a) + 1, 64) for a in rng.integers(0, 8, n + 1)]
    total = hc.radial_sum(n, raw)
    return [v / total for v in raw]


class TestRenyiEntropy:
    def test_uniform_every_order(self):
        u = np.full(64, 1 / 64)
        for alpha in (0, 0.5, 1, 2, 4, INF):
            assert math.isclose(kn.renyi_entropy(u, alpha), 6.0, abs_tol=1e-12)

    def test_bernoulli_entropy_factorizes(self):
        # H_2(beta_0.3) = n h_2(0.3), cross-checked against a direct power sum
        n, alpha = 8, 2
        k = kn.Kernel.bernoulli(n, Fraction(3, 10))
        lifted = k.lift(exact=True)
        direct = -math.log2(float(sum(Fraction(v) ** 2 for v in lifted)))
        assert math.isclose(k.renyi_entropy(alpha), direct, rel_tol=1e-12)
        assert math.isclose(direct, n * kn.binary_renyi(alpha, 0.3), rel_tol=1e-12)

    def test_ball_min_entropy_support(self):
        assert math.isclose(kn.Kernel.ball(7, 1).renyi_entropy(0), 3.0)

    def test_no_noise_distribution_entropies(self):
        f = np.zeros(32)
        f[:2] = 0.5
        assert math.isclose(kn.renyi_entropy(f, 1), 1.0)
        assert math.isclose(kn.renyi_entropy(f, INF), 1.0)

    def test_monotone_in_order_50_random_pmfs(self):
        rng = seeded_rng(21)
        grid = [0, 0.5, 1, 2, 4, INF]
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = rng.random(1 << n)
            p /= p.sum()
            vals = [kn.renyi_entropy(p, a) for a in grid]
            assert all(vals[i] >= vals[i + 1] - 1e-10 for i in range(len(vals) - 1))

    def test_radial_shortcut_matches_dense(self):
        k = kn.Kernel.ball(10, 3)
        dense = np.array([float(v) for v in k.lift(exact=True)])
        for alpha in (0, 0.5, 1, 2, 3.5, INF):
            assert math.isclose(k.renyi_entropy(alpha),
                                kn.renyi_entropy(dense, alpha), rel_tol=1e-10)

    def test_rejects_non_pmf(self):
        with pytest.raises(ValueError):
            kn.renyi_entropy(np.full(8, 0.25), 2)


class TestBinaryRenyi:
    def test_fair_coin_all_orders(self):
        for alpha in (0, 0.3, 1, 2, 7, INF):
            assert kn.binary_renyi(alpha, 0.5) == 1.0

    def test_min_entropy_matches_erasure_rate_form(self):
        # 1 - h_inf(d) = 1 + log2(1-d) for d <= 1/2
        for d in (0.05, 0.1, 0.3, 0.45):
            assert math.isclose(kn.binary_renyi(INF, d), -math.log2(1 - d))
            assert math.isclose(1 - kn.binary_renyi(INF, d), 1 + math.log2(1 - d))

    def test_order_two_value(self):
        assert math.isclose(kn.binary_renyi(2, 0.25), -math.log2(0.625))

    def test_monotone_non_increasing_in_order(self):
        for d in (0.1, 0.2, 0.4):
            vals = [kn.binary_renyi(a, d) for a in (0, 0.5, 1, 2, 4, 16, INF)]
            assert all(u >= v - 1e-12 for u, v in zip(vals, vals[1:]))

    def test_inverse_lookup(self):
        for alpha in (1, 2, INF):
            for d in (0.05, 0.2, 0.35):
                v = kn.binary_renyi(alpha, d)
                assert math.isclose(kn.binary_renyi_inverse(alpha, v), d,
                                    abs_tol=1e-10)
        assert kn.binary_renyi_inverse(2, 0.0) == 0.0
        assert kn.binary_renyi_inverse(2, 1.0) == 0.5

    @given(st.floats(min_value=1e-6, max_value=0.5),
           st.floats(min_value=0.1, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_inverse_roundtrip_property(self, d, alpha):
        v = kn.binary_renyi(alpha, d)
        assert math.isclose(kn.binary_renyi_inverse(alpha, v), d,
                            abs_tol=1e-8)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=16),
           st.floats(min_value=0.0, max_value=16))
    @settings(max_examples=150, deadline=None)
    def test_monotone_property(self, d, a1, a2):
        lo, hi = sorted((a1, a2))
        assert kn.binary_renyi(lo, d) >= kn.binary_renyi(hi, d) - 1e-10


class TestKernelSpecGrammar:
    def test_parse_forms(self):
        for spec, direct in (("bernoulli:0.1", kn.Kernel.bernoulli(6, Fraction(1, 10))),
                             ("ball:3", kn.Kernel.ball(6, 3)),
                             ("sphere:2", kn.Kernel.sphere(6, 2))):
            k = kn.parse_kernel_spec(spec, 6)
            assert k.spec_string() == spec
            assert k.radial_profile() == direct.radial_profile()
        k = kn.parse_kernel_spec("subcube:0,2,5", 6)
        assert k.spec_string() == "subcube:0,2,5"
        assert k.coords == (0, 2, 5)

    def test_parse_radial_file(self, tmp_path):
        n = 4
        prof = _random_radial_pmf(n, seed=2)
        path = tmp_path / "prof.csv"
        path.write_text(",".join(str(v) for v in prof) + "\n")
        k = kn.parse_kernel_spec(f"radial:@{path}", n)
        assert k.radial_profile() == prof

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            kn.parse_kernel_spec("gauss:1", 4)
        with pytest.raises(ValueError):
            kn.parse_kernel_spec("radial:inline", 4)


class TestPackedFamilyKernels:
    def test_profiles_are_pmfs_with_expected_support(self):
        k = kn.two_error_bch_profile(32)
        prof = k.radial_profile()
        assert sum(math.comb(32, i) * prof[i] for i in range(33)) == 1
        assert prof[0] == prof[1] and prof[2] == prof[3]
        assert prof[2] == prof[0] * Fraction(3, 32)
        assert all(v == 0 for v in prof[4:])
        assert k.radius() == 3

        kp = kn.preparata_profile(15)
        pp = kp.radial_profile()
        assert pp[2] == pp[0] * Fraction(6, 14)
        assert kp.radius() == 3

        kg = kn.goethals_profile(31)
        pg = kg.radial_profile()
        assert pg[2] == pg[0] * Fraction(65, 62)
        assert pg[4] == pg[0] * Fraction(30, 31 * 28)
        assert kg.radius() == 5
