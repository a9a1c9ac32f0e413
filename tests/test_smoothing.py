import math
from fractions import Fraction

import numpy as np
import pytest

from codesmooth import codes as cd
from codesmooth import hypercube as hc
from codesmooth import kernels as kn
from codesmooth import smoothing as sm

from conftest import random_linear_code, seeded_rng

INF = math.inf


class TestSmooth:
    def test_full_space_code_gives_uniform(self):
        code = cd.full_space(5)
        for kernel in (kn.Kernel.bernoulli(5, Fraction(1, 7)),
                       kn.Kernel.ball(5, 2),
                       kn.Kernel.sphere(5, 1)):
            noisy = sm.smooth(code, kernel)
            assert np.allclose(noisy, 1 / 32, atol=1e-14)

    def test_hamming_with_unit_ball_is_uniform_exact(self, hamming7):
        noisy = sm.smooth(hamming7, kn.Kernel.ball(7, 1), exact=True)
        assert all(v == Fraction(1, 128) for v in noisy)
        assert sm.is_perfectly_smoothed(hamming7, kn.Kernel.ball(7, 1))
        # a perfect certificate flattens every divergence order
        for alpha in (0, 0.5, 1, 2, 4, math.inf):
            assert sm.divergence_to_uniform(noisy, alpha).d_alpha == 0.0

    def test_budget_guard(self):
        code = cd.repetition(28)
        with pytest.raises(cd.BudgetExceeded):
            sm.smooth(code, kn.Kernel.bernoulli(28, Fraction(1, 10)))

    def test_singleton_code_returns_kernel(self):
        code = cd.ExplicitCode(6, [0])
        kernel = kn.Kernel.bernoulli(6, Fraction(1, 5))
        noisy = sm.smooth(code, kernel, exact=True)
        lifted = kernel.lift(exact=True)
        assert all(noisy[i] == lifted[i] for i in range(64))

    def test_noisy_distribution_is_pmf(self):
        rng = seeded_rng(40)
        code = random_linear_code(rng, 10)
        noisy = sm.smooth(code, kn.Kernel.bernoulli(code.n, Fraction(3, 10)))
        hc.assert_pmf(noisy)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sm.smooth(cd.repetition(4), kn.Kernel.ball(5, 1))


class TestDivergenceToUniform:
    def test_uniform_is_zero(self):
        u = np.full(64, 1 / 64)
        for alpha in (0.5, 1, 2, INF):
            rep = sm.divergence_to_uniform(u, alpha)
            assert abs(rep.d_alpha) < 1e-12
            assert abs(rep.l_alpha - 1) < 1e-12
            assert abs(rep.dimensionless) < 1e-12

    def test_noiseless_code_max_divergence(self):
        # f_C with no noise: max of 2^n f is 2^(n-k)
        code = cd.reed_muller(1, 3)
        rep = sm.divergence_to_uniform(code.pmf(), INF)
        assert math.isclose(rep.d_alpha, code.n - code.k, rel_tol=1e-12)

    def test_matches_l2_closed_form(self):
        # D_2 of the noisy distribution == log2 of the closed-form moment
        code = cd.random_linear(10, 5, seed=3)
        kernel = kn.Kernel.bernoulli(10, Fraction(1, 5))
        rep = sm.smoothness_of(code, kernel, 2)
        closed = sm.l2_closed_form(cd.distance_distribution(code),
                                   code.size, kernel)
        assert math.isclose(rep.d_alpha, math.log2(closed), rel_tol=1e-10)

    def test_report_field_consistency(self):
        rng = seeded_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            p = rng.random(1 << n)
            p /= p.sum()
            for alpha in (0.5, 2, 3, 7):
                rep = sm.divergence_to_uniform(p, alpha)
                expected = alpha / (alpha - 1) * math.log2(rep.l_alpha)
                assert math.isclose(rep.d_alpha, expected,
                                    rel_tol=1e-12, abs_tol=1e-12)
            rep = sm.divergence_to_uniform(p, INF)
            assert math.isclose(rep.d_alpha, math.log2(rep.l_alpha),
                                rel_tol=1e-12)

    def test_monotone_in_alpha(self):
        rng = seeded_rng(42)
        p = rng.random(256)
        p /= p.sum()
        vals = [sm.divergence_to_uniform(p, a).d_alpha
                for a in (0, 0.5, 1, 2, 4, INF)]
        assert all(u <= v + 1e-12 for u, v in zip(vals, vals[1:]))

    def test_scaled_norm_sides_of_one(self):
        # ||2^n g||_a >= 1 above order 1 and <= 1 below, equal iff uniform
        rng = seeded_rng(45)
        for _ in range(10):
            p = rng.random(128)
            p /= p.sum()
            for alpha in (2, 3, INF):
                assert sm.divergence_to_uniform(p, alpha).l_alpha >= 1 - 1e-12
            for alpha in (0.3, 0.7):
                assert sm.divergence_to_uniform(p, alpha).l_alpha <= 1 + 1e-12


class TestL2ClosedForm:
    def test_full_space_is_one(self):
        code = cd.full_space(6)
        dist = cd.distance_distribution(code)
        for kernel in (kn.Kernel.bernoulli(6, Fraction(1, 3)),
                       kn.Kernel.ball(6, 2)):
            assert sm.l2_closed_form(dist, code.size, kernel, exact=True) == 1

    def test_perfect_smoothing_is_one_exact(self, hamming7):
        dist = cd.distance_distribution(hamming7)
        val = sm.l2_closed_form(dist, hamming7.size, kn.Kernel.ball(7, 1),
                                exact=True)
        assert val == 1

    def test_matches_dense_oracle_50_codes(self):
        rng = seeded_rng(43)
        for _ in range(50):
            code = random_linear_code(rng, 12)
            n = code.n
            if rng.integers(0, 2):
                kernel = kn.Kernel.bernoulli(
                    n, Fraction(int(rng.integers(1, 50)), 100))
            else:
                kernel = kn.Kernel.ball(n, int(rng.integers(0, n + 1)))
            dist = cd.distance_distribution(code)
            closed = sm.l2_closed_form(dist, code.size, kernel)
            dense = sm.l2_dense_oracle(code, kernel)
            assert math.isclose(closed, dense, rel_tol=1e-10)

    def test_ball_specialization(self, hamming7):
        # (2^n / (|C| V_t^2)) sum_i mu_t(i) A_i and the Lloyd dual form
        n, t = 7, 2
        dist = cd.distance_distribution(hamming7)
        vt = hc.ball_volume(n, t)
        primal = Fraction(1 << n, hamming7.size * vt * vt) * sum(
            hc.mu(n, t, i) * dist[i] for i in range(n + 1))
        dual = cd.dual_distance_distribution(dist, hamming7.size)
        spectral = Fraction(1, vt * vt) * sum(
            hc.lloyd(n, t, k) ** 2 * dual[k] for k in range(n + 1))
        closed = sm.l2_closed_form(dist, hamming7.size, kn.Kernel.ball(n, t),
                                   exact=True)
        assert primal == spectral == closed

    def test_dual_spectrum_form_exact(self):
        # 4^n sum_k rhat(k)^2 A'_k, evaluated independently of the primal form
        rng = seeded_rng(44)
        for _ in range(20):
            code = random_linear_code(rng, 12)
            n = code.n
            for kernel in (kn.Kernel.bernoulli(n, Fraction(int(rng.integers(1, 50)), 100)),
                           kn.Kernel.ball(n, int(rng.integers(0, n + 1)))):
                dist = cd.distance_distribution(code)
                rhat = hc.radial_hat(n, kernel.radial_profile())
                dual = cd.dual_distance_distribution(dist, code.size)
                dual_form = 4 ** n * sum(rhat[k] ** 2 * dual[k] for k in range(n + 1))
                assert dual_form == sm.l2_closed_form(dist, code.size, kernel, exact=True)

    def test_rejects_non_radial(self):
        with pytest.raises(ValueError):
            sm.l2_closed_form([1, 0, 0, 0, 1], 2, kn.Kernel.subcube(4, [0]))


class TestLowerBound:
    def test_full_space_bound_nonpositive(self):
        kernel = kn.Kernel.bernoulli(6, Fraction(1, 4))
        assert sm.lower_bound(6, 1.0, kernel, 2) <= 0

    def test_singleton_uniform_kernel_equality(self):
        kernel = kn.Kernel.bernoulli(6, Fraction(1, 2))  # lifts to U_6
        bound = sm.lower_bound(6, 0.0, kernel, 1)
        assert abs(bound) < 1e-12
        code = cd.ExplicitCode(6, [0])
        measured = sm.divergence_to_uniform(sm.smooth(code, kernel), 1)
        assert abs(measured.d_alpha) < 1e-9

    def test_100_random_triples(self):
        rng = seeded_rng(44)
        alphas = [0, 0.5, 1, 2, 3, INF]
        for _ in range(100):
            code = random_linear_code(rng, 10)
            n = code.n
            if rng.integers(0, 2):
                kernel = kn.Kernel.bernoulli(
                    n, Fraction(int(rng.integers(0, 51)), 100))
            else:
                kernel = kn.Kernel.ball(n, int(rng.integers(0, n + 1)))
            alpha = alphas[int(rng.integers(0, len(alphas)))]
            rep = sm.lower_bound_report(code, kernel, alpha)
            assert rep.passed, rep.line()


class TestCapacity:
    def test_bernoulli_order_two_value(self):
        assert math.isclose(sm.capacity("bernoulli", 2, 0.25),
                            1 + math.log2(0.625))

    def test_endpoints_exact(self):
        for alpha in (0.5, 1, 2, INF):
            assert sm.capacity("bernoulli", alpha, 0.0) == 1.0
            assert sm.capacity("bernoulli", alpha, 0.5) == 0.0
        assert sm.capacity("ball", 3, 0.0) == 1.0
        assert sm.capacity("ball", 3, 0.5) == 0.0
        assert sm.capacity("bernoulli", 0, 0.3) == 0.0

    def test_curve_ordering(self):
        for d in np.linspace(0.0, 0.5, 101):
            s1 = sm.capacity("bernoulli", 1, d)
            s2 = sm.capacity("bernoulli", 2, d)
            sinf = sm.capacity("bernoulli", INF, d)
            assert sinf >= s2 - 1e-12
            assert s2 >= s1 - 1e-12

    def test_ball_family_order_free(self):
        for alpha in (0, 1, 2, INF):
            assert sm.capacity("ball", alpha, 0.2) == 1 - kn.binary_entropy(0.2)

    def test_pi_rate(self):
        assert math.isclose(sm.pi_rate("bernoulli", 2, 0.3),
                            kn.binary_renyi(2, 0.3))
        n, d = 20, 0.25
        expected = math.log2(hc.ball_volume(n, 5)) / n
        assert math.isclose(sm.pi_rate("ball", 7, d, n=n), expected)
        with pytest.raises(ValueError):
            sm.pi_rate("ball", 2, 0.2)

    def test_pi_rate_decreasing_in_alpha(self):
        vals = [sm.pi_rate("bernoulli", a, 0.2) for a in (0.5, 1, 2, 4, INF)]
        assert all(u >= v - 1e-12 for u, v in zip(vals, vals[1:]))


class TestPerfectSmoothingCertificate:
    def test_radial_certificate_builds_no_exact_smoothing(self, monkeypatch, hamming7):
        # Bernoulli(1/10^6) fails the int64 rule, so these run on Python ints
        def refuse(*args, **kwargs):
            raise AssertionError("radial certificate fell back to exact smoothing")

        monkeypatch.setattr(sm, "smooth", refuse)
        tiny = Fraction(1, 10**6)
        assert sm.is_perfectly_smoothed(cd.full_space(6), kn.Kernel.bernoulli(6, tiny))
        assert not sm.is_perfectly_smoothed(hamming7, kn.Kernel.bernoulli(7, tiny))

    def test_non_radial_kernels(self):
        code = cd.parity(5)
        assert sm.is_perfectly_smoothed(code, kn.Kernel.subcube(5, [0, 1, 2, 3]))
        assert not sm.is_perfectly_smoothed(code, kn.Kernel.subcube(5, range(5)))


class TestPerfectKernelSearch:
    def test_hamming_recovers_unit_ball(self, hamming7):
        kernel = sm.perfect_kernel_search(hamming7)
        assert kernel is not None
        assert kernel.radial_profile() == kn.Kernel.ball(7, 1).radial_profile()

    def test_even_weight_code_radius_dominates_external_distance(self):
        code = cd.parity(4)
        kernel = sm.perfect_kernel_search(code)
        assert kernel is not None
        assert kernel.radius() >= cd.external_distance(code)
        assert sm.is_perfectly_smoothed(code, kernel)

    def test_repetition3_perfect(self):
        kernel = sm.perfect_kernel_search(cd.repetition(3))
        assert kernel is not None
        assert kernel.radial_profile() == kn.Kernel.ball(3, 1).radial_profile()

    def test_golay_recovers_radius3_ball(self, golay):
        kernel = sm.perfect_kernel_search(golay)
        assert kernel is not None
        assert kernel.radial_profile() == kn.Kernel.ball(23, 3).radial_profile()

    def test_unsmoothable_code_returns_none(self):
        # a [5,2] code with inconsistent local weight rows: no nonnegative
        # radial kernel of covering-radius support can flatten it
        code = cd.LinearCode(np.array([[0, 1, 0, 0, 0],
                                       [0, 0, 1, 1, 0]], dtype=np.uint8))
        assert sm.perfect_kernel_search(code) is None


class TestStrongConverseDemo:
    def test_ball_code_under_quarter_noise(self):
        measured, reference = sm.strong_converse_gap(24, 0.25, 0.25)
        assert abs(measured - reference) <= 0.05
        # the crossover combination: 0.25 * 0.75 + 0.25 * 0.75
        assert math.isclose(reference, 1 - kn.binary_entropy(0.375))

    def test_radial_divergence_matches_dense(self):
        n, t, delta = 10, 2, 0.2
        radial = sm.ball_code_divergence(n, t, Fraction(1, 5), alpha=1)
        code = cd.ball_code(n, t)
        noisy = sm.smooth(code, kn.Kernel.bernoulli(n, Fraction(1, 5)))
        dense = sm.divergence_to_uniform(noisy, 1).d_alpha
        assert math.isclose(radial, dense, rel_tol=1e-10)
