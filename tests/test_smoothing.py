import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from codesmooth import codes as cd
from codesmooth import hypercube as hc
from codesmooth import kernels as kn
from codesmooth import smoothing as sm

from conftest import random_linear_code, seeded_rng
from oracles import (centered_divergence_general, l2_dense_oracle, lift_exact, lloyd,
                     norm_dense, perfect_kernel_rows, radial_hat, smooth_dense)

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
        lifted = lift_exact(kernel)
        assert all(noisy[i] == lifted[i] for i in range(64))

    def test_noisy_distribution_is_pmf(self):
        rng = seeded_rng(40)
        code = random_linear_code(rng, 10)
        noisy = sm.smooth(code, kn.Kernel.bernoulli(code.n, Fraction(3, 10)))
        assert abs(float(noisy.sum()) - 1.0) <= 1e-12 and float(noisy.min()) >= -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sm.smooth(cd.repetition(4), kn.Kernel.ball(5, 1))

    def test_explicit_exact_cells_match_dense_convolution(self):
        # the exact cell pmf of an explicit code is the exact dense pmf
        rng = seeded_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 11))
            words = rng.integers(0, 1 << n, size=int(rng.integers(1, 1 << min(n, 6)) + 1))
            code = cd.ExplicitCode(n, words)
            for kernel in (kn.Kernel.bernoulli(n, Fraction(int(rng.integers(1, 50)), 100)),
                           kn.Kernel.ball(n, int(rng.integers(0, n + 1))),
                           kn.Kernel.sphere(n, int(rng.integers(0, n + 1)))):
                want = smooth_dense(code, kernel, exact=True)
                assert (sm.cell_pmf(code, kernel, exact=True) == want).all(), (code, kernel)

    def test_dense_float_support_is_exact(self):
        # the [10, 2] code of verify seed 0's rate-floor[59] as an explicit
        # code: transform round-off on its points of zero mass used to be
        # counted as support (864 points; 888 nonzero), and how many
        # depends on the transform's summation order
        code = cd.ExplicitCode(10, [0, 145, 70, 215])
        noisy = sm.smooth(code, kn.Kernel.sphere(10, 4))
        assert np.count_nonzero(noisy) == 680
        assert sm.divergence_to_uniform(noisy, 0).d_alpha == 10 - math.log2(680)

    def test_dense_float_support_matches_exact_smoothing(self):
        rng = seeded_rng(41)
        for _ in range(5):
            code = random_linear_code(rng, 10)
            words = cd.ExplicitCode(code.n, code.codeword_ints())
            coords = np.nonzero(rng.integers(0, 2, code.n))[0]
            for c, kernel in ((code, kn.Kernel.subcube(code.n, coords)),
                              (words, kn.Kernel.sphere(code.n, int(rng.integers(0, code.n + 1))))):
                exact = sm.smooth(c, kernel, exact=True)
                assert np.array_equal(sm.smooth(c, kernel) > 0, exact > 0)


class TestDivergenceToUniform:
    def test_uniform_is_zero(self):
        u = np.full(64, 1 / 64)
        for alpha in (0.5, 1, 2, INF):
            rep = sm.divergence_to_uniform(u, alpha)
            assert abs(rep.d_alpha) < 1e-12
            assert abs(rep.l_alpha - 1) < 1e-12
            assert abs(rep.dimensionless) < 1e-12

    def test_uniform_reads_positive_zero_below_order_1(self):
        # log1p(0) / (alpha - 1) is -0.0 below order 1, which prints as -0
        for alpha in (0.25, 0.5, 0.9):
            d = sm.divergence_to_uniform(np.full(16, 1 / 16), alpha).d_alpha
            assert d == 0.0 and math.copysign(1.0, d) == 1.0, alpha

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
        # l_alpha is read from d_alpha; both norms must equal the directly
        # summed norm of 2^n p (and of 2^n p - 1), float and exact inputs
        rng = seeded_rng(41)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            p = rng.random(1 << n)
            p[rng.random(1 << n) < 0.3] = 0.0
            p /= p.sum()
            inputs = [p]
            if trial < 5:
                nums = rng.integers(0, 20, 1 << n)
                nums[0] += 1
                inputs.append(np.array([Fraction(int(v), int(nums.sum())) for v in nums],
                                       dtype=object))
            for f in inputs:
                scaled = f.astype(np.float64) * (1 << n)
                for alpha in (Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 7, INF):
                    rep = sm.divergence_to_uniform(f, alpha)
                    assert math.isclose(rep.l_alpha, norm_dense(scaled, alpha),
                                        rel_tol=1e-12), (trial, alpha)
                    assert math.isclose(rep.dimensionless, norm_dense(scaled - 1, alpha),
                                        rel_tol=1e-12, abs_tol=1e-12), (trial, alpha)

    def test_tiny_divergence_keeps_its_relative_precision(self):
        # RM(3,5) under Bernoulli(3/10): D_1 = 8.25e-12, where n - H(f) would
        # lose about four digits; the 50-digit exact value is the reference
        code, kernel = cd.reed_muller(3, 5), kn.Kernel.bernoulli(32, Fraction(3, 10))
        floats, exact = sm.cell_pmf(code, kernel), sm.cell_pmf(code, kernel, exact=True)
        for alpha in (1, 2):
            with mpmath.workdps(50):
                want = sm.divergence_to_uniform(exact, alpha).d_alpha
            got = sm.divergence_to_uniform(floats, alpha).d_alpha
            assert abs(got - want) <= 1e-9 * want, (alpha, got, want)

    @pytest.mark.parametrize("case", ["point-mass", "bernoulli-lift", "repetition"])
    def test_large_order_is_finite_and_exact(self, case):
        # (1 + e)^alpha overflows float64 on these: the log-domain mean must
        # read the exact divergence, 12 bits for a point mass at n = 12
        n = 12
        if case == "point-mass":
            exact = np.array([Fraction(int(x == 5)) for x in range(1 << n)], dtype=object)
            alpha = 100
        elif case == "bernoulli-lift":
            exact, alpha = lift_exact(kn.Kernel.bernoulli(n, Fraction(1, 10))), 400
        else:
            exact = sm.cell_pmf(cd.repetition(n), kn.Kernel.bernoulli(n, Fraction(1, 100)), True)
            alpha = 100
        floats = np.array([float(v) for v in exact])
        want = sm.divergence_to_uniform(exact, alpha).d_alpha
        got = sm.divergence_to_uniform(floats, alpha).d_alpha
        assert math.isfinite(got) and abs(got - want) <= 1e-9 * want, (got, want)
        if case == "point-mass":
            assert want == n

    @staticmethod
    def _fields(f, alpha) -> tuple[float, float, float]:
        rep = sm.divergence_to_uniform(f, alpha)
        return rep.d_alpha, rep.l_alpha, rep.dimensionless

    def test_one_reduction_orders_equal_the_general_formulas(self):
        # D_2 from one dot product and D_inf from max f and min f, against
        # the formulas every other order takes, on 10 pmfs at each n = 1..20:
        # dense ones, ones with zero masses, a point mass, and a uniform pmf
        # on half the cube with round-off below its zero masses
        rng = seeded_rng(46)
        for trial in range(200):
            n, kind = 1 + trial % 20, trial // 20 % 5
            p = rng.random(1 << n) ** 3
            if kind == 1:
                p[rng.random(1 << n) < 0.4] = 0.0
                p[0] += 1.0
            elif kind == 2:
                p = np.zeros(1 << n)
                p[int(rng.integers(0, 1 << n))] = 1.0
            elif kind == 3:
                p = np.arange(1 << n) % 2 * 1.0
            p /= p.sum()
            if kind == 3:
                p[:64:4] = -1e-13
            for alpha in (2, INF):
                got, want = self._fields(p, alpha), centered_divergence_general(p, alpha)
                for g, w in zip(got, want):
                    assert math.isclose(g, w, rel_tol=1e-12), (trial, n, alpha, got, want)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_one_reduction_orders_near_uniform(self, n):
        # |e| near 1e-9: the general D_2, mean(expm1(2 log1p(e)) - 2e), loses
        # about ulp/|e| of its value to cancellation (up to 5e-7 here), so D_2
        # is held to the 50-digit value of log2(2^n sum f^2 / (sum f)^2) and
        # the other fields to the general formulas, which lose nothing there
        rng = seeded_rng(47 + n)
        e = rng.uniform(-1e-9, 1e-9, 1 << n)
        p = (1 + (e - e.mean())) / (1 << n)
        with mpmath.workdps(50):
            q = [mpmath.mpf(float(v)) for v in p]
            want_d2 = float(mpmath.log(len(q) * mpmath.fsum(v * v for v in q) / mpmath.fsum(q) ** 2, 2))
        d2, l2, e2 = self._fields(p, 2)
        assert math.isclose(d2, want_d2, rel_tol=1e-12), (d2, want_d2)
        _, want_l2, want_e2 = centered_divergence_general(p, 2)
        assert math.isclose(l2, want_l2, rel_tol=1e-12) and math.isclose(e2, want_e2, rel_tol=1e-12)
        assert self._fields(p, INF) == centered_divergence_general(p, INF)

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
            dense = l2_dense_oracle(code, kernel)
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
            lloyd(n, t, k) ** 2 * dual[k] for k in range(n + 1))
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
                rhat = radial_hat(n, kernel.radial_profile())
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

        monkeypatch.setattr(sm, "cell_pmf", refuse)
        tiny = Fraction(1, 10**6)
        assert sm.is_perfectly_smoothed(cd.full_space(6), kn.Kernel.bernoulli(6, tiny))
        assert not sm.is_perfectly_smoothed(hamming7, kn.Kernel.bernoulli(7, tiny))

    def test_non_radial_kernels(self):
        code = cd.parity(5)
        assert sm.is_perfectly_smoothed(code, kn.Kernel.subcube(5, [0, 1, 2, 3]))
        assert not sm.is_perfectly_smoothed(code, kn.Kernel.subcube(5, range(5)))

    def test_matches_exact_dense_uniformity(self, hamming7):
        def uniform(code, kernel):
            return all(v == Fraction(1, 1 << code.n) for v in smooth_dense(code, kernel, True))

        rng = seeded_rng(43)
        codes = [hamming7, cd.full_space(6), cd.repetition(5), cd.parity(6)]
        codes += [random_linear_code(rng, 8, n_min=3) for _ in range(4)]
        codes += [cd.ExplicitCode(n, rng.integers(0, 1 << n, size=1 << int(rng.integers(1, n))))
                  for n in (4, 6, 8)]
        seen = set()
        for base in codes:
            n = base.n
            both = [base] + ([cd.ExplicitCode(n, base.codeword_ints())]
                             if base.is_linear else [])
            kernels = [
                # |C| denom / 2^n is mostly fractional under ball(1), the
                # certificate's early exit, and integral under the others
                kn.Kernel.ball(n, 1), kn.Kernel.ball(n, n),
                kn.Kernel.bernoulli(n, Fraction(1, 10)), kn.Kernel.bernoulli(n, Fraction(1, 4)),
                kn.Kernel.subcube(n, []), kn.Kernel.subcube(n, [0]),
                kn.Kernel.subcube(n, range(n)),
            ]
            for code in both:
                for kernel in kernels:
                    got = sm.is_perfectly_smoothed(code, kernel)
                    assert got == uniform(code, kernel), (code, kernel)
                    seen.add((kernel.spec_string().split(":")[0], got))
        assert sm.is_perfectly_smoothed(hamming7, kn.Kernel.ball(7, 1))
        assert sm.is_perfectly_smoothed(cd.full_space(6), kn.Kernel.bernoulli(6, Fraction(1, 10)))
        assert seen == {(form, v) for form in ("ball", "bernoulli", "subcube")
                        for v in (False, True)}

    def test_runs_no_cell_transform(self, hamming7, golay, monkeypatch):
        # the kernel's spectrum on the code's spectrum support decides it
        def refuse(*args, **kwargs):
            raise AssertionError("the certificate ran a cell transform")

        explicit = cd.ExplicitCode(7, hamming7.codeword_ints())
        monkeypatch.setattr(cd.Code, "cell_transform", refuse)
        for code in (hamming7, explicit):
            assert sm.is_perfectly_smoothed(code, kn.Kernel.ball(7, 1))
            assert not sm.is_perfectly_smoothed(code, kn.Kernel.bernoulli(7, Fraction(1, 10)))
        assert sm.is_perfectly_smoothed(golay, kn.Kernel.ball(23, 3))
        assert not sm.is_perfectly_smoothed(golay, kn.Kernel.ball(23, 2))


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
        # a [5,2] code with covering radius 3 and four dual weights: no
        # radial kernel of covering-radius support can flatten it
        code = cd.LinearCode(np.array([[0, 1, 0, 0, 0],
                                       [0, 0, 1, 1, 0]], dtype=np.uint8))
        assert sm.perfect_kernel_search(code) is None

    def test_matches_local_weight_solve(self):
        rng = seeded_rng(72)
        codes = [cd.random_linear(n, int(rng.integers(1, n + 1)), int(rng.integers(0, 2**31)))
                 for n in rng.integers(3, 11, 70)]
        for n in rng.integers(3, 9, 35):
            size = int(rng.integers(1, 1 << (n - 1)))
            codes.append(cd.ExplicitCode(int(n), rng.choice(1 << int(n), size, replace=False)))
        codes += [cd.ball_code(n, t) for n in range(3, 8) for t in range(n)]
        found = 0
        for code in codes:
            kernel, want = sm.perfect_kernel_search(code), perfect_kernel_rows(code)
            assert (kernel is None) == (want is None), code
            if kernel is not None:
                found += 1
                assert kernel.radial_profile() == want.radial_profile(), code
                assert sm.is_perfectly_smoothed(code, kernel), code
        assert 0 < found < len(codes)


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
