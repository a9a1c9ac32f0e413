import math
import threading
from fractions import Fraction

import pytest

from codesmooth import hypercube as hc
from codesmooth import kernels as kn
from codesmooth import random_coding as rc

from conftest import seeded_rng
from oracles import fractional_power_inequality, lift_exact, qn_exhaustive

INF = math.inf

# qn_estimate and sup_norm_estimate at n = 10, R = 0.6, 20 trials, seed 4,
# from the float64 trial route (see TestTrialRoutes)
PINNED = {"bernoulli a2": 3.1855775927464944, "bernoulli a3": 18.554802035917813,
          "bernoulli sup": 11.487641200640002, "ball a1.5": 1.100223799832701}


def spec_for(n, rate, delta, trials, seed=0):
    kernel = kn.Kernel.bernoulli(n, Fraction(delta).limit_denominator(1000))
    return rc.EnsembleSpec(n, rate, kernel, trials, seed=seed)


class TestQnEstimate:
    def test_order_one_is_exactly_one(self):
        spec = spec_for(8, 0.5, 0.1, trials=10)
        assert rc.qn_estimate(spec, 1) == (1.0, 0.0)

    def test_sampling_needs_a_trial(self):
        spec = spec_for(8, 0.5, 0.1, trials=10)
        spec.trials = 0   # past the spec's own check, to the sampler's
        for estimate in (lambda s: rc.qn_estimate(s, 2), lambda s: rc.qn_estimate(s, 1.5),
                         rc.sup_norm_estimate):
            with pytest.raises(ValueError, match="trials"):
                estimate(spec)

    def test_order_two_matches_pairwise_closed_form(self):
        # full-rate ensemble: M = 2^n i.i.d. codewords
        n = 8
        spec = spec_for(n, 1.0, 0.1, trials=400)
        est, sigma = rc.qn_estimate(spec, 2)
        exact = rc.qn_exact(n, spec.num_codewords, spec.kernel, 2)
        assert abs(est - exact) <= 3 * sigma + 1e-9

    def test_exhaustive_expectation_tiny_case(self):
        # n=4, M=2: enumerate all 256 code tuples exactly
        n = 4
        kernel = kn.Kernel.bernoulli(n, Fraction(1, 4))
        exact2 = qn_exhaustive(n, 2, kernel, 2)
        assert rc.qn_exact(n, 2, kernel, 2) == exact2
        spec = rc.EnsembleSpec(n, 0.25, kernel, 3000, seed=2)  # M = 2
        assert spec.num_codewords == 2
        est, sigma = rc.qn_estimate(spec, 2)
        assert abs(est - exact2) <= 3 * sigma

    def test_estimates_decrease_above_threshold(self):
        delta = 0.1
        rate = 1 - kn.binary_renyi(2, delta) + 0.1
        vals = []
        for n in (8, 12, 16):
            est, _ = rc.qn_estimate(spec_for(n, rate, delta, trials=300), 2)
            vals.append(est)
        assert vals[0] > vals[1] > vals[2]

    def test_floor_above_one(self):
        rng = seeded_rng(80)
        for trial in range(5):
            n = int(rng.integers(4, 9))
            spec = spec_for(n, 0.4, 0.15, trials=200, seed=trial)
            for alpha in (1.5, 2, 3):
                est, sigma = rc.qn_estimate(spec, alpha)
                assert est >= 1 - 3 * sigma - 1e-12

    def test_reproducible_bitwise(self):
        spec = spec_for(10, 0.6, 0.2, trials=300, seed=9)
        a = rc.qn_estimate(spec, 2)
        b = rc.qn_estimate(spec, 2)
        assert a == b

    def test_rejects_bad_orders(self):
        spec = spec_for(6, 0.5, 0.1, trials=10)
        with pytest.raises(ValueError):
            rc.qn_estimate(spec, INF)
        with pytest.raises(ValueError):
            rc.qn_estimate(spec, -1)


def _tiny_kernels():
    return [kn.Kernel.bernoulli(3, Fraction(1, 4)), kn.Kernel.ball(3, 1),
            kn.Kernel.sphere(3, 2), kn.Kernel.subcube(3, [1])]


class TestQnExact:
    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_equals_exhaustive_enumeration(self, alpha):
        for kernel in _tiny_kernels():
            for m in (1, 2, 3):
                assert rc.qn_exact(3, m, kernel, alpha) == qn_exhaustive(3, m, kernel, alpha), \
                    (kernel, m)

    def test_order_two_closed_form(self):
        # only pairwise collisions enter: 1 + (2^n S_2 - 1) / M
        for kernel in _tiny_kernels() + [kn.Kernel.bernoulli(10, Fraction(1, 10))]:
            s2 = sum(v * v for v in lift_exact(kernel))
            for m in (1, 5, 1 << 20):
                assert rc.qn_exact(kernel.n, m, kernel, 2) == 1 + ((1 << kernel.n) * s2 - 1) / m

    def test_order_one_and_bad_orders(self):
        kernel = kn.Kernel.bernoulli(6, Fraction(1, 10))
        assert rc.qn_exact(6, 7, kernel, 1) == 1
        for alpha in (0, 1.5, -2):
            with pytest.raises(ValueError):
                rc.qn_exact(6, 7, kernel, alpha)
        with pytest.raises(Exception):
            rc.qn_exact(7, 7, kernel, 2)

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_estimates_agree_with_exact(self, n):
        kernel = kn.Kernel.bernoulli(n, Fraction(1, 10))
        for seed in (0, 1, 2):
            spec = rc.EnsembleSpec(n, 0.6, kernel, 500, seed=seed)
            for alpha in (2, 3, 4):
                est, sigma = rc.qn_estimate(spec, alpha)
                exact = rc.qn_exact(n, spec.num_codewords, kernel, alpha)
                assert abs(est - exact) <= 4 * sigma, (seed, alpha, est, float(exact), sigma)

    def test_recursive_bound_dominates_exact(self):
        # above the order-(1+p) threshold the bound and the moment both
        # approach 1; the least relative slack on this grid is about 6e-10,
        # and at n = 128 the two agree to the float's last bit
        for n in range(8, 33, 4):
            for delta in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)):
                kernel = kn.Kernel.bernoulli(n, delta)
                for p in (1, 2, 3):
                    for gap in (0.02, 0.1):
                        m = rc.num_codewords(n, 1 - kn.binary_renyi(1 + p, delta) + gap)
                        rate = math.log2(m) / n
                        bound = rc.qn_recursive_bound(n, rate, kernel, p, 1)
                        assert bound >= rc.qn_exact(n, m, kernel, 1 + p), (n, delta, p, gap)


class TestRecursiveBound:
    def test_alpha_two_closed_binomial_form(self):
        # p=q=1 hand-expansion: 1 + 2^{n(1-R) - H_2(r)}
        n, rate = 10, 0.6
        kernel = kn.Kernel.bernoulli(n, Fraction(1, 5))
        bound = rc.qn_recursive_bound(n, rate, kernel, 1, 1)
        expected = 1 + 2 ** (n * (1 - rate) - kernel.renyi_entropy(2))
        assert math.isclose(bound, expected, rel_tol=1e-12)

    def test_bound_dominates_estimates(self):
        for n in (8, 10, 12, 14):
            for rate in (0.5, 0.75):
                spec = spec_for(n, rate, 0.1, trials=200, seed=n)
                est, sigma = rc.qn_estimate(spec, 2)
                bound = rc.qn_recursive_bound(n, rate, spec.kernel, 1, 1)
                assert est - 3 * sigma <= bound

    def test_bound_dominates_fractional_order(self):
        # alpha = 1 + 1/2
        spec = spec_for(10, 0.7, 0.1, trials=300, seed=3)
        est, sigma = rc.qn_estimate(spec, 1.5)
        bound = rc.qn_recursive_bound(10, 0.7, spec.kernel, 1, 2)
        assert est - 3 * sigma <= bound

    def test_monotone_nonincreasing_in_rate(self):
        n = 12
        kernel = kn.Kernel.bernoulli(n, Fraction(1, 10))
        vals = [rc.qn_recursive_bound(n, r, kernel, 3, 2)
                for r in (0.3, 0.5, 0.7, 0.9)]
        assert all(u >= v - 1e-12 for u, v in zip(vals, vals[1:]))

    def test_deep_recursion_finite(self):
        kernel = kn.Kernel.bernoulli(8, Fraction(1, 10))
        val = rc.qn_recursive_bound(8, 0.9, kernel, 7, 2)  # alpha = 4.5
        assert math.isfinite(val) and val >= 1

    def test_fractional_power_inequality_1000_random(self):
        rng = seeded_rng(81)
        for _ in range(1000):
            x = float(rng.random() * 10)
            y = float(rng.random() * 10)
            p = int(rng.integers(1, 6))
            q = int(rng.integers(1, 6))
            assert fractional_power_inequality(x, y, p, q)


class TestSupNormBound:
    def test_bound_dominates_estimate(self):
        n, delta = 12, 0.1
        rate = 1 - kn.binary_renyi(INF, delta) + 0.1
        spec = spec_for(n, rate, delta, trials=200, seed=4)
        est, sigma = rc.sup_norm_estimate(spec)
        for eps in (0.05, 0.1, 0.3, 1.0):
            bound = rc.dinf_bound(n, rate, spec.kernel, eps)
            assert est - 3 * sigma <= bound

    def test_large_eps_regime(self):
        kernel = kn.Kernel.bernoulli(10, Fraction(1, 10))
        eps = 50.0
        bound = rc.dinf_bound(10, 0.8, kernel, eps)
        assert math.isclose(bound, 1 + eps, rel_tol=1e-6)

    def test_low_rate_estimate_stays_large(self):
        # below the sup-norm threshold every realization obeys the rate
        # floor 2^{n(1-R) - Hinf(r)}
        n, delta = 12, 0.1
        rate = 0.3
        spec = spec_for(n, rate, delta, trials=100, seed=5)
        est, sigma = rc.sup_norm_estimate(spec)
        kernel = spec.kernel
        floor = 2 ** (n * (1 - rate) - kernel.renyi_entropy(INF))
        assert est + 3 * sigma >= floor
        assert floor > 1.5  # genuinely bounded away from 1

    def test_eps_validation(self):
        kernel = kn.Kernel.bernoulli(8, Fraction(1, 10))
        with pytest.raises(ValueError):
            rc.dinf_bound(8, 0.5, kernel, 0.0)


class TestEnsembleSpec:
    def test_codeword_count_rounding(self):
        kernel = kn.Kernel.bernoulli(8, Fraction(1, 10))
        assert rc.EnsembleSpec(8, 0.5, kernel, 1).num_codewords == 16
        assert rc.EnsembleSpec(8, 0.0, kernel, 1).num_codewords == 1
        assert rc.num_codewords(64, 0.5) == 1 << 32   # no 2^n admission

    def test_validation(self):
        kernel = kn.Kernel.bernoulli(8, Fraction(1, 10))
        with pytest.raises(ValueError):
            rc.EnsembleSpec(8, 0.5, kernel, 0)
        with pytest.raises(Exception):
            rc.EnsembleSpec(9, 0.5, kernel, 5)


class TestTrialRoutes:
    """A Bernoulli kernel's trial is one Kronecker pass of the bit-flip
    factor over the counts; the same profile as a plain radial kernel takes
    the spectrum route (float32 forward transform, float64 inverse)."""

    @staticmethod
    def _both_routes(n, seed, trials=60):
        bernoulli = kn.Kernel.bernoulli(n, Fraction(1, 10))
        radial = kn.Kernel.radial(n, bernoulli.profile)
        assert bernoulli.delta == Fraction(1, 10) and radial.delta is None
        return [rc.EnsembleSpec(n, 0.6, k, trials, seed=seed) for k in (bernoulli, radial)]

    @pytest.mark.parametrize("n", [8, 12])
    def test_product_route_equals_spectrum_route(self, n):
        product, spectrum = self._both_routes(n, seed=7)
        for estimate in (lambda s: rc.qn_estimate(s, 1.5), lambda s: rc.qn_estimate(s, 3),
                         rc.sup_norm_estimate):
            (a, sa), (b, sb) = estimate(product), estimate(spectrum)
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0), (a, b)
            assert math.isclose(sa, sb, rel_tol=1e-9, abs_tol=0), (sa, sb)

    def test_product_route_has_no_negative_entry(self):
        # its terms are all nonnegative, so it skips the round-off clamp
        product, _ = self._both_routes(12, seed=8, trials=20)
        least = []
        rc._sample_statistics(product, lambda s: least.append(float(s.min())) or 0.0)
        assert len(least) == 20 and min(least) >= 0

    def test_values_of_the_float64_route(self):
        # computed before the trial moved to float32 counts and the
        # Kronecker pass: W(counts / M) in float64, times W(r), inverted
        bernoulli = kn.Kernel.bernoulli(10, Fraction(1, 10))
        spec = rc.EnsembleSpec(10, 0.6, bernoulli, 20, seed=4)
        ball = rc.EnsembleSpec(10, 0.6, kn.Kernel.ball(10, 2), 20, seed=4)
        for got, want in ((rc.qn_estimate(spec, 2)[0], PINNED["bernoulli a2"]),
                          (rc.qn_estimate(spec, 3)[0], PINNED["bernoulli a3"]),
                          (rc.sup_norm_estimate(spec)[0], PINNED["bernoulli sup"]),
                          (rc.qn_estimate(ball, 1.5)[0], PINNED["ball a1.5"])):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0), (got, want)


class TestTrialPool:
    """Trials run on `hc.POOL_WIDTH` threads with the OpenBLAS thread count
    held at 1, and the estimates keep the bits of the serial loop."""

    @staticmethod
    def _estimates(n, width, monkeypatch):
        # the Bernoulli pass (orders 3 and inf), the spectrum route (a ball
        # at order 1.5) and Parseval (order 2), 7 trials over `width` slots
        monkeypatch.setattr(hc, "POOL_WIDTH", width)
        bernoulli = rc.EnsembleSpec(n, 0.6, kn.Kernel.bernoulli(n, Fraction(1, 10)), 7, seed=n)
        ball = rc.EnsembleSpec(n, 0.6, kn.Kernel.ball(n, 2), 7, seed=n)
        assert bernoulli.workers == ball.workers == min(width, 7)
        return [rc.qn_estimate(bernoulli, 3), rc.sup_norm_estimate(bernoulli),
                rc.qn_estimate(ball, 1.5), rc.qn_estimate(ball, 2), rc.qn_estimate(bernoulli, 2)]

    @pytest.mark.parametrize("n", [12, 16])
    def test_pool_equals_one_worker_bit_for_bit(self, n, monkeypatch):
        serial = self._estimates(n, 1, monkeypatch)
        assert self._estimates(n, 3, monkeypatch) == serial

    def test_no_blas_setter_runs_serially_with_the_same_values(self, monkeypatch):
        pooled = self._estimates(12, 2, monkeypatch)
        monkeypatch.setattr(hc, "_blas_threads", lambda: None)
        threads = set()
        spec = rc.EnsembleSpec(12, 0.6, kn.Kernel.ball(12, 2), 7, seed=12)
        rc._sample_statistics(spec, lambda s: threads.add(threading.get_ident()) or 0.0)
        assert threads == {threading.get_ident()}
        assert self._estimates(12, 2, monkeypatch) == pooled

    def test_blas_threads_restored_after_an_estimate_and_an_error(self, monkeypatch):
        counts = [4]
        monkeypatch.setattr(hc, "_blas_threads", lambda: (lambda: counts[-1], counts.append))
        monkeypatch.setattr(hc, "POOL_WIDTH", 2)
        spec = rc.EnsembleSpec(10, 0.6, kn.Kernel.bernoulli(10, Fraction(1, 10)), 5)
        rc.qn_estimate(spec, 3)
        assert counts == [4, 1, 4]

        def fails(s):
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            rc._sample_statistics(spec, fails)
        assert counts == [4, 1, 4, 1, 4]

    def test_the_library_thread_count_is_restored(self):
        blas = hc._blas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS thread setter in this numpy")
        get, _ = blas
        before = get()
        spec = rc.EnsembleSpec(12, 0.6, kn.Kernel.bernoulli(12, Fraction(1, 10)), 4)
        rc.qn_estimate(spec, 2)
        with pytest.raises(ZeroDivisionError):
            rc._sample_statistics(spec, lambda s: 1 / 0)
        assert get() == before

    def test_width_is_capped_by_the_trials_and_the_memory_cap(self, monkeypatch):
        kernel = kn.Kernel.bernoulli(20, Fraction(1, 10))
        monkeypatch.setattr(hc, "POOL_WIDTH", 1)
        admitted = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hc, "admit", lambda what, nbytes=0, steps=0: admitted.append(nbytes))
            rc.EnsembleSpec(20, 0.5, kernel, 8)
        monkeypatch.setattr(hc, "POOL_WIDTH", 8)
        assert rc.EnsembleSpec(20, 0.5, kernel, 3).workers == 3
        assert rc.EnsembleSpec(20, 0.5, kernel, 8).workers == 8
        # a cap that admits one worker admits the spec, on one worker
        monkeypatch.setattr(hc, "MEMORY_CAP", admitted[0])
        assert rc.EnsembleSpec(20, 0.5, kernel, 8).workers == 1
        monkeypatch.setattr(hc, "MEMORY_CAP", admitted[0] - 1)
        with pytest.raises(hc.BudgetExceeded):
            rc.EnsembleSpec(20, 0.5, kernel, 8)
