import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from codesmooth import codes as cd
from codesmooth import decoding as dec
from codesmooth import hypercube as hc
from codesmooth import kernels as kn

from conftest import random_linear_code, seeded_rng
from oracles import ball_counts_table, decoding_error_dense, l2_dense_oracle


class TestListErrorBound:
    def test_singleton_code_energy_zero(self):
        dist = [1] + [0] * 7  # single codeword, n=7
        bound = dec.list_error_bound(dist, Fraction(1, 20), 1, 3, 1)
        assert bound.energy_term == 0
        assert bound.total == bound.tail_term

    def test_monotone_in_list_size(self, hamming7):
        dist = cd.distance_distribution(hamming7)
        totals = [dec.list_error_bound(dist, Fraction(1, 100), L, 2, 1).total
                  for L in (1, 2, 4, 8)]
        assert all(u >= v - 1e-15 for u, v in zip(totals, totals[1:]))

    def test_hamming_grid_optimized(self, hamming7):
        dist = cd.distance_distribution(hamming7)
        bound = dec.list_error_bound(dist, Fraction(1, 100), 1, 2)
        assert 0 < bound.tprime < 2
        explicit = dec.list_error_bound(dist, Fraction(1, 100), 1, 2, 1)
        assert bound.total <= explicit.total + 1e-15

    def test_energy_term_value(self, hamming7):
        # beta(t') * sum_{w>=1} mu_t(w) A_w / L with exact mu and A
        n, t, tp = 7, 2, 1
        dist = cd.distance_distribution(hamming7)
        expected_sum = sum(hc.mu(n, t, w) * dist[w] for w in range(1, n + 1))
        assert expected_sum == 7 * hc.mu(7, 2, 3) + 7 * hc.mu(7, 2, 4)
        d = Fraction(1, 100)
        expected = d ** tp * (1 - d) ** (n - tp) * expected_sum
        bound = dec.list_error_bound(dist, d, 1, t, tp)
        assert math.isclose(bound.energy_term, float(expected), rel_tol=1e-12)

    def test_radius_ordering_errors(self, hamming7):
        dist = cd.distance_distribution(hamming7)
        with pytest.raises(ValueError):
            dec.list_error_bound(dist, 0.1, 1, 2, 2)
        with pytest.raises(ValueError):
            dec.list_error_bound(dist, 0.1, 1, 7, 1)
        with pytest.raises(ValueError):
            dec.list_error_bound(dist, 0.1, 1, 1)  # no room for t'


class TestBinomialTails:
    def test_exactness_against_high_precision(self):
        # spot values up to n = 30 against 60-digit evaluation
        with mpmath.workdps(60):
            for n, d, lo, hi in [(30, Fraction(1, 100), 0, 3),
                                 (30, Fraction(1, 3), 10, 30),
                                 (25, Fraction(7, 100), 5, 25),
                                 (12, Fraction(1, 2), 0, 6)]:
                exact = dec.binomial_tail(n, d, lo, hi)
                dm = mpmath.mpf(d.numerator) / d.denominator
                ref = mpmath.fsum(
                    mpmath.binomial(n, w) * dm ** w * (1 - dm) ** (n - w)
                    for w in range(lo, hi + 1))
                assert abs(float(exact) - float(ref)) < 1e-15

    def test_disjoint_ranges_sum_to_one(self):
        n, d = 20, Fraction(3, 10)
        total = dec.binomial_tail(n, d, 0, 9) + dec.binomial_tail(n, d, 10, 20)
        assert total == 1

    def test_point_value(self):
        assert dec.binomial_point(7, Fraction(1, 100), 1) == \
            Fraction(1, 100) * Fraction(99, 100) ** 6


class TestEnergyVsSecondMoment:
    def test_energy_sum_matches_dense_moment(self):
        # sum_{w>=1} mu_t(w) A_w == (|C| V_t^2 / 2^n) ||2^n T_{b_t} f_C||_2^2 - V_t
        rng = seeded_rng(60)
        for _ in range(8):
            code = random_linear_code(rng, 12, n_min=5)
            n = code.n
            t = int(rng.integers(1, n // 2 + 1))
            dist = cd.distance_distribution(code)
            energy = float(dec.energy_sum(dist, t))
            vt = hc.ball_volume(n, t)
            moment = l2_dense_oracle(code, kn.Kernel.ball(n, t))
            predicted = code.size * vt * vt / (1 << n) * moment - vt
            assert math.isclose(energy, predicted, rel_tol=1e-9, abs_tol=1e-9)


class TestAsymptoticBound:
    def test_exact_tail_no_worse_than_hoeffding(self):
        code = cd.reed_muller(1, 4)
        dist = cd.distance_distribution(code)
        bound = dec.asymptotic_bound(dist, 0.1, 1, 0.55)
        assert bound.exact_total <= bound.total + 1e-15

    def test_clamped_lower_radius_still_finite(self):
        code = cd.random_linear(18, 6, seed=11)
        dist = cd.distance_distribution(code)
        bound = dec.asymptotic_bound(dist, 0.05, 1, 0.6)
        assert bound.tprime_clamped
        assert math.isfinite(bound.total)
        assert math.isfinite(bound.exact_total)

    def test_singleton_energy_zero(self):
        dist = [1] + [0] * 17
        bound = dec.asymptotic_bound(dist, 0.05, 1, 0.55)
        assert bound.energy_term == 0

    def test_theta_range(self):
        dist = [1] + [0] * 17
        with pytest.raises(ValueError):
            dec.asymptotic_bound(dist, 0.05, 1, 0.5)
        with pytest.raises(ValueError):
            dec.asymptotic_bound(dist, 0.05, 1, 1.0)


class TestMonteCarloDecoding:
    def test_no_noise_never_fails(self, hamming7):
        est, sigma = dec.mc_decoding_error(hamming7, 0.0, 1, 2, 2000, seed=0)
        assert est == 0.0 and sigma == 0.0

    def test_full_list_full_radius_never_fails(self, hamming7):
        est, _ = dec.mc_decoding_error(hamming7, 0.3, hamming7.size, 7,
                                       2000, seed=0)
        assert est == 0.0

    def test_bound_dominates_estimate(self, hamming7):
        dist = cd.distance_distribution(hamming7)
        for delta in (0.01, 0.05):
            bound = dec.list_error_bound(dist, Fraction(delta), 1, 2)
            est, sigma = dec.mc_decoding_error(hamming7, delta, 1, 2,
                                               20000, seed=3)
            assert est - 3 * sigma <= bound.total

    def test_reproducible(self, hamming7):
        a = dec.mc_decoding_error(hamming7, 0.05, 1, 2, 5000, seed=5)
        b = dec.mc_decoding_error(hamming7, 0.05, 1, 2, 5000, seed=5)
        assert a == b

    # computed before the three Monte Carlo loops became `hc.sample_mean`:
    # 70000 trials span a full 65536-trial shard and a partial one
    PINNED = {0: (0.1505857142857143, 0.0013517695119402119),
              5: (0.15035714285714286, 0.0013509249341997376)}

    @pytest.mark.parametrize("seed", sorted(PINNED))
    @pytest.mark.parametrize("path", ["table", "scan"])
    def test_pinned_estimates(self, seed, path, monkeypatch):
        code = cd.hamming(3)
        if path == "scan":   # room for the codewords, not the coset table
            monkeypatch.setattr(hc, "MEMORY_CAP", 300)
        est, sigma = dec.mc_decoding_error(code, 0.1, 1, 1, 70_000, seed=seed)
        want, want_sigma = self.PINNED[seed]
        assert est == want
        assert math.isclose(sigma, want_sigma, rel_tol=1e-15, abs_tol=0)

    def test_needs_a_trial(self, hamming7):
        with pytest.raises(ValueError, match="trials"):
            dec.mc_decoding_error(hamming7, 0.1, 1, 1, 0)

    def test_table_free_path_matches_table(self):
        code = cd.reed_muller(1, 3)
        table = ball_counts_table(code, 2)
        words = code.codeword_ints()
        for y in range(256):
            direct = int(np.count_nonzero(
                np.bitwise_count(words ^ y) <= 2))
            assert table[y] == direct


class TestExactDecodingError:
    @pytest.mark.parametrize("name", ["hamming(3)", "rm(1,4)"])
    def test_equals_brute_force(self, name):
        code = cd.hamming(3) if name == "hamming(3)" else cd.reed_muller(1, 4)
        for t in range(code.n + 1):
            for list_size in (1, 2, 3):
                for delta in (Fraction(1, 100), Fraction(1, 20), 0.05):
                    assert dec.decoding_error_exact(code, delta, list_size, t) == \
                        decoding_error_dense(code, delta, list_size, t), (t, list_size, delta)

    def test_perfect_code_fails_only_outside_the_radius(self):
        # radius-3 balls around the Golay codewords tile the cube
        error = dec.decoding_error_exact(cd.golay23(), Fraction(1, 20), 1, 3)
        assert error == dec.binomial_tail(23, Fraction(1, 20), 4, 23)

    @pytest.mark.parametrize("name, t", [("hamming(3)", 2), ("rm(1,4)", 4), ("golay23", 3)])
    def test_monte_carlo_agrees(self, name, t):
        code = {"hamming(3)": cd.hamming(3), "rm(1,4)": cd.reed_muller(1, 4),
                "golay23": cd.golay23()}[name]
        trials = 100_000
        for delta in (0.01, 0.05):
            exact = float(dec.decoding_error_exact(code, delta, 1, t))
            sigma = math.sqrt(exact * (1 - exact) / trials)
            for seed in (0, 1, 2):
                est, _ = dec.mc_decoding_error(code, delta, 1, t, trials, seed=seed)
                assert abs(est - exact) <= 4 * sigma, (delta, seed, est, exact)

    def test_explicit_code_refused(self):
        code = cd.ExplicitCode(7, cd.hamming(3).codeword_ints())
        with pytest.raises(ValueError):
            dec.decoding_error_exact(code, Fraction(1, 20), 1, 2)


class TestBallCountsTable:
    def test_counts_on_perfect_code(self, hamming7):
        table = ball_counts_table(hamming7, 1)
        assert (table == 1).all()  # radius-1 balls tile the space

    def test_counts_total(self):
        code = cd.reed_muller(1, 3)
        table = ball_counts_table(code, 3)
        assert table.sum() == code.size * hc.ball_volume(8, 3)
