import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from codesmooth import codes as cd
from codesmooth import erasure as er
from codesmooth import hypercube as hc
from codesmooth import kernels as kn
from codesmooth import reports
from codesmooth import smoothing as sm

from conftest import random_linear_code, seeded_rng
from oracles import (bec_entropy_exact, bec_entropy_mc_loop, collision_count_direct,
                     conditional_average, conditional_norm_expectation, lift_exact,
                     rank_profile_dfs, rank_profile_per_axis, renyi_entropy, smooth_dense,
                     subset_expectation_loop)

INF = math.inf


class TestCollisionCount:
    def test_empty_set_gives_code_size(self, hamming7):
        assert er.collision_count(hamming7, []) == hamming7.size

    def test_full_set_gives_one(self, hamming7):
        assert er.collision_count(hamming7, range(7)) == 1

    def test_rank_formula_matches_enumeration(self):
        rng = seeded_rng(50)
        for _ in range(20):
            code = random_linear_code(rng, 12)
            g = int(rng.integers(0, 1 << code.n))
            coords = [c for c in range(code.n) if (g >> c) & 1]
            assert (er.collision_count(code, coords)
                    == collision_count_direct(code, coords))

    def test_matroid_identity_all_subsets_small(self):
        rng = seeded_rng(51)
        for _ in range(5):
            code = random_linear_code(rng, 8)
            dual = code.dual()
            n = code.n
            for g in range(1 << n):
                coords = [c for c in range(n) if (g >> c) & 1]
                comp = [c for c in range(n) if not (g >> c) & 1]
                lhs = er.collision_count(code, coords)
                rhs = Fraction(code.size, 1 << len(coords)) * \
                    er.collision_count(dual, comp)
                assert lhs == rhs

    def test_matroid_identity_n14(self):
        rng = seeded_rng(52)
        code = cd.random_linear(14, 6, seed=9)
        dual = code.dual()
        for _ in range(200):
            g = int(rng.integers(0, 1 << 14))
            coords = [c for c in range(14) if (g >> c) & 1]
            comp = [c for c in range(14) if not (g >> c) & 1]
            assert er.collision_count(code, coords) == Fraction(
                code.size, 1 << len(coords)) * er.collision_count(dual, comp)


PROFILE_CODES = ([cd.random_linear(n, k, seed=n + k) for n, k in
                  [(1, 1), (4, 1), (6, 6), (8, 7), (10, 3), (11, 5)]]
                 + [cd.full_space(1).dual(), cd.full_space(5).dual(), cd.hamming(3), cd.parity(6)])


@pytest.mark.parametrize("code", PROFILE_CODES, ids=repr)
def test_rank_profile_matches_subset_ranks(code):
    n = code.n
    ranks = Counter()
    for g in range(1 << n):
        cols = [c for c in range(n) if (g >> c) & 1]
        ranks[len(cols), cd.gf2_rank(code.generator[:, cols].T)] += 1
    assert er.rank_profile(code) == rank_profile_dfs(code) == dict(ranks)


def test_rank_profile_matches_dfs_beyond_one_block():
    # n = 17 spans two 2^16-index blocks; (n + 1)(k + 1) > 256 keys
    code = cd.random_linear(17, 14, seed=12)
    assert er.rank_profile(code) == rank_profile_dfs(code)


@pytest.mark.parametrize("n", [1, 12, 17, 20, 22])
def test_rank_profile_equals_the_per_axis_subset_sums(n):
    # the float32 Kronecker power against the int32 per-axis loop, at k = 1,
    # n // 2 and n; the subset-tree walk joins them up to n = 17
    for k in sorted({1, max(1, n // 2), n}):
        code = cd.random_linear(n, k, seed=n * 31 + k)
        got = er.rank_profile(code)
        assert got == rank_profile_per_axis(code), (n, k)
        if n <= 17:
            assert got == rank_profile_dfs(code), (n, k)


@pytest.mark.parametrize("n", [20, 21, 22])
def test_rank_profile_peak_within_its_charge(n, monkeypatch):
    code = cd.random_linear(n, n // 2, seed=n)
    code.codeword_ints()   # cached on the code and charged on its own
    charges = []
    monkeypatch.setattr(hc, "admit", lambda what, nbytes=0, steps=0: charges.append(nbytes))
    tracemalloc.start()
    try:
        er.rank_profile(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charges and peak <= charges[0], (peak, charges)


@pytest.mark.parametrize("bits", [1, 8, 9, 16, 17, 32, 33, 62])
def test_gf2_ranks_on_narrow_words(bits):
    # each width takes the narrowest unsigned dtype that holds it; rows of
    # zeros, repeats and random words
    rng = seeded_rng(53 + bits)
    words = rng.integers(0, 1 << bits, size=(300, 12), dtype=np.uint64)
    words[::7, ::2] = 0
    words[::5, 1] = words[::5, 0]
    want = [cd.gf2_rank(np.array([[int(w) >> b & 1 for b in range(bits)] for w in row],
                                 dtype=np.uint8)) for row in words]
    got = er._gf2_ranks(words.astype(np.int64), bits)
    assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("n, k, seed", [(9, 4, 1), (12, 5, 6), (20, 10, 3)])
def test_mc_is_bit_identical_to_the_per_trial_loop(n, k, seed):
    # 4097 trials: one full shard and a one-trial tail
    code = cd.random_linear(n, k, seed=seed)
    ctx = er.ErasureContext(code, 0.3, mode="mc", trials=4097, seed=seed + 1)
    assert er.bec_conditional_entropy(ctx) == bec_entropy_mc_loop(code, 0.3, 4097, seed + 1)


# computed before the three Monte Carlo loops became `hc.sample_mean`:
# 9000 trials span two full 4096-trial shards and a partial one
PINNED_MC = {0: (0.3841111111111111, 0.006879139955655245),
             5: (0.8072222222222222, 0.009196436880833523)}


@pytest.mark.parametrize("seed", sorted(PINNED_MC))
def test_mc_pinned_estimates(seed):
    ctx = er.ErasureContext(cd.random_linear(12, 5, seed), 0.3, mode="mc", trials=9000, seed=seed)
    est, sigma = er.bec_conditional_entropy(ctx)
    want, want_sigma = PINNED_MC[seed]
    assert est == want
    assert math.isclose(sigma, want_sigma, rel_tol=1e-15, abs_tol=0)


def test_mc_needs_a_trial():
    ctx = er.ErasureContext(cd.hamming(3), 0.3, mode="mc", trials=0)
    with pytest.raises(ValueError, match="trials"):
        er.bec_conditional_entropy(ctx)


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("order", [1, 2, 3, INF])
def test_subset_expectation_matches_the_per_subset_loop(n, order):
    f = seeded_rng(59 + n).random(1 << n) * 2
    f[1] = 0.0
    for lam in (0.0, 0.37, 1.0):
        assert abs(er.subset_expectation(f, lam, order)
                   - subset_expectation_loop(f, lam, order)) <= 1e-14
    exact = hc.as_dense(f, exact=True)
    with mpmath.workdps(reports.RECHECK_DPS):
        fast = er.subset_expectation(exact, Fraction(37, 100), order)
        slow = subset_expectation_loop(exact, Fraction(37, 100), order)
    # the logs are irrational: both sides agree to the working precision
    assert isinstance(fast, mpmath.mpf) and abs(fast - slow) < 1e-45


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_bernoulli_noise_is_the_kernel_convolution(n):
    # floats to round-off; exact values, under the binary value of a float
    # delta, entry for entry
    f = seeded_rng(60 + n).random(1 << n) * 2
    exact = hc.as_dense(f, exact=True)
    for delta in (0.1, 0.3, Fraction(1, 20), Fraction(3, 10)):
        want = hc.convolve(f, kn.Kernel.bernoulli(n, delta).lift())
        got = er.bernoulli_noise(f, delta)
        assert np.allclose(got, want, rtol=1e-14, atol=0), delta
        kernel = lift_exact(kn.Kernel.bernoulli(n, Fraction(delta)))
        assert er.bernoulli_noise(exact, delta).tolist() == \
            hc.convolve(exact, kernel).tolist(), delta


def test_float_noisy_reports_build_no_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a float report built a kernel or convolved")

    f = seeded_rng(61).random(256) * 2
    monkeypatch.setattr(hc, "convolve", refuse)
    monkeypatch.setattr(kn.Kernel, "bernoulli", refuse)
    for rep in (er.noisy_entropy_report(f, 0.1), er.noisy_norm_report(f, 0.3, 2),
                er.noisy_norm_report(f, 0.1, INF)):
        assert rep.passed and not rep.rechecked, rep.line()


def test_rechecked_noisy_reports_build_no_kernel(monkeypatch):
    # an exact recheck runs the float report's own Kronecker pass
    def refuse(*args, **kwargs):
        raise AssertionError("a recheck built or lifted a kernel, or convolved")

    f = seeded_rng(61).random(64) * 2
    monkeypatch.setattr(reports, "NEAR_VIOLATION", math.inf)
    monkeypatch.setattr(hc, "convolve", refuse)
    monkeypatch.setattr(kn.Kernel, "lift", refuse)
    monkeypatch.setattr(kn.Kernel, "bernoulli", refuse)
    for rep in (er.noisy_entropy_report(f, 0.1), er.noisy_norm_report(f, 0.3, 2),
                er.noisy_norm_report(f, 0.1, INF)):
        assert rep.passed and rep.rechecked, rep.line()


def test_subset_expectation_refuses_like_its_statistics():
    with pytest.raises(ValueError, match="nonnegative"):
        er.subset_expectation(np.array([1.0, -0.5, 2.0, 1.0]), 0.5, 1)
    with pytest.raises(ValueError):
        er.subset_expectation(np.zeros(4), 0.5, 2)


class TestBecConditionalEntropy:
    def test_parity3_is_lambda_cubed(self):
        # dual of parity(3) is repetition(3): ambiguity only when all
        # three coordinates are erased
        code = cd.parity(3)
        for lam in (0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0):
            val, err = er.bec_conditional_entropy(er.ErasureContext(code, lam))
            assert err == 0.0
            assert math.isclose(val, lam ** 3, abs_tol=1e-12)

    def test_endpoints(self):
        rng = seeded_rng(53)
        code = random_linear_code(rng, 10)
        v0, _ = er.bec_conditional_entropy(er.ErasureContext(code, 0.0))
        v1, _ = er.bec_conditional_entropy(er.ErasureContext(code, 1.0))
        assert v0 == 0.0
        assert v1 == code.n - code.k  # dual dimension

    def test_exact_matches_monte_carlo(self):
        code = cd.random_linear(10, 5, seed=4)
        exact, _ = er.bec_conditional_entropy(er.ErasureContext(code, 0.4))
        est, err = er.bec_conditional_entropy(
            er.ErasureContext(code, 0.4, mode="mc", trials=4000, seed=1))
        assert abs(est - exact) <= 3 * err

    def test_monotone_in_lambda(self):
        code = cd.random_linear(9, 4, seed=5)
        grid = np.linspace(0, 1, 11)
        vals = [er.bec_conditional_entropy(er.ErasureContext(code, lam))[0]
                for lam in grid]
        assert all(u <= v + 1e-12 for u, v in zip(vals, vals[1:]))

    def test_exact_rational_evaluation(self):
        code = cd.parity(3)
        assert bec_entropy_exact(code, Fraction(1, 4)) == Fraction(1, 64)

    def test_budget_guard(self):
        code = cd.random_linear(24, 4, seed=0)
        with pytest.raises(cd.BudgetExceeded):
            er.ErasureContext(code, 0.5)

    def test_mc_reproducible(self):
        code = cd.random_linear(12, 5, seed=6)
        a = er.bec_conditional_entropy(
            er.ErasureContext(code, 0.3, mode="mc", trials=500, seed=7))
        b = er.bec_conditional_entropy(
            er.ErasureContext(code, 0.3, mode="mc", trials=500, seed=7))
        assert a == b


class TestSmoothingErasureBound:
    def test_full_space_trivial(self):
        rep = er.smoothing_erasure_report(cd.full_space(6), 0.1, 1)
        assert rep.passed
        assert abs(rep.lhs) < 1e-9

    def test_hamming_three_orders(self, hamming7):
        for alpha in (1, 2, INF):
            rep = er.smoothing_erasure_report(hamming7, 0.1, alpha)
            assert rep.passed, rep.line()

    def test_random_codes_all_orders(self):
        rng = seeded_rng(54)
        for _ in range(8):
            code = random_linear_code(rng, 12)
            for delta in (0.05, 0.1, 0.2):
                for alpha in (1, 2, 3, INF):
                    rep = er.smoothing_erasure_report(code, delta, alpha)
                    assert rep.passed, rep.line()

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            er.erasure_noise_level(1.5, 0.1)
        with pytest.raises(ValueError):
            er.erasure_noise_level(2.5, 0.1)

    def test_noise_level_values(self):
        assert math.isclose(er.erasure_noise_level(1, 0.1), 0.64)
        assert math.isclose(er.erasure_noise_level(2, 0.1),
                            1 - kn.binary_renyi(2, 0.1))
        assert math.isclose(er.erasure_noise_level(INF, 0.1),
                            1 + math.log2(0.9))


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestBatches:
    ORDERS = (1, 2, 3, INF)

    def test_erasure_batch_builds_one_float_pmf_and_no_exact_one(self, monkeypatch):
        code = cd.random_linear(10, 5, seed=8)
        calls = _count_calls(monkeypatch, sm, "cell_pmf")
        reps = er.smoothing_erasure_reports(code, Fraction(1, 10), self.ORDERS)
        assert not any(rep.rechecked for rep in reps)
        assert [args[2:] + tuple(kw.values()) for args, kw in calls] == [()]

    def test_rechecking_erasure_batch_builds_one_exact_pmf(self, monkeypatch):
        # the full space is uniform under any noise and its dual erasure
        # entropy is 0, so every order's slack is 0 and rechecks
        calls = _count_calls(monkeypatch, sm, "cell_pmf")
        reps = er.smoothing_erasure_reports(cd.full_space(6), Fraction(1, 10), self.ORDERS)
        assert all(rep.rechecked and rep.passed for rep in reps)
        assert [args[2:] + tuple(kw.values()) for args, kw in calls] == [(), (True,)]

    def test_erasure_batch_sides_match_the_oracles(self):
        delta = Fraction(1, 10)
        for code in (cd.random_linear(10, 5, seed=8), cd.hamming(3), cd.random_linear(12, 4, seed=2)):
            dense = smooth_dense(code, kn.Kernel.bernoulli(code.n, delta))
            reps = er.smoothing_erasure_reports(code, delta, self.ORDERS)
            for alpha, rep in zip(self.ORDERS, reps):
                assert rep.name == f"smoothing<=erasure a={alpha} d={delta} n={code.n}"
                assert math.isclose(rep.lhs, code.n - renyi_entropy(dense, alpha),
                                    rel_tol=1e-9, abs_tol=1e-12)
                lam = er.erasure_noise_level(alpha, delta)
                assert math.isclose(rep.rhs, bec_entropy_exact(code, lam), rel_tol=1e-12)

    @pytest.mark.parametrize("forced", [False, True], ids=["float", "rechecked"])
    def test_erasure_batch_equals_the_single_reports(self, forced, monkeypatch):
        # forced rechecks share one exact pmf, which none of them may alter
        if forced:
            monkeypatch.setattr(reports, "NEAR_VIOLATION", math.inf)
        code = cd.random_linear(9, 4, seed=5)
        batch = er.smoothing_erasure_reports(code, 0.2, self.ORDERS)
        singles = [er.smoothing_erasure_report(code, 0.2, alpha) for alpha in self.ORDERS]
        assert batch == singles

    def test_noisy_batch_grows_one_lattice(self, monkeypatch):
        n = 6
        f = seeded_rng(62).random(1 << n) * 2
        calls = _count_calls(monkeypatch, er, "_append_mean")
        reps = er.noisy_reports(f, (0.1, 0.3), (1, 2, 3))
        assert len(reps) == 6 and not any(rep.rechecked for rep in reps)
        assert len(calls) == n

    def test_rechecking_noisy_batch_builds_one_exact_function(self, monkeypatch):
        monkeypatch.setattr(reports, "NEAR_VIOLATION", math.inf)
        calls = _count_calls(monkeypatch, hc, "as_dense")
        reps = er.noisy_reports(seeded_rng(63).random(1 << 5) * 2, (0.1, 0.3), (1, 2, INF))
        assert all(rep.rechecked and rep.passed for rep in reps)
        assert len([kw for _, kw in calls if kw.get("exact")]) == 1

    def test_noisy_batch_sides_match_the_oracles(self):
        n = 6
        f = seeded_rng(64).random(1 << n) * 2
        orders = (1, 2, 3, INF)
        reps = iter(er.noisy_reports(f, (0.1, 0.3), orders))
        for delta in (0.1, 0.3):
            noisy = hc.convolve(f, kn.Kernel.bernoulli(n, delta).lift())
            for order in orders:
                rep = next(reps)
                name = "noisy-entropy" if order == 1 else f"noisy-norm a={order}"
                assert rep.name == f"{name} d={delta} n={n}"
                assert math.isclose(rep.lhs, er.statistic(noisy, order), rel_tol=1e-12)
                lam = er.erasure_noise_level(order, delta)
                assert abs(rep.rhs - subset_expectation_loop(f, lam, order)) <= 1e-13

    @pytest.mark.parametrize("forced", [False, True], ids=["float", "rechecked"])
    def test_noisy_batch_equals_the_single_reports(self, forced, monkeypatch):
        # forced rechecks share one exact f, which none of them may alter
        if forced:
            monkeypatch.setattr(reports, "NEAR_VIOLATION", math.inf)
        f = seeded_rng(65).random(1 << 5) * 2
        singles = [rep for delta in (0.1, 0.3) for rep in
                   [er.noisy_entropy_report(f, delta)]
                   + [er.noisy_norm_report(f, delta, alpha) for alpha in (2, INF)]]
        assert er.noisy_reports(f, (0.1, 0.3), (1, 2, INF)) == singles

    def test_noisy_batch_refuses_orders_without_an_inequality(self):
        for alpha in (0, 1.5, 2.5):
            with pytest.raises(ValueError, match="integer alpha >= 2"):
                er.noisy_reports(np.ones(4), (0.1,), (1, alpha))
        with pytest.raises(ValueError, match="integer alpha >= 2"):
            er.noisy_norm_report(np.ones(4), 0.1, 1)


class TestConditionalAverage:
    def test_matches_subcube_convolution(self):
        rng = seeded_rng(55)
        for n in (4, 6, 8):
            f = rng.random(1 << n)
            for _ in range(5):
                g = int(rng.integers(0, 1 << n))
                coords = [c for c in range(n) if (g >> c) & 1]
                via_avg = conditional_average(f, coords)
                kernel = kn.Kernel.subcube(n, coords)
                via_conv = hc.convolve(f, kernel.lift())
                assert np.allclose(via_avg, via_conv, atol=1e-12)

    def test_definition_direct(self):
        rng = seeded_rng(56)
        n = 5
        f = rng.random(1 << n)
        coords = [0, 3]
        mask = sum(1 << c for c in coords)
        avg = conditional_average(f, coords)
        for x in range(1 << n):
            fiber = [f[y] for y in range(1 << n) if (y & mask) == (x & mask)]
            assert math.isclose(avg[x], sum(fiber) / len(fiber), rel_tol=1e-12)

    def test_exact_mode(self):
        f = np.empty(4, dtype=object)
        f[:] = [Fraction(1, 3), Fraction(1, 6), Fraction(1, 4), Fraction(1, 4)]
        avg = conditional_average(f, [0])
        assert avg[0] == (Fraction(1, 3) + Fraction(1, 4)) / 2


class TestSubcubeAverageInequalities:
    def test_constant_function_equality(self):
        f = np.full(256, 1.7)
        rep = er.noisy_entropy_report(f, 0.2)
        assert rep.passed and abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-12
        rep = er.noisy_norm_report(f, 0.2, 2)
        assert rep.passed
        assert math.isclose(rep.lhs, math.log2(1.7))
        assert math.isclose(rep.rhs, math.log2(1.7))

    def test_code_indicator_rhs_equals_erasure_entropy(self, hamming7):
        # the norm expectation of the scaled code pmf reproduces the BEC
        # conditional entropy of the dual, independently of alpha
        lam = 0.37
        bec, _ = er.bec_conditional_entropy(er.ErasureContext(hamming7, lam))
        for alpha in (2, 3, 4):
            val = conditional_norm_expectation(hamming7, lam, alpha)
            assert math.isclose(val, bec, abs_tol=1e-9), (alpha, val, bec)

    def test_inequalities_on_code_function(self, hamming7):
        f = hamming7.pmf() * (1 << 7)
        rep = er.noisy_norm_report(f, 0.1, 2)
        assert rep.passed

    def test_random_functions(self):
        rng = seeded_rng(57)
        for _ in range(10):
            f = rng.random(256) * 2
            for delta in (0.1, 0.3):
                assert er.noisy_entropy_report(f, delta).passed
                for alpha in (2, 3):
                    assert er.noisy_norm_report(f, delta, alpha).passed

    def test_sup_norm_variant(self):
        rng = seeded_rng(58)
        f = rng.random(64) + 0.1
        rep = er.noisy_norm_report(f, 0.2, INF)
        assert rep.passed

    def test_entropy_functional_values(self):
        # Ent[f] = mean(f log2(f / mean f)); pmf scaling gives divergence
        f = np.zeros(8)
        f[0] = 8.0  # 2^n * point mass
        assert math.isclose(er.statistic(f, 1), 3.0)
        with pytest.raises(ValueError):
            er.statistic(np.array([-1.0, 1.0]), 1)
