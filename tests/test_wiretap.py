import math
from fractions import Fraction

import numpy as np
import pytest

from codesmooth import codes as cd
from codesmooth import kernels as kn
from codesmooth import smoothing as sm
from codesmooth import wiretap as wt

from conftest import seeded_rng

INF = math.inf


def nested_random(n, k_in, k_out, seed):
    rng = seeded_rng(1000 + seed)
    inner = cd.random_linear(n, k_in, seed=seed)
    rows = [inner.generator[j] for j in range(k_in)]
    while len(rows) < k_out:
        cand = rng.integers(0, 2, size=n).astype(np.uint8)
        if cd.gf2_rank(np.array(rows + [cand], dtype=np.uint8)) > len(rows):
            rows.append(cand)
    return wt.NestedScheme(inner, cd.LinearCode(np.array(rows, dtype=np.uint8)))


class TestNestedScheme:
    def test_requires_containment(self):
        inner = cd.reed_muller(2, 4)
        outer = cd.reed_muller(1, 4)
        with pytest.raises(ValueError):
            wt.NestedScheme(inner, outer)

    def test_message_count(self):
        scheme = wt.NestedScheme(cd.reed_muller(1, 4), cd.reed_muller(2, 4))
        assert scheme.message_bits == 11 - 5
        assert scheme.num_messages == 64

    def test_coset_leaders_distinct_cosets(self):
        scheme = nested_random(9, 3, 6, seed=2)
        leaders = scheme.coset_leaders()
        assert len(leaders) == scheme.num_messages
        # all leaders in the outer code, pairwise in distinct inner cosets
        inner_words = set(int(w) for w in scheme.inner.codeword_ints())
        outer_words = set(int(w) for w in scheme.outer.codeword_ints())
        for i, a in enumerate(leaders):
            assert int(a) in outer_words
            for b in leaders[:i]:
                assert int(a) ^ int(b) not in inner_words


class TestLeakage:
    def test_equal_codes_leak_nothing(self):
        code = cd.reed_muller(1, 3)
        scheme = wt.NestedScheme(code, code)
        assert abs(wt.leakage_exact(scheme, 0.2)) < 1e-10

    def test_max_noise_leaks_nothing(self):
        scheme = nested_random(8, 2, 5, seed=3)
        assert abs(wt.leakage_exact(scheme, 0.5)) < 1e-10

    def test_matches_mixture_oracle(self):
        for seed in (4, 5):
            scheme = nested_random(10, 3, 6, seed=seed)
            fast = wt.leakage_exact(scheme, 0.15)
            slow = wt.leakage_mixture_oracle(scheme, 0.15)
            assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-12)

    def test_leader_choice_irrelevant(self):
        # translating a conditional by any inner codeword fixes it, so
        # leakage through arbitrary coset representatives must agree
        scheme = nested_random(8, 2, 4, seed=6)
        base = wt.leakage_exact(scheme, 0.2)
        kernel = kn.Kernel.bernoulli(8, Fraction(1, 5))
        noisy_inner = sm.smooth(scheme.inner, kernel)
        idx = np.arange(256)
        inner_words = scheme.inner.codeword_ints()
        rng = seeded_rng(70)
        reps = [int(c) ^ int(inner_words[rng.integers(0, len(inner_words))])
                for c in scheme.coset_leaders()]
        conditionals = np.stack([noisy_inner[idx ^ r] for r in reps])
        marginal = conditionals.mean(axis=0)
        total = 0.0
        for row in conditionals:
            mask = row > 0
            total += float(np.sum(row[mask] * np.log2(row[mask] / marginal[mask])))
        assert math.isclose(total / len(reps), base, rel_tol=1e-9, abs_tol=1e-12)


class TestSecrecyBound:
    def test_full_space_inner_gives_zero(self):
        scheme = wt.NestedScheme(cd.full_space(6), cd.full_space(6))
        assert abs(wt.secrecy_bound(scheme, 0.2, 1)) < 1e-10

    def test_bound_dominates_leakage_rm(self):
        scheme = wt.NestedScheme(cd.reed_muller(1, 4), cd.reed_muller(2, 4))
        leak = wt.leakage_exact(scheme, 0.3)
        bound = wt.secrecy_bound(scheme, 0.3, 1)
        assert leak <= bound + 1e-12

    def test_bound_dominates_leakage_random(self):
        for seed in range(7, 12):
            scheme = nested_random(10, 3, 7, seed=seed)
            for de in (0.1, 0.25):
                leak = wt.leakage_exact(scheme, de)
                bound = wt.secrecy_bound(scheme, de, 1)
                assert leak <= bound + 1e-12

    def test_bound_nondecreasing_in_alpha(self):
        scheme = nested_random(9, 3, 5, seed=12)
        vals = [wt.secrecy_bound(scheme, 0.2, a) for a in (1, 2, 3, INF)]
        assert all(u <= v + 1e-12 for u, v in zip(vals, vals[1:]))

    def test_decomposition_identity(self):
        # conditional divergence = leakage + marginal divergence
        for seed in (13, 14):
            scheme = nested_random(12, 4, 8, seed=seed)
            cond, leak, marg = wt.decomposition_terms(scheme, 0.2)
            assert math.isclose(cond, leak + marg, rel_tol=1e-9, abs_tol=1e-11)
        scheme = nested_random(14, 5, 9, seed=15)
        cond, leak, marg = wt.decomposition_terms(scheme, 0.1)
        assert math.isclose(cond, leak + marg, rel_tol=1e-9, abs_tol=1e-11)

    def test_shift_invariance_across_messages(self):
        scheme = nested_random(10, 3, 6, seed=16)
        conditionals = wt.conditional_distributions(scheme, 0.2)
        for alpha in (1, 2, INF):
            vals = [sm.divergence_to_uniform(row, alpha).d_alpha
                    for row in conditionals]
            assert max(vals) - min(vals) < 1e-12


class TestRatePoints:
    def test_reference_values(self):
        cs = wt.rate_point(0.05, 0.3, "shannon_capacity")
        rp = wt.rate_point(0.05, 0.3, "bec_dual")
        rr = wt.rate_point(0.05, 0.3, "rm")
        assert abs(cs.rate - 0.5949) <= 5e-4
        assert abs(rp.rate - 0.3181) <= 5e-4
        assert abs(rr.rate - 0.5536) <= 5e-4

    def test_eavesdropper_threshold_value(self):
        pt = wt.rate_point(0.05, 0.3, "rm")
        assert math.isclose(pt.re, 0.16)  # (1 - 0.6)^2

    def test_rm_dominates_bec_dual(self):
        for de in np.linspace(0.1, 0.5, 21):
            rm = wt.rate_point(0.05, de, "rm")
            bd = wt.rate_point(0.05, de, "bec_dual")
            assert rm.rate >= bd.rate - 1e-12

    def test_alpha_secrecy_gap(self):
        # the rate given up relative to capacity is h(de) - h_alpha(de)
        db, de = 0.05, 0.3
        for alpha in (2, 3, INF):
            cap = wt.rate_point(db, de, "shannon_capacity")
            sec = wt.rate_point(db, de, "alpha_secrecy", alpha=alpha)
            gap = kn.binary_entropy(de) - kn.binary_renyi(alpha, de)
            assert math.isclose(cap.rate - sec.rate, gap, rel_tol=1e-10)
            assert sec.rate <= cap.rate + 1e-12

    def test_clamping(self):
        pt = wt.rate_point(0.05, 0.1, "bec_dual")
        assert pt.clamped and pt.rate == 0.0

    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            wt.rate_point(0.3, 0.1, "rm")
        with pytest.raises(ValueError):
            wt.rate_point(0.05, 0.3, "alpha_secrecy")

    def test_curve_sweep(self):
        pts = wt.rate_curve(0.05, 20, "shannon_capacity")
        assert len(pts) == 20
        assert pts[-1].delta_e == 0.5
        assert pts[-1].rate == pytest.approx(1 - kn.binary_entropy(0.05))

    def test_reliable_rate_threshold_forms_agree(self):
        # R < 1 - log2(1 + 2 sqrt(d(1-d)))  <=>  2 sqrt(d(1-d)) < 2^(1-R) - 1
        rng = seeded_rng(71)
        for _ in range(200):
            d = float(rng.uniform(0.01, 0.49))
            r = float(rng.uniform(0.0, 1.0))
            lhs = r < 1 - math.log2(1 + 2 * math.sqrt(d * (1 - d)))
            rhs = 2 * math.sqrt(d * (1 - d)) < 2 ** (1 - r) - 1
            assert lhs == rhs
