"""Acceptance gate: one test per exit criterion, at the stated tolerances.

Each test prints a PASS line once its criterion holds, so a verbose run
doubles as the acceptance report.
"""

import math
import time
from fractions import Fraction

import numpy as np

from codesmooth import codes as cd
from codesmooth import decoding as dec
from codesmooth import erasure as er
from codesmooth import hypercube as hc
from codesmooth import kernels as kn
from codesmooth import random_coding as rc
from codesmooth import smoothing as sm
from codesmooth import wiretap as wt
from codesmooth.cli import main as cli_main

from conftest import random_fraction_array, random_linear_code, seeded_rng
from oracles import convolve_direct, mu_spectral

INF = math.inf


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


class TestCriterion1PerfectSmoothing:
    def test_hamming_ball1_exact_uniform(self, hamming7):
        t0 = time.time()
        noisy = sm.smooth(hamming7, kn.Kernel.ball(7, 1), exact=True)
        assert all(v == Fraction(1, 128) for v in noisy)  # zero slack
        assert sm.is_perfectly_smoothed(hamming7, kn.Kernel.ball(7, 1))
        elapsed = time.time() - t0
        assert elapsed < 10.0
        report(1, f"hamming(3)+ball(1) exactly uniform in {elapsed:.2f}s")

    def test_golay_ball3_exact_uniform(self, golay):
        t0 = time.time()
        assert sm.is_perfectly_smoothed(golay, kn.Kernel.ball(23, 3))
        elapsed = time.time() - t0
        assert elapsed < 10.0
        report(1, f"golay23+ball(3) exactly uniform in {elapsed:.2f}s")


class TestCriterion2WiretapNumbers:
    def test_cli_reproduces_reference_rates(self, capsys):
        code = cli_main(["wiretap", "rates", "--db", "0.05", "--de", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        rows = {}
        for line in out.splitlines():
            if line.startswith("#") or line.startswith("regime"):
                continue
            parts = line.split(",")
            rows[parts[0]] = float(parts[5])
        for regime, ref in [("shannon_capacity", 0.5949),
                            ("bec_dual", 0.3181), ("rm", 0.5536)]:
            assert abs(rows[regime] - ref) <= 5e-4, (regime, rows[regime])
        report(2, "wiretap rates 0.5949 / 0.3181 / 0.5536 within 5e-4")


class TestCriterion3OracleEquivalence:
    def test_all_four_oracles_under_two_minutes(self):
        t0 = time.time()
        rng = seeded_rng(90)

        # transform-domain convolution == direct-sum convolution, exact
        for _ in range(100):
            n = int(rng.integers(2, 9))
            f = random_fraction_array(rng, 1 << n)
            g = random_fraction_array(rng, 1 << n)
            fast = hc.convolve(f, g)
            slow = convolve_direct(f, g)
            assert all(fast[i] == slow[i] for i in range(1 << n))

        # closed-form second moment == dense second moment
        for _ in range(50):
            code = random_linear_code(rng, 12)
            n = code.n
            if rng.integers(0, 2):
                kernel = kn.Kernel.bernoulli(
                    n, Fraction(int(rng.integers(1, 50)), 100))
            else:
                kernel = kn.Kernel.ball(n, int(rng.integers(0, n + 1)))
            closed = sm.l2_closed_form(
                cd.distance_distribution(code), code.size, kernel)
            dense = sm.l2_dense_oracle(code, kernel)
            assert abs(closed - dense) <= 1e-10 * max(abs(dense), 1.0)

        # weight-transform dual spectrum == enumerated dual code spectrum
        for _ in range(50):
            code = random_linear_code(rng, 16)
            dist = cd.distance_distribution(code)
            assert cd.dual_distance_distribution(dist, code.size) \
                == cd.distance_distribution(code.dual())

        # spectral intersection volumes == counted intersection volumes
        for n in range(2, 11):
            for t in range(n + 1):
                for i in range(n + 1):
                    assert mu_spectral(n, t, i) == hc.mu(n, t, i)

        elapsed = time.time() - t0
        assert elapsed < 120.0
        report(3, f"four oracle equivalences in {elapsed:.1f}s")


class TestCriterion4InequalitySuites:
    def test_rate_floor_100_triples(self):
        rng = seeded_rng(91)
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
        report(4, "rate floor held on 100 random (code, kernel, order) triples")

    def test_smoothing_erasure_25_codes(self):
        rng = seeded_rng(92)
        for _ in range(25):
            code = random_linear_code(rng, 14)
            for delta in (0.05, 0.1, 0.2):
                for alpha in (1, 2, 3, INF):
                    rep = er.smoothing_erasure_report(code, delta, alpha)
                    assert rep.passed, rep.line()
        report(4, "smoothing<=erasure on 25 codes x 3 noise levels x 4 orders")

    def test_samorodnitsky_50_functions(self):
        rng = seeded_rng(93)
        for _ in range(50):
            f = rng.random(256) * 2
            assert er.noisy_entropy_report(f, 0.1).passed
            assert er.noisy_entropy_report(f, 0.3).passed
            for alpha in (2, 3):
                assert er.noisy_norm_report(f, 0.1, alpha).passed
                assert er.noisy_norm_report(f, 0.3, alpha).passed
        report(4, "both subcube-average inequalities on 50 random functions")

    def test_secrecy_bound_10_schemes(self):
        rng = seeded_rng(94)
        schemes = [wt.NestedScheme(cd.reed_muller(1, 4), cd.reed_muller(2, 4))]
        while len(schemes) < 10:
            n = int(rng.integers(6, 13))
            k_in = int(rng.integers(1, n - 1))
            k_out = int(rng.integers(k_in + 1, n + 1))
            inner = cd.random_linear(n, k_in, int(rng.integers(0, 2**31)))
            rows = [inner.generator[j] for j in range(k_in)]
            while len(rows) < k_out:
                cand = rng.integers(0, 2, size=n).astype(np.uint8)
                if cd.gf2_rank(np.array(rows + [cand], np.uint8)) > len(rows):
                    rows.append(cand)
            schemes.append(wt.NestedScheme(
                inner, cd.LinearCode(np.array(rows, dtype=np.uint8))))
        for i, scheme in enumerate(schemes):
            de = (0.1, 0.2, 0.3)[i % 3]
            assert wt.leakage_exact(scheme, de) \
                <= wt.secrecy_bound(scheme, de, 1) + 1e-9
        report(4, "secrecy bound >= exact leakage on 10 nested schemes")

    def test_decoding_bound_100k_trials(self):
        for code, t in [(cd.hamming(3), 2), (cd.reed_muller(1, 4), 4)]:
            dist = cd.distance_distribution(code)
            for delta in (0.01, 0.05):
                bound = dec.list_error_bound(dist, Fraction(delta), 1, t)
                est, sigma = dec.mc_decoding_error(
                    code, delta, 1, t, 100_000, seed=17)
                assert est - 3 * sigma <= bound.total
        report(4, "decoding bound >= MC - 3 sigma at 1e5 trials")


class TestCriterion5Identities:
    def test_norm_expectation_alpha_independence(self):
        rng = seeded_rng(95)
        for _ in range(5):
            code = random_linear_code(rng, 10)
            lam = float(rng.uniform(0.1, 0.9))
            bec, _ = er.bec_conditional_entropy(er.ErasureContext(code, lam))
            vals = [er.conditional_norm_expectation(code, lam, a)
                    for a in (2, 3, 4)]
            for v in vals:
                assert abs(v - bec) <= 1e-9
        report(5, "norm-expectation identity independent of order, = BEC entropy")

    def test_leakage_decomposition(self):
        rng = seeded_rng(96)
        for seed in range(3):
            n = int(rng.integers(8, 15))
            k_in = int(rng.integers(1, n - 2))
            k_out = int(rng.integers(k_in + 1, n))
            inner = cd.random_linear(n, k_in, seed=seed + 40)
            rows = [inner.generator[j] for j in range(k_in)]
            while len(rows) < k_out:
                cand = rng.integers(0, 2, size=n).astype(np.uint8)
                if cd.gf2_rank(np.array(rows + [cand], np.uint8)) > len(rows):
                    rows.append(cand)
            scheme = wt.NestedScheme(
                inner, cd.LinearCode(np.array(rows, dtype=np.uint8)))
            cond, leak, marg = wt.decomposition_terms(scheme, 0.15)
            assert abs(cond - (leak + marg)) <= 1e-9
        report(5, "conditional divergence = leakage + marginal divergence")

    def test_matroid_identity(self):
        rng = seeded_rng(97)
        for _ in range(5):
            code = random_linear_code(rng, 14)
            dual = code.dual()
            for _ in range(100):
                g = int(rng.integers(0, 1 << code.n))
                coords = [c for c in range(code.n) if (g >> c) & 1]
                comp = [c for c in range(code.n) if not (g >> c) & 1]
                assert er.collision_count(code, coords) == Fraction(
                    code.size, 1 << len(coords)) \
                    * er.collision_count(dual, comp)
        report(5, "matroid duality exact on every tested pattern")

    def test_parity3_entropy_grid(self):
        code = cd.parity(3)
        for lam in np.linspace(0, 1, 21):
            val, _ = er.bec_conditional_entropy(
                er.ErasureContext(code, float(lam)))
            assert abs(val - lam ** 3) <= 1e-9
        report(5, "parity(3) dual erasure entropy = lambda^3 on 21-point grid")


class TestCriterion6AsymptoticShadows:
    def test_a_ensemble_moment_trend(self):
        delta = 0.1
        rate = 1 - kn.binary_renyi(2, delta) + 0.1
        kernel_delta = Fraction(1, 10)
        estimates = {}
        for n in (12, 16, 20):
            kernel = kn.Kernel.bernoulli(n, kernel_delta)
            spec = rc.EnsembleSpec(n, rate, kernel, 1000, seed=23)
            est, sigma = rc.qn_estimate(spec, 2)
            bound = rc.qn_recursive_bound(n, rate, kernel, 1, 1)
            assert est <= bound + 3 * sigma, (n, est, bound)
            estimates[n] = est
        assert estimates[12] - 1 > estimates[16] - 1 > estimates[20] - 1
        report(6, "Q_n(2)-1 strictly decreases over n=12,16,20; bound held")

    def test_b_strong_converse_ball_code(self):
        measured, reference = sm.strong_converse_gap(24, 0.25, 0.25)
        assert abs(measured - reference) <= 0.05
        report(6, f"noisy ball-code divergence rate {measured:.4f} "
                  f"within 0.05 of {reference:.4f}")

    def test_c_capacity_curve_ordering_and_endpoints(self):
        grid = [0.5 * i / 100 for i in range(101)]
        for d in grid:
            shannon = sm.capacity("bernoulli", 1, d)
            s2 = sm.capacity("bernoulli", 2, d)
            sinf = sm.capacity("bernoulli", INF, d)
            assert sinf >= s2 - 1e-12 >= shannon - 2e-12
        for alpha in (1, 2, INF):
            assert sm.capacity("bernoulli", alpha, 0.0) == 1.0
            assert sm.capacity("bernoulli", alpha, 0.5) == 0.0
        report(6, "threshold curves ordered pointwise; endpoints exact")


class TestCriterion7Determinism:
    def test_mc_commands_bit_reproducible(self, capsys, tmp_path):
        code_path = tmp_path / "h.code"
        cli_main(["code", "gen", "--family", "hamming", "--params", "3",
                  "--out", str(code_path)])
        capsys.readouterr()
        commands = [
            ["mc", "qn", "--n", "10", "--rate", "0.6", "--kernel",
             "bernoulli:0.1", "--alpha", "2", "--trials", "300",
             "--seed", "11"],
            ["erasure-bound", "--code", str(code_path), "--delta", "0.1",
             "--alpha", "1", "--mode", "mc:2000", "--seed", "11"],
            ["decode-bound", "--code", str(code_path), "--delta", "0.02",
             "--list", "1", "--t", "2", "--mc", "20000", "--seed", "11"],
        ]
        for argv in commands:
            cli_main(argv)
            first = capsys.readouterr().out
            cli_main(argv)
            second = capsys.readouterr().out
            assert first == second, argv
        report(7, "all Monte Carlo commands byte-identical under fixed seed")

    def test_verify_quick_passes_under_five_minutes(self, capsys):
        t0 = time.time()
        exit_code = cli_main(["verify", "--quick"])
        elapsed = time.time() - t0
        out = capsys.readouterr().out
        assert exit_code == 0, out[-2000:]
        assert elapsed < 300.0
        report(7, f"verify --quick exits 0 in {elapsed:.0f}s")
