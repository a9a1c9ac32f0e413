"""Batch verification of every inequality the package asserts.

Runs named checks that each yield BoundReports, prints one line per
report, and summarizes.  The quick profile trims repetition counts and
sizes to keep the whole sweep well under five minutes; the full profile
matches the sizes used by the acceptance tests.  The decoding and ensemble
groups hold their bounds to exact values (`dec.decoding_error_exact`,
`rc.qn_exact`), not to Monte Carlo estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes as cd
from . import decoding as dec
from . import erasure as er
from . import kernels as kn
from . import random_coding as rc
from . import smoothing as sm
from . import wiretap as wt
from .reports import BoundReport, check_bound

INF = math.inf


@dataclass
class SuiteConfig:
    quick: bool = True
    seed: int = 0

    @property
    def floor_triples(self) -> int:
        return 20 if self.quick else 100

    @property
    def erasure_codes(self) -> int:
        return 6 if self.quick else 25

    @property
    def samorodnitsky_functions(self) -> int:
        return 10 if self.quick else 50

    @property
    def secrecy_schemes(self) -> int:
        return 4 if self.quick else 10


def _rng(cfg: SuiteConfig, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[cfg.seed, (9 << 32) | tag]))


def _random_code(rng, n_max: int, n_min: int = 4) -> cd.Code:
    n = int(rng.integers(n_min, n_max + 1))
    k = int(rng.integers(1, n))
    return cd.random_linear(n, k, int(rng.integers(0, 2**31)))


def _random_kernel(rng, n: int) -> kn.Kernel:
    form = int(rng.integers(0, 3))
    if form == 0:
        return kn.Kernel.bernoulli(n, Fraction(int(rng.integers(1, 50)), 100))
    if form == 1:
        return kn.Kernel.ball(n, int(rng.integers(0, n + 1)))
    return kn.Kernel.sphere(n, int(rng.integers(0, n + 1)))


# ---------------------------------------------------------------------------
# Individual check groups
# ---------------------------------------------------------------------------

def check_rate_floor(cfg: SuiteConfig) -> list[BoundReport]:
    """Measured divergence never falls under n(1-R) - H_alpha(r)."""
    rng = _rng(cfg, 1)
    alphas = [0, 0.5, 1, 2, 3, INF]
    out = []
    for i in range(cfg.floor_triples):
        code = _random_code(rng, 10)
        kernel = _random_kernel(rng, code.n)
        alpha = alphas[int(rng.integers(0, len(alphas)))]
        rep = sm.lower_bound_report(code, kernel, alpha)
        rep.name = f"rate-floor[{i}] " + rep.name
        out.append(rep)
    return out


def check_smoothing_erasure(cfg: SuiteConfig) -> list[BoundReport]:
    """Bernoulli smoothing bounded by the dual erasure entropy."""
    rng = _rng(cfg, 2)
    out = []
    for i in range(cfg.erasure_codes):
        code = _random_code(rng, 14 if not cfg.quick else 10)
        for delta in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
            out.extend(er.smoothing_erasure_reports(code, delta, (1, 2, 3, INF)))
    return out


def check_samorodnitsky(cfg: SuiteConfig) -> list[BoundReport]:
    """Both subcube-average inequalities on random nonnegative functions."""
    rng = _rng(cfg, 3)
    n = 8
    out = []
    for i in range(cfg.samorodnitsky_functions):
        out.extend(er.noisy_reports(rng.random(1 << n) * 2, (0.1, 0.3), (1, 2, 3)))
    return out


def check_secrecy(cfg: SuiteConfig) -> list[BoundReport]:
    """Smoothing bound dominates exact leakage on nested schemes."""
    rng = _rng(cfg, 4)
    schemes = [wt.NestedScheme(cd.reed_muller(1, 4), cd.reed_muller(2, 4))]
    while len(schemes) < cfg.secrecy_schemes:
        n = int(rng.integers(6, 11))
        k_in = int(rng.integers(1, n - 1))
        k_out = int(rng.integers(k_in + 1, n + 1))
        inner = cd.random_linear(n, k_in, int(rng.integers(0, 2**31)))
        rows = [inner.generator[j] for j in range(k_in)]
        while cd.gf2_rank(np.array(rows, dtype=np.uint8)) < k_out:
            cand = rng.integers(0, 2, size=n).astype(np.uint8)
            if cd.gf2_rank(np.array(rows + [cand], dtype=np.uint8)) > len(rows):
                rows.append(cand)
        outer = cd.LinearCode(np.array(rows, dtype=np.uint8))
        schemes.append(wt.NestedScheme(inner, outer))
    out = []
    for i, scheme in enumerate(schemes):
        de = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))[i % 3]
        rep = wt.secrecy_report(scheme, de)
        rep.name = f"[{i}] " + rep.name
        out.append(rep)
    return out


def check_decoding(cfg: SuiteConfig) -> list[BoundReport]:
    """List-decoding error bound dominates the exact decoding error, at
    noise levels where the bound is below 1."""
    out = []
    t = 3
    cases = [
        (cd.reed_muller(1, 4), "rm(1,4)", (Fraction(1, 10), Fraction(3, 20))),
        (cd.golay23(), "golay23", (Fraction(1, 20), Fraction(1, 10))),
    ]
    for code, name, deltas in cases:
        dist = cd.distance_distribution(code)
        for delta in deltas:
            bound = dec.list_error_bound(dist, delta, 1, t)
            error = dec.decoding_error_exact(code, delta, 1, t)
            out.append(check_bound(
                f"decode-bound {name} d={delta} t={t}", error, bound.total,
                details={"energy": bound.energy_term, "tail": bound.tail_term}))
    return out


def check_perfect_smoothing(cfg: SuiteConfig) -> list[BoundReport]:
    """Exact uniformity certificates for perfect codes under ball noise."""
    out = []
    cases = [(cd.hamming(3), kn.Kernel.ball(7, 1), "hamming(3)+ball(1)"),
             (cd.golay23(), kn.Kernel.ball(23, 3), "golay23+ball(3)")]
    for code, kernel, name in cases:
        ok = sm.is_perfectly_smoothed(code, kernel)
        out.append(BoundReport(f"perfect-smoothing {name}", 0.0, 0.0, ok))
    return out


def check_wiretap_numbers(cfg: SuiteConfig) -> list[BoundReport]:
    """Reference rate values at (db, de) = (0.05, 0.3)."""
    refs = {"shannon_capacity": 0.5949, "bec_dual": 0.3181, "rm": 0.5536}
    out = []
    for regime, ref in refs.items():
        pt = wt.rate_point(0.05, 0.3, regime)
        err = abs(pt.rate - ref)
        out.append(check_bound(f"wiretap-rate {regime} ~ {ref}", err, 5e-4,
                               details={"rate": pt.rate}))
    return out


def check_identities(cfg: SuiteConfig) -> list[BoundReport]:
    """Exact identities: transform involution, matroid duality, leakage as
    a mean divergence over messages, dual erasure entropy of the parity
    code."""
    rng = _rng(cfg, 5)
    out = []

    code = _random_code(rng, 12)
    dist = cd.distance_distribution(code)
    dual = cd.dual_distance_distribution(dist, code.size)
    back = cd.dual_distance_distribution(dual, (1 << code.n) // code.size)
    ok = all(Fraction(a) == Fraction(b) for a, b in zip(dist, back))
    out.append(BoundReport(f"macwilliams-involution n={code.n}", 0.0, 0.0, ok))

    code = _random_code(rng, 12)
    gammas = [int(rng.integers(0, 1 << code.n)) for _ in range(20)]
    ok = True
    for g in gammas:
        coords = [c for c in range(code.n) if (g >> c) & 1]
        comp = [c for c in range(code.n) if not (g >> c) & 1]
        lhs = er.collision_count(code, coords)
        rhs = Fraction(code.size, 1 << len(coords)) * er.collision_count(code.dual(), comp)
        ok = ok and (lhs == rhs)
    out.append(BoundReport(f"matroid-identity n={code.n}", 0.0, 0.0, ok))

    # I(M;Z) = mean_m D(P_{Z|m} || P_Z) on the inner cells: message m
    # shifts the noisy inner pmf by its coset leader's syndrome
    scheme = wt.NestedScheme(cd.reed_muller(1, 4), cd.reed_muller(2, 4))
    de = Fraction(1, 5)
    p = sm.cell_pmf(scheme.inner, kn.Kernel.bernoulli(scheme.n, de))
    shifts = scheme.inner.cell_of(scheme.coset_leaders())
    given = p[np.arange(len(p)) ^ shifts[:, None]]
    marg = given.mean(0)
    mutual = (given * np.log2(given / marg)).sum(1).mean()
    out.append(check_bound("leakage-mixture rm(1,4) in rm(2,4) de=1/5",
                           abs(mutual - wt.leakage_exact(scheme, de)), 1e-9))

    code = cd.parity(3)
    ok = True
    worst = 0.0
    for lam in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
        val, _ = er.bec_conditional_entropy(er.ErasureContext(code, lam))
        worst = max(worst, abs(val - lam ** 3))
    out.append(check_bound("parity(3) dual erasure entropy = lam^3", worst, 1e-12))
    return out


def check_qn(cfg: SuiteConfig) -> list[BoundReport]:
    """Exact ensemble moments respect the recursive bound and the Q >= 1 floor."""
    out = []
    delta = 0.1
    rate = 1 - kn.binary_renyi(2, delta) + 0.1
    ns = (8, 12) if cfg.quick else (12, 16)
    for n in ns:
        kernel = kn.Kernel.bernoulli(n, Fraction(1, 10))
        q = rc.qn_exact(n, rc.num_codewords(n, rate), kernel, 2)
        bound = rc.qn_recursive_bound(n, rate, kernel, 1, 1)
        out.append(check_bound(f"qn-recursive-bound n={n}", q, bound))
        out.append(check_bound(f"qn-floor n={n}", 1, q, recheck=lambda q=q: (1, q)))
    return out


def check_capacity_curve(cfg: SuiteConfig) -> list[BoundReport]:
    """Pointwise ordering and exact endpoints of the threshold curves."""
    grid = np.linspace(0.0, 0.5, 101)
    ordered = True
    for d in grid:
        s1 = sm.capacity("bernoulli", 1, d)
        s2 = sm.capacity("bernoulli", 2, d)
        sinf = sm.capacity("bernoulli", INF, d)
        ordered = ordered and (sinf >= s2 - 1e-12) and (s2 >= s1 - 1e-12)
    out = [BoundReport("capacity-curve ordering Sinf>=S2>=S1", 0.0, 0.0, ordered)]
    endpoints = (sm.capacity("bernoulli", 2, 0.0) == 1.0
                 and sm.capacity("bernoulli", 2, 0.5) == 0.0
                 and sm.capacity("bernoulli", INF, 0.0) == 1.0
                 and sm.capacity("bernoulli", INF, 0.5) == 0.0
                 and sm.capacity("bernoulli", 1, 0.5) == 0.0)
    out.append(BoundReport("capacity-curve exact endpoints", 0.0, 0.0, endpoints))
    return out


GROUPS = [
    ("rate-floor", check_rate_floor),
    ("smoothing-erasure", check_smoothing_erasure),
    ("samorodnitsky", check_samorodnitsky),
    ("secrecy", check_secrecy),
    ("decoding", check_decoding),
    ("perfect-smoothing", check_perfect_smoothing),
    ("wiretap-numbers", check_wiretap_numbers),
    ("identities", check_identities),
    ("qn-ensemble", check_qn),
    ("capacity-curve", check_capacity_curve),
]


def run_suite(quick: bool = True, seed: int = 0, printer=print) -> list[BoundReport]:
    cfg = SuiteConfig(quick=quick, seed=seed)
    reports: list[BoundReport] = []
    for name, fn in GROUPS:
        group = fn(cfg)
        reports.extend(group)
        failed = sum(1 for r in group if not r.passed)
        printer(f"-- {name}: {len(group) - failed}/{len(group)} passed")
        for r in group:
            printer("   " + r.line())
    failed = [r for r in reports if not r.passed]
    printer(f"== {len(reports) - len(failed)}/{len(reports)} bounds hold"
            + ("" if not failed else f"; {len(failed)} FAILED"))
    return reports
