"""Every exact recheck, forced: it must reproduce the float check's slack."""

import math
import textwrap
from fractions import Fraction

import numpy as np
import pytest

from codesmooth import codes as cd
from codesmooth import erasure as er
from codesmooth import kernels as kn
from codesmooth import reports
from codesmooth import smoothing as sm
from codesmooth import verify as vf
from codesmooth import wiretap as wt

from conftest import run_fresh, seeded_rng
from oracles import renyi_entropy

INF = math.inf
N = 8


def _code():
    return cd.random_linear(N, 4, seed=3)


def _function():
    return seeded_rng(91).random(1 << 6) * 2


KERNELS = {
    "bernoulli": lambda: kn.Kernel.bernoulli(N, Fraction(1, 10)),
    "ball": lambda: kn.Kernel.ball(N, 2),
    "sphere": lambda: kn.Kernel.sphere(N, 1),
    "subcube": lambda: kn.Kernel.subcube(N, [0, 2, 5]),
}

CASES = (
    [(f"rate-floor-{name}-a{alpha}",
      lambda make=make, alpha=alpha: sm.lower_bound_report(_code(), make(), alpha))
     for name, make in KERNELS.items() for alpha in (0, 0.5, 1, 2, INF)]
    + [(f"smoothing-erasure-a{alpha}",
        lambda alpha=alpha: er.smoothing_erasure_report(_code(), Fraction(1, 10), alpha))
       for alpha in (1, 2, 3, INF)]
    + [("noisy-entropy", lambda: er.noisy_entropy_report(_function(), 0.2))]
    + [(f"noisy-norm-a{alpha}",
        lambda alpha=alpha: er.noisy_norm_report(_function(), 0.2, alpha))
       for alpha in (2, 3, INF)]
    + [(f"secrecy-a{alpha}",
        lambda alpha=alpha: wt.secrecy_report(
            wt.NestedScheme(cd.reed_muller(1, 3), cd.full_space(N)), Fraction(1, 5), alpha))
       for alpha in (1, 2, INF)]
    + [("qn-floor", lambda: vf.check_qn(vf.SuiteConfig())[1])]
)


@pytest.mark.parametrize("make_report", [c for _, c in CASES], ids=[i for i, _ in CASES])
def test_forced_recheck_reproduces_the_float_slack(monkeypatch, make_report):
    monkeypatch.setattr(reports, "NEAR_VIOLATION", math.inf)
    rep = make_report()
    assert rep.rechecked and rep.passed, rep.line()
    assert abs(rep.exact_slack - rep.slack) <= 1e-9 * max(1.0, abs(rep.slack)), rep.line()


def test_exact_slack_is_reported_only_after_a_recheck():
    assert reports.BoundReport("plain", 0.0, 1.0, True).exact_slack is None
    assert reports.check_bound("wide", 0.0, 1.0, recheck=lambda: (0, 1)).exact_slack is None
    rep = reports.check_bound("tight", 1.0, 1.0, recheck=lambda: (Fraction(1, 3), Fraction(1, 2)))
    assert rep.rechecked and rep.passed and rep.exact_slack == pytest.approx(1 / 6)
    assert "exact recheck: slack=0.167" in rep.line()


def test_recheck_runs_at_the_recheck_precision():
    seen = []
    reports.check_bound("tight", 1.0, 1.0,
                        recheck=lambda: seen.append(kn.log2(3)) or (0, 0))
    assert not isinstance(seen[0], float)
    assert abs(seen[0] - math.log2(3)) < 1e-15
    assert isinstance(kn.log2(3), float)


def test_exact_inputs_keep_float_results_at_the_default_precision():
    noisy = sm.smooth(_code(), kn.Kernel.bernoulli(N, Fraction(1, 10)), exact=True)
    floats = np.array([float(v) for v in noisy])
    for alpha in (0, 0.5, 1, 2, INF):
        exact = kn.exact_renyi(kn.point_masses(noisy), alpha)
        assert isinstance(exact, float)
        assert exact == pytest.approx(renyi_entropy(floats, alpha), abs=1e-12)


def test_recheck_in_a_fresh_process():
    # nothing imports mpmath before the first recheck, which loads it and
    # raises its precision; kernels.log2 then answers at that precision
    probe = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from codesmooth import codes as cd, wiretap as wt
        scheme = wt.NestedScheme(cd.random_linear(10, 4, seed=17), cd.full_space(10))
        print("mpmath" in sys.modules)
        rep = wt.secrecy_report(scheme, Fraction(1, 5))
        print(rep.passed, rep.rechecked, rep.exact_slack == 0)
        import codesmooth.kernels as kn
        import mpmath
        with mpmath.workdps(50):
            third = kn.log2(Fraction(1, 3))
        print(type(third).__name__, mpmath.nstr(third, 40))
    """)
    assert run_fresh(probe).splitlines() == [
        "False", "True True True", "mpf -1.58496250072115618145373894394781650876"]
