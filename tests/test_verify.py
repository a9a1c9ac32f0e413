"""The verify sweep's decoding and ensemble groups read exact values."""

import pytest

from codesmooth import decoding as dec
from codesmooth import random_coding as rc
from codesmooth import verify as vf


@pytest.mark.parametrize("quick", [True, False])
def test_exact_groups_sample_nothing(monkeypatch, quick):
    def sampled(*args, **kwargs):
        pytest.fail("a Monte Carlo estimator ran")

    monkeypatch.setattr(rc, "qn_estimate", sampled)
    monkeypatch.setattr(dec, "mc_decoding_error", sampled)
    cfg = vf.SuiteConfig(quick=quick)
    for check in (vf.check_qn, vf.check_decoding):
        reports = check(cfg)
        assert len(reports) == 4
        assert all(r.passed and not r.rechecked for r in reports), [r.line() for r in reports]


def test_decoding_bounds_are_below_one():
    # a bound of 1 or more holds for any probability and checks nothing
    reports = vf.check_decoding(vf.SuiteConfig(quick=False))
    assert all(r.rhs < 1 for r in reports), [r.line() for r in reports]
