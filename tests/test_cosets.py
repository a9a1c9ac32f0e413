"""The cells of both code classes, checked against dense oracles.

Every linear code below is also given as `ExplicitCode(n, codewords)`.  Both
smooth through the kernel's spectrum and their own cell transform, so both
are held to `oracles.smooth_dense`, one transform convolution of the dense
code pmf with the lifted kernel, under every kernel form: exactly, float
smoothing to 1e-12 relative per point, and the reports read from the cell
pmfs to 1e-12.  Counts and certificates are compared between the two
classes and with brute-force tables.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from codesmooth import codes as cd
from codesmooth import decoding as dec
from codesmooth import hypercube as hc
from codesmooth import kernels as kn
from codesmooth import smoothing as sm

import oracles
from conftest import seeded_rng


def _codes():
    rng = seeded_rng(77)
    shapes = [(6, 6), (5, 1), (12, 12), (12, 1), (1, 1)]
    while len(shapes) < 20:
        n = int(rng.integers(2, 13))
        shapes.append((n, int(rng.integers(1, n + 1))))
    return [cd.random_linear(n, k, seed) for seed, (n, k) in enumerate(shapes)]


CODES = _codes()


def _pair(code):
    return code, cd.ExplicitCode(code.n, code.codeword_ints())


def _kernels(n):
    # every kernel form: radial, and a subcube, which is not radial
    return [kn.Kernel.bernoulli(n, Fraction(1, 10)), kn.Kernel.ball(n, min(2, n)),
            kn.Kernel.sphere(n, n // 2), kn.Kernel.subcube(n, range(0, n, 2))]


def _rows(rows):
    return sorted(map(tuple, rows.tolist()))


@pytest.mark.parametrize("code", CODES, ids=repr)
def test_smoothing_matches_dense(code):
    for kernel in _kernels(code.n):
        exact = oracles.smooth_dense(code, kernel, exact=True)
        reference = np.array([float(v) for v in exact])
        for c in _pair(code):
            assert (sm.smooth(c, kernel, exact=True) == exact).all(), (c, kernel)
            floats = sm.smooth(c, kernel)
            assert np.all(np.abs(floats - reference) <= 1e-12 * reference), (c, kernel)


@pytest.mark.parametrize("code", CODES, ids=repr)
def test_cell_pmf_reports_match_dense(code):
    # the cell pmfs have the divergences and norms of the dense pmf
    for kernel in _kernels(code.n):
        dense = oracles.smooth_dense(code, kernel, exact=True)
        cells = [sm.cell_pmf(c, kernel, exact) for c in _pair(code) for exact in (False, True)]
        assert [len(p) for p in cells] == [code.cells] * 2 + [1 << code.n] * 2
        for alpha in (0, 0.5, 1, 2, 3, math.inf):
            want = sm.divergence_to_uniform(dense, alpha)
            for p in cells:
                got = sm.divergence_to_uniform(p, alpha)
                for field in ("d_alpha", "l_alpha", "dimensionless"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert (math.isnan(a) and math.isnan(b)) or \
                        math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), (kernel, alpha, field)


@pytest.mark.parametrize("code", CODES, ids=repr)
def test_counts_match_dense(code):
    linear, explicit = _pair(code)
    n = code.n
    assert cd.covering_radius(linear) == cd.covering_radius(explicit) == \
        oracles.covering_radius_dense(explicit)
    for radius in range(min(3, n) + 1):
        assert _rows(sm.local_weight_rows(linear, radius)) == \
            _rows(sm.local_weight_rows(explicit, radius))
    for t in range(n + 1):
        assert (oracles.ball_counts_table(linear, t)
                == oracles.ball_counts_table(explicit, t)).all()
        ball = kn.Kernel.ball(n, t)
        assert sm.is_perfectly_smoothed(linear, ball) == sm.is_perfectly_smoothed(explicit, ball)
    for kernel in _kernels(n)[3:]:
        assert sm.is_perfectly_smoothed(linear, kernel) == \
            sm.is_perfectly_smoothed(explicit, kernel)


def _scaled(kernel):
    """The radial profile times its common denominator."""
    return [int(v) for v in hc._scale_to_int(kernel.radial_profile())[0]]


def _shells(n):
    return [[int(j == i) for j in range(n + 1)] for i in range(n + 1)]


@pytest.mark.parametrize("code", CODES[:6], ids=repr)
def test_python_int_path_matches_int64(monkeypatch, code):
    kernels = _kernels(code.n)
    dense = [oracles.smooth_dense(code, kernel, exact=True) for kernel in kernels]
    # every integer transform in limbs or on Python ints
    monkeypatch.setattr(hc, "_int64_exact", lambda n, bound: False)
    counts = np.stack(code.radial_counts(_shells(code.n)), axis=1)
    assert (counts == oracles.coset_weight_table(code)).all()
    for c in _pair(code):
        for kernel, want in zip(kernels, dense):
            assert (sm.smooth(c, kernel, exact=True) == want).all(), (c, kernel)


@pytest.mark.parametrize("code", [c for c in CODES if c.n > 1][:10], ids=repr)
def test_radial_counts_match_the_oracle_in_every_tier(code):
    # one profile per exactness tier of the coset transform: float64 below
    # 2^53, int64 below 2^63, limbs above (a Fraction(0.2) Bernoulli kernel)
    n, r = code.n, code.n - code.k
    ball = _scaled(kn.Kernel.ball(n, min(2, n)))
    wide = [1 << 58 - n - r] * (n + 1)
    binary = _scaled(kn.Kernel.bernoulli(n, Fraction(0.2)))
    bound = [hc.radial_sum(n, p) for p in (ball, wide, binary)]
    assert hc._float_exact(np.float64, r, bound[0])
    assert not hc._float_exact(np.float64, r, bound[1]) and hc._int64_exact(r, bound[1])
    assert not hc._int64_exact(r, bound[2])
    table = oracles.coset_weight_table(code).astype(object)
    for p, counts in zip((ball, wide, binary), code.radial_counts([ball, wide, binary])):
        assert counts.tolist() == (table @ np.array(p, dtype=object)).tolist()


def test_cells_are_cosets():
    code = CODES[7]
    cells = code.cell_of(np.arange(1 << code.n))
    assert set(np.nonzero(cells == 0)[0].tolist()) == set(code.codeword_ints().tolist())
    rng = seeded_rng(78)
    x = rng.integers(0, 1 << code.n, 50)
    c = rng.choice(code.codeword_ints(), 50)
    assert (code.cell_of(x ^ c) == code.cell_of(x)).all()
    assert [code.contains(int(v)) for v in x ^ c] == (cells[x] == 0).tolist()
    # beyond one 12-bit lookup: bit j of a syndrome is the parity on dual row j
    code = cd.random_linear(30, 20, seed=5)
    rows = cd.rows_to_ints(code.dual().generator)
    x = rng.integers(0, 1 << 30, 200)
    assert code.cell_of(x).tolist() == [
        sum(((int(v) & h).bit_count() & 1) << j for j, h in enumerate(rows)) for v in x]
    assert not code.cell_of(code.codeword_ints()[:64]).any()


def test_radial_counts_beyond_int64():
    # 2^8 * C(60, 30) > 2^63: the middle shells' transforms run in limbs
    code = cd.random_linear(60, 52, seed=3)
    assert not hc._int64_exact(8, math.comb(60, 30))
    counts = np.stack(code.radial_counts(_shells(60)), axis=1)
    assert counts.shape == (1 << 8, 61)
    assert counts.sum(axis=0).tolist() == [math.comb(60, i) for i in range(61)]
    assert (counts.sum(axis=1) == 1 << 52).all()


def _python_int_counts(code, p):
    """`radial_counts` by one transform on Python ints, with no limbs."""
    spectrum = np.array(hc.radial_transform(code.n, p), dtype=object)[code.dual().weights()]
    return hc.wht_natural(spectrum) >> (code.n - code.k)


def test_radial_counts_in_limbs_equal_python_ints():
    # profiles summing past 2^63 run in int64 limbs of 62 - (n - k) bits; they
    # must equal one transform on Python ints, including negative entries
    code = cd.reed_muller(2, 5)
    scaled = _scaled(kn.Kernel.bernoulli(32, Fraction(3, 10)))
    assert not hc._int64_exact(16, hc.radial_sum(32, scaled))
    (counts,) = code.radial_counts([scaled])
    assert counts.dtype == object
    assert counts.tolist() == _python_int_counts(code, scaled).tolist()
    rng = seeded_rng(79)
    for code in [cd.random_linear(30, 14, seed=1), CODES[2], CODES[3], cd.full_space(62)]:
        profiles = [[int(v) << int(s) for v, s in zip(rng.integers(-2 ** 62, 2 ** 62, code.n + 1),
                                                       rng.integers(0, 130, code.n + 1))]
                    for _ in range(2)]
        profiles[1][0] = 0
        got = code.radial_counts(profiles)
        for p, counts in zip(profiles, got):
            assert counts.tolist() == _python_int_counts(code, p).tolist()
    for p in profiles:   # full_space(62): one coset holding the whole cube
        assert code.radial_counts([p])[0].tolist() == [hc.radial_sum(62, p)]


def _binary_ball(n, t):
    """A radius-t radial kernel with values from the binary float 0.2, whose
    denominator is far past int64."""
    prof = [Fraction(0.2) ** i if i <= t else Fraction(0) for i in range(n + 1)]
    return kn.Kernel.radial(n, [v / hc.radial_sum(n, prof) for v in prof])


# the float pmf divides the exact int64 counts, or takes a float transform
@pytest.mark.parametrize("kernel", [kn.Kernel.ball(32, 3), _binary_ball(32, 3)],
                         ids=["int64", "float-transform"])
def test_float_zero_cells_are_the_exact_ones(kernel):
    code = cd.reed_muller(2, 5)
    floats = sm.cell_pmf(code, kernel)
    exact = sm.cell_pmf(code, kernel, exact=True)
    assert ((floats == 0) == (exact == 0)).all()
    assert (floats == 0).sum() > 50000
    assert np.allclose(floats, [float(v) for v in exact], rtol=1e-9, atol=1e-18)


def test_float_report_on_4m_cosets_runs_under_the_caps():
    # a [30, 8] code has 2^22 cosets; the peak includes its dual codewords
    code = cd.random_linear(30, 8, seed=4)
    tracemalloc.start()
    try:
        report = sm.smoothness_of(code, kn.Kernel.ball(30, 3), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < report.d_alpha < 30 and peak < 192 << 20


def test_hamming31_without_the_cube():
    # every kernel form is read at the code's 2^5 spectrum points, so no
    # call builds a 2^31 array
    code = cd.hamming(5)
    kernels = [kn.Kernel.bernoulli(31, Fraction(3, 10)), kn.Kernel.ball(31, 1),
               kn.Kernel.sphere(31, 2), kn.Kernel.subcube(31, range(0, 31, 2)),
               kn.two_error_bch_profile(31)]
    tracemalloc.start()
    try:
        rho = cd.covering_radius(code)
        rows = _rows(sm.local_weight_rows(code, 1))
        results = [(sm.cell_pmf(code, kernel), sm.cell_pmf(code, kernel, exact=True),
                    sm.is_perfectly_smoothed(code, kernel)) for kernel in kernels]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rho, rows) == (1, [(0, 1), (1, 0)])
    for kernel, (floats, exact, certified) in zip(kernels, results):
        assert len(exact) == code.cells and sum(exact) == 1, kernel
        assert np.allclose(floats, exact.astype(float), rtol=1e-12, atol=0), kernel
        assert certified == all(v == Fraction(1, code.cells) for v in exact), kernel
    # the unit ball, and the BCH kernel, whose spectrum vanishes on the BCH
    # dual's weights 12, 16 and 20, hence on the simplex code's 16
    assert [certified for *_, certified in results] == [False, True, False, False, True]
    assert peak < 16 << 20
