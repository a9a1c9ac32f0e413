"""The coset domain of linear codes, checked against the dense path.

Every linear code below is also given as `ExplicitCode(n, codewords)`, which
smooths, certifies and counts on dense 2^n arrays; the coset results must
agree with it exactly (float smoothing to 1e-12 relative per point, and the
reports read from the syndrome pmf to 1e-12).
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
    return [kn.Kernel.bernoulli(n, Fraction(1, 10)), kn.Kernel.ball(n, min(2, n)),
            kn.Kernel.sphere(n, n // 2)]


def _rows(rows):
    return sorted(map(tuple, rows.tolist()))


@pytest.mark.parametrize("code", CODES, ids=repr)
def test_smoothing_matches_dense(code):
    linear, explicit = _pair(code)
    for kernel in _kernels(code.n):
        exact = sm.smooth(explicit, kernel, exact=True)
        assert (sm.smooth(linear, kernel, exact=True) == exact).all()
        reference = np.array([float(v) for v in exact])
        floats = sm.smooth(linear, kernel)
        assert np.all(np.abs(floats - reference) <= 1e-12 * reference)


@pytest.mark.parametrize("code", CODES, ids=repr)
def test_cell_pmf_reports_match_dense(code):
    # the syndrome pmf has the divergences and norms of the dense pmf
    linear, explicit = _pair(code)
    for kernel in _kernels(code.n):
        dense = sm.smooth(explicit, kernel, exact=True)
        cells = [sm.cell_pmf(linear, kernel), sm.cell_pmf(linear, kernel, exact=True)]
        assert all(len(p) == code.cells for p in cells)
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
    assert cd.covering_radius(linear) == cd.covering_radius(explicit)
    for radius in range(min(3, n) + 1):
        assert _rows(sm.local_weight_rows(linear, radius)) == \
            _rows(sm.local_weight_rows(explicit, radius))
    for t in range(n + 1):
        assert (dec.ball_counts_table(linear, t) == dec.ball_counts_table(explicit, t)).all()
        ball = kn.Kernel.ball(n, t)
        assert sm.is_perfectly_smoothed(linear, ball) == sm.is_perfectly_smoothed(explicit, ball)


@pytest.mark.parametrize("code", CODES[:6], ids=repr)
def test_python_int_path_matches_int64(monkeypatch, code):
    expected = code.coset_weights()
    fresh = cd.LinearCode(code.generator)
    monkeypatch.setattr(hc, "_int64_exact", lambda n, bound: False)
    assert (fresh.coset_weights() == expected).all()
    kernel = kn.Kernel.bernoulli(code.n, Fraction(1, 10))
    monkeypatch.undo()
    assert (sm.smooth(fresh, kernel, exact=True)
            == sm.smooth(cd.ExplicitCode(code.n, code.codeword_ints()), kernel, exact=True)).all()


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


def test_coset_weights_beyond_int64():
    # 2^8 * C(60, 30) > 2^63: the transform runs on Python ints
    code = cd.random_linear(60, 52, seed=3)
    assert not hc._int64_exact(8, math.comb(60, 30))
    counts = code.coset_weights()
    assert counts.shape == (1 << 8, 61) and counts.dtype == np.int64
    assert counts.sum(axis=0).tolist() == [math.comb(60, i) for i in range(61)]
    assert (counts.sum(axis=1) == 1 << 52).all()


def test_hamming31_without_the_cube():
    code = cd.hamming(5)
    tracemalloc.start()
    try:
        rho = cd.covering_radius(code)
        certified = sm.is_perfectly_smoothed(code, kn.Kernel.ball(31, 1))
        rows = _rows(sm.local_weight_rows(code, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rho, certified, rows) == (1, True, [(0, 1), (1, 0)])
    assert peak < 16 << 20
