"""Admission control: oversized calls are refused before they allocate."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from codesmooth import codes as cd
from codesmooth import decoding as dec
from codesmooth import erasure as er
from codesmooth import hypercube as hc
from codesmooth import kernels as kn
from codesmooth import random_coding as rc
from codesmooth import smoothing as sm

PEAK_LIMIT = 16 << 20


def _exact_zeros(n: int) -> np.ndarray:
    """A length-2^n exact array that occupies no 2^n memory."""
    return np.broadcast_to(np.array([Fraction(0)], dtype=object), (1 << n,))


REFUSALS = [
    ("exact smoothing", "memory cap",
     lambda: sm.smooth(cd.repetition(24), kn.Kernel.bernoulli(24, Fraction(1, 10)),
                       exact=True)),
    ("dense smoothing", "memory cap",
     lambda: sm.smooth(cd.repetition(28), kn.Kernel.bernoulli(28, Fraction(1, 10)))),
    ("local weight rows", "memory cap",
     lambda: sm.local_weight_rows(cd.repetition(28), 1)),
    ("distance distribution", "memory cap",
     lambda: cd.distance_distribution(cd.random_linear(29, 27, seed=1))),
    ("rank profile", "step cap",
     lambda: er.ErasureContext(cd.random_linear(24, 4, seed=0), 0.5)),
    ("rank profile", "step cap",
     lambda: er.rank_profile(cd.random_linear(24, 4, seed=0))),
    ("exact convolution", "memory cap",
     lambda: hc.convolve(_exact_zeros(24), _exact_zeros(24))),
    ("Hamming weight table", "memory cap", lambda: cd.ball_code(40, 1)),
    ("dense ensemble trial", "memory cap",
     lambda: rc.EnsembleSpec(30, 0.5, kn.Kernel.bernoulli(30, Fraction(1, 10)), 10)),
    ("coset weight distribution", "memory cap",   # 2^32 cosets
     lambda: cd.covering_radius(cd.random_linear(40, 8, seed=0))),
    ("subset sweep", "step cap",   # 3^14 lattice entries > 2^22
     lambda: er.subset_expectation(np.ones(1 << 14), 0.5, 1)),
]


@pytest.mark.parametrize("operation, cap, call", REFUSALS,
                         ids=[f"{i}-{op}" for i, (op, _, _) in enumerate(REFUSALS)])
def test_refused_before_allocating(operation, cap, call):
    tracemalloc.start()
    try:
        with pytest.raises(cd.BudgetExceeded) as exc:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(exc.value)
    assert operation in message and cap in message, message
    assert peak < PEAK_LIMIT, f"{operation}: traced peak {peak} bytes"


def test_admit_boundaries():
    hc.admit("at the caps", nbytes=hc.MEMORY_CAP, steps=hc.STEP_CAP)
    with pytest.raises(hc.BudgetExceeded, match="memory cap"):
        hc.admit("one byte over", nbytes=hc.MEMORY_CAP + 1)
    with pytest.raises(hc.BudgetExceeded, match="step cap"):
        hc.admit("one step over", steps=hc.STEP_CAP + 1)
    assert cd.BudgetExceeded is hc.BudgetExceeded


def test_subset_sweep_admits_n13():
    # 3^13 lattice entries fit the step cap; a constant has zero log-max
    assert er.subset_expectation(np.ones(1 << 13), 0.5, er.INF) == 0.0


def test_decoding_scans_codewords_when_the_table_is_refused(monkeypatch, hamming7):
    table_path = dec.mc_decoding_error(hamming7, 0.05, 1, 1, 5000, seed=3)
    # room for the 2^4 codewords but not for the coset weight distribution
    monkeypatch.setattr(hc, "MEMORY_CAP", 1024)
    fresh = cd.hamming(3)
    with pytest.raises(hc.BudgetExceeded, match="coset weight distribution"):
        fresh.coset_weights()
    assert dec.mc_decoding_error(fresh, 0.05, 1, 1, 5000, seed=3) == table_path


def test_exact_smoothing_estimate_grows_with_the_kernel_denominator(monkeypatch):
    n = 10
    # an explicit code: a linear one is smoothed on its cosets, not densely
    code = cd.ExplicitCode(n, cd.random_linear(n, 5, seed=1).codeword_ints())
    small = kn.Kernel.bernoulli(n, Fraction(1, 10))
    # 55 denominator bits per coordinate; dense, since a radial kernel is
    # smoothed through the code's radial counts, not by dense convolution
    binary = kn.Kernel.dense(kn.Kernel.bernoulli(n, Fraction(0.1)).lift(exact=True))
    per_point = sm._exact_cell_bytes(binary)
    assert per_point > hc.EXACT_CELL_BYTES > sm._exact_cell_bytes(small)
    tracemalloc.start()
    try:
        sm.smooth(code, binary, exact=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hc.EXACT_CELL_BYTES << n < peak <= per_point << n
    monkeypatch.setattr(hc, "MEMORY_CAP", per_point << n)
    sm.smooth(code, binary, exact=True)
    monkeypatch.setattr(hc, "MEMORY_CAP", (per_point << n) - 1)
    with pytest.raises(hc.BudgetExceeded, match="exact smoothing"):
        sm.smooth(code, binary, exact=True)
