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


def test_decoding_scans_codewords_when_the_table_is_refused(monkeypatch, hamming7):
    table_path = dec.mc_decoding_error(hamming7, 0.05, 1, 1, 5000, seed=3)
    # room for the 2^4 codewords but not for the 2^7-point count table
    monkeypatch.setattr(hc, "MEMORY_CAP", 1024)
    with pytest.raises(hc.BudgetExceeded):
        dec.ball_counts_table(hamming7, 1)
    assert dec.mc_decoding_error(hamming7, 0.05, 1, 1, 5000, seed=3) == table_path
