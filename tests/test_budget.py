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

from conftest import run_fresh
from oracles import lift_exact

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
    ("covering radius sweep", "memory cap",   # 2^32 cosets
     lambda: cd.covering_radius(cd.random_linear(40, 8, seed=0))),
    ("subset sweep", "step cap",   # 3^14 lattice entries > 2^22
     lambda: er.subset_expectation(np.ones(1 << 14), 0.5, 1)),
    ("coset weight counts", "memory cap",   # 2^32 cosets
     lambda: dec.decoding_error_exact(cd.random_linear(40, 8, seed=0), Fraction(1, 20), 1, 3)),
    ("radial transform", "step cap",   # a dense profile: (2^13 + 1) 2^13 steps
     lambda: hc.radial_transform(1 << 13, [1] * ((1 << 13) + 1))),
    ("exact Bernoulli noise", "memory cap",
     lambda: er.bernoulli_noise(_exact_zeros(24), Fraction(1, 10))),
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


@pytest.mark.parametrize("n, exact", [(10, False), (12, False), (6, True), (8, True)])
def test_subset_sweep_stays_within_its_charge(n, exact, monkeypatch):
    f = np.random.default_rng(n).random(1 << n) * 2
    f = hc.as_dense(f, exact=True) if exact else f
    admitted = []
    with monkeypatch.context() as mp:
        mp.setattr(hc, "admit", lambda what, nbytes=0, steps=0:
                   admitted.append(nbytes) if what == "subset sweep" else None)
        er.subset_expectation(f, 0.3, 1)
    for order in (1, 2, er.INF):
        peak = _traced_peak(lambda: er.subset_expectation(f, 0.3, order))
        assert peak <= admitted[0], (order, peak, admitted[0])
    # a batch of orders holds one order's terms at a time beside the lattice
    peak = _traced_peak(lambda: er._subset_statistics(f, (1, 2, 3, er.INF)))
    assert peak <= admitted[0], (peak, admitted[0])


def test_decoding_scans_codewords_when_the_table_is_refused(monkeypatch, hamming7):
    table_path = dec.mc_decoding_error(hamming7, 0.05, 1, 1, 5000, seed=3)
    # room for the 2^4 codewords (256 bytes) but not for the count table of
    # the 2^3 cosets (384 bytes), which the scan must not build
    monkeypatch.setattr(hc, "MEMORY_CAP", 300)
    fresh = cd.hamming(3)
    monkeypatch.setattr(fresh, "radial_counts", lambda profiles: pytest.fail("table built"))
    assert dec.mc_decoding_error(fresh, 0.05, 1, 1, 5000, seed=3) == table_path


@pytest.mark.parametrize("t", [0, 2, 5])
def test_exact_decoding_estimate_tracks_its_peak(t):
    # 2^16 cosets: the charge per coset leaves out a fixed ~115 KB
    code = cd.random_linear(20, 4, seed=2)
    code.dual().codeword_ints()   # cached, and admitted on their own
    peak = _traced_peak(lambda: dec.decoding_error_exact(code, Fraction(1, 20), 1, t))
    estimate = (24 + 8 * t) * code.cells
    assert peak <= estimate <= 1.5 * peak, (peak, estimate)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [10, 12, 14])
def test_exact_convolution_estimate_tracks_its_peak(n, monkeypatch):
    # wide exact operands: the binary values of random floats against a
    # Bernoulli kernel at the binary value of 0.1, whose denominator has 55
    # bits per coordinate
    f = hc.as_dense(np.random.default_rng(n).random(1 << n), exact=True)
    g = lift_exact(kn.Kernel.bernoulli(n, Fraction(0.1)))
    admitted = []
    with monkeypatch.context() as mp:
        mp.setattr(hc, "admit", lambda what, nbytes=0, steps=0: admitted.append(nbytes))
        hc.convolve(f, g)
    estimate = max(admitted)
    peak = _traced_peak(lambda: hc.convolve(f, g))
    assert peak <= estimate <= 1.5 * peak, (peak, estimate)


@pytest.mark.parametrize("n", [8, 10, 12])
@pytest.mark.parametrize("delta", [Fraction(0.1), Fraction(1, 20)], ids=["binary-0.1", "1/20"])
def test_exact_bernoulli_noise_estimate_tracks_its_peak(n, delta, monkeypatch):
    # the noisy-report recheck's input, the binary values of random floats,
    # whose numerators grow by the bits of delta's denominator per pass
    f = hc.as_dense(np.random.default_rng(n).random(1 << n) * 2, exact=True)
    admitted = []
    with monkeypatch.context() as mp:
        mp.setattr(hc, "admit", lambda what, nbytes=0, steps=0:
                   admitted.append(nbytes) if what == "exact Bernoulli noise" else None)
        er.bernoulli_noise(f, delta)
    estimate = max(admitted)
    peak = _traced_peak(lambda: er.bernoulli_noise(f, delta))
    assert peak <= estimate <= 1.5 * peak, (peak, estimate)


def test_exact_smoothing_estimate_grows_with_the_kernel_denominator(monkeypatch):
    # a dense exact kernel's spectrum is built from Fractions, charged by the
    # bits of its denominator: 55 per coordinate at binary 0.1, 3.3 at 1/10
    n = 10
    code = cd.ExplicitCode(n, cd.random_linear(n, 5, seed=1).codeword_ints())
    small = kn.Kernel.dense(lift_exact(kn.Kernel.bernoulli(n, Fraction(1, 10))))
    binary = kn.Kernel.dense(lift_exact(kn.Kernel.bernoulli(n, Fraction(0.1))))
    estimate = sm._smoothing_bytes(code, binary, True, dense=True)
    assert estimate > 2 * sm._smoothing_bytes(code, small, True, dense=True)
    peak = _traced_peak(lambda: sm.smooth(code, binary, exact=True))
    assert peak <= estimate <= 1.5 * peak, (peak, estimate)
    monkeypatch.setattr(hc, "MEMORY_CAP", estimate)
    sm.smooth(code, binary, exact=True)
    monkeypatch.setattr(hc, "MEMORY_CAP", estimate - 1)
    with pytest.raises(hc.BudgetExceeded, match="exact smoothing"):
        sm.smooth(code, binary, exact=True)


@pytest.mark.parametrize("linear", [False, True])
def test_float_smoothing_estimate_tracks_its_peak(linear):
    # float smoothing is charged by its largest phase: the cell transform,
    # which builds W(1_C) on an explicit code, or the gather over the cube
    n, kernel = 14, kn.Kernel.bernoulli(14, Fraction(1, 10))
    code = cd.random_linear(n, 7, seed=3)
    if linear:
        code.dual().codeword_ints()   # cached, and admitted on their own
        code.cube_cells()             # builds the cached syndrome tables
    else:
        code = cd.ExplicitCode(n, code.codeword_ints())
    peak = _traced_peak(lambda: sm.smooth(code, kernel))
    estimate = sm._smoothing_bytes(code, kernel, False, dense=True)
    assert peak <= estimate <= 1.5 * peak, (peak, estimate)


@pytest.mark.parametrize("n", [12, 14, 16])
def test_first_explicit_smoothing_within_its_charge(n):
    # the cells of an explicit code are its points: the first smoothing of
    # a new code builds its character sum and no syndrome tables, and the
    # first of a process the transform's Kronecker stacks
    peak, charge = map(int, run_fresh(f"""
import tracemalloc
from fractions import Fraction
from codesmooth import codes as cd, kernels as kn, smoothing as sm
kernel = kn.Kernel.bernoulli({n}, Fraction(1, 10))
code = cd.ExplicitCode({n}, cd.random_linear({n}, {n // 2}, 3).codeword_ints())
tracemalloc.start()
sm.smooth(code, kernel)
print(tracemalloc.get_traced_memory()[1], sm._smoothing_bytes(code, kernel, False, dense=True))
""").split())
    assert peak <= charge, (peak, charge)


@pytest.mark.parametrize("linear", [False, True])
def test_radial_exact_estimate_tracks_its_peak(linear):
    # exact radial smoothing counts cells in integers (the dual spectrum on
    # cosets, `radial_counts` on points), charged from its own measured rate
    # per cell: at most 1.5 times the traced peak at n = 14
    n, kernel = 14, kn.Kernel.bernoulli(14, Fraction(1, 10))
    code = cd.random_linear(n, 3, seed=3) if linear else \
        cd.ExplicitCode(n, cd.random_linear(n, 7, seed=3).codeword_ints())
    if linear:
        code.dual().codeword_ints()   # cached, and admitted on its own
    peak = _traced_peak(lambda: sm.cell_pmf(code, kernel, exact=True))
    estimate = sm._smoothing_bytes(code, kernel, True)
    assert peak <= estimate <= 1.5 * peak, (peak, estimate)


@pytest.mark.parametrize("delta", [Fraction(7, 100), Fraction(0.1)], ids=["7/100", "binary-0.1"])
def test_radial_counts_in_limbs_estimate_tracks_its_peak(delta):
    # past int64, exact radial smoothing of an explicit code runs its point
    # counts in limbs, charged from their own measured rate: at most 1.5
    # times the traced peak at n = 14
    n, kernel = 14, kn.Kernel.bernoulli(14, delta)
    code = cd.ExplicitCode(n, cd.random_linear(n, 7, seed=3).codeword_ints())
    assert not sm._on_int64(code, kernel)
    peak = _traced_peak(lambda: sm.cell_pmf(code, kernel, exact=True))
    estimate = sm._smoothing_bytes(code, kernel, True)
    assert peak <= estimate <= 1.5 * peak, (peak, estimate)


def test_explicit_exact_smoothing_admitted_at_n22(monkeypatch):
    # charged at the measured rates, exact smoothing of a 2^22-point explicit
    # code passes its admission and reaches the kernel's spectrum
    class Admitted(Exception):
        pass

    def spectrum(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(kn.Kernel, "spectrum", spectrum)
    with pytest.raises(Admitted):
        sm.cell_pmf(cd.ExplicitCode(22, [0, 3, 5]), kn.Kernel.bernoulli(22, Fraction(1, 10)),
                    exact=True)


def test_explicit_float_smoothing_admitted_at_n24(monkeypatch):
    # the dense float pmf of a 2^24-point explicit code passes both
    # admissions of `smooth` and reaches the code's spectrum points
    class Admitted(Exception):
        pass

    def spectrum_points(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(cd.Code, "spectrum_points", spectrum_points)
    with pytest.raises(Admitted):
        sm.smooth(cd.ExplicitCode(24, [0, 3, 5]), kn.Kernel.bernoulli(24, Fraction(1, 10)))


@pytest.mark.parametrize("n", [14, 17, 20])
def test_ensemble_trial_estimate_covers_both_routes(n):
    # the estimate charges the spectrum route (a ball kernel, or the
    # Parseval order 2), at most 1.5 times its traced peak; the Bernoulli
    # kernel's Kronecker pass peaks lower
    admitted = []
    ball, bernoulli = kn.Kernel.ball(n, 2), kn.Kernel.bernoulli(n, Fraction(1, 10))
    for rate in (0.5, 1.0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hc, "admit", lambda what, nbytes=0, steps=0: admitted.append(nbytes))
            specs = [rc.EnsembleSpec(n, rate, k, 2) for k in (ball, bernoulli)]
        estimate = admitted[-1]
        assert admitted[-2] == estimate
        spectrum_peaks = [_traced_peak(lambda: rc.qn_estimate(specs[0], 1.5)),
                          _traced_peak(lambda: rc.qn_estimate(specs[1], 2))]
        product_peak = _traced_peak(lambda: rc.qn_estimate(specs[1], 3))
        assert product_peak < max(spectrum_peaks) <= estimate <= 1.5 * max(spectrum_peaks), \
            (rate, spectrum_peaks, product_peak, estimate)
