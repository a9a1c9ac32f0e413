"""List-decoding error bounds on the BSC from distance distributions.

The decoder outputs the codewords within Hamming distance t of the
received word and fails when more than L candidates appear or the error
weight exceeds t.  The failure probability is bounded by a potential
energy term sum_w mu_t(w) A_w (pairwise ball intersections weighted by the
distance distribution) plus exact binomial tail probabilities for the
error weight leaving the band (t', t).  On a linear code the failure
probability itself is a finite sum over cosets (`decoding_error_exact`);
`mc_decoding_error` estimates it on any code, sending a uniform coset
representative (the zero word of a linear code).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes as cd
from . import hypercube as hc

MC_SHARD = 65536
SCAN_PAIRS = 1 << 17   # (trial, codeword) pairs per chunk of the codeword scan


@dataclass
class DecodingBound:
    n: int
    delta: float
    list_size: int
    t: int
    tprime: int
    energy_term: float
    tail_term: float
    exact_tail_term: float | None = None
    tprime_clamped: bool = False

    @property
    def total(self) -> float:
        return self.energy_term + self.tail_term

    @property
    def exact_total(self) -> float:
        tail = self.tail_term if self.exact_tail_term is None else self.exact_tail_term
        return self.energy_term + tail


def binomial_point(n: int, delta, w: int) -> Fraction:
    """delta^w (1-delta)^(n-w) as an exact rational."""
    d = Fraction(delta)
    return d ** w * (1 - d) ** (n - w)


def binomial_tail(n: int, delta, lo: int, hi: int) -> Fraction:
    """Pr(lo <= |Y| <= hi) for Y ~ Binomial(n, delta), exact."""
    lo = max(lo, 0)
    hi = min(hi, n)
    if lo > hi:
        return Fraction(0)
    return sum(math.comb(n, w) * binomial_point(n, delta, w)
               for w in range(lo, hi + 1))


def energy_sum(dist, t: int) -> Fraction:
    """sum_{w>=1} mu_t(w) A_w: the pairwise intersection energy."""
    n = len(dist) - 1
    return sum(Fraction(hc.mu(n, t, w)) * Fraction(dist[w])
               for w in range(1, n + 1))


def list_error_bound(dist, delta, list_size: int, t: int,
                     tprime: int | None = None) -> DecodingBound:
    """Finite-n bound on the list-of-L radius-t decoding error.

    energy = (delta^t' (1-delta)^(n-t') / L) * sum_{w>=1} mu_t(w) A_w;
    tail   = Pr(|Y| <= t') + Pr(|Y| >= t), summed exactly (the two weight
    ranges are disjoint, so the union costs no extra slack).

    When t' is omitted it is chosen by grid search to minimize the total.
    """
    n = len(dist) - 1
    if list_size < 1:
        raise ValueError("list size must be >= 1")
    if not 0 < t < n:
        raise ValueError(f"radius ordering violated: need 0 < t < n, got t={t}")
    if tprime is None:
        candidates = [_bound_at(dist, delta, list_size, t, tp)
                      for tp in range(1, t)]
        if not candidates:
            raise ValueError(f"no admissible t' below t={t}")
        return min(candidates, key=lambda b: b.total)
    if not 0 < tprime < t:
        raise ValueError(
            f"radius ordering violated: need 0 < t' < t, got t'={tprime}, t={t}")
    return _bound_at(dist, delta, list_size, t, tprime)


def _bound_at(dist, delta, list_size, t, tprime) -> DecodingBound:
    n = len(dist) - 1
    energy = binomial_point(n, delta, tprime) * energy_sum(dist, t) / list_size
    tail = binomial_tail(n, delta, 0, tprime) + binomial_tail(n, delta, t, n)
    return DecodingBound(n, float(delta), list_size, t, tprime,
                         float(energy), float(tail))


def asymptotic_bound(dist, delta: float, list_size: int,
                     theta: float) -> DecodingBound:
    """Large-n form with t = ceil(dn + n^theta), t' = floor(dn - n^theta).

    energy = (sqrt(2n) / (L V_t)) ((1-d)/d)^(2 n^theta) sum mu_t(w) A_w and
    a Hoeffding tail 2 exp(-n^(2 theta - 1)).  The sharper exact binomial
    tail is reported alongside.  When the induced t' falls below 1 the
    lower weight range is empty; the exact tail drops it and the bound is
    flagged.
    """
    if not 0.5 < theta < 1.0:
        raise ValueError(f"exponent theta={theta} outside (1/2, 1)")
    n = len(dist) - 1
    shift = n ** theta
    t = math.ceil(delta * n + shift)
    tprime = math.floor(delta * n - shift)
    clamped = tprime < 1
    if t >= n:
        raise ValueError(f"induced radius t={t} reaches the dimension")
    vol = hc.ball_volume(n, t)
    energy = (math.sqrt(2 * n) / (list_size * vol)
              * ((1 - delta) / delta) ** (2 * shift)
              * float(energy_sum(dist, t)))
    hoeffding = 2 * math.exp(-(n ** (2 * theta - 1)))
    exact_tail = float(binomial_tail(n, Fraction(delta), 0, tprime)
                       + binomial_tail(n, Fraction(delta), t, n))
    return DecodingBound(n, float(delta), list_size, t, max(tprime, 0), energy,
                         hoeffding, exact_tail_term=exact_tail,
                         tprime_clamped=clamped)


# ---------------------------------------------------------------------------
# Decoding error on the BSC: exact on linear codes, Monte Carlo on any code
# ---------------------------------------------------------------------------

def decoding_error_exact(code, delta, list_size: int, t: int) -> Fraction:
    """Pr{F_t(Y) >= L+1 or |Y| > t}, Y ~ Bernoulli(delta), on a linear code,
    as an exact rational (a float delta is taken at its binary value).

    F_t(y), the number of codewords within distance t of y, depends only on
    the coset s of y, and F_t(s) = sum_{w<=t} N[s, w] for N[s, w] the
    weight-w words of coset s.  So, the zero codeword sent,

        Pr = Pr{|Y| > t} + sum_{w<=t} delta^w (1-delta)^(n-w) sum_{s: F_t(s) >= L+1} N[s, w],

    with the columns N[., w] read by one `radial_counts` call on the t+1
    sphere indicators.
    """
    code.require_linear("the exact decoding error")
    n = code.n
    if not 0 <= t <= n:
        raise ValueError(f"decoding radius t={t} outside [0, {n}]")
    # the t+1 int64 shell columns, their sum and one transform in flight:
    # 17 + 8t bytes per coset, plus about 115 KB, by tracemalloc at 2^14..2^18 cosets
    hc.admit("coset weight counts", nbytes=(24 + 8 * t) * code.cells)
    shells = code.radial_counts([[int(i == w) for i in range(n + 1)] for w in range(t + 1)])
    many = sum(shells) >= list_size + 1
    return binomial_tail(n, delta, t + 1, n) + sum(
        int(shell[many].sum()) * binomial_point(n, delta, w) for w, shell in enumerate(shells))


def mc_decoding_error(code, delta: float, list_size: int, t: int,
                      trials: int, seed: int = 0) -> tuple[float, float]:
    """Unbiased estimate of Pr{F_t(c + Y) >= L+1 or |Y| > t}, Y ~ Bernoulli(delta),
    for a uniform codeword c sent.

    F_t is constant on the cosets of L, so each trial sends a uniform
    representative; a linear code, whose error event is translation
    invariant, sends the zero word and draws nothing for it.  Returns
    (estimate, standard error).  Looks F_t up by the cell (syndrome) of
    each received word when the cell counts are admitted and scans the
    codewords per trial otherwise.
    """
    n = code.n
    try:
        hc.admit("codeword-count table", nbytes=48 * code.cells)
        counts, words = code.radial_counts([[1] * (t + 1) + [0] * (n - t)])[0], None
    except hc.BudgetExceeded:
        # only a trial with |e| <= t needs its count, and with the zero word
        # sent the codewords within t of it weigh at most 2t (triangle inequality)
        counts, words = None, code.codeword_ints()
        if code.is_linear:
            words = words[np.bitwise_count(words) <= 2 * t]
        # a chunk of trials against those codewords holds the int64 XOR and
        # its uint8 weights, 9 bytes per pair: about 1 MiB, or the cap
        rows = max(1, min(SCAN_PAIRS, hc.MEMORY_CAP // 9) // max(words.size, 1))
        hc.admit("codeword scan", nbytes=9 * rows * words.size)

    def draw(rng, count):
        idx = (rng.random((count, n)) < delta) @ (1 << np.arange(n, dtype=np.int64))
        received = idx if code.is_linear else \
            idx ^ code.reps[rng.integers(code.reps.size, size=count)]
        if counts is not None:
            near = counts[code.cell_of(received)]
        else:
            near = np.concatenate([
                np.add.reduce(np.bitwise_count(received[s:s + rows, None] ^ words) <= t,
                              axis=1, dtype=np.int64)
                for s in range(0, count, rows)])
        return (near >= list_size + 1) | (np.bitwise_count(idx) > t)

    return hc.sample_mean(draw, trials, seed, 2, MC_SHARD)
