"""Nested coset coding for the binary symmetric wiretap channel.

Messages index the cosets of an inner code C_e inside an outer code C_b.
With a uniform message and a uniform coset element, the eavesdropper's
observation through BSC(delta_e) has distribution T_de f_Cb, while the
observation conditioned on a message is a shift of T_de f_Ce.  Shift
invariance makes every per-message conditional divergence equal, so the
leakage I(M; Z) collapses to an entropy difference and is bounded by the
divergence of the inner noisy distribution from uniform.  Both noisy
distributions are constant on the cosets of their code and are read there
(`smoothing.cell_pmf`): the leakage is D_1(inner) - D_1(outer), and no 2^n
array is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes as cd
from . import kernels as kn
from . import smoothing as sm
from .reports import BoundReport, check_bound

INF = math.inf

REGIMES = ("shannon_capacity", "bec_dual", "rm", "alpha_secrecy")


class NestedScheme:
    """A pair C_e ⊂ C_b of linear codes; messages are cosets of C_e in C_b."""

    def __init__(self, inner: cd.Code, outer: cd.Code):
        inner.require_linear("a nested scheme")
        outer.require_linear("a nested scheme")
        if inner.n != outer.n:
            raise ValueError("inner and outer codes differ in length")
        if not inner.is_subcode_of(outer):
            raise ValueError("inner code is not contained in the outer code")
        self.inner = inner
        self.outer = outer
        self.n = inner.n
        self.message_bits = outer.k - inner.k
        self._leaders: np.ndarray | None = None

    @property
    def num_messages(self) -> int:
        return 1 << self.message_bits

    def coset_leaders(self) -> np.ndarray:
        """Minimum-weight representative per coset, ties broken numerically."""
        if self._leaders is not None:
            return self._leaders
        inner_words = self.inner.codeword_ints()
        # complete the inner basis to the outer one: rows of the outer
        # generator independent from the inner row space
        extra = []
        base = self.inner.generator
        for row in self.outer.generator:
            stacked = np.vstack([base, row])
            if cd.gf2_rank(stacked) > base.shape[0]:
                base = stacked
                extra.append(row)
        if len(extra) != self.message_bits:
            raise AssertionError("coset basis completion failed")
        leaders = []
        for rep in cd.span(cd.rows_to_ints(extra)):
            coset = inner_words ^ rep
            wt = np.bitwise_count(coset)
            best = wt.min()
            leaders.append(int(coset[wt == best].min()))
        self._leaders = np.array(sorted(leaders), dtype=np.int64)
        return self._leaders

    def __repr__(self):
        return (f"NestedScheme(n={self.n}, inner k={self.inner.k}, "
                f"outer k={self.outer.k})")


# ---------------------------------------------------------------------------
# Leakage and secrecy bounds
# ---------------------------------------------------------------------------

def leakage_exact(scheme: NestedScheme, delta_e: float) -> float:
    """I(M; Z) = H(T_de f_Cb) - H(T_de f_Ce) in bits.

    Uses that the eavesdropper's marginal is the noisy outer distribution
    and the conditional given any message is a shifted noisy inner
    distribution, whose entropy is shift invariant.
    """
    outer, inner = _noisy_pmfs(scheme, delta_e, False)
    return _d1(inner) - _d1(outer)


def _noisy_pmfs(scheme: NestedScheme, delta_e, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """The noisy outer and inner distributions T_de f_Cb and T_de f_Ce, on
    the cosets of each code."""
    kernel = kn.Kernel.bernoulli(scheme.n, Fraction(delta_e))
    return (sm.cell_pmf(scheme.outer, kernel, exact),
            sm.cell_pmf(scheme.inner, kernel, exact))


def _d1(pmf: np.ndarray):
    """D_1(pmf || U_n); the leakage is D_1(inner) - D_1(outer)."""
    return sm.divergence_to_uniform(pmf, 1).d_alpha


def secrecy_bound(scheme: NestedScheme, delta_e: float, alpha=1) -> float:
    """D_alpha(T_de f_Ce || U_n): the smoothing bound on eavesdropper leakage.

    Upper-bounds I(M; Z) at alpha = 1; for alpha >= 1 it equals the
    per-message conditional divergence, identical across messages.
    """
    kernel = kn.Kernel.bernoulli(scheme.n, Fraction(delta_e))
    return sm.smoothness_of(scheme.inner, kernel, alpha).d_alpha


def secrecy_report(scheme: NestedScheme, delta_e: float, alpha=1) -> BoundReport:
    """leakage <= smoothing bound of order alpha >= 1, with a high-precision
    recheck.

    At order 1 the bound is the leakage's own term D_1(inner), evaluated
    once, and the gap is exactly the divergence of the marginal from
    uniform, which vanishes when the outer code fills the space; the
    recheck evaluates the same divergences on the exact rational pmfs.
    """
    def sides(exact):
        outer, inner = _noisy_pmfs(scheme, delta_e, exact)
        bound = sm.divergence_to_uniform(inner, alpha).d_alpha
        return (bound if alpha == 1 else _d1(inner)) - _d1(outer), bound

    leak, bound = sides(False)
    name = f"secrecy-bound n={scheme.n} de={delta_e}" + (f" a={alpha}" if alpha != 1 else "")
    return check_bound(name, leak, bound, recheck=lambda: sides(True),
                       details={"scheme": repr(scheme), "alpha": alpha})


# ---------------------------------------------------------------------------
# Achievable rate points
# ---------------------------------------------------------------------------

@dataclass
class RatePoint:
    delta_b: float
    delta_e: float
    rb: float
    re: float
    rate: float
    regime: str
    alpha: float | None = None
    clamped: bool = False


def rate_point(delta_b: float, delta_e: float, regime: str, alpha=None) -> RatePoint:
    """Achievable (R_b, R_e, R_b - R_e) for one secrecy regime.

    Regimes:
      shannon_capacity : R_b = 1-h(db),                R_e = 1-h(de)
      bec_dual         : R_b = 1-log2(1+2 sqrt(db(1-db))), R_e = (1-2 de)^2
      rm               : R_b = 1-h(db),                R_e = (1-2 de)^2
      alpha_secrecy    : R_b = 1-h(db),                R_e = 1-h_alpha(de)

    Negative net rates are clamped to zero and flagged.
    """
    if not 0 <= delta_b < delta_e <= 0.5:
        raise ValueError(
            f"need 0 <= delta_b < delta_e <= 1/2, got ({delta_b}, {delta_e})")
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    hb = kn.binary_entropy(delta_b)
    smoothing_re = (1 - 2 * delta_e) ** 2
    if regime == "shannon_capacity":
        rb, re = 1 - hb, 1 - kn.binary_entropy(delta_e)
    elif regime == "bec_dual":
        rb = 1 - math.log2(1 + 2 * math.sqrt(delta_b * (1 - delta_b)))
        re = smoothing_re
    elif regime == "rm":
        rb, re = 1 - hb, smoothing_re
    else:
        if alpha is None:
            raise ValueError("alpha_secrecy regime needs an explicit alpha")
        rb, re = 1 - hb, 1 - kn.binary_renyi(alpha, delta_e)
    rate = rb - re
    clamped = rate < 0
    return RatePoint(delta_b, delta_e, rb, re, max(rate, 0.0), regime,
                     alpha=alpha, clamped=clamped)


def rate_curve(delta_b: float, grid: int, regime: str, alpha=None) -> list[RatePoint]:
    """Sweep delta_e over (delta_b, 1/2] on a uniform grid."""
    pts = []
    for i in range(1, grid + 1):
        de = delta_b + (0.5 - delta_b) * i / grid
        pts.append(rate_point(delta_b, de, regime, alpha=alpha))
    return pts
