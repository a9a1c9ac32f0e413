"""Uniform record for checked inequalities.

Every verified inequality is normalized to the form LHS <= RHS.  Float
evaluations whose slack falls below NEAR_VIOLATION trigger an automatic
recomputation (when the caller supplies one) instead of an immediate
failure, separating numerical noise from genuine violations.

Precision follows the input: the numeric functions of this package run in
float64 on float inputs, and on exact inputs (ints, Fractions, object
arrays) they sum exactly and take their logs through `kernels.log2`, at
mpmath's working precision.  A recheck therefore calls the same functions
as its float check, on exact inputs, and `check_bound` is the only place
that raises the working precision, to RECHECK_DPS digits, around it.  It
imports mpmath there, so a run without a recheck never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NEAR_VIOLATION = 1e-9
RECHECK_DPS = 50  # working precision of every exact recheck, in digits
RECHECK_EPS = 1e-40  # equality cases re-evaluated at RECHECK_DPS wobble below this


@dataclass
class BoundReport:
    name: str
    lhs: float
    rhs: float
    passed: bool
    rechecked: bool = False
    details: dict = field(default_factory=dict)
    exact_slack: float | None = None  # rhs - lhs of the recheck, when one ran

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tag = (f" (exact recheck: slack={self.exact_slack:.3g})"
               if self.rechecked else "")
        return (f"[{status}] {self.name}: lhs={self.lhs:.6g} "
                f"rhs={self.rhs:.6g} slack={self.slack:.3g}{tag}")


def check_bound(name: str, lhs, rhs, recheck=None, details=None) -> BoundReport:
    """Build a report for LHS <= RHS, rechecking near-violations exactly.

    `recheck`, when given, is a zero-argument callable returning the pair
    (lhs, rhs) recomputed from exact inputs; it runs at RECHECK_DPS digits
    whenever the float slack falls under NEAR_VIOLATION.
    """
    lhs_f, rhs_f = float(lhs), float(rhs)
    slack = rhs_f - lhs_f
    rechecked = False
    exact_slack = None
    passed = slack >= 0
    if slack < NEAR_VIOLATION and recheck is not None:
        import mpmath   # loaded by the first recheck only: float runs never need it

        with mpmath.workdps(RECHECK_DPS):
            exact_lhs, exact_rhs = recheck()
            # mpf takes a Fraction operand on either side of + but on the
            # left only of -, so the difference is formed as a sum
            diff = exact_rhs + -exact_lhs
        # exact rationals compare exactly; high-precision floats get an
        # epsilon so that genuine equality cases do not flip on roundoff
        passed = bool(diff >= -RECHECK_EPS)
        rechecked = True
        exact_slack = float(diff)
    return BoundReport(name, lhs_f, rhs_f, passed, rechecked, details or {},
                       exact_slack)
