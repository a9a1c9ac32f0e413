"""Command-line front end.

Subcommands cover the main computations (smooth, erasure-bound,
decode-bound, mc qn), curve/table generation (capacity-curve, wiretap
rates), fixture I/O (code gen), and the full inequality sweep (verify).
Tabular output is CSV with the run configuration embedded as '#'
comment lines; --json switches the scalar commands to JSON.

Exit codes: 0 on success, 1 when an asserted bound fails (after the
exact recheck), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import codes as cd
from . import decoding as dec
from . import erasure as er
from . import kernels as kn
from . import random_coding as rc
from . import smoothing as sm
from . import verify as vf
from . import wiretap as wt

INF = math.inf


def _parse_alpha(token: str) -> float:
    token = token.strip().lower()
    if token in ("inf", "infinity", "oo"):
        return INF
    if "/" in token:
        return float(Fraction(token))
    return float(token)


def _parse_alpha_list(text: str) -> list[float]:
    return [_parse_alpha(t) for t in text.split(",") if t.strip()]


_HEADER_SKIP = {"func", "command", "wiretap_command", "mc_command", "code_command"}


def _config_header(args: argparse.Namespace, command: str) -> list[str]:
    pairs = {k: v for k, v in sorted(vars(args).items())
             if k not in _HEADER_SKIP and v is not None}
    lines = [f"# command: {command}"]
    lines += [f"# {k}: {v}" for k, v in pairs.items()]
    return lines


def _emit(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_smooth(args) -> int:
    code = cd.load_code(args.code)
    kernel = kn.parse_kernel_spec(args.kernel, code.n)
    exact = args.mode == "exact"
    noisy = sm.smooth(code, kernel, exact=exact)
    rows = []
    for alpha in _parse_alpha_list(args.alpha):
        rep = sm.divergence_to_uniform(noisy, alpha)
        rows.append({"alpha": "inf" if alpha == INF else alpha,
                     "d_alpha": rep.d_alpha, "l_alpha": rep.l_alpha,
                     "dimensionless": rep.dimensionless})
    if args.json:
        print(json.dumps({"n": code.n, "kernel": kernel.spec_string(),
                          "mode": args.mode, "reports": rows}, indent=2))
    else:
        lines = _config_header(args, "smooth")
        lines.append("alpha,d_alpha,l_alpha,dimensionless")
        lines += [f"{r['alpha']},{r['d_alpha']:.12g},{r['l_alpha']:.12g},"
                  f"{r['dimensionless']:.12g}" for r in rows]
        _emit(lines, args.out)
    return 0


def cmd_capacity_curve(args) -> int:
    lines = _config_header(args, "capacity-curve")
    lines.append("# formulas: shannon=1-h(d); s2=1-h_2(d); sinf=1-h_inf(d); "
                 "bec_dual_threshold=(1-2d)^2")
    lines.append("delta,shannon,s2,sinf,bec_dual_threshold")
    for i in range(args.grid):
        d = 0.5 * i / (args.grid - 1) if args.grid > 1 else 0.0
        row = (d,
               sm.capacity("bernoulli", 1, d),
               sm.capacity("bernoulli", 2, d),
               sm.capacity("bernoulli", INF, d),
               (1 - 2 * d) ** 2)
        lines.append(",".join(f"{v:.12g}" for v in row))
    _emit(lines, args.out)
    return 0


def cmd_wiretap_rates(args) -> int:
    regimes = (list(wt.REGIMES) if args.regime == "all" else [args.regime])
    lines = _config_header(args, "wiretap rates")
    lines.append("# formulas: shannon_capacity rb=1-h(db) re=1-h(de); "
                 "bec_dual rb=1-log2(1+2sqrt(db(1-db))) re=(1-2de)^2; "
                 "rm rb=1-h(db) re=(1-2de)^2; "
                 "alpha_secrecy rb=1-h(db) re=1-h_a(de)")
    lines.append("regime,delta_b,delta_e,rb,re,rate,clamped")

    def fmt(pt: wt.RatePoint) -> str:
        label = pt.regime + (f"(a={pt.alpha})" if pt.regime == "alpha_secrecy" else "")
        return (f"{label},{pt.delta_b:.12g},{pt.delta_e:.12g},"
                f"{pt.rb:.12g},{pt.re:.12g},{pt.rate:.12g},{int(pt.clamped)}")

    if args.grid:
        for regime in regimes:
            for pt in wt.rate_curve(args.db, args.grid, regime, alpha=args.alpha):
                lines.append(fmt(pt))
    else:
        if args.de is None:
            raise ValueError("provide --de for a single point or --grid for a sweep")
        for regime in regimes:
            alpha = args.alpha if regime == "alpha_secrecy" else None
            if regime == "alpha_secrecy" and alpha is None:
                continue
            lines.append(fmt(wt.rate_point(args.db, args.de, regime, alpha=alpha)))
    _emit(lines, args.csv)
    return 0


def cmd_wiretap_leakage(args) -> int:
    scheme = wt.NestedScheme(cd.load_code(args.inner), cd.load_code(args.outer))
    leak = None
    rows = []
    for alpha in _parse_alpha_list(args.alpha):
        if alpha >= 1:
            rep = wt.secrecy_report(scheme, args.de, alpha)
            bound, ok = rep.rhs, rep.passed
            leak = rep.lhs if leak is None else leak
        else:  # leakage is bounded only from order 1 up
            bound, ok = wt.secrecy_bound(scheme, args.de, alpha), True
        rows.append({"alpha": "inf" if alpha == INF else alpha,
                     "secrecy_bound": bound, "holds": ok})
    if leak is None:
        leak = wt.leakage_exact(scheme, args.de)
    payload = {"n": scheme.n, "message_bits": scheme.message_bits,
               "delta_e": float(args.de), "leakage": leak, "bounds": rows}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        lines = _config_header(args, "wiretap leakage")
        lines.append(f"# leakage_exact: {leak:.12g}")
        lines.append("alpha,secrecy_bound,holds")
        lines += [f"{r['alpha']},{r['secrecy_bound']:.12g},{int(r['holds'])}"
                  for r in rows]
        _emit(lines, args.csv)
    return 0 if all(r["holds"] for r in rows) else 1


def cmd_erasure_bound(args) -> int:
    code = cd.load_code(args.code)
    alpha = _parse_alpha(args.alpha)
    lam = float(er.erasure_noise_level(alpha, args.delta))
    if args.mode.startswith("mc:"):
        trials = int(args.mode.split(":", 1)[1])
        kernel = kn.Kernel.bernoulli(code.n, args.delta)
        lhs = sm.divergence_to_uniform(sm.smooth(code, kernel), alpha).d_alpha
        ctx = er.ErasureContext(code, lam, mode="mc", trials=trials,
                                seed=args.seed)
        rhs, sigma = er.bec_conditional_entropy(ctx)
        ok = lhs <= rhs + 3 * sigma
    else:
        rep = er.smoothing_erasure_report(code, args.delta, alpha)
        lhs, rhs, sigma, ok = rep.lhs, rep.rhs, 0.0, rep.passed
    lines = _config_header(args, "erasure-bound")
    lines.append("divergence,bec_entropy,stderr,lambda,holds")
    lines.append(f"{lhs:.12g},{rhs:.12g},{sigma:.12g},{lam:.12g},{int(ok)}")
    _emit(lines, args.out)
    return 0 if ok else 1


def cmd_decode_bound(args) -> int:
    code = cd.load_code(args.code)
    dist = cd.distance_distribution(code)
    if args.theta is not None:
        bound = dec.asymptotic_bound(dist, args.delta, args.list, args.theta)
    else:
        if args.t is None:
            raise SystemExit(2)
        bound = dec.list_error_bound(dist, args.delta, args.list,
                                     args.t, args.tprime)
    lines = _config_header(args, "decode-bound")
    lines.append("n,delta,L,t,tprime,energy_term,tail_term,total,exact_total")
    lines.append(f"{bound.n},{bound.delta},{bound.list_size},{bound.t},"
                 f"{bound.tprime},{bound.energy_term:.12g},"
                 f"{bound.tail_term:.12g},{bound.total:.12g},"
                 f"{bound.exact_total:.12g}")
    ok = True
    if args.mc:
        est, sigma = dec.mc_decoding_error(code, float(args.delta), args.list,
                                           bound.t, args.mc, seed=args.seed)
        ok = est - 3 * sigma <= bound.total
        lines.append("mc_estimate,mc_stderr,bound_holds")
        lines.append(f"{est:.12g},{sigma:.12g},{int(ok)}")
    _emit(lines, args.out)
    return 0 if ok else 1


def cmd_mc_qn(args) -> int:
    alpha_frac = Fraction(args.alpha) if "/" in args.alpha else Fraction(_parse_alpha(args.alpha))
    kernel = kn.parse_kernel_spec(args.kernel, args.n)
    spec = rc.EnsembleSpec(args.n, args.rate, kernel, args.trials, seed=args.seed)
    est, sigma = rc.qn_estimate(spec, float(alpha_frac))
    p = alpha_frac - 1
    lines = _config_header(args, "mc qn")
    lines.append("n,rate,alpha,trials,estimate,stderr,recursive_bound")
    if p > 0:
        bound = rc.qn_recursive_bound(args.n, args.rate, kernel,
                                      p.numerator, p.denominator)
    else:
        bound = 1.0
    lines.append(f"{args.n},{args.rate},{args.alpha},{args.trials},"
                 f"{est:.12g},{sigma:.12g},{bound:.12g}")
    _emit(lines, args.out)
    return 0 if est - 3 * sigma <= bound else 1


def cmd_code_gen(args) -> int:
    params = [int(p) for p in args.params.split(",")] if args.params else []
    code = cd.family(args.family, params)
    cd.save_code(args.out, code)
    print(f"wrote {code!r} to {args.out}")
    return 0


def cmd_verify(args) -> int:
    reports = vf.run_suite(quick=args.quick, seed=args.seed)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="codesmooth",
        description="Smoothing of codes over the binary Hamming cube")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smooth", help="divergence of a noisy code distribution")
    p.add_argument("--code", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--alpha", default="1,2,inf")
    p.add_argument("--mode", choices=["float", "exact"], default="float")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("capacity-curve", help="threshold-rate curves vs noise")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--out")
    p.set_defaults(func=cmd_capacity_curve)

    wt_parser = sub.add_parser("wiretap", help="wiretap channel computations")
    wt_sub = wt_parser.add_subparsers(dest="wiretap_command", required=True)
    p = wt_sub.add_parser("rates", help="achievable rate points/curves")
    p.add_argument("--db", type=float, required=True)
    p.add_argument("--de", type=float)
    p.add_argument("--regime", default="all",
                   choices=["all", *wt.REGIMES])
    p.add_argument("--alpha", type=_parse_alpha)
    p.add_argument("--grid", type=int)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_wiretap_rates)
    p = wt_sub.add_parser("leakage", help="exact leakage of a nested scheme")
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--de", type=Fraction, required=True)
    p.add_argument("--alpha", default="1,2,inf")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_wiretap_leakage)

    p = sub.add_parser("erasure-bound", help="smoothing vs dual erasure entropy")
    p.add_argument("--code", required=True)
    p.add_argument("--delta", type=Fraction, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--mode", default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_erasure_bound)

    p = sub.add_parser("decode-bound", help="list-decoding error bound")
    p.add_argument("--code", required=True)
    p.add_argument("--delta", type=Fraction, required=True)
    p.add_argument("--list", type=int, default=1)
    p.add_argument("--t", type=int)
    p.add_argument("--tprime", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--mc", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode_bound)

    mc_parser = sub.add_parser("mc", help="Monte Carlo ensemble statistics")
    mc_sub = mc_parser.add_subparsers(dest="mc_command", required=True)
    p = mc_sub.add_parser("qn", help="expected noisy-norm moments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--alpha", default="2")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mc_qn)

    code_parser = sub.add_parser("code", help="code fixture I/O")
    code_sub = code_parser.add_subparsers(dest="code_command", required=True)
    p = code_sub.add_parser("gen", help="write a family member to a file")
    p.add_argument("--family", required=True)
    p.add_argument("--params")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_code_gen)

    p = sub.add_parser("verify", help="run the full inequality suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
