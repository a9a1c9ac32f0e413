"""The benchmark's workloads, each run in a fresh process by `run.py`.

A workload is a fixed list of calls into the public functions of one
`codesmooth` module each.  One caller runs the list back to back (a closed
loop with a single client); a run repeats the list in passes for about
`--seconds` seconds.  Every pass gets objects built for it alone before its
first call, so no call finds a cache filled by an earlier pass: `LinearCode`
codewords, weights, dual and rank profile, `Kernel` lifts and `NestedScheme`
leaders all start empty.

Each pass draws its random inputs from the workload seed and the pass
number; sizes and trial counts do not depend on either.  The cost of
`verify-full` does depend on its draws (a few suite seeds hit slow exact
rechecks), so the median over passes is over several draws, not one.

Each call is timed on its own.  `wall_s` sums, over the op list, each
call's median time across passes.
After each call, outside the timed region, its output is checked against an
independent oracle.  A call that raises or fails its check counts as failed.

Usage (normally through run.py):

    python3 bench/workloads.py --workload linear-exact --seed 0 --seconds 30 \
        --trace 0 --t0 <time.monotonic() when the process was spawned>
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from spans import Spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "out"

MIN_PASSES = 2

# Ops of these modules run many times per pass and take milliseconds; their
# layer metric is the median call in ms.  Other ops report their median in s.
MS_MODULES = ("hypercube", "kernels")
# Ops with enough calls per run (100 per pass, at least two passes) that 95th
# percentile has ten samples beyond it.
P95_OPS = ("hypercube.wht_f64_n16",)
BUSY_MODULES = ("hypercube", "random_coding", "smoothing")
TRIAL_MODULES = ("random_coding", "decoding", "erasure")

WHT_N16_CALLS = 100
WHT_N20_CALLS = 8
LIFT_N20_CALLS = 5
ENSEMBLE_RATE = 0.8


@dataclass
class Op:
    """One timed call into a public function of `codesmooth`."""
    name: str                          # "<module>.<op>"; the module is the layer
    call: Callable[[], object]
    check: Callable[[object], bool]    # independent oracle, run untimed
    shape: dict                        # sizes and trial counts, the same for every seed
    count: Callable[[object], dict] | None = None   # per-layer counters from the output


def load_codesmooth():
    """Import `codesmooth` from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "codesmooth" / "__init__.py").is_file():
        sys.exit(f"bench: no codesmooth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import codesmooth
    if Path(codesmooth.__file__).resolve().parent != (SRC / "codesmooth").resolve():
        sys.exit(f"bench: imported codesmooth from {codesmooth.__file__}, not {SRC}")
    return codesmooth


def _sub(seed: int, tag: int) -> int:
    """Seed for one pass or one op, derived from the seed above it."""
    return (seed << 8) | tag


def _rng(seed: int, tag: int):
    import numpy as np
    return np.random.Generator(np.random.Philox(key=[seed, (0xBE7C << 16) | tag]))


# ---------------------------------------------------------------------------
# ensemble-dense: float64 dense transforms on i.i.d. (non-linear) ensembles
# ---------------------------------------------------------------------------

def _wht_involution(hc, a, out) -> bool:
    back = hc.wht_natural(out)
    n = a.shape[0].bit_length() - 1
    return float(abs(back - a * (1 << n)).max()) <= 1e-9 * (1 << n) * float(abs(a).max())


def _bernoulli_lift_ok(n: int, delta: float, out) -> bool:
    import numpy as np
    w = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
    ref = delta ** w * (1 - delta) ** (n - w)
    return out.shape == (1 << n,) and bool(np.allclose(out, ref, rtol=1e-12, atol=0))


def _bernoulli_q2(n: int, delta: Fraction, m: int) -> float:
    """E Q_n(2) for M i.i.d. codewords under Bernoulli noise, in closed form:
    1 + (2^n sum_z r(z)^2 - 1) / M with sum_z r(z)^2 = (d^2 + (1-d)^2)^n."""
    collision = (2 * (delta ** 2 + (1 - delta) ** 2)) ** n
    return float(1 + (collision - 1) / m)


def _qn_within(lo_fn, hi_fn, out) -> bool:
    est, sigma = out
    return lo_fn(sigma) <= est <= hi_fn(sigma)


def ensemble_dense(seed: int) -> list[Op]:
    from codesmooth import hypercube as hc
    from codesmooth import kernels as kn
    from codesmooth import random_coding as rc

    rng = _rng(seed, 1)
    ops = []
    for n, calls in ((16, WHT_N16_CALLS), (20, WHT_N20_CALLS)):
        a = rng.random(1 << n)
        ops += [Op(f"hypercube.wht_f64_n{n}", partial(hc.wht_natural, a),
                   partial(_wht_involution, hc, a),
                   {"n": n, "itemsize": 8, "transforms": 1})] * calls
    for _ in range(LIFT_N20_CALLS):
        kernel = kn.Kernel.bernoulli(20, Fraction(1, 10))
        ops.append(Op("kernels.lift_f64_n20", kernel.lift,
                      partial(_bernoulli_lift_ok, 20, 0.1), {"n": 20}))

    d = Fraction(1, 10)
    cases = (  # name, n, kernel, alpha as (p, q) = 1 + p/q, trials
        ("qn_a2_n20", 20, kn.Kernel.bernoulli(20, d), (1, 1), 32),
        ("qn_a3_n16", 16, kn.Kernel.bernoulli(16, d), (2, 1), 100),
        ("qn_a1.5_n18", 18, kn.Kernel.ball(18, 2), (1, 2), 40),
    )
    for name, n, kernel, (p, q), trials in cases:
        spec = rc.EnsembleSpec(n, ENSEMBLE_RATE, kernel, trials, seed=_sub(seed, n))
        alpha = 1 + Fraction(p, q)
        if alpha == 2:
            exact = _bernoulli_q2(n, d, spec.num_codewords)
            check = partial(_qn_within, lambda s, e=exact: e - 4 * s,
                            lambda s, e=exact: e + 4 * s)
        else:
            check = partial(_qn_within, lambda s: 1 - 3 * s,
                            lambda s, k=kernel, n=n, p=p, q=q:
                            rc.qn_recursive_bound(n, ENSEMBLE_RATE, k, p, q) + 3 * s)
        ops.append(Op(f"random_coding.{name}", partial(rc.qn_estimate, spec, float(alpha)),
                      check, {"n": n, "alpha": str(alpha), "kernel": kernel.spec_string(),
                              "M": spec.num_codewords, "trials": trials}))
    spec = rc.EnsembleSpec(18, ENSEMBLE_RATE, kn.Kernel.bernoulli(18, d), 40, seed=_sub(seed, 99))
    ops.append(Op("random_coding.sup_norm_n18", partial(rc.sup_norm_estimate, spec),
                  lambda out: out[0] >= 1.0,
                  {"n": 18, "M": spec.num_codewords, "trials": 40}))
    return ops


# ---------------------------------------------------------------------------
# linear-exact: int64 and exact paths on structured linear codes
# ---------------------------------------------------------------------------

def _golay_dual_spectrum_ok(dual_words, out) -> bool:
    """The transform of a linear code's indicator is |C| on the dual code
    and 0 elsewhere (MacWilliams)."""
    import numpy as np
    return (out.dtype == np.int64 and bool((out[dual_words] == 1 << 12).all())
            and int(np.count_nonzero(out)) == len(dual_words))


def _convolve_ok(f, g, points, out) -> bool:
    """Total mass multiplies; a few points match the defining sum."""
    n = len(f).bit_length() - 1
    if sum(out) != sum(f) * sum(g):
        return False
    return all(out[x] == sum(f[z] * g[x ^ z] for z in range(1 << n)) for x in points)


def _unit_rows(out) -> bool:
    return sorted(map(tuple, out.tolist())) == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]


def _radius1_uniform(n: int, kernel) -> bool:
    if kernel is None:
        return False
    share = Fraction(1, n + 1)
    return kernel.radial_profile() == [share, share] + [Fraction(0)] * (n - 1)


def _binomial_upper_tail(n: int, p: Fraction, lo: int) -> Fraction:
    return sum(math.comb(n, w) * p ** w * (1 - p) ** (n - w) for w in range(lo, n + 1))


def _profile_entropy(profile, n: int, lam: float) -> float:
    return sum(count * lam ** s * (1 - lam) ** (n - s) * (s - r)
               for (s, r), count in profile.items())


def linear_exact(seed: int) -> list[Op]:
    import numpy as np
    from codesmooth import codes as cd
    from codesmooth import decoding as dec
    from codesmooth import erasure as er
    from codesmooth import hypercube as hc
    from codesmooth import kernels as kn
    from codesmooth import smoothing as sm
    from codesmooth import wiretap as wt

    rng = _rng(seed, 2)
    ops = []
    box = {}   # outputs one op hands to a later op or check

    ops.append(Op("codes.covering_radius_golay", partial(cd.covering_radius, cd.golay23()),
                  lambda out: out == 3, {"n": 23, "k": 12}))
    ops.append(Op("smoothing.local_weight_rows_golay",
                  partial(sm.local_weight_rows, cd.golay23(), 3), _unit_rows,
                  {"n": 23, "k": 12, "radius": 3}))
    ops.append(Op("smoothing.certificate_golay",
                  partial(sm.is_perfectly_smoothed, cd.golay23(), kn.Kernel.ball(23, 3)),
                  lambda out: out is True, {"n": 23, "k": 12, "kernel": "ball:3"}))
    indicator = cd.golay23().indicator()
    dual_words = cd.golay23().dual().codeword_ints()
    ops.append(Op("hypercube.wht_i64_n23", partial(hc.wht_natural, indicator),
                  partial(_golay_dual_spectrum_ok, dual_words),
                  {"n": 23, "itemsize": 8, "transforms": 1}))

    f = np.empty(1 << 12, dtype=object)
    g = np.empty(1 << 12, dtype=object)
    f[:] = [Fraction(int(v), 1000) for v in rng.integers(0, 1000, 1 << 12)]
    g[:] = [Fraction(int(v), 997) for v in rng.integers(0, 1000, 1 << 12)]
    points = [int(x) for x in rng.integers(0, 1 << 12, 8)]
    # integer numerators stay under 2^63 / 2^12 in product, so the int64 path runs
    ops.append(Op("hypercube.convolve_exact_n12", partial(hc.convolve, f, g),
                  partial(_convolve_ok, f, g, points),
                  {"n": 12, "itemsize": 8, "transforms": 3}))

    ops.append(Op("smoothing.kernel_search_h4", partial(sm.perfect_kernel_search, cd.hamming(4)),
                  partial(_radius1_uniform, 15), {"n": 15, "k": 11}))

    code16 = cd.random_linear(16, 8, _sub(seed, 16))
    kernel16 = kn.Kernel.bernoulli(16, Fraction(1, 10))

    def smooth_exact():
        box["exact"] = sm.smooth(code16, kernel16, exact=True)
        return box["exact"]

    def smooth_exact_ok(out):
        box["l2_exact"] = sm.l2_closed_form(cd.distance_distribution(code16), code16.size,
                                            kernel16, exact=True)
        return sum(out) == 1 and (1 << 16) * sum(v * v for v in out) == box["l2_exact"]

    ops.append(Op("smoothing.smooth_exact_n16", smooth_exact, smooth_exact_ok,
                  {"n": 16, "k": 8, "kernel": "bernoulli:1/10"}))
    ops.append(Op("smoothing.divergence_exact_n16",
                  lambda: sm.divergence_to_uniform(box["exact"], 2),
                  lambda out: abs(out.d_alpha - math.log2(box["l2_exact"])) <= 1e-9,
                  {"n": 16, "alpha": 2}))

    code20 = cd.random_linear(20, 10, _sub(seed, 20))
    kernel20 = kn.Kernel.ball(20, 3)

    def smooth_float():
        box["float"] = sm.smooth(code20, kernel20)
        return box["float"]

    def smooth_float_ok(out):
        box["l2_float"] = float(sm.l2_closed_form(cd.distance_distribution(code20), code20.size,
                                                  kernel20, exact=True))
        l2 = (1 << 20) * float(out @ out)
        return abs(out.sum() - 1) <= 1e-9 and abs(l2 - box["l2_float"]) <= 1e-9 * box["l2_float"]

    def divergence_float_ok(out):
        d1, d2, dinf = (r.d_alpha for r in out)
        return d1 <= d2 + 1e-9 and d2 <= dinf + 1e-9 and abs(d2 - math.log2(box["l2_float"])) <= 1e-9

    ops.append(Op("smoothing.smooth_f64_n20", smooth_float, smooth_float_ok,
                  {"n": 20, "k": 10, "kernel": "ball:3"}))
    ops.append(Op("smoothing.divergence_f64_n20",
                  lambda: [sm.divergence_to_uniform(box["float"], a) for a in (1, 2, math.inf)],
                  divergence_float_ok, {"n": 20, "alpha": "1,2,inf"}))

    mc_trials = 200_000
    p_fail = _binomial_upper_tail(23, Fraction(1, 20), 4)   # Golay is perfect: t=3 fails iff |e|>3
    sigma = math.sqrt(float(p_fail * (1 - p_fail)) / mc_trials)
    ops.append(Op("decoding.mc_golay",
                  partial(dec.mc_decoding_error, cd.golay23(), 0.05, 1, 3, mc_trials,
                          seed=_sub(seed, 23)),
                  lambda out: abs(out[0] - float(p_fail)) <= 4 * sigma,
                  {"n": 23, "delta": 0.05, "L": 1, "t": 3, "trials": mc_trials}))

    scheme = wt.NestedScheme(cd.random_linear(20, 10, _sub(seed, 21)), cd.full_space(20))
    ops.append(Op("wiretap.leakage_n20", partial(wt.leakage_exact, scheme, 0.1),
                  lambda out: abs(out - wt.secrecy_bound(scheme, 0.1, 1)) <= 1e-9,
                  {"n": 20, "inner_k": 10, "outer_k": 20, "de": 0.1}))
    # a full-space outer code makes leakage equal the bound, which forces the
    # exact recheck
    ops.append(Op("wiretap.secrecy_recheck_n14",
                  partial(wt.secrecy_report,
                          wt.NestedScheme(cd.random_linear(14, 7, _sub(seed, 14)), cd.full_space(14)), 0.2),
                  lambda out: out.passed and out.rechecked,
                  {"n": 14, "inner_k": 7, "outer_k": 14, "de": 0.2}))

    def rank_profile(code):
        box["profile"] = er.rank_profile(code)
        return box["profile"]

    s_rank = _sub(seed, 22)
    ops.append(Op("erasure.rank_profile_n20", partial(rank_profile, cd.random_linear(20, 10, s_rank)),
                  lambda out: sum(out.values()) == 1 << 20
                  and all(r <= min(s, 10) for s, r in out),
                  {"n": 20, "k": 10}))
    bec_trials, lam = 50_000, 0.5
    ops.append(Op("erasure.bec_mc_n20",
                  partial(er.bec_conditional_entropy,
                          er.ErasureContext(cd.random_linear(20, 10, s_rank), lam, "mc",
                                            bec_trials, _sub(seed, 24))),
                  lambda out: abs(out[0] - _profile_entropy(box["profile"], 20, lam)) <= 4 * out[1],
                  {"n": 20, "k": 10, "lambda": lam, "trials": bec_trials}))
    return ops


# ---------------------------------------------------------------------------
# verify-full: every bound group of `codesmooth verify`, full profile
# ---------------------------------------------------------------------------

VERIFY_REPORTS = {   # reports each group yields with SuiteConfig(quick=False)
    "rate-floor": 100, "smoothing-erasure": 300, "samorodnitsky": 300, "secrecy": 10,
    "decoding": 4, "perfect-smoothing": 2, "wiretap-numbers": 3, "identities": 4,
    "qn-ensemble": 4, "capacity-curve": 2,
}


def _verify_counts(reports) -> dict:
    return {"verify.bounds": len(reports), "verify.rechecked": sum(r.rechecked for r in reports)}


def verify_full(seed: int) -> list[Op]:
    from codesmooth import verify as vf
    cfg = vf.SuiteConfig(quick=False, seed=seed)
    return [Op(f"verify.{name}", partial(fn, cfg),
               lambda out, want=VERIFY_REPORTS[name]: len(out) == want and all(r.passed for r in out),
               {"reports": VERIFY_REPORTS[name]}, _verify_counts)
            for name, fn in vf.GROUPS]


WORKLOADS = {"ensemble-dense": ensemble_dense, "linear-exact": linear_exact,
             "verify-full": verify_full}


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    times: list[float]                 # seconds per call, in op-list order
    failed: int
    counters: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(ops: list[Op], pass_id: int, spans: Spans | None) -> PassResult:
    clock = time.perf_counter
    pass_span = spans.open("bench.pass", clock(), pass_id=pass_id) if spans else None
    times = []
    failed = 0
    counters: dict = defaultdict(int)
    for op in ops:
        t0 = clock()
        try:
            out = op.call()
            ok = True
        except Exception:
            traceback.print_exc()
            ok = False
        t1 = clock()
        times.append(t1 - t0)
        if spans:
            spans.add(op.name, t0, t1, pass_span, pass_id, **op.shape)
        if ok:
            try:
                ok = bool(op.check(out))
                if op.count:
                    for key, value in op.count(out).items():
                        counters[key] += value
            except Exception:
                traceback.print_exc()
                ok = False
            if spans:
                spans.add("bench.check", t1, clock(), pass_span, pass_id, op=op.name)
            del out
        if not ok:
            print(f"FAILED {op.name} in pass {pass_id}", file=sys.stderr)
            failed += 1
    if spans:
        spans.close(pass_span, clock())
    return PassResult(times, failed, dict(counters))


def shape_digest(ops: list[Op]) -> str:
    text = json.dumps([(op.name, op.shape) for op in ops], sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def layer_metrics(spans: Spans, names: list[str], results: list[PassResult]) -> dict:
    """Per-layer metrics named `<module>.<op>.<stat>` from the recorded spans."""
    out = {}
    names = dict.fromkeys(names)
    for name in names:
        durs = spans.durations(name)
        module = name.split(".", 1)[0]
        if module in MS_MODULES:
            out[f"{name}.p50_ms"] = statistics.median(durs) * 1e3
        else:
            out[f"{name}_s"] = statistics.median(durs)
        if name in P95_OPS:
            out[f"{name}.p95_ms"] = statistics.quantiles(durs, n=20)[18] * 1e3
            out[f"{name}.samples"] = len(durs)

    modules = {name.split(".", 1)[0] for name in names}
    for module in modules & set(BUSY_MODULES):
        out[f"{module}.busy_s"] = statistics.median(
            spans.per_pass(lambda r, m=module: r["name"].startswith(m + ".")))
    for module in modules & set(TRIAL_MODULES):
        rows = [r for r in spans.rows if r["name"].startswith(module + ".") and "trials" in r["attrs"]]
        busy = sum(r["end"] - r["start"] for r in rows)
        out[f"{module}.trials_per_s"] = sum(r["attrs"]["trials"] for r in rows) / busy
    if "hypercube" in modules:
        # computed from array sizes, not measured: each of the n levels of a
        # transform reads and writes every element once
        per_pass = defaultdict(lambda: [0, 0, 0])
        for r in spans.rows:
            if r["name"].startswith("hypercube."):
                a = r["attrs"]
                cells = a["transforms"] << a["n"]
                acc = per_pass[r["pass"]]
                acc[0] += cells
                acc[1] += a["n"] * cells
                acc[2] += 2 * a["itemsize"] * a["n"] * cells
        for i, key in enumerate(("cells", "butterflies", "bytes_computed")):
            out[f"hypercube.{key}"] = statistics.median(v[i] for v in per_pass.values())
    if "verify" in modules:
        bounds = statistics.median(r.counters["verify.bounds"] for r in results)
        rechecked = statistics.median(r.counters["verify.rechecked"] for r in results)
        out.update({"verify.bounds": bounds, "verify.rechecked": rechecked,
                    "verify.recheck_ratio": rechecked / bounds})
    return out


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(codesmooth, seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "codesmooth": codesmooth.__version__,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent spawned this process")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the first pass's objects, report setup_s, exit")
    args = ap.parse_args(argv)

    codesmooth = load_codesmooth()
    build = WORKLOADS[args.workload]
    ops = build(_sub(args.seed, 0))
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    prov = provenance(codesmooth, args.seed)
    for key, value in prov.items():
        print(f"# {key}: {value}")
    digest = shape_digest(ops)
    names = [op.name for op in ops]
    spans = Spans() if args.trace else None
    results: list[PassResult] = []
    start = time.monotonic()
    while True:
        results.append(run_pass(ops, len(results), spans))
        print(f"pass {len(results) - 1}: {results[-1].wall:.3f} s, "
              f"{results[-1].failed} failed of {len(ops)}", flush=True)
        elapsed = time.monotonic() - start
        if len(results) >= MIN_PASSES and elapsed * (len(results) + 1) / len(results) > args.seconds:
            break
        del ops
        gc.collect()
        t_build = time.perf_counter()
        ops = build(_sub(args.seed, len(results)))
        if spans:
            spans.add("bench.fixtures", t_build, time.perf_counter(), pass_id=len(results))
        if shape_digest(ops) != digest:
            sys.exit("bench: op shapes changed between passes")

    attempted = len(results) * len(names)
    result = {
        # each call at its median over passes: one slow call or one costly
        # draw in a pass does not move the total
        "wall_s": sum(map(statistics.median, zip(*(r.times for r in results)))),
        "pass_walls": [r.wall for r in results],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": sum(r.failed for r in results),
        "passes": len(results),
        "shape_digest": digest,
        "provenance": prov,
    }
    if spans:
        result["layers"] = layer_metrics(spans, names, results)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.trace.jsonl"
        spans.write(path)
        print(f"# spans: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
