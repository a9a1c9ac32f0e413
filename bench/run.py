"""Benchmark of codesmooth: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the root of a checkout; the program is imported from its `src/`.
Each workload runs in a fresh Python process (`workloads.py`).  With
`--trace 0` the last line of the output is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with `--trace 1` they are the
per-layer metrics, taken from spans recorded around every call the
benchmark makes into a `codesmooth` module (layers a workload does not call
read 0).

  wall_s       time to run the workload's op list, each call taken at its
               median over the passes of the run
  setup_s      median over three fresh processes of the time from spawn to
               the first timed call: `import codesmooth` plus building every
               object the first pass uses
  peak_rss_mb  peak resident memory of the measuring process

`--workload all` runs every workload untraced at `--seed` and at the held-out
seed `--seed + 1`, and traced at `--seed`; it prints every metric, the
tracing overhead (traced minus untraced wall_s) and whether both seeds ran
the same op shapes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ensemble-dense", "linear-exact", "verify-full")
SETUP_PROBES = 2          # extra processes that only set up; with the measuring one, 3 samples
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, seconds: float, trace: int,
              setup_only: bool = False) -> dict:
    """Run one workload process to completion; return its result object."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    lines = out.splitlines()
    if not setup_only:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: the measuring process, plus setup probes when untraced."""
    probes = [] if trace else [run_child(workload, seed, seconds, 0, setup_only=True)["setup_s"]
                               for _ in range(SETUP_PROBES)]
    result = run_child(workload, seed, seconds, trace)
    result["setup_samples"] = probes + [result["setup_s"]]
    result["setup_s"] = statistics.median(result["setup_samples"])
    return result


def contract_line(result: dict, trace: int) -> dict:
    """The result object in the form BENCHMARK.json's metric lists define."""
    section = "per_layer" if trace else "end_to_end"
    declared = spec()[section]
    values = result.get("layers", {}) if trace else result
    if trace:
        unknown = set(values) - {m["name"] for m in declared}
        if unknown:
            raise BenchError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    if not trace and any(m not in values for m in metrics):
        raise BenchError("an end-to-end metric was not measured")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def summary(workload: str, result: dict) -> str:
    return (f"{workload}: wall_s={result['wall_s']:.4f} s  setup_s={result['setup_s']:.4f} s  "
            f"peak_rss_mb={result['peak_rss_mb']:.1f} MB  "
            f"failed_frac={result['failed'] / result['attempted']:.4f} ratio  "
            f"({result['failed']} of {result['attempted']} ops, {result['passes']} passes)")


def run_all(seed: int, seconds: float) -> dict:
    held_out = seed + 1
    report = {}
    for workload in WORKLOADS:
        base = measure(workload, seed, seconds, 0)
        other = measure(workload, held_out, seconds, 0)
        traced = measure(workload, seed, seconds, 1)
        print(summary(workload, base) + f"  [seed {seed}]")
        print(summary(workload, other) + f"  [held-out seed {held_out}]")
        same = base["shape_digest"] == other["shape_digest"]
        overhead = traced["wall_s"] - base["wall_s"]
        print(f"{workload}: op shapes at seeds {seed} and {held_out} identical: "
              f"{'yes' if same else 'NO'} ({base['shape_digest']})")
        print(f"{workload}: tracing overhead {overhead:+.4f} s "
              f"(traced wall_s {traced['wall_s']:.4f} s)")
        for name, value in sorted(traced["layers"].items()):
            print(f"  {name} = {value:.6g}")
        report[workload] = {"seed": contract_line(base, 0), "held_out": contract_line(other, 0),
                            "traced": contract_line(traced, 1),
                            "trace_overhead_s": overhead, "same_shapes": same}
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "codesmooth" / "__init__.py").is_file():
        print(f"bench: no codesmooth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    try:
        if args.workload == "all":
            report = run_all(args.seed, seconds)
            ok = all(r["seed"]["correct"] and r["held_out"]["correct"] and r["same_shapes"]
                     for r in report.values())
            print(json.dumps(report))
            return 0 if ok else 1
        result = measure(args.workload, args.seed, seconds, args.trace)
        print(summary(args.workload, result))
        print(json.dumps(contract_line(result, args.trace)))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
