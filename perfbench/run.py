"""Benchmark of the roundedcounts package: one workload, one run.

    python3 perfbench/run.py --workload mc-sim --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``mc-sim``, ``mle-fit``, ``tables`` and
``tables-wide``.  A run is a closed loop with a single client: passes run
one after another, each in a fresh interpreter, until ``--seconds`` are
used (at least ``MIN_PASSES``).  A pass pays the package set-up, then runs
the workload's fixed operation list once.  The first pass also checks every
output against its oracle; every later pass must reproduce the first
pass's outputs exactly.

``--trace 0`` prints the end-to-end metrics: medians over passes of the
set-up time, of the summed operation time and of peak RSS, per-operation
latency percentiles pooled over passes, and the shares of operations that
completed (did not raise or refuse) and that passed their oracle.
``--trace 1`` prints the per-layer metrics instead: the import split from
``python -X importtime``, and span statistics of one traced pass (see
``tracing.py``), with the cost of tracing itself as ``trace.overhead_ratio``.

The last line of standard output is one JSON object; the lines before it
report the machine, versions, oracle results and every failed operation.
Nothing is written outside ``.perfbench_tmp/`` in the checkout, which is
removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("mc-sim", "mle-fit", "tables", "tables-wide")

MIN_PASSES = 3
IMPORTTIME_RUNS = 3
PASS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "completed_ratio": "ratio", "verified_ratio": "ratio",
}

PER_LAYER = {
    "setup.import_total_ms": "ms", "setup.import_scipy_stats_ms": "ms",
    "setup.import_scipy_optimize_ms": "ms",
    "distributions.cdf_sf.calls": "count", "distributions.cdf_sf.p50_us": "us",
    "distributions.support_bound.p50_us": "us", "distributions.logpmf.p50_us": "us",
    "rounding.rounded_logpmf.p50_us": "us",
    "rounding.rounded_pmf.calls": "count", "rounding.rounded_pmf.p50_us": "us",
    "rounding.rounded_pmf.p90_ms": "ms", "rounding.rounded_pmf.entries": "count",
    "rounding.rounded_pmf.useful_ratio": "ratio", "rounding.rounded_pmf.mbytes_computed": "MB",
    "rounding.moments_series.p50_us": "us", "rounding.moments_series.failed": "count",
    "sampling.rng_substream.p50_us": "us", "sampling.sample_count.p50_us": "us",
    "rounding.round_count.p50_us": "us", "sampling.draws": "count",
    "simulate.cell_p50_ms": "ms", "simulate.per_replicate_us": "us",
    "estimation.mc.distinct_u_ratio": "ratio",
    "estimation.numeric_mle.calls": "count", "estimation.numeric_mle.p50_ms": "ms",
    "estimation.numeric_mle.p90_ms": "ms", "estimation.mse_ratio_curve.fits": "count",
    "estimation.exact_mse.p50_ms": "ms", "estimation.poisson_mle_closed.p50_us": "us",
    "applications.true_significance.p50_ms": "ms",
    "applications.binned_binomial_test.p50_ms": "ms",
    "applications.excess_moments.p50_us": "us",
    "cli.parse_ms": "ms", "cli.main.p50_ms": "ms", "tableio.write_csv.p50_us": "us",
    "tableio.bytes_written": "count",
    **{f"{m}.self_ms": "ms" for m in ("distributions", "rounding", "sampling", "estimation",
                                      "simulate", "applications", "tableio", "cli")},
    "failed_ratio": "ratio", "wrong_ratio": "ratio", "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(args, tmp: Path, index: int, check: bool, trace: bool) -> dict:
    """Start one worker, time its set-up, wait for it and read its summary."""
    out = tmp / f"pass{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--tmpdir", str(tmp),
           "--out", str(out)]
    if check:
        cmd.append("--check")
    if trace:
        cmd += ["--spans", str(tmp / f"spans{index}.jsonl")]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass {index} exceeded {PASS_TIMEOUT_S} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"pass {index} failed (exit {proc.returncode}):\n{err[-4000:]}")
    summary = json.loads(out.read_text(encoding="utf-8"))
    summary["setup_s"] = setup
    summary["wall_s"] = sum(summary["latencies"])
    if trace:
        summary["spans_path"] = str(tmp / f"spans{index}.jsonl")
    return summary


def import_split() -> dict:
    """Import times from ``-X importtime``: the total self time, and the
    cumulative time of the outermost modules of each scipy subpackage
    (the subpackage is loaded lazily, so its own line may be missing)."""
    code = "import roundedcounts.cli; roundedcounts.cli.build_parser()"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import failed:\n{proc.stderr[-4000:]}")
    entries = []  # (self us, cumulative us, depth, module), children before parents
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)", line)
        if match:
            entries.append((int(match.group(1)), int(match.group(2)),
                            len(match.group(3)), match.group(4)))

    def subtree_ms(prefix: str) -> float:
        total = 0
        for i, (_, cumulative, depth, name) in enumerate(entries):
            parent = next((e for e in entries[i + 1:] if e[2] < depth), None)
            if name.startswith(prefix) and not (parent and parent[3].startswith(prefix)):
                total += cumulative
        return total / 1e3

    return {"setup.import_total_ms": sum(e[0] for e in entries) / 1e3,
            "setup.import_scipy_stats_ms": subtree_ms("scipy.stats"),
            "setup.import_scipy_optimize_ms": subtree_ms("scipy.optimize")}


def run_until(args, tmp: Path, first: int, min_passes: int) -> list[dict]:
    """Unchecked, untraced passes until the next one would overrun ``--seconds``."""
    passes = []
    while True:
        passes.append(run_pass(args, tmp, first + len(passes), check=False, trace=False))
        elapsed = time.perf_counter() - args.started
        per_pass = elapsed / (len(passes) + first)
        if len(passes) >= min_passes and elapsed + per_pass > args.seconds:
            return passes


def tally(passes: list[dict]) -> dict:
    """Operation counts over passes; an output that fails its oracle in the
    checked pass, or differs from that pass's output, counts as wrong."""
    reference = passes[0]
    bad = set(reference["wrong"])
    attempted = failed = wrong = 0
    for summary in passes:
        attempted += len(summary["latencies"])
        failed += len(summary["failures"])
        wrong += sum(1 for i, fp in enumerate(summary["fingerprints"])
                     if i in bad or fp != reference["fingerprints"][i])
    return {"attempted": attempted, "failed": failed, "wrong": wrong}


def _source_id() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    return f"commit={commit} src_sha256={digest.hexdigest()[:16]}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report(args, passes: list[dict], counts: dict, metrics: dict, units: dict,
           from_probe=frozenset()) -> None:
    first = passes[0]
    versions = first["versions"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print(f"# nproc={os.cpu_count()} cpu={_cpu_model()!r} python={versions['python']} "
          f"numpy={versions['numpy']} scipy={versions['scipy']} {_source_id()}")
    print(f"# run_s={time.perf_counter() - args.started:.3f} passes={len(passes)} "
          f"ops_per_pass={len(first['latencies'])} attempted={counts['attempted']} failed={counts['failed']} wrong={counts['wrong']} "
          f"failed_ratio={counts['failed'] / counts['attempted']:.6g} "
          f"wrong_ratio={counts['wrong'] / counts['attempted']:.6g} closed_loop_clients=1")
    print("# pass_wall_s=" + ",".join(f"{p['wall_s']:.4f}" for p in passes)
          + " pass_setup_s=" + ",".join(f"{p['setup_s']:.4f}" for p in passes))
    for name, (checked, rejected) in sorted(first["checks"].items()):
        note = " (reported only, not counted as wrong)" if name.startswith("info:") else ""
        print(f"# oracle {name}: checked={checked} rejected={rejected}{note}")
    for i in sorted(int(k) for k in first["failures"]):
        print(f"# failed op {i} {first['kinds'][i]} {json.dumps(first['params'][i])}: "
              f"{first['failures'][str(i)]}")
    for i in first["wrong"]:
        print(f"# wrong op {i} {first['kinds'][i]} {json.dumps(first['params'][i])}")
    for name, value in metrics.items():
        note = "  (from the probe: the workload does not reach this layer)" if name in from_probe else ""
        print(f"# metric {name} = {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def end_to_end(args, tmp: Path) -> None:
    passes = [run_pass(args, tmp, 0, check=True, trace=False)]
    passes += run_until(args, tmp, 1, MIN_PASSES - 1)
    counts = tally(passes)
    latencies_ms = np.array([t for p in passes for t in p["latencies"]]) * 1e3
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": float(np.percentile(latencies_ms, 50)),
        "op_p90_ms": float(np.percentile(latencies_ms, 90)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "completed_ratio": 1.0 - counts["failed"] / counts["attempted"],
        "verified_ratio": 1.0 - counts["wrong"] / counts["attempted"],
    }
    report(args, passes, counts, metrics, END_TO_END)


def per_layer(args, tmp: Path) -> None:
    import tracing

    splits = [import_split() for _ in range(IMPORTTIME_RUNS)]
    traced = run_pass(args, tmp, 0, check=True, trace=True)
    passes = [traced] + run_until(args, tmp, 1, 1)
    counts = tally(passes)
    metrics = {name: statistics.median(s[name] for s in splits) for name in splits[0]}
    layer, from_probe = tracing.derive(tracing.read(traced["spans_path"]))
    metrics.update(layer)
    metrics["failed_ratio"] = counts["failed"] / counts["attempted"]
    metrics["wrong_ratio"] = counts["wrong"] / counts["attempted"]
    metrics["trace.overhead_ratio"] = traced["wall_s"] / statistics.median(
        p["wall_s"] for p in passes[1:])
    report(args, passes, counts, {name: metrics[name] for name in PER_LAYER}, PER_LAYER,
           from_probe)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("standard", "tiny"), default="standard",
                        help="tiny: one small operation of every kind (self-test)")
    args = parser.parse_args()
    args.started = time.perf_counter()
    if not (SRC / "roundedcounts" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'roundedcounts'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        (per_layer if args.trace else end_to_end)(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
