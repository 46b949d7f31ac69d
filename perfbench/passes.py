"""One pass over a workload's operations; ``worker.py`` calls ``main`` once
the measured set-up is done.

Every operation runs once and only the call itself is timed.  With
``--check`` each output is compared with its oracle afterwards.  With
``--spans`` the pass records spans around every layer call, then runs the
tiny probe operations of all workloads, and writes the spans out.  The
summary goes to ``--out`` as JSON.
"""

import argparse
import json
import os
import platform
import resource
import time

import numpy
import scipy

import tracing
import workloads


def run_ops(ops, ctx, rec, check, first_index=0):
    latencies, failures, prints, checks, wrong = [], {}, [], {}, []
    for i, op in enumerate(ops):
        run, oracle = workloads.KINDS[op.kind]
        ctx["index"] = first_index + i
        span = None
        if rec is not None:
            rec.op = first_index + i
            span = rec.open("op")
        start = time.perf_counter()
        try:
            output = run(op.params, ctx)
            error = None
        except Exception as exc:  # noqa: BLE001 - a refused operation is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        if span is not None:
            rec.close(span)
            if error is None and op.kind.startswith("cli."):
                rec.spans[span][5] = {"bytes_written": os.path.getsize(output)}
            rec.enabled = False
        if error is not None:
            failures[i] = error
            prints.append(error)
        else:
            prints.append(workloads.fingerprint(output))
            if check:
                try:
                    verdicts = oracle(op.params, output, ctx)
                except Exception as exc:  # noqa: BLE001 - an oracle that cannot judge rejects
                    verdicts = [(f"oracle_error:{type(exc).__name__}: {exc}", False)]
                for name, ok in verdicts:
                    entry = checks.setdefault(name, [0, 0])
                    entry[0] += 1
                    entry[1] += 0 if ok else 1
                # "info:" checks are reported but do not make an output wrong.
                if not all(ok for name, ok in verdicts if not name.startswith("info:")):
                    wrong.append(i)
        if rec is not None:
            rec.enabled = True
    return latencies, failures, prints, checks, wrong


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="standard")
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed, args.size)
    ctx = {"tmpdir": args.tmpdir, "seed": args.seed}
    rec = None
    if args.spans:
        rec = tracing.Recorder()
        tracing.install(rec)
        rec.enabled = True
    latencies, failures, prints, checks, wrong = run_ops(ops, ctx, rec, args.check)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        probe = [op for w in workloads.WORKLOADS for op in workloads.build(w, 0, "tiny")]
        run_ops(probe, ctx, rec, check=False, first_index=tracing.PROBE_BASE)
        rec.enabled = False
        rec.write(args.spans)

    summary = {
        "kinds": [op.kind for op in ops],
        "params": [op.params for op in ops],
        "latencies": latencies,
        "failures": failures,
        "fingerprints": prints,
        "checks": checks,
        "wrong": wrong,
        "peak_rss_mb": rss_mb,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, default=str)
    return 0
