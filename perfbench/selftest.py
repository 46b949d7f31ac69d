"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, must print every
   metric that ``BENCHMARK.json`` names, with the unit it names, and the
   tiny operation lists must cover every operation kind of the full ones.
2. Every oracle must accept a correct output and reject a deliberately
   perturbed one, and a rerun whose output differs must count as wrong, so
   the correctness gate is shown to fail bad results.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import roundedcounts as rc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def metrics_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect(set(wanted[0]) == set(run.END_TO_END) and set(wanted[1]) == set(run.PER_LAYER),
           "BENCHMARK.json names exactly the metrics run.py computes")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS),
           "BENCHMARK.json, run.py and workloads.py name the same workloads")
    for workload in workloads.WORKLOADS:
        full = {op.kind for op in workloads.build(workload, 1)}
        tiny = {op.kind for op in workloads.build(workload, 1, "tiny")}
        expect(full == tiny, f"{workload}: tiny size runs every operation kind {sorted(full)}")
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                expect(False, f"{workload} trace={trace}: run exits 0 ({proc.stderr[-500:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace] and result["attempted"] >= 1
                   and set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace}: every metric emitted with its unit")
            expect(result["correct"], f"{workload} trace={trace}: tiny outputs pass their oracles")


def check(kind: str, params: dict, output, ctx=None) -> bool:
    """True when every counted verdict of the oracle accepts ``output``."""
    verdicts = workloads.KINDS[kind][1](params, output, ctx or {})
    return all(ok for name, ok in verdicts if not name.startswith("info:"))


def accepts_then_rejects(label: str, kind: str, params: dict, perturb, ctx=None) -> None:
    output = workloads.KINDS[kind][0](params, ctx or {})
    expect(check(kind, params, output, ctx), f"{label}: oracle accepts the program's output")
    expect(not check(kind, params, perturb(output), ctx), f"{label}: oracle rejects a perturbed one")


def oracles_reject() -> None:
    cell = dict(family="poisson", param=1.0, n=5, reps=2000, tie_rule=rc.HALF_UP,
                estimators=("u",), seed=7)

    def scale_mse(table):
        table = copy.deepcopy(table)
        table.rows[0].mse *= 1.5
        return table

    accepts_then_rejects("Monte Carlo MSE x1.5", "mc.poisson", cell, scale_mse)

    def drop_entry(table):
        probs = table.probs.copy()
        probs[int(np.argmax(probs))] = 0.0
        return dataclasses.replace(table, probs=probs)

    accepts_then_rejects("pmf with its largest entry dropped", "pmf.poisson",
                         dict(family="poisson", param=2e4, n=7, tie_rule=rc.HALF_UP), drop_entry)

    mle = dict(family="poisson", u=6, n=3, tie_rule=rc.HALF_UP)
    accepts_then_rejects("MLE moved 10% off its optimum", "mle.poisson", mle,
                         lambda est: dataclasses.replace(est, value=est.value * 1.1))
    accepts_then_rejects("binomial MLE moved off its optimum", "mle.binomial",
                         dict(family="binomial", u=15, n=5, tie_rule=rc.HALF_UP, trials=50),
                         lambda est: dataclasses.replace(est, value=est.value + 0.05))

    def nudge(report):
        return dataclasses.replace(report, variance=report.variance * (1 + 1e-6))

    accepts_then_rejects("series moments off by 1e-6", "moments.series",
                         dict(theta=3.0, n=5), nudge)
    accepts_then_rejects("exact MSE x1.5", "mle.exact_mse",
                         dict(family="poisson", param=0.5, n=2, tie_rule=rc.HALF_UP,
                              trials_per_measurement=5, nb_size=5.0), lambda mse: mse * 1.5)

    def scale_curve(curve):
        curve = copy.deepcopy(curve)
        curve.mse_rounded *= 1.5
        return curve

    accepts_then_rejects("MSE ratio curve x1.5", "mle.ratio_curve",
                         dict(family="binomial", param=0.4, n=5, trials=20), scale_curve)
    accepts_then_rejects("binned level above alpha", "app.binned_test",
                         dict(m=1000, n=31, phi0=0.3, alpha=0.05, u=9300),
                         lambda res: dataclasses.replace(res, true_level=0.051))

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        ctx = {"tmpdir": tmp, "seed": 1, "index": 0}

        def shorten_a_real(path):
            lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
            row = next(i for i, line in enumerate(lines) if line.startswith("3,3,"))
            n, u, prob = lines[row].strip().split(",")
            lines[row] = f"{n},{u},{float(prob):.6g}\n"
            bad = os.path.join(tmp, "bad.csv")
            Path(bad).write_text("".join(lines), encoding="utf-8")
            return bad

        accepts_then_rejects("CSV with a real cut to 6 digits", "cli.pmf",
                             dict(argv=["pmf", "--theta", "2", "--n-list", "3"]),
                             shorten_a_real, ctx)

    first = {"latencies": [0.1, 0.1], "failures": {}, "fingerprints": ["a", "b"], "wrong": []}
    rerun = dict(first, fingerprints=["a", "c"])
    expect(run.tally([first, first])["wrong"] == 0, "identical reruns count nothing as wrong")
    expect(run.tally([first, rerun])["wrong"] == 1, "a rerun with a changed output counts as wrong")


def main() -> int:
    oracles_reject()
    metrics_emitted()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
