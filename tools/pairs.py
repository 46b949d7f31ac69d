"""Compare two checkouts on benchmark workloads in alternating pairs.

Runs ``perfbench/run.py`` of each checkout, one after the other, for N
pairs of each workload in turn.  Pair i runs both sides with seed
``--seed + i``, and the side that runs first alternates from pair to pair,
so a drift in the machine's load falls on both sides alike.  For each
workload and each end-to-end metric that ``BENCHMARK.json`` lists, it
prints each side's median and quartiles over the pairs and the number of
pairs in which the change was better::

    python tools/pairs.py --parent ../parent --change . \\
        --workload tables,mc-sim,mle-fit,tables-wide --pairs 10 --seed 1601 --seconds 30

``--workload`` takes one workload or a comma-separated list; the pairs of
one workload all run before the next workload starts, and each gets its
own summary block.  ``--json PATH`` also writes every run's metrics, keyed
by workload.  The script only runs the checkouts' own ``perfbench/run.py``
(which cleans up its scratch directory at exit) and reads the JSON line it
prints; it changes no file in either checkout.  Standard library only.

Both sides compile their bytecode on the same footing: each side gets a
fresh, empty ``PYTHONPYCACHEPREFIX`` directory, removed at exit, and
``PYTHONDONTWRITEBYTECODE`` is dropped, so the first run of a side writes
its cache and later runs read it.  Without this a copied checkout can hold
stale ``.pyc`` files that, with writing off, are recompiled on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Metrics shown for each pair as it finishes; the summary shows them all.
PROGRESS = ("wall_s", "op_p50_ms", "op_p90_ms")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             pycache: Path) -> dict[str, float]:
    """The end-to-end metrics of one ``perfbench/run.py`` run in ``checkout``,
    its bytecode cached under ``pycache``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    last = proc.stdout.strip().splitlines()[-1]
    return {name: m["value"] for name, m in json.loads(last)["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), all three the value for one run."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """One line per metric: each side's median [quartiles] and the pairs the change won."""
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        rel = f"{(c2 - p2) / p2:+.1%}" if p2 else "n/a"
        lines.append(f"{name:16s} parent {p2:.6g} [{p1:.6g}-{p3:.6g}]  change {c2:.6g} "
                     f"[{c1:.6g}-{c3:.6g}]  {rel}  better in {won} of {len(parent)} pairs "
                     f"({metric['better']} is better)")
    return lines


def run_pairs(sides: dict[str, Path], pycaches: dict[str, Path], workload: str, pairs: int,
              seed: int, seconds: float) -> dict[str, list[dict]]:
    """Every run of ``pairs`` alternating pairs of one workload, by side."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], workload, seed + i, seconds, pycaches[side]))
        print(f"# {workload} pair {i + 1}/{pairs} seed {seed + i}, {order[0]} first: "
              + "  ".join(f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}"
                          for name in PROGRESS if name in runs["parent"][-1]),
              flush=True)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (this one)")
    parser.add_argument("--workload", required=True, metavar="NAME[,NAME...]",
                        help="workload, or a comma-separated list run one after another")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", type=Path, default=None,
                        help="write every run's metrics here, keyed by workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload.split(",")
    if not all(workloads):
        parser.error(f"--workload {args.workload!r} names an empty workload")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    every = {}
    cache_root = Path(tempfile.mkdtemp(prefix="pairs-pycache-"))
    try:
        pycaches = {side: cache_root / side for side in sides}
        for workload in workloads:
            every[workload] = run_pairs(sides, pycaches, workload, args.pairs, args.seed,
                                        args.seconds)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    for workload, runs in every.items():
        print(f"# workload={workload} pairs={args.pairs} seeds={args.seed}-"
              f"{args.seed + args.pairs - 1} seconds={args.seconds}")
        print("\n".join(summary(metrics, runs)))
    if args.json is not None:
        args.json.write_text(json.dumps({"seed": args.seed, "pairs": args.pairs,
                                         "seconds": args.seconds, "workloads": every}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
