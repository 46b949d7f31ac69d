"""Compare two checkouts layer by layer, in one interpreter.

Loads ``src/roundedcounts`` of each checkout under its own package name
(``layers_parent`` and ``layers_change``), so both sides run in the same
process, on the same numpy and scipy, a few microseconds apart.  For each
call in a fixed list of layer calls it first checks that both sides
return the same result (``same``: arrays bit for bit, dataclasses field by
field), then times it in rounds.  In each
round each side times the call three times, each over a fixed number of
calls chosen so that the three take about ``ROUND_MS`` milliseconds, and
keeps the least.  The side that runs first alternates from round to round, so a
drift in the machine's load falls on both sides alike.  It prints each
side's minimum and median time per call and the number of rounds in which
the change was faster::

    python tools/layers.py --parent ../parent --change . --rounds 25

An end-to-end pair of ``tools/pairs.py`` runs fresh processes, whose
start-up and scheduling noise can hide, or fake, an effect of 5-10 % in a
layer; timed side by side in one process such an effect shows in every
round.  The script changes no file in either checkout.  Standard library
only, plus the package itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import statistics
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Milliseconds each side spends on one call in one round.
ROUND_MS = 15.0


def load(checkout: Path, name: str):
    """The package under ``checkout/src/roundedcounts``, imported as ``name``;
    it imports its own modules only relatively, so they load under it too."""
    package = checkout.resolve() / "src" / "roundedcounts"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None or spec.loader is None:
        raise SystemExit(f"error: no package at {package}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(rc) -> list[tuple[str, object]]:
    """(label, zero-argument call) for each timed layer call of package ``rc``;
    models and schemes are built here, outside the timed calls."""
    rounding = importlib.import_module(f"{rc.__name__}.rounding")
    poisson, small = rc.Poisson(1e5), rc.Poisson(20.0)
    binomial, negbin = rc.Binomial(15500, 0.3), rc.NegativeBinomial(5.0, 0.4)
    half_up, half_even = rc.RoundingScheme(5), rc.RoundingScheme(10, rc.HALF_EVEN)
    # Large-spread tables on both sides of the choice between their two routes.
    wide, wide_n31 = rc.Poisson(9_855_443.42), rc.Poisson(2_835_502.7)
    wide_binomial = rc.Binomial(29_973_776, 0.568)
    # An n = 7 table whose far upper edges make the pmf sums the cheaper
    # route, and a pmf-route table of 32,249 latent points, two chunks.
    far_n7, long_n7 = rc.Poisson(46_290), rc.Poisson(5_252_673.09)
    three, seven = rc.RoundingScheme(3, rc.HALF_EVEN), rc.RoundingScheme(7)
    thirty_one = rc.RoundingScheme(31)
    grid = (0.2, 0.35, 0.5, 0.65, 0.8)
    return [
        ("cdf Poisson(20) at 18", lambda: small.cdf(18)),
        ("sf Binomial(15500, 0.3) at 4700", lambda: binomial.sf(4700)),
        ("support_window Poisson(1e5)", lambda: poisson.support_window(1e-12)),
        ("support_window Binomial(15500, 0.3)", lambda: binomial.support_window(1e-12)),
        ("support_window NegativeBinomial(5, 0.4)", lambda: negbin.support_window(1e-12)),
        ("_block_logpmf Poisson(20) 18..22", lambda: rounding._block_logpmf(small, 18, 22)),
        ("_block_logpmf Poisson(20) 23..27", lambda: rounding._block_logpmf(small, 23, 27)),
        ("_block_logpmf Poisson(20) 3..7", lambda: rounding._block_logpmf(small, 3, 7)),
        ("numeric_mle poisson u=15 n=5", lambda: rc.numeric_mle(15, half_up, "poisson")),
        ("numeric_mle binomial u=20 n=10 trials=50",
         lambda: rc.numeric_mle(20, half_even, "binomial", trials=50)),
        ("rounded_pmf Poisson(20) n=5", lambda: rc.rounded_pmf(small, half_up)),
        ("rounded_pmf Binomial(15500, 0.3) n=10", lambda: rc.rounded_pmf(binomial, half_even)),
        ("rounded_pmf Poisson(9_855_443.42) n=3", lambda: rc.rounded_pmf(wide, three)),
        ("rounded_pmf Binomial(29_973_776, 0.568) n=31",
         lambda: rc.rounded_pmf(wide_binomial, thirty_one)),
        ("rounded_pmf Poisson(2_835_502.7) n=31", lambda: rc.rounded_pmf(wide_n31, thirty_one)),
        ("rounded_pmf Poisson(46_290) n=7", lambda: rc.rounded_pmf(far_n7, seven)),
        ("rounded_pmf Poisson(5_252_673.09) n=7", lambda: rc.rounded_pmf(long_n7, seven)),
        *[(f"true_significance {mode} m=20 n=5 x5",
           lambda mode=mode: rc.true_significance(20, 5, grid, 0.05, mode))
          for mode in ("misspecified-u", "exact-y", "binned-u")],
        ("binned_binomial_test u=50 m=20 n=5",
         lambda: rc.binned_binomial_test(50, 20, 5, 0.5, 0.05)),
    ]


def same(a, b) -> bool:
    """Whether two results are equal: arrays (anything with ``tobytes``) bit
    for bit and by shape, dataclasses field by field over the fields both
    sides have (a field the change adds is not compared), tuples and lists
    item by item, and anything else by ``repr``."""
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        names = {f.name for f in dataclasses.fields(a)} & {f.name for f in dataclasses.fields(b)}
        return all(same(getattr(a, name), getattr(b, name)) for name in names)
    if hasattr(a, "tobytes") and hasattr(b, "tobytes"):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    return repr(a) == repr(b)


def per_call(call, number: int, repeat: int = 1) -> float:
    """Seconds per call: the least over ``repeat`` timings of ``number`` calls
    each, garbage collection off, so that a burst of load on the machine
    inflates at most some of the timings."""
    return min(timeit.Timer(call).repeat(repeat, number)) / number


def compare(parent: list, change: list, rounds: int) -> None:
    """Print one line per call: each side's minimum and median per call, the
    relative change of the medians and the rounds the change won."""
    for (label, p_call), (_, c_call) in zip(parent, change):
        equal = same(p_call(), c_call())
        number = max(1, int(ROUND_MS / 3e3 / min(per_call(p_call, 20), per_call(c_call, 20))))
        times = {"parent": [], "change": []}
        for i in range(rounds):
            order = (("parent", p_call), ("change", c_call))
            for side, call in (order if i % 2 == 0 else order[::-1]):
                times[side].append(per_call(call, number, repeat=3))
        won = sum(c < p for p, c in zip(times["parent"], times["change"]))
        p_med, c_med = statistics.median(times["parent"]), statistics.median(times["change"])
        print(f"{label:44s} parent {min(times['parent']) * 1e6:9.2f} {p_med * 1e6:9.2f} us"
              f"  change {min(times['change']) * 1e6:9.2f} {c_med * 1e6:9.2f} us"
              f"  {(c_med - p_med) / p_med:+7.1%}  faster in {won:3d} of {rounds}"
              + ("" if equal else "  RESULTS DIFFER"), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="checkout of the change (this one)")
    parser.add_argument("--rounds", type=int, default=25)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent = cases(load(args.parent, "layers_parent"))
    change = cases(load(args.change, "layers_change"))
    print(f"# rounds={args.rounds} ms={ROUND_MS}  columns: minimum and median per call of "
          f"each side, change of the medians, rounds the change was faster")
    gc.collect()
    compare(parent, change, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
