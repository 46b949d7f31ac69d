"""Spans recorded around calls into the package's layers, and the per-layer
metrics derived from them.

The program has no tracing of its own yet, so the traced worker wraps the
public functions of each module from here: every package module that
imported a wrapped function by name gets the wrapper, so calls between
layers are seen too.  Nothing under ``src/`` changes.  A span is
``[name, start, end, parent, op, attrs]``: ``parent`` indexes the span that
was open when it started (-1 for none) and ``op`` is the operation index.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

#: Operation indices at or above this belong to the probe, not the workload.
PROBE_BASE = 1_000_000

# (module, attribute, span name); "Class.method" attributes wrap methods.
_TARGETS = [
    ("distributions", "Poisson.cdf", "distributions.cdf_sf"),
    ("distributions", "Poisson.sf", "distributions.cdf_sf"),
    ("distributions", "Binomial.cdf", "distributions.cdf_sf"),
    ("distributions", "Binomial.sf", "distributions.cdf_sf"),
    ("distributions", "NegativeBinomial.cdf", "distributions.cdf_sf"),
    ("distributions", "NegativeBinomial.sf", "distributions.cdf_sf"),
    ("distributions", "Poisson.logpmf", "distributions.logpmf"),
    ("distributions", "Binomial.logpmf", "distributions.logpmf"),
    ("distributions", "NegativeBinomial.logpmf", "distributions.logpmf"),
    ("distributions", "CountDistribution.support_bound", "distributions.support_bound"),
    ("rounding", "rounded_pmf", "rounding.rounded_pmf"),
    ("rounding", "rounded_logpmf", "rounding.rounded_logpmf"),
    ("rounding", "rounded_moments_series", "rounding.moments_series"),
    ("rounding", "rounded_moments_poisson", "rounding.moments_series"),
    ("rounding", "rounded_moments_binomial", "rounding.moments_series"),
    ("rounding", "round_count", "rounding.round_count"),
    ("sampling", "rng_substream", "sampling.rng_substream"),
    ("sampling", "sample_count", "sampling.sample_count"),
    ("estimation", "numeric_mle", "estimation.numeric_mle"),
    ("estimation", "poisson_mle_closed", "estimation.poisson_mle_closed"),
    ("estimation", "exact_mse", "estimation.exact_mse"),
    ("estimation", "mse_ratio_curve", "estimation.mse_ratio_curve"),
    ("estimation", "monte_carlo_mse", "estimation.monte_carlo_mse"),
    ("simulate", "run_mse_experiment", "simulate.run_mse_experiment"),
    ("applications", "true_significance", "applications.true_significance"),
    ("applications", "binned_binomial_test", "applications.binned_binomial_test"),
    ("applications", "excess_moments", "applications.excess_moments"),
    ("applications", "excess_point_estimates", "applications.excess_point_estimates"),
    ("tableio", "write_csv", "tableio.write_csv"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
]

_MODULES = ("distributions", "rounding", "sampling", "estimation", "simulate",
            "applications", "tableio", "cli")


def _pmf_attrs(result, args, kwargs):
    probs = result.probs
    return {"entries": int(probs.size), "useful": int(np.count_nonzero(probs > 1e-300)),
            "bytes": int(probs.nbytes)}


def _mc_attrs(result, args, kwargs):
    return {"reps": int(args[3]), "estimators": len(list(args[2]))}


_ATTRS = {"rounding.rounded_pmf": _pmf_attrs, "estimation.monte_carlo_mse": _mc_attrs}


class Recorder:
    """In-memory span list with a stack of open spans; off until ``enabled``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.enabled = False

    def open(self, name: str, attrs=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, attrs])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int, attrs=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if attrs:
            span[5] = {**(span[5] or {}), **attrs}
        self.stack.pop()

    def wrap(self, name: str, fn):
        rec = self
        on_result = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            index = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec.close(index, {"error": type(exc).__name__})
                raise
            rec.close(index, on_result(result, args, kwargs) if on_result else None)
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(rec: Recorder) -> None:
    """Replace every target, wherever the package bound it, by its wrapper.

    Targets the package no longer has are skipped, so a refactored program
    still runs traced; their metrics then read 0."""
    import argparse
    import importlib

    import roundedcounts

    modules = {name: importlib.import_module(f"roundedcounts.{name}") for name in _MODULES}
    namespaces = [roundedcounts, *modules.values()]
    for module_name, attr, span_name in _TARGETS:
        owner = modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is not None and method in vars(cls):
                setattr(cls, method, rec.wrap(span_name, vars(cls)[method]))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapper = rec.wrap(span_name, original)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)

    # Each call of an estimator function inside a Monte Carlo cell is one
    # distinct (estimator, u) evaluation, because the cell caches the rest.
    estimation = modules["estimation"]
    make_estimator = getattr(estimation, "_estimator_fn", None)
    if make_estimator is not None:
        def counted_estimator(name, model, scheme):
            return rec.wrap("estimation.estimator", make_estimator(name, model, scheme))

        estimation._estimator_fn = counted_estimator

    argparse.ArgumentParser.parse_args = rec.wrap("cli.parse_args",
                                                  argparse.ArgumentParser.parse_args)


def read(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def derive(spans: list[list]) -> tuple[dict, set]:
    """Per-layer metrics of the workload's spans.

    A time metric whose layer the workload never reached is taken from the
    probe's spans instead, so that every reported time is a measured one;
    the names of those metrics are returned as the second value."""
    work = [s for s in spans if s[4] < PROBE_BASE]
    probe = [s for s in spans if s[4] >= PROBE_BASE]
    metrics: dict = {}
    from_probe: set = set()

    def durations(group, name):
        return [s[2] - s[1] for s in group if s[0] == name]

    def timed(metric, name, q, scale, group_fn=durations):
        values = group_fn(work, name)
        if not values:
            values = group_fn(probe, name)
            from_probe.add(metric)
        metrics[metric] = _pct(values, q) * scale

    def count(name):
        return sum(1 for s in work if s[0] == name)

    us, ms = 1e6, 1e3
    metrics["distributions.cdf_sf.calls"] = count("distributions.cdf_sf")
    timed("distributions.cdf_sf.p50_us", "distributions.cdf_sf", 50, us)
    timed("distributions.support_bound.p50_us", "distributions.support_bound", 50, us)
    timed("distributions.logpmf.p50_us", "distributions.logpmf", 50, us)
    timed("rounding.rounded_logpmf.p50_us", "rounding.rounded_logpmf", 50, us)

    pmfs = [s for s in work if s[0] == "rounding.rounded_pmf" and s[5] and "entries" in s[5]]
    entries = sum(s[5]["entries"] for s in pmfs)
    metrics["rounding.rounded_pmf.calls"] = count("rounding.rounded_pmf")
    timed("rounding.rounded_pmf.p50_us", "rounding.rounded_pmf", 50, us)
    timed("rounding.rounded_pmf.p90_ms", "rounding.rounded_pmf", 90, ms)
    metrics["rounding.rounded_pmf.entries"] = entries
    metrics["rounding.rounded_pmf.useful_ratio"] = (
        sum(s[5]["useful"] for s in pmfs) / entries if entries else 0.0)
    metrics["rounding.rounded_pmf.mbytes_computed"] = sum(s[5]["bytes"] for s in pmfs) / 1e6

    timed("rounding.moments_series.p50_us", "rounding.moments_series", 50, us)
    metrics["rounding.moments_series.failed"] = sum(
        1 for s in work if s[0] == "rounding.moments_series" and s[5] and "error" in s[5])

    timed("sampling.rng_substream.p50_us", "sampling.rng_substream", 50, us)
    timed("sampling.sample_count.p50_us", "sampling.sample_count", 50, us)
    timed("rounding.round_count.p50_us", "rounding.round_count", 50, us)
    metrics["sampling.draws"] = count("sampling.sample_count")

    timed("simulate.cell_p50_ms", "simulate.run_mse_experiment", 50, ms)

    def per_replicate(group, name):
        cells = [s for s in group if s[0] == name and s[5] and "reps" in s[5]]
        reps = sum(s[5]["reps"] for s in cells)
        return [sum(s[2] - s[1] for s in cells) / reps] if reps else []

    timed("simulate.per_replicate_us", "estimation.monte_carlo_mse", 50, us, per_replicate)
    cells = {i for i, s in enumerate(spans)
             if s[0] == "estimation.monte_carlo_mse" and s[4] < PROBE_BASE and s[5] and "reps" in s[5]}
    requested = sum(spans[i][5]["reps"] * spans[i][5]["estimators"] for i in cells)
    evaluated = sum(1 for s in spans if s[0] == "estimation.estimator" and s[3] in cells)
    metrics["estimation.mc.distinct_u_ratio"] = evaluated / requested if requested else 0.0

    metrics["estimation.numeric_mle.calls"] = count("estimation.numeric_mle")
    timed("estimation.numeric_mle.p50_ms", "estimation.numeric_mle", 50, ms)
    timed("estimation.numeric_mle.p90_ms", "estimation.numeric_mle", 90, ms)
    metrics["estimation.mse_ratio_curve.fits"] = sum(
        1 for s in work if s[0] == "estimation.numeric_mle"
        and _has_ancestor(spans, s, "estimation.mse_ratio_curve"))
    timed("estimation.exact_mse.p50_ms", "estimation.exact_mse", 50, ms)
    timed("estimation.poisson_mle_closed.p50_us", "estimation.poisson_mle_closed", 50, us)

    timed("applications.true_significance.p50_ms", "applications.true_significance", 50, ms)
    timed("applications.binned_binomial_test.p50_ms", "applications.binned_binomial_test", 50, ms)
    timed("applications.excess_moments.p50_us", "applications.excess_moments", 50, us)

    def parse_times(group, name):
        # Parent fields index the full span list, so look the parents up there.
        in_probe = group is probe
        per_main: dict = {}
        for s in spans:
            if (s[0] in ("cli.build_parser", "cli.parse_args") and s[3] >= 0
                    and spans[s[3]][0] == "cli.main" and (s[4] >= PROBE_BASE) == in_probe):
                per_main[s[3]] = per_main.get(s[3], 0.0) + s[2] - s[1]
        return list(per_main.values())

    timed("cli.parse_ms", "cli.main", 50, ms, parse_times)
    timed("cli.main.p50_ms", "cli.main", 50, ms)
    timed("tableio.write_csv.p50_us", "tableio.write_csv", 50, us)
    metrics["tableio.bytes_written"] = sum(
        s[5].get("bytes_written", 0) for s in work if s[0] == "op" and s[5])

    selfs = self_times(spans)
    for module in _MODULES:
        metric = f"{module}.self_ms"
        total = sum(t for (m, probe_op), t in selfs.items() if m == module and not probe_op)
        if total == 0.0:
            total = sum(t for (m, probe_op), t in selfs.items() if m == module and probe_op)
            from_probe.add(metric)
        metrics[metric] = total * ms
    return metrics, from_probe


def _has_ancestor(spans, span, name) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def self_times(spans: list[list]) -> dict:
    """Seconds of each module's spans not covered by their child spans,
    keyed by (module, from the probe)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict = {}
    for i, s in enumerate(spans):
        key = (s[0].split(".")[0], s[4] >= PROBE_BASE)
        out[key] = out.get(key, 0.0) + (s[2] - s[1]) - child[i]
    return out
