"""Run one workload in this interpreter and print its metrics.

Started by ``run.py``, which pins the environment first; run that, not
this.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``:

* untraced (``--trace 0``): the end-to-end metrics ``setup_s`` (median of
  many complete set-ups spread over the run), ``op_mean_ms`` (the 10th
  percentile, over the stretches of ops that follow the set-ups, of each
  stretch's mean op latency) and ``peak_rss_mb``.  The lines before it
  also give the fastest op, the op latency median and 90th percentile,
  ops per second of the timed phase and the error rate, which are not
  steady enough on a shared host to bound a change (see ``NOTES.md``);
* traced (``--trace 1``): the per-layer metrics.  Ops alternate between
  untraced and traced; per-layer figures come from the traced ones, with
  ``repro.obs`` switched on only while they run, and ``trace.overhead_frac``
  is the median ratio of each traced op to the untraced op before it, less
  one.  The spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro import obs
from repro.engine.executor import shutdown_pools

from spans import NULL_TRACER, Tracer, layer_of, summarise
from workloads import WORKLOADS, Workload

OUT = Path(__file__).resolve().parent / "out"

#: ops per run, at least: ten samples lie beyond the printed 90th percentile.
MIN_OPS = 100
#: complete set-ups per untraced run, each followed by a stretch of ops.
SEGMENTS = 21
#: ``op_mean_ms`` is this percentile of the stretches' mean op latencies.
MEAN_PERCENTILE = 10
#: the timed loop stops here even short of MIN_OPS, so a run ends in time.
MAX_LOOP_SECONDS = 100.0

#: span names reported as ``<name>_ms`` (inclusive milliseconds per op).
SPAN_METRICS = (
    "relational.load", "relational.insert",
    "constraints.register",
    "discovery.discover",
    "detection.detect", "detection.redetect",
    "detection.inc_insert", "detection.inc_update", "detection.inc_delete",
    "repair.propose", "repair.apply", "repair.inc",
    "sql.parse", "sql.plan", "sql.execute", "sql.read",
    "sql.q.scan_group", "sql.q.group_having", "sql.q.topk", "sql.q.join2",
    "sql.q.join2_fold", "sql.q.join3", "sql.q.join3_fold",
    "cqa.certain",
)
#: layers reported as ``<layer>.self_ms``: span time minus child spans.
LAYERS = ("bench", "relational", "constraints", "discovery", "detection",
          "repair", "sql", "cqa")
#: repro.obs counters reported per op.
OBS_COUNTERS = (
    "cache.index.rebuild", "cache.bridge.rebuilt", "cache.bridge.valid",
    "cache.order.build", "cache.order.reuse",
    "sql.plan.code", "sql.plan.join", "sql.plan.multiway",
    "sql.plan.factorised", "sql.plan.row",
    "repair.passes", "repair.changes",
)
#: repro.obs histograms whose totals are reported per op.
OBS_TOTALS = ("sql.multiway.candidates", "sql.factorised.partials")
#: counts the workloads record themselves, per op.
WORKLOAD_COUNTS = ("discovery.cfds_found", "detection.violations",
                   "detection.sql_statements")


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def environment(seed: int) -> dict[str, Any]:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "hash_seed": os.environ.get("PYTHONHASHSEED"), "seed": seed}


def percentile(values: list[float], percent: int) -> float:
    """The *percent*-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[percent - 1]


class GCTimer:
    """Sums garbage-collector pause time while :attr:`on` is set."""

    def __init__(self) -> None:
        self.on = False
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._start = perf_counter()
        elif self.on:
            self.seconds += perf_counter() - self._start


def passes(check: Callable[[], bool]) -> bool:
    """Whether *check* returns true; an exception counts as a failure."""
    try:
        return check()
    except Exception:
        traceback.print_exc()
        return False


def run_op(workload: Workload, tracer: Any) -> tuple[float, bool]:
    """One op: its latency and whether its output checked out."""
    start = perf_counter()
    with tracer.span("op"):
        ok = passes(lambda: workload.op(tracer))
    return perf_counter() - start, ok


def check_due(workload: Workload, done: int) -> bool:
    """Whether the workload's untimed check follows the *done*-th op."""
    return bool(workload.check_every) and done % workload.check_every == 0


def build(name: str, seed: int) -> tuple[Workload, float]:
    """A freshly set-up workload and the seconds its set-up took."""
    gc.collect()
    start = perf_counter()
    workload = WORKLOADS[name](seed)
    workload.setup()
    return workload, perf_counter() - start


def verified(workload: Workload) -> bool:
    try:
        return passes(workload.verify_setup)
    finally:
        shutdown_pools()


def untraced(name: str, seed: int, seconds: float, min_ops: int,
             segments: int) -> dict[str, Any]:
    """Ops in *segments* stretches, each after a fresh set-up.

    The host's slow phases last seconds, so many short stretches spread
    over the run are more likely to meet quiet moments.  Each stretch
    ends with the workload's untimed check.
    """
    setup_times: list[float] = []
    stretches: list[list[float]] = []
    failed = 0
    deadline = perf_counter() + MAX_LOOP_SECONDS
    for segment in range(segments):
        workload = None  # frees the previous state before the next set-up
        workload, setup_time = build(name, seed)
        setup_times.append(setup_time)
        if segment == 0:
            failed += not verified(workload)
        gc.collect()
        latencies: list[float] = []
        spent = 0.0
        while ((spent < seconds / segments or len(latencies) < -(-min_ops // segments))
               and perf_counter() < deadline):
            latency, ok = run_op(workload, NULL_TRACER)
            latencies.append(latency)
            spent += latency
            failed += not ok
            if check_due(workload, len(latencies)):
                failed += not passes(workload.check)
        failed += not passes(workload.check)
        stretches.append(latencies)
    latencies = [latency for stretch in stretches for latency in stretch]
    # past the deadline, later stretches run no ops
    means = sorted(statistics.fmean(stretch) for stretch in stretches if stretch)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_mean_ms": metric(percentile(means, MEAN_PERCENTILE) * 1000, "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    shown = {
        "op_min_ms": metric(min(latencies) * 1000, "ms"),
        "op_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "op_p90_ms": metric(percentile(latencies, 90) * 1000, "ms"),
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{name}-seed{seed}.json").write_text(json.dumps(
        {"environment": environment(seed), "metrics": metrics, "shown": shown,
         "setup_times_s": setup_times, "stretches_s": stretches}) + "\n",
        encoding="utf-8")
    return {"attempted": len(latencies), "failed": failed, "metrics": metrics,
            "shown": shown, "setup_times_s": setup_times}


def traced(name: str, seed: int, seconds: float, min_ops: int) -> dict[str, Any]:
    workload, _ = build(name, seed)
    failed = 0 if verified(workload) else 1
    tracer = Tracer()
    gc_timer = GCTimer()
    gc.callbacks.append(gc_timer)
    plain: list[float] = []
    with_trace: list[float] = []
    obs.reset()
    gc.collect()
    deadline = perf_counter() + MAX_LOOP_SECONDS
    try:
        while ((sum(plain) + sum(with_trace) < seconds
                or len(with_trace) < min_ops // 2)
               and perf_counter() < deadline):
            if len(plain) == len(with_trace):
                latency, ok = run_op(workload, NULL_TRACER)
                plain.append(latency)
            else:
                tracer.op_id = len(with_trace)
                obs.enable()
                gc_timer.on = True
                latency, ok = run_op(workload, tracer)
                gc_timer.on = False
                obs.disable()
                with_trace.append(latency)
            failed += not ok
            # checks run outside the traced window: their work is not the op's
            if check_due(workload, len(plain) + len(with_trace)):
                failed += not passes(workload.check)
        failed += not passes(workload.check)
    finally:
        gc.callbacks.remove(gc_timer)
        obs.disable()
    snapshot = obs.metrics()
    ops = len(with_trace)
    table = summarise(tracer.spans)
    metrics = layer_metrics(table, snapshot, workload.counts, ops)
    metrics["python.gc_ms"] = metric(gc_timer.seconds * 1000 / ops, "ms")
    # neighbouring ops share the host's speed of the moment, so compare pairs
    metrics["trace.overhead_frac"] = metric(statistics.median(
        traced_op / plain_op for plain_op, traced_op in zip(plain, with_trace)) - 1,
        "ratio")
    tracer.write(OUT / f"trace-{name}-seed{seed}.json",
                 {"environment": environment(seed), "traced_ops": ops,
                  "spans": table, "metrics": metrics, "obs": snapshot})
    return {"attempted": len(plain) + ops, "failed": failed, "metrics": metrics}


def layer_metrics(table: dict[str, dict[str, float]], snapshot: dict[str, Any],
                  counts: dict[str, float], ops: int) -> dict[str, Any]:
    """Per-op layer metrics from the span table and the obs snapshot."""
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]

    def share(part: str, events: tuple[str, ...]) -> float:
        total = sum(counters.get(event, 0) for event in events)
        return counters.get(part, 0) / total if total else 0.0

    metrics: dict[str, Any] = {}
    for name in SPAN_METRICS:
        total = table.get(name, {}).get("total_s", 0.0)
        metrics[f"{name}_ms"] = metric(total * 1000 / ops, "ms")
    self_s = dict.fromkeys(LAYERS, 0.0)
    for name, entry in table.items():
        self_s[layer_of(name)] += entry["self_s"]
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = metric(self_s[layer] * 1000 / ops, "ms")
    for name in OBS_COUNTERS:
        metrics[name] = metric(counters.get(name, 0) / ops, "count")
    for name in OBS_TOTALS:
        metrics[name] = metric(histograms.get(name, {}).get("total", 0.0) / ops, "count")
    for name in WORKLOAD_COUNTS:
        metrics[name] = metric(counts.get(name, 0) / ops, "count")
    metrics["discovery.partition_hit_frac"] = metric(share(
        "discovery.partition.cache_hit",
        ("discovery.partition.scan", "discovery.partition.product",
         "discovery.partition.cache_hit")), "ratio")
    metrics["cache.distance_hit_frac"] = metric(share(
        "cache.distance.hit", ("cache.distance.hit", "cache.distance.miss")), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops and one set-up: checks, not timings")
    args = parser.parse_args(argv)
    min_ops = 4 if args.smoke else MIN_OPS
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, min_ops)
        else:
            result = untraced(args.workload, args.seed, args.seconds, min_ops,
                              1 if args.smoke else SEGMENTS)
    finally:
        shutdown_pools()
    info = environment(args.seed)
    info.update(workload=args.workload, trace=args.trace,
                attempted=result["attempted"], failed=result["failed"])
    if "setup_times_s" in result:
        info["setup_times_s"] = result["setup_times_s"]
    print("# " + json.dumps(info), flush=True)
    shown = {**result["metrics"], **result.get("shown", {}),
             "error_rate": metric(result["failed"] / result["attempted"], "ratio")}
    for name, entry in shown.items():
        print(f"# {name:32} {entry['value']:14.6f} {entry['unit']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
