"""Outside-in span tracing of omnisched's layers.

``install`` replaces each traced function at the name its caller looks it up
by (module globals, the policy tables, a class attribute) with a wrapper that
records a span (name, start, end, parent) in memory and bumps the layer's
counters. Nothing in ``src/`` changes. A span's self time is its duration
minus the time its child spans cover; calls are single-threaded and nested,
so the children never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

# Span name -> per-layer metric that receives the span's self time.
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "cli.config": "cli.config_s",
    "cli.write_csv": "cli.write_csv_s",
    "cli.write_json": "cli.write_json_s",
    "workload.load_trace": "workload.load_trace_s",
    "workload.generate_trace": "workload.generate_trace_s",
    "workload.trace_stats": "workload.trace_stats_s",
    "packing.ffd": "packing.ffd_s",
    "packing.stream": "packing.stream_s",
    "packing.padded": "packing.padded_s",
    "sharding.balanced": "sharding.balanced_s",
    "sharding.naive": "sharding.naive_s",
    "pipeline.compare_configs": "pipeline.compare_configs_self_s",
    "pipeline.simulate_1f1b": "pipeline.simulate_1f1b_s",
    "pipeline.timeline_rows": "pipeline.timeline_rows_s",
    "moe.simulate_routing": "moe.simulate_routing_s",
    "moe.draw": "moe.draw_s",
    "moe.route_batch": "moe.route_batch_s",
    "moe.aux_loss": "moe.aux_loss_s",
    "moe.bias_update": "moe.bias_update_s",
    "moe.report_rows": "moe.report_rows_s",
    "memsim.events": "memsim.events_s",
    "memsim.simulate_allocator": "memsim.simulate_allocator_s",
}

# Counters and derived ratios, with their units. ``trace.*`` and
# ``cli.out_bytes`` are filled in by the benchmark around the traced call.
COUNT_METRICS = {
    "packing.ffd_calls": "count",
    "packing.batches_ffd": "count",
    "packing.fill_ffd": "frac",
    "pipeline.simulate_calls": "count",
    "pipeline.sim_ops": "count",
    "pipeline.us_per_sim_op": "us",
    "sharding.balanced_calls": "count",
    "sharding.units": "count",
    "moe.tokens_routed": "count",
    "moe.ns_per_token": "ns",
    "memsim.events": "count",
    "memsim.reuse_hit_frac": "frac",
    "workload.samples": "count",
    "cli.csv_rows": "count",
    "cli.out_bytes": "bytes",
    "trace.run_s": "s",
    "trace.overhead_frac": "frac",
}

PER_LAYER_UNITS = {**{m: "s" for m in SELF_TIME_METRIC.values()}, **COUNT_METRICS}


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``count(counts, args, result)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self seconds summed per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += end - start - children
        return dict(totals)

    def inclusive_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can fill; absent layers read 0."""
        out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
        for name, seconds in self.self_times().items():
            out[SELF_TIME_METRIC[name]] += seconds
        c = self.counts
        out.update({
            "packing.ffd_calls": c["ffd_calls"],
            "packing.batches_ffd": c["batches_ffd"],
            "packing.fill_ffd": c["fill_ffd"],
            "pipeline.simulate_calls": c["simulate_calls"],
            "pipeline.sim_ops": c["sim_ops"],
            "pipeline.us_per_sim_op": (
                out["pipeline.simulate_1f1b_s"] * 1e6 / c["sim_ops"] if c["sim_ops"] else 0.0
            ),
            "sharding.balanced_calls": c["balanced_calls"],
            "sharding.units": c["units"],
            "moe.tokens_routed": c["tokens_routed"],
            "moe.ns_per_token": (
                self.inclusive_time("moe.simulate_routing") * 1e9 / c["tokens_routed"]
                if c["tokens_routed"] else 0.0
            ),
            "memsim.events": c["events"],
            "memsim.reuse_hit_frac": c["reuse_hits"] / c["allocs"] if c["allocs"] else 0.0,
            "workload.samples": c["samples"],
            "cli.csv_rows": c["csv_rows"],
        })
        return out


def _count_ffd(c, args, result):
    batches, report = result
    c["ffd_calls"] += 1
    c["batches_ffd"] = len(batches)
    c["fill_ffd"] = report.fill_fraction


def _count_simulate(c, args, result):
    plan, microbatches = args[0], args[1]
    c["simulate_calls"] += 1
    c["sim_ops"] += 2 * len(microbatches) * plan.layout.pp


def _count_balanced(c, args, result):
    encoders, layers = args[0], args[1]
    c["balanced_calls"] += 1
    c["units"] = sum(len(e.unit_costs) for e in encoders) + len(layers)


def _count_routing(c, args, result):
    c["tokens_routed"] += args[2] * args[3]  # tokens_per_step * steps


def _count_events(c, args, result):
    c["events"] += len(result)


def _count_allocator(c, args, result):
    c["reuse_hits"] += result.reuse_hits
    c["allocs"] += result.reuse_hits + result.new_blocks


def _count_samples(c, args, result):
    c["samples"] = len(result)


def _count_rows(c, args, result):
    c["csv_rows"] += len(args[2])


def install(tracer: Tracer) -> Callable:
    """Patch omnisched's layers to report to ``tracer``; returns the traced ``cli.main``."""
    from omnisched import cli, config, memsim, moe, packing, pipeline

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    for key, fn in list(packing.POLICIES.items()):
        packing.POLICIES[key] = tracer.wrap(f"packing.{key}", fn, _count_ffd if key == "ffd" else None)
    plan_counts = {"balanced": _count_balanced}
    for key, fn in list(pipeline.PLAN_POLICIES.items()):
        pipeline.PLAN_POLICIES[key] = tracer.wrap(f"sharding.{key}", fn, plan_counts.get(key))
    patch(cli, "plan_balanced_stages", "sharding.balanced", _count_balanced)
    patch(cli, "naive_plan", "sharding.naive")

    patch(pipeline, "simulate_1f1b", "pipeline.simulate_1f1b", _count_simulate)
    patch(pipeline.ScheduleResult, "timeline_rows", "pipeline.timeline_rows")
    patch(cli, "compare_configs", "pipeline.compare_configs")

    patch(moe, "simulate_routing", "moe.simulate_routing", _count_routing)
    patch(moe.GaussianLogitSource, "draw", "moe.draw")
    for attr in ("route_batch", "aux_loss", "bias_update"):
        patch(moe, attr, f"moe.{attr}")
    patch(moe, "load_report_rows", "moe.report_rows")

    patch(memsim, "events_from_samples", "memsim.events", _count_events)
    patch(memsim, "events_from_batches", "memsim.events", _count_events)
    patch(memsim, "simulate_allocator", "memsim.simulate_allocator", _count_allocator)

    patch(config, "load_trace", "workload.load_trace", _count_samples)
    patch(config, "generate_trace", "workload.generate_trace", _count_samples)
    patch(cli, "trace_stats", "workload.trace_stats")

    for attr in ("_config_from_args", "build_config", "load_config_file", "reproduce_scenario_doc"):
        patch(cli, attr, "cli.config")
    patch(cli, "_write_csv", "cli.write_csv", _count_rows)
    patch(cli, "_write_json", "cli.write_json")
    return tracer.wrap("cli.main", cli.main)
