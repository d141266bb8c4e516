"""Synchronous 1F1B pipeline schedule simulation over a stage plan.

Non-interleaved 1F1B: stage ``s`` runs ``min(m, pp - s)`` warmup forwards,
then strictly alternates backward/forward (backward first, which also
resolves same-instant ties in favor of backward), then drains the remaining
backwards. Dependencies:

* forward(s, i) needs forward(s-1, i)
* backward(s, i) needs forward(s, i) and backward(s+1, i)

Microbatches come as ``MicroBatches`` columns, ``tokens`` and
``useful_tokens``. Per-stage per-microbatch forward cost is
``stage_cost[s] * tokens``; backward cost is ``backward_ratio`` times that.
An optional constant ``comm_latency`` is charged on every cross-stage
dependency edge.

``bubble_fraction`` follows the bottleneck-stage convention:
``1 - ideal_time / makespan`` with ``ideal_time`` the busy time of the
busiest stage. ``idle_fraction`` additionally reports the idle share across
the whole stage grid, which is the quantity that grows when work piles onto
one stage.

The simulator runs each op once, in a fixed tick order, into flat arrays of
op start and end times per stage in ``ScheduleResult``; the timeline CSV
lines are formatted from them only when a caller asks (``timeline_rows()``),
so a run that only reads the summary never pays for them.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ConfigError, EmptyMicrobatchError, InvalidSpecError
from .packing import Packing, pack
from .sharding import (EncoderSpec, ParallelLayout, StagePlan, left_sum, naive_plan, plan_balanced_stages,
                       plan_imbalance)
from .workload import WorkloadTrace


@dataclass(frozen=True)
class MicroBatches:
    """Pipeline work items as columns. Item ``i`` costs ``tokens[i]``, the
    physical batch width (capacity for padded batches), and counts
    ``useful_tokens[i]``, which excludes padding and is what throughput
    counts. ``len()`` is the item count."""

    tokens: Sequence[int]
    useful_tokens: Sequence[int]

    def __post_init__(self):
        if len(self.tokens) != len(self.useful_tokens):
            raise InvalidSpecError("tokens and useful_tokens must have one entry per microbatch")
        for i, (tokens, useful) in enumerate(zip(self.tokens, self.useful_tokens)):
            if not 1 <= tokens <= sys.float_info.max:
                raise InvalidSpecError(f"microbatch {i}: tokens must be >= 1 and a finite float")
            if not 0 <= useful <= tokens:
                raise InvalidSpecError(f"microbatch {i}: useful_tokens must be in [0, tokens]")

    def __len__(self) -> int:
        return len(self.tokens)


def microbatches_from_batches(packing: Packing) -> MicroBatches:
    """Padded batches cost their full capacity; packed batches cost what they hold."""
    used = packing.used
    return MicroBatches([packing.capacity] * len(used) if packing.padded else used, used)


@dataclass(frozen=True)
class ScheduleResult:
    """One simulated schedule. ``op_starts[s]`` and ``op_ends[s]`` hold stage
    ``s``'s op times in ``stage_op_order``; the timelines are built from them."""

    makespan: float
    ideal_time: float
    bubble_fraction: float
    idle_fraction: float
    throughput: float
    stage_busy: tuple[float, ...]
    op_starts: tuple[array, ...]
    op_ends: tuple[array, ...]

    def timeline_rows(self) -> list[str]:
        """The timeline CSV's data lines (stage, kind, start, end, microbatch),
        idle gaps included, each ending in ``"\\r\\n"``: the bytes ``csv.writer``
        writes for those rows. Each op end is formatted once: its text is also
        the start of the idle row or op that follows it, and an op that waited
        on another stage's op (with no comm latency, it starts at that op's
        end) looks its start text up among the ends. Such a start is above the
        stage's previous end, so it is never -0.0, and equal finite floats have
        equal ``repr``."""
        pp = len(self.op_starts)
        m = len(self.op_starts[0]) // 2
        makespan = self.makespan
        end_texts = [list(map(repr, ends)) for ends in self.op_ends]
        texts: dict[float, str] = {}
        for ends, stage_texts in zip(self.op_ends, end_texts):
            texts.update(zip(ends, stage_texts))
        text_of = texts.get
        rows: list[str] = []
        append = rows.append
        for s, starts, ends, stage_texts in zip(range(pp), self.op_starts, self.op_ends, end_texts):
            cursor, cursor_text = 0.0, "0.0"
            for op, start, end, end_text in zip(stage_op_order(pp, s, m), starts, ends, stage_texts):
                if start == cursor:
                    start_text = cursor_text
                else:
                    start_text = text_of(start) or repr(start)
                    if start > cursor:
                        append(f"{s},idle,{cursor_text},{start_text},\r\n")
                if op >= 0:
                    append(f"{s},F,{start_text},{end_text},{op}\r\n")
                else:
                    append(f"{s},B,{start_text},{end_text},{~op}\r\n")
                cursor, cursor_text = end, end_text
            if cursor < makespan:
                append(f"{s},idle,{cursor_text},{makespan!r},\r\n")
        return rows


def stage_op_order(pp: int, stage: int, m: int) -> list[int]:
    """The fixed 1F1B op sequence for one stage: warmup forwards, then
    alternating backward/forward, then the backward drain. Forward ``i`` is
    coded as ``i`` and backward ``i`` as ``~i`` (that is, ``-i - 1``)."""
    warmup = min(m, pp - stage)
    steady = [0] * (2 * (m - warmup))
    steady[0::2] = [~i for i in range(m - warmup)]
    steady[1::2] = range(warmup, m)
    return [*range(warmup), *steady, *(~i for i in range(m - warmup, m))]


def simulate_1f1b(
    plan: StagePlan,
    microbatches: MicroBatches,
    backward_ratio: float = 2.0,
    comm_latency: float = 0.0,
) -> ScheduleResult:
    """Run each op once, in the tick order of the unit-cost schedule (F = B = 1,
    no comm latency): forward ``i`` of stage ``s`` at tick ``s + i`` in warmup
    (``i < pp - s``), else ``s + 2i``; backward ``i`` at ``2pp - 1 - s + 2i``.
    Each op's dependencies (the stage's previous op, F(s-1, i), F(s, i),
    B(s+1, i)) lie on earlier ticks whatever the costs, so none checks
    readiness; its start is the latest of their finish times by ``>`` tests.
    Costs that take ``pp * makespan`` or the throughput out of the float range
    are an ``InvalidSpecError``, checked once after the walk.
    """
    if not microbatches:
        raise EmptyMicrobatchError("simulation needs at least one microbatch")
    if not 0 < backward_ratio < math.inf:
        raise InvalidSpecError(f"backward_ratio must be finite and > 0, got {backward_ratio}")
    if not 0 <= comm_latency < math.inf:
        raise InvalidSpecError(f"comm_latency must be finite and >= 0, got {comm_latency}")

    pp = plan.layout.pp
    m = len(microbatches)
    tokens = microbatches.tokens
    f_end = [[0.0] * m for _ in range(pp)]
    b_end = [[0.0] * m for _ in range(pp)]
    starts = tuple(array("d") for _ in range(pp))
    ends = tuple(array("d") for _ in range(pp))
    # per stage: index, cost, finish lists (own F and B, upstream F, downstream B), appenders, ends
    stages = [
        (s, plan.stage_cost[s], f_end[s], b_end[s],
         f_end[s - 1] if s > 0 else None, b_end[s + 1] if s < pp - 1 else None,
         starts[s].append, ends[s].append, ends[s])
        for s in range(pp)
    ]

    for t in range(pp):  # warmup: stage s runs forward t - s
        for s, cost, fe, be, prev_fe, next_be, add_start, add_end, en in stages[:t + 1]:
            i = t - s
            if i < m:
                ready = en[-1] if i else 0.0
                if prev_fe is not None:
                    dep = prev_fe[i] + comm_latency
                    if dep > ready:  # ready = max(ready, dep), bit for bit
                        ready = dep
                fe[i] = free = ready + cost * tokens[i]
                add_start(ready)
                add_end(free)
    parity = [(stages[p::2], stages[1 - p::2]) for p in (0, 1)]
    for t in range(pp, 2 * (m + pp - 1)):  # forwards at s = t (mod 2), backwards elsewhere
        forwards, backwards = parity[t & 1]
        u = t + 1 - 2 * pp  # backward i runs at tick 2pp - 1 - s + 2i: i = (u + s) / 2
        for s, cost, fe, be, prev_fe, next_be, add_start, add_end, en in forwards:
            i = (t - s) >> 1
            if pp - s <= i < m:
                ready = en[-1]
                if prev_fe is not None:
                    dep = prev_fe[i] + comm_latency
                    if dep > ready:
                        ready = dep
                fe[i] = free = ready + cost * tokens[i]
                add_start(ready)
                add_end(free)
        for s, cost, fe, be, prev_fe, next_be, add_start, add_end, en in backwards:
            i = (u + s) >> 1
            if 0 <= i < m:
                ready = en[-1]
                dep = fe[i]
                if dep > ready:
                    ready = dep
                if next_be is not None:
                    dep = next_be[i] + comm_latency
                    if dep > ready:
                        ready = dep
                be[i] = free = ready + backward_ratio * (cost * tokens[i])
                add_start(ready)
                add_end(free)

    makespan = max(max(en) for en in ends)
    # pp * makespan bounds the stages' summed busy time: finite, it keeps idle_fraction finite
    grid_time = pp * makespan
    throughput = plan.layout.dp * sum(microbatches.useful_tokens) / makespan
    if not (grid_time < math.inf and throughput < math.inf):
        raise InvalidSpecError(f"the schedule leaves the float range: makespan {makespan!r} "
                               f"on {pp} stages, throughput {throughput!r}")
    busy = tuple(left_sum(map(operator.sub, en, st)) for st, en in zip(starts, ends))
    ideal = max(busy)
    return ScheduleResult(
        makespan=makespan,
        ideal_time=ideal,
        bubble_fraction=1.0 - ideal / makespan,
        idle_fraction=1.0 - left_sum(busy) / grid_time,
        throughput=throughput,
        stage_busy=busy,
        op_starts=starts,
        op_ends=ends,
    )


def bubble_fraction_analytic(pp: int, m: int) -> float:
    """Closed-form 1F1B bubble fraction for uniform stage costs."""
    if pp < 1 or m < 1:
        raise InvalidSpecError(f"pp and m must be >= 1, got pp={pp}, m={m}")
    return (pp - 1) / (m + pp - 1)


PLAN_POLICIES = {
    "naive": naive_plan,
    "balanced": plan_balanced_stages,
}

BASELINE_CELL = ("padded", "naive")

COMPARISON_CSV_FIELDS = [
    "layout", "packing_policy", "plan_policy", "batch_count", "fill_fraction",
    "max_stage_cost", "imbalance", "makespan", "bubble_fraction", "idle_fraction",
    "throughput", "ratio_vs_baseline",
]


def compare_configs(
    trace: WorkloadTrace,
    capacity: int,
    encoders: Sequence[EncoderSpec],
    llm_layer_costs: Sequence[float],
    layouts: Sequence[ParallelLayout],
    packing_policies: Sequence[str] = ("padded", "stream", "ffd"),
    plan_policies: Sequence[str] = ("naive", "balanced"),
    backward_ratio: float = 2.0,
    comm_latency: float = 0.0,
) -> tuple[list[dict], list[ScheduleResult]]:
    """Run packing x planning x simulation over every cell and normalize each
    cell's throughput by the (padded, naive) baseline of the same layout.

    Returns each cell's ``comparison.csv`` row (a dict keyed by
    ``COMPARISON_CSV_FIELDS``) and its schedule, both in cell order: layouts,
    then packing policies, then plan policies, each as given. Per layout, the
    requested cells are simulated, then the baseline cell if not among them.
    """
    if not layouts:
        raise ConfigError("at least one layout is required")
    for p in plan_policies:
        if p not in PLAN_POLICIES:
            raise ConfigError(f"unknown plan policy {p!r}", policy=p)

    cells = list(dict.fromkeys([(p, pl) for p in packing_policies for pl in plan_policies] + [BASELINE_CELL]))
    pack_names = list(dict.fromkeys(list(packing_policies) + [BASELINE_CELL[0]]))
    plan_names = list(dict.fromkeys(list(plan_policies) + [BASELINE_CELL[1]]))
    packed = {name: pack(trace, capacity, name) for name in pack_names}
    microbatches = {name: microbatches_from_batches(batches) for name, (batches, _) in packed.items()}

    rows: list[dict] = []
    schedules: list[ScheduleResult] = []
    for layout in layouts:
        plans = {name: PLAN_POLICIES[name](encoders, llm_layer_costs, layout) for name in plan_names}
        results = {
            (pname, plname): simulate_1f1b(plans[plname], microbatches[pname], backward_ratio, comm_latency)
            for pname, plname in cells
        }
        base_thr = results[BASELINE_CELL].throughput
        for pname in packing_policies:
            report = packed[pname][1]
            for plname in plan_policies:
                plan, result = plans[plname], results[(pname, plname)]
                rows.append({
                    "layout": layout.label(),
                    "packing_policy": pname,
                    "plan_policy": plname,
                    "batch_count": report.batch_count,
                    "fill_fraction": report.fill_fraction,
                    "max_stage_cost": max(plan.stage_cost),
                    "imbalance": plan_imbalance(plan),
                    "makespan": result.makespan,
                    "bubble_fraction": result.bubble_fraction,
                    "idle_fraction": result.idle_fraction,
                    "throughput": result.throughput,
                    "ratio_vs_baseline": result.throughput / base_thr,
                })
                schedules.append(result)
    return rows, schedules
