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

The simulator runs each op once, in one tick order (forward ``i`` of stage
``s`` at tick ``s + 2i``, backward ``i`` at ``2pp - 1 - s + 2i``), summing
each stage's busy time as it goes. Only a recording walk (``record=True``,
as ``simulate``'s cells run it) also keeps flat arrays of op start and end
times per stage, from which ``timeline_rows()`` formats the timeline CSV lines;
``reproduce`` builds no op arrays. Each stage's forward and backward finish
times live in a ring of ``W`` slots, ``W`` the smallest power of two ``>= pp``:
1F1B has at most ``pp`` microbatches in flight per stage, so an unrecorded
walk's working set does not grow with the microbatch count.

The walk is generated once per ``(pp, record, uniform)``: straight-line code
per tick pair that keeps each stage's values in locals. Tick pairs
``pp - 1 .. m - 1`` have all ``2pp`` ops in range and run them bare; the
warm-up and drain pairs (every pair when ``m < pp``) run the same ops, each
under a test of its range. ``uniform`` (every ``tokens`` entry equal, as in
a padded cell) computes each stage's op costs once.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from operator import countOf

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
    counts. ``len()`` is the item count. Every entry is a Python ``int`` or
    ``float``, so results and CSV text hold Python floats: any other type (a
    numpy scalar, a ``bool``) is an ``InvalidSpecError`` naming the first
    such microbatch."""

    tokens: Sequence[int]
    useful_tokens: Sequence[int]

    def __post_init__(self):
        if len(self.tokens) != len(self.useful_tokens):
            raise InvalidSpecError("tokens and useful_tokens must have one entry per microbatch")
        for name, column in (("tokens", self.tokens), ("useful_tokens", self.useful_tokens)):
            if not {int, float}.issuperset(map(type, column)):
                i, x = next((i, x) for i, x in enumerate(column) if type(x) not in (int, float))
                raise InvalidSpecError(f"microbatch {i}: {name} must be a Python int or float, "
                                       f"got {type(x).__name__}")
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
    """One simulated schedule. In a recorded schedule ``op_starts[s]`` and
    ``op_ends[s]`` hold stage ``s``'s op times in ``stage_op_order``, and the
    timelines are built from them; an unrecorded one has ``()`` for both."""

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
        if not self.op_starts:
            raise InvalidSpecError("the schedule was not recorded (simulate_1f1b with record=False)")
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


@cache
def _walk(pp: int, record: bool, uniform: bool):
    """The walk of tick pairs ``0 .. m + pp - 2`` (ticks ``2k`` and
    ``2k + 1``), generated for ``pp`` stages. In tick pair ``k``, stage ``s``
    runs forward ``k - d`` with ``d = s // 2`` and backward ``k - d`` with
    ``d = pp - 1 - s // 2``, so an op is in range iff ``d <= k < m + d``.
    Pairs ``pp - 1 .. m - 1`` have all ``2pp`` ops in range and run the bare
    ops; the warm-up pairs before them and the drain pairs after run one
    body, emitted once, that tests each op's range first. Both bodies read
    ``tokens[k - d]`` and ring slot ``(k - d) & (W - 1)`` for ``d < pp``
    only: each tick pair computes them for ``d = 0`` and passes each down to
    ``d + 1`` for the next.

    Each stage's cost, last end, busy time, rings and (with ``record``) op
    time appenders are locals, and each op computes the same expressions in
    the same order: the ``>`` tests, ``ready + cost * tokens[i]``,
    ``backward_ratio * (cost * tokens[i])``, ``busy += end - ready``. With
    ``uniform`` (every ``tokens`` entry equal) each stage's ``cost *
    tokens[i]`` and ``backward_ratio * (cost * tokens[i])`` are the same
    float for every op, computed once. The walk returns each stage's last
    end and busy time. The source holds only fixed names and integer
    literals (``float()`` is ``0.0``)."""
    mask = (1 << (pp - 1).bit_length()) - 1  # W - 1, W the smallest power of two >= pp
    stages = range(pp)
    passed = "x" if uniform else "xt"  # the slot and width locals handed down from d - 1 to d
    lines = ["def walk(m, tokens, costs, beta, comm, starts, ends):"]
    for s in stages:
        if uniform:
            lines += [f"    f{s} = costs[{s}] * tokens[0]", f"    g{s} = beta * f{s}"]
        else:
            lines.append(f"    c{s} = costs[{s}]")
        # a ring slot is only read after the op it depends on wrote it
        lines += [f"    l{s} = b{s} = float()", f"    fe{s} = [0] * {mask + 1}", f"    be{s} = [0] * {mask + 1}"]
        if record:
            lines += [f"    sa{s} = starts[{s}].append", f"    ea{s} = ends[{s}].append"]
    if pp > 1:  # the first tick pair hands them down before any op has set them
        lines.append("    " + " = ".join(f"{v}{d}" for d in range(1, pp) for v in passed) + " = 0")

    def op(s: int, forward: bool) -> tuple[int, list[str]]:
        d = s // 2 if forward else pp - 1 - s // 2
        x = f"x{d}"
        if forward and s == 0:
            code = [f"r = l{s}"]
        elif forward:
            code = [f"q = fe{s - 1}[{x}] + comm", f"r = q if q > l{s} else l{s}"]
        else:
            code = [f"q = fe{s}[{x}]", f"r = q if q > l{s} else l{s}"]
            if s < pp - 1:
                code += [f"q = be{s + 1}[{x}] + comm", "if q > r: r = q"]
        if uniform:
            code.append(f"l{s} = r + {'f' if forward else 'g'}{s}")
        else:
            code.append(f"l{s} = r + c{s} * t{d}" if forward else f"l{s} = r + beta * (c{s} * t{d})")
        code += [f"{'fe' if forward else 'be'}{s}[{x}] = l{s}", f"b{s} += l{s} - r"]
        if record:
            code += [f"sa{s}(r)", f"ea{s}(l{s})"]
        return d, code

    # tick 2k + p: forwards at s = p (mod 2), then backwards
    ops = [op(s, forward) for p in (0, 1)
           for forward, parity in ((True, p), (False, 1 - p)) for s in stages[parity::2]]
    shift = [f"{v}{d} = {v}{d - 1}" for d in range(pp - 1, 0, -1) for v in passed]
    width = [] if uniform else ["t0 = tokens[k]"]
    guarded = [f"x0 = k & {mask}", *(f"if k < m: {line}" for line in width),
               *(line for d, code in ops for line in (f"if {d} <= k < m + {d}:", *("    " + c for c in code))),
               *shift]
    bare = [f"x0 = k & {mask}", *width, *(c for _, code in ops for c in code), *shift]
    # first the warm-up pairs tested, then the steady pairs bare; then the drain pairs tested
    lines += [f"    for lo, hi, n in ((0, {pp - 1}, m), (max({pp - 1}, m), m + {pp - 1}, 0)):",
              "        for k in range(lo, hi):", *("            " + line for line in guarded),
              f"        for k in range({pp - 1}, n):", *("            " + line for line in bare),
              f"    return [{', '.join(f'l{s}' for s in stages)}], [{', '.join(f'b{s}' for s in stages)}]"]
    namespace: dict = {}
    exec(compile("\n".join(lines) + "\n", f"<1F1B walk, pp={pp}>", "exec"), namespace)
    return namespace["walk"]


def simulate_1f1b(
    plan: StagePlan,
    microbatches: MicroBatches,
    backward_ratio: float = 2.0,
    comm_latency: float = 0.0,
    record: bool = True,
) -> ScheduleResult:
    """Run each op once, in the tick order of the unit-cost schedule (F = B = 1,
    no comm latency): forward ``i`` of stage ``s`` at tick ``s + 2i``, backward
    ``i`` at ``2pp - 1 - s + 2i``. A stage's forward ticks (``= s``) and
    backward ticks (``= s + 1``, mod 2) never meet, and sorting its ops by tick
    gives ``stage_op_order``. Each op's dependencies (the stage's previous op,
    F(s-1, i) at ``s - 1 + 2i``, F(s, i), B(s+1, i) at ``2pp - 2 - s + 2i``)
    lie on earlier ticks whatever the costs, so none checks readiness; its
    start is the latest of their finish times by ``>`` tests.

    The F and B finish times live in per-stage rings of ``W`` slots (``W``
    the smallest power of two ``>= pp``), microbatch ``i`` in slot
    ``i & (W - 1)``. That is enough: B(s, i), the last reader of F(s, i),
    runs at tick ``2pp - 1 - s + 2i``, before F(s, i + W) overwrites the slot
    at tick ``s + 2(i + W)`` (``W >= pp``), and B(s, i + W) overwrites B(s, i)
    at tick ``2pp - 1 - s + 2(i + W)``, after its reader B(s - 1, i) at
    ``2pp - s + 2i``.

    Each op adds ``end - start`` to its stage's busy time, in op order, and is
    the stage's last end; a stage's op ends never decrease, so the makespan is
    the latest last end. Only with ``record`` are the op times kept as well.

    Every tick runs in ``_walk``'s code generated for ``pp``, which also
    allocates the rings.

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
    starts = tuple(array("d") for _ in range(pp)) if record else ()
    ends = tuple(array("d") for _ in range(pp)) if record else ()
    uniform = countOf(tokens, tokens[0]) == m
    last, busy = _walk(pp, record, uniform)(m, tokens, plan.stage_cost, backward_ratio, comm_latency, starts, ends)

    makespan = max(last)
    # pp * makespan bounds the stages' summed busy time: finite, it keeps idle_fraction finite
    grid_time = pp * makespan
    throughput = plan.layout.dp * sum(microbatches.useful_tokens) / makespan
    if not (grid_time < math.inf and throughput < math.inf):
        raise InvalidSpecError(f"the schedule leaves the float range: makespan {makespan!r} "
                               f"on {pp} stages, throughput {throughput!r}")
    ideal = max(busy)
    return ScheduleResult(
        makespan=makespan,
        ideal_time=ideal,
        bubble_fraction=1.0 - ideal / makespan,
        idle_fraction=1.0 - left_sum(busy) / grid_time,
        throughput=throughput,
        stage_busy=tuple(busy),
        op_starts=starts,
        op_ends=ends,
    )


def bubble_fraction_analytic(pp: int, m: int) -> float:
    """Closed-form 1F1B bubble fraction for uniform stage costs."""
    if pp < 1 or m < 1:
        raise InvalidSpecError(f"pp and m must be >= 1, got pp={pp}, m={m}")
    return (pp - 1) / (m + pp - 1)


def simulate_cell(key, plan, microbatches, backward_ratio, comm_latency, record=False) -> ScheduleResult:
    """``compare_configs``' default cell function: ``simulate_1f1b``, recorded
    only with ``record``; ``key`` is not read."""
    return simulate_1f1b(plan, microbatches, backward_ratio, comm_latency, record)


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
    *,
    cell=simulate_cell,
    map=map,
) -> list[dict]:
    """Run packing x planning x simulation over every cell and normalize each
    cell's throughput by the (padded, naive) baseline of the same layout.

    Returns each cell's ``comparison.csv`` row, a dict keyed by
    ``COMPARISON_CSV_FIELDS``, in cell order: layouts, then packing policies,
    then plan policies, each as given (a repeated name counts once). Per
    layout, the requested cells are simulated, then the baseline cell if not
    among them. Every layout's plans are built first; then one ``map(cell,
    keys, plans, microbatches, backward_ratio, comm_latency)`` runs the
    cells, and each cell's row is built as its ``ScheduleResult`` is taken,
    its ``ratio_vs_baseline`` once the layout's cells are done. A cell's key
    is its row's (layout, packing policy, plan policy), or ``None`` for a
    baseline cell that has no row. The default cell does not record, and no
    result is kept: each is freed before the next cell's is taken. ``map``
    must yield the results in cell order: the built-in ``map`` (the default)
    runs each cell as its result is taken, and a map of forked workers (as
    ``omnisched`` passes) on those workers. The library itself never starts
    a process.
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

    plans = [{name: PLAN_POLICIES[name](encoders, llm_layer_costs, layout) for name in plan_names}
             for layout in layouts]
    keys = [(layout.label(), pname, plname) if pname in packing_policies and plname in plan_policies else None
            for layout in layouts for pname, plname in cells]
    results = map(cell, keys, [layout_plans[plname] for layout_plans in plans for _, plname in cells],
                  [microbatches[pname] for _ in layouts for pname, _ in cells],
                  repeat(backward_ratio), repeat(comm_latency))

    rows: list[dict] = []
    keys_left = iter(keys)
    for layout_plans in plans:
        first = len(rows)
        for (pname, plname), key in zip(cells, keys_left):
            plan = layout_plans[plname]
            result = next(results)
            if (pname, plname) == BASELINE_CELL:
                base_thr = result.throughput
            if key is not None:
                report = packed[pname][1]
                rows.append({
                    "layout": key[0],
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
                })
            del result  # freed before the next cell's is taken
        for row in rows[first:]:
            row["ratio_vs_baseline"] = row["throughput"] / base_thr
    return rows
