"""Stage planning: place encoder units and LLM layers onto pipeline stages.

The unit sequence is fixed (encoders in declared order, each encoder's units
in order, then LLM layers); a plan is a contiguous partition of that sequence
into ``pp`` non-empty segments. ``plan_balanced_stages`` finds the partition
minimizing the maximum per-stage cost exactly, by searching the bound on a
stage's cost that greedy cuts can meet with ``pp`` stages (pure Python, O(n)
memory); ``naive_plan`` is the everything-on-stage-0 encoder placement used
as the baseline.

A unit is only its cost: ``build_units`` returns the cost column in unit
order, and a ``StagePlan`` is the stage end indices into it (``boundaries``)
and the summed cost of each stage. ``to_dict`` names the units by slicing the
``unit_labels`` list, which a caller builds once for every plan it writes.

Tensor parallelism divides the cost of tp-divisible units by ``tp`` before
partitioning; LLM layers are always tp-divisible, encoder units carry a flag.
Data parallelism never changes a single plan's stage costs (replicas are
identical); it scales aggregate throughput downstream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import ConfigError, InvalidSpecError, TooFewLayersError, TooFewUnitsError
from .workload import Modality


@dataclass(frozen=True)
class EncoderSpec:
    """Shardable encoder: ordered unit costs plus per-unit tp divisibility."""

    modality: Modality
    unit_costs: tuple[float, ...]
    tp_divisible: tuple[bool, ...]

    def __post_init__(self):
        if not self.unit_costs:
            raise InvalidSpecError(f"encoder {self.modality.value}: needs at least one unit")
        if len(self.unit_costs) != len(self.tp_divisible):
            raise InvalidSpecError(
                f"encoder {self.modality.value}: unit_costs and tp_divisible lengths differ"
            )
        for c in self.unit_costs:
            if not 0 < c < math.inf:
                raise InvalidSpecError(
                    f"encoder {self.modality.value}: unit costs must be finite and > 0"
                )


@dataclass(frozen=True)
class ParallelLayout:
    dp: int
    pp: int
    tp: int

    def __post_init__(self):
        for name, v in (("dp", self.dp), ("pp", self.pp), ("tp", self.tp)):
            if not 1 <= v < 2**63:  # capacity's bound, so float(degree) cannot overflow
                raise InvalidSpecError(f"{name} must be an integer in [1, 2**63), got {v}")

    @classmethod
    def parse(cls, text: str) -> "ParallelLayout":
        """Parse a ``DPxPPxTP`` string, e.g. ``1x4x2``."""
        parts = text.lower().split("x")
        if len(parts) != 3:
            raise ConfigError(f"layout must look like 1x4x2 (dp x pp x tp), got {text!r}")
        try:
            dp, pp, tp = (int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"layout degrees must be integers, got {text!r}") from None
        return cls(dp=dp, pp=pp, tp=tp)

    def label(self) -> str:
        return f"{self.dp}x{self.pp}x{self.tp}"


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0, as ``sum`` adds floats before
    Python 3.12, whose compensated ``sum`` would change the output bytes."""
    total = 0.0
    for value in values:
        total += value
    return total


def build_units(encoders: Sequence[EncoderSpec], llm_layer_costs: Sequence[float], tp: int) -> list[float]:
    """The unit cost column in unit order, tp-divisible costs divided by ``tp``.
    A non-empty column must have a finite sum > 0, so every stage cost and plan
    imbalance is finite."""
    costs = [
        float(c) / tp if div else float(c)
        for enc in encoders
        for c, div in zip(enc.unit_costs, enc.tp_divisible)
    ]
    for i, c in enumerate(llm_layer_costs):
        if not 0 < c < math.inf:
            raise InvalidSpecError(f"llm layer {i}: cost must be finite and > 0")
        costs.append(float(c) / tp)
    total = left_sum(costs)
    if costs and not 0 < total < math.inf:
        raise InvalidSpecError(f"unit costs at tp={tp} must have a finite sum > 0, got {total!r}")
    return costs


def unit_labels(encoders: Sequence[EncoderSpec], llm_layer_costs: Sequence[float]) -> list[str]:
    """The units' names in unit order: ``image.0``, ..., ``llm.0``, ..."""
    labels = [f"{e.modality.value}.{i}" for e in encoders for i in range(len(e.unit_costs))]
    return labels + [f"llm.{i}" for i in range(len(llm_layer_costs))]


@dataclass(frozen=True)
class StagePlan:
    layout: ParallelLayout
    stage_cost: tuple[float, ...]
    boundaries: tuple[int, ...]  # cumulative unit counts at each stage end

    def to_dict(self, labels: Sequence[str]) -> dict:
        """The plan as JSON data, naming the units by ``labels`` (in unit order)."""
        starts = (0,) + self.boundaries[:-1]
        return {
            "layout": {"dp": self.layout.dp, "pp": self.layout.pp, "tp": self.layout.tp},
            "stages": [
                {"units": labels[a:b], "cost": cost}
                for a, b, cost in zip(starts, self.boundaries, self.stage_cost)
            ],
            "max_stage_cost": max(self.stage_cost),
            "imbalance": plan_imbalance(self),
        }


def _assemble_plan(costs: list[float], layout: ParallelLayout, cuts: list[int]) -> StagePlan:
    """Build a StagePlan from segment end indices (ascending, last == len(costs))."""
    starts = [0] + cuts[:-1]
    return StagePlan(
        layout=layout,
        stage_cost=tuple(left_sum(costs[a:b]) for a, b in zip(starts, cuts)),
        boundaries=tuple(cuts),
    )


def _growth(prefix: list[float], bound: float, stages: int) -> Optional[float]:
    """None if greedy stages of cost ``<= bound`` cover the units in at most
    ``stages`` stages. Else the least cost one of those stages would have with
    one more unit: below it the greedy cuts stay the same, and fall short."""
    n = len(prefix) - 1
    i, grow = 0, math.inf
    for _ in range(stages):
        base = prefix[i]
        # compare seg(i, j) as the plan does: prefix[j] <= base + bound rounds differently
        j = bisect_right(prefix, bound, i + 1, n + 1, key=lambda v: v - base) - 1
        if j == n:
            return None
        grow = min(grow, prefix[j + 1] - base)
        i = j
    return grow


def plan_balanced_stages(
    encoders: Sequence[EncoderSpec],
    llm_layer_costs: Sequence[float],
    layout: ParallelLayout,
) -> StagePlan:
    """Exact minimum-bottleneck contiguous partition into ``pp`` stages.

    A stage's cost is ``seg(i, j) = prefix[j] - prefix[i]``; the optimum is
    the least bound under which greedy stages (each as long as the bound
    allows) cover the units in at most ``pp`` stages. The search starts at a
    bound no plan can beat: the largest one-unit ``seg`` and ``prefix[n] / pp``
    (the largest of ``pp`` exact differences summing to ``prefix[n]`` is at
    least their mean, and rounding keeps that order). While greedy needs more
    stages it raises the bound to the least segment a greedy stage would grow
    to, so it never passes the optimum (Pinar & Aykanat, "Fast optimal load
    balancing algorithms for 1D partitioning", JPDC 2004). Each stage then
    ends at the earliest unit whose suffix greedily fits the stages left:
    the lexicographically smallest boundary vector. O(n) memory for ``n``
    units.
    """
    eff = build_units(encoders, llm_layer_costs, layout.tp)
    n = len(eff)
    pp = layout.pp
    if n < pp:
        raise TooFewUnitsError(
            f"{n} shardable units cannot fill {pp} pipeline stages", units=n, pp=pp
        )

    prefix = [0.0] * (n + 1)
    for i, c in enumerate(eff):
        prefix[i + 1] = prefix[i] + c
    opt = max(max(b - a for a, b in zip(prefix, prefix[1:])), prefix[n] / pp)
    while (grow := _growth(prefix, opt, pp)) is not None:
        opt = grow

    # need[j]: greedy stages of cost <= opt that units[j:] take; far walks
    # down to the end of the stage that starts at j
    need = [0] * (n + 1)
    far = n
    for j in range(n - 1, -1, -1):
        while prefix[far] - prefix[j] > opt:
            far -= 1
        need[j] = need[far] + 1
    cuts = []
    i = 0
    for left in range(pp - 1, 0, -1):
        i += 1
        while need[i] > left:
            i += 1
        cuts.append(i)
    cuts.append(n)
    return _assemble_plan(eff, layout, cuts)


def naive_plan(
    encoders: Sequence[EncoderSpec],
    llm_layer_costs: Sequence[float],
    layout: ParallelLayout,
) -> StagePlan:
    """Baseline: all encoder units on stage 0, LLM layers split evenly by
    count across stages (earlier stages take the remainder)."""
    costs = build_units(encoders, llm_layer_costs, layout.tp)
    n_llm = len(llm_layer_costs)
    pp = layout.pp
    if n_llm < pp:
        raise TooFewLayersError(
            f"{n_llm} LLM layers cannot fill {pp} pipeline stages", layers=n_llm, pp=pp
        )
    n_enc = len(costs) - n_llm
    q, rem = divmod(n_llm, pp)
    cuts = []
    end = n_enc
    for s in range(pp):
        end += q + (1 if s < rem else 0)
        cuts.append(end)
    return _assemble_plan(costs, layout, cuts)


def plan_imbalance(plan: StagePlan) -> float:
    """max stage cost / mean stage cost; 1.0 iff perfectly balanced."""
    costs = plan.stage_cost
    return max(costs) / (left_sum(costs) / len(costs))

