"""omnisched: planning and discrete-event simulation for heterogeneous
multimodal training pipelines.

Subsystems: workload traces and synthetic generation, sequence packing,
pipeline stage planning, 1F1B schedule simulation, sparse-MoE routing with
hybrid load balancing, and allocator fragmentation modeling.
"""

from .config import load_cost_model
from .errors import OmniSchedError
from .memsim import (
    FragReport,
    events_from_batches,
    events_from_samples,
    simulate_allocator,
)
from .moe import (
    GaussianLogitSource,
    MoEParamSpec,
    RouterConfig,
    aux_loss,
    bias_update,
    moe_param_counts,
    route_topk,
    search_param_grid,
    simulate_routing,
)
from .packing import (
    PackingReport,
    pack,
    pack_ffd,
    pack_padded,
    pack_stream,
)
from .pipeline import (
    ScheduleResult,
    bubble_fraction_analytic,
    compare_configs,
    microbatches_from_batches,
    simulate_1f1b,
)
from .sharding import (
    EncoderSpec,
    ParallelLayout,
    StagePlan,
    naive_plan,
    plan_balanced_stages,
    plan_imbalance,
)
from .workload import (
    LogNormalLength,
    Modality,
    SyntheticTraceSpec,
    UniformLength,
    WorkloadTrace,
    generate_trace,
    load_trace,
    save_trace,
    trace_stats,
)

__version__ = "0.1.0"

__all__ = [
    "EncoderSpec",
    "FragReport",
    "GaussianLogitSource",
    "LogNormalLength",
    "Modality",
    "MoEParamSpec",
    "OmniSchedError",
    "PackingReport",
    "ParallelLayout",
    "RouterConfig",
    "ScheduleResult",
    "StagePlan",
    "SyntheticTraceSpec",
    "UniformLength",
    "WorkloadTrace",
    "aux_loss",
    "bias_update",
    "bubble_fraction_analytic",
    "compare_configs",
    "events_from_batches",
    "events_from_samples",
    "generate_trace",
    "load_cost_model",
    "load_trace",
    "microbatches_from_batches",
    "moe_param_counts",
    "naive_plan",
    "pack",
    "pack_ffd",
    "pack_padded",
    "pack_stream",
    "plan_balanced_stages",
    "plan_imbalance",
    "route_topk",
    "save_trace",
    "search_param_grid",
    "simulate_1f1b",
    "simulate_allocator",
    "simulate_routing",
    "trace_stats",
]
