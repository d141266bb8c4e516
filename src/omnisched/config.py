"""Experiment configuration: YAML file, CLI overrides, seed resolution.

Precedence is CLI flag > config file > ``OMNISCHED_SEED`` env var > built-in
default. The fully resolved config is written back to every run directory
as ``config.resolved`` so runs are reproducible from their outputs alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Optional, Union

import yaml

from .errors import ConfigError
from .memsim import ALLOCATOR_POLICIES
from .moe import RouterConfig
from .packing import POLICIES as PACKING_POLICIES
from .pipeline import PLAN_POLICIES
from .sharding import EncoderSpec, ParallelLayout, load_cost_model, parse_cost_model
from .workload import (
    LogNormalLength,
    Modality,
    SyntheticTraceSpec,
    UniformLength,
    WorkloadTrace,
    generate_trace,
    load_trace,
)

DEFAULT_SEED = 0


@dataclass(frozen=True)
class RoutingScenario:
    config: RouterConfig
    tokens_per_step: int = 4096
    steps: int = 200
    mean_offsets: tuple[float, ...] = ()
    logit_std: float = 1.0
    seed: Optional[int] = None  # falls back to the experiment seed


@dataclass(frozen=True)
class MemsimScenario:
    bytes_per_token: int = 2
    round_to: int = 64
    allocator: str = "exact_reuse_cache"


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    trace_path: Optional[Path]
    synthetic: Optional[SyntheticTraceSpec]
    capacity: int
    backward_ratio: float
    comm_latency: float
    encoders: tuple[EncoderSpec, ...]
    llm_layer_costs: tuple[float, ...]
    layouts: tuple[ParallelLayout, ...]
    packing_policies: tuple[str, ...]
    plan_policies: tuple[str, ...]
    routing: RoutingScenario
    memsim: MemsimScenario
    output_dir: Path

    def load_workload(self) -> WorkloadTrace:
        if self.trace_path is not None:
            return load_trace(self.trace_path)
        if self.synthetic is not None:
            return generate_trace(self.synthetic)
        raise ConfigError("config defines neither a trace path nor a synthetic spec")

    def resolved_dict(self) -> dict:
        """Fully explicit config for config.resolved."""
        doc: dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "capacity": self.capacity,
            "backward_ratio": self.backward_ratio,
            "comm_latency": self.comm_latency,
            "layouts": [l.label() for l in self.layouts],
            "packing_policies": list(self.packing_policies),
            "plan_policies": list(self.plan_policies),
            "cost_model": {
                "encoders": [
                    {
                        "modality": e.modality.value,
                        "unit_costs": list(e.unit_costs),
                        "tp_divisible": list(e.tp_divisible),
                    }
                    for e in self.encoders
                ],
                "llm_layer_costs": list(self.llm_layer_costs),
            },
            "router": {
                "num_experts": self.routing.config.num_experts,
                "top_k": self.routing.config.top_k,
                "aux_coefficient": self.routing.config.aux_coefficient,
                "bias_step": self.routing.config.bias_step,
                "tokens_per_step": self.routing.tokens_per_step,
                "steps": self.routing.steps,
                "mean_offsets": list(self.routing.mean_offsets),
                "logit_std": self.routing.logit_std,
                "seed": self.routing.seed if self.routing.seed is not None else self.seed,
            },
            "memsim": {
                "bytes_per_token": self.memsim.bytes_per_token,
                "round_to": self.memsim.round_to,
                "allocator": self.memsim.allocator,
            },
        }
        if self.trace_path is not None:
            doc["trace"] = {"path": str(self.trace_path)}
        elif self.synthetic is not None:
            doc["trace"] = {"synthetic": _synthetic_to_dict(self.synthetic)}
        return doc


def _synthetic_to_dict(spec: SyntheticTraceSpec) -> dict:
    lengths = {}
    for m, dist in spec.lengths.items():
        if isinstance(dist, UniformLength):
            lengths[m.value] = {"kind": "uniform", "low": dist.low, "high": dist.high}
        else:
            lengths[m.value] = {
                "kind": "lognormal",
                "mu": dist.mu,
                "sigma": dist.sigma,
                "max_len": dist.max_len,
            }
    return {
        "name": spec.name,
        "sample_count": spec.sample_count,
        "seed": spec.seed,
        "mixture": {m.value: w for m, w in spec.weights.items()},
        "lengths": lengths,
    }


def _parse_length_dist(entry: dict, modality: str) -> Union[UniformLength, LogNormalLength]:
    kind = entry.get("kind")
    try:
        if kind == "uniform":
            return UniformLength(low=int(entry["low"]), high=int(entry["high"]))
        if kind == "lognormal":
            return LogNormalLength(
                mu=float(entry["mu"]), sigma=float(entry["sigma"]), max_len=int(entry["max_len"])
            )
    except KeyError as exc:
        raise ConfigError(f"length distribution for {modality} missing {exc}") from None
    raise ConfigError(f"length distribution for {modality} must be uniform or lognormal, got {kind!r}")


def parse_synthetic_spec(doc: dict, default_seed: int) -> SyntheticTraceSpec:
    try:
        mixture = {Modality(m): float(w) for m, w in doc["mixture"].items()}
        lengths = {Modality(m): _parse_length_dist(d, m) for m, d in doc["lengths"].items()}
        count = int(doc["sample_count"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad synthetic trace spec: {exc}") from None
    return SyntheticTraceSpec(
        weights=mixture,
        lengths=lengths,
        sample_count=count,
        seed=int(doc.get("seed", default_seed)),
        name=str(doc.get("name", "synthetic")),
    )


def _env_seed() -> Optional[int]:
    raw = os.environ.get("OMNISCHED_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"OMNISCHED_SEED must be an integer, got {raw!r}") from None


def load_config_file(path: Union[str, Path]) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}", path=str(path))
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}", path=str(path)) from None
    if not isinstance(doc, dict):
        raise ConfigError("config file must contain a mapping", path=str(path))
    return doc


def _capacity(raw: Any) -> int:
    """``raw`` as a batch capacity, or ``ConfigError`` unless it is an integer >= 1."""
    try:
        value = int(raw)
    except (TypeError, ValueError, OverflowError):
        value = 0
    if value < 1 or isinstance(raw, bool) or (isinstance(raw, float) and raw != value):
        raise ConfigError(f"capacity must be an integer >= 1, got {raw!r}", key="capacity")
    return value


def build_config(doc: dict, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Merge a config document with CLI overrides into an ExperimentConfig."""
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}

    def pick(key: str, default: Any = None) -> Any:
        if key in overrides:
            return overrides[key]
        return doc.get(key, default)

    env = _env_seed()
    if "seed" in overrides:
        seed = int(overrides["seed"])
    elif "seed" in doc:
        seed = int(doc["seed"])
    elif env is not None:
        seed = env
    else:
        seed = DEFAULT_SEED

    trace_path: Optional[Path] = None
    synthetic: Optional[SyntheticTraceSpec] = None
    if "trace" in overrides:
        trace_path = Path(overrides["trace"])
    else:
        trace_doc = doc.get("trace", {})
        if "path" in trace_doc:
            trace_path = Path(trace_doc["path"])
        elif "synthetic" in trace_doc:
            synthetic = parse_synthetic_spec(trace_doc["synthetic"], seed)

    cost_doc = pick("cost_model")
    if isinstance(cost_doc, str):
        encoders, layers = load_cost_model(cost_doc)
    elif isinstance(cost_doc, dict):
        encoders, layers = parse_cost_model(cost_doc)
    else:
        encoders, layers = [], []

    layouts_raw = pick("layouts", ["1x1x1"])
    if isinstance(layouts_raw, str):
        layouts_raw = [s for s in layouts_raw.split(",") if s]
    layouts = tuple(ParallelLayout.parse(str(l)) for l in layouts_raw)
    if not layouts:
        raise ConfigError("layouts must not be empty")

    packing_raw = pick("packing_policies", ["padded", "stream", "ffd"])
    if isinstance(packing_raw, str):
        packing_raw = [s for s in packing_raw.split(",") if s]
    plan_raw = pick("plan_policies", ["naive", "balanced"])
    if isinstance(plan_raw, str):
        plan_raw = [s for s in plan_raw.split(",") if s]
    for key, names, known in (
        ("packing_policies", packing_raw, PACKING_POLICIES),
        ("plan_policies", plan_raw, PLAN_POLICIES),
    ):
        unknown = [str(n) for n in names if str(n) not in known]
        if unknown:
            raise ConfigError(
                f"{key} must be drawn from {sorted(known)}, got unknown {unknown}", key=key
            )
    capacity = _capacity(pick("capacity", 4096))

    router_doc = dict(doc.get("router", {}))
    for key in ("num_experts", "top_k", "aux_coefficient", "bias_step", "tokens_per_step", "steps"):
        if key in overrides:
            router_doc[key] = overrides[key]
    num_experts = int(router_doc.get("num_experts", 8))
    offsets = router_doc.get("mean_offsets")
    if offsets is None:
        offsets = [1.0] + [0.0] * (num_experts - 1)
    routing = RoutingScenario(
        config=RouterConfig(
            num_experts=num_experts,
            top_k=int(router_doc.get("top_k", 2)),
            aux_coefficient=float(router_doc.get("aux_coefficient", 0.01)),
            bias_step=float(router_doc.get("bias_step", 0.01)),
        ),
        tokens_per_step=int(router_doc.get("tokens_per_step", 4096)),
        steps=int(router_doc.get("steps", 200)),
        mean_offsets=tuple(float(x) for x in offsets),
        logit_std=float(router_doc.get("logit_std", 1.0)),
        seed=int(router_doc["seed"]) if "seed" in router_doc else None,
    )
    if len(routing.mean_offsets) != num_experts:
        raise ConfigError(
            f"mean_offsets has {len(routing.mean_offsets)} entries for {num_experts} experts"
        )

    mem_doc = dict(doc.get("memsim", {}))
    for key in ("bytes_per_token", "round_to", "allocator"):
        if key in overrides:
            mem_doc[key] = overrides[key]
    memsim = MemsimScenario(
        bytes_per_token=int(mem_doc.get("bytes_per_token", 2)),
        round_to=int(mem_doc.get("round_to", 64)),
        allocator=str(mem_doc.get("allocator", "exact_reuse_cache")),
    )
    if memsim.allocator not in ALLOCATOR_POLICIES:
        raise ConfigError(
            f"memsim.allocator must be one of {list(ALLOCATOR_POLICIES)}, got {memsim.allocator!r}"
        )

    return ExperimentConfig(
        name=str(pick("name", "experiment")),
        seed=seed,
        trace_path=trace_path,
        synthetic=synthetic,
        capacity=capacity,
        backward_ratio=float(pick("backward_ratio", 2.0)),
        comm_latency=float(pick("comm_latency", 0.0)),
        encoders=tuple(encoders),
        llm_layer_costs=tuple(layers),
        layouts=layouts,
        packing_policies=tuple(str(p) for p in packing_raw),
        plan_policies=tuple(str(p) for p in plan_raw),
        routing=routing,
        memsim=memsim,
        output_dir=Path(pick("output_dir", "runs/out")),
    )


def reproduce_scenario_doc() -> dict:
    """The scenario shipped with the package for the headline comparison."""
    text = resources.files("omnisched").joinpath("data/reproduce.yaml").read_text(encoding="utf-8")
    doc = yaml.safe_load(text)
    assert isinstance(doc, dict)
    return doc
