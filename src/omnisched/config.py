"""Experiment configuration: YAML file, CLI overrides, seed resolution.

Precedence is CLI flag > config file > ``OMNISCHED_SEED`` env var > built-in
default. The CLI sets its flags in the config document, which
``build_config`` reads once, mapping by mapping: each key's type and range
are checked, the value read (defaults included) is recorded, and any key
nothing read is rejected. Every failure is a ``ConfigError`` whose
``context.key`` is the dotted key path, e.g. ``router.top_k``. The record,
``ExperimentConfig.resolved``, is written to every run directory as
``config.resolved`` so runs are reproducible from their outputs alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional, Union

import yaml

from .errors import ConfigError, InvalidSpecError
from .memsim import ALLOCATOR_POLICIES
from .moe import RouterConfig
from .packing import POLICIES as PACKING_POLICIES
from .pipeline import PLAN_POLICIES
from .sharding import EncoderSpec, ParallelLayout, build_units
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
class ExperimentConfig:
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
    router: RouterConfig
    output_dir: Path
    # every value read, defaults included, as written to config.resolved; values
    # that need no object (the names, the seeds, memsim, the rest of router) are read here
    resolved: dict

    def load_workload(self) -> WorkloadTrace:
        if self.trace_path is not None:
            return load_trace(self.trace_path)
        if self.synthetic is not None:
            return generate_trace(self.synthetic)
        raise ConfigError("config defines neither a trace path nor a synthetic spec")


# A check turns a document value at a dotted key path into the value read, or
# raises ConfigError. What it returns is plain YAML data: it is recorded as is.
Check = Callable[[Any, str], Any]
_REQUIRED = object()


def _fail(key: str, what: str, value: Any) -> None:
    raise ConfigError(f"{key} must be {what}, got {value!r}", key=key)


class _Mapping:
    """One mapping of the config document, read key by key."""

    def __init__(self, doc: Any, path: str):
        if not isinstance(doc, dict):
            _fail(path, "a mapping", doc)
        self.doc = doc
        self.path = path
        self.record: dict = {}

    def read(self, name: str, check: Check, default: Any = _REQUIRED) -> Any:
        """The checked value of key ``name``, or of ``default`` when absent."""
        key = f"{self.path}.{name}" if self.path else name
        value = self.doc.get(name, default)
        if value is _REQUIRED:
            raise ConfigError(f"{key} is required", key=key)
        self.record[name] = check(value, key)
        return self.record[name]

    def close(self) -> dict:
        """The record of what was read; a key nothing read is an error."""
        for name in self.doc:
            if name not in self.record:
                key = f"{self.path}.{name}" if self.path else str(name)
                raise ConfigError(f"unexpected key {key}", key=key)
        return self.record


def _typed(types: tuple, what: str, ok: Callable[[Any], bool] = lambda v: True) -> Check:
    def check(value: Any, key: str) -> Any:
        if type(value) not in types or not ok(value):
            _fail(key, what, value)
        return value

    return check


def _int(lo: int) -> Check:
    return _typed((int,), f"an integer >= {lo}", lambda v: v >= lo)


def _str(choices: Any = None) -> Check:
    if choices is None:
        return _typed((str,), "a string")
    return _typed((str,), f"one of {sorted(choices)}", lambda v: v in choices)


_bool = _typed((bool,), "true or false")


def _number(lo: float = -math.inf, strict: bool = False, finite: bool = True) -> Check:
    """An int or float, read as a float, that is finite and >= ``lo`` (> if
    ``strict``); with ``finite=False`` (costs) any value: EncoderSpec and
    build_units check a cost's range."""
    what = "a finite number" + (f" > {lo}" if strict else f" >= {lo}" if lo > -math.inf else "")

    def check(value: Any, key: str) -> float:
        if type(value) not in (int, float):
            _fail(key, what if finite else "a number", value)
        try:
            x = float(value)
        except OverflowError:  # an int past the float range
            x = math.inf
        if finite and not (math.isfinite(x) and (x > lo if strict else x >= lo)):
            _fail(key, what, value)
        return x

    return check


def _list(item: Check, nonempty: bool = False, unique: bool = False) -> Check:
    def check(value: Any, key: str) -> list:
        if type(value) is not list or (nonempty and not value):
            _fail(key, "a non-empty list" if nonempty else "a list", value)
        items = [item(x, f"{key}[{i}]") for i, x in enumerate(value)]
        for i, x in enumerate(items if unique else ()):  # compared as read: 1X2X1 is 1x2x1
            if items.index(x) < i:
                raise ConfigError(f"{key}[{i}] repeats {key}[{items.index(x)}], {x!r}", key=f"{key}[{i}]")
        return items

    return check


def _mapping(read: Callable[[_Mapping], dict]) -> Check:
    return lambda value, key: read(_Mapping(value, key))


def _path(value: Any, key: str) -> str:
    return str(Path(_str()(value, key)))


def _layout(value: Any, key: str) -> str:
    try:
        return ParallelLayout.parse(_str()(value, key)).label()
    except (ConfigError, InvalidSpecError) as exc:  # a bad form, or a degree < 1
        raise ConfigError(exc.message, key=key) from None


_MODALITIES = [m.value for m in Modality]


def _per_modality(check: Check, m: _Mapping) -> dict:
    for name in _MODALITIES:
        if name in m.doc:
            m.read(name, check)
    return m.close()


def _length(m: _Mapping) -> dict:
    if m.read("kind", _str(("uniform", "lognormal"))) == "uniform":
        m.read("low", _int(1))
        m.read("high", _int(1))
    else:
        m.read("mu", _number())
        m.read("sigma", _number(0))
        m.read("max_len", _int(1))
    return m.close()


def _synthetic(m: _Mapping, seed: int) -> dict:
    m.read("name", _str(), "synthetic")
    m.read("sample_count", _int(1))
    m.read("seed", _int(0), seed)
    m.read("mixture", _mapping(partial(_per_modality, _number(0))))
    m.read("lengths", _mapping(partial(_per_modality, _mapping(_length))))
    return m.close()


def _trace(m: _Mapping, seed: int) -> dict:
    if "path" in m.doc:
        m.read("path", _path)
    else:
        m.read("synthetic", _mapping(partial(_synthetic, seed=seed)))
    return m.close()


def _encoder(m: _Mapping) -> dict:
    m.read("modality", _str(_MODALITIES))
    costs = m.read("unit_costs", _list(_number(finite=False)))
    m.read("tp_divisible", _list(_bool), [True] * len(costs))
    return m.close()


def _cost_model(value: Any, key: str) -> dict:
    """A cost model given inline or as the path of a JSON file; None is none."""
    if value is None:
        return {"encoders": [], "llm_layer_costs": []}
    if isinstance(value, str):
        value = _load_file(value, json.loads, "cost model", key=key)
    m = _Mapping(value, key)
    m.read("encoders", _list(_mapping(_encoder)))
    m.read("llm_layer_costs", _list(_number(finite=False), nonempty=True))
    return m.close()


def _cost_objects(doc: dict) -> tuple[list[EncoderSpec], list[float]]:
    """Encoders and layer costs from a read cost model, their costs checked."""
    encoders = [
        EncoderSpec(Modality(e["modality"]), tuple(e["unit_costs"]), tuple(e["tp_divisible"]))
        for e in doc["encoders"]
    ]
    layers = doc["llm_layer_costs"]
    build_units(encoders, layers, tp=1)  # rejects bad layer costs before a run writes anything
    return encoders, layers


def load_cost_model(path: Union[str, Path]) -> tuple[list[EncoderSpec], list[float]]:
    """Read a JSON cost model: encoder unit costs plus LLM layer costs."""
    return _cost_objects(_cost_model(str(path), "cost_model"))


def _router(m: _Mapping, seed: int) -> dict:
    # a step draws a (tokens_per_step, num_experts) float64 array, which numpy
    # can shape only below 2**63 bytes; both sizes are bounded before any is used
    size = "with tokens_per_step * num_experts * 8 < 2**63"
    experts = m.read("num_experts", _typed((int,), f"an integer >= 2 {size}", lambda v: 2 <= v < 2**60), 8)
    top_k = m.read("top_k", _int(1), 2)
    m.read("aux_coefficient", _number(0), 0.01)
    m.read("bias_step", _number(0), 0.01)
    tokens = _typed((int,), f"an integer >= 1 {size}", lambda v: 1 <= v and v * experts * 8 < 2**63)
    m.read("tokens_per_step", tokens, 4096)
    m.read("steps", _int(1), 200)
    offsets = m.read("mean_offsets", _list(_number()), [1.0] + [0.0] * (experts - 1))
    if len(offsets) != experts:
        _fail(f"{m.path}.mean_offsets", f"a list of {experts} numbers, one per expert", offsets)
    if top_k >= experts:
        _fail(f"{m.path}.top_k", f"an integer < num_experts ({experts})", top_k)
    m.read("logit_std", _number(0, strict=True), 1.0)
    m.read("seed", _int(0), seed)
    return m.close()


def _memsim(m: _Mapping) -> dict:
    m.read("bytes_per_token", _int(1), 2)
    m.read("round_to", _int(1), 64)
    m.read("allocator", _str(ALLOCATOR_POLICIES), "exact_reuse_cache")
    return m.close()


def _env_seed() -> int:
    raw = os.environ.get("OMNISCHED_SEED", str(DEFAULT_SEED))
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"OMNISCHED_SEED must be an integer, got {raw!r}", key="seed") from None


def _load_file(path: Union[str, Path], parse: Callable[[str], Any], what: str, **context: Any) -> Any:
    """The parsed text of a file, or ConfigError naming ``what`` it holds."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}", path=str(path), **context)
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or int
        raise ConfigError(f"{what} file is not valid: {exc}", path=str(path), **context) from None


def load_config_file(path: Union[str, Path]) -> dict:
    doc = _load_file(path, yaml.safe_load, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config file must contain a mapping", path=str(path))
    return doc


def build_config(doc: dict) -> ExperimentConfig:
    """Read a config document into an ExperimentConfig."""
    r = _Mapping(doc, "")
    seed = r.read("seed", _int(0), _env_seed())
    r.read("name", _str(), "experiment")
    trace = r.read("trace", _mapping(partial(_trace, seed=seed))) if "trace" in r.doc else {}
    r.read("capacity", _int(1), 4096)
    r.read("backward_ratio", _number(0, strict=True), 2.0)
    r.read("comm_latency", _number(0), 0.0)
    cost = r.read("cost_model", _cost_model, None)
    r.read("layouts", _list(_layout, nonempty=True, unique=True), ["1x1x1"])
    r.read("packing_policies", _list(_str(PACKING_POLICIES), nonempty=True, unique=True),
           ["padded", "stream", "ffd"])
    r.read("plan_policies", _list(_str(PLAN_POLICIES), nonempty=True, unique=True), ["naive", "balanced"])
    router = r.read("router", _mapping(partial(_router, seed=seed)), {})
    r.read("memsim", _mapping(_memsim), {})
    r.read("output_dir", _str(), "runs/out")
    resolved = r.close()
    output_dir = Path(resolved.pop("output_dir"))  # --out may override it: not recorded

    synthetic = None
    if "synthetic" in trace:
        spec = trace["synthetic"]
        synthetic = SyntheticTraceSpec(
            weights={Modality(m): w for m, w in spec["mixture"].items()},
            lengths={
                Modality(m): UniformLength(d["low"], d["high"])
                if d["kind"] == "uniform"
                else LogNormalLength(d["mu"], d["sigma"], d["max_len"])
                for m, d in spec["lengths"].items()
            },
            sample_count=spec["sample_count"],
            seed=spec["seed"],
        )
    encoders, layers = _cost_objects(cost)
    return ExperimentConfig(
        trace_path=Path(trace["path"]) if "path" in trace else None,
        synthetic=synthetic,
        capacity=resolved["capacity"],
        backward_ratio=resolved["backward_ratio"],
        comm_latency=resolved["comm_latency"],
        encoders=tuple(encoders),
        llm_layer_costs=tuple(layers),
        layouts=tuple(ParallelLayout.parse(label) for label in resolved["layouts"]),
        packing_policies=tuple(resolved["packing_policies"]),
        plan_policies=tuple(resolved["plan_policies"]),
        router=RouterConfig(
            router["num_experts"], router["top_k"], router["aux_coefficient"], router["bias_step"]
        ),
        output_dir=output_dir,
        resolved=resolved,
    )


def reproduce_scenario_doc() -> dict:
    """The scenario shipped with the package for the headline comparison."""
    text = resources.files("omnisched").joinpath("data/reproduce.yaml").read_text(encoding="utf-8")
    doc = yaml.safe_load(text)
    assert isinstance(doc, dict)
    return doc
