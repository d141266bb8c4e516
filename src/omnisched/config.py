"""Experiment configuration: YAML file, CLI overrides, seed resolution.

Precedence is CLI flag > config file > ``OMNISCHED_SEED`` env var > built-in
default. The CLI sets its flags in the config document, which
``build_config`` reads once, mapping by mapping: each key's type is checked
(numbers are finite), the value read (defaults included) is recorded, and any
key nothing read is rejected. The router and synthetic-trace sections are
built into their library objects as read, whose constructors check ranges;
other ranges are checked as read. Every failure is a ``ConfigError`` whose
``context.key`` is the dotted key path, e.g. ``router.top_k``. The record,
``ExperimentConfig.resolved``, is written to every run directory as
``config.resolved`` so runs are reproducible from their outputs alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional, Union

import yaml

from .errors import ConfigError, InvalidSpecError
from .memsim import ALLOCATOR_POLICIES
from .moe import GaussianLogitSource, RouterConfig
from .packing import POLICIES as PACKING_POLICIES
from .pipeline import PLAN_POLICIES
from .sharding import EncoderSpec, ParallelLayout, build_units
from .workload import (
    LengthDistribution,
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
    logits: GaussianLogitSource  # its generator is drawn from by the route run only
    output_dir: Path
    # every value read, defaults included, as written to config.resolved; what
    # has no field above (the names, the seeds, the router's sizes, memsim) is read from it
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

    def _key(self, name: Any) -> str:
        return f"{self.path}.{name}" if self.path else str(name)

    def read(self, name: str, check: Check, default: Any = _REQUIRED) -> Any:
        """The checked value of key ``name``, or of ``default`` when absent."""
        value = self.doc.get(name, default)
        if value is _REQUIRED:
            raise ConfigError(f"{self._key(name)} is required", key=self._key(name))
        self.record[name] = check(value, self._key(name))
        return self.record[name]

    def section(self, name: str, default: Any = _REQUIRED) -> "_Mapping":
        """The mapping at key ``name`` (``default`` when absent), to be read.
        Its record, recorded here at once, fills as it is read."""
        child = self.read(name, _Mapping, default)
        self.record[name] = child.record
        return child

    def build(self, make: Callable[..., Any], *args: Any, **renamed: str) -> Any:
        """``make(*args)``, then ``close``: call it once every key is read. An
        ``InvalidSpecError`` is a ``ConfigError`` at the key of its ``field``,
        whose first name ``renamed`` maps from the library's to the key's."""
        try:
            made = make(*args)
        except InvalidSpecError as exc:
            head, dot, rest = exc.context.get("field", "").partition(".")
            key = self._key(renamed.get(head, head) + dot + rest) if head else self.path
            raise ConfigError(f"{key}: {exc.message}", key=key) from None
        self.close()
        return made

    def close(self) -> dict:
        """The record of what was read; a key nothing read is an error."""
        for name in self.doc:
            if name not in self.record:
                raise ConfigError(f"unexpected key {self._key(name)}", key=self._key(name))
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
_integer = _typed((int,), "an integer")


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


def _length(m: _Mapping) -> LengthDistribution:
    if m.read("kind", _str(("uniform", "lognormal"))) == "uniform":
        return m.build(UniformLength, m.read("low", _integer), m.read("high", _integer))
    return m.build(LogNormalLength, m.read("mu", _number()), m.read("sigma", _number()), m.read("max_len", _integer))


def _synthetic(m: _Mapping, seed: int) -> SyntheticTraceSpec:
    m.read("name", _str(), "synthetic")
    count = m.read("sample_count", _integer)
    seed = m.read("seed", _int(0), seed)
    mixture = m.section("mixture")
    weights = {Modality(k): mixture.read(k, _number()) for k in _MODALITIES if k in mixture.doc}
    mixture.close()
    lengths = m.section("lengths")
    dists = {Modality(k): _length(lengths.section(k)) for k in _MODALITIES if k in lengths.doc}
    lengths.close()
    return m.build(SyntheticTraceSpec, weights, dists, count, seed, weights="mixture")


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


def _router(m: _Mapping, seed: int) -> tuple[RouterConfig, GaussianLogitSource]:
    # a step draws a (tokens_per_step, num_experts) float64 array and a run
    # holds (steps, num_experts) ones, which numpy can shape only below 2**63
    # bytes; every size is bounded before any is used
    size = "with {} * num_experts * 8 < 2**63"
    experts = m.read("num_experts", _typed((int,), "an integer " + size.format("tokens_per_step"),
                                           lambda v: v < 2**60), 8)
    top_k = m.read("top_k", _integer, 2)
    aux, bias = m.read("aux_coefficient", _number(), 0.01), m.read("bias_step", _number(), 0.01)
    for name, default in (("tokens_per_step", 4096), ("steps", 200)):
        fits = _typed((int,), "an integer >= 1 " + size.format(name), lambda v: 1 <= v and v * experts * 8 < 2**63)
        m.read(name, fits, default)
    # RouterConfig rejects a num_experts < 2 (max() only keeps a huge negative
    # one from overflowing the list repeat) before the offsets' length is checked
    offsets = m.read("mean_offsets", _list(_number()), [1.0] + [0.0] * max(experts - 1, 0))
    std, seed = m.read("logit_std", _number(), 1.0), m.read("seed", _int(0), seed)
    router = m.build(RouterConfig, experts, top_k, aux, bias)
    if len(offsets) != experts:
        _fail(f"{m.path}.mean_offsets", f"a list of {experts} numbers, one per expert", offsets)
    return router, m.build(GaussianLogitSource, offsets, seed, std, std="logit_std")


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
    except OSError as exc:  # no permission, a directory, an I/O error, ...
        raise ConfigError(
            f"cannot read {what} file {path}: {exc.strerror or exc}", path=str(path), **context
        ) from None
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # also: bad JSON, UTF-8 or int, deep nesting
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
    trace_path = synthetic = None
    if "trace" in r.doc:  # a trace file, or a synthetic spec
        trace = r.section("trace")
        if "path" in trace.doc:
            trace_path = Path(trace.read("path", _path))
        else:
            synthetic = _synthetic(trace.section("synthetic"), seed)
        trace.close()
    r.read("capacity", _typed((int,), "an integer in [1, 2**63)", lambda v: 1 <= v < 2**63), 4096)
    r.read("backward_ratio", _number(0, strict=True), 2.0)
    r.read("comm_latency", _number(0), 0.0)
    cost = r.read("cost_model", _cost_model, None)
    r.read("layouts", _list(_layout, nonempty=True, unique=True), ["1x1x1"])
    r.read("packing_policies", _list(_str(PACKING_POLICIES), nonempty=True, unique=True),
           ["padded", "stream", "ffd"])
    r.read("plan_policies", _list(_str(PLAN_POLICIES), nonempty=True, unique=True), ["naive", "balanced"])
    router, logits = _router(r.section("router", {}), seed)
    r.read("memsim", _mapping(_memsim), {})
    r.read("output_dir", _str(), "runs/out")
    resolved = r.close()
    output_dir = Path(resolved.pop("output_dir"))  # --out may override it: not recorded
    encoders, layers = _cost_objects(cost)
    return ExperimentConfig(
        trace_path=trace_path,
        synthetic=synthetic,
        capacity=resolved["capacity"],
        backward_ratio=resolved["backward_ratio"],
        comm_latency=resolved["comm_latency"],
        encoders=tuple(encoders),
        llm_layer_costs=tuple(layers),
        layouts=tuple(ParallelLayout.parse(label) for label in resolved["layouts"]),
        packing_policies=tuple(resolved["packing_policies"]),
        plan_policies=tuple(resolved["plan_policies"]),
        router=router,
        logits=logits,
        output_dir=output_dir,
        resolved=resolved,
    )


def reproduce_scenario_doc() -> dict:
    """The scenario shipped with the package for the headline comparison."""
    text = resources.files("omnisched").joinpath("data/reproduce.yaml").read_text(encoding="utf-8")
    doc = yaml.safe_load(text)
    assert isinstance(doc, dict)
    return doc
