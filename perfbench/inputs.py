"""Seeded inputs for the benchmark workloads.

Every input is a pure function of (workload, seed, size). The large-trace
NDJSON is drawn here with numpy directly, not with ``omnisched.generate_trace``,
so a change to the ``workload`` module cannot change its own input. Files
name each other by relative path and the CLI runs with the input directory as
its working directory, so ``config.resolved`` holds no machine path and can
be part of the output digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

# (modality, mixture weight, lognormal mu, sigma, max_len): the shipped
# scenario's four-modality mixture.
MIXTURE = (
    ("text", 0.40, 5.545, 0.9, 2048),
    ("image", 0.25, 6.461, 0.45, 2048),
    ("audio", 0.20, 5.951, 0.7, 3072),
    ("video", 0.15, 6.931, 0.6, 4096),
)

# The shipped scenario's encoders; large-trace uses them with 32 unit-cost
# LLM layers, layout-sweep with a finer-grained LLM.
ENCODERS = [
    {"modality": "text", "unit_costs": [0.4], "tp_divisible": [True]},
    {"modality": "image", "unit_costs": [0.6] + [1.2] * 5, "tp_divisible": [False] + [True] * 5},
    {"modality": "audio", "unit_costs": [0.5] + [0.9] * 3, "tp_divisible": [False] + [True] * 3},
    {"modality": "video", "unit_costs": [0.8] + [1.4] * 5, "tp_divisible": [False] + [True] * 5},
]

CAPACITY = 4096
SWEEP_LAYOUTS = [f"1x{pp}x{tp}" for pp in (2, 4, 8, 16) for tp in (1, 2, 4)]


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark configuration."""

    trace_samples: int = 10_000
    sweep_samples: int = 500
    sweep_layers: int = 256
    route_experts: int = 64
    route_top_k: int = 8
    route_tokens: int = 4096
    route_steps: int = 200


@dataclass(frozen=True)
class Inputs:
    """A workload's generated input directory and the CLI arguments to run in it."""

    workload: str
    directory: Path
    argv: list[str]
    facts: dict = field(default_factory=dict)  # known properties the output must satisfy


def _rng(seed: int, workload: str) -> np.random.Generator:
    # one independent stream per (seed, workload)
    return np.random.default_rng([seed, sum(workload.encode())])


def _lengths(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    weights = np.array([w for _, w, _, _, _ in MIXTURE])
    modality = rng.choice(len(MIXTURE), size=n, p=weights / weights.sum())
    mu = np.array([m[2] for m in MIXTURE])[modality]
    sigma = np.array([m[3] for m in MIXTURE])[modality]
    cap = np.array([m[4] for m in MIXTURE])[modality]
    lengths = np.rint(np.exp(rng.normal(mu, sigma))).astype(np.int64)
    return modality, np.clip(lengths, 1, cap)


def _synthetic_doc(rng: np.random.Generator, samples: int) -> dict:
    return {
        "name": "sweep-trace",
        "sample_count": samples,
        "seed": int(rng.integers(2**31)),
        "mixture": {name: w for name, w, _, _, _ in MIXTURE},
        "lengths": {
            name: {"kind": "lognormal", "mu": mu, "sigma": sigma, "max_len": cap}
            for name, _, mu, sigma, cap in MIXTURE
        },
    }


def _write_yaml(path: Path, doc: dict) -> None:
    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")


def _large_trace(rng: np.random.Generator, directory: Path, sizes: Sizes) -> tuple[list[str], dict]:
    modality, lengths = _lengths(rng, sizes.trace_samples)
    names = [m[0] for m in MIXTURE]
    with (directory / "trace.ndjson").open("w", encoding="utf-8") as fh:
        for i, (m, length) in enumerate(zip(modality.tolist(), lengths.tolist())):
            fh.write(json.dumps({"id": i, "modality": names[m], "length": length}) + "\n")
    _write_yaml(directory / "scenario.yaml", {
        "name": "large-trace",
        "seed": int(rng.integers(2**31)),
        "trace": {"path": "trace.ndjson"},
        "capacity": CAPACITY,
        "backward_ratio": 2.0,
        "comm_latency": 0.0,
        "cost_model": {"encoders": ENCODERS, "llm_layer_costs": [1.0] * 32},
        "layouts": ["1x4x1", "1x4x2"],
        "packing_policies": ["padded", "ffd"],
        "plan_policies": ["naive", "balanced"],
        "memsim": {"bytes_per_token": 2, "round_to": 64, "allocator": "exact_reuse_cache"},
    })
    argv = ["reproduce", "--scenario", "scenario.yaml", "--out", "out"]
    return argv, {"total_tokens": int(lengths.sum()), "samples": sizes.trace_samples}


def _layout_sweep(rng: np.random.Generator, directory: Path, sizes: Sizes) -> tuple[list[str], dict]:
    layer_costs = np.round(rng.uniform(0.08, 0.17, size=sizes.sweep_layers), 4)
    _write_yaml(directory / "config.yaml", {
        "name": "layout-sweep",
        "seed": int(rng.integers(2**31)),
        "trace": {"synthetic": _synthetic_doc(rng, sizes.sweep_samples)},
        "capacity": CAPACITY,
        "cost_model": {"encoders": ENCODERS, "llm_layer_costs": layer_costs.tolist()},
        "layouts": SWEEP_LAYOUTS,
        "packing_policies": ["padded", "stream", "ffd"],
        "plan_policies": ["naive", "balanced"],
    })
    argv = ["simulate", "--config", "config.yaml", "--out", "out"]
    return argv, {"cells": len(SWEEP_LAYOUTS) * 3 * 2, "samples": sizes.sweep_samples}


def _moe_routing(rng: np.random.Generator, directory: Path, sizes: Sizes) -> tuple[list[str], dict]:
    _write_yaml(directory / "config.yaml", {
        "name": "moe-routing",
        "seed": int(rng.integers(2**31)),
        "router": {"aux_coefficient": 0.01, "bias_step": 0.01, "logit_std": 1.0},
    })
    argv = [
        "route", "--config", "config.yaml", "--out", "out",
        "--experts", str(sizes.route_experts), "--top-k", str(sizes.route_top_k),
        "--tokens", str(sizes.route_tokens), "--steps", str(sizes.route_steps),
    ]
    return argv, {"experts": sizes.route_experts, "steps": sizes.route_steps}


WORKLOADS = {
    "large-trace": _large_trace,
    "layout-sweep": _layout_sweep,
    "moe-routing": _moe_routing,
}


def make_inputs(workload: str, seed: int, directory: Path, sizes: Sizes = Sizes()) -> Inputs:
    """Write the workload's input files for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    argv, facts = WORKLOADS[workload](_rng(seed, workload), directory, sizes)
    return Inputs(workload, directory, argv, facts)
