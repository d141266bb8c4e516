"""Experiment runner: pack / plan / simulate / route / mem / reproduce.

Every subcommand runs the same way. Its config is resolved (flags > config
file > OMNISCHED_SEED > defaults; ``reproduce``'s config file is
``--scenario``, the shipped scenario when none is given), a new directory is
made inside a temporary one in the run directory's nearest existing ancestor,
and the command computes all of its results (``simulate`` writes each
timeline CSV there as its cell is simulated). Only then are
``config.resolved``, the command's CSV/JSON files and ``summary.json`` written
there. A new run directory appears with its missing parents by one rename;
into an existing one the files are moved once every write has succeeded. A
failed run creates no directory and leaves no new or changed file.
Independent work runs through one ``map`` (``_worker_pool``). It queues its
calls, and taking the first result forks, with two or more usable CPUs,
``fork`` and no other thread, a worker per usable CPU up to one per call (none
for one); inputs reach the workers by fork and only results come back, pickled.
A call with no worker (none can be forked, or its pipe or fork failed) is made
here as its result is taken. ``simulate`` runs its cells that way, each
simulated and its timeline written on one worker; ``reproduce`` its packing
report, allocator rows and cells, forking once the cells' summed ``pp * m``
reaches ``_FORK_CELL_WORK``. Every worker has exited before the run returns or
fails, and the bytes written do not depend on the worker count.
Outputs carry no timestamps, so a run is byte-reproducible from (config, seed).

Exit codes: 0 success, 1 usage error, 2 domain error. Domain errors print a
one-line JSON object ``{"kind", "message", "context"}`` on stderr; a failed
write is kind ``output`` with the path in ``context.path``, and a command
whose results do not fit in memory is kind ``out-of-memory`` with the
command in ``context.command``, and a worker that dies is kind ``worker-died``,
also with the command in ``context.command``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import operator
import os
import pickle
import shutil
import sys
import tempfile
import threading
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import yaml

from . import memsim as memsim_mod
from . import moe as moe_mod
from .config import (
    ExperimentConfig,
    build_config,
    load_config_file,
    reproduce_scenario_doc,
)
from .errors import ConfigError, OmniSchedError, OutOfMemoryError, OutputError, WorkerDiedError
from .packing import REPORT_CSV_FIELDS, POLICIES, pack
from .pipeline import COMPARISON_CSV_FIELDS, ScheduleResult, compare_configs, simulate_cell
from .sharding import naive_plan, plan_balanced_stages, unit_labels
from .workload import WorkloadTrace, trace_stats


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that defers exit handling so usage errors map to exit 1."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, fields: list[str], rows: list) -> None:
    """Write a ``fields`` header, then ``rows``: tuples in ``fields`` order,
    dicts whose keys are exactly ``fields`` (anything else is a ``ValueError``),
    or data lines already formatted as CSV text (``str``, ``"\\r\\n"``-terminated),
    which are written as they are."""
    if rows and isinstance(rows[0], dict):
        keys = set(fields)
        for row in rows:
            if row.keys() != keys:
                raise ValueError(f"CSV row keys {sorted(row)} are not the fields {fields}")
        rows = list(map(operator.itemgetter(*fields), rows))
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        if rows and isinstance(rows[0], str):
            fh.writelines(rows)
        else:
            writer.writerows(rows)


@contextmanager
def _writing(path: Path, what: str = "write"):
    """Turn an ``OSError`` while making ``path`` into the ``output`` error."""
    try:
        yield
    except OSError as exc:  # a file or directory in the way, no permission, a full disk, ...
        raise OutputError(f"cannot {what} {path}: {exc.strerror or exc}", path=str(path)) from None


@contextmanager
def _staging(out: Path):
    """A new directory ``run`` for the run's files until ``_write_run`` puts
    them in place, inside a temporary directory made in ``out``'s nearest
    existing ancestor: for a new ``out``, at ``out``'s own path below that
    ancestor, so ``out`` is made here with its missing parents. The temporary
    directory is removed when the block is left."""
    with _writing(out, "create output directory"):
        anchor = next((p for p in out.parents if p.exists()), out.parent)
        stage = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=anchor))
    try:
        with _writing(out, "create output directory"):
            below = Path("run") if out.exists() else out.relative_to(anchor)
            if ".." in below.parts:  # new/../run: no one rename places it
                raise OutputError(f"cannot create output directory {out}: '..' follows a missing directory",
                                  path=str(out))
            run = stage / below
            run.mkdir(parents=True)  # with mkdir's mode, which a new out and its parents keep
        yield run
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_run(config: ExperimentConfig, run: Path, out: Path, files: list) -> None:
    """Write config.resolved and ``files`` (see ``_run``) into ``out``'s
    ``_staging`` directory ``run``. Then a new ``out`` appears with its
    missing parents in one step, the topmost missing one renamed into place
    from the staging directory, and into an existing ``out`` the files are
    moved one at a time, once no target name has a directory in the way. So
    a failed write leaves the filesystem as it was, and so does any failure
    into a new ``out``."""
    resolved = yaml.safe_dump(config.resolved, sort_keys=True)
    with _writing(out / "config.resolved"):
        (run / "config.resolved").write_text(resolved, encoding="utf-8")
    for name, fields, rows in files:
        with _writing(out / name):
            if fields is None:
                _write_json(run / name, rows)
            else:
                _write_csv(run / name, fields, rows)
    if out.exists():
        _move_into(run, out)
        return
    with _writing(out, "create output directory"):
        target = out
        while not target.parent.exists():
            run, target = run.parent, target.parent
        os.rename(run, target)


def _move_into(run: Path, out: Path) -> None:
    """Move every file of ``run`` into the existing directory ``out``."""
    with _writing(out, "create output directory"):
        out.mkdir(exist_ok=True)  # an error if out is not a directory
    names = sorted(os.listdir(run))
    for target in (out / name for name in names):
        if target.is_dir():
            raise OutputError(f"cannot write {target}: it is a directory", path=str(target))
    for name in names:
        with _writing(out / name):
            os.replace(run / name, out / name)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_pool(command: str, fork: bool = True):
    """A ``map`` for calls that share no state. It queues its calls, and
    taking a result not yet made hands every queued call to ``_fork_calls``
    (which forks only if ``fork`` is set). A call that gets no worker is made
    here when its result is taken, as the built-in ``map`` makes it. A call's
    error is raised where its result is taken; a call no worker answered is
    ``command``'s ``worker-died``."""
    calls, answers = [], []

    def fork_map(fn, *iterables):
        first = len(calls)
        calls.extend(partial(fn, *args) for args in zip(*iterables))
        return map(take, range(first, len(calls)))

    def take(i):
        if i >= len(answers):
            answers.extend(_fork_calls(calls[len(answers):], command, fork))
        answer = _answer(answers[i]) if callable(answers[i]) else answers[i]
        ok, value = answer or (False, WorkerDiedError(f"{command} lost a worker process", command=command))
        if not ok:
            raise value
        return value

    return fork_map


def _fork_calls(calls: list, command: str, fork: bool) -> list:
    """Each call's ``_answer`` from ``min(usable CPUs, calls)`` forked workers
    (none for one call), call ``i`` on worker ``i % workers``, answering on its
    own pipe with ``(i, the pickled answer)``; None where its worker gave none.
    A call with no worker (``fork`` false, no ``os.fork``, another thread, a
    pipe or fork that fails) is returned as it is, for its taker to make. An
    answer that does not pickle or unpickle is ``command``'s ``worker-died``
    naming the call, and the worker's later answers are still read. Every
    worker has exited when this ends."""
    # fork, not spawn: a spawned worker is a fresh interpreter that imports
    # omnisched (not numpy, for a trace file) and reads the trace again, and
    # its inputs would have to be pickled to it. Forking is unsafe while
    # other threads run, hence the thread count.
    can_fork = fork and hasattr(os, "fork") and threading.active_count() == 1
    workers, answers, started = min(_usable_cpus(), len(calls)) if can_fork else 0, list(calls), []
    try:
        for w in range(workers if workers >= 2 else 0):
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError:  # EMFILE, ENFILE; EAGAIN, ENOMEM: the calls left get no worker
                for fd in fds:
                    os.close(fd)
                break
            read, write = fds
            if pid == 0:  # a worker leaves by os._exit: no finally block or exit hook of this process runs
                try:
                    for fd in [read] + [pipe.fileno() for _, pipe in started]:
                        os.close(fd)
                    with os.fdopen(write, "wb") as out:
                        for i in range(w, len(calls), workers):
                            answer = _answer(calls[i])
                            try:  # whole, or not written at all
                                answer = pickle.dumps(answer)
                            except Exception as exc:
                                answer = pickle.dumps((False, WorkerDiedError(
                                    f"{command}: the answer of call {i} does not pickle: {exc}", command=command)))
                            pickle.dump((i, answer), out)
                            out.flush()
                finally:
                    os._exit(0)
            os.close(write)
            started.append((pid, os.fdopen(read, "rb")))
            answers[w::workers] = [None] * len(answers[w::workers])
        for _, pipe in started:
            try:  # to the end, or to a message a dying worker cut short
                for i, answer in iter(partial(pickle.load, pipe), None):
                    try:
                        answers[i] = pickle.loads(answer)
                    except MemoryError:
                        raise
                    except Exception as exc:
                        answers[i] = False, WorkerDiedError(
                            f"{command}: the answer of call {i} does not unpickle: {exc}", command=command)
            except (EOFError, pickle.UnpicklingError):
                pass
    finally:
        for pid, pipe in started:
            pipe.close()
            os.waitpid(pid, 0)
    return answers


def _answer(call) -> tuple:
    try:
        return True, call()
    except Exception as exc:  # MemoryError too: each is raised where its result is taken
        return False, exc


def _timeline_cell(run: Path, out: Path, key, *simulation) -> ScheduleResult:
    """A ``simulate`` cell (see ``compare_configs``), on a worker or in this
    process: simulate it recorded, write its timeline CSV into ``run`` (a
    failure is reported under ``out``) and return the schedule without its op
    arrays, which never leave the process that made them. The baseline cell
    simulated only for the ratio (``key`` None) is not recorded."""
    schedule = simulate_cell(key, *simulation, record=key is not None)
    if key is None:
        return schedule
    name = "timeline_{}_{}_{}.csv".format(*key)
    with _writing(out / name):
        _write_csv(run / name, ["stage", "kind", "start", "end", "microbatch"], schedule.timeline_rows())
    return dataclasses.replace(schedule, op_starts=(), op_ends=())


def _need_cost_model(config: ExperimentConfig, command: str) -> None:
    if not config.encoders or not config.llm_layer_costs:
        raise ConfigError(f"{command} needs a cost model (encoders + llm_layer_costs)")


def _comparison(config: ExperimentConfig, trace: WorkloadTrace, cell, map) -> list[dict]:
    """The comparison rows of every (layout, packing, plan) cell of the
    config, each run by ``cell`` through ``map`` (see ``compare_configs``)."""
    return compare_configs(trace, config.capacity, config.encoders, config.llm_layer_costs, config.layouts,
                           config.packing_policies, config.plan_policies, config.backward_ratio,
                           config.comm_latency, cell=cell, map=map)


def _pack_rows(trace: WorkloadTrace, capacity: int, policies: Sequence[str]) -> list[dict]:
    """``packing.csv`` rows: each policy's packing report."""
    return [pack(trace, capacity, name)[1].to_dict() for name in policies]


def _mem_rows(trace: WorkloadTrace, capacity: int, mem: dict) -> list[dict]:
    """``memsim.csv`` rows: allocator reports for per-sample buffers vs
    FFD-packed batches, with the config's ``memsim`` section ``mem``."""
    per_sample = memsim_mod.simulate_allocator(
        memsim_mod.events_from_samples(trace, mem["bytes_per_token"], mem["round_to"]),
        mem["allocator"],
    )
    batches, _ = pack(trace, capacity, "ffd")
    packed = memsim_mod.simulate_allocator(
        memsim_mod.events_from_batches(batches, mem["bytes_per_token"]), mem["allocator"]
    )
    return [
        {"scenario": "per-sample", **per_sample.to_dict()},
        {"scenario": "ffd-packed", **packed.to_dict()},
    ]


def _pack(config: ExperimentConfig, args: argparse.Namespace, run: Path, out: Path) -> tuple[dict, list]:
    trace = config.load_workload()
    rows = _pack_rows(trace, config.capacity, list(POLICIES) if args.policy == "all" else [args.policy])
    summary = {
        "command": "pack",
        "trace": trace_stats(trace),
        "capacity": config.capacity,
        "reports": rows,
    }
    return summary, [("packing.csv", REPORT_CSV_FIELDS, rows)]


def _plan(config: ExperimentConfig, args: argparse.Namespace, run: Path, out: Path) -> tuple[dict, list]:
    _need_cost_model(config, "plan")
    labels = unit_labels(config.encoders, config.llm_layer_costs)
    plans = {}
    for layout in config.layouts:
        balanced = plan_balanced_stages(config.encoders, config.llm_layer_costs, layout)
        naive = naive_plan(config.encoders, config.llm_layer_costs, layout)
        plans[layout.label()] = {
            "balanced": balanced.to_dict(labels),
            "naive": naive.to_dict(labels),
        }
    summary = {
        "command": "plan",
        "layouts": {
            label: {
                "balanced_imbalance": doc["balanced"]["imbalance"],
                "naive_imbalance": doc["naive"]["imbalance"],
            }
            for label, doc in plans.items()
        },
    }
    return summary, [("plan.json", None, plans)]


def _simulate(config: ExperimentConfig, args: argparse.Namespace, run: Path, out: Path) -> tuple[dict, list]:
    _need_cost_model(config, "simulate")
    trace = config.load_workload()
    rows = _comparison(config, trace, partial(_timeline_cell, run, out), _worker_pool("simulate"))
    summary = {
        "command": "simulate",
        "trace": trace_stats(trace),
        "capacity": config.capacity,
        "headline_ratio": {
            row["layout"]: row["ratio_vs_baseline"]
            for row in rows
            if (row["packing_policy"], row["plan_policy"]) == ("ffd", "balanced")
        },
        "cells": rows,
    }
    return summary, [("comparison.csv", COMPARISON_CSV_FIELDS, rows)]


def _route(config: ExperimentConfig, args: argparse.Namespace, run: Path, out: Path) -> tuple[dict, list]:
    scenario = config.resolved["router"]
    router = config.router
    routing = moe_mod.simulate_routing(router, config.logits, scenario["tokens_per_step"], scenario["steps"])
    summary = {
        "command": "route",
        "num_experts": router.num_experts,
        "top_k": router.top_k,
        "steps": scenario["steps"],
        "tokens_per_step": scenario["tokens_per_step"],
        "cov_first": float(routing["cov"][0]),
        "cov_last": float(routing["cov"][-1]),
        "aux_first": float(routing["aux_loss"][0]),
        "aux_last": float(routing["aux_loss"][-1]),
    }
    return summary, [("route.csv", moe_mod.ROUTE_CSV_FIELDS, moe_mod.load_report_rows(routing))]


def _mem(config: ExperimentConfig, args: argparse.Namespace, run: Path, out: Path) -> tuple[dict, list]:
    rows = _mem_rows(config.load_workload(), config.capacity, config.resolved["memsim"])
    return {"command": "mem", "rows": rows}, [("memsim.csv", memsim_mod.MEMSIM_CSV_FIELDS, rows)]


# reproduce computes on worker processes once its cells' summed pp * m (stages
# times microbatches) reaches this. The value was set when the fixed cost of
# forking two workers and taking the first result was 35-50 ms (it is 8-12 ms).
# At 10,000 samples (about 184,000) on a 2-CPU host, forking took 141-154 ms
# against 168-191 ms in one process while two busy loops ran side by side, and
# 189 ms against 165 ms while two took twice as long as one
# (BENCH_33_fork_threshold.json).
_FORK_CELL_WORK = 64_000


def _reproduce(config: ExperimentConfig, args: argparse.Namespace, run: Path, out: Path) -> tuple[dict, list]:
    """The scenario end to end, and its baseline-vs-optimized contrast."""
    missing = [p for p in ("padded", "ffd") if p not in config.packing_policies]
    missing += [p for p in ("naive", "balanced") if p not in config.plan_policies]
    if missing:
        raise ConfigError(
            "reproduce contrasts (padded, naive) with (ffd, balanced); "
            f"the scenario's policies lack {missing}",
            missing=missing,
        )
    _need_cost_model(config, "reproduce")
    trace = config.load_workload()
    # a padded cell's m is the sample count, and a packed one's is taken at
    # its floor, the trace's tokens over the capacity
    packed = -(-sum(trace.lengths) // config.capacity)
    m = sum(len(trace) if name == "padded" else packed for name in config.packing_policies)
    work = m * len(config.plan_policies) * sum(layout.pp for layout in config.layouts)
    map = _worker_pool("reproduce", work >= _FORK_CELL_WORK)
    packs = map(_pack_rows, [trace], [config.capacity], [config.packing_policies])
    mems = map(_mem_rows, [trace], [config.capacity], [config.resolved["memsim"]])
    rows = _comparison(config, trace, simulate_cell, map)
    (pack_rows,), (mem_rows,) = packs, mems
    per_sample, packed = ({k: v for k, v in row.items() if k != "scenario"} for row in mem_rows)

    cells = {(row["layout"], row["packing_policy"], row["plan_policy"]): row for row in rows}
    layouts = {}
    for layout in config.layouts:
        label = layout.label()
        base = cells[label, "padded", "naive"]
        best = cells[label, "ffd", "balanced"]
        layouts[label] = {
            "throughput_baseline": base["throughput"],
            "throughput_optimized": best["throughput"],
            "throughput_ratio": best["ratio_vs_baseline"],
            "bubble_fraction_baseline": base["bubble_fraction"],
            "bubble_fraction_optimized": best["bubble_fraction"],
            "idle_fraction_baseline": base["idle_fraction"],
            "idle_fraction_optimized": best["idle_fraction"],
            "imbalance_baseline": base["imbalance"],
            "imbalance_optimized": best["imbalance"],
        }

    summary = {
        "command": "reproduce",
        "scenario": config.resolved["name"],
        "seed": config.resolved["seed"],
        "trace": trace_stats(trace),
        "capacity": config.capacity,
        "packing": {row["policy"]: row for row in pack_rows},
        "layouts": layouts,
        "throughput_ratio_min": min(v["throughput_ratio"] for v in layouts.values()),
        "fragmentation": {"per_sample_baseline": per_sample, "ffd_packed": packed},
    }
    return summary, [
        ("packing.csv", REPORT_CSV_FIELDS, pack_rows),
        ("comparison.csv", COMPARISON_CSV_FIELDS, rows),
        ("memsim.csv", memsim_mod.MEMSIM_CSV_FIELDS, mem_rows),
    ]


# Each command maps (config, args, run, out) to (summary, files); only simulate
# writes, its timelines into run, the _staging directory of out.
_COMMANDS = {"pack": _pack, "plan": _plan, "simulate": _simulate, "route": _route, "mem": _mem,
             "reproduce": _reproduce}


def _run(args: argparse.Namespace) -> None:
    """Resolve the config, make the run's ``_staging`` directory and compute
    the command's results; only then write the run directory: config.resolved,
    the command's files in order and summary.json.

    A file is (name, CSV fields or None for JSON, rows or the JSON object). A
    ``MemoryError`` in any of this is the ``out-of-memory`` error."""
    try:
        config = _config_from_args(args)
        out = Path(args.out) if args.out else config.output_dir
        with _staging(out) as run:
            summary, files = _COMMANDS[args.command](config, args, run, out)
            _write_run(config, run, out, files + [("summary.json", None, summary)])
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        raise OutOfMemoryError(f"{args.command} does not fit in memory{detail}", command=args.command) from None


def _path_flag(path: str) -> str:
    if not path:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return path


def _trace_flag(path: str) -> dict:
    return {"path": _path_flag(path)}


def _comma_list(text: str) -> list[str]:
    return [s for s in text.split(",") if s]


def _build_parser() -> _Parser:
    parser = _Parser(prog="omnisched", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=_path_flag, help="YAML config file")
        p.add_argument("--out", type=_path_flag, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="experiment seed")

    p_pack = sub.add_parser("pack", help="pack a trace and report fill statistics")
    common(p_pack)
    p_pack.add_argument("--trace", type=_trace_flag, help="NDJSON trace file")
    p_pack.add_argument("--capacity", type=int, help="token budget per batch")
    p_pack.add_argument("--policy", default="all", choices=sorted(POLICIES) + ["all"])

    p_plan = sub.add_parser("plan", help="plan stage assignments for each layout")
    common(p_plan)
    p_plan.add_argument("--cost-model", dest="cost_model", type=_path_flag, help="JSON cost model file")
    p_plan.add_argument("--layouts", type=_comma_list, help="comma-separated DPxPPxTP layouts")

    p_sim = sub.add_parser("simulate", help="packing x planning x schedule comparison")
    common(p_sim)
    p_sim.add_argument("--trace", type=_trace_flag, help="NDJSON trace file")
    p_sim.add_argument("--capacity", type=int)
    p_sim.add_argument("--cost-model", dest="cost_model", type=_path_flag, help="JSON cost model file")
    p_sim.add_argument("--layouts", type=_comma_list, help="comma-separated DPxPPxTP layouts")

    p_route = sub.add_parser("route", help="simulate MoE routing under balancing")
    common(p_route)
    p_route.add_argument("--experts", dest="router.num_experts", type=int)
    p_route.add_argument("--top-k", dest="router.top_k", type=int)
    p_route.add_argument("--bias-step", dest="router.bias_step", type=float)
    p_route.add_argument("--aux-coef", dest="router.aux_coefficient", type=float)
    p_route.add_argument("--tokens", dest="router.tokens_per_step", type=int)
    p_route.add_argument("--steps", dest="router.steps", type=int)

    p_mem = sub.add_parser("mem", help="allocator fragmentation for a trace")
    common(p_mem)
    p_mem.add_argument("--trace", type=_trace_flag, help="NDJSON trace file")
    p_mem.add_argument("--capacity", type=int)
    p_mem.add_argument("--bytes-per-token", dest="memsim.bytes_per_token", type=int)
    p_mem.add_argument(
        "--allocator", dest="memsim.allocator", choices=list(memsim_mod.ALLOCATOR_POLICIES)
    )

    p_rep = sub.add_parser("reproduce", help="run the shipped headline scenario")
    p_rep.add_argument("--out", type=_path_flag, help="output directory")
    p_rep.add_argument(
        "--scenario", dest="config", metavar="SCENARIO", type=_path_flag, help="override the shipped scenario file"
    )

    return parser


# argparse destinations that are not config keys
_NOT_CONFIG = ("command", "config", "out", "policy")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's document, with each flag given (not None) set at the
    config key path its destination names, read by ``build_config``."""
    if args.config:
        doc = load_config_file(args.config)
    else:  # reproduce runs the shipped scenario unless --scenario names a file
        doc = reproduce_scenario_doc() if args.command == "reproduce" else {}
    for path, value in vars(args).items():
        if value is None or path in _NOT_CONFIG:
            continue
        section, _, name = path.rpartition(".")
        target = doc.setdefault(section, {}) if section else doc
        if isinstance(target, dict):  # else build_config reports the section
            target[name] = value
    return build_config(doc)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(json.dumps({"kind": "usage", "message": str(exc), "context": {}}), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)

    try:
        _run(args)
    except OmniSchedError as exc:
        print(json.dumps(exc.to_dict(), default=str), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
